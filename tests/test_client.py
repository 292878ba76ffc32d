import io
import itertools
import tarfile
from pathlib import Path

import pytest

from conftest import build_sample_metadata, count_files_read, count_parses, requirers
from pacloud.client import (
    Client,
    await_package,
    await_packages,
    format_search_results,
    request_package,
    unpack_archive,
)
from pacloud.core import (
    BuildKey,
    DependencyAtom,
    PackageId,
    Specifier,
    UseFlagSet,
    parse_version,
)
from pacloud.depparse import parse_atom
from pacloud.errors import (
    BuildFailed,
    BuildTimeout,
    MissingServerUrl,
    NotInstalled,
    ProtocolError,
    StillRequired,
    UnpackError,
)
from pacloud.config import Config
from pacloud import localdb
from pacloud.farm import JobProfile, VirtualClock, build_artifact_tar
from pacloud.localdb import (
    DirectoryStore,
    PackageMetadata,
    write_store,
)
from pacloud.wire import (
    ARTIFACT_DIR,
    Response,
    STATUS_AVAILABLE,
    STATUS_PENDING,
    artifact_file,
)
from test_localdb import tree_snapshot


def pkg(text):
    return PackageId.parse(text)


def tree_files(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def trees(env):
    """The database tree and the install root."""
    return tree_snapshot(env.client.db.root), tree_snapshot(env.config.install_root)


class ScriptedTransport:
    """Answers each exchange with the next scripted statuses."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []
        self.closed = 0

    @property
    def exchanges(self):
        return len(self.requests)

    def exchange(self, request):
        self.requests.append(request)
        return {"statuses": self.responses.pop(0)}

    def close(self):
        self.closed += 1


class TestRequestPackage:
    KEY = BuildKey.parse("a/b-1.0[]")

    def test_available(self):
        transport = ScriptedTransport([[{"status": "available"}]])
        response = request_package(transport, self.KEY)
        assert response == Response(STATUS_AVAILABLE)
        assert transport.requests == [{"type": "build", "keys": ["a/b-1.0[]"]}]

    def test_pending(self):
        transport = ScriptedTransport([[{"status": "pending"}]])
        assert request_package(transport, self.KEY).status == STATUS_PENDING

    def test_closed_vocabulary(self):
        transport = ScriptedTransport([[{"status": "done"}]])
        with pytest.raises(ProtocolError):
            request_package(transport, self.KEY)

    @pytest.mark.parametrize("statuses", [
        pytest.param([], id="none"),
        pytest.param([{"status": "pending"}] * 2, id="one-too-many"),
    ])
    def test_one_status_per_key(self, statuses):
        transport = ScriptedTransport([statuses])
        with pytest.raises(ProtocolError, match="statuses for 1 keys"):
            request_package(transport, self.KEY)


class TestAwaitPackage:
    KEY = BuildKey.parse("a/b-1.0[]")

    def test_available_on_third_poll(self):
        clock = VirtualClock()
        transport = ScriptedTransport(
            [
                [{"status": "pending"}],
                [{"status": "pending"}],
                [{"status": "available"}],
            ]
        )
        await_package(transport, self.KEY, clock, poll_interval=10.0)
        assert clock.now() == 20.0
        assert transport.exchanges == 3

    def test_failed_carries_verbatim_error(self):
        clock = VirtualClock()
        transport = ScriptedTransport(
            [[{"status": "failed", "error": "configure: error: missing x"}]]
        )
        with pytest.raises(BuildFailed) as exc_info:
            await_package(transport, self.KEY, clock)
        assert exc_info.value.error == "configure: error: missing x"

    def test_perpetual_pending_times_out_at_deadline(self):
        clock = VirtualClock()
        transport = ScriptedTransport([[{"status": "pending"}]] * 100000)
        with pytest.raises(BuildTimeout):
            await_package(
                transport, self.KEY, clock, poll_interval=10.0, timeout=7200.0
            )
        assert clock.now() == 7200.0
        assert transport.exchanges == 720


class TestAwaitPackages:
    KEYS = [BuildKey.parse(f"a/b{i}-1.0[]") for i in range(3)]

    def test_each_round_asks_only_about_the_keys_still_pending(self):
        clock = VirtualClock()
        transport = ScriptedTransport([
            [{"status": "pending"}, {"status": "available"}, {"status": "pending"}],
            [{"status": "pending"}, {"status": "pending"}],
            [{"status": "available"}, {"status": "available"}],
        ])
        got = []
        for key in await_packages(transport, self.KEYS, clock, poll_interval=10.0):
            got.append((key, clock.now()))
        assert got == [(key, 20.0) for key in self.KEYS]
        assert [r["keys"] for r in transport.requests] == [
            [k.canonical() for k in self.KEYS],
            [self.KEYS[0].canonical(), self.KEYS[2].canonical()],
            [self.KEYS[0].canonical(), self.KEYS[2].canonical()],
        ]

    def test_a_key_is_yielded_before_the_next_sleep(self):
        clock = VirtualClock()
        transport = ScriptedTransport([
            [{"status": "available"}, {"status": "pending"}, {"status": "pending"}],
            [{"status": "available"}, {"status": "available"}],
        ])
        got = [
            (key, clock.now())
            for key in await_packages(transport, self.KEYS, clock, poll_interval=10.0)
        ]
        assert got == [(self.KEYS[0], 0.0), (self.KEYS[1], 10.0), (self.KEYS[2], 10.0)]

    def test_a_later_failure_waits_for_the_keys_before_it(self):
        clock = VirtualClock()
        transport = ScriptedTransport([
            [{"status": "pending"}, {"status": "failed", "error": "boom"},
             {"status": "pending"}],
            [{"status": "available"}, {"status": "pending"}],
        ])
        built = await_packages(transport, self.KEYS, clock, poll_interval=10.0)
        assert next(built) == self.KEYS[0]
        with pytest.raises(BuildFailed, match="boom"):
            next(built)
        assert clock.now() == 10.0
        # the failed key is not asked about again
        assert transport.requests[1]["keys"] == [
            self.KEYS[0].canonical(), self.KEYS[2].canonical()
        ]


class TestUnpack:
    def test_round_trip(self, tmp_path):
        key = BuildKey.parse("sys-libs/ncurses-6.1-r2[]")
        files = unpack_archive(build_artifact_tar(key), tmp_path)
        assert files == ["usr/share/pacloud/sys-libs/ncurses-6.1-r2"]
        assert (tmp_path / files[0]).read_text() == key.canonical() + "\n"

    def test_garbage_rejected(self, tmp_path):
        with pytest.raises(UnpackError):
            unpack_archive(b"not a tar at all", tmp_path)

    def test_absolute_member_rejected(self, tmp_path):
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w") as tar:
            info = tarfile.TarInfo("/etc/evil")
            info.size = 0
            tar.addfile(info, io.BytesIO(b""))
        with pytest.raises(UnpackError):
            unpack_archive(buffer.getvalue(), tmp_path)

    def test_traversal_member_rejected(self, tmp_path):
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w") as tar:
            info = tarfile.TarInfo("ok/../../evil")
            info.size = 0
            tar.addfile(info, io.BytesIO(b""))
        with pytest.raises(UnpackError):
            unpack_archive(buffer.getvalue(), tmp_path)

    @pytest.mark.parametrize("name, kind", [
        ("../evil", tarfile.REGTYPE),
        ("/etc/evil", tarfile.REGTYPE),
        ("", tarfile.REGTYPE),
        ("usr/link", tarfile.SYMTYPE),
        ("usr/fifo", tarfile.FIFOTYPE),
    ])
    def test_a_refused_member_after_a_good_one_writes_nothing(
        self, name, kind, tmp_path
    ):
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w") as tar:
            tar.addfile(tarfile.TarInfo("usr/a"), io.BytesIO(b""))
            info = tarfile.TarInfo(name)
            info.type = kind
            info.linkname = "/etc/passwd" if kind == tarfile.SYMTYPE else ""
            tar.addfile(info, io.BytesIO(b""))
        with pytest.raises(UnpackError):
            unpack_archive(buffer.getvalue(), tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("members", [
        [("usr/a", tarfile.REGTYPE), ("usr/a/b", tarfile.REGTYPE)],
        [("usr/a/b", tarfile.REGTYPE), ("usr/a", tarfile.REGTYPE)],
        [("usr/a", tarfile.REGTYPE), ("usr/a/d", tarfile.DIRTYPE)],
        [("usr/a", tarfile.DIRTYPE), ("usr/a", tarfile.REGTYPE)],
    ], ids=["file-then-child", "child-then-file", "file-then-dir", "dir-and-file"])
    def test_a_file_member_in_another_members_path_writes_nothing(
        self, members, tmp_path
    ):
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w") as tar:
            for name, kind in members:
                info = tarfile.TarInfo(name)
                info.type = kind
                tar.addfile(info, io.BytesIO(b""))
        (tmp_path / "keep").write_bytes(b"kept")
        before = tree_snapshot(tmp_path)
        with pytest.raises(UnpackError, match="clashes with a file"):
            unpack_archive(buffer.getvalue(), tmp_path)
        assert tree_snapshot(tmp_path) == before

    def test_a_file_in_the_install_root_in_the_way_is_an_unpack_error(
        self, tmp_path
    ):
        (tmp_path / "usr").write_bytes(b"in the way")
        key = BuildKey.parse("sys-libs/ncurses-6.1-r2[]")
        with pytest.raises(UnpackError, match="usr/share/pacloud"):
            unpack_archive(build_artifact_tar(key), tmp_path)
        assert (tmp_path / "usr").read_bytes() == b"in the way"


class TestInstall:
    def test_requests_issued_before_downloads(self, env):
        env.client.update()
        env.client.install([parse_atom("app-editors/vim")])
        kinds = [kind for kind, _ in env.events]
        assert "request" in kinds and "download" in kinds
        first_download = kinds.index("download")
        # all three closure members were requested before any download
        requested = {
            detail for kind, detail in env.events[:first_download] if kind == "request"
        }
        assert {
            "sys-libs/ncurses",
            "app-editors/vim-core",
            "app-editors/vim",
        } <= requested

    def test_install_order_topological(self, env):
        env.client.update()
        plan = env.client.install([parse_atom("app-editors/vim")])
        names = [p.render() for p, _ in plan.steps]
        assert names.index("sys-libs/ncurses") < names.index("app-editors/vim-core")
        assert names.index("app-editors/vim-core") < names.index("app-editors/vim")
        vim = env.client.db.get_metadata(pkg("app-editors/vim"))
        assert vim.installed == parse_version("8.1")
        assert vim.explicit is True
        core = env.client.db.get_metadata(pkg("app-editors/vim-core"))
        assert core.explicit is False
        assert pkg("app-editors/vim") in requirers(
            env.client.db, pkg("sys-libs/ncurses")
        )

    def test_files_on_disk_match_recorded(self, env):
        env.client.update()
        env.client.install([parse_atom("app-editors/vim")])
        recorded = set()
        for meta in env.client.db.iter_packages():
            if meta.installed:
                recorded.update(meta.files)
        on_disk = set(tree_files(env.config.install_root))
        assert on_disk == recorded

    def test_reinstall_uses_cache_with_zero_wire_requests(self, env):
        env.client.update()
        env.client.install([parse_atom("app-editors/vim")])
        before = trees(env)
        env.events.clear()
        env.client.install([parse_atom("app-editors/vim")])
        assert env.request_events() == []
        assert env.download_events() == []
        # The replaced install lists the same files: none is unlinked.
        assert trees(env) == before

    @pytest.mark.parametrize(
        "first, second", [("6.0-r2", "6.1-r2"), ("6.1-r2", "6.0-r2")]
    )
    def test_another_version_replaces_the_installed_one(self, first, second, env):
        env.client.update()
        before = trees(env)
        for version in (first, second):
            env.client.install([parse_atom(f"=sys-libs/ncurses-{version}")])
        assert list(tree_files(env.config.install_root)) == [
            f"usr/share/pacloud/sys-libs/ncurses-{second}"
        ]
        env.client.remove([pkg("sys-libs/ncurses")])
        assert trees(env) == before
        assert env.client.db.validate() == []

    def test_an_archive_that_fails_to_unpack_is_not_cached(self, env):
        env.client.update()
        key = BuildKey.parse("sys-libs/ncurses-6.1-r2[]")
        env.farm.service.handle_request(key)
        env.farm.run_until_settled(1000.0)
        stored = env.farm_root / ARTIFACT_DIR / artifact_file(key)
        good = stored.read_bytes()
        stored.write_bytes(good[:300])  # a torn first header
        before = trees(env)
        with pytest.raises(UnpackError):
            env.client.install([parse_atom("sys-libs/ncurses")])
        assert trees(env) == before
        stored.write_bytes(good)  # the store is repaired
        env.client.install([parse_atom("sys-libs/ncurses")])
        assert tree_files(env.config.install_root) == {
            "usr/share/pacloud/sys-libs/ncurses-6.1-r2":
                f"{key.canonical()}\n".encode()
        }
        assert env.client.db.archive_get(key) == good

    def test_use_flag_pulls_conditional_dependency(self, make_env):
        env = make_env(use_flags=UseFlagSet.of(["acl"]))
        env.client.update()
        plan = env.client.install([parse_atom("app-editors/vim")])
        names = [p.render() for p, _ in plan.steps]
        assert "sys-apps/acl" in names

    def test_failed_dependency_stops_in_plan_order(self, make_env):
        error_text = "emerge: vim-core exploded"
        env = make_env(
            profiles={
                "app-editors/vim-core-8.1[]": JobProfile(5.0, error=error_text)
            },
        )
        env.client.update()
        with pytest.raises(BuildFailed) as exc_info:
            env.client.install([parse_atom("app-editors/vim")])
        assert exc_info.value.error == error_text
        db = env.client.db
        assert db.get_metadata(pkg("sys-libs/ncurses")).installed is not None
        assert db.get_metadata(pkg("app-editors/vim-core")).installed is None
        assert db.get_metadata(pkg("app-editors/vim")).installed is None

    @pytest.mark.parametrize(
        "url", ["store://sys-apps/acl-2.2.53[]", "store://../x"]
    )
    def test_a_url_for_another_key_fails_before_any_fetch(self, env, url):
        # a status holds no url: one that carries any is refused
        env.client.update()
        env.client._transport = ScriptedTransport(
            [[{"status": "pending"}], [{"status": "available", "url": url}]]
        )
        with pytest.raises(ProtocolError):
            env.client.install([parse_atom("sys-libs/ncurses")])
        assert env.download_events() == []
        assert tree_files(env.config.install_root) == {}
        assert env.client.db.get_metadata(pkg("sys-libs/ncurses")).installed is None

    def test_missing_api_url_is_lazy(self, env):
        env.client._transport = None
        env.client.update()  # store is injected; update never needs the api
        with pytest.raises(MissingServerUrl):
            env.client.install([parse_atom("app-editors/vim")])


class TestRemove:
    def test_remove_with_orphans_restores_state(self, env):
        env.client.update()
        before_db = tree_files(env.client.db.root)
        before_image = tree_files(env.config.install_root)
        env.client.install([parse_atom("app-editors/vim")])
        removed = env.client.remove([pkg("app-editors/vim")])
        assert [p.render() for p in removed] == [
            "app-editors/vim",
            "app-editors/vim-core",
            "sys-libs/ncurses",
        ]
        assert tree_files(env.client.db.root) == before_db
        assert tree_files(env.config.install_root) == before_image

    def test_still_required_dependency_kept(self, env):
        env.client.update()
        env.client.install([parse_atom("app-editors/vim")])
        env.client.install([parse_atom("app-editors/vim-core")])
        # vim-core is now explicit; removing vim must keep it and ncurses
        removed = env.client.remove([pkg("app-editors/vim")])
        assert [p.render() for p in removed] == ["app-editors/vim"]
        assert env.client.db.get_metadata(pkg("app-editors/vim-core")).installed

    def test_removing_required_package_fails(self, env):
        env.client.update()
        env.client.install([parse_atom("app-editors/vim")])
        with pytest.raises(StillRequired):
            env.client.remove([pkg("sys-libs/ncurses")])

    def test_remove_never_installed(self, env):
        env.client.update()
        with pytest.raises(NotInstalled):
            env.client.remove([pkg("app-editors/vim")])


class TestUpgrade:
    def test_upgrade_to_highest_known(self, env):
        env.client.update()
        env.client.install([parse_atom("=sys-libs/ncurses-6.0-r2")])
        performed = env.client.upgrade()
        assert [
            (p.render(), str(old), str(new)) for p, old, new in performed
        ] == [("sys-libs/ncurses", "6.0-r2", "6.1-r2")]
        meta = env.client.db.get_metadata(pkg("sys-libs/ncurses"))
        assert meta.installed == parse_version("6.1-r2")
        assert meta.explicit is True
        # the old version's file is gone, the new one is present
        files = tree_files(env.config.install_root)
        assert "usr/share/pacloud/sys-libs/ncurses-6.1-r2" in files
        assert "usr/share/pacloud/sys-libs/ncurses-6.0-r2" not in files

    def test_up_to_date_is_a_noop(self, env):
        env.client.update()
        env.client.install([parse_atom("app-editors/vim")])
        env.events.clear()
        assert env.client.upgrade() == []
        assert env.request_events() == []

    def test_dep_installed_untouched_unless_named(self, env):
        env.client.update()
        # ncurses arrives as a dependency at 6.1-r2; force an older explicit
        env.client.install([parse_atom("=sys-libs/ncurses-6.0-r2")])
        env.client.db.record_removal(pkg("sys-libs/ncurses"))
        env.client.db.record_install(
            pkg("sys-libs/ncurses"), parse_version("6.0-r2"), False, [], []
        )
        assert env.client.upgrade() == []  # not explicit, not named
        performed = env.client.upgrade([pkg("sys-libs/ncurses")])
        assert len(performed) == 1
        meta = env.client.db.get_metadata(pkg("sys-libs/ncurses"))
        assert meta.installed == parse_version("6.1-r2")
        assert meta.explicit is False  # named upgrade keeps its status

    def test_upgrade_not_installed(self, env):
        env.client.update()
        with pytest.raises(NotInstalled):
            env.client.upgrade([pkg("app-editors/vim")])


class TestUpdateVerb:
    def test_update_syncs(self, env):
        report = env.client.update()
        assert report.packages_added == 4
        second = env.client.update()
        assert second.packages_unchanged == 4

    def test_search_after_install_shows_marker(self, env):
        env.client.update()
        env.client.install([parse_atom("=sys-libs/ncurses-6.1-r2")])
        results = env.client.search("ncurses")
        text = format_search_results("ncurses", results)
        assert (
            "sys-libs/ncurses ( 5.9-r101 6.0-r1 6.0-r2 6.1-r2 )"
            " [installed: 6.1-r2]" in text
        )
        assert "\n  console display library" in text

    def test_log_lines_appended(self, env):
        env.client.update()
        env.client.search("ncurses")
        lines = env.config.log_path.read_text().splitlines()
        assert len(lines) == 2
        assert all(" " in line for line in lines)


class TestReadsDoNotGrowWithDatabase:
    """Remove, upgrade and search read only the installed packages'
    documents or the ones they return."""

    @pytest.fixture(params=[20, 400])
    def sized(self, request, tmp_path):
        metas = [
            PackageMetadata(
                name=pkg(f"cat/p{i:03d}"),
                description="d",
                versions={parse_version("1.0"): ()},
            )
            for i in range(request.param)
        ]
        write_store(tmp_path / "store", metas)
        config = Config(
            db_path=tmp_path / "db",
            log_path=tmp_path / "pacloud.log",
            install_root=tmp_path / "image",
        )
        client = Client(config, store=DirectoryStore(tmp_path / "store"))
        client.update()
        return client

    def test_remove(self, sized, monkeypatch):
        a, b, c = (pkg(f"cat/p{i:03d}") for i in range(3))
        v = parse_version("1.0")
        sized.db.record_install(b, v, False, [], [])
        sized.db.record_install(c, v, False, [], [])
        sized.db.record_install(a, v, True, [b, c], [])
        parses = count_parses(monkeypatch)
        files = count_files_read(monkeypatch, sized.db)
        writes = []
        monkeypatch.setattr(localdb, "rewrite_text", lambda *args: writes.append(args))
        assert sized.remove([a]) == [a, b, c]
        monkeypatch.undo()
        assert sized.db.validate() == []
        # compute_orphans reads each installed document once and hands
        # back what it read; the one record_removal reads each once more
        # under the lock and deletes it. A scan would read every document.
        assert sorted(files) == sorted(
            f"local/{p.render()}/metadata.json" for p in [a, b, c] * 2
        )
        # Each document is parsed once, at its first read since it was
        # written: the second read finds the same bytes.
        assert sorted(parses) == [a.render(), b.render(), c.render()]
        assert writes == []

    def test_upgrade_without_targets(self, sized, monkeypatch):
        a, b, c = (pkg(f"cat/p{i:03d}") for i in range(3))
        v = parse_version("1.0")
        sized.db.record_install(b, v, False, [], [])
        sized.db.record_install(c, v, True, [], [])
        sized.db.record_install(a, v, True, [b, c], [])
        parses = count_parses(monkeypatch)
        reads = count_files_read(monkeypatch, sized.db)
        assert sized.upgrade() == []
        monkeypatch.undo()
        # The installed documents once to find the explicit packages, then
        # each explicit one again, with its category document, to join it
        # with its store entry. A lookup reads the category document to
        # compare its bytes, and parses nothing when they are the same.
        assert sorted(reads) == sorted(
            [f"local/{p.render()}/metadata.json" for p in [a, a, b, c, c]]
            + ["store/cat.json"] * 2
        )
        # Each document parsed once; the store entries were parsed when
        # the packages were recorded.
        assert sorted(parses) == [a.render(), b.render(), c.render()]

    def test_a_performed_upgrade(self, env, monkeypatch):
        env.client.update()
        env.client.install([parse_atom("=sys-libs/ncurses-6.0-r2")])
        parses = count_parses(monkeypatch)
        reads = count_files_read(monkeypatch, env.client.db)
        assert len(env.client.upgrade()) == 1
        monkeypatch.undo()
        # Finding the explicit packages, then picking the version,
        # resolving, reading the files the install replaces, and recording,
        # each of which also reads the category document.
        assert reads == ["local/sys-libs/ncurses/metadata.json"] + [
            "store/sys-libs.json",
            "local/sys-libs/ncurses/metadata.json",
        ] * 4
        # The document the install wrote is parsed at its first read only.
        assert parses == ["sys-libs/ncurses"]

    def test_search(self, sized, monkeypatch):
        reads = count_parses(monkeypatch)
        results = sized.search("P00")
        monkeypatch.undo()
        names = [f"cat/p{i:03d}" for i in range(10)]
        assert [r.package.render() for r in results] == names
        assert reads == names


class Crash(Exception):
    """Stands for the process dying between two file operations."""


def crash_at(monkeypatch, root, k):
    """Make the ``k``-th file write or deletion under ``root`` raise
    ``Crash`` instead of happening; return the ones that happened."""
    done = []

    def wrap(real):
        def operation(path, *args, **kwargs):
            if Path(path).is_relative_to(root):
                if len(done) == k:
                    raise Crash(path)
                done.append(path)
            return real(path, *args, **kwargs)
        return operation

    monkeypatch.setattr(localdb, "rewrite_text", wrap(localdb.rewrite_text))
    monkeypatch.setattr(Path, "write_bytes", wrap(Path.write_bytes))
    monkeypatch.setattr(Path, "unlink", wrap(Path.unlink))
    return done


def test_a_crash_while_unlinking_replaced_files_is_finished_by_the_same_install(
    env, monkeypatch
):
    """The replaced version stays recorded until its stale files are gone,
    so installing again unlinks the ones a crash left."""
    env.client.update()
    env.client.install([parse_atom("=sys-libs/ncurses-6.0-r2")])
    real = Client._unlink

    def crash_once(client, files):
        monkeypatch.setattr(Client, "_unlink", real)
        raise Crash(files)

    monkeypatch.setattr(Client, "_unlink", crash_once)
    target = [parse_atom("=sys-libs/ncurses-6.1-r2")]
    with pytest.raises(Crash):
        env.client.install(target)
    env.client.install(target)
    env.client.remove([pkg("sys-libs/ncurses")])
    assert tree_files(env.config.install_root) == {}
    assert env.client.db.validate() == []


@pytest.mark.parametrize("verb", ["install", "remove"])
def test_a_crash_at_any_write_is_finished_by_the_same_verb(
    verb, make_env, tmp_path, monkeypatch
):
    """client-churn's shape: an app over four private libraries, each over
    two of the installed core libraries. A crash before each file write or
    deletion in the database, then the same verb run again, leaves a valid
    database; installing and removing the app restores both trees."""
    cores = [f"core/c{i}" for i in range(4)]
    libs = [f"app/lib{k}" for k in range(4)]
    deps = {core: [] for core in cores}
    deps.update({lib: [cores[k], cores[(k + 1) % 4]] for k, lib in enumerate(libs)})
    deps["app/app"] = cores[:2] + libs
    env = make_env(metas=[
        PackageMetadata(pkg(name), "d", {parse_version("1.0"): tuple(names)})
        for name, names in deps.items()
    ])
    app = pkg("app/app")
    for k in itertools.count():
        config = Config(
            db_path=tmp_path / f"db{k}",
            log_path=tmp_path / "pacloud.log",
            install_root=tmp_path / f"image{k}",
        )
        client = Client(
            config, store=env.store, transport=env.transport, clock=env.clock
        )
        client.update()
        client.install([parse_atom(core) for core in cores])
        before = tree_snapshot(config.db_path), tree_snapshot(config.install_root)
        run = {
            "install": lambda: client.install([DependencyAtom(Specifier.ANY, app)]),
            "remove": lambda: client.remove([app]),
        }[verb]
        if verb == "remove":
            client.install([DependencyAtom(Specifier.ANY, app)])
        with monkeypatch.context() as patched:
            done = crash_at(patched, config.db_path, k)
            try:
                run()
            except Crash:
                pass
            else:
                break  # k is past the verb's last file operation
        run()
        assert client.db.validate() == [], k
        if verb == "install":
            client.remove([app])
        after = tree_snapshot(config.db_path), tree_snapshot(config.install_root)
        assert after == before, k
    # Five archives and five documents, each written or deleted once.
    assert k == len(done) == 10


def test_a_deeply_nested_dependency_string_installs(make_env):
    # 5000 nested groups and conditionals, deeper than Python's recursion
    # limit, around one atom
    deep = "( acl? ( " * 2500 + "sys-apps/acl" + " ) )" * 2500
    env = make_env(
        metas=build_sample_metadata() + [
            PackageMetadata(pkg("app-misc/deep"), "d", {parse_version("1.0"): (deep,)})
        ],
        use_flags=UseFlagSet.of(["acl"]),
    )
    env.client.update()
    plan = env.client.install([parse_atom("app-misc/deep")])
    assert [p.render() for p, _ in plan.steps] == ["sys-apps/acl", "app-misc/deep"]
    assert env.client.db.validate() == []
