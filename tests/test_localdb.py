import json
import os
import random
import re
from dataclasses import FrozenInstanceError, replace

import pytest

from conftest import (
    NCURSES_VERSIONS,
    build_sample_metadata,
    count_files_read,
    count_parses,
    requirers,
)
from pacloud import localdb
from pacloud.cli import main
from pacloud.core import BuildKey, PackageId, UseFlagSet, parse_version
from pacloud.depparse import parse_atom
from pacloud.errors import (
    DatabaseLayoutError,
    MalformedCategoryDocument,
    MalformedManifest,
    NotInstalled,
    StillRequired,
    StoreUnreachable,
    UnknownPackage,
    UnknownVersion,
)
from pacloud.localdb import (
    DirectoryStore,
    LocalDb,
    PackageMetadata,
    dump_document,
    parse_manifest,
    write_store,
)
from pacloud.resolver import compute_orphans
from pacloud.wire import ARTIFACT_DIR, artifact_file
from test_resolver import random_install_db


def pkg(text):
    return PackageId.parse(text)


def tree_snapshot(root):
    """Relative path -> bytes for every file under root, None for every
    directory."""
    return {
        str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
        for path in sorted(root.rglob("*"))
    }


class FailingStore:
    def fetch_manifest(self):
        raise StoreUnreachable("backend down")

    def fetch_category(self, category):
        raise StoreUnreachable("backend down")

    def fetch_artifact(self, key):
        raise StoreUnreachable("backend down")


class TestManifest:
    def test_parse(self):
        assert parse_manifest("sys-libs\napp-editors\n") == [
            "sys-libs",
            "app-editors",
        ]

    def test_blank_line_rejected(self):
        with pytest.raises(MalformedManifest):
            parse_manifest("sys-libs\n\napp-editors\n")

    def test_duplicate_rejected(self):
        with pytest.raises(MalformedManifest):
            parse_manifest("sys-libs\nsys-libs\n")

    @pytest.mark.parametrize(
        "token", ["..", ".", "../outside", "a/b", "/etc", "Sys-libs"]
    )
    def test_bad_category_rejected(self, token):
        with pytest.raises(MalformedManifest):
            parse_manifest(f"sys-libs\n{token}\n")

    def test_traversal_rejected_before_any_fetch(self, db, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        (store / "manifest.txt").write_text("../outside\n", encoding="utf-8")
        (tmp_path / "outside.json").write_text("{}", encoding="utf-8")
        fetched = []

        class SpyStore(DirectoryStore):
            def fetch_category(self, category):
                fetched.append(category)
                return super().fetch_category(category)

        with pytest.raises(MalformedManifest):
            db.sync(SpyStore(store))
        assert fetched == []
        assert not db.root.exists()


class TestSync:
    def test_fresh_sync_creates_categories(self, db, store_dir):
        report = db.sync(DirectoryStore(store_dir))
        assert report.categories_synced == 3  # sys-libs, app-editors, sys-apps
        assert report.packages_added == 4
        assert report.packages_updated == 0
        assert db.category_path("sys-libs").is_file()
        assert db.category_path("app-editors").is_file()
        assert sorted(p.name for p in db.root.iterdir()) == [".lock", "store"]

    def test_sync_idempotent_and_byte_identical(self, db, store_dir):
        store = DirectoryStore(store_dir)
        db.sync(store)
        first = tree_snapshot(db.root)
        report = db.sync(store)
        assert report.packages_unchanged == 4
        assert report.packages_added == report.packages_updated == 0
        assert tree_snapshot(db.root) == first

    def test_local_fields_survive_resync(self, db, store_dir):
        store = DirectoryStore(store_dir)
        db.sync(store)
        ncurses = pkg("sys-libs/ncurses")
        db.record_install(
            ncurses, parse_version("6.1-r2"), True, [], ["usr/lib/libncurses.so"]
        )
        db.sync(store)
        meta = db.get_metadata(ncurses)
        assert meta.installed == parse_version("6.1-r2")
        assert meta.explicit is True
        assert meta.files == ["usr/lib/libncurses.so"]

    def test_required_by_survives_resync(self, db, store_dir):
        store = DirectoryStore(store_dir)
        db.sync(store)
        db.record_install(
            pkg("sys-libs/ncurses"), parse_version("6.1-r2"), False, [], []
        )
        db.record_install(
            pkg("app-editors/vim"),
            parse_version("8.1"),
            True,
            [pkg("sys-libs/ncurses")],
            [],
        )
        db.sync(store)
        assert requirers(db, pkg("sys-libs/ncurses")) == [pkg("app-editors/vim")]
        vim = db.get_metadata(pkg("app-editors/vim"))
        assert vim.depends == [pkg("sys-libs/ncurses")]

    def test_unreachable_store_leaves_db_untouched(self, db):
        with pytest.raises(StoreUnreachable):
            db.sync(FailingStore())
        assert not db.root.exists() or not any(db.root.rglob("metadata.json"))

    def test_malformed_category_skipped_and_reported(self, db, store_dir):
        (store_dir / "sys-libs.json").write_text("{not json", encoding="utf-8")
        report = db.sync(DirectoryStore(store_dir))
        assert [c for c, _ in report.skipped_categories] == ["sys-libs"]
        assert report.categories_synced == 2
        assert not db.category_path("sys-libs").exists()

    def test_a_deeply_nested_category_is_skipped_and_reported(self, db, store_dir):
        (store_dir / "sys-libs.json").write_text("[" * 100_000, encoding="utf-8")
        report = db.sync(DirectoryStore(store_dir))
        [(category, reason)] = report.skipped_categories
        assert category == "sys-libs"
        assert "nested too deeply" in reason
        assert report.categories_synced == 2
        assert not db.category_path("sys-libs").exists()
        assert db.get_metadata(pkg("app-editors/vim")) is not None

    def test_remote_wins_for_descriptions(self, db, store_dir, tmp_path):
        db.sync(DirectoryStore(store_dir))
        metas = [
            replace(meta, description="newer words")
            if meta.name.render() == "sys-libs/ncurses" else meta
            for meta in build_sample_metadata()
        ]
        other = tmp_path / "store2"
        write_store(other, metas)
        report = db.sync(DirectoryStore(other))
        assert report.packages_updated == 1
        assert db.get_metadata(pkg("sys-libs/ncurses")).description == "newer words"

    def test_a_store_entry_carries_no_install_state(self, db, store_dir):
        # Only a package's local document says that it is installed: a
        # store entry that carries install state is refused, and its
        # category keeps what the last sync stored.
        store = DirectoryStore(store_dir)
        db.sync(store)
        before = tree_snapshot(db.root)
        path = store_dir / "sys-libs.json"
        doc = json.loads(path.read_bytes())
        doc["ncurses"].update(installed="6.1-r2", explicit=True, files=["lib/x"])
        path.write_text(dump_document(doc), encoding="utf-8")
        report = db.sync(store)
        [(category, reason)] = report.skipped_categories
        assert category == "sys-libs"
        assert "holds description, explicit, files, installed, name" in reason
        assert report.categories_synced == 2
        assert tree_snapshot(db.root) == before
        assert db.get_metadata(pkg("sys-libs/ncurses")).installed is None
        assert db.installed_packages() == {}

    def test_an_entry_spelling_one_version_twice_is_skipped(self, db, store_dir):
        path = store_dir / "sys-libs.json"
        doc = json.loads(path.read_bytes())
        doc["ncurses"]["versions"]["6.1-r02"] = {"dependencies": []}
        path.write_text(dump_document(doc), encoding="utf-8")
        report = db.sync(DirectoryStore(store_dir))
        [(category, reason)] = report.skipped_categories
        assert category == "sys-libs"
        assert "two keys spell version 6.1-r2" in reason
        assert not db.category_path("sys-libs").exists()

    @pytest.mark.parametrize(
        "version",
        [
            pytest.param("\u0661.\u0660", id="arabic-indic-digits"),
            pytest.param("1" + "0" * 5000, id="5001-digit-component"),
            pytest.param("1.0_" + "x" * 100000, id="100004-character-suffix"),
        ],
    )
    def test_an_entry_with_a_malformed_version_is_skipped(
        self, db, store_dir, version
    ):
        store = DirectoryStore(store_dir)
        db.sync(store)
        before = tree_snapshot(db.root)
        path = store_dir / "sys-libs.json"
        doc = json.loads(path.read_bytes())
        doc["ncurses"]["versions"][version] = {"dependencies": []}
        path.write_text(dump_document(doc), encoding="utf-8")
        report = db.sync(store)
        [(category, reason)] = report.skipped_categories
        assert category == "sys-libs"
        assert "not a valid version" in reason
        assert len(reason) < 500  # the reason quotes a cut of the version
        assert report.categories_synced == 2
        assert tree_snapshot(db.root) == before
        versions = db.get_metadata(pkg("sys-libs/ncurses")).versions
        assert [str(v) for v in versions] == NCURSES_VERSIONS


class TestSearch:
    def test_search_lists_versions_ascending_with_installed(self, db, store_dir):
        db.sync(DirectoryStore(store_dir))
        db.record_install(
            pkg("sys-libs/ncurses"), parse_version("6.1-r2"), True, [], []
        )
        results = db.search("ncurses")
        assert len(results) == 1
        result = results[0]
        assert result.package == pkg("sys-libs/ncurses")
        assert [str(v) for v in result.versions] == NCURSES_VERSIONS
        assert str(result.installed) == "6.1-r2"
        assert result.description == "console display library"

    def test_no_match(self, db, store_dir):
        db.sync(DirectoryStore(store_dir))
        assert db.search("zzzz-no-such") == []

    def test_category_substring_matches(self, db, store_dir):
        db.sync(DirectoryStore(store_dir))
        results = db.search("app-editors")
        assert [r.package.render() for r in results] == [
            "app-editors/vim",
            "app-editors/vim-core",
        ]

    def test_case_insensitive(self, db, store_dir):
        db.sync(DirectoryStore(store_dir))
        assert len(db.search("NCuRSes")) == 1

    def test_results_in_canonical_string_order(self, db, tmp_path):
        # '-' sorts before '/', so app-x/pkg must come before app/zzz even
        # though directory iteration visits the "app" category first
        metas = [
            PackageMetadata(
                name=pkg(name),
                description="d",
                versions={parse_version("1.0"): ()},
            )
            for name in ("app/zzz", "app-x/pkg")
        ]
        store = tmp_path / "ordering-store"
        write_store(store, metas)
        db.sync(DirectoryStore(store))
        results = db.search("p")
        assert [r.package.render() for r in results] == ["app-x/pkg", "app/zzz"]


class TestInstallState:
    @pytest.fixture(autouse=True)
    def synced(self, db, store_dir):
        db.sync(DirectoryStore(store_dir))
        self.db = db
        self.ncurses = pkg("sys-libs/ncurses")
        self.vim = pkg("app-editors/vim")

    def test_record_install_updates_required_by(self):
        self.db.record_install(self.ncurses, parse_version("6.1-r2"), False, [], [])
        self.db.record_install(
            self.vim, parse_version("8.1"), True, [self.ncurses], ["usr/bin/vim"]
        )
        assert requirers(self.db, self.ncurses) == [self.vim]
        vim_meta = self.db.get_metadata(self.vim)
        assert vim_meta.installed == parse_version("8.1")
        assert vim_meta.explicit is True
        assert vim_meta.files == ["usr/bin/vim"]

    def test_record_install_idempotent(self):
        self.db.record_install(self.ncurses, parse_version("6.1-r2"), False, [], [])
        for _ in range(2):
            self.db.record_install(
                self.vim, parse_version("8.1"), True, [self.ncurses], []
            )
        assert requirers(self.db, self.ncurses) == [self.vim]

    def test_reinstall_with_changed_deps_drops_stale_required_by(self):
        acl = pkg("sys-apps/acl")
        self.db.record_install(self.ncurses, parse_version("6.1-r2"), False, [], [])
        self.db.record_install(acl, parse_version("2.2.53"), False, [], [])
        self.db.record_install(
            self.vim, parse_version("8.1"), True, [self.ncurses], []
        )
        self.db.record_install(self.vim, parse_version("8.1"), True, [acl], [])
        assert requirers(self.db, self.ncurses) == []
        assert requirers(self.db, acl) == [self.vim]
        assert self.db.validate() == []

    def test_depends_recorded_only_while_installed(self):
        self.db.record_install(self.ncurses, parse_version("6.1-r2"), False, [], [])
        self.db.record_install(
            self.vim, parse_version("8.1"), True, [self.ncurses], []
        )
        doc = json.loads(self.db.metadata_path(self.vim).read_text())
        assert doc["depends"] == ["sys-libs/ncurses"]
        self.db.record_removal(self.vim)
        assert not self.db.package_dir(self.vim).exists()
        assert self.db.get_metadata(self.vim).depends is None

    def _install_vim_over_uninstalled_ncurses(self):
        """Record vim over ncurses before ncurses is installed, as a cycle
        group does: only vim's document is written."""
        self.db.record_install(
            self.vim, parse_version("8.1"), True, [self.ncurses], []
        )
        assert not self.db.package_dir(self.ncurses).exists()
        assert requirers(self.db, self.ncurses) == [self.vim]
        assert self.db.validate() == []

    def test_removal_without_depends_field(self):
        before = tree_snapshot(self.db.root)
        self._install_vim_over_uninstalled_ncurses()
        self.db.record_removal(self.vim)
        assert requirers(self.db, self.ncurses) == []
        assert self.db.validate() == []
        assert tree_snapshot(self.db.root) == before

    def test_reinstall_without_depends_field(self):
        acl = pkg("sys-apps/acl")
        self._install_vim_over_uninstalled_ncurses()
        self.db.record_install(self.vim, parse_version("8.1"), True, [acl], [])
        assert requirers(self.db, self.ncurses) == []
        assert requirers(self.db, acl) == [self.vim]
        assert self.db.get_metadata(self.vim).depends == [acl]
        assert not self.db.package_dir(self.ncurses).exists()
        assert not self.db.package_dir(acl).exists()
        assert self.db.validate() == []

    def test_a_required_by_list_of_an_earlier_version_is_dropped_on_write(self):
        self.db.record_install(self.ncurses, parse_version("6.1-r2"), False, [], [])
        path = self.db.metadata_path(self.ncurses)
        doc = json.loads(path.read_text())
        path.write_text(dump_document({**doc, "required_by": ["app-editors/vim"]}))
        assert requirers(self.db, self.ncurses) == []
        assert self.db.validate() == []
        self.db.record_install(self.ncurses, parse_version("6.1-r2"), False, [], [])
        assert json.loads(path.read_text()) == doc

    def test_unknown_version(self):
        with pytest.raises(UnknownVersion):
            self.db.record_install(self.ncurses, parse_version("9.9"), True, [], [])

    def test_unknown_package(self):
        with pytest.raises(UnknownPackage):
            self.db.record_install(
                pkg("cat/ghost"), parse_version("1.0"), True, [], []
            )

    def test_unknown_dependency(self):
        with pytest.raises(UnknownPackage):
            self.db.record_install(
                self.vim, parse_version("8.1"), True, [pkg("cat/ghost")], []
            )

    def test_removal_round_trip_restores_bytes(self):
        before = tree_snapshot(self.db.root)
        self.db.record_install(self.ncurses, parse_version("6.1-r2"), False, [], [])
        self.db.record_install(
            self.vim, parse_version("8.1"), True, [self.ncurses], []
        )
        self.db.record_removal(self.vim)
        self.db.record_removal(self.ncurses)
        assert tree_snapshot(self.db.root) == before

    def test_remove_twice_fails(self):
        self.db.record_install(self.ncurses, parse_version("6.1-r2"), True, [], [])
        self.db.record_removal(self.ncurses)
        with pytest.raises(NotInstalled):
            self.db.record_removal(self.ncurses)

    def test_validate_clean_tree(self):
        self.db.record_install(self.ncurses, parse_version("6.1-r2"), False, [], [])
        self.db.record_install(
            self.vim, parse_version("8.1"), True, [self.ncurses], []
        )
        assert self.db.validate() == []

    def test_validate_reports_corruption(self):
        path = self.db.category_path("app-editors")
        doc = json.loads(path.read_text())
        doc["vim"]["versions"]["8.1"]["dependencies"] = ["gtk? ( broken"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        local = self.db.metadata_path(self.vim)
        local.parent.mkdir(parents=True)
        local.write_text(  # an earlier version's reverse edge, not installed
            json.dumps({"required_by": ["sys-libs/ncurses"]}),
            encoding="utf-8",
        )
        empty = self.db.metadata_path(pkg("sys-apps/acl"))
        empty.parent.mkdir(parents=True)
        empty.write_text("{}", encoding="utf-8")
        problems = self.db.validate()
        assert any("bad dependency" in p for p in problems)
        assert "app-editors/vim: local document holds no install state" in problems
        assert "sys-apps/acl: local document holds no install state" in problems

    def test_referential_integrity_random_sequences(self):
        import random

        rng = random.Random(30)
        packages = {
            self.ncurses: parse_version("6.1-r2"),
            self.vim: parse_version("8.1"),
            pkg("app-editors/vim-core"): parse_version("8.1"),
            pkg("sys-apps/acl"): parse_version("2.2.53"),
        }
        recorded_deps = {}
        for _ in range(60):
            target = rng.choice(list(packages))
            meta = self.db.get_metadata(target)
            if meta.installed is None:
                installed_others = [
                    p
                    for p in packages
                    if p != target and self.db.get_metadata(p).installed
                ]
                deps = [
                    p for p in installed_others if rng.random() < 0.5
                ]
                self.db.record_install(
                    target, packages[target], rng.random() < 0.5, deps, []
                )
                recorded_deps[target] = deps
            else:
                dependents = [
                    m.name
                    for m in self.db.iter_packages()
                    if target in [d for d in recorded_deps.get(m.name, [])]
                    and m.installed is not None
                ]
                if dependents:
                    continue  # keep the state consistent: no dangling removal
                self.db.record_removal(target)
                recorded_deps.pop(target, None)
            assert self.db.validate() == []
            # the requirers are exactly what installs recorded
            for meta in self.db.iter_packages():
                expected = sorted(
                    requirer.render()
                    for requirer, deps in recorded_deps.items()
                    if meta.name in deps
                    and self.db.get_metadata(requirer).installed is not None
                )
                assert [p.render() for p in requirers(self.db, meta.name)] == expected
                # depends is the recorded dependency list, while installed
                if meta.installed is None:
                    assert meta.depends is None
                else:
                    assert sorted(p.render() for p in meta.depends) == sorted(
                        p.render() for p in recorded_deps[meta.name]
                    )

    @pytest.mark.parametrize("size", [20, 400])
    def test_install_and_removal_reads_do_not_grow_with_database(
        self, size, tmp_path, monkeypatch
    ):
        metas = [
            PackageMetadata(
                name=pkg(f"cat/p{i:03d}"),
                description="d",
                versions={parse_version("1.0"): ()},
            )
            for i in range(size)
        ]
        store = tmp_path / "sized-store"
        write_store(store, metas)
        db = LocalDb(tmp_path / "sized-db")
        db.sync(DirectoryStore(store))
        a, b, c = (pkg(f"cat/p{i:03d}") for i in range(3))
        v = parse_version("1.0")
        db.record_install(b, v, False, [], [])
        db.record_install(c, v, False, [], [])
        reads = count_parses(monkeypatch)
        files = count_files_read(monkeypatch, db)
        db.record_install(a, v, True, [b, c], [])
        db.record_removal(a)
        monkeypatch.undo()
        assert db.validate() == []
        # The package itself, once per verb, whatever the database size: a
        # database scan would read every document. The install reads the
        # category document for the package and for each dependency, and
        # parses the package's store entry from it; the removal reads and
        # parses the document the install wrote.
        assert reads == [a.render()] * 2
        assert files == ["store/cat.json"] * 3 + [f"local/{a.render()}/metadata.json"]


class TestArchiveCache:
    def test_put_get_round_trip(self, db, store_dir):
        db.sync(DirectoryStore(store_dir))
        key = BuildKey(
            pkg("sys-libs/ncurses"), parse_version("6.1-r2"), UseFlagSet.of(["unicode"])
        )
        assert db.archive_get(key) is None
        db.archive_put(key, b"tar bytes")
        assert db.archive_get(key) == b"tar bytes"

    def test_distinct_flags_distinct_entries(self, db, store_dir):
        db.sync(DirectoryStore(store_dir))
        base = pkg("sys-libs/ncurses")
        v = parse_version("6.1-r2")
        key_a = BuildKey(base, v, UseFlagSet.of(["unicode"]))
        key_b = BuildKey(base, v, UseFlagSet.of(["unicode", "mousewheel"]))
        db.archive_put(key_a, b"a")
        db.archive_put(key_b, b"b")
        assert db.archive_get(key_a) == b"a"
        assert db.archive_get(key_b) == b"b"

    def test_archive_path_layout(self, db, store_dir):
        db.sync(DirectoryStore(store_dir))
        key = BuildKey(pkg("sys-libs/ncurses"), parse_version("6.1-r2"), UseFlagSet())
        db.archive_put(key, b"x")
        expected = (
            db.root
            / "local"
            / "sys-libs"
            / "ncurses"
            / "sys-libs%2Fncurses-6.1-r2[].tar"
        )
        assert expected.is_file()


class TestStoreLayout:
    def test_write_store_shape(self, store_dir):
        manifest = (store_dir / "manifest.txt").read_text()
        assert manifest == "app-editors\nsys-apps\nsys-libs\n"
        doc = json.loads((store_dir / "sys-libs.json").read_text())
        assert set(doc) == {"ncurses"}
        assert doc["ncurses"]["name"] == "sys-libs/ncurses"
        assert set(doc["ncurses"]["versions"]) == set(NCURSES_VERSIONS)
        assert "installed" not in doc["ncurses"]

    def test_an_artifact_is_read_from_its_key_file_alone(self, store_dir):
        # artifacts/<artifact_file(key)> and no other file, such as the
        # one of a key with fewer flags
        key = BuildKey.parse("a/b-1[x,y]")
        other = BuildKey.parse("a/b-1[x]")
        artifacts = store_dir / ARTIFACT_DIR
        artifacts.mkdir()
        (artifacts / artifact_file(key)).write_bytes(b"mine")
        (artifacts / artifact_file(other)).write_bytes(b"other")
        assert artifact_file(key) == "a%2Fb-1[x,y].tar"
        assert DirectoryStore(store_dir).fetch_artifact(key) == b"mine"
        (artifacts / artifact_file(key)).unlink()
        with pytest.raises(StoreUnreachable, match=r"a/b-1\[x,y\]"):
            DirectoryStore(store_dir).fetch_artifact(key)


class TestBatchRemoval:
    """``record_removal(*packages)`` against one call per package."""

    def test_batch_equals_single_calls_on_random_install_graphs(self, tmp_path):
        removable = 0
        for seed in range(300):
            batch, roots = random_install_db(random.Random(seed), tmp_path / f"b{seed}")
            single, _ = random_install_db(random.Random(seed), tmp_path / f"s{seed}")
            try:
                order = list(compute_orphans(batch, roots))
            except (NotInstalled, StillRequired):
                continue
            removable += 1
            batch.record_removal(*order)
            for package in order:
                single.record_removal(package)
            assert tree_snapshot(batch.root) == tree_snapshot(single.root), seed
            assert batch.validate() == []
        assert removable >= 200

    def test_a_package_not_installed_fails_the_batch_before_any_write(
        self, db, store_dir
    ):
        db.sync(DirectoryStore(store_dir))
        ncurses, vim = pkg("sys-libs/ncurses"), pkg("app-editors/vim")
        db.record_install(ncurses, parse_version("6.1-r2"), False, [], ["lib/n"])
        db.record_install(vim, parse_version("8.1"), True, [ncurses], ["bin/vim"])
        before = tree_snapshot(db.root)
        with pytest.raises(NotInstalled):
            db.record_removal(vim, pkg("sys-apps/acl"))
        assert tree_snapshot(db.root) == before


def test_an_install_shaped_like_client_churn_reads_and_writes_each_document_once(
    tmp_path, monkeypatch
):
    """An app over four private libraries, each library over two of the
    installed core libraries, and the app over two more: recorded in plan
    order, each of the five reads and writes its own document once and no
    other. The removal of the app then deletes those five documents and
    writes none."""
    cores = [pkg(f"core/c{i}") for i in range(4)]
    libs = [pkg(f"app/lib{k}") for k in range(4)]
    app = pkg("app/app")
    store = tmp_path / "churn-store"
    write_store(store, [
        PackageMetadata(name=p, description="d", versions={parse_version("1.0"): ()})
        for p in cores + libs + [app]
    ])
    db = LocalDb(tmp_path / "churn-db")
    db.sync(DirectoryStore(store))
    before = tree_snapshot(db.root)
    v = parse_version("1.0")
    for core in cores:
        db.record_install(core, v, True, [], [])
    plan = [(lib, [cores[k], cores[(k + 1) % 4]]) for k, lib in enumerate(libs)]
    plan.append((app, cores[:2] + libs))
    files = count_files_read(monkeypatch, db)
    reads = count_parses(monkeypatch)
    writes, deletions = [], []
    real_write = localdb.rewrite_text
    real_unlink = localdb.Path.unlink

    def counting_write(path, text):
        writes.append(path.parent.name)
        real_write(path, text)

    def counting_unlink(path, missing_ok=False):
        deletions.append(path.parent.name)
        real_unlink(path, missing_ok)

    monkeypatch.setattr(localdb, "rewrite_text", counting_write)
    monkeypatch.setattr(localdb.Path, "unlink", counting_unlink)
    for package, deps in plan:
        db.record_install(package, v, package == app, deps, [])
    assert sorted(reads) == sorted(p.render() for p, _ in plan)
    # Each install reads its own category document, and its dependency's
    # for each dependency, and parses nothing but its own store entry.
    assert files == ["store/app.json", "store/core.json", "store/core.json"] * 5 + [
        "store/app.json"
    ] * 4
    assert writes == [p.name for p, _ in plan]
    assert deletions == []
    del reads[:], writes[:], files[:]
    removal = compute_orphans(db, [app])
    db.record_removal(*removal)
    monkeypatch.undo()
    assert list(removal) == [app, *libs]
    # Every installed document is read once to invert ``depends`` and the
    # five removed ones once more under the lock; each is parsed once, at
    # its first read since it was written.
    installed = [*cores, *libs, app]
    assert sorted(files) == sorted(
        f"local/{p.render()}/metadata.json" for p in [*installed, *removal]
    )
    assert sorted(reads) == sorted(p.render() for p in installed)
    assert writes == []
    assert deletions == [p.name for p in reversed(removal)]
    for core in cores:
        db.record_removal(core)
    assert tree_snapshot(db.root) == before


def meta(name, versions, description="d"):
    """Store metadata: ``versions`` maps a version to its dependency strings."""
    return PackageMetadata(
        name=pkg(name),
        description=description,
        versions={parse_version(v): tuple(deps) for v, deps in versions.items()},
    )


def cli_config(tmp_path, db_root, store=None):
    path = tmp_path / "pacloud.conf"
    path.write_text(
        f"[local]\ndb_path = {db_root}\nlog_path = {tmp_path}/pacloud.log\n"
        f"install_root = {tmp_path}/image\n"
        + (f"[server]\nstore_url = {store}\n" if store else ""),
        encoding="utf-8",
    )
    return str(path)


def test_a_sync_writes_one_file_per_category_and_none_per_package(db, tmp_path):
    store = tmp_path / "store"
    write_store(store, [meta(f"c{i % 3}/p{i:03d}", {"1.0": []}) for i in range(60)])
    report = db.sync(DirectoryStore(store))
    assert report.packages_added == 60
    assert [k for k, v in tree_snapshot(db.root).items() if v is not None] == [
        ".lock", "store/c0.json", "store/c1.json", "store/c2.json"
    ]
    assert len(db.search("p0")) == 60
    # A category the manifest no longer lists is dropped with its packages.
    write_store(tmp_path / "smaller", [meta("c0/p000", {"1.0": []})])
    db.sync(DirectoryStore(tmp_path / "smaller"))
    assert sorted(p.name for p in db.store_dir.iterdir()) == ["c0.json"]
    assert [m.name.render() for m in db.iter_packages()] == ["c0/p000"]


@pytest.mark.parametrize(
    "target", [".lock/tool", "store/tool", "local/tool", "app-misc/sys-libs.json"]
)
def test_names_like_the_fixed_entries_sync_install_and_remove(target, make_env):
    """A category named like an entry of the database root, or a package
    named like another category's document, is kept like any other."""
    env = make_env(metas=[
        meta(target, {"1.0": ["sys-libs/lib"]}),
        meta("sys-libs/lib", {"1.0": []}),
    ])
    db = env.client.db
    assert env.client.update().packages_added == 2
    before = tree_snapshot(db.root)
    plan = env.client.install([parse_atom(target)])
    assert [p.render() for p, _ in plan.steps] == ["sys-libs/lib", target]
    assert db.get_metadata(pkg(target)).installed == parse_version("1.0")
    assert sorted(p.name for p in db.root.iterdir()) == [".lock", "local", "store"]
    assert db.validate() == []
    assert [p.render() for p in env.client.remove([pkg(target)])] == [
        target, "sys-libs/lib"
    ]
    assert tree_snapshot(db.root) == before
    assert tree_snapshot(env.config.install_root) == {}
    assert db.get_metadata(pkg("sys-libs/lib")).description == "d"


def spelling(rng):
    """A version string with letters, revisions, ``-r0`` and leading
    zeros, canonical or not."""
    def number():
        return "0" * rng.choice([0, 0, 1, 2]) + str(rng.randint(0, 12))
    text = ".".join(number() for _ in range(rng.randint(1, 3)))
    text += rng.choice(["", "", "a", "z"])
    return text + rng.choice(["", "", "-r0", f"-r{number()}"])


@pytest.mark.parametrize("seed", range(40))
def test_documents_round_trip_through_parsed_versions(seed):
    rng = random.Random(seed)
    spelled = {}  # version -> the spelling its document gives it
    count = rng.randint(1, 6)
    while len(spelled) < count:
        text = spelling(rng)
        spelled.setdefault(parse_version(text), text)
    doc = {
        "name": "cat/p", "description": "d",
        "versions": {
            text: {"dependencies": [f">=cat/q-{spelling(rng)}"] * rng.randint(0, 2)}
            for text in spelled.values()
        },
    }
    m = PackageMetadata.from_document(doc)
    assert m.versions == {
        version: tuple(doc["versions"][text]["dependencies"])
        for version, text in spelled.items()
    }
    assert PackageMetadata.from_document(m.to_document()) == m
    # The install half: the record and the installed version's entry.
    installed = rng.choice(list(m.versions))
    record = dict(
        installed=installed, explicit=rng.random() < 0.5,
        files=sorted(f"usr/f{i}" for i in range(rng.randint(0, 3))),
        depends=[pkg("cat/q")] * rng.randint(0, 1),
    )
    local = replace(m, **record).local_document()
    assert PackageMetadata.from_document({**local, "name": "cat/p"}) == (
        PackageMetadata(m.name, "", {installed: m.versions[installed]}, **record)
    )


def tear(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def reshape(change):
    """Damage that leaves the document decoding, in the wrong shape."""
    def damage(path):
        doc = json.loads(path.read_bytes())
        change(doc)
        path.write_text(dump_document(doc), encoding="utf-8")
    return damage


DAMAGE = {
    "local": tear,
    "category": tear,
    "local-depends": reshape(lambda doc: doc.update(depends=[5])),
    # A string is not a list of strings: each character would be a path.
    "local-files": reshape(lambda doc: doc.update(files="usr")),
    "category-version": reshape(
        lambda doc: doc["vim"]["versions"].update({"not a version": {}})
    ),
    "category-dependencies": reshape(
        lambda doc: doc["vim"]["versions"]["8.1"].update(
            dependencies="sys-libs/ncurses"
        )
    ),
    # Each of these once read as something else or ended in a traceback.
    "local-explicit": reshape(lambda doc: doc.update(explicit="false")),
    "local-versions": reshape(lambda doc: doc.update(versions=["8.1"])),
    "category-description": reshape(
        lambda doc: doc["vim"].update(description={"x": 1})
    ),
    "category-entry": reshape(lambda doc: doc.update(vim=["app-editors/vim"])),
    "category-null-entry": reshape(lambda doc: doc.update(vim=None)),
    "category-versions": reshape(lambda doc: doc["vim"].update(versions=["8.1"])),
    # The store still lists 8.1, but the install record alone must hold it.
    "local-installed-version": reshape(lambda doc: doc.update(versions={})),
    "category-version-twice": reshape(
        lambda doc: doc["vim"]["versions"].update({"8.1-r0": {}})
    ),
    # Only sync checked an entry's name against its key.
    "category-renamed-entry": reshape(
        lambda doc: doc["vim"].update(name="app-editors/emacs")
    ),
    # A store entry holds only the fields a store writes.
    "category-install-state": reshape(
        lambda doc: doc["vim"].update(installed="8.1", explicit=True, files=[])
    ),
}


@pytest.mark.parametrize("half", DAMAGE)
def test_a_torn_document_is_named(half, db, store_dir, tmp_path, capsys):
    db.sync(DirectoryStore(store_dir))
    vim = pkg("app-editors/vim")
    db.record_install(vim, parse_version("8.1"), True, [], ["usr/bin/vim"])
    local = half.startswith("local")
    path = db.metadata_path(vim) if local else db.category_path("app-editors")
    DAMAGE[half](path)
    empty = db.metadata_path(pkg("sys-apps/acl"))
    empty.parent.mkdir(parents=True)
    empty.write_text("{}", encoding="utf-8")
    named = re.escape(str(path))
    for read in (lambda: db.get_metadata(vim), lambda: db.search("vim")):
        with pytest.raises(MalformedCategoryDocument, match=named):
            read()
    # validate() names the torn document and scans on past it.
    problems = db.validate()
    assert [p for p in problems if str(path) in p] != []
    assert "sys-apps/acl: local document holds no install state" in problems
    config = cli_config(tmp_path, db.root)
    for verb in (["-s", "vim"], ["-i", "app-editors/vim"], ["-r", "app-editors/vim"]):
        # A removal reads only the local documents.
        failed = local or verb[0] != "-r"
        assert main(["--config", config, *verb]) == int(failed)
        captured = capsys.readouterr()
        assert (str(path) in captured.err) == failed
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("dropped", ["version", "package"])
def test_an_installed_version_the_store_no_longer_lists(dropped, make_env, tmp_path):
    app, lib = pkg("cat/app"), pkg("cat/lib")
    env = make_env(metas=[
        meta("cat/app", {"1.0": [">=cat/lib-1.0"], "2.0": []}),
        meta("cat/lib", {"1.0": []}),
    ])
    env.client.update()
    env.client.install([parse_atom("=cat/app-1.0")])
    later = [meta("cat/lib", {"1.0": []})]
    if dropped == "version":
        later.append(meta("cat/app", {"2.0": []}, description="newer"))
    write_store(tmp_path / "later", later)
    db = env.client.db
    db.sync(DirectoryStore(tmp_path / "later"))
    got = db.get_metadata(app)
    assert got.installed == parse_version("1.0")
    assert got.versions[parse_version("1.0")] == (">=cat/lib-1.0",)
    assert got.depends == [lib]
    assert [str(v) for v in got.known_versions()] == (
        ["1.0", "2.0"] if dropped == "version" else ["1.0"]
    )
    assert db.validate() == []
    assert env.client.remove([app]) == [app, lib]
    fresh = LocalDb(tmp_path / "fresh")
    fresh.sync(DirectoryStore(tmp_path / "later"))
    assert tree_snapshot(db.root) == tree_snapshot(fresh.root)
    assert tree_snapshot(env.config.install_root) == {}


class TestParsedOnce:
    """A database parses a document again only when its bytes change."""

    ncurses = pkg("sys-libs/ncurses")
    vim = pkg("app-editors/vim")
    v = parse_version("6.1-r2")

    @pytest.fixture(autouse=True)
    def synced(self, db, store_dir):
        db.sync(DirectoryStore(store_dir))
        db.record_install(self.ncurses, self.v, False, [], ["lib/a"])

    def test_an_unchanged_document_is_parsed_once(self, db, monkeypatch):
        parses = count_parses(monkeypatch)
        for _ in range(3):
            db.get_metadata(self.ncurses)
            db.get_metadata(self.vim)
            db.installed_packages()
            db.search("ncurses")
        # the vim entry and the ncurses local document, once each; the
        # install parsed the ncurses entry
        assert sorted(parses) == [self.vim.render(), self.ncurses.render()]

    @pytest.mark.parametrize("read", ["get_metadata", "installed_packages"])
    def test_a_same_size_rewrite_with_its_old_mtime_is_read(self, db, read):
        """Another process rewrites a document in place, to bytes of the
        same length, and its mtime reads as before: a database that keyed
        its parsed documents by a stat stamp would keep the old one."""
        reader, writer = LocalDb(db.root), LocalDb(db.root)

        def files():
            if read == "get_metadata":
                return reader.get_metadata(self.ncurses).files
            return reader.installed_packages()[self.ncurses].files

        assert files() == ["lib/a"]
        path = db.metadata_path(self.ncurses)
        before = path.stat()
        writer.record_install(self.ncurses, self.v, False, [], ["lib/b"])
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
            before.st_ino, before.st_size, before.st_mtime_ns
        )
        assert files() == ["lib/b"]
        writer.record_removal(self.ncurses)
        assert reader.get_metadata(self.ncurses).installed is None
        assert reader.installed_packages() == {}

    @pytest.mark.parametrize(
        "read, before, after",
        [
            (
                lambda db: db.get_metadata(pkg("app-editors/vim-core")).description,
                "vim and gvim shared files",
                "VIM AND GVIM SHARED FILES",
            ),
            (
                lambda db: [r.description for r in db.search("vim-core")],
                ["vim and gvim shared files"],
                ["VIM AND GVIM SHARED FILES"],
            ),
            (
                lambda db: [p.split(":")[0] for p in db.validate()],
                [],
                ["app-editors/vim-core-8.1"],
            ),
        ],
        ids=["get_metadata", "search", "validate"],
    )
    def test_a_same_size_sync_with_its_old_mtime_is_read(
        self, db, tmp_path, read, before, after
    ):
        """Another database syncs a category document in place, to bytes of
        the same length, and its mtime reads as before: a database that
        keyed its decoded category documents by a stat stamp would keep the
        old one."""
        reader, writer = LocalDb(db.root), LocalDb(db.root)
        assert read(reader) == before
        metas = [
            replace(
                meta,
                description=meta.description.upper(),
                versions={parse_version("8.1"): ("=>sys-libs/ncurses-6.0",)},
            )
            if meta.name == pkg("app-editors/vim-core") else meta
            for meta in build_sample_metadata()
        ]
        write_store(tmp_path / "store2", metas)
        path = db.category_path("app-editors")
        stamp = path.stat()
        assert writer.sync(DirectoryStore(tmp_path / "store2")).packages_updated == 1
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        now = path.stat()
        assert (now.st_ino, now.st_size, now.st_mtime_ns) == (
            stamp.st_ino, stamp.st_size, stamp.st_mtime_ns
        )
        assert read(reader) == after
        assert read(LocalDb(db.root)) == after

    def test_a_sync_that_changes_an_entry_parses_it_again(
        self, db, tmp_path, monkeypatch
    ):
        db.get_metadata(self.ncurses)
        db.get_metadata(self.vim)
        metas = [
            replace(meta, description="newer words")
            if meta.name == self.ncurses else meta
            for meta in build_sample_metadata()
        ]
        write_store(tmp_path / "store2", metas)
        report = db.sync(DirectoryStore(tmp_path / "store2"))
        assert report.packages_updated == 1
        parses = count_parses(monkeypatch)
        assert db.get_metadata(self.ncurses).description == "newer words"
        db.get_metadata(self.vim)  # its category is unchanged
        assert parses == [self.ncurses.render()]  # the entry, not the record

    def test_the_metadata_read_is_frozen(self, db):
        for meta in (db.get_metadata(self.ncurses), db.get_metadata(self.vim),
                     db.installed_packages()[self.ncurses]):
            with pytest.raises(FrozenInstanceError):
                meta.description = "changed"
            with pytest.raises(FrozenInstanceError):
                meta.installed = None


class TestEarlierLayout:
    """A database that kept a whole document per package, at
    ``<root>/<category>/<name>/metadata.json``, is refused unread."""

    @pytest.fixture
    def old_root(self, tmp_path):
        root = tmp_path / "db"
        docs = [
            {"name": "sys-libs/ncurses", "description": "d", "installed": "6.1-r2",
             "explicit": False, "files": ["lib/n"], "depends": [],
             "required_by": ["app-editors/vim"],
             "versions": {"6.1-r2": {"dependencies": []}}},
            {"name": "app-editors/vim", "description": "d", "installed": "8.1",
             "explicit": True, "files": ["bin/vim"], "depends": ["sys-libs/ncurses"],
             "required_by": [],
             "versions": {"8.1": {"dependencies": [">=sys-libs/ncurses-6.0"]}}},
        ]
        for doc in docs:
            path = root / doc["name"] / "metadata.json"
            path.parent.mkdir(parents=True)
            path.write_text(dump_document(doc), encoding="utf-8")
        (root / ".lock").write_text("", encoding="utf-8")
        return root

    def test_refused_before_anything_is_read_or_written(
        self, old_root, store_dir, tmp_path, capsys
    ):
        before = tree_snapshot(old_root)
        with pytest.raises(DatabaseLayoutError, match="earlier layout"):
            LocalDb(old_root)
        config = cli_config(tmp_path, old_root, store_dir)
        for verb in (["-u"], ["-s", "vim"], ["-r", "app-editors/vim"], ["-U"]):
            assert main(["--config", config, *verb]) == 1
            err = capsys.readouterr().err
            assert "metadata.json" in err and "pacloud -u" in err
        assert tree_snapshot(old_root) == before
