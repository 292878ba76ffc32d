import json
import os
import socket

import pytest
from conftest import build_sample_metadata

from pacloud.client import InProcessTransport, await_package
from pacloud.core import BuildKey, PackageId, UseFlagSet, parse_version
from pacloud.depparse import metadata_from_ebuilds, parse_atom, parse_ebuild
from pacloud.errors import BuildFailed, FarmStateError, ProtocolError
from pacloud.farm import (
    DEAD_LETTER_ERROR,
    MAX_DELIVERIES,
    BuildFarm,
    ExecutorTable,
    FarmServer,
    JobProfile,
    VirtualClock,
    WorkerMode,
    build_artifact_tar,
    generate_emerge_commands,
)
from pacloud.farm import service as service_module
from pacloud.localdb import DirectoryStore
from pacloud.wire import (
    Response,
    STATUS_AVAILABLE,
    STATUS_FAILED,
    STATUS_PENDING,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)

KEY = BuildKey.parse("sys-libs/ncurses-6.1-r2[mousewheel,unicode]")


class Crash(Exception):
    """Stands for the process dying at the point where it is raised."""


def files_under(root):
    """Every path under ``root``, with each file's bytes."""
    return {
        path.relative_to(root): path.read_bytes() if path.is_file() else None
        for path in root.rglob("*")
    }


class TestHandleRequest:
    def test_unknown_key_enqueues_once(self):
        farm = BuildFarm(clock=VirtualClock())
        response = farm.service.handle_request(KEY)
        assert response.status == STATUS_PENDING
        assert farm.queue.depth() == 1

    def test_second_request_does_not_enqueue(self):
        farm = BuildFarm(clock=VirtualClock())
        farm.service.handle_request(KEY)
        response = farm.service.handle_request(KEY)
        assert response.status == STATUS_PENDING
        assert farm.queue.depth() == 1

    def test_built_key_served_from_records(self):
        farm = BuildFarm(
            clock=VirtualClock(),
            executor_table=ExecutorTable(default=JobProfile(duration=4.0)),
        )
        farm.service.handle_request(KEY)
        farm.run_until_settled(60.0)
        response = farm.service.handle_request(KEY)
        assert response.status == STATUS_AVAILABLE
        assert response.url == f"store://{KEY.canonical()}"

    def test_failed_key_serves_preserved_error(self):
        error_text = "emerge: it broke"
        farm = BuildFarm(
            clock=VirtualClock(),
            executor_table=ExecutorTable(
                {KEY.canonical(): JobProfile(duration=2.0, error=error_text)}
            ),
        )
        farm.service.handle_request(KEY)
        farm.run_until_settled(60.0)
        response = farm.service.handle_request(KEY)
        assert response.status == STATUS_FAILED
        assert response.error == error_text


class TestDeadLetters:
    """A key whose message is dead-lettered fails instead of staying
    pending, unless a worker still holds its build."""

    def make_farm(self):
        return BuildFarm(
            clock=VirtualClock(),
            executor_table=ExecutorTable(default=JobProfile(duration=1000.0)),
            num_workers=4,
        )

    def crash_next_holder(self, farm):
        """Run until a worker takes the message, then crash that worker."""
        while not any(w.mode is WorkerMode.BUILDING for w in farm.workers):
            farm.advance_to(farm.clock.now() + 1.0)
        next(w for w in farm.workers if w.mode is WorkerMode.BUILDING).crash()

    def test_three_crashed_deliveries_fail_the_record(self):
        farm = self.make_farm()
        farm.service.handle_request(KEY)
        for _ in range(MAX_DELIVERIES):
            self.crash_next_holder(farm)
        assert farm.clock.now() == 30.0
        farm.advance_to(100.0)
        [dead] = farm.queue.dead_letters()
        assert dead.receive_count == MAX_DELIVERIES
        record = farm.records.get(KEY.canonical())
        assert record.status == "failed"
        assert record.error_message == DEAD_LETTER_ERROR
        assert record.error_message == "dead-lettered after 3 deliveries"
        assert record.completed_at == 45.0  # the fourth poll dead-letters it
        response = farm.service.handle_request(KEY)
        assert response.status == STATUS_FAILED
        assert response.error == DEAD_LETTER_ERROR
        assert farm.queue.depth() == 0

    def test_waiting_client_gets_the_failure(self):
        farm = self.make_farm()

        def on_sleep(target):
            farm.advance_to(target)
            for worker in farm.workers:
                if worker.mode is WorkerMode.BUILDING:
                    worker.crash()

        farm.clock.on_sleep = on_sleep
        with pytest.raises(BuildFailed) as exc_info:
            await_package(InProcessTransport(farm.service), KEY, farm.clock)
        assert exc_info.value.error == DEAD_LETTER_ERROR
        assert farm.clock.now() == 60.0  # not the 7200 s timeout

    def test_built_record_survives_a_later_dead_letter(self):
        farm = self.make_farm()
        farm.service.handle_request(KEY)
        for t in (0.0, 15.0, 30.0):
            assert farm.queue.receive(t) is not None
        farm.records.finalize_built(KEY.canonical(), "store://x", 31.0)
        assert farm.queue.receive(45.0) is None
        assert len(farm.queue.dead_letters()) == 1
        record = farm.records.get(KEY.canonical())
        assert (record.status, record.completed_at) == ("built", 31.0)

    def hibernate_holder_then_dead_letter(self):
        farm = self.make_farm()
        farm.service.handle_request(KEY)
        farm.advance_to(1.0)
        holder = farm.workers[0]
        holder.interrupt(1.0, notice=5.0)
        farm.advance_to(6.0)
        assert holder.mode is WorkerMode.HIBERNATED
        for _ in range(MAX_DELIVERIES - 1):
            self.crash_next_holder(farm)
        farm.advance_to(100.0)
        assert len(farm.queue.dead_letters()) == 1
        assert farm.records.get(KEY.canonical()).status == "pending"
        return farm, holder

    def test_hibernated_holder_still_publishes(self):
        farm, holder = self.hibernate_holder_then_dead_letter()
        holder.resume(100.0)
        farm.run_until_settled(10_000.0)
        record = farm.records.get(KEY.canonical())
        assert (record.status, record.completed_at) == ("built", 1094.0)
        assert farm.service.handle_request(KEY).status == STATUS_AVAILABLE

    def test_record_fails_once_the_holder_crashes(self):
        farm, holder = self.hibernate_holder_then_dead_letter()
        holder.crash()
        farm.advance_to(101.0)
        record = farm.records.get(KEY.canonical())
        assert record.status == "failed"
        assert record.error_message == DEAD_LETTER_ERROR
        assert record.completed_at == 100.0

    def test_a_dead_letter_journaled_before_a_crash_fails_on_reopen(
        self, tmp_path
    ):
        table = ExecutorTable(default=JobProfile(duration=1000.0))
        farm = BuildFarm(clock=VirtualClock(), root=tmp_path, executor_table=table)
        farm.service.handle_request(KEY)
        for t in (0.0, 15.0, 30.0):
            assert farm.queue.receive(t) is not None

        def crash(body, now):
            raise Crash

        farm.queue.on_dead_letter = crash
        with pytest.raises(Crash):
            farm.queue.receive(45.0)
        farm.close()
        reborn = BuildFarm(
            clock=VirtualClock(start=50.0), root=tmp_path, executor_table=table
        )
        assert len(reborn.queue.dead_letters()) == 1
        assert reborn.records.get(KEY.canonical()).status == "pending"
        reborn.run_until_settled(100.0)
        response = reborn.service.handle_request(KEY)
        reborn.close()
        assert (response.status, response.error) == (STATUS_FAILED, DEAD_LETTER_ERROR)
        assert reborn.records.get(KEY.canonical()).completed_at == 50.0


class TestWireDocuments:
    def test_request_round_trip(self):
        doc = encode_request(KEY)
        assert doc == {
            "package": "sys-libs/ncurses",
            "version": "6.1-r2",
            "useflags": ["mousewheel", "unicode"],
        }
        assert decode_request(doc) == KEY

    def test_every_service_response_parses(self):
        for response in (
            Response(STATUS_AVAILABLE, url="store://x"),
            Response(STATUS_PENDING),
            Response(STATUS_FAILED, error="why"),
        ):
            assert decode_response(encode_response(response)) == response

    def test_unknown_status_rejected(self):
        with pytest.raises(ProtocolError):
            decode_response({"status": "done"})

    def test_available_requires_url(self):
        with pytest.raises(ProtocolError):
            decode_response({"status": "available"})

    def test_failed_requires_error(self):
        with pytest.raises(ProtocolError):
            decode_response({"status": "failed"})

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            decode_response(["status"])

    def test_bad_request_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request({"package": "noslash", "version": "1", "useflags": []})
        with pytest.raises(ProtocolError):
            decode_request({"package": "a/b", "version": "x", "useflags": []})
        with pytest.raises(ProtocolError):
            decode_request({"package": "a/b", "version": "1", "useflags": "x"})


def tcp_exchange(address: str, payload: bytes) -> bytes:
    host, port = address[len("tcp://"):].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:
        sock.sendall(payload)
        with sock.makefile("rb") as reader:
            return reader.readline()


class TestFarmServer:
    @pytest.fixture
    def server(self):
        farm = BuildFarm(clock=VirtualClock())
        server = FarmServer(farm.service).start()
        yield server, farm
        server.stop()

    def test_socket_exchange(self, server):
        server_obj, farm = server
        request = json.dumps(encode_request(KEY)) + "\n"
        line = tcp_exchange(server_obj.address, request.encode("utf-8"))
        response = decode_response(json.loads(line.decode("utf-8")))
        assert response.status == STATUS_PENDING
        assert farm.queue.depth() == 1

    def test_one_request_per_exchange(self, server):
        server_obj, farm = server
        request = json.dumps(encode_request(KEY)) + "\n"
        for _ in range(2):
            line = tcp_exchange(server_obj.address, request.encode("utf-8"))
            assert json.loads(line.decode("utf-8"))["status"] == STATUS_PENDING
        assert farm.queue.depth() == 1

    def test_malformed_request_closes_quietly(self, server):
        server_obj, _ = server
        line = tcp_exchange(server_obj.address, b"this is not json\n")
        assert line == b""

    def test_stalled_client_does_not_block_others(self, server, monkeypatch):
        monkeypatch.setattr(service_module._ExchangeHandler, "timeout", 0.2)
        server_obj, _ = server
        host, port = server_obj.address[len("tcp://"):].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5.0):
            request = json.dumps(encode_request(KEY)) + "\n"
            line = tcp_exchange(server_obj.address, request.encode("utf-8"))
        assert json.loads(line.decode("utf-8"))["status"] == STATUS_PENDING


class TestFarmPersistence:
    def test_layout_and_store_compatibility(self, tmp_path):
        root = tmp_path / "farm"
        farm = BuildFarm(
            clock=VirtualClock(),
            root=root,
            executor_table=ExecutorTable(default=JobProfile(duration=3.0)),
        )
        farm.service.handle_request(KEY)
        farm.run_until_settled(60.0)
        farm.close()
        assert (root / "queue.jsonl").is_file()
        records = (root / "records" / "records.jsonl").read_text().splitlines()
        assert [json.loads(line)["key"] for line in records] == [
            KEY.canonical(), KEY.canonical()
        ]
        assert os.listdir(root / "records") == ["records.jsonl"]
        assert (root / "artifacts" / f"{KEY.path_token()}.tar").is_file()
        # the same directory doubles as the download surface for clients
        store = DirectoryStore(root)
        url = farm.records.get(KEY.canonical()).artifact_url
        assert store.fetch_artifact(url) == farm.artifacts.get(KEY)

    def test_keys_with_colliding_file_names_keep_their_own_artifacts(
        self, tmp_path
    ):
        # '/' -> '_' once mapped both keys to the file a_b_c-1.0[].tar
        keys = [BuildKey.parse("a_b/c-1.0[]"), BuildKey.parse("a/b_c-1.0[]")]
        root = tmp_path / "farm"
        farm = BuildFarm(
            clock=VirtualClock(),
            root=root,
            executor_table=ExecutorTable(default=JobProfile(duration=3.0)),
            num_workers=2,
        )
        for key in keys:
            farm.service.handle_request(key)
        farm.run_until_settled(60.0)
        expected = {key: build_artifact_tar(key) for key in keys}
        assert expected[keys[0]] != expected[keys[1]]
        store = DirectoryStore(root)

        def served(records):
            return {
                key: store.fetch_artifact(records.get(key.canonical()).artifact_url)
                for key in keys
            }

        assert served(farm.records) == expected
        farm.close()
        reborn = BuildFarm(clock=VirtualClock(), root=root)
        reborn.close()
        assert served(reborn.records) == expected
        assert {key: reborn.artifacts.get(key) for key in keys} == expected

    def test_records_survive_restart(self, tmp_path):
        root = tmp_path / "farm"
        farm = BuildFarm(
            clock=VirtualClock(),
            root=root,
            executor_table=ExecutorTable(default=JobProfile(duration=3.0)),
        )
        farm.service.handle_request(KEY)
        farm.run_until_settled(60.0)
        farm.close()
        reborn = BuildFarm(clock=VirtualClock(), root=root)
        response = reborn.service.handle_request(KEY)
        reborn.close()
        assert response.status == STATUS_AVAILABLE
        assert reborn.artifacts.get(KEY) == farm.artifacts.get(KEY)

    def test_a_crash_between_the_writes_of_a_request_still_settles(
        self, tmp_path
    ):
        table = ExecutorTable(default=JobProfile(duration=3.0))
        farm = BuildFarm(clock=VirtualClock(), root=tmp_path, executor_table=table)
        written = []

        def crash_after_the_first_write(write):
            def wrapped(*args):
                if written:
                    raise Crash
                written.append(write.__name__)
                return write(*args)
            return wrapped

        farm.queue.send = crash_after_the_first_write(farm.queue.send)
        farm.records.create_pending = crash_after_the_first_write(
            farm.records.create_pending
        )
        with pytest.raises(Crash):
            farm.service.handle_request(KEY)
        farm.close()
        reborn = BuildFarm(clock=VirtualClock(), root=tmp_path, executor_table=table)
        assert reborn.service.handle_request(KEY).status == STATUS_PENDING
        reborn.run_until_settled(60.0)
        response = reborn.service.handle_request(KEY)
        reborn.close()
        assert response.status == STATUS_AVAILABLE

    @pytest.mark.parametrize(
        "earlier",
        ["records/sys-libs_ncurses-6.1-r2[].json", "artifacts/index.jsonl",
         "artifacts/index.json"],
        ids=["records", "index.jsonl", "index.json"],
    )
    def test_a_root_of_earlier_versions_is_refused_unchanged(
        self, tmp_path, earlier
    ):
        canonical = "sys-libs/ncurses-6.1-r2[]"
        (tmp_path / "queue.json").write_text(json.dumps({
            "seq": 1,
            "messages": [{"id": "m1", "body": canonical, "visible_at": 0.0,
                          "receive_count": 0}],
            "dead_letters": [],
        }))
        (tmp_path / "artifacts").mkdir()
        (tmp_path / "artifacts" / "sys-libs_ncurses-6.1-r2[].tar").write_bytes(b"old")
        (tmp_path / "records").mkdir()
        (tmp_path / earlier).write_text(json.dumps(
            {"key": canonical, "status": "built", "created_at": 0.0,
             "artifact_url": f"store://{canonical}", "completed_at": 3.0}
        ))
        before = files_under(tmp_path)
        with pytest.raises(FarmStateError) as exc_info:
            BuildFarm(clock=VirtualClock(), root=tmp_path)
        assert str(exc_info.value).startswith(str(tmp_path / earlier))
        assert "remove queue.jsonl, records/ and artifacts/" in str(exc_info.value)
        assert files_under(tmp_path) == before

    def test_a_category_named_queue_is_served(self, make_env):
        package = PackageId.parse("queue/q")
        ebuild = parse_ebuild('EAPI=6\nDESCRIPTION="q"\nRDEPEND=""\n', "q", "1.0")
        env = make_env(metas=build_sample_metadata() + [
            metadata_from_ebuilds(package, [(parse_version("1.0"), ebuild)])
        ])
        document = (env.farm_root / "queue.json").read_bytes()
        env.client.update()
        env.client.install([parse_atom("queue/q")])
        [record] = env.farm.records.all_records()
        assert record.status == "built"
        response = env.farm.service.handle_request(BuildKey.parse(record.key))
        assert response.status == STATUS_AVAILABLE
        assert env.client.db.get_metadata(package).installed_version() == (
            parse_version("1.0")
        )
        assert (env.farm_root / "queue.json").read_bytes() == document

    def test_opening_a_root_writes_nothing(self, tmp_path):
        table = ExecutorTable(
            {"cat/broken-1": JobProfile(duration=3.0, error="boom")},
            default=JobProfile(duration=3.0),
        )
        farm = BuildFarm(clock=VirtualClock(), root=tmp_path, executor_table=table)
        for key in ("cat/built-1[]", "cat/broken-1[]"):
            farm.service.handle_request(BuildKey.parse(key))
        farm.run_until_settled(60.0)
        farm.service.handle_request(BuildKey.parse("cat/dead-1[]"))
        for t in (100.0, 115.0, 130.0):
            assert farm.queue.receive(t) is not None
        farm.queue.on_dead_letter = None  # its record stays pending
        assert farm.queue.receive(145.0) is None
        farm.service.handle_request(BuildKey.parse("cat/live-1[]"))
        farm.close()
        before = files_under(tmp_path)
        reborn = BuildFarm(clock=VirtualClock(), root=tmp_path, executor_table=table)
        statuses = {r.key: r.status for r in reborn.records.all_records()}
        depth = reborn.queue.depth()
        dead = [m.body for m in reborn.queue.dead_letters()]
        reborn.close()
        assert statuses == {
            "cat/built-1[]": "built", "cat/broken-1[]": "failed",
            "cat/dead-1[]": "pending", "cat/live-1[]": "pending",
        }
        assert (depth, dead) == (1, ["cat/dead-1[]"])
        assert files_under(tmp_path) == before


class TestServiceMode:
    def test_wall_clock_service_builds_on_demand(self):
        import time

        from pacloud.farm import WallClock

        farm = BuildFarm(
            clock=WallClock(),
            executor_table=ExecutorTable(default=JobProfile(duration=0.05)),
            num_workers=2,
        )
        server = farm.start_service()
        try:
            request = json.dumps(encode_request(KEY)) + "\n"
            line = tcp_exchange(server.address, request.encode("utf-8"))
            assert json.loads(line)["status"] == STATUS_PENDING
            deadline = time.monotonic() + 5.0
            status = None
            while time.monotonic() < deadline:
                line = tcp_exchange(server.address, request.encode("utf-8"))
                status = json.loads(line)["status"]
                if status == STATUS_AVAILABLE:
                    break
                time.sleep(0.02)
            assert status == STATUS_AVAILABLE
        finally:
            farm.stop_service()


class TestEmergeCommands:
    def test_empty_flags(self):
        key = BuildKey(
            PackageId.parse("sys-libs/ncurses"), parse_version("6.1-r2"), UseFlagSet()
        )
        assert generate_emerge_commands(key) == (
            'env USE="" emerge --onlydeps --onlydeps-with-rdeps n '
            "=sys-libs/ncurses-6.1-r2 && emerge --buildpkgonly "
            "=sys-libs/ncurses-6.1-r2"
        )

    def test_single_flag(self):
        key = BuildKey(
            PackageId.parse("x11-terms/rxvt-unicode"),
            parse_version("9.22"),
            UseFlagSet.of(["mousewheel"]),
        )
        assert generate_emerge_commands(key) == (
            'env USE="mousewheel" emerge --onlydeps --onlydeps-with-rdeps n '
            "=x11-terms/rxvt-unicode-9.22 && emerge --buildpkgonly "
            "=x11-terms/rxvt-unicode-9.22"
        )

    def test_flags_sorted(self):
        key = BuildKey(
            PackageId.parse("a/b"), parse_version("1"), UseFlagSet.of(["b", "a"])
        )
        assert 'USE="a b"' in generate_emerge_commands(key)
