import json
import socket

import pytest

from pacloud.core import BuildKey, PackageId, UseFlagSet, parse_version
from pacloud.errors import ProtocolError
from pacloud.farm import (
    BuildFarm,
    ExecutorTable,
    FarmServer,
    JobProfile,
    VirtualClock,
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
        assert (root / "queue.json").is_file()
        assert (root / "records" / f"{KEY.path_token()}.json").is_file()
        assert (root / "artifacts" / f"{KEY.path_token()}.tar").is_file()
        # the same directory doubles as the download surface for clients
        store = DirectoryStore(root)
        url = farm.records.get(KEY.canonical()).artifact_url
        assert store.fetch_artifact(url) == farm.artifacts.get(KEY)

    def test_records_survive_restart(self, tmp_path):
        root = tmp_path / "farm"
        farm = BuildFarm(
            clock=VirtualClock(),
            root=root,
            executor_table=ExecutorTable(default=JobProfile(duration=3.0)),
        )
        farm.service.handle_request(KEY)
        farm.run_until_settled(60.0)
        reborn = BuildFarm(clock=VirtualClock(), root=root)
        response = reborn.service.handle_request(KEY)
        assert response.status == STATUS_AVAILABLE
        assert reborn.artifacts.get(KEY) == farm.artifacts.get(KEY)


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
