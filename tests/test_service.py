import json
import logging
import os
import socket
import string
import sys
import threading
import time

import pytest
from conftest import build_sample_metadata

from pacloud.client import TcpTransport, await_package
from pacloud.core import BuildKey, PackageId, UseFlagSet, parse_version
from pacloud.depparse import parse_atom
from pacloud.errors import (
    BuildFailed,
    FarmStateError,
    ProtocolError,
    TransportError,
)
from pacloud.farm import (
    DEAD_LETTER_ERROR,
    MAX_DELIVERIES,
    ArtifactStore,
    BuildFarm,
    BuildRecordStore,
    ExecutorTable,
    FarmServer,
    JobProfile,
    VirtualClock,
    WallClock,
    WorkerMode,
    build_artifact_tar,
    generate_emerge_commands,
)
from pacloud.farm import service as service_module
from pacloud.files import from_json, json_line
from pacloud.localdb import DirectoryStore, PackageMetadata
from pacloud.wire import (
    MAX_ERROR_CHARS,
    MAX_REQUEST_BYTES,
    MAX_RESPONSE_BYTES,
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
        assert response == Response(STATUS_AVAILABLE)

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
            await_package(farm.service, KEY, farm.clock)
        assert exc_info.value.error == DEAD_LETTER_ERROR
        assert farm.clock.now() == 60.0  # not the 7200 s timeout

    def test_built_record_survives_a_later_dead_letter(self):
        farm = self.make_farm()
        farm.service.handle_request(KEY)
        for t in (0.0, 15.0, 30.0):
            assert farm.queue.receive(t) is not None
        farm.records.finalize_built(KEY.canonical(), 31.0)
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

    def test_a_dead_letter_before_a_crash_is_built_again_on_reopen(
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
        # delivery counts belong to one process: the key starts afresh
        assert (reborn.queue.depth(), reborn.queue.dead_letters()) == (1, [])
        assert reborn.records.get(KEY.canonical()).status == "pending"
        reborn.run_until_settled(2000.0)
        response = reborn.service.handle_request(KEY)
        reborn.close()
        assert response.status == STATUS_AVAILABLE
        assert reborn.records.get(KEY.canonical()).completed_at == 1050.0


class TestWireDocuments:
    def test_request_round_trip(self):
        keys = [KEY, BuildKey.parse("a/b-1[]")]
        doc = encode_request(keys)
        assert doc == {
            "type": "build",
            "keys": ["sys-libs/ncurses-6.1-r2[mousewheel,unicode]", "a/b-1[]"],
        }
        assert decode_request(doc) == keys

    def test_every_service_response_parses(self):
        responses = [
            Response(STATUS_AVAILABLE),
            Response(STATUS_PENDING),
            Response(STATUS_FAILED, error="why"),
        ]
        doc = encode_response(responses)
        assert doc == {"statuses": [
            {"status": "available"}, {"status": "pending"},
            {"status": "failed", "error": "why"},
        ]}
        assert decode_response(doc, 3) == responses

    def test_unknown_status_rejected(self):
        with pytest.raises(ProtocolError):
            decode_response({"statuses": [{"status": "done"}]}, 1)

    def test_available_carries_no_url(self):
        with pytest.raises(ProtocolError):
            decode_response(
                {"statuses": [{"status": "available", "url": "store://a/b-1[]"}]},
                1,
            )

    def test_failed_requires_error(self):
        with pytest.raises(ProtocolError):
            decode_response({"statuses": [{"status": "failed"}]}, 1)
        with pytest.raises(ProtocolError):
            decode_response({"statuses": [{"status": "pending", "error": "x"}]}, 1)

    def test_non_object_rejected(self):
        for doc in (["statuses"], {"status": "pending"}, {"statuses": {}},
                    {"statuses": [["status"]]},
                    {"statuses": [{"status": "pending"}], "more": 1}):
            with pytest.raises(ProtocolError):
                decode_response(doc, 1)

    def test_bad_request_rejected(self):
        for text in ("noslash-1[]", "a/b-x[]", "a/b-1[x"):
            with pytest.raises(ProtocolError):
                decode_request({"type": "build", "keys": [text]})

    def test_every_response_to_an_accepted_request_fits_the_cap(self):
        # as many of the shortest keys as a request line holds, each failed
        # with an error longer than the cap, of characters that escape to
        # surrogate pairs
        texts = [
            f"{category}/{name}-{version}[]"
            for category in string.ascii_lowercase
            for name in string.ascii_lowercase
            for version in range(10)
        ]
        keys = [BuildKey.from_canonical(text) for text in texts]
        # ten bytes a key, '"a/b-1[]",', but the last has no comma
        count = (MAX_REQUEST_BYTES - len(json_line(encode_request([]))) + 1) // 10
        request = json_line(encode_request(keys[:count]))
        assert len(request) <= MAX_REQUEST_BYTES
        assert len(json_line(encode_request(keys[: count + 1]))) > MAX_REQUEST_BYTES
        assert decode_request(from_json(request)) == keys[:count]
        error = "\U0001F600" * (MAX_ERROR_CHARS + 1)
        response = json_line(
            encode_response([Response(STATUS_FAILED, error=error)] * count)
        )
        assert len(response) <= MAX_RESPONSE_BYTES
        assert decode_response(from_json(response), count)[0] == Response(
            STATUS_FAILED, error=error[:MAX_ERROR_CHARS]
        )


def tcp_exchange(address: str, payload: bytes) -> bytes:
    host, port = address[len("tcp://"):].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:
        sock.sendall(payload)
        with sock.makefile("rb") as reader:
            return reader.readline()


def tcp_exchange_or_reset(address: str, payload: bytes) -> bytes:
    """``tcp_exchange``, with a reset connection read as no response: a
    server that closes before reading all of ``payload`` resets it."""
    try:
        return tcp_exchange(address, payload)
    except ConnectionResetError:
        return b""


@pytest.fixture(scope="module")
def idle_server():
    """One farm server for every refused request below: each case checks
    that its request left the farm empty."""
    farm = BuildFarm(clock=VirtualClock())
    server = FarmServer(farm.service).start()
    yield server, farm
    server.stop()


GOOD = KEY.canonical()


@pytest.mark.parametrize("doc", [
    pytest.param(
        {"package": "sys-libs/ncurses", "version": "6.1-r2", "useflags": []},
        id="three-field-form",
    ),
    pytest.param({"key": GOOD}, id="one-key-form"),
    pytest.param({}, id="missing-key"),
    pytest.param({"keys": [GOOD]}, id="missing-type"),
    pytest.param({"type": "stats", "keys": [GOOD]}, id="unknown-type"),
    pytest.param({"type": "build", "keys": [GOOD], "key": GOOD}, id="extra-field"),
    pytest.param({"type": "build", "keys": GOOD}, id="keys-not-a-list"),
    pytest.param({"type": "build", "keys": []}, id="empty-keys"),
    pytest.param({"type": "build", "keys": [GOOD, GOOD]}, id="duplicate-key"),
    pytest.param({"type": "build", "keys": [GOOD, 5]}, id="int-key"),
    pytest.param({"type": "build", "keys": [GOOD, [GOOD]]}, id="list-key"),
    pytest.param({"type": "build", "keys": ["a/b-1[]", "cat/p-1[b,a]", GOOD]},
                 id="unsorted-flags"),
    pytest.param({"type": "build", "keys": ["cat/p-01[]"]}, id="leading-zero"),
    pytest.param({"type": "build", "keys": ["cat/p-1[]\n"]}, id="newline-after"),
    pytest.param({"type": "build", "keys": ["cat/p\n-1[]"]}, id="newline-inside"),
    pytest.param({"type": "build", "keys": ["cat/sub/p-1[]"]}, id="extra-slash"),
    pytest.param({"type": "build", "keys": ["cat/p-1[]]"]}, id="extra-bracket"),
    pytest.param(
        {"type": "build", "keys": ["cat/p-1[]"],
         "pad": "x" * service_module.MAX_REQUEST_BYTES},
        id="over-max-bytes",
    ),
])
def test_a_request_that_names_no_canonical_key_is_dropped(
    idle_server, doc, caplog
):
    server, farm = idle_server
    if "pad" not in doc:
        with pytest.raises(ProtocolError):
            decode_request(doc)
    line = (json.dumps(doc) + "\n").encode("utf-8")
    with caplog.at_level(logging.WARNING, logger="pacloud.farm"):
        assert tcp_exchange_or_reset(server.address, line) == b""
        transport = TcpTransport(server.address)
        with pytest.raises(TransportError):
            transport.exchange(doc)
    assert [r.levelno for r in caplog.records] == [logging.WARNING] * 2
    assert farm.records.all_records() == []
    assert farm.queue.depth() == 0


def test_a_good_request_over_max_bytes_is_dropped(idle_server):
    # the line's first MAX_REQUEST_BYTES are a whole request and blanks,
    # which JSON alone would accept
    server, farm = idle_server
    request = json.dumps(encode_request([KEY])).encode("utf-8")
    line = request + b" " * service_module.MAX_REQUEST_BYTES + b"\n"
    assert tcp_exchange_or_reset(server.address, line) == b""
    assert farm.records.all_records() == []
    assert farm.queue.depth() == 0


def request_line(*keys):
    return (json.dumps(encode_request(list(keys))) + "\n").encode("utf-8")


def connect(server):
    host, port = server.address[len("tcp://"):].rsplit(":", 1)
    return socket.create_connection((host, int(port)), timeout=10.0)


def closed_by_peer(sock, timeout):
    """Whether the peer closes ``sock`` within ``timeout`` seconds."""
    sock.settimeout(timeout)
    try:
        return sock.recv(1) == b""
    except TimeoutError:
        return False
    except ConnectionResetError:
        return True


class TestFarmServer:
    @pytest.fixture
    def server(self):
        farm = BuildFarm(clock=VirtualClock())
        server = FarmServer(farm.service).start()
        yield server, farm
        server.stop()

    def test_socket_exchange(self, server):
        server_obj, farm = server
        line = tcp_exchange(server_obj.address, request_line(KEY))
        [response] = decode_response(json.loads(line.decode("utf-8")), 1)
        assert response.status == STATUS_PENDING
        assert farm.queue.depth() == 1

    def test_one_request_per_exchange(self, server):
        # each line on a kept-open connection is one request, answered by
        # one line with a status per key, in the request's order
        server_obj, farm = server
        other = BuildKey.parse("a/b-1[]")
        with connect(server_obj) as sock, sock.makefile("rb") as reader:
            for keys in ([KEY], [other, KEY], [KEY]):
                sock.sendall(request_line(*keys))
                assert json.loads(reader.readline()) == {
                    "statuses": [{"status": "pending"}] * len(keys)
                }
        assert farm.queue.depth() == 2

    def test_pipelined_requests_are_answered_in_order(self, server):
        server_obj, farm = server
        other = BuildKey.parse("a/b-1[]")
        with farm.lock:
            farm.records.create_pending(other.canonical(), 0.0)
            farm.records.finalize_failed(other.canonical(), "boom", 0.0)
        with connect(server_obj) as sock, sock.makefile("rb") as reader:
            sock.sendall(request_line(KEY) + request_line(other))
            assert json.loads(reader.readline())["statuses"] == [
                {"status": "pending"}
            ]
            assert json.loads(reader.readline())["statuses"] == [
                {"status": "failed", "error": "boom"}
            ]

    def test_malformed_request_closes_quietly(self, server):
        server_obj, _ = server
        line = tcp_exchange(server_obj.address, b"this is not json\n")
        assert line == b""

    def test_a_deeply_nested_request_is_dropped(self, server):
        server_obj, farm = server
        line = b"[" * (service_module.MAX_REQUEST_BYTES - 1) + b"\n"
        assert tcp_exchange_or_reset(server_obj.address, line) == b""
        line = tcp_exchange(server_obj.address, request_line(KEY))
        assert json.loads(line)["statuses"] == [{"status": "pending"}]

    def test_a_line_of_max_bytes_is_served(self, server):
        server_obj, farm = server
        request = request_line(KEY)
        pad = b" " * (service_module.MAX_REQUEST_BYTES - len(request))
        line = tcp_exchange(server_obj.address, request[:-1] + pad + b"\n")
        assert json.loads(line)["statuses"] == [{"status": "pending"}]

    def test_stalled_client_does_not_block_others(self, server):
        server_obj, _ = server
        with connect(server_obj):
            line = tcp_exchange(server_obj.address, request_line(KEY))
        assert json.loads(line.decode("utf-8"))["statuses"] == [
            {"status": "pending"}
        ]

    def test_idle_connections_do_not_delay_an_exchange(self, server):
        server_obj, _ = server
        idle = [connect(server_obj) for _ in range(10)]
        try:
            started = time.monotonic()
            line = tcp_exchange(server_obj.address, request_line(KEY))
            elapsed = time.monotonic() - started
        finally:
            for sock in idle:
                sock.close()
        assert json.loads(line)["statuses"] == [{"status": "pending"}]
        assert elapsed < 1.0

    def test_slow_writers_are_dropped_at_their_own_deadline(self, server):
        # one connection sends a byte at a time and never ends its line,
        # another sends half a line and stalls; each is closed once
        # REQUEST_TIMEOUT has passed since it opened, and an honest
        # exchange is served in the meantime
        server_obj, _ = server
        timeout = service_module.REQUEST_TIMEOUT
        half = request_line(KEY)[:20]
        with connect(server_obj) as trickle:
            opened = time.monotonic()
            with connect(server_obj) as stalled:
                stalled.sendall(half)
                stalled_opened = time.monotonic()
                trickle.settimeout(0.25)
                closed_at = None
                while closed_at is None:
                    try:
                        trickle.sendall(b" ")
                        if trickle.recv(1) == b"":
                            closed_at = time.monotonic()
                    except TimeoutError:
                        pass
                    except (BrokenPipeError, ConnectionResetError):
                        closed_at = time.monotonic()
                    assert time.monotonic() - opened < timeout + 2.0
                assert timeout - 0.3 <= closed_at - opened <= timeout + 1.0
                line = tcp_exchange(server_obj.address, request_line(KEY))
                assert json.loads(line)["statuses"] == [{"status": "pending"}]
                remaining = stalled_opened + timeout - time.monotonic()
                assert closed_by_peer(stalled, remaining + 1.0)
                assert time.monotonic() - stalled_opened >= timeout - 0.05

    def test_an_answered_line_restarts_the_deadline(self, server, monkeypatch):
        monkeypatch.setattr(service_module, "REQUEST_TIMEOUT", 0.3)
        server_obj, _ = server
        with connect(server_obj) as sock, sock.makefile("rb") as reader:
            for _ in range(3):
                time.sleep(0.2)
                sock.sendall(request_line(KEY))
                assert json.loads(reader.readline())["statuses"] == [
                    {"status": "pending"}
                ]
            assert closed_by_peer(sock, 2.0)

    def test_stop_returns_at_once_with_a_connection_open(self):
        farm = BuildFarm(clock=VirtualClock())
        before = threading.active_count()
        server = FarmServer(farm.service).start()
        with connect(server) as sock:
            sock.sendall(request_line(KEY)[:10])
            time.sleep(0.05)  # the server holds the half line
            started = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - started
            assert closed_by_peer(sock, 1.0)
        assert elapsed < 0.1
        assert threading.active_count() == before
        server.stop()  # a second stop does nothing

    def test_one_thread_serves_every_connection(self, server):
        server_obj, _ = server
        before = threading.active_count()
        socks = [connect(server_obj) for _ in range(8)]
        try:
            for sock in socks:
                sock.sendall(request_line(KEY))
            for sock in socks:
                with sock.makefile("rb") as reader:
                    assert json.loads(reader.readline())["statuses"] == [
                        {"status": "pending"}
                    ]
            assert threading.active_count() == before
        finally:
            for sock in socks:
                sock.close()


class TestTcpTransport:
    @pytest.fixture
    def server(self):
        farm = BuildFarm(clock=VirtualClock())
        server = FarmServer(farm.service).start()
        yield server, farm
        server.stop()

    @pytest.fixture
    def accepted(self, monkeypatch):
        """The connections every server here accepts, counted."""
        count = [0]
        real = socket.socket.accept

        def counting(sock):
            accepted = real(sock)
            count[0] += 1
            return accepted

        monkeypatch.setattr(socket.socket, "accept", counting)
        return count

    def test_exchanges_share_one_connection(self, server, accepted):
        server_obj, _ = server
        transport = TcpTransport(server_obj.address)
        try:
            for _ in range(3):
                assert transport.exchange(encode_request([KEY]))["statuses"] == [
                    {"status": "pending"}
                ]
        finally:
            transport.close()
        assert accepted[0] == 1

    def test_a_connection_closed_for_idleness_is_replaced(
        self, server, accepted, monkeypatch
    ):
        monkeypatch.setattr(service_module, "REQUEST_TIMEOUT", 0.1)
        server_obj, farm = server
        transport = TcpTransport(server_obj.address)
        try:
            transport.exchange(encode_request([KEY]))
            time.sleep(0.4)  # the server closes the idle connection
            assert transport.exchange(encode_request([KEY]))["statuses"] == [
                {"status": "pending"}
            ]
        finally:
            transport.close()
        assert accepted[0] == 2
        assert farm.queue.depth() == 1

    def test_a_refused_request_is_sent_twice_at_most(
        self, server, accepted, caplog
    ):
        server_obj, farm = server
        transport = TcpTransport(server_obj.address)
        transport.exchange(encode_request([KEY]))
        with caplog.at_level(logging.WARNING, logger="pacloud.farm"):
            with pytest.raises(TransportError):
                transport.exchange({"type": "build", "keys": []})
        # the reused connection and one fresh one, each refused once
        assert accepted[0] == 2
        assert len([r for r in caplog.records if r.name == "pacloud.farm"]) == 2
        # a failed exchange closes its connection: the next opens another
        assert transport.exchange(encode_request([KEY]))["statuses"] == [
            {"status": "pending"}
        ]
        transport.close()
        assert accepted[0] == 3

    def test_a_deeply_nested_response_is_a_protocol_error(self):
        # a bare socket stands in for a server that answers with a line of
        # 100 000 nested '[' and then waits for the client to close
        closed = []
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def answer():
                conn, _ = listener.accept()
                conn.settimeout(5.0)
                with conn, conn.makefile("rb") as reader:
                    reader.readline()
                    conn.sendall(b"[" * 100_000 + b"\n")
                    closed.append(reader.read() == b"")

            thread = threading.Thread(target=answer, daemon=True)
            thread.start()
            host, port = listener.getsockname()[:2]
            transport = TcpTransport(f"tcp://{host}:{port}", connect_timeout=5.0)
            with pytest.raises(ProtocolError, match="nested too deeply"):
                transport.exchange(encode_request([KEY]))
            thread.join(10.0)
        assert transport._sock is None
        assert closed == [True]

    def test_a_response_line_past_the_cap_is_a_protocol_error(self):
        # a bare socket stands in for a server that answers with a valid
        # response padded with blanks past the cap, which JSON alone would
        # accept
        line = json_line(encode_response([Response(STATUS_PENDING)]))
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def answer():
                conn, _ = listener.accept()
                conn.settimeout(5.0)
                with conn, conn.makefile("rb") as reader:
                    reader.readline()
                    try:
                        conn.sendall(line[:-1] + b" " * MAX_RESPONSE_BYTES + b"\n")
                    except OSError:  # the client closed before reading it all
                        pass

            thread = threading.Thread(target=answer, daemon=True)
            thread.start()
            host, port = listener.getsockname()[:2]
            transport = TcpTransport(f"tcp://{host}:{port}", connect_timeout=5.0)
            with pytest.raises(ProtocolError, match="longer than"):
                transport.exchange(encode_request([KEY]))
            thread.join(10.0)
        assert not thread.is_alive()
        assert transport._sock is None

    def test_a_server_that_is_gone_is_a_transport_error(self, server):
        server_obj, _ = server
        transport = TcpTransport(server_obj.address, connect_timeout=1.0)
        transport.exchange(encode_request([KEY]))
        server_obj.stop()
        with pytest.raises(TransportError):
            transport.exchange(encode_request([KEY]))

    def test_an_install_opens_one_connection(self, make_env, accepted):
        env = make_env()
        server = FarmServer(env.farm.service).start()
        try:
            transport = TcpTransport(server.address)
            exchanges = []
            real = transport.exchange

            def counting(request):
                exchanges.append(request["keys"])
                return real(request)

            transport.exchange = counting
            env.client._transport = transport
            env.client.update()
            plan = env.client.install([parse_atom("app-editors/vim")])
        finally:
            server.stop()
        assert accepted[0] == 1
        assert transport._sock is None  # closed when the install ended
        keys = [BuildKey(p, v, env.config.use_flags).canonical() for p, v in plan.steps]
        # the whole plan in one request, then one request per poll round
        # (30 s builds, 10 s polls)
        assert exchanges == [keys] * 4
        assert env.clock.now() == 30.0


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
        assert sorted(os.listdir(root)) == ["artifacts", "records"]
        records = (root / "records" / "records.jsonl").read_text().splitlines()
        assert [json.loads(line)["key"] for line in records] == [
            KEY.canonical(), KEY.canonical()
        ]
        assert os.listdir(root / "records") == ["records.jsonl"]
        assert (root / "artifacts" / f"{KEY.path_token()}.tar").is_file()
        # the same directory doubles as the download surface for clients
        store = DirectoryStore(root)
        assert farm.service.handle_request(KEY).status == STATUS_AVAILABLE
        assert store.fetch_artifact(KEY) == farm.artifacts.get(KEY)

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

        def served(farm):
            return {
                key: store.fetch_artifact(key)
                for key in keys
                if farm.service.handle_request(key).status == STATUS_AVAILABLE
            }

        assert served(farm) == expected
        farm.close()
        reborn = BuildFarm(clock=VirtualClock(), root=root)
        assert served(reborn) == expected
        reborn.close()
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

    def test_a_pending_record_without_a_message_is_built_on_reopen(
        self, tmp_path
    ):
        records = BuildRecordStore(tmp_path / "records")
        records.create_pending(KEY.canonical(), 0.0)
        records.close()
        farm = BuildFarm(
            clock=VirtualClock(),
            root=tmp_path,
            executor_table=ExecutorTable(default=JobProfile(duration=3.0)),
        )
        farm.run_until_settled(60.0)
        response = farm.service.handle_request(KEY)
        farm.close()
        assert response.status == STATUS_AVAILABLE
        assert farm.records.get(KEY.canonical()).completed_at == 3.0

    def test_a_queue_journal_of_earlier_versions_is_left_alone(self, tmp_path):
        queue_file = tmp_path / "queue.jsonl"
        queue_file.write_bytes(b'garbage\n["send",1,"cat/p-1[]",0.0]\n{')
        before = queue_file.read_bytes()
        farm = BuildFarm(
            clock=VirtualClock(),
            root=tmp_path,
            executor_table=ExecutorTable(default=JobProfile(duration=3.0)),
        )
        farm.service.handle_request(KEY)
        farm.run_until_settled(60.0)
        farm.close()
        assert farm.records.get(KEY.canonical()).status == "built"
        assert farm.records.get("cat/p-1[]") is None
        assert queue_file.read_bytes() == before

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
        assert "remove records/ and artifacts/" in str(exc_info.value)
        assert files_under(tmp_path) == before

    def test_a_built_line_naming_another_url_is_served_its_own(
        self, make_env, tmp_path
    ):
        # earlier versions stored each built record's URL; the store now
        # ignores it, and the client reads the artifact of its own key
        key = BuildKey.parse("sys-libs/ncurses-6.1-r2[]")
        root = tmp_path / "farm"
        ArtifactStore(root / "artifacts").put(key, build_artifact_tar(key))
        (root / "records").mkdir()
        (root / "records" / "records.jsonl").write_bytes(json_line(
            {"key": key.canonical(), "status": "built", "created_at": 0.0,
             "artifact_url": "store://app-editors/vim-8.1[]",
             "completed_at": 3.0}
        ))
        env = make_env()
        env.client.update()
        env.client.install([parse_atom("=sys-libs/ncurses-6.1-r2")])
        assert env.client.db.get_metadata(key.package).installed_version() == (
            key.version
        )
        assert env.download_events() == [("download", key)]
        assert env.farm.service.handle_request(key) == Response(STATUS_AVAILABLE)
        assert [r.key for r in env.farm.records.all_records()] == [key.canonical()]

    def test_a_category_named_queue_is_served(self, make_env):
        package = PackageId.parse("queue/q")
        env = make_env(metas=build_sample_metadata() + [
            PackageMetadata.from_document({
                "name": "queue/q",
                "description": "q",
                "versions": {"1.0": {"dependencies": []}},
            })
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

    @pytest.mark.parametrize("key", ["garbage", "cat/p-1[b,a]"])
    def test_a_pending_key_that_is_not_canonical_is_refused(self, tmp_path, key):
        # A farm that opened this root would fail its first poll on
        # "garbage", or build "cat/p-1[b,a]" as cat/p-1[a,b] and leave the
        # record pending for good.
        (tmp_path / "records").mkdir()
        (tmp_path / "records" / "records.jsonl").write_text(
            json.dumps({"key": key, "status": "pending", "created_at": 0.0})
            + "\n"
        )
        before = files_under(tmp_path)
        with pytest.raises(
            FarmStateError, match="line 1: .* is not a canonical build key"
        ):
            BuildFarm(clock=VirtualClock(), root=tmp_path)
        assert files_under(tmp_path) == before

    def test_a_deeply_nested_journal_line_is_refused(self, tmp_path):
        # a line that is not JSON before the last is damage, not a tear
        (tmp_path / "records").mkdir()
        (tmp_path / "records" / "records.jsonl").write_bytes(
            b"[" * 100_000 + b"\n" + json_line(
                {"key": KEY.canonical(), "status": "pending", "created_at": 0.0}
            )
        )
        before = files_under(tmp_path)
        with pytest.raises(FarmStateError, match="line 1 is not JSON"):
            BuildFarm(clock=VirtualClock(), root=tmp_path)
        assert files_under(tmp_path) == before

    def test_reopening_a_root_parses_each_pending_key_once(
        self, tmp_path, monkeypatch
    ):
        keys = [BuildKey.parse(f"cat/p{i}-1.0[a,b]") for i in range(100)]
        records = BuildRecordStore(tmp_path / "records")
        for key in keys:
            records.create_pending(key.canonical(), 0.0)
        records.close()
        parsed = []
        real = BuildKey.parse.__func__

        def counting(cls, text):
            parsed.append(text)
            return real(cls, text)

        monkeypatch.setattr(BuildKey, "parse", classmethod(counting))
        farm = BuildFarm(clock=VirtualClock(), root=tmp_path)
        sent = [farm.queue.receive(0.0)[0].body for _ in keys]
        farm.close()
        assert parsed == [key.canonical() for key in keys]
        assert sent == keys

    def test_opening_a_root_writes_nothing(self, tmp_path):
        table = ExecutorTable(
            {"cat/broken-1[]": JobProfile(duration=3.0, error="boom")},
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
        assert (depth, dead) == (2, [])
        assert files_under(tmp_path) == before


class TestServiceMode:
    KEY_BUILD_S = 0.5

    @pytest.fixture
    def wall_farm(self, tmp_path):
        """A disk-backed farm in service mode on the wall clock. ``KEY``
        builds for ``KEY_BUILD_S``, long enough to be seen building between
        two pump rounds; every other key builds for 0.01 s."""
        farm = BuildFarm(
            clock=WallClock(),
            root=tmp_path,
            executor_table=ExecutorTable(
                {KEY.canonical(): JobProfile(duration=self.KEY_BUILD_S)},
                default=JobProfile(duration=0.01),
            ),
            num_workers=4,
            worker_poll_interval=0.02,
        )
        server = farm.start_service(pump_interval=0.005)
        yield farm, server
        farm.close()

    def test_a_request_waits_while_the_lock_is_held(self, wall_farm):
        farm, server = wall_farm
        request = request_line(KEY)
        lines = []
        client = threading.Thread(
            target=lambda: lines.append(tcp_exchange(server.address, request))
        )
        with farm.lock:
            client.start()
            client.join(0.3)
            assert client.is_alive() and lines == []
        client.join(5.0)
        assert not client.is_alive()
        assert json.loads(lines[0])["statuses"] == [{"status": STATUS_PENDING}]

    @staticmethod
    def wait_under_lock(farm, done, seconds=5.0):
        """Whether ``done()``, read while holding the farm's lock, comes
        true within ``seconds``."""
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            with farm.lock:
                if done():
                    return True
            time.sleep(0.001)
        return False

    def test_the_pump_finalizes_nothing_while_the_lock_is_held(self, wall_farm):
        farm, _ = wall_farm
        farm.service.handle_request(KEY)
        assert self.wait_under_lock(
            farm, lambda: any(w.mode is WorkerMode.BUILDING for w in farm.workers)
        )

        def status():
            return farm.records.get(KEY.canonical()).status

        with farm.lock:
            assert status() == "pending"
            time.sleep(self.KEY_BUILD_S + 0.3)  # the build is long due
            assert status() == "pending"
        assert self.wait_under_lock(farm, lambda: status() == "built")

    def test_concurrent_clients_get_one_build_per_key(
        self, wall_farm, tmp_path, monkeypatch
    ):
        farm, server = wall_farm
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        keys = [BuildKey.parse(f"cat/p{i}-1.0[x]") for i in range(100)]
        failures = []

        def client(mine):
            """Request every key, then ask again until each is built."""
            try:
                waiting = list(mine)
                deadline = time.monotonic() + 30.0
                while waiting and time.monotonic() < deadline:
                    for key in list(waiting):
                        line = tcp_exchange(server.address, request_line(key))
                        [status] = json.loads(line)["statuses"]
                        if status["status"] == STATUS_AVAILABLE:
                            waiting.remove(key)
                failures.extend(key.canonical() for key in waiting)
            except Exception as exc:  # reported below, not lost in the thread
                failures.append(repr(exc))

        clients = [
            threading.Thread(target=client, args=(keys[i::4],)) for i in range(4)
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in clients)
        farm.close()
        assert hooked == []  # the pump and the server thread raised nothing
        assert failures == []
        built = [
            event.key
            for worker in farm.workers
            for event in worker.history
            if event.status == "built"
        ]
        assert sorted(built) == sorted(key.canonical() for key in keys)
        journal = (tmp_path / "records" / "records.jsonl").read_text()
        lines = [json.loads(line) for line in journal.splitlines()]
        assert sorted((doc["key"], doc["status"]) for doc in lines) == sorted(
            (key.canonical(), status)
            for key in keys
            for status in ("built", "pending")
        )
        for key in keys:
            assert farm.artifacts.get(key) == build_artifact_tar(key)

    def test_a_failed_pump_round_stops_the_server(
        self, wall_farm, caplog, monkeypatch
    ):
        farm, server = wall_farm
        transport = TcpTransport(server.address, connect_timeout=1.0)
        assert transport.exchange(encode_request([KEY]))["statuses"] == [
            {"status": STATUS_PENDING}
        ]

        def failing_step(now):
            raise OSError("record journal append failed")

        caplog.set_level(logging.ERROR, logger="pacloud.farm")
        with farm.lock:
            monkeypatch.setattr(farm.workers[0], "step", failing_step)
        deadline = time.monotonic() + 2.0
        with pytest.raises(TransportError):
            while time.monotonic() < deadline:
                transport.exchange(encode_request([KEY]))
                time.sleep(0.01)
        failed = [r for r in caplog.records if r.name == "pacloud.farm"]
        assert [r.exc_info[0] for r in failed] == [OSError]
        assert "record journal append failed" in caplog.text
        assert "Traceback" in caplog.text

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
            request = request_line(KEY)
            line = tcp_exchange(server.address, request)
            assert json.loads(line)["statuses"] == [{"status": STATUS_PENDING}]
            deadline = time.monotonic() + 5.0
            status = None
            while time.monotonic() < deadline:
                line = tcp_exchange(server.address, request)
                [status] = [s["status"] for s in json.loads(line)["statuses"]]
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
