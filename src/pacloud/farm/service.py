"""The request handler and its local socket server.

A request for a key whose record is terminal is answered from the record
store: available, or failed with the stored error text (served to the
original requester and to anyone asking for the same key later). The
first request for an unknown key creates a pending record and then
enqueues exactly one compile message; while the record stays pending,
further requests return pending without enqueuing again. A crash between
the two writes leaves a pending record without a message, and the farm
that reopens the root sends it one.

``RequestService.exchange`` is the farm's one answer path, request
document in, response document out, and the one way a farm moves on a
clock it does not own. Under the farm's one lock it runs every worker
event due by the request's arrival, ``farm.advance_to(clock.now())``,
and then checks and answers the request. So a served farm runs on its
server's one thread and only at its requests, and an in-process client
on a virtual clock moves the farm by its requests: its sleeps only move
the clock. The service is a client ``Transport`` too. It parses only the
key strings new to the farm. A record is keyed by a key's canonical
string, whether it was created from ``BuildKey.canonical()`` or loaded
from the journal through ``BuildKey.from_canonical``, so a string equal
to a held record's key is canonical already and is answered from that
record unparsed; a client's poll names only such keys. The whole request
is checked before any key is answered, so a request that holds one bad
string creates and sends nothing.

The socket server speaks the wire protocol (``pacloud.wire``): each
newline-terminated JSON line on a connection is one build request,
answered by one compact JSON line, and the connection stays open for the
next. One ``selectors`` loop on the server's one thread reads every
connection without blocking, so a connection that sends nothing holds up
no other, and the thread count stays fixed whatever the number of
connections. Each line is answered through ``RequestService.exchange``. An
``exchange`` that raises anything but ``ProtocolError`` (an advance that
cannot append to the record journal, say) is logged with its traceback
and its connection dropped; the server keeps serving, so each request
fails at once while the fault lasts and is answered once it clears. A
connection that has sent no complete line within ``REQUEST_TIMEOUT``
seconds, counted from when it opened or from its last answered line, is
closed. A request line longer than ``MAX_REQUEST_BYTES``, one too deep to
decode, or one that is not a build request naming distinct canonical
keys, is refused whole: the server logs a warning and closes the
connection without a response. ``FarmServer.stop`` wakes the loop at
once through a socket pair.
"""
from __future__ import annotations

import logging
import selectors
import socket
import threading
import time

from ..core import BuildKey
from ..errors import ProtocolError
from ..files import from_json, json_line
from ..wire import (
    _PLAIN,
    MAX_REQUEST_BYTES,
    Response,
    STATUS_AVAILABLE,
    STATUS_FAILED,
    STATUS_PENDING,
    encode_response,
    request_key,
    request_texts,
)
from .stores import BUILT, FAILED

logger = logging.getLogger("pacloud.farm")

REQUEST_TIMEOUT = 5.0


class RequestService:
    """Answers build requests from the farm's record store and queue.

    ``lock`` is the farm's one lock, ``BuildFarm.lock``; ``exchange``
    holds it for the whole of each request.
    """

    def __init__(self, farm):
        self.farm = farm
        self.records = farm.records
        self.queue = farm.queue
        self.clock = farm.clock
        self.lock = farm.lock

    def exchange(self, request: dict) -> dict:
        """Run every event due by now, then answer ``request``. What an
        event raises propagates, and the request goes unanswered; a
        malformed request raises ProtocolError with nothing created or
        sent. Only a key string that no record holds is parsed (see the
        module docstring)."""
        with self.lock:
            # looked up per request, so a replaced ``advance_to`` is seen
            self.farm.advance_to(self.clock.now())
            keys = [
                text if self.records.get(text) is not None else request_key(text)
                for text in request_texts(request)
            ]
            return encode_response([self.handle_request(key) for key in keys])

    def close(self) -> None:
        pass

    def handle_request(self, key: BuildKey | str) -> Response:
        """The answer for ``key``: a ``BuildKey``, or the canonical string
        of one the farm holds a record for, which it keeps for good."""
        canonical = key if isinstance(key, str) else key.canonical()
        record = self.records.get(canonical)
        if record is None:
            now = self.clock.now()
            self.records.create_pending(canonical, now)
            self.queue.send(key, now)
            return _PLAIN[STATUS_PENDING]
        if record.status == BUILT:
            return _PLAIN[STATUS_AVAILABLE]
        if record.status == FAILED:
            return Response(STATUS_FAILED, error=record.error_message)
        return _PLAIN[STATUS_PENDING]


class _Connection:
    """One client connection: the bytes read past its last complete line,
    the response bytes not yet sent, and the time by which its next
    complete line must have arrived."""

    __slots__ = ("sock", "inbox", "outbox", "deadline")

    def __init__(self, sock: socket.socket, deadline: float):
        self.sock = sock
        self.inbox = bytearray()
        self.outbox = bytearray()
        self.deadline = deadline


class FarmServer:
    """Serves the wire protocol on a local TCP endpoint: one ``selectors``
    loop on one daemon thread, however many connections are open. Each
    request is answered by ``service.exchange(request)``, which moves the
    farm to the request's arrival and answers it."""

    def __init__(
        self, service: RequestService, host: str = "127.0.0.1", port: int = 0
    ):
        self.service = service
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        # stop() writes a byte to wake the loop out of select()
        self._wake, self._waker = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake, selectors.EVENT_READ)
        self._thread: threading.Thread | None = None
        self._stopped = False

    @property
    def address(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"tcp://{host}:{port}"

    def start(self) -> "FarmServer":
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Wake the loop, wait for it to close every connection, and close
        the listening socket. A second call does nothing."""
        if self._stopped:
            return
        self._stopped = True
        if self._thread is not None:
            self._waker.send(b"\0")
            self._thread.join()
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()  # type: ignore[union-attr]
        self._selector.close()
        self._waker.close()

    # --- the loop ---

    def _connections(self) -> list[_Connection]:
        return [
            key.data for key in self._selector.get_map().values()
            if key.data is not None
        ]

    def _serve(self) -> None:
        while True:
            deadlines = [conn.deadline for conn in self._connections()]
            timeout = (
                max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
            )
            for key, events in self._selector.select(timeout):
                if key.fileobj is self._wake:
                    return
                if key.fileobj is self._listener:
                    self._accept()
                elif events & selectors.EVENT_WRITE:
                    self._flush(key.data)
                else:
                    self._read(key.data)
            now = time.monotonic()
            for conn in self._connections():
                if conn.deadline <= now:
                    if conn.inbox:
                        logger.warning(
                            "dropping a connection that sent no complete"
                            " request line in %g s", REQUEST_TIMEOUT
                        )
                    self._close(conn)

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:  # out of file descriptors, say
                logger.warning("cannot accept a connection: %s", exc)
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, time.monotonic() + REQUEST_TIMEOUT)
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _close(self, conn: _Connection) -> None:
        self._selector.unregister(conn.sock)
        conn.sock.close()

    def _read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(MAX_REQUEST_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            if conn.inbox:
                logger.warning("dropping an unterminated request line")
            self._close(conn)
            return
        conn.inbox += data
        while (end := conn.inbox.find(b"\n")) >= 0:
            if end >= MAX_REQUEST_BYTES:
                break
            line = bytes(conn.inbox[: end + 1])
            del conn.inbox[: end + 1]
            payload = self._answer(line)
            if payload is None:
                self._close(conn)
                return
            conn.outbox += payload
            conn.deadline = time.monotonic() + REQUEST_TIMEOUT
        if len(conn.inbox) >= MAX_REQUEST_BYTES:
            logger.warning(
                "dropping a request line longer than %d bytes", MAX_REQUEST_BYTES
            )
            self._close(conn)
            return
        if conn.outbox:
            self._flush(conn)

    def _answer(self, line: bytes) -> bytes | None:
        """The response line to one request line; None to refuse it."""
        try:
            request = from_json(line)
        except ValueError as exc:
            logger.warning("dropping malformed request: %s", exc)
            return None
        try:
            return json_line(self.service.exchange(request))
        except ProtocolError as exc:
            logger.warning("dropping malformed request: %s", exc)
        except Exception:
            logger.exception("dropping a request that could not be answered")
        return None

    def _flush(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.outbox)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(conn)
            return
        del conn.outbox[:sent]
        events = selectors.EVENT_WRITE if conn.outbox else selectors.EVENT_READ
        if self._selector.get_key(conn.sock).events != events:
            self._selector.modify(conn.sock, events, conn)
