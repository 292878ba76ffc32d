"""The request handler and its local socket server.

A request for a key whose record is terminal is answered from the record
store: available with the artifact URL, or failed with the stored error
text (served to the original requester and to anyone asking for the same
key later). The first request for an unknown key creates a pending record
and enqueues exactly one compile message; while the record stays pending,
further requests return pending without enqueuing again.

The socket server speaks the wire protocol: one newline-terminated JSON
request per connection, answered with one JSON response. Connections are
served one at a time on the server's thread: the service handles requests
under one lock anyway, and starting a thread per connection costs more
than the exchange itself. A client that sends no full request line within
``REQUEST_TIMEOUT`` seconds is disconnected so it cannot hold up others.
"""
from __future__ import annotations

import json
import logging
import socketserver
import threading

from ..core import BuildKey
from ..errors import ProtocolError
from ..wire import (
    Response,
    STATUS_AVAILABLE,
    STATUS_FAILED,
    STATUS_PENDING,
    decode_request,
    encode_response,
)
from .clock import Clock
from .queue import CompileQueue
from .stores import BUILT, FAILED, BuildRecordStore

logger = logging.getLogger("pacloud.farm")

MAX_REQUEST_BYTES = 65536
REQUEST_TIMEOUT = 5.0


class RequestService:
    def __init__(
        self, records: BuildRecordStore, queue: CompileQueue, clock: Clock
    ):
        self.records = records
        self.queue = queue
        self.clock = clock
        self._lock = threading.Lock()

    def handle_request(self, key: BuildKey) -> Response:
        canonical = key.canonical()
        now = self.clock.now()
        with self._lock:
            record = self.records.get(canonical)
            if record is None:
                # message first: one without a record is still built, but a
                # record without one (after a crash) would stay pending
                self.queue.send(canonical, now)
                self.records.create_pending(canonical, now)
                return Response(STATUS_PENDING)
            if record.status == BUILT:
                return Response(STATUS_AVAILABLE, url=record.artifact_url)
            if record.status == FAILED:
                return Response(STATUS_FAILED, error=record.error_message)
            return Response(STATUS_PENDING)


class _ExchangeHandler(socketserver.StreamRequestHandler):
    timeout = REQUEST_TIMEOUT

    def handle(self) -> None:
        try:
            line = self.rfile.readline(MAX_REQUEST_BYTES)
        except TimeoutError:
            logger.warning("dropping a connection that sent no request")
            return
        if not line:
            return
        try:
            key = decode_request(json.loads(line.decode("utf-8")))
        except (ValueError, ProtocolError) as exc:
            logger.warning("dropping malformed request: %s", exc)
            return
        response = self.server.service.handle_request(key)  # type: ignore[attr-defined]
        payload = json.dumps(encode_response(response)) + "\n"
        self.wfile.write(payload.encode("utf-8"))


class _Server(socketserver.TCPServer):
    allow_reuse_address = True


class FarmServer:
    """Serves the wire protocol on a local TCP endpoint in a daemon thread."""

    def __init__(
        self, service: RequestService, host: str = "127.0.0.1", port: int = 0
    ):
        self._server = _Server((host, port), _ExchangeHandler)
        self._server.service = service  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"tcp://{host}:{port}"

    def start(self) -> "FarmServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
