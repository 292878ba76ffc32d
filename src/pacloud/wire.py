"""The request/response documents exchanged with the build service.

A connection carries any number of exchanges, one after another. Each is
one newline-terminated UTF-8 JSON request answered by one JSON response:

    request:  {"type": "build", "keys": ["<canonical build key>", ...]}
    response: {"statuses": [{"status": "available"|"pending"|"failed",
                             "error": only when failed}, ...]}

The response holds one status per requested key, in the request's order.
A request names each key by its canonical string. It is a protocol error
unless it is exactly these two fields, of type ``build``, naming one or
more distinct keys, each by its canonical string: ``cat/p-1[b,a]`` or
``cat/p-01[]`` is refused, and so is the whole request that holds one.
A status is refused unless it is a closed-vocabulary ``status`` with an
``error`` text exactly when it failed. No response says where an artifact
is: a client reads the file ``artifact_file`` of the key it asked for.

Both ends bound the lines they read. The server refuses a request line
longer than ``MAX_REQUEST_BYTES``, and a client refuses a response line
longer than ``MAX_RESPONSE_BYTES``. The response cap is derived from the
request cap, and the server caps the error text it sends, so that every
response the server gives to a request it accepts fits: a response sends
a failed key's error cut to its first ``MAX_ERROR_CHARS`` characters
(the record keeps all of it). An accepted request names at most one key
per ten bytes of its line (``"a/b-1[]",`` is the shortest), and a status
takes at most ``_MAX_STATUS_BYTES``, counting each error character as the
twelve bytes of an escaped surrogate pair, so the cap is about 16 MB.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import BuildKey
from .errors import MalformedBuildKey, ProtocolError

REQUEST_BUILD = "build"

STATUS_AVAILABLE = "available"
STATUS_PENDING = "pending"
STATUS_FAILED = "failed"

# The longest request and response lines, each with its newline; the
# module docstring derives the second.
MAX_REQUEST_BYTES = 65536
MAX_ERROR_CHARS = 200
_MAX_STATUS_BYTES = len('{"status":"failed","error":""},') + 12 * MAX_ERROR_CHARS
MAX_RESPONSE_BYTES = len('{"statuses":[]}\n') + (
    MAX_REQUEST_BYTES // 10 * _MAX_STATUS_BYTES
)

# The store directory that holds each artifact as its ``artifact_file``.
ARTIFACT_DIR = "artifacts"
ARTIFACT_SUFFIX = ".tar"


def artifact_file(key: BuildKey) -> str:
    """The name of the file that holds ``key``'s tar, in a store's
    ``ARTIFACT_DIR`` and in a client's archive cache."""
    return f"{key.path_token()}{ARTIFACT_SUFFIX}"


@dataclass(frozen=True)
class Response:
    status: str
    error: str | None = None


# Responses are frozen, so every decoded non-failed status can be one of
# these.
_PLAIN = {status: Response(status) for status in (STATUS_AVAILABLE, STATUS_PENDING)}
_REQUEST_FIELDS = {"type", "keys"}


def encode_request(keys: Sequence[BuildKey]) -> dict:
    return {"type": REQUEST_BUILD, "keys": [key.canonical() for key in keys]}


def decode_request(doc: object) -> list[BuildKey]:
    """The keys a build request names, in its order."""
    if not isinstance(doc, dict) or doc.get("type") != REQUEST_BUILD:
        raise ProtocolError("request is not of type 'build'")
    texts = doc.get("keys")
    if doc.keys() != _REQUEST_FIELDS or not isinstance(texts, list) or not texts:
        raise ProtocolError("build request names no list of keys")
    if not all(isinstance(text, str) for text in texts):
        raise ProtocolError("build request holds a key that is not a string")
    if len(set(texts)) != len(texts):
        raise ProtocolError("build request names a key twice")
    try:
        return [BuildKey.from_canonical(text) for text in texts]
    except MalformedBuildKey as exc:
        raise ProtocolError(f"bad request: {exc}") from exc


def encode_response(responses: Sequence[Response]) -> dict:
    statuses = []
    for response in responses:
        doc: dict = {"status": response.status}
        if response.error is not None:
            doc["error"] = response.error[:MAX_ERROR_CHARS]
        statuses.append(doc)
    return {"statuses": statuses}


def decode_response(doc: object, count: int) -> list[Response]:
    """The ``count`` statuses of a response, in the request's key order."""
    statuses = doc.get("statuses") if isinstance(doc, dict) else None
    if not isinstance(statuses, list) or len(doc) != 1:  # type: ignore[arg-type]
        raise ProtocolError("response holds no list of statuses")
    if len(statuses) != count:
        raise ProtocolError(f"response holds {len(statuses)} statuses for {count} keys")
    return [_decode_status(status) for status in statuses]


def _decode_status(doc: object) -> Response:
    if isinstance(doc, dict):
        status = doc.get("status")
        if isinstance(status, str) and status in _PLAIN and len(doc) == 1:
            return _PLAIN[status]
        error = doc.get("error")
        if status == STATUS_FAILED and isinstance(error, str) and len(doc) == 2:
            return Response(STATUS_FAILED, error=error)
    raise ProtocolError(f"malformed status: {doc!r:.200}")
