"""The request/response documents exchanged with the build service.

One exchange carries one UTF-8 JSON request and one JSON response:

    request:  {"key": "<canonical build key>"}
    response: {"status": "available"|"pending"|"failed",
               "url": optional, "error": optional}

A request names its key by the key's canonical string; any other text,
such as ``cat/p-1[b,a]`` or ``cat/p-01[]``, is a protocol error, and so
is a status outside the closed vocabulary. An available artifact's url
is ``store://<canonical build key>``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import BuildKey
from .errors import MalformedBuildKey, ProtocolError

STATUS_AVAILABLE = "available"
STATUS_PENDING = "pending"
STATUS_FAILED = "failed"

ARTIFACT_URL_PREFIX = "store://"
# The store directory that holds each artifact as its ``artifact_file``.
ARTIFACT_DIR = "artifacts"
ARTIFACT_SUFFIX = ".tar"


def artifact_file(key: BuildKey) -> str:
    """The name of the file that holds ``key``'s tar, in a store's
    ``ARTIFACT_DIR`` and in a client's archive cache."""
    return f"{key.path_token()}{ARTIFACT_SUFFIX}"


def artifact_url(key: BuildKey) -> str:
    """The URL an available artifact of ``key`` is downloaded from."""
    return f"{ARTIFACT_URL_PREFIX}{key.canonical()}"


def artifact_key(url: str) -> BuildKey:
    """The build key an artifact URL names; ProtocolError if it names none."""
    if not url.startswith(ARTIFACT_URL_PREFIX):
        raise ProtocolError(f"unsupported artifact url: {url!r}")
    try:
        return BuildKey.parse(url[len(ARTIFACT_URL_PREFIX):])
    except MalformedBuildKey as exc:
        raise ProtocolError(f"bad artifact url {url!r}: {exc}") from exc


@dataclass(frozen=True)
class Response:
    status: str
    url: str | None = None
    error: str | None = None


def encode_request(key: BuildKey) -> dict:
    return {"key": key.canonical()}


def decode_request(doc: object) -> BuildKey:
    """The key whose canonical string is the request's ``key``."""
    text = doc.get("key") if isinstance(doc, dict) else None
    if not isinstance(text, str):
        raise ProtocolError("request has no key string")
    try:
        return BuildKey.from_canonical(text)
    except MalformedBuildKey as exc:
        raise ProtocolError(f"bad request: {exc}") from exc


def encode_response(response: Response) -> dict:
    doc: dict = {"status": response.status}
    if response.url is not None:
        doc["url"] = response.url
    if response.error is not None:
        doc["error"] = response.error
    return doc


def decode_response(doc: object) -> Response:
    if not isinstance(doc, dict):
        raise ProtocolError("response is not an object")
    status = doc.get("status")
    if status == STATUS_AVAILABLE:
        url = doc.get("url")
        if not isinstance(url, str):
            raise ProtocolError("available response is missing its url")
        return Response(STATUS_AVAILABLE, url=url)
    if status == STATUS_PENDING:
        return Response(STATUS_PENDING)
    if status == STATUS_FAILED:
        error = doc.get("error")
        if not isinstance(error, str):
            raise ProtocolError("failed response is missing its error text")
        return Response(STATUS_FAILED, error=error)
    raise ProtocolError(f"unknown status: {status!r}")
