"""The request/response documents exchanged with the build service.

One exchange carries one UTF-8 JSON request and one JSON response:

    request:  {"package": "<category/name>", "version": "<rendered>",
               "useflags": ["...", sorted]}
    response: {"status": "available"|"pending"|"failed",
               "url": optional, "error": optional}

The status vocabulary is closed; anything else is a protocol error. An
available artifact's url is ``store://<canonical build key>``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import BuildKey, PackageId, UseFlagSet, parse_version
from .errors import (
    MalformedBuildKey,
    MalformedPackageId,
    MalformedUseFlag,
    MalformedVersion,
    ProtocolError,
)

STATUS_AVAILABLE = "available"
STATUS_PENDING = "pending"
STATUS_FAILED = "failed"

ARTIFACT_URL_PREFIX = "store://"
# The store directory that holds each artifact as <key.path_token()>.tar.
ARTIFACT_DIR = "artifacts"


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
    return {
        "package": key.package.render(),
        "version": key.version.render(),
        "useflags": list(key.useflags.sorted_flags()),
    }


def decode_request(doc: object) -> BuildKey:
    if not isinstance(doc, dict):
        raise ProtocolError("request is not an object")
    try:
        package = PackageId.parse(doc["package"])
        version = parse_version(doc["version"])
        flags = doc["useflags"]
        if not isinstance(flags, list) or not all(
            isinstance(f, str) for f in flags
        ):
            raise ProtocolError("useflags must be a list of strings")
        return BuildKey(package, version, UseFlagSet.of(flags))
    except ProtocolError:
        raise
    except (KeyError, TypeError, MalformedPackageId, MalformedUseFlag,
            MalformedVersion) as exc:
        raise ProtocolError(f"bad request document: {exc}") from exc


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
