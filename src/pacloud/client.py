"""The package-manager operations behind the command-line verbs.

Install requests every plan entry from the build service up front so the
farm compiles them in parallel, then walks the plan in order: a cached
archive is reused without touching the wire, anything else is awaited
with a poll-sleep loop, downloaded, cached and unpacked. The first error
stops the walk, leaving the already-completed installs recorded.

Installing a package that is already installed, at any version, replaces
it as Portage merges over an installed version: once the new install is
recorded, the files of the replaced one that the new one does not list
are unlinked. ``upgrade`` only picks the highest known version and
installs it this way.

Removal unlinks the files of every package in the orphan closure
(pruning emptied directories), drops their cached archives, then records
the whole set in one ``record_removal``, which deletes their documents,
roots last: removing what was just installed restores both trees
exactly. Finding the closure reads every installed package's document
once; the recording reads each removed one again under the write lock.
A crash at any point leaves the roots recorded as installed. Where one
package was named and the closure holds no dependency cycle, the same
``pacloud -r`` again finishes the job.
"""
from __future__ import annotations

import io
import json
import socket
import tarfile
from datetime import datetime
from pathlib import Path, PurePosixPath
from typing import Protocol
from urllib.parse import urlsplit

from .config import Config
from .core import (
    BuildKey,
    DependencyAtom,
    PackageId,
    Specifier,
    Version,
    compare_versions,
    select_best_version,
)
from .errors import (
    BuildFailed,
    BuildTimeout,
    MissingServerUrl,
    NotInstalled,
    ProtocolError,
    StoreUnreachable,
    TransportError,
    UnpackError,
)
from .farm.clock import Clock, WallClock
from .files import prune_empty_dirs
from .localdb import DirectoryStore, LocalDb, PackageStore, SearchResult, SyncReport
from .resolver import InstallPlan, compute_orphans, resolve_runtime_closure
from .wire import (
    Response,
    STATUS_AVAILABLE,
    STATUS_FAILED,
    artifact_key,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)


class Transport(Protocol):
    """One request/response exchange with the build service."""

    def exchange(self, request: dict) -> dict: ...


class TcpTransport:
    """The wire protocol over a ``tcp://host:port`` endpoint."""

    def __init__(self, url: str, connect_timeout: float = 30.0):
        try:
            parts = urlsplit(url)
            host, port = parts.hostname, parts.port
        except ValueError as exc:
            raise TransportError(f"unsupported api url: {url!r}") from exc
        if parts.scheme != "tcp" or not host or not port:
            raise TransportError(f"unsupported api url: {url!r}")
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout

    def exchange(self, request: dict) -> dict:
        payload = (json.dumps(request) + "\n").encode("utf-8")
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            ) as sock:
                sock.sendall(payload)
                with sock.makefile("rb") as reader:
                    line = reader.readline()
        except OSError as exc:
            raise TransportError(f"cannot reach {self.host}:{self.port}: {exc}") from exc
        if not line:
            raise TransportError("connection closed without a response")
        try:
            return json.loads(line.decode("utf-8"))
        except ValueError as exc:
            raise ProtocolError(f"undecodable response body: {exc}") from exc


class InProcessTransport:
    """Exchange documents with an in-process request service.

    Requests and responses still round-trip through the wire encoding so
    the protocol contract stays exercised.
    """

    def __init__(self, service):
        self.service = service

    def exchange(self, request: dict) -> dict:
        key = decode_request(request)
        return encode_response(self.service.handle_request(key))


def transport_from_url(url: str | None) -> Transport:
    if not url:
        raise MissingServerUrl("server.api_url is not configured")
    return TcpTransport(url)


def store_from_url(url: str | None) -> PackageStore:
    if not url:
        raise MissingServerUrl("server.store_url is not configured")
    if url.startswith("file://"):
        return DirectoryStore(url[len("file://"):])
    if url.startswith("/"):
        return DirectoryStore(url)
    raise StoreUnreachable(f"unsupported store url: {url!r}")


def request_package(transport: Transport, key: BuildKey) -> Response:
    """One build request; the response is parsed by its status field."""
    return decode_response(transport.exchange(encode_request(key)))


def await_package(
    transport: Transport,
    key: BuildKey,
    clock: Clock,
    poll_interval: float = 10.0,
    timeout: float = 7200.0,
) -> str:
    """Poll until the key is available; its URL must name ``key``."""
    start = clock.now()
    while True:
        if clock.now() - start >= timeout:
            raise BuildTimeout(
                f"{key}: still pending after {timeout:g} seconds"
            )
        response = request_package(transport, key)
        if response.status == STATUS_AVAILABLE:
            assert response.url is not None
            if artifact_key(response.url) != key:
                raise ProtocolError(f"{key}: service offered {response.url}")
            return response.url
        if response.status == STATUS_FAILED:
            assert response.error is not None
            raise BuildFailed(response.error)
        clock.sleep(poll_interval)


def unpack_archive(data: bytes, install_root: Path) -> list[str]:
    """Extract an artifact tar under the install root.

    Entries must be relative paths without ``..``; only directories and
    regular files are accepted, and no file may hold another entry. Every
    entry is checked and read before anything is written, so an archive
    refused for any entry leaves the install root as it was; a failed
    write raises UnpackError too. Returns the sorted file paths, relative
    to the root, for the install record.
    """
    # each entry's path and its file's bytes; None for a directory
    entries: list[tuple[PurePosixPath, bytes | None]] = []
    try:
        with tarfile.open(fileobj=io.BytesIO(data), mode="r:") as archive:
            for member in archive.getmembers():
                path = PurePosixPath(member.name)
                parts = path.parts
                if member.name.startswith("/") or ".." in parts or not parts:
                    raise UnpackError(f"unsafe archive member: {member.name!r}")
                if member.isdir():
                    entries.append((path, None))
                elif member.isfile():
                    extracted = archive.extractfile(member)
                    assert extracted is not None
                    entries.append((path, extracted.read()))
                else:
                    raise UnpackError(
                        f"unsupported archive member type: {member.name!r}"
                    )
    except tarfile.TarError as exc:
        raise UnpackError(f"unreadable archive: {exc}") from exc
    files = {path for path, content in entries if content is not None}
    for path, content in entries:
        if files.intersection(path.parents) or (content is None and path in files):
            raise UnpackError(f"archive member {str(path)!r} clashes with a file")
    for path, content in entries:
        target = install_root.joinpath(path)
        try:
            if content is None:
                target.mkdir(parents=True, exist_ok=True)
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(content)
        except OSError as exc:
            raise UnpackError(
                f"cannot write archive member {str(path)!r}: {exc}"
            ) from exc
    return sorted(str(path) for path in files)


def format_search_results(term: str, results: list[SearchResult]) -> str:
    lines = [f"Results for search key: {term}"]
    for result in results:
        versions = " ".join(str(v) for v in result.versions)
        marker = (
            f" [installed: {result.installed}]" if result.installed else ""
        )
        lines.append(f"{result.package} ( {versions} ){marker}")
        lines.append(f"  {result.description}")
    return "\n".join(lines)


def log_operation(config: Config, message: str) -> None:
    """Append one timestamped line to the operation log."""
    config.log_path.parent.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now().astimezone().isoformat(timespec="seconds")
    with open(config.log_path, "a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {message}\n")


class Client:
    """Package-manager verbs over a database, a store and a transport.

    Collaborators default to what the configuration names but can be
    injected, which is how the tests (and the in-process farm) drive the
    client deterministically.
    """

    def __init__(
        self,
        config: Config,
        db: LocalDb | None = None,
        store: PackageStore | None = None,
        transport: Transport | None = None,
        clock: Clock | None = None,
    ):
        self.config = config
        self.db = db or LocalDb(config.db_path)
        self._store = store
        self._transport = transport
        self.clock: Clock = clock or WallClock()

    @property
    def store(self) -> PackageStore:
        if self._store is None:
            self._store = store_from_url(self.config.store_url)
        return self._store

    @property
    def transport(self) -> Transport:
        if self._transport is None:
            self._transport = transport_from_url(self.config.api_url)
        return self._transport

    # --- verbs ---

    def update(self) -> SyncReport:
        report = self.db.sync(self.store)
        log_operation(self.config, "update: synced local database")
        return report

    def search(self, term: str) -> list[SearchResult]:
        log_operation(self.config, f"search: {term}")
        return self.db.search(term)

    def install(self, targets: list[DependencyAtom]) -> InstallPlan:
        plan = resolve_runtime_closure(targets, self.db, self.config.use_flags)
        explicit = {atom.package: True for atom in targets}
        self._install_plan(plan, explicit)
        log_operation(
            self.config,
            "install: " + " ".join(str(a) for a in targets),
        )
        return plan

    def remove(self, targets: list[PackageId]) -> list[PackageId]:
        removal = compute_orphans(self.db, targets)
        for pkg, meta in removal.items():
            self._unlink(meta.files or [])
            self.db.remove_cached_archives(pkg)
        self.db.record_removal(*removal)
        log_operation(
            self.config,
            "remove: " + " ".join(p.render() for p in removal),
        )
        return list(removal)

    def upgrade(
        self, targets: list[PackageId] | None = None
    ) -> list[tuple[PackageId, Version, Version]]:
        """Upgrade explicit packages (or the named ones) to the highest
        known version, keeping the user's current flags."""
        if targets:
            candidates = list(targets)
        else:
            candidates = [
                name
                for name, meta in self.db.installed_packages().items()
                if meta.explicit
            ]
        performed: list[tuple[PackageId, Version, Version]] = []
        for pkg in candidates:
            meta = self.db.get_metadata(pkg)
            if meta is None or meta.installed is None:
                raise NotInstalled(f"{pkg} is not installed")
            installed = meta.installed_version()
            assert installed is not None
            best = select_best_version(
                DependencyAtom(Specifier.ANY, pkg), meta.known_versions()
            )
            if best is None or compare_versions(best, installed) <= 0:
                continue
            plan = resolve_runtime_closure(
                [DependencyAtom(Specifier.EQ, pkg, best)],
                self.db,
                self.config.use_flags,
            )
            self._install_plan(plan, {pkg: meta.explicit})
            performed.append((pkg, installed, best))
        log_operation(
            self.config,
            "upgrade: "
            + (" ".join(p.render() for p, _, _ in performed) or "(up to date)"),
        )
        return performed

    # --- install machinery ---

    def _install_plan(
        self, plan: InstallPlan, explicit: dict[PackageId, bool]
    ) -> None:
        flags = self.config.use_flags
        keys = {pkg: BuildKey(pkg, version, flags) for pkg, version in plan.steps}
        cached: dict[PackageId, bytes] = {}
        for pkg, _ in plan.steps:
            data = self.db.archive_get(keys[pkg])
            if data is not None:
                cached[pkg] = data
        # Request every uncached entry before downloading anything so the
        # farm compiles the whole closure in parallel.
        for pkg, _ in plan.steps:
            if pkg not in cached:
                request_package(self.transport, keys[pkg])
        for pkg, version in plan.steps:
            key = keys[pkg]
            data = cached.get(pkg)
            if data is None:
                url = await_package(
                    self.transport,
                    key,
                    self.clock,
                    poll_interval=self.config.poll_interval,
                    timeout=self.config.timeout,
                )
                data = self.store.fetch_artifact(url)
            files = unpack_archive(data, self.config.install_root)
            if pkg not in cached:
                self.db.archive_put(key, data)
            replaced = self.db.record_install(
                pkg,
                version,
                explicit.get(pkg, False),
                plan.dependencies.get(pkg, ()),
                files,
            )
            stale = set(replaced).difference(files)
            if stale:
                self._unlink(sorted(stale))

    def _unlink(self, files: list[str]) -> None:
        """Delete installed files, pruning the directories they empty."""
        root = self.config.install_root.resolve()
        for rel in files:
            path = self.config.install_root.joinpath(rel)
            path.unlink(missing_ok=True)
            prune_empty_dirs(path.parent.resolve(), root)
