"""The package-manager operations behind the command-line verbs.

Install asks the build service about every uncached plan entry in one
request, so the farm compiles them in parallel, then asks again about
the ones not yet available once per poll round, ``poll_interval`` apart.
It walks the plan in order: a cached archive is reused without touching
the wire, and any other entry is downloaded, unpacked and cached as soon
as it and every entry before it are available. The first error stops the
walk, leaving the already-completed installs recorded. The exchanges of
one install share one connection, closed when the install ends.

Installing a package that is already installed, at any version, replaces
it as Portage merges over an installed version. Each entry is unpacked,
then the replaced install's files that the new one does not list are
unlinked, then the archive is cached, and only then is the entry
recorded. A crash before the record leaves the replaced version
recorded: the new files written so far stay on disk, and so do the stale
files not yet unlinked. The same install run again unpacks the same
files, unlinks the stale files that are left and records the entry, so
it finishes the job. ``upgrade`` only picks the highest known version
and installs it this way.

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
import socket
import tarfile
from datetime import datetime
from pathlib import Path, PurePosixPath
from typing import Iterator, Protocol, Sequence
from urllib.parse import urlsplit

from .config import DEFAULT_POLL_INTERVAL, DEFAULT_TIMEOUT, Config
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
from .files import from_json, json_line, prune_empty_dirs
from .localdb import DirectoryStore, LocalDb, PackageStore, SearchResult, SyncReport
from .resolver import InstallPlan, compute_orphans, resolve_runtime_closure
from .wire import (
    MAX_RESPONSE_BYTES,
    Response,
    STATUS_AVAILABLE,
    STATUS_FAILED,
    STATUS_PENDING,
    decode_response,
    encode_request,
)


class Transport(Protocol):
    """Request/response exchanges with the build service, until ``close``:
    a ``TcpTransport``, or in process a farm's ``RequestService``."""

    def exchange(self, request: dict) -> dict: ...

    def close(self) -> None: ...


class TcpTransport:
    """The wire protocol over a ``tcp://host:port`` endpoint.

    Exchanges share one connection until ``close``, or until one fails. A
    reused connection that gives no response at all, as one the server
    closed for idleness does, is replaced once and the request sent
    again. That is safe because a build request is idempotent: it creates
    a key's pending record once, and a resend only reads it. A response
    line is read up to ``MAX_RESPONSE_BYTES``: a longer one is a
    ``ProtocolError``.
    """

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
        self._sock: socket.socket | None = None
        self._reader: io.BufferedReader | None = None

    def exchange(self, request: dict) -> dict:
        payload = json_line(request)
        reused = self._sock is not None
        try:
            line = self._round_trip(payload)
            if reused and not line:
                self.close()
                line = self._round_trip(payload)
        except OSError as exc:
            self.close()
            raise TransportError(f"cannot reach {self.host}:{self.port}: {exc}") from exc
        if len(line) > MAX_RESPONSE_BYTES:
            self.close()
            raise ProtocolError(
                f"response line longer than {MAX_RESPONSE_BYTES} bytes"
            )
        if not line.endswith(b"\n"):
            self.close()
            raise TransportError("connection closed without a response")
        try:
            return from_json(line)
        except ValueError as exc:
            self.close()
            raise ProtocolError(f"undecodable response body: {exc}") from exc

    def _round_trip(self, payload: bytes) -> bytes:
        """The response line to ``payload``; b"" if the connection gave
        none."""
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock, self._reader = sock, sock.makefile("rb")
        assert self._reader is not None
        try:
            self._sock.sendall(payload)
            return self._reader.readline(MAX_RESPONSE_BYTES + 1)
        except ConnectionError:  # reset by the server, or closed under a send
            return b""

    def close(self) -> None:
        if self._sock is not None:
            assert self._reader is not None
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None


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


def request_packages(transport: Transport, keys: Sequence[BuildKey]) -> list[Response]:
    """One build request for ``keys``: one response per key, in order."""
    return decode_response(transport.exchange(encode_request(keys)), len(keys))


def request_package(transport: Transport, key: BuildKey) -> Response:
    """One build request for one key."""
    [response] = request_packages(transport, [key])
    return response


def await_packages(
    transport: Transport,
    keys: Sequence[BuildKey],
    clock: Clock,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    timeout: float = DEFAULT_TIMEOUT,
) -> Iterator[BuildKey]:
    """Request ``keys`` in one exchange, then ask about the ones still
    pending once per round, ``poll_interval`` apart, until each is built.

    Yields each key, in order, as soon as it and every key before it are
    available; the caller's work between two keys runs before the next
    sleep. Raises BuildFailed with the farm's error text when the next
    key in order failed, and BuildTimeout when a key is still pending
    ``timeout`` seconds after the first request.
    """
    start = clock.now()
    statuses: dict[BuildKey, Response] = {}
    asking = list(keys)
    done = 0
    while True:
        statuses.update(zip(asking, request_packages(transport, asking)))
        while done < len(keys):
            response = statuses[keys[done]]
            if response.status == STATUS_FAILED:
                assert response.error is not None
                raise BuildFailed(response.error)
            if response.status != STATUS_AVAILABLE:
                break
            done += 1
            yield keys[done - 1]
        if done == len(keys):
            return
        clock.sleep(poll_interval)
        if clock.now() - start >= timeout:
            raise BuildTimeout(
                f"{keys[done]}: still pending after {timeout:g} seconds"
            )
        asking = [key for key in keys[done:] if statuses[key].status == STATUS_PENDING]


def await_package(
    transport: Transport,
    key: BuildKey,
    clock: Clock,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    timeout: float = DEFAULT_TIMEOUT,
) -> None:
    """Poll until ``key`` is available: ``await_packages`` of one key."""
    for _ in await_packages(transport, [key], clock, poll_interval, timeout):
        pass


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
    injected, which is how the tests drive the client deterministically:
    a farm's ``RequestService`` is a ``Transport`` itself.
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
            best = select_best_version(
                DependencyAtom(Specifier.ANY, pkg), meta.known_versions()
            )
            if best is None or compare_versions(best, meta.installed) <= 0:
                continue
            plan = resolve_runtime_closure(
                [DependencyAtom(Specifier.EQ, pkg, best)],
                self.db,
                self.config.use_flags,
            )
            self._install_plan(plan, {pkg: meta.explicit})
            performed.append((pkg, meta.installed, best))
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
        uncached = [keys[pkg] for pkg, _ in plan.steps if pkg not in cached]
        built: Iterator[BuildKey] = iter(())
        if uncached:
            built = await_packages(
                self.transport,
                uncached,
                self.clock,
                poll_interval=self.config.poll_interval,
                timeout=self.config.timeout,
            )
        try:
            for pkg, version in plan.steps:
                key = keys[pkg]
                data = cached.get(pkg)
                if data is None:
                    next(built)
                    data = self.store.fetch_artifact(key)
                meta = self.db.get_metadata(pkg)
                replaced = (meta.files if meta else None) or []
                files = unpack_archive(data, self.config.install_root)
                stale = set(replaced).difference(files)
                if stale:
                    self._unlink(sorted(stale))
                if pkg not in cached:
                    self.db.archive_put(key, data)
                self.db.record_install(
                    pkg,
                    version,
                    explicit.get(pkg, False),
                    plan.dependencies.get(pkg, ()),
                    files,
                )
        finally:
            if uncached:
                self.transport.close()

    def _unlink(self, files: list[str]) -> None:
        """Delete installed files, pruning the directories they empty."""
        root = self.config.install_root.resolve()
        for rel in files:
            path = self.config.install_root.joinpath(rel)
            path.unlink(missing_ok=True)
            prune_empty_dirs(path.parent.resolve(), root)
