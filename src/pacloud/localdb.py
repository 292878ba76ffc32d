"""Flat-file client database mirroring the category/package tree.

Layout under the database root:

    <root>/<category>/<name>/metadata.json
    <root>/<category>/<name>/archives/<key.path_token()>.tar

Metadata documents are JSON, UTF-8, written in a canonical form (sorted
keys, two-space indent, trailing newline) so that identical logical state
is always byte-identical on disk. Local-only fields (installed, explicit,
depends, required_by, files) are preserved across syncs; the remote store
wins for description and versions.

Install state is kept as edges in both directions. ``depends`` lists an
installed package's resolved runtime dependencies and is present only
while the package is installed, like ``files``; ``required_by`` is its
inverse, and ``LocalDb._set_depends`` changes both. Installing or removing
a package therefore reads and writes only the package and its old and new
dependencies, whatever the database size, and
``resolver.compute_orphans`` walks ``depends`` from the packages being
removed, reading only the documents it walks. ``record_removal`` takes
the whole removal set, so a client removal reads each document once
outside the write lock and once under it, and writes it once. The client
unlinks every package's files first: a crash before the removals are
recorded leaves the packages recorded as installed, and running
``pacloud -r`` again finishes the job. ``search`` reads only the
documents whose directory names match.

The remote store is reached through the PackageStore interface: a
``manifest.txt`` of category names at the root, one ``<category>.json``
document per category mapping package name to metadata, and artifact
blobs addressed by ``store://`` URLs (``wire.artifact_url``).
"""
from __future__ import annotations

import fcntl
import functools
import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Protocol

from .core import BuildKey, PackageId, Version, is_category, parse_version
from .errors import (
    MalformedCategoryDocument,
    MalformedManifest,
    MalformedPackageId,
    MalformedVersion,
    NotInstalled,
    ProtocolError,
    StoreUnreachable,
    UnknownPackage,
    UnknownVersion,
)
from .files import rewrite_text
from .wire import ARTIFACT_DIR, artifact_key

METADATA_FILE = "metadata.json"
MANIFEST_FILE = "manifest.txt"
ARCHIVE_DIR = "archives"
LOCK_FILE = ".lock"


@dataclass(frozen=True)
class VersionInfo:
    """Per-version payload of a metadata document: runtime dependency strings."""

    dependencies: tuple[str, ...] = ()


@dataclass
class PackageMetadata:
    """One package's metadata document plus its local install state."""

    name: PackageId
    description: str
    versions: dict[str, VersionInfo]
    installed: str | None = None
    explicit: bool = False
    required_by: list[PackageId] = field(default_factory=list)
    files: list[str] | None = None
    depends: list[PackageId] | None = None

    def __post_init__(self):
        if self.installed is not None and self.installed not in self.versions:
            raise MalformedCategoryDocument(
                f"{self.name}: installed version {self.installed!r} "
                f"is not a known version"
            )
        rendered = [p.render() for p in self.required_by]
        if len(set(rendered)) != len(rendered):
            raise MalformedCategoryDocument(
                f"{self.name}: duplicate required_by entries"
            )

    def installed_version(self) -> Version | None:
        return parse_version(self.installed) if self.installed else None

    def known_versions(self) -> list[Version]:
        return sorted(
            (parse_version(v) for v in self.versions), key=Version.sort_key
        )

    def to_document(self) -> dict:
        doc = {
            "name": self.name.render(),
            "description": self.description,
            "versions": {
                v: {"dependencies": list(info.dependencies)}
                for v, info in self.versions.items()
            },
            "required_by": sorted(p.render() for p in self.required_by),
        }
        if self.installed is not None:
            doc["installed"] = self.installed
            doc["explicit"] = self.explicit
            doc["files"] = list(self.files or [])
            if self.depends is not None:
                doc["depends"] = sorted(p.render() for p in self.depends)
        return doc

    @classmethod
    def from_document(cls, doc: object) -> "PackageMetadata":
        try:
            if not isinstance(doc, dict):
                raise TypeError("document is not an object")
            name = PackageId.parse(doc["name"])
            versions = {}
            for rendered, info in doc["versions"].items():
                parse_version(rendered)
                deps = info.get("dependencies", [])
                if not all(isinstance(d, str) for d in deps):
                    raise TypeError("dependencies must be strings")
                versions[rendered] = VersionInfo(tuple(deps))
            required_by = [
                PackageId.parse(p) for p in doc.get("required_by", [])
            ]
            installed = doc.get("installed")
            files = doc.get("files")
            depends = doc.get("depends")
            return cls(
                name=name,
                description=str(doc.get("description", "")),
                versions=versions,
                installed=installed,
                explicit=bool(doc.get("explicit", False)),
                required_by=required_by,
                files=list(files) if files is not None else None,
                depends=(
                    [PackageId.parse(p) for p in depends]
                    if depends is not None else None
                ),
            )
        except (KeyError, TypeError, AttributeError, MalformedPackageId,
                MalformedVersion) as exc:
            raise MalformedCategoryDocument(f"bad metadata document: {exc}") from exc

    def stripped_remote(self) -> "PackageMetadata":
        """A copy without local-only fields, as published by the store."""
        return PackageMetadata(
            name=self.name,
            description=self.description,
            versions=dict(self.versions),
        )


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _read_metadata(path: Path) -> PackageMetadata:
    return PackageMetadata.from_document(
        json.loads(path.read_text(encoding="utf-8"))
    )


@dataclass(frozen=True)
class SearchResult:
    package: PackageId
    versions: tuple[Version, ...]
    installed: Version | None
    description: str


@dataclass
class SyncReport:
    categories_synced: int = 0
    packages_added: int = 0
    packages_updated: int = 0
    packages_unchanged: int = 0
    skipped_categories: list[tuple[str, str]] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"categories: {self.categories_synced}",
            f"packages added: {self.packages_added}",
            f"packages updated: {self.packages_updated}",
            f"packages unchanged: {self.packages_unchanged}",
        ]
        for category, reason in self.skipped_categories:
            lines.append(f"skipped {category}: {reason}")
        return "\n".join(lines)


class PackageStore(Protocol):
    """Read access to the remote package store."""

    def fetch_manifest(self) -> str: ...

    def fetch_category(self, category: str) -> str: ...

    def fetch_artifact(self, url: str) -> bytes: ...


class DirectoryStore:
    """A PackageStore backed by a plain directory tree.

    The directory holds ``manifest.txt``, one ``<category>.json`` per
    category and artifact tars under ``artifacts/``, each named by its
    build key's ``path_token``.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def fetch_manifest(self) -> str:
        try:
            return (self.root / MANIFEST_FILE).read_text(encoding="utf-8")
        except OSError as exc:
            raise StoreUnreachable(f"cannot fetch manifest: {exc}") from exc

    def fetch_category(self, category: str) -> str:
        try:
            return (self.root / f"{category}.json").read_text(encoding="utf-8")
        except OSError as exc:
            raise StoreUnreachable(
                f"cannot fetch category {category}: {exc}"
            ) from exc

    def fetch_artifact(self, url: str) -> bytes:
        try:
            token = artifact_key(url).path_token()
            return (self.root / ARTIFACT_DIR / f"{token}.tar").read_bytes()
        except (ProtocolError, OSError) as exc:
            raise StoreUnreachable(f"cannot fetch artifact {url}: {exc}") from exc


def parse_manifest(text: str) -> list[str]:
    """Validate a manifest body: valid category names, no duplicates.

    Each name becomes a path under the store, so a name the category rule
    rejects (``..``, ``a/b``) fails the whole manifest before any fetch.
    """
    lines = text.splitlines()
    categories: list[str] = []
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            raise MalformedManifest(f"blank line {i} in manifest")
        if not is_category(line):
            raise MalformedManifest(f"bad category {line!r} on line {i} of manifest")
        if line in categories:
            raise MalformedManifest(f"duplicate category {line!r} in manifest")
        categories.append(line)
    return categories


def parse_category_document(category: str, text: str) -> dict[str, PackageMetadata]:
    """Decode one category document, validating names against the category."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise MalformedCategoryDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedCategoryDocument("category document must be an object")
    result: dict[str, PackageMetadata] = {}
    for name, meta_doc in doc.items():
        meta = PackageMetadata.from_document(meta_doc)
        if meta.name.category != category or meta.name.name != name:
            raise MalformedCategoryDocument(
                f"entry {name!r} names package {meta.name}, expected "
                f"{category}/{name}"
            )
        result[name] = meta
    return result


def write_store(root: str | Path, packages: Iterable[PackageMetadata]) -> None:
    """Publish package metadata as a store directory (manifest + categories)."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    by_category: dict[str, dict[str, dict]] = {}
    for meta in packages:
        doc = meta.stripped_remote().to_document()
        doc.pop("required_by", None)
        by_category.setdefault(meta.name.category, {})[meta.name.name] = doc
    manifest = "".join(f"{c}\n" for c in sorted(by_category))
    (root / MANIFEST_FILE).write_text(manifest, encoding="utf-8")
    for category, doc in by_category.items():
        (root / f"{category}.json").write_text(
            dump_document(doc), encoding="utf-8"
        )


class LocalDb:
    """The client's flat-file package database.

    Writes are serialized through an advisory lock file at the root;
    readers do not take the lock.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # --- paths ---

    def package_dir(self, package: PackageId) -> Path:
        return self.root / package.category / package.name

    def metadata_path(self, package: PackageId) -> Path:
        return self.package_dir(package) / METADATA_FILE

    def archive_path(self, key: BuildKey) -> Path:
        return (
            self.package_dir(key.package)
            / ARCHIVE_DIR
            / f"{key.path_token()}.tar"
        )

    @contextmanager
    def write_lock(self) -> Iterator[None]:
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / LOCK_FILE, "w") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    # --- reading ---

    def get_metadata(self, package: PackageId) -> PackageMetadata | None:
        path = self.metadata_path(package)
        if not path.is_file():
            return None
        return _read_metadata(path)

    def _metadata_paths(self, needle: str = "") -> list[Path]:
        """Document paths of the packages whose ``category/name`` contains
        ``needle`` (case-insensitive), in canonical string order.

        Only directory names are compared, so no document is opened.
        """
        if not self.root.is_dir():
            return []
        needle = needle.lower()
        found: list[tuple[str, str]] = []
        with os.scandir(self.root) as categories:
            for category in categories:
                if not category.is_dir():
                    continue
                with os.scandir(category.path) as names:
                    for entry in names:
                        canonical = f"{category.name}/{entry.name}"
                        if needle not in canonical.lower():
                            continue
                        path = os.path.join(entry.path, METADATA_FILE)
                        if os.path.isfile(path):
                            found.append((canonical, path))
        # canonical order is over "category/name", which is not the same
        # as directory order once '-' meets '/'
        return [Path(path) for _, path in sorted(found)]

    def iter_packages(self) -> Iterator[PackageMetadata]:
        """All packages, in canonical (category/name) string order."""
        for path in self._metadata_paths():
            yield _read_metadata(path)

    def search(self, key: str) -> list[SearchResult]:
        """Case-insensitive substring match against category/name.

        Matching compares directory names; only the matching packages'
        documents are read.
        """
        results = []
        for path in self._metadata_paths(key):
            meta = _read_metadata(path)
            results.append(
                SearchResult(
                    package=meta.name,
                    versions=tuple(meta.known_versions()),
                    installed=meta.installed_version(),
                    description=meta.description,
                )
            )
        return results

    # --- sync ---

    def sync(self, store: PackageStore) -> SyncReport:
        """Fetch the manifest and every category document, then merge.

        Everything is fetched before anything is written, so a store
        failure leaves the database untouched. A malformed category is
        skipped and recorded in the report rather than aborting the sync.
        """
        report = SyncReport()
        categories = parse_manifest(store.fetch_manifest())
        fetched: list[tuple[str, dict[str, PackageMetadata]]] = []
        for category in categories:
            text = store.fetch_category(category)
            try:
                fetched.append((category, parse_category_document(category, text)))
            except MalformedCategoryDocument as exc:
                report.skipped_categories.append((category, str(exc)))
        with self.write_lock():
            for category, packages in fetched:
                report.categories_synced += 1
                for meta in packages.values():
                    self._merge_remote(meta, report)
        return report

    def _merge_remote(self, remote: PackageMetadata, report: SyncReport) -> None:
        path = self.metadata_path(remote.name)
        local = self.get_metadata(remote.name)
        if local is None:
            merged = remote
        else:
            versions = dict(remote.versions)
            if local.installed is not None and local.installed not in versions:
                # The installed version vanished upstream; keep its entry so
                # the install state stays self-consistent.
                versions[local.installed] = local.versions[local.installed]
            merged = PackageMetadata(
                name=remote.name,
                description=remote.description,
                versions=versions,
                installed=local.installed,
                explicit=local.explicit,
                required_by=local.required_by,
                files=local.files,
                depends=local.depends,
            )
        text = dump_document(merged.to_document())
        if local is None:
            report.packages_added += 1
        elif path.read_text(encoding="utf-8") == text:
            report.packages_unchanged += 1
            return
        else:
            report.packages_updated += 1
        path.parent.mkdir(parents=True, exist_ok=True)
        rewrite_text(path, text)

    # --- install state ---

    def _write_metadata(self, meta: PackageMetadata) -> None:
        path = self.metadata_path(meta.name)
        path.parent.mkdir(parents=True, exist_ok=True)
        rewrite_text(path, dump_document(meta.to_document()))

    def installed_depends(self, meta: PackageMetadata) -> list[PackageId]:
        """An installed package's forward edges: the packages it depends
        on. Empty when the package is not installed."""
        if meta.installed is None:
            return []
        if meta.depends is not None:
            return meta.depends
        # Installed before documents carried ``depends``: rebuild the
        # forward edges from the reverse ones with one scan.
        return [
            other.name
            for other in self.iter_packages()
            if meta.name in other.required_by
        ]

    def record_install(
        self,
        package: PackageId,
        version: Version,
        explicit: bool,
        resolved_deps: Iterable[PackageId],
        files: Iterable[str],
    ) -> None:
        """Mark a package installed and register it with its dependencies.

        Idempotent: required_by lists end up reflecting exactly this
        install's dependency list, so re-recording (or recording an
        upgrade whose dependencies changed) leaves no stale reverse
        dependencies behind. Only the package, its new dependencies and
        the ones its previous install recorded are read or written.
        """
        deps = list(dict.fromkeys(resolved_deps))
        with self.write_lock():
            get = functools.cache(self.get_metadata)
            meta = get(package)
            if meta is None:
                raise UnknownPackage(f"no metadata for {package}")
            rendered = version.render()
            if rendered not in meta.versions:
                raise UnknownVersion(f"{package} has no version {rendered}")
            changed = self._set_depends(meta, deps, get)
            meta.installed = rendered
            meta.explicit = explicit
            meta.files = sorted(files)
            for other in changed.values():
                self._write_metadata(other)

    def record_removal(self, *packages: PackageId) -> None:
        """Clear the packages' install state and drop each from its
        dependencies' required_by lists. Nothing is written unless every
        package is installed."""
        with self.write_lock():
            get = functools.cache(self.get_metadata)
            for package in packages:
                meta = get(package)
                if meta is None or meta.installed is None:
                    raise NotInstalled(f"{package} is not installed")
            changed = {}
            for package in packages:
                meta = get(package)
                changed.update(self._set_depends(meta, None, get))
                meta.installed = None
                meta.explicit = False
                meta.files = None
            for other in changed.values():
                self._write_metadata(other)

    def _set_depends(
        self, meta: PackageMetadata, deps: list[PackageId] | None, get
    ) -> dict[PackageId, PackageMetadata]:
        """Set ``meta.depends`` and move its package from the required_by
        lists of its old dependencies to those of the new ones; return the
        documents to write, ``meta`` first. ``get`` is a cached
        ``get_metadata``: each document is read once per cache, and the
        changes of several calls accumulate in the same objects."""
        package, new = meta.name, deps or []
        changed = {package: meta}
        for dep in self.installed_depends(meta):
            other = get(dep)
            if dep not in new and other and package in other.required_by:
                other.required_by.remove(package)
                changed[dep] = other
        for dep in new:
            if (other := get(dep)) is None:
                raise UnknownPackage(f"no metadata for dependency {dep}")
            if package not in other.required_by:
                other.required_by.append(package)
                changed[dep] = other
        meta.depends = deps
        return changed

    # --- archive cache ---

    def archive_get(self, key: BuildKey) -> bytes | None:
        path = self.archive_path(key)
        return path.read_bytes() if path.is_file() else None

    def archive_put(self, key: BuildKey, data: bytes) -> None:
        path = self.archive_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)

    def remove_cached_archives(self, package: PackageId) -> None:
        archive_dir = self.package_dir(package) / ARCHIVE_DIR
        if archive_dir.is_dir():
            shutil.rmtree(archive_dir)

    # --- integrity ---

    def validate(self) -> list[str]:
        """Full-tree scan of document and referential invariants."""
        from . import depparse  # local import: depparse depends on this module

        problems: list[str] = []
        metas = {meta.name: meta for meta in self.iter_packages()}
        for meta in metas.values():
            if meta.installed is not None:
                if meta.files is None:
                    problems.append(f"{meta.name}: installed but no files list")
            else:
                if meta.files is not None:
                    problems.append(f"{meta.name}: files present but not installed")
                if meta.depends is not None:
                    problems.append(f"{meta.name}: depends present but not installed")
            for rendered, info in meta.versions.items():
                for dep in info.dependencies:
                    try:
                        depparse.parse_dep_string(dep)
                    except Exception as exc:
                        problems.append(
                            f"{meta.name}-{rendered}: bad dependency "
                            f"{dep!r}: {exc}"
                        )
        for meta in metas.values():
            for dep in meta.depends or []:
                dep_meta = metas.get(dep)
                if dep_meta is None or meta.name not in dep_meta.required_by:
                    problems.append(
                        f"{meta.name}: depends on {dep} whose required_by "
                        f"does not list it"
                    )
            for requirer in meta.required_by:
                requirer_meta = metas.get(requirer)
                if requirer_meta is None or requirer_meta.installed is None:
                    problems.append(
                        f"{meta.name}: required_by {requirer} which is "
                        f"not installed"
                    )
                # A requirer installed before documents carried ``depends``
                # has no forward edges to compare against.
                elif (requirer_meta.depends is not None
                      and meta.name not in requirer_meta.depends):
                    problems.append(
                        f"{meta.name}: required_by {requirer} whose depends "
                        f"does not list it"
                    )
        return problems
