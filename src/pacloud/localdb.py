"""Flat-file client database: the store's category documents beside each
package's local state, as Portage keeps its repository metadata apart
from its installed-package database.

    <root>/.lock                                  the write lock
    <root>/store/<category>.json                  category documents
    <root>/local/<category>/<name>/metadata.json  a package's local state
    <root>/local/<category>/<name>/<token>.tar    cached archives, each
                                                  named by wire.artifact_file

``sync`` keeps each valid category document whole: one file per category,
whatever the package count. A package's own document holds only its
install state (``PackageMetadata.local_document``) and exists exactly
while the package is installed. It is canonical JSON (``dump_document``),
so an install followed by the removal that undoes it restores the tree
byte for byte. ``get_metadata`` joins two halves, each parsed on its own:
the store half, the package's category entry, and the install half, that
document. The store wins for the description and the versions; the
install half keeps the installed version's entry, and a package with one
half only reads as that half. One function, ``_store_entry``, reads a
store entry for ``sync``, ``get_metadata`` and ``validate``: it refuses an
entry that names another package than its key or holds a field
``to_document`` does not write.

A ``LocalDb`` parses each unchanged input once. A category document and
a local document are each read on every call and parsed again only when
their bytes differ from those last parsed (``_parsed``). A stat stamp
would not do: ``rewrite_text`` keeps the inode, and an mtime tick is
coarse, so a same-size rewrite by another ``LocalDb`` could leave the
stamp as it was. Each entry of a category document is parsed once per
decoded document, kept beside it so that both go stale together.
Readers share the parsed ``PackageMetadata``, which is frozen.

Versions are parsed where a document is read (``from_document``): a
package's metadata keys each version by its ``Version``, and ``installed``
is one, so a version is text only in the documents. A lone non-canonical
spelling (``1.0-r0``) reads as its version; two spellings of one version
in a document are refused.

Each install edge is stored once, as Portage's ``/var/db/pkg`` stores it:
in the dependent's ``depends``. An install writes only its package's
document and a removal only deletes documents. Who requires a package is
found by inverting ``depends`` over ``installed_packages``, which reads
every installed package's document once. A document that does not decode,
or decodes in the wrong shape, raises ``MalformedCategoryDocument`` naming
the file: each half is parsed where it is read, so every reader refuses a
damaged document alike. A database of the earlier layout, a whole
``<root>/<category>/<name>/metadata.json`` per package, is refused when
opened, before anything is read or written.

The remote store is reached through the PackageStore interface: a
``manifest.txt`` of category names at the root, one ``<category>.json``
document per category mapping package name to metadata, and artifact
blobs under ``artifacts/``, each named by its build key
(``wire.artifact_file``).
"""
from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, TypeVar

from .core import BuildKey, PackageId, Version, is_category, parse_version
from .depparse import parse_dep_string
from .errors import (
    DatabaseLayoutError,
    MalformedCategoryDocument,
    MalformedManifest,
    MalformedPackageId,
    MalformedVersion,
    NotInstalled,
    StoreUnreachable,
    UnknownPackage,
    UnknownVersion,
)
from .files import from_json, prune_empty_dirs, rewrite_text
from .wire import ARTIFACT_DIR, ARTIFACT_SUFFIX, artifact_file

METADATA_FILE = "metadata.json"
MANIFEST_FILE = "manifest.txt"
LOCK_FILE = ".lock"
STORE_DIR = "store"
LOCAL_DIR = "local"


def _strings(value: object, field: str) -> list[str]:
    """``value`` if it is a list of strings; a string is not one."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{field} must be a list of strings")
    return value


@dataclass(frozen=True)
class PackageMetadata:
    """One package's metadata document plus its local install state:
    ``versions`` maps each known version to its dependency strings.

    Frozen, because ``LocalDb`` hands the same object to every reader of an
    unchanged document; its dict and lists are shared too, not to change.
    """

    name: PackageId
    description: str
    versions: dict[Version, tuple[str, ...]]
    installed: Version | None = None
    explicit: bool = False
    files: list[str] | None = None
    depends: list[PackageId] | None = None

    def __post_init__(self):
        if self.installed is not None and self.installed not in self.versions:
            raise MalformedCategoryDocument(
                f"{self.name}: installed version {self.installed} "
                f"is not a known version"
            )

    def known_versions(self) -> list[Version]:
        return sorted(self.versions, key=Version.sort_key)

    def to_document(self) -> dict:
        """The package's entry in a category document, as a store holds it."""
        return {
            "name": self.name.render(),
            "description": self.description,
            "versions": {
                v.render(): {"dependencies": list(deps)}
                for v, deps in self.versions.items()
            },
        }

    def local_document(self) -> dict | None:
        """The package's own document, None unless it is installed: the
        install record, with the installed version's entry in case the
        store drops it."""
        if self.installed is None:
            return None
        deps = list(self.versions[self.installed])
        return {
            "installed": self.installed.render(),
            "explicit": self.explicit,
            "files": list(self.files or []),
            "depends": sorted(p.render() for p in self.depends or []),
            "versions": {self.installed.render(): {"dependencies": deps}},
        }

    @classmethod
    def from_document(cls, doc: object) -> "PackageMetadata":
        """A store entry or an install record, each version parsed here: a
        lone non-canonical spelling (``1.0-r0``, ``01.5``) reads as its
        version, and two spellings of one version are refused."""
        try:
            if not isinstance(doc, dict):
                raise TypeError("document is not an object")
            name = PackageId.parse(doc["name"])
            versions: dict[Version, tuple[str, ...]] = {}
            for text, info in doc["versions"].items():
                version = parse_version(text)
                if version in versions:
                    raise MalformedVersion(f"two keys spell version {version}")
                deps = _strings(info.get("dependencies", []), "dependencies")
                versions[version] = tuple(deps)
            installed, files = doc.get("installed"), doc.get("files")
            depends = doc.get("depends")
            description = doc.get("description", "")
            explicit = doc.get("explicit", False)
            if not isinstance(description, str) or not isinstance(explicit, bool):
                raise TypeError("description must be a string, explicit a bool")
            return cls(
                name=name,
                description=description,
                versions=versions,
                installed=None if installed is None else parse_version(installed),
                explicit=explicit,
                files=None if files is None else list(_strings(files, "files")),
                depends=None if depends is None else [
                    *map(PackageId.parse, _strings(depends, "depends"))
                ],
            )
        except (KeyError, TypeError, AttributeError, MalformedPackageId,
                MalformedVersion) as exc:
            raise MalformedCategoryDocument(f"bad metadata document: {exc}") from exc


def dump_document(doc: dict) -> str:
    """``doc`` in canonical form: sorted keys, no whitespace, one line."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _decode_object(text: str | bytes, source: str) -> dict:
    try:
        doc = from_json(text)
    except ValueError as exc:
        raise MalformedCategoryDocument(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedCategoryDocument(f"{source}: not a JSON object")
    return doc


def _read_file(path: Path) -> bytes | None:
    """The bytes stored at ``path``; None when there is no file."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


T = TypeVar("T")


def _parsed(
    memo: dict, key: object, path: Path, parse: Callable[[bytes], T]
) -> T | None:
    """``parse`` of the bytes stored at ``path``, None when there is no
    file. The file is read on every call and parsed again only when its
    bytes differ from those ``memo`` keeps under ``key``; the memo keeps
    the bytes and the parse."""
    data = _read_file(path)
    if data is None:
        memo.pop(key, None)
        return None
    cached = memo.get(key)
    if cached is None or cached[0] != data:
        cached = memo[key] = (data, parse(data))
    return cached[1]


def _parse(path: Path, read: Callable[..., PackageMetadata], *args) -> PackageMetadata:
    """``read(*args)``, a package's metadata read from ``path``; an error
    names the file."""
    try:
        return read(*args)
    except MalformedCategoryDocument as exc:
        raise MalformedCategoryDocument(f"{path}: {exc}") from exc


# The fields of a store entry: those ``PackageMetadata.to_document`` writes.
STORE_FIELDS = frozenset({"description", "name", "versions"})


def _store_entry(category: str, name: str, entry: object) -> PackageMetadata:
    """Entry ``name`` of ``category``'s document: the store half of
    ``category/name``. The one reader of store entries, for ``sync``,
    ``get_metadata`` and ``validate``: the entry must name that package and
    hold no field but those ``to_document`` writes."""
    meta = PackageMetadata.from_document(entry)  # so entry is an object
    if not entry.keys() <= STORE_FIELDS or meta.name.render() != f"{category}/{name}":
        raise MalformedCategoryDocument(
            f"entry {name!r} names {meta.name} and holds {', '.join(sorted(entry))}"
            f"; it must name {category}/{name} and hold only "
            f"{', '.join(sorted(STORE_FIELDS))}"
        )
    return meta


def _listdir(path: Path) -> list[str]:
    try:
        return os.listdir(path)
    except FileNotFoundError:
        return []


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

    def fetch_artifact(self, key: BuildKey) -> bytes: ...


class DirectoryStore:
    """A PackageStore backed by a plain directory tree.

    The directory holds ``manifest.txt``, one ``<category>.json`` per
    category and artifact tars under ``artifacts/``, each named by
    ``wire.artifact_file``.
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

    def fetch_artifact(self, key: BuildKey) -> bytes:
        try:
            return (self.root / ARTIFACT_DIR / artifact_file(key)).read_bytes()
        except OSError as exc:
            raise StoreUnreachable(f"cannot fetch artifact {key}: {exc}") from exc


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


def write_store(root: str | Path, packages: Iterable[PackageMetadata]) -> None:
    """Publish package metadata as a store directory (manifest + categories)."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    by_category: dict[str, dict[str, dict]] = {}
    for meta in packages:
        category = by_category.setdefault(meta.name.category, {})
        category[meta.name.name] = meta.to_document()
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
        self.store_dir = self.root / STORE_DIR
        self.local_dir = self.root / LOCAL_DIR
        # category -> (bytes of its document, (the decoded document, the
        # entries parsed from it so far, by package name))
        self._categories: dict[
            str, tuple[bytes, tuple[dict, dict[str, PackageMetadata]]]
        ] = {}
        # package -> (bytes of its local document, the metadata parsed
        # from them)
        self._local: dict[PackageId, tuple[bytes, PackageMetadata]] = {}
        for path in self.root.glob(f"*/*/{METADATA_FILE}"):
            if path.is_file():
                raise DatabaseLayoutError(
                    f"{path}: a database of an earlier layout, left unread; move"
                    f" {self.root} aside, run `pacloud -u` and install again the"
                    f" packages its documents mark \"explicit\": true"
                )

    # --- paths ---

    # One f-string per path: a category and a name hold no "/", and three
    # pathlib joins cost about three times one Path made from a string.

    def package_dir(self, package: PackageId) -> Path:
        return Path(f"{self.local_dir}/{package.category}/{package.name}")

    def metadata_path(self, package: PackageId) -> Path:
        return Path(
            f"{self.local_dir}/{package.category}/{package.name}/{METADATA_FILE}"
        )

    def category_path(self, category: str) -> Path:
        return self.store_dir / f"{category}.json"

    def archive_path(self, key: BuildKey) -> Path:
        return self.package_dir(key.package) / artifact_file(key)

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

    def _category_entries(
        self, category: str
    ) -> tuple[dict, dict[str, PackageMetadata]]:
        """The decoded category document, {} if none, and the entries
        parsed from it so far; both shared, not to change. Both are kept
        until the file's bytes change (see the module docstring)."""
        path = self.category_path(category)
        entries = _parsed(self._categories, category, path,
                          lambda data: (_decode_object(data, str(path)), {}))
        return entries or ({}, {})

    def _category(self, category: str) -> dict:
        """The decoded category document, {} if none; shared, not to change."""
        return self._category_entries(category)[0]

    def _store_metadata(self, category: str, name: str) -> PackageMetadata | None:
        """The store half of ``category/name``, its category entry, parsed
        once per decoded document; None if the document has no such entry."""
        doc, parsed = self._category_entries(category)
        meta = parsed.get(name)
        if meta is None and name in doc:
            meta = parsed[name] = _parse(self.category_path(category),
                                         _store_entry, category, name, doc[name])
        return meta

    def get_metadata(self, package: PackageId) -> PackageMetadata | None:
        """The package's store half, its category entry, joined with its
        install half, ``_local_metadata``: the store's description and
        versions, and nothing else of the entry, over the install record,
        which keeps the installed version's entry in case the store drops
        it. A package with one half only reads as that half; None if it has
        neither."""
        store = self._store_metadata(package.category, package.name)
        local = self._local_metadata(package)
        if store is None or local is None:
            return store or local
        return replace(local, description=store.description,
                       versions={**local.versions, **store.versions})

    def _local_names(self) -> list[str]:
        """``category/name`` of each package directory under ``local/``, in
        canonical string order: the installed packages, and any package
        whose cached archives alone remain."""
        return sorted(
            f"{category}/{name}"
            for category in _listdir(self.local_dir)
            for name in _listdir(self.local_dir / category)
        )

    def _local_metadata(self, package: PackageId) -> PackageMetadata | None:
        """The package's local document alone, None if it has none. The
        file is read every time and parsed only when its bytes differ from
        those last parsed (see the module docstring)."""
        path = self.metadata_path(package)
        return _parsed(self._local, package, path, lambda data: _parse(
            path, PackageMetadata.from_document,
            {"versions": {}, **_decode_object(data, str(path)),
             "name": package.render()}))

    def installed_packages(self) -> dict[PackageId, PackageMetadata]:
        """Every installed package, in canonical string order, read from
        its local document alone: one read per installed package, whatever
        the store holds. Inverting their ``depends`` gives each package's
        requirers."""
        metas = map(self._local_metadata, map(PackageId.parse, self._local_names()))
        return {m.name: m for m in metas if m is not None and m.installed is not None}

    def _packages(self, needle: str = "") -> Iterator[PackageMetadata]:
        """The packages whose ``category/name`` contains ``needle``
        (case-insensitive), in canonical string order."""
        names = set(self._local_names())
        for file in _listdir(self.store_dir):
            category = file.removesuffix(".json")
            names.update(f"{category}/{name}" for name in self._category(category))
        needle = needle.lower()
        for name in sorted(name for name in names if needle in name.lower()):
            meta = self.get_metadata(PackageId.parse(name))
            if meta is not None:  # not a directory of archives alone
                yield meta

    def iter_packages(self) -> Iterator[PackageMetadata]:
        """All packages, in canonical (category/name) string order."""
        return self._packages()

    def search(self, key: str) -> list[SearchResult]:
        """Case-insensitive substring match against category/name; only
        the matching packages are read."""
        return [
            SearchResult(meta.name, tuple(meta.known_versions()),
                         meta.installed, meta.description)
            for meta in self._packages(key)
        ]

    # --- sync ---

    def sync(self, store: PackageStore) -> SyncReport:
        """Fetch the manifest and every category document, then keep each
        valid one whole and drop the categories no longer listed.

        Everything is fetched before anything is written, so a store
        failure leaves the database untouched. A malformed category is
        skipped, keeping what the last sync stored, and reported.
        """
        report = SyncReport()
        categories = parse_manifest(store.fetch_manifest())
        valid: list[tuple[str, str, dict]] = []
        for category in categories:
            text = store.fetch_category(category)
            try:
                doc = _decode_object(text, f"category {category}")
                for name, entry in doc.items():
                    _store_entry(category, name, entry)
                valid.append((category, text, doc))
            except MalformedCategoryDocument as exc:
                report.skipped_categories.append((category, str(exc)))
        with self.write_lock():
            self.store_dir.mkdir(exist_ok=True)
            for category, text, doc in valid:
                report.categories_synced += 1
                try:
                    old = self._category(category)
                except MalformedCategoryDocument:
                    old = None  # a damaged copy is replaced whole
                for name, entry in doc.items():
                    if name not in (old or {}):
                        report.packages_added += 1
                    elif old[name] == entry:
                        report.packages_unchanged += 1
                    else:
                        report.packages_updated += 1
                if doc != old:
                    rewrite_text(self.category_path(category), text)
            for file in _listdir(self.store_dir):
                if file.removesuffix(".json") not in categories:
                    (self.store_dir / file).unlink()
        return report

    # --- install state ---

    def record_install(
        self,
        package: PackageId,
        version: Version,
        explicit: bool,
        resolved_deps: Iterable[PackageId],
        files: Iterable[str],
    ) -> None:
        """Mark a package installed over its resolved runtime dependencies.

        Writes the package's own document and nothing else, so recording
        it again, or recording another version, replaces whatever it
        recorded before. Nothing is written unless the package, the
        version and every dependency are known.
        """
        deps = list(dict.fromkeys(resolved_deps))
        with self.write_lock():
            meta = self.get_metadata(package)
            if meta is None:
                raise UnknownPackage(f"no metadata for {package}")
            if version not in meta.versions:
                raise UnknownVersion(f"{package} has no version {version}")
            for dep in deps:
                if (dep.name not in self._category(dep.category)
                        and not self.metadata_path(dep).is_file()):
                    raise UnknownPackage(f"no metadata for dependency {dep}")
            meta = replace(meta, installed=version, explicit=explicit,
                           depends=deps, files=sorted(files))
            path = self.metadata_path(package)
            path.parent.mkdir(parents=True, exist_ok=True)
            rewrite_text(path, dump_document(meta.local_document()))

    def record_removal(self, *packages: PackageId) -> None:
        """Delete the packages' documents, in reverse of the order given,
        pruning the directories that empties. Nothing is deleted unless
        every package is installed.

        ``compute_orphans`` lists dependents first, so the roots go last: a
        crash part way leaves the roots recorded. Where the removal has one
        root and no dependency cycle, the same removal run again finishes
        the job.
        """
        with self.write_lock():
            for package in packages:
                meta = self._local_metadata(package)
                if meta is None or meta.installed is None:
                    raise NotInstalled(f"{package} is not installed")
            for package in reversed(packages):
                path = self.metadata_path(package)
                path.unlink(missing_ok=True)
                prune_empty_dirs(path.parent, self.root)

    # --- archive cache ---

    def archive_get(self, key: BuildKey) -> bytes | None:
        path = self.archive_path(key)
        return path.read_bytes() if path.is_file() else None

    def archive_put(self, key: BuildKey, data: bytes) -> None:
        path = self.archive_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)

    def remove_cached_archives(self, package: PackageId) -> None:
        directory = self.package_dir(package)
        for archive in directory.glob(f"*{ARTIFACT_SUFFIX}"):
            archive.unlink()
        prune_empty_dirs(directory, self.root)

    # --- integrity ---

    def validate(self) -> list[str]:
        """Full scan of every category document and every local document.
        A document that does not decode is reported, naming its file, and
        the scan goes on."""
        problems: list[str] = []
        metas: list[PackageMetadata] = []
        for file in sorted(_listdir(self.store_dir)):
            category = file.removesuffix(".json")
            try:
                names = list(self._category(category))
            except MalformedCategoryDocument as exc:  # it names the file
                problems.append(str(exc))
                continue
            for name in names:
                try:
                    metas.append(self._store_metadata(category, name))
                except MalformedCategoryDocument as exc:
                    problems.append(str(exc))
        for name in self._local_names():
            try:
                meta = self._local_metadata(PackageId.parse(name))
            except MalformedCategoryDocument as exc:
                problems.append(str(exc))
                continue
            if meta is None:
                continue
            if meta.installed is None:
                problems.append(f"{name}: local document holds no install state")
            elif meta.files is None:
                problems.append(f"{name}: installed but no files list")
            metas.append(meta)
        for meta in metas:
            for version, deps in meta.versions.items():
                for dep in deps:
                    try:
                        parse_dep_string(dep)
                    except Exception as exc:
                        problems.append(
                            f"{meta.name}-{version}: bad dependency "
                            f"{dep!r}: {exc}"
                        )
        # An installed version's entry is in the store and in its local
        # document alike: report a bad one once.
        return list(dict.fromkeys(problems))
