"""The build-record table and the artifact blob store.

Both are first-write-wins: a record moves from pending to exactly one
terminal state, and an artifact's first upload is the one that is kept.
That makes double compilation harmless: a duplicate terminal write or
upload is simply ignored.

When given a directory, both write through to files. Records go to one
append-only journal, ``records.jsonl`` (a ``pacloud.files.Journal``):
each ``create_pending`` and each first finalize appends the record's
document, and a reload keeps the last line of each key. A key has at most
two lines, so the journal needs no compaction. A line that is not a
document the store writes raises ``FarmStateError``, and so does a key
that is not the canonical string of a ``BuildKey``. A built record holds
no URL, since a client reads its artifact by key; the ``artifact_url`` of
lines written by earlier versions is ignored. Each artifact is the
file ``wire.artifact_file(key)``, a name that decodes back to the key, so the
directory is the index. Opening either store writes nothing. An artifact
may be handed over as a function that builds its bytes: on disk it is
called when the tar is written, in memory on the first read.

Neither store takes a lock: each is a single-owner object, called on the
thread that owns its farm or under ``BuildFarm.lock``. Another thread
reads a served farm's stores only while it holds that lock.

A ``BuildRecord`` is a ``NamedTuple``, as is every value the farm builds
per job or per event: immutable, so a record handed out is never changed
under its reader. A replay builds two records per job, and the store
builds each with the C tuple constructor, ``tuple.__new__(BuildRecord,
(every field, in declaration order))``. The class's own constructor is a
Python-level ``__new__`` that makes the same call: about 350 ns a record
against 220 ns, and a frozen dataclass, which sets each field through
``object.__setattr__``, about 1.1 us (CPython 3.11, ``timeit`` on a
shared 2-core machine). Code off the per-job path, ``from_document`` and
the tests, calls ``BuildRecord(...)``. ``PackageMetadata`` stays a
frozen dataclass, because it is built once per parse.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from ..core import BuildKey
from ..errors import FarmStateError, MalformedBuildKey
from ..files import Journal
from ..wire import artifact_file

PENDING = "pending"
BUILT = "built"
FAILED = "failed"

RECORDS_FILE = "records.jsonl"


class BuildRecord(NamedTuple):
    """Terminal outcome (or pending marker) for one build key."""

    key: str
    status: str
    error_message: str | None = None
    created_at: float = 0.0
    completed_at: float | None = None

    @property
    def terminal(self) -> bool:
        return self.status != PENDING

    def to_document(self) -> dict:
        doc: dict = {
            "key": self.key,
            "status": self.status,
            "created_at": self.created_at,
        }
        if self.error_message is not None:
            doc["error_message"] = self.error_message
        if self.completed_at is not None:
            doc["completed_at"] = self.completed_at
        return doc

    @classmethod
    def from_document(cls, doc: dict) -> "BuildRecord":
        """The record in ``doc``; ValueError unless a store could write it."""
        record = cls(
            key=doc["key"],
            status=doc["status"],
            error_message=doc.get("error_message"),
            created_at=doc.get("created_at", 0.0),
            completed_at=doc.get("completed_at"),
        )
        # a failed record carries its error text and no other does; an
        # unknown status allows no text at all
        text = {PENDING: type(None), BUILT: type(None), FAILED: str}
        times = [record.created_at]
        if record.completed_at is not None:
            times.append(record.completed_at)
        if not (
            isinstance(record.key, str)
            and isinstance(record.error_message, text.get(record.status, ()))
            and all(_is_time(t) for t in times)
        ):
            raise ValueError(f"not a build record: {doc!r}")
        return record


def _is_time(value: object) -> bool:
    """Whether ``value`` is a finite number, as the store writes a time."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    # not NaN, not infinite, and not an int too large for any float
    return abs(value) <= sys.float_info.max


class BuildRecordStore:
    def __init__(self, persist_dir: str | Path | None = None):
        self._records: dict[str, BuildRecord] = {}
        self._pending = 0  # records not yet terminal, kept live for pending_count
        # the keys of the records the journal held pending, in journal order
        self.pending_at_open: list[BuildKey] = []
        self._journal = None
        if persist_dir:
            self._journal = Journal(Path(persist_dir) / RECORDS_FILE)
            self._load()

    def get(self, canonical: str) -> BuildRecord | None:
        return self._records.get(canonical)

    def create_pending(self, canonical: str, now: float) -> bool:
        """Create a pending record; False if any record already exists."""
        if canonical in self._records:
            return False
        record = tuple.__new__(BuildRecord, (canonical, PENDING, None, now, None))
        self._records[canonical] = record
        self._pending += 1
        if self._journal is not None:
            self._save(record)
        return True

    def finalize_built(self, canonical: str, now: float) -> BuildRecord:
        return self._finalize(canonical, BUILT, None, now)

    def finalize_failed(
        self, canonical: str, error: str, now: float
    ) -> BuildRecord:
        return self._finalize(canonical, FAILED, error, now)

    def _finalize(
        self,
        canonical: str,
        status: str,
        error: str | None,
        now: float,
    ) -> BuildRecord:
        record = self._records.get(canonical)
        if record is None:
            created_at = now
        elif record.terminal:
            return record
        else:
            created_at = record.created_at
            self._pending -= 1
        record = tuple.__new__(
            BuildRecord, (canonical, status, error, created_at, now)
        )
        self._records[canonical] = record
        if self._journal is not None:
            self._save(record)
        return record

    def pending_count(self) -> int:
        """How many records are pending; O(1), unlike ``pending_keys``."""
        return self._pending

    def pending_keys(self) -> list[str]:
        return sorted(
            k for k, r in self._records.items() if r.status == PENDING
        )

    def all_records(self) -> list[BuildRecord]:
        return list(self._records.values())

    def close(self) -> None:
        """Close the journal; a later write opens it again."""
        if self._journal is not None:
            self._journal.close()

    def _save(self, record: BuildRecord) -> None:
        self._journal.append(record.to_document())

    def _load(self) -> None:
        assert self._journal is not None
        keys: dict[str, BuildKey] = {}
        for number, doc in enumerate(self._journal.read(), 1):
            try:
                record = BuildRecord.from_document(doc)
            except (KeyError, TypeError, ValueError) as exc:
                raise FarmStateError(
                    f"{self._journal.path}: line {number}: not a build record"
                ) from exc
            try:
                key = BuildKey.from_canonical(record.key)
            except MalformedBuildKey as exc:
                raise FarmStateError(
                    f"{self._journal.path}: line {number}: {record.key!r} is"
                    f" not a canonical build key"
                ) from exc
            self._records[record.key] = record
            keys[record.key] = key
        self.pending_at_open = [
            keys[k] for k, r in self._records.items() if not r.terminal
        ]
        self._pending = len(self.pending_at_open)


class ArtifactStore:
    def __init__(self, persist_dir: str | Path | None = None):
        # used only without a directory; a callable is built on first get
        self._blobs: dict[str, bytes | Callable[[], bytes]] = {}
        self._persist_dir = Path(persist_dir) if persist_dir else None

    def put(self, key: BuildKey, data: bytes | Callable[[], bytes]) -> None:
        """Store the artifact; a later write for the same key is a no-op.

        ``data`` is the tar's bytes or a function that builds them. On
        disk the first write calls it and the tar is renamed into place
        from a temporary file, so a write cut short is never taken for
        the first write. In memory the function is kept and called by the
        first ``get``."""
        if self._persist_dir is None:
            self._blobs.setdefault(key.canonical(), data)
        elif not (path := self._persist_dir / artifact_file(key)).exists():
            self._persist_dir.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_bytes(data() if callable(data) else data)
            os.rename(tmp, path)

    def get(self, key: BuildKey) -> bytes | None:
        """The stored tar's bytes, or None; in memory the first ``get``
        builds them and keeps them."""
        if self._persist_dir is None:
            canonical = key.canonical()
            data = self._blobs.get(canonical)
            if callable(data):
                data = self._blobs[canonical] = data()
            return data
        try:
            return (self._persist_dir / artifact_file(key)).read_bytes()
        except FileNotFoundError:
            return None
