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
document the store writes raises ``FarmStateError``. Each artifact is the
file ``<key.path_token()>.tar``; the token decodes back to its key, so the
directory is the index. Opening either store writes nothing.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from ..core import BuildKey
from ..errors import FarmStateError
from ..files import Journal
from ..wire import artifact_url

PENDING = "pending"
BUILT = "built"
FAILED = "failed"

RECORDS_FILE = "records.jsonl"


@dataclass(frozen=True)
class BuildRecord:
    """Terminal outcome (or pending marker) for one build key."""

    key: str
    status: str
    artifact_url: str | None = None
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
        if self.artifact_url is not None:
            doc["artifact_url"] = self.artifact_url
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
            artifact_url=doc.get("artifact_url"),
            error_message=doc.get("error_message"),
            created_at=doc.get("created_at", 0.0),
            completed_at=doc.get("completed_at"),
        )
        # the text each status carries; an unknown status has none
        text = {PENDING: "", BUILT: record.artifact_url, FAILED: record.error_message}
        if not all(isinstance(s, str) for s in (record.key, text.get(record.status))):
            raise ValueError(f"not a build record: {doc!r}")
        return record


class BuildRecordStore:
    def __init__(self, persist_dir: str | Path | None = None):
        self._lock = threading.Lock()
        self._records: dict[str, BuildRecord] = {}
        self._pending = 0  # records not yet terminal, kept live for pending_count
        self._journal = None
        if persist_dir:
            self._journal = Journal(Path(persist_dir) / RECORDS_FILE)
            self._load()

    def get(self, canonical: str) -> BuildRecord | None:
        with self._lock:
            return self._records.get(canonical)

    def create_pending(self, canonical: str, now: float) -> bool:
        """Create a pending record; False if any record already exists."""
        with self._lock:
            if canonical in self._records:
                return False
            record = BuildRecord(canonical, PENDING, created_at=now)
            self._records[canonical] = record
            self._pending += 1
            self._save(record)
            return True

    def finalize_built(self, canonical: str, url: str, now: float) -> BuildRecord:
        return self._finalize(canonical, BUILT, url, None, now)

    def finalize_failed(
        self, canonical: str, error: str, now: float
    ) -> BuildRecord:
        return self._finalize(canonical, FAILED, None, error, now)

    def _finalize(
        self,
        canonical: str,
        status: str,
        url: str | None,
        error: str | None,
        now: float,
    ) -> BuildRecord:
        with self._lock:
            record = self._records.get(canonical)
            if record is None:
                record = BuildRecord(canonical, PENDING, created_at=now)
            elif record.terminal:
                return record
            else:
                self._pending -= 1
            record = replace(record, status=status, artifact_url=url,
                             error_message=error, completed_at=now)
            self._records[canonical] = record
            self._save(record)
            return record

    def pending_count(self) -> int:
        """How many records are pending; O(1), unlike ``pending_keys``."""
        with self._lock:
            return self._pending

    def pending_keys(self) -> list[str]:
        with self._lock:
            return sorted(
                k for k, r in self._records.items() if r.status == PENDING
            )

    def all_records(self) -> list[BuildRecord]:
        with self._lock:
            return list(self._records.values())

    def close(self) -> None:
        """Close the journal; a later write opens it again."""
        with self._lock:
            if self._journal is not None:
                self._journal.close()

    def _save(self, record: BuildRecord) -> None:
        if self._journal is not None:
            self._journal.append(record.to_document())

    def _load(self) -> None:
        assert self._journal is not None
        for number, doc in enumerate(self._journal.read(), 1):
            try:
                record = BuildRecord.from_document(doc)
            except (KeyError, TypeError, ValueError) as exc:
                raise FarmStateError(
                    f"{self._journal.path}: line {number}: not a build record"
                ) from exc
            self._records[record.key] = record
        self._pending = sum(not r.terminal for r in self._records.values())


class ArtifactStore:
    def __init__(self, persist_dir: str | Path | None = None):
        self._lock = threading.Lock()
        self._blobs: dict[str, bytes] = {}  # used only without a directory
        self.put_attempts: dict[str, int] = {}
        self._persist_dir = Path(persist_dir) if persist_dir else None

    def put(self, key: BuildKey, data: bytes) -> str:
        """Store the artifact; a later write for the same key is a no-op.
        On disk the tar is renamed into place from a temporary file, so a
        write cut short is never taken for the first write."""
        canonical = key.canonical()
        with self._lock:
            self.put_attempts[canonical] = self.put_attempts.get(canonical, 0) + 1
            if self._persist_dir is None:
                self._blobs.setdefault(canonical, data)
            elif not (path := self._persist_dir / f"{key.path_token()}.tar").exists():
                self._persist_dir.mkdir(parents=True, exist_ok=True)
                tmp = path.with_name(path.name + ".tmp")
                tmp.write_bytes(data)
                os.rename(tmp, path)
        return artifact_url(key)

    def get(self, key: BuildKey) -> bytes | None:
        if self._persist_dir is None:
            with self._lock:
                return self._blobs.get(key.canonical())
        try:
            return (self._persist_dir / f"{key.path_token()}.tar").read_bytes()
        except FileNotFoundError:
            return None

    def stored_keys(self) -> list[str]:
        if self._persist_dir is None:
            with self._lock:
                return sorted(self._blobs)
        names = os.listdir(self._persist_dir) if self._persist_dir.is_dir() else []
        return sorted(
            BuildKey.from_path_token(name.removesuffix(".tar")).canonical()
            for name in names if name.endswith(".tar")
        )
