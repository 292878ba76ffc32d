"""The compile-request queue: at-least-once delivery with visibility timeouts.

A received message turns invisible for fifteen seconds; a builder renews
that window every ten seconds while it works. Undeleted messages resurface
once their window lapses. A message is delivered at most three times: on
its fourth eligibility it moves to the dead-letter queue instead, where a
maintenance listing can inspect it, and the queue's ``on_dead_letter``
hook hears of it (the farm fails the key's record there).

Receive handles go stale as soon as the message is redelivered elsewhere
(or dead-lettered); renewing or deleting through a stale handle is a no-op
that reports the staleness.

Given a path, the queue keeps its state in an append-only journal
(``queue.jsonl``, a ``pacloud.files.Journal``): one JSON array per call
that changes the state, so a journal cut at any byte replays to the state
after some prefix of the calls.

- ``["send", seq, body, visible_at]``: message ``m<seq>`` joins the end.
- ``["receive", dead_ids, id, visible_at, receive_count, seq]``: the
  messages in ``dead_ids`` move to the dead letters, then ``id`` is
  delivered. A receive that only dead-letters stops after ``dead_ids``.
- ``["renew", id, visible_at]`` and ``["delete", id]``.
- ``["snapshot", state]``: the whole state, ``seq``, ``messages`` in send
  order and ``dead_letters`` in the order they died.

When the journal grows past ``COMPACTION_RATIO`` times the last snapshot,
and past ``COMPACTION_MIN_BYTES``, it is replaced by a fresh snapshot.
Handles do not survive a reopen. Opening the queue only reads the journal:
a ``queue.json`` beside it may be the document of a store category.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..errors import FarmStateError
from ..files import Journal, json_line

VISIBILITY_TIMEOUT = 15.0
RENEWAL_INTERVAL = 10.0
MAX_DELIVERIES = 3
DEAD_LETTER_ERROR = f"dead-lettered after {MAX_DELIVERIES} deliveries"
# A journal longer than this many snapshots of the live state is compacted,
COMPACTION_RATIO = 4
# once it is also this long. Compaction renames a new file over the
# journal, and ext4 writes the new file out on such a rename, so its cost
# follows the disk; a nearly empty queue would otherwise compact every
# few lines.
COMPACTION_MIN_BYTES = 64 * 1024


@dataclass
class _Message:
    id: str
    body: str
    visible_at: float
    receive_count: int = 0


@dataclass(frozen=True)
class ReceivedMessage:
    id: str
    body: str
    receive_count: int


class CompileQueue:
    """FIFO queue of build-key bodies, optionally persisted to a journal."""

    def __init__(
        self,
        persist_path: str | Path | None = None,
        on_dead_letter: Callable[[str, float], None] | None = None,
    ):
        self._lock = threading.Lock()
        # id -> message, in send order; delivery scans it front to back
        self._messages: dict[str, _Message] = {}
        self._dead: list[_Message] = []
        self._handles: dict[str, str] = {}  # handle -> message id
        self._current_handle: dict[str, str] = {}  # message id -> handle
        self._seq = 0
        self.on_dead_letter = on_dead_letter
        self._journal = Journal(persist_path) if persist_path else None
        self._snapshot_bytes = 0
        if self._journal is not None:
            self._load()

    def send(self, body: str, now: float) -> str:
        with self._lock:
            self._seq += 1
            message = _Message(id=f"m{self._seq}", body=body, visible_at=now)
            self._messages[message.id] = message
            if self._journal is not None:
                self._log(["send", self._seq, body, now])
            return message.id

    def receive(self, now: float) -> tuple[ReceivedMessage, str] | None:
        """Deliver the oldest eligible message, claiming it atomically.

        Messages that already used up their deliveries are dead-lettered
        as they are encountered instead of being returned; each one is
        then reported to ``on_dead_letter`` with its body and ``now``.
        """
        with self._lock:
            dead: list[_Message] = []
            delivered = result = None
            for message in self._messages.values():
                if now < message.visible_at:
                    continue
                if message.receive_count >= MAX_DELIVERIES:
                    dead.append(message)
                    continue
                message.receive_count += 1
                message.visible_at = now + VISIBILITY_TIMEOUT
                self._invalidate(message.id)
                self._seq += 1
                handle = f"h{self._seq}"
                self._handles[handle] = message.id
                self._current_handle[message.id] = handle
                delivered = message
                result = (
                    ReceivedMessage(
                        message.id, message.body, message.receive_count
                    ),
                    handle,
                )
                break
            for message in dead:
                del self._messages[message.id]
                self._invalidate(message.id)
                self._dead.append(message)
            if self._journal is not None and (dead or delivered is not None):
                entry = ["receive", [m.id for m in dead]]
                if delivered is not None:
                    entry += [
                        delivered.id,
                        delivered.visible_at,
                        delivered.receive_count,
                        self._seq,
                    ]
                self._log(entry)
        if self.on_dead_letter is not None:
            for message in dead:
                self.on_dead_letter(message.body, now)
        return result

    def renew(self, handle: str, now: float) -> bool:
        """Extend the visibility window; False if the handle went stale."""
        with self._lock:
            message = self._message_for(handle)
            if message is None:
                return False
            message.visible_at = now + VISIBILITY_TIMEOUT
            if self._journal is not None:
                self._log(["renew", message.id, message.visible_at])
            return True

    def delete(self, handle: str) -> bool:
        """Remove the message permanently; False if the handle went stale."""
        with self._lock:
            message = self._message_for(handle)
            if message is None:
                return False
            del self._messages[message.id]
            self._invalidate(message.id)
            if self._journal is not None:
                self._log(["delete", message.id])
            return True

    def depth(self) -> int:
        with self._lock:
            return len(self._messages)

    def dead_letters(self) -> list[ReceivedMessage]:
        with self._lock:
            return [
                ReceivedMessage(m.id, m.body, m.receive_count)
                for m in self._dead
            ]

    def close(self) -> None:
        """Close the journal; a later change opens it again."""
        with self._lock:
            if self._journal is not None:
                self._journal.close()

    # --- internals ---

    def _message_for(self, handle: str) -> _Message | None:
        message_id = self._handles.get(handle)
        if message_id is None or self._current_handle.get(message_id) != handle:
            return None
        return self._messages.get(message_id)

    def _invalidate(self, message_id: str) -> None:
        handle = self._current_handle.pop(message_id, None)
        if handle is not None:
            self._handles.pop(handle, None)

    def _state(self) -> dict:
        return {
            "seq": self._seq,
            "messages": [vars(m) for m in self._messages.values()],
            "dead_letters": [vars(m) for m in self._dead],
        }

    def _restore(self, state: dict) -> None:
        self._seq = state["seq"]
        self._messages = {m["id"]: _Message(**m) for m in state["messages"]}
        self._dead = [_Message(**m) for m in state["dead_letters"]]

    def _log(self, entry: list) -> None:
        assert self._journal is not None
        self._journal.append(entry)
        ratio_bytes = COMPACTION_RATIO * self._snapshot_bytes
        if self._journal.size > max(ratio_bytes, COMPACTION_MIN_BYTES):
            self._compact()

    def _compact(self) -> None:
        assert self._journal is not None
        self._journal.replace([["snapshot", self._state()]])
        self._snapshot_bytes = self._journal.size

    def _load(self) -> None:
        assert self._journal is not None
        path = self._journal.path
        for number, entry in enumerate(self._journal.read(), 1):
            try:
                self._replay(entry)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise FarmStateError(
                    f"{path}: line {number}: cannot replay {entry!r}"
                ) from exc
        self._snapshot_bytes = len(json_line(["snapshot", self._state()]))

    def _replay(self, entry: list) -> None:
        op = entry[0]
        if op == "send":
            _, self._seq, body, visible_at = entry
            message = _Message(f"m{self._seq}", body, visible_at)
            self._messages[message.id] = message
        elif op == "receive":
            for message_id in entry[1]:
                self._dead.append(self._messages.pop(message_id))
            if len(entry) > 2:
                _, _, message_id, visible_at, receive_count, self._seq = entry
                message = self._messages[message_id]
                message.visible_at = visible_at
                message.receive_count = receive_count
        elif op == "renew":
            self._messages[entry[1]].visible_at = entry[2]
        elif op == "delete":
            del self._messages[entry[1]]
        elif op == "snapshot":
            self._restore(entry[1])
        else:
            raise ValueError(f"unknown operation {op!r}")
