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
"""
from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..files import rewrite_text

VISIBILITY_TIMEOUT = 15.0
RENEWAL_INTERVAL = 10.0
MAX_DELIVERIES = 3
DEAD_LETTER_ERROR = f"dead-lettered after {MAX_DELIVERIES} deliveries"


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
    """FIFO queue of build-key bodies, optionally persisted to a JSON file."""

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
        self._persist_path = Path(persist_path) if persist_path else None
        self.on_dead_letter = on_dead_letter
        if self._persist_path and self._persist_path.is_file():
            self._load()

    def send(self, body: str, now: float) -> str:
        with self._lock:
            self._seq += 1
            message = _Message(id=f"m{self._seq}", body=body, visible_at=now)
            self._messages[message.id] = message
            self._save()
            return message.id

    def receive(self, now: float) -> tuple[ReceivedMessage, str] | None:
        """Deliver the oldest eligible message, claiming it atomically.

        Messages that already used up their deliveries are dead-lettered
        as they are encountered instead of being returned; each one is
        then reported to ``on_dead_letter`` with its body and ``now``.
        """
        with self._lock:
            dead: list[_Message] = []
            result = None
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
            if dead or result is not None:
                self._save()
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
            self._save()
            return True

    def delete(self, handle: str) -> bool:
        """Remove the message permanently; False if the handle went stale."""
        with self._lock:
            message = self._message_for(handle)
            if message is None:
                return False
            del self._messages[message.id]
            self._invalidate(message.id)
            self._save()
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

    def _save(self) -> None:
        if self._persist_path is None:
            return
        doc = {
            "seq": self._seq,
            "messages": [vars(m) for m in self._messages.values()],
            "dead_letters": [vars(m) for m in self._dead],
        }
        self._persist_path.parent.mkdir(parents=True, exist_ok=True)
        rewrite_text(self._persist_path, json.dumps(doc, indent=2) + "\n")

    def _load(self) -> None:
        doc = json.loads(self._persist_path.read_text(encoding="utf-8"))
        self._seq = doc["seq"]
        self._messages = {m["id"]: _Message(**m) for m in doc["messages"]}
        self._dead = [_Message(**m) for m in doc["dead_letters"]]
