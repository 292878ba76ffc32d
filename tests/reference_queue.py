"""The scan queue that ``pacloud.farm.queue.CompileQueue`` must match.

``ReferenceQueue`` keeps every message in one send-ordered dict. A receive
walks it from the front and skips each held or invisible message, so a
delivery costs one step per message in flight; a handle is parsed back
into its message id on every use. ``test_queue`` drives it and the farm's
queue with the same random calls and compares every answer.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from pacloud.core import BuildKey
from pacloud.farm.queue import MAX_DELIVERIES, VISIBILITY_TIMEOUT, ReceivedMessage


@dataclass
class _Message:
    id: str
    body: BuildKey
    visible_at: float
    receive_count: int = 0
    handle: str = ""  # names the current delivery: "<id>#<receive_count>"
    held: bool = False


class ReferenceQueue:
    def __init__(
        self, on_dead_letter: Callable[[BuildKey, float], None] | None = None
    ):
        # id -> message, in send order; delivery scans it front to back
        self._messages: dict[str, _Message] = {}
        self._dead: list[_Message] = []
        self._seq = 0
        self.on_dead_letter = on_dead_letter

    def send(self, body: BuildKey, now: float) -> str:
        self._seq += 1
        message = _Message(id=f"m{self._seq}", body=body, visible_at=now)
        self._messages[message.id] = message
        return message.id

    def receive(self, now: float) -> tuple[ReceivedMessage, str] | None:
        dead: list[_Message] = []
        result = None
        for message in self._messages.values():
            if message.held or now < message.visible_at:
                continue
            if message.receive_count >= MAX_DELIVERIES:
                dead.append(message)
                continue
            message.receive_count += 1
            message.visible_at = now + VISIBILITY_TIMEOUT
            message.handle = f"{message.id}#{message.receive_count}"
            result = (
                ReceivedMessage(
                    message.id, message.body, message.receive_count
                ),
                message.handle,
            )
            break
        for message in dead:
            del self._messages[message.id]
            self._dead.append(message)
        if self.on_dead_letter is not None:
            for message in dead:
                self.on_dead_letter(message.body, now)
        return result

    def renew(self, handle: str, now: float) -> bool:
        message = self._message_for(handle)
        if message is None:
            return False
        message.visible_at = now + VISIBILITY_TIMEOUT
        return True

    def hold(self, handle: str) -> bool:
        message = self._message_for(handle)
        if message is None:
            return False
        message.held = True
        return True

    def lapse(self, handle: str) -> bool:
        message = self._message_for(handle)
        if message is None:
            return False
        message.held = False
        return True

    def delete(self, handle: str) -> bool:
        message = self._message_for(handle)
        if message is None:
            return False
        del self._messages[message.id]
        return True

    def depth(self) -> int:
        return len(self._messages)

    def next_visible_at(self) -> float | None:
        return min(
            (m.visible_at for m in self._messages.values() if not m.held),
            default=None,
        )

    def dead_letters(self) -> list[ReceivedMessage]:
        return [
            ReceivedMessage(m.id, m.body, m.receive_count)
            for m in self._dead
        ]

    def _message_for(self, handle: str) -> _Message | None:
        message = self._messages.get(handle.partition("#")[0])
        return message if message and message.handle == handle else None
