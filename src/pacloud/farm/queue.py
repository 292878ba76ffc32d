"""The compile-request queue: at-least-once delivery with visibility timeouts.

A message's body is the ``BuildKey`` to build, the very object that was
sent: a worker builds it as delivered, and nothing renders or parses its
canonical string on the way.

A received message turns invisible for fifteen seconds, and ``renew``
restarts that window. Undeleted messages resurface once their window
lapses. A builder may also hold its message: a held message is neither
delivered nor dead-lettered, and ``next_visible_at`` skips it, however
long ago its window ended. ``lapse`` ends the hold, so the message is
visible from the end of its window, fifteen seconds after its last
delivery or renewal. A plain ``receive`` holds nothing.

A message is delivered at most three times: on its fourth eligibility it
moves to the dead-letter queue instead, where a maintenance listing can
inspect it, and the queue's ``on_dead_letter`` hook hears of its key (the
farm fails the key's record there).

A receive handle names its delivery, ``<message id>#<receive count>``, so
it goes stale as soon as the message is redelivered elsewhere, deleted or
dead-lettered; renewing, holding, lapsing or deleting through a stale
handle is a no-op that reports the staleness.

The queue lives in memory only. Which keys still need a build is stored
once, as the pending records of the record store; a farm that opens a
root sends one message for each of their keys.

The queue takes no lock of its own: it is a single-owner object, and the
farm that owns it serialises every call under ``BuildFarm.lock``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core import BuildKey

VISIBILITY_TIMEOUT = 15.0
RENEWAL_INTERVAL = 10.0
MAX_DELIVERIES = 3
DEAD_LETTER_ERROR = f"dead-lettered after {MAX_DELIVERIES} deliveries"


@dataclass
class _Message:
    id: str
    body: BuildKey
    visible_at: float
    receive_count: int = 0
    handle: str = ""  # names the current delivery: "<id>#<receive_count>"
    held: bool = False


@dataclass(frozen=True)
class ReceivedMessage:
    id: str
    body: BuildKey
    receive_count: int


class CompileQueue:
    """FIFO queue of ``BuildKey`` bodies, held in memory; not thread-safe
    on its own (the farm serialises its callers)."""

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
        """Deliver the oldest eligible message, claiming it for this
        receive: it is invisible until its new window ends.

        Messages that already used up their deliveries are dead-lettered
        as they are encountered instead of being returned; each one is
        then reported to ``on_dead_letter`` with its body and ``now``.
        """
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
        """Extend the visibility window; False if the handle went stale."""
        message = self._message_for(handle)
        if message is None:
            return False
        message.visible_at = now + VISIBILITY_TIMEOUT
        return True

    def hold(self, handle: str) -> bool:
        """Keep the message from delivery until ``lapse``; False if the
        handle went stale."""
        message = self._message_for(handle)
        if message is None:
            return False
        message.held = True
        return True

    def lapse(self, handle: str) -> bool:
        """End a hold: the message is visible again from the end of its
        current window; False if the handle went stale."""
        message = self._message_for(handle)
        if message is None:
            return False
        message.held = False
        return True

    def delete(self, handle: str) -> bool:
        """Remove the message permanently; False if the handle went stale."""
        message = self._message_for(handle)
        if message is None:
            return False
        del self._messages[message.id]
        return True

    def depth(self) -> int:
        return len(self._messages)

    def next_visible_at(self) -> float | None:
        """The earliest time a receive can find or dead-letter a message;
        None while every queued message is held, or none is queued."""
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
