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

A delivery reads no held message, however many the queue holds (a farm
holds one per busy worker). Beside its map of every queued message, the
queue keeps the messages not held in their own send-ordered index, an
``OrderedDict``, whose front is found without walking the slots that
earlier deletions left, as a plain dict's would be. ``receive`` walks
only that index from its front, and ``next_visible_at`` reads only it.
``hold`` takes a message out of the index; ``delete`` and dead-lettering
take it out of the queue. ``lapse`` rebuilds the index to put the
message back at its send position, which is rare: only hibernations and
crashes lapse a hold. The queue also maps each current handle to its
message, so a handle is found with one dict lookup and never parsed; a
redelivery, a deletion or a dead-lettering drops the message's old
handle from that map.

The queue lives in memory only. Which keys still need a build is stored
once, as the pending records of the record store; a farm that opens a
root sends one message for each of their keys.

The queue takes no lock of its own: it is a single-owner object, and the
farm that owns it serialises every call under ``BuildFarm.lock``.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from ..core import BuildKey

VISIBILITY_TIMEOUT = 15.0
RENEWAL_INTERVAL = 10.0
MAX_DELIVERIES = 3
DEAD_LETTER_ERROR = f"dead-lettered after {MAX_DELIVERIES} deliveries"


@dataclass(slots=True)
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
        # id -> message, every queued one, in send order
        self._messages: dict[str, _Message] = {}
        # id -> message, the queued ones not held, in send order
        self._deliverable: OrderedDict[str, _Message] = OrderedDict()
        # current handle -> its message
        self._handles: dict[str, _Message] = {}
        self._dead: list[_Message] = []
        self._seq = 0
        self.on_dead_letter = on_dead_letter

    def send(self, body: BuildKey, now: float) -> str:
        self._seq += 1
        message = _Message(id=f"m{self._seq}", body=body, visible_at=now)
        self._messages[message.id] = self._deliverable[message.id] = message
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
        for message in self._deliverable.values():
            if now < message.visible_at:
                continue
            if message.receive_count >= MAX_DELIVERIES:
                dead.append(message)
                continue
            if message.receive_count:
                del self._handles[message.handle]
            message.receive_count += 1
            message.visible_at = now + VISIBILITY_TIMEOUT
            message.handle = handle = f"{message.id}#{message.receive_count}"
            self._handles[handle] = message
            result = (
                ReceivedMessage(message.id, message.body, message.receive_count),
                handle,
            )
            break
        for message in dead:
            self._remove(message)
            self._dead.append(message)
        if self.on_dead_letter is not None:
            for message in dead:
                self.on_dead_letter(message.body, now)
        return result

    def renew(self, handle: str, now: float) -> bool:
        """Extend the visibility window; False if the handle went stale."""
        message = self._handles.get(handle)
        if message is None:
            return False
        message.visible_at = now + VISIBILITY_TIMEOUT
        return True

    def hold(self, handle: str) -> bool:
        """Keep the message from delivery until ``lapse``; False if the
        handle went stale."""
        message = self._handles.get(handle)
        if message is None:
            return False
        if not message.held:
            message.held = True
            del self._deliverable[message.id]
        return True

    def lapse(self, handle: str) -> bool:
        """End a hold: the message is visible again from the end of its
        current window; False if the handle went stale."""
        message = self._handles.get(handle)
        if message is None:
            return False
        if message.held:
            message.held = False
            self._deliverable = OrderedDict(
                (m.id, m) for m in self._messages.values() if not m.held
            )
        return True

    def delete(self, handle: str) -> bool:
        """Remove the message permanently; False if the handle went stale."""
        message = self._handles.get(handle)
        if message is None:
            return False
        self._remove(message)
        return True

    def depth(self) -> int:
        return len(self._messages)

    def next_visible_at(self) -> float | None:
        """The earliest time a receive can find or dead-letter a message;
        None while every queued message is held, or none is queued."""
        return min(
            (m.visible_at for m in self._deliverable.values()), default=None
        )

    def dead_letters(self) -> list[ReceivedMessage]:
        return [
            ReceivedMessage(m.id, m.body, m.receive_count)
            for m in self._dead
        ]

    def _remove(self, message: _Message) -> None:
        """Take a delivered message out of the queue and its handle out of
        use."""
        del self._messages[message.id]
        if not message.held:
            del self._deliverable[message.id]
        del self._handles[message.handle]
