"""Time sources for the farm and the client's poll loop.

Every component that needs time takes a clock, never the wall directly:
the 15 s visibility window, 10 s renewal cadence and 120 s interruption
notice are only testable against a virtual clock. A clock runs no other
actor: a farm moves at its requests or by ``advance_to`` (see
``pacloud.farm``), never when its clock is read or slept on.
"""
from __future__ import annotations

import time
from typing import Protocol


class Clock(Protocol):
    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...


class WallClock:
    def now(self) -> float:
        return time.time()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class VirtualClock:
    """A manually advanced clock. ``sleep`` only moves the clock: nothing
    else runs while a sleeper waits, and a farm on this clock moves at
    its requests (``RequestService.exchange``) or by ``advance_to``."""

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def set_time(self, t: float) -> None:
        if t < self._now:
            raise ValueError(f"clock cannot go backwards: {t} < {self._now}")
        self._now = t

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._now += seconds
