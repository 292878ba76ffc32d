"""Time sources for the farm and the client's poll loop.

Every component that needs time takes a clock, never the wall directly:
the 15 s visibility window, 10 s renewal cadence and 120 s interruption
notice are only testable against a virtual clock.
"""
from __future__ import annotations

import time
from typing import Callable, Protocol


class Clock(Protocol):
    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...


class WallClock:
    def now(self) -> float:
        return time.time()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class VirtualClock:
    """A manually advanced clock.

    ``on_sleep`` lets a simulation run other actors (farm workers) up to
    the sleep target before the sleeper wakes; afterwards time is at the
    target regardless.
    """

    def __init__(
        self,
        start: float = 0.0,
        on_sleep: Callable[[float], None] | None = None,
    ):
        self._now = start
        self.on_sleep = on_sleep

    def now(self) -> float:
        return self._now

    def set_time(self, t: float) -> None:
        if t < self._now:
            raise ValueError(f"clock cannot go backwards: {t} < {self._now}")
        self._now = t

    def sleep(self, seconds: float) -> None:
        target = self._now + seconds
        if self.on_sleep is not None:
            self.on_sleep(target)
        if self._now < target:
            self._now = target
