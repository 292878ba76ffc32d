"""Reference workers that the farm's workers must match, event for event.

``ReferenceWorker`` is the worker whose visibility renewals are loop
events: a builder renews at every tick of its ten-second chain, each tick
an event of its own, and the queue never holds a message. The scan loop
in ``test_farm_loop`` steps only the workers with an event due, so it
needs renewals to be events, and it runs with this worker.

``PollingWorker`` also polls at every tick of its chain, found or not,
where the farm's idle workers wait for the next visible message.

``reference_workers`` makes every ``BuildFarm`` built from then on drive
one of them.
"""
from __future__ import annotations

from functools import partial

import pacloud.farm
from pacloud.core import BuildKey
from pacloud.farm.queue import RENEWAL_INTERVAL, CompileQueue
from pacloud.farm.stores import ArtifactStore, BuildRecordStore
from pacloud.farm.worker import (
    DEFAULT_NOTICE_SECONDS,
    DEFAULT_POLL_INTERVAL,
    BuildEvent,
    ExecutorFactory,
    JobProfile,
    WorkerMode,
    build_artifact_tar,
)


class ReferenceWorker:
    def __init__(
        self,
        name: str,
        queue: CompileQueue,
        records: BuildRecordStore,
        artifacts: ArtifactStore,
        executor_factory: ExecutorFactory,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        start_time: float = 0.0,
    ):
        self.name = name
        self.queue = queue
        self.records = records
        self.artifacts = artifacts
        self.executor_factory = executor_factory
        self.poll_interval = poll_interval
        self.mode = WorkerMode.IDLE
        self.next_poll_at = start_time
        self._waiting = False  # the last poll found nothing
        self.busy_seconds = 0.0
        self.history: list[BuildEvent] = []
        # in-flight build state
        self._handle: str | None = None
        self._key: BuildKey | None = None
        self._profile: JobProfile | None = None
        self._started_at = 0.0
        self._segment_started = 0.0
        self._completion_at = 0.0
        self._next_renewal_at = 0.0
        self._hibernate_at: float | None = None
        self._remaining = 0.0
        self._resumed = False
        self._stop_after_build = False

    # --- driving ---

    def next_event_time(self) -> float | None:
        if self.mode is WorkerMode.IDLE:
            if not self._waiting:
                return self.next_poll_at
            visible_at = self.queue.next_visible_at()
            if visible_at is None:
                return None
            # Step along the chain as the polls would, so the tick is the
            # same float the empty polls would have reached.
            t = self.next_poll_at
            while t < visible_at:
                t += self.poll_interval
            return t
        if self.mode is WorkerMode.BUILDING:
            t = min(self._completion_at, self._next_renewal_at)
            if self._hibernate_at is not None:
                t = min(t, self._hibernate_at)
            return t
        return None

    def step(self, now: float) -> float | None:
        """Process every event due up to and including ``now``, then
        spend a waiting worker's ticks up to ``now``; return the next
        event time."""
        while True:
            t = self.next_event_time()
            if t is None or t > now:
                break
            self._fire(t)
        if self._waiting and self.mode is WorkerMode.IDLE:
            while self.next_poll_at <= now:
                self.next_poll_at += self.poll_interval
        return t

    def _fire(self, t: float) -> None:
        if self.mode is WorkerMode.IDLE:
            self._poll(t)
            return
        # Building: completion wins ties, then hibernation, then renewal.
        if self._completion_at == t:
            self._complete(t)
        elif self._hibernate_at is not None and self._hibernate_at == t:
            self._hibernate(t)
        else:
            self._renew(t)

    # --- lifecycle events ---

    def _poll(self, t: float) -> None:
        self.next_poll_at = t  # a waiting worker skipped the ticks before t
        received = self.queue.receive(t)
        self._waiting = received is None
        if received is None:
            self.next_poll_at = t + self.poll_interval
            return
        message, handle = received
        key = message.body
        profile = self.executor_factory(key)
        self.mode = WorkerMode.BUILDING
        self._handle = handle
        self._key = key
        self._profile = profile
        self._started_at = t
        self._segment_started = t
        self._completion_at = t + profile.duration
        self._next_renewal_at = t + RENEWAL_INTERVAL
        self._hibernate_at = None
        self._remaining = profile.duration
        self._resumed = False
        self._stop_after_build = False

    def _renew(self, t: float) -> None:
        assert self._handle is not None
        self.queue.renew(self._handle, t)
        self._next_renewal_at = t + RENEWAL_INTERVAL

    def _hibernate(self, t: float) -> None:
        self.busy_seconds += t - self._segment_started
        self._remaining = self._completion_at - t
        self._hibernate_at = None
        self.mode = WorkerMode.HIBERNATED

    def _complete(self, t: float) -> None:
        assert self._key is not None and self._profile is not None
        assert self._handle is not None
        self.busy_seconds += t - self._segment_started
        canonical = self._key.canonical()
        record = self.records.get(canonical) if self._resumed else None
        if record is not None and record.terminal:
            # Someone else finished this key while we were hibernated.
            self.queue.delete(self._handle)
            status = "discarded"
        else:
            if self._profile.error is None:
                self.artifacts.put(self._key, partial(build_artifact_tar, self._key))
                self.records.finalize_built(canonical, t)
                status = "built"
            else:
                self.records.finalize_failed(canonical, self._profile.error, t)
                status = "failed"
            self.queue.delete(self._handle)
        self.history.append(BuildEvent(canonical, self._started_at, t, status))
        self._clear_build()
        if self._stop_after_build:
            self.mode = WorkerMode.STOPPED
        else:
            self.mode = WorkerMode.IDLE
            self.next_poll_at = t

    def _clear_build(self) -> None:
        self._handle = None
        self._key = None
        self._profile = None
        self._hibernate_at = None
        self._resumed = False

    # --- external events ---

    @property
    def holding(self) -> str | None:
        """Canonical key of the build this worker may still publish."""
        if self.mode in (WorkerMode.BUILDING, WorkerMode.HIBERNATED):
            assert self._key is not None
            return self._key.canonical()
        return None

    @property
    def reclaiming(self) -> bool:
        """A reclamation notice is pending on the current build."""
        return self._stop_after_build or self._hibernate_at is not None

    def interrupt(self, now: float, notice: float = DEFAULT_NOTICE_SECONDS) -> None:
        """Reclamation notice with a grace window.

        An idle worker just stops polling. A building worker finishes
        normally if the remaining work fits inside the notice, otherwise
        it hibernates when the notice runs out. A second notice while one
        is pending does not extend the deadline.
        """
        if self.mode is WorkerMode.IDLE:
            self.mode = WorkerMode.STOPPED
        elif self.mode is WorkerMode.BUILDING and not self.reclaiming:
            remaining = self._completion_at - now
            if remaining <= notice:
                self._stop_after_build = True
            else:
                self._hibernate_at = now + notice

    def resume(self, now: float) -> None:
        """Continue a hibernated build from its preserved remaining work."""
        if self.mode is not WorkerMode.HIBERNATED:
            raise ValueError(f"worker {self.name} is not hibernated")
        self.mode = WorkerMode.BUILDING
        self._segment_started = now
        self._completion_at = now + self._remaining
        self._next_renewal_at = now + RENEWAL_INTERVAL
        self._resumed = True
        assert self._handle is not None
        # Best effort: the handle is usually stale after a long hibernation.
        self.queue.renew(self._handle, now)

    def crash(self) -> None:
        """Vanish without cleanup; the in-flight message will resurface."""
        self.mode = WorkerMode.STOPPED


class PollingWorker(ReferenceWorker):
    def next_event_time(self) -> float | None:
        """An idle worker's next event is always its next tick."""
        if self.mode is WorkerMode.IDLE:
            return self.next_poll_at
        if self.mode is WorkerMode.BUILDING:
            t = min(self._completion_at, self._next_renewal_at)
            if self._hibernate_at is not None:
                t = min(t, self._hibernate_at)
            return t
        return None

    def step(self, now: float) -> float | None:
        while True:
            t = self.next_event_time()
            if t is None or t > now:
                return t
            self._fire(t)


def reference_workers(monkeypatch, worker_class=ReferenceWorker) -> None:
    """Make every farm built from now on drive ``worker_class`` workers."""
    monkeypatch.setattr(pacloud.farm, "Worker", worker_class)
