"""Simulated spot workers: polling, building, interruption and hibernation.

An idle worker polls the queue on its own chain of ticks, ``poll_interval``
apart. On a message it calls its executor once for that delivery, which
returns the key's ``JobProfile``: it builds for the profile's duration,
and holds the message in the queue meanwhile, so no other worker
receives it. On completion it stores the artifact, a function that
builds the key's tar when the store first needs its bytes, finalizes the
build record (preserving the profile's error text verbatim on failure),
deletes the message and polls again at once. Failures delete the message
too and store nothing.
A poll that finds nothing makes the worker wait: its next event is the
first tick of its chain at or after the queue's earliest visible time,
and it has none while the queue holds nothing it can deliver. The ticks
it skips are the polls that would have found nothing.

An interruption gives the worker a notice window: a build that fits inside
it finishes normally, otherwise the worker keeps working until the window
closes and then hibernates with its remaining work preserved. A resumed
worker finishes the same build, but consults the record store before
publishing in case another worker completed the key during hibernation;
first-write-wins on the record and artifact stores makes that race
harmless either way.

Workers are event-driven: a driver advances them with ``step(now)`` and
can ask for the next instant anything is due: a poll, a completion or a
hibernation. ``step(now)`` also spends a waiting worker's ticks up to
``now``, as the empty polls at those ticks would have, so a message sent
at ``now`` is first polled at the next tick. It returns the worker's next
event time, so a driver need not ask for it again.

A builder's visibility renewals are due every ten seconds, on a chain of
ticks from the receive (or the resume), but only the last one before its
hold ends decides when the message resurfaces. So none is an event: a
worker renews once, at the last tick up to ``now``, when ``step(now)``
leaves it building, and at the last tick before the hibernation, which
then lapses the hold. A completion deletes the message and renews
nothing. A crashed worker lapses its hold and stops being driven; its
message resurfaces 15 s after the last renewal it made, at its last step.
"""
from __future__ import annotations

import io
import tarfile
from dataclasses import dataclass
from enum import Enum
from functools import partial

from ..core import BuildKey
from .queue import RENEWAL_INTERVAL, CompileQueue
from .stores import BUILT, FAILED, ArtifactStore, BuildRecordStore

DEFAULT_POLL_INTERVAL = 1.0
DEFAULT_NOTICE_SECONDS = 120.0
DEFAULT_BUILD_SECONDS = 10.0

# A build event's status when the build's key was finished by another
# worker first; a record's status is never this.
DISCARDED = "discarded"


def build_artifact_tar(key: BuildKey) -> bytes:
    """Deterministic single-file tar payload for a simulated build.

    Entries are paths relative to the client's install root; the bytes are
    identical across runs so stores and caches can be compared exactly.
    """
    member = (
        f"usr/share/pacloud/{key.package.category}/"
        f"{key.package.name}-{key.version}"
    )
    data = (key.canonical() + "\n").encode("utf-8")
    buffer = io.BytesIO()
    with tarfile.open(
        fileobj=buffer, mode="w", format=tarfile.USTAR_FORMAT
    ) as tar:
        info = tarfile.TarInfo(name=member)
        info.size = len(data)
        info.mtime = 0
        info.mode = 0o644
        info.uid = info.gid = 0
        info.uname = info.gname = ""
        tar.addfile(info, io.BytesIO(data))
    return buffer.getvalue()


@dataclass(frozen=True)
class JobProfile:
    """Simulated outcome for one build key: how long, and success or error."""

    duration: float = DEFAULT_BUILD_SECONDS
    error: str | None = None


class ExecutorTable:
    """Build profiles by canonical key, and the default for other keys."""

    def __init__(
        self,
        profiles: dict[str, JobProfile] | None = None,
        default: JobProfile = JobProfile(),
    ):
        self.profiles = dict(profiles or {})
        self.default = default

    def profile_for(self, key: BuildKey) -> JobProfile:
        return self.profiles.get(key.canonical(), self.default)


class ExecutorFactory:
    """Runs one simulated build per delivery, returning the key's
    profile, and counts the calls."""

    def __init__(self, table: ExecutorTable | None = None):
        self.table = table or ExecutorTable()
        self.created = 0

    def __call__(self, key: BuildKey) -> JobProfile:
        self.created += 1
        return self.table.profile_for(key)


class WorkerMode(Enum):
    IDLE = "idle"
    BUILDING = "building"
    HIBERNATED = "hibernated"
    STOPPED = "stopped"


@dataclass(frozen=True)
class BuildEvent:
    key: str
    started_at: float
    finished_at: float
    status: str  # BUILT | FAILED | DISCARDED


@dataclass(slots=True)
class _Build:
    """The one build a worker has in flight, from its receive until it
    completes or the worker crashes."""

    handle: str
    key: BuildKey
    profile: JobProfile
    started_at: float
    segment_started: float
    completion_at: float
    next_renewal_at: float  # the first tick not yet renewed
    leased: bool  # the queue holds the message for this worker
    hibernate_at: float | None = None  # a notice the build outlasts
    remaining: float = 0.0  # the work left when it hibernated
    resumed: bool = False
    stop_after: bool = False  # a notice the build fits: stop after it


class Worker:
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
        # None exactly while the worker is idle or stopped
        self._build: _Build | None = None

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
            build = self._build
            if build.hibernate_at is not None:
                return min(build.completion_at, build.hibernate_at)
            return build.completion_at
        return None

    def step(self, now: float) -> float | None:
        """Process every event due up to and including ``now``, then
        renew a building worker's message at the last tick up to ``now``
        or spend a waiting worker's ticks up to ``now``; return
        ``next_event_time()`` as it stands afterwards.

        Neither of the last two moves the next event: a renewal changes
        no event time, and a waiting worker's next event is reached
        along the very ticks it spends."""
        while True:
            t = self.next_event_time()
            if t is None or t > now:
                break
            self._fire(t)
        if self.mode is WorkerMode.BUILDING:
            self._renew_until(now, at_limit=True)
        elif self._waiting and self.mode is WorkerMode.IDLE:
            while self.next_poll_at <= now:
                self.next_poll_at += self.poll_interval
        return t

    def _fire(self, t: float) -> None:
        if self.mode is WorkerMode.IDLE:
            self._poll(t)
        elif self._build.completion_at == t:  # completion wins a tie
            self._complete(t)
        else:
            self._hibernate(t)

    # --- lifecycle events ---

    def _poll(self, t: float) -> None:
        self.next_poll_at = t  # a waiting worker skipped the ticks before t
        received = self.queue.receive(t)
        self._waiting = received is None
        if received is None:
            self.next_poll_at = t + self.poll_interval
            return
        message, handle = received
        profile = self.executor_factory(message.body)
        self.mode = WorkerMode.BUILDING
        self._build = _Build(
            handle,
            message.body,
            profile,
            started_at=t,
            segment_started=t,
            completion_at=t + profile.duration,
            next_renewal_at=t + RENEWAL_INTERVAL,
            leased=self.queue.hold(handle),
        )

    def _renew_until(self, limit: float, at_limit: bool) -> None:
        """Make the renewal due at the last tick before ``limit`` (or at
        it, with ``at_limit``) that is not yet made. The ticks are reached
        by the same chained additions renewing at every tick would make,
        and that last renewal sets the same visibility window."""
        build = self._build
        if not build.leased:
            return
        last = None
        t = build.next_renewal_at
        while t < limit or (at_limit and t == limit):
            last = t
            t += RENEWAL_INTERVAL
        if last is not None:
            self.queue.renew(build.handle, last)
            build.next_renewal_at = t

    def _lapse(self) -> None:
        build = self._build
        if build is not None and build.leased:
            self.queue.lapse(build.handle)
            build.leased = False

    def _hibernate(self, t: float) -> None:
        # Hibernation wins a tie with a renewal tick.
        self._renew_until(t, at_limit=False)
        self._lapse()
        build = self._build
        self.busy_seconds += t - build.segment_started
        build.remaining = build.completion_at - t
        build.hibernate_at = None
        self.mode = WorkerMode.HIBERNATED

    def _complete(self, t: float) -> None:
        build = self._build
        self.busy_seconds += t - build.segment_started
        canonical = build.key.canonical()
        record = self.records.get(canonical) if build.resumed else None
        if record is not None and record.terminal:
            # Someone else finished this key while we were hibernated.
            status = DISCARDED
        elif build.profile.error is None:
            # The tar depends only on the key: build it when it is read.
            self.artifacts.put(build.key, partial(build_artifact_tar, build.key))
            self.records.finalize_built(canonical, t)
            status = BUILT
        else:
            self.records.finalize_failed(canonical, build.profile.error, t)
            status = FAILED
        self.queue.delete(build.handle)
        self.history.append(BuildEvent(canonical, build.started_at, t, status))
        self._build = None
        if build.stop_after:
            self.mode = WorkerMode.STOPPED
        else:
            self.mode = WorkerMode.IDLE
            self.next_poll_at = t

    # --- external events ---

    @property
    def holding(self) -> str | None:
        """Canonical key of the build this worker may still publish.

        A hibernated worker, or one whose handle went stale, still holds
        its key in this sense while the queue holds its message no longer.
        """
        return None if self._build is None else self._build.key.canonical()

    @property
    def reclaiming(self) -> bool:
        """A reclamation notice is pending on the current build."""
        build = self._build
        return build is not None and (
            build.stop_after or build.hibernate_at is not None
        )

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
            build = self._build
            if build.completion_at - now <= notice:
                build.stop_after = True
            else:
                build.hibernate_at = now + notice

    def resume(self, now: float) -> None:
        """Continue a hibernated build from its preserved remaining work."""
        if self.mode is not WorkerMode.HIBERNATED:
            raise ValueError(f"worker {self.name} is not hibernated")
        build = self._build
        self.mode = WorkerMode.BUILDING
        build.segment_started = now
        build.completion_at = now + build.remaining
        build.next_renewal_at = now + RENEWAL_INTERVAL
        build.resumed = True
        # Best effort: the handle is usually stale after a long hibernation,
        # and a worker whose handle went stale holds and renews nothing.
        if self.queue.renew(build.handle, now):
            build.leased = self.queue.hold(build.handle)

    def crash(self) -> None:
        """Vanish without cleanup; the in-flight message will resurface."""
        self._lapse()
        self._build = None
        self.mode = WorkerMode.STOPPED
