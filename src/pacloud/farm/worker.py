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
it skips are the polls that would have found nothing. Every walk along a
chain of ticks goes through ``walk_ticks``, which reaches the floats that
one addition per tick would, in a few passes per binade, so a walk costs
no more for a longer idle spell; it raises ``ValueError`` where the
chain's next tick rounds to the same float.

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

A ``JobProfile`` and a ``BuildEvent`` are ``NamedTuple``s, as is every
value the farm builds per job or per event: immutable, and built on the
per-job path with ``tuple.__new__``, past the class's Python-level
``__new__`` (``_complete`` builds the event, ``job_profile`` a
profile; see ``pacloud.farm.stores`` for the cost of each). A worker's
``_Build`` is mutable, since the worker changes it as the build goes
on. For the same per-event cost, the four
``WorkerMode`` members are also module names, ``IDLE``,
``BUILDING``, ``HIBERNATED`` and ``STOPPED``, and the farm's hot path
reads those: reading ``WorkerMode.IDLE`` looks the member up through the
Enum class, about 108-128 ns against 14 ns for a module global on
CPython 3.10 and 3.11 (33-39 ns on 3.12 and 3.13), and a replay reads
about a dozen per job. They are the same objects, so ``mode is
WorkerMode.IDLE`` still holds, and ``WorkerMode`` stays the public name.
"""
from __future__ import annotations

import io
import math
import tarfile
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import NamedTuple

from ..core import BuildKey
from .queue import RENEWAL_INTERVAL, CompileQueue
from .stores import BUILT, FAILED, ArtifactStore, BuildRecordStore

DEFAULT_POLL_INTERVAL = 1.0
DEFAULT_NOTICE_SECONDS = 120.0
DEFAULT_BUILD_SECONDS = 10.0

# A normal float is at least 2**52 of its ulps, and the top of its binade
# is 2**53 of them.
_NORMAL_ULPS = 2**52
_TOP_ULPS = 2**53

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


def walk_ticks(
    t: float, interval: float, limit: float, inclusive: bool
) -> tuple[float | None, float]:
    """Walk the chain ``t, t + interval, ...`` to the floats that chained
    additions reach, as acting at every tick would: the last tick before
    ``limit`` (or at it, when ``inclusive``), None if there is none, and
    the first tick past that one. A chain whose next tick rounds back to
    the same float raises ``ValueError``, since it would never pass
    ``limit``.

    The walk costs a few passes per binade (the floats between two powers
    of two), not one per tick: ``_binade_end`` jumps along each binade,
    and one real addition crosses into the next."""
    last = None
    while t < limit or (inclusive and t == limit):
        past = t + interval
        if past == t:
            raise ValueError(f"a tick chain stops moving at {past}")
        if past < limit or (inclusive and past == limit):
            t = _binade_end(t, past, interval, limit, inclusive)
            past = t + interval
        last, t = t, past
    return last, t


def _binade_end(
    t: float, past: float, interval: float, limit: float, inclusive: bool
) -> float:
    """The last tick before ``limit`` (or at it) that the chain from ``t``
    reaches without leaving ``t``'s binade; ``t`` itself when no jump is
    sure to reach the chained floats.

    In a binade every float is a multiple of its ulp, so every sum
    ``tick + interval`` that stays in it rounds to ``tick + d``, with the
    same ``d``, and n steps add exactly ``n * d``. The exception is an
    interval that leaves half an ulp over, a tie: a sum then rounds to an
    even multiple of the ulp, so once two steps add the same ``d`` every
    later one does (Goldberg, "What Every Computer Scientist Should Know
    About Floating-Point Arithmetic", ACM Computing Surveys, 1991)."""
    ulp = math.ulp(t)
    units = t / ulp  # exact: an ulp is a power of two
    # single steps below zero, among subnormals and across the binade's top
    if units < _NORMAL_ULPS or math.ulp(past) != ulp:
        return t
    d = past - t
    # the most steps of d that stay below the binade's top
    steps = (_TOP_ULPS - 1 - int(units)) // int(d / ulp)
    if steps < 2 or past + interval - past != d:
        return t
    end = t + steps * d
    if end < limit or (inclusive and end == limit):
        return end
    # The limit falls inside the run. The quotient rounds to no fewer
    # steps than fit (limit - t is exact), so count down from it.
    n = min(steps - 1, int((limit - t) / d))
    while not (t + n * d < limit or (inclusive and t + n * d == limit)):
        n -= 1
    return t + n * d


class JobProfile(NamedTuple):
    """Simulated outcome for one build key: how long, and success or error."""

    duration: float = DEFAULT_BUILD_SECONDS
    error: str | None = None


def job_profile(duration: float) -> JobProfile:
    """``JobProfile(duration)``, built by ``tuple.__new__`` for callers that
    build one per job."""
    return tuple.__new__(JobProfile, (duration, None))


class ExecutorTable:
    """Build profiles by canonical key, and the default for other keys."""

    def __init__(
        self,
        profiles: dict[str, JobProfile] | None = None,
        default: JobProfile = JobProfile(),
    ):
        self.profiles = dict(profiles or {})
        self.default = default


class ExecutorFactory:
    """Runs one simulated build per delivery, returning the key's
    profile, and counts the calls."""

    def __init__(self, table: ExecutorTable | None = None):
        self.table = table or ExecutorTable()
        self.created = 0

    def __call__(self, key: BuildKey) -> JobProfile:
        self.created += 1
        table = self.table
        return table.profiles.get(key.canonical(), table.default)


class WorkerMode(Enum):
    IDLE = "idle"
    BUILDING = "building"
    HIBERNATED = "hibernated"
    STOPPED = "stopped"


# The modes as module names: the hot path reads a global, not an Enum
# member through its class (see the module docstring).
IDLE, BUILDING, HIBERNATED, STOPPED = WorkerMode


class BuildEvent(NamedTuple):
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
        self.mode = IDLE
        self.next_poll_at = start_time
        self._waiting = False  # the last poll found nothing
        self.busy_seconds = 0.0
        self.history: list[BuildEvent] = []
        # None exactly while the worker is idle or stopped
        self._build: _Build | None = None

    # --- driving ---

    def next_event_time(self) -> float | None:
        if self.mode is IDLE:
            if not self._waiting:
                return self.next_poll_at
            visible_at = self.queue.next_visible_at()
            if visible_at is None:
                return None
            # The tick is the same float the empty polls would have reached.
            return walk_ticks(
                self.next_poll_at, self.poll_interval, visible_at, inclusive=False
            )[1]
        if self.mode is BUILDING:
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
        along the very ticks it spends. Neither walks a chain unless its
        next tick is due by ``now``."""
        while True:
            t = self.next_event_time()
            if t is None or t > now:
                break
            if self.mode is IDLE:
                self._poll(t)
            elif self._build.completion_at == t:  # completion wins a tie
                self._complete(t)
            else:
                self._hibernate(t)
        mode = self.mode
        if mode is BUILDING:
            build = self._build
            if build.leased and build.next_renewal_at <= now:
                self._renew_until(now, at_limit=True)
        elif mode is IDLE and self._waiting and self.next_poll_at <= now:
            self.next_poll_at = walk_ticks(
                self.next_poll_at, self.poll_interval, now, inclusive=True
            )[1]
        return t

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
        self.mode = BUILDING
        # started_at, segment_started, completion_at, next_renewal_at, leased
        self._build = _Build(
            handle,
            message.body,
            profile,
            t,
            t,
            t + profile.duration,
            t + RENEWAL_INTERVAL,
            self.queue.hold(handle),
        )

    def _renew_until(self, limit: float, at_limit: bool) -> None:
        """Make the renewal due at the last tick before ``limit`` (or at
        it, with ``at_limit``) that is not yet made. The ticks are reached
        by the same chained additions renewing at every tick would make,
        and that last renewal sets the same visibility window."""
        build = self._build
        if not build.leased:
            return
        last, t = walk_ticks(build.next_renewal_at, RENEWAL_INTERVAL, limit, at_limit)
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
        self.mode = HIBERNATED

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
        self.history.append(
            tuple.__new__(BuildEvent, (canonical, build.started_at, t, status))
        )
        self._build = None
        if build.stop_after:
            self.mode = STOPPED
        else:
            self.mode = IDLE
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
        if self.mode is IDLE:
            self.mode = STOPPED
        elif self.mode is BUILDING and not self.reclaiming:
            build = self._build
            if build.completion_at - now <= notice:
                build.stop_after = True
            else:
                build.hibernate_at = now + notice

    def resume(self, now: float) -> None:
        """Continue a hibernated build from its preserved remaining work."""
        if self.mode is not HIBERNATED:
            raise ValueError(f"worker {self.name} is not hibernated")
        build = self._build
        self.mode = BUILDING
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
        self.mode = STOPPED
