"""The desk-scale build farm: queue, stores, workers and request service.

``BuildFarm`` wires the pieces together over one clock and drives the
workers event by event, which keeps every run bit-reproducible under a
virtual clock. Given a root directory the record store and artifact
store persist as files beneath it: the records as an append-only journal
(``records/records.jsonl``), the artifacts as tars. ``close`` releases
the journal's open handle. The queue stays in memory: a farm that opens
a root sends one message for each pending record, in journal order, so
delivery counts and the dead-letter list belong to one farm process. The
same directory doubles as the package store surface the client syncs
from and downloads artifacts out of. Without a root everything stays in
memory and no journal code runs. Opening a root writes nothing, and a
root holding a file of an earlier layout is refused before that.

A farm moves in one of two ways. A farm served or handed to a client
moves inside ``RequestService.exchange``: under the farm's one lock,
``BuildFarm.lock``, it runs every event due by the request's arrival,
each at its own time, and then answers the request. So a served farm
runs on its server's one thread and only at its requests, and a client
on a virtual clock moves the farm by its requests, never by its sleeps.
An unserved farm moves by ``advance_to`` or ``run_until_settled``, on
the one thread that owns it, and nothing else takes the lock. The queue
and the stores take no lock of their own. Another thread reads a served
farm's stores, or calls a worker's ``interrupt``, ``resume`` or
``crash``, in process and only while it holds ``BuildFarm.lock``; it
then sees the farm as of the last request.
"""
from __future__ import annotations

import threading
from heapq import heapify, heappop, heapreplace
from pathlib import Path

from ..core import BuildKey
from ..errors import FarmStateError
from ..wire import ARTIFACT_DIR
from .clock import Clock, VirtualClock, WallClock
from .commands import generate_emerge_commands
from .queue import (
    DEAD_LETTER_ERROR,
    MAX_DELIVERIES,
    RENEWAL_INTERVAL,
    VISIBILITY_TIMEOUT,
    CompileQueue,
    ReceivedMessage,
)
from .service import FarmServer, RequestService
from .stores import (
    BUILT,
    FAILED,
    PENDING,
    ArtifactStore,
    BuildRecord,
    BuildRecordStore,
)
from .worker import (
    BUILDING,
    DEFAULT_POLL_INTERVAL,
    HIBERNATED,
    BuildEvent,
    ExecutorFactory,
    ExecutorTable,
    JobProfile,
    Worker,
    WorkerMode,
    build_artifact_tar,
)

__all__ = [
    "ArtifactStore",
    "BuildEvent",
    "BuildFarm",
    "BuildRecord",
    "BuildRecordStore",
    "BUILT",
    "Clock",
    "CompileQueue",
    "DEAD_LETTER_ERROR",
    "ExecutorFactory",
    "ExecutorTable",
    "FAILED",
    "FarmServer",
    "JobProfile",
    "MAX_DELIVERIES",
    "PENDING",
    "ReceivedMessage",
    "RENEWAL_INTERVAL",
    "RequestService",
    "VirtualClock",
    "VISIBILITY_TIMEOUT",
    "WallClock",
    "Worker",
    "WorkerMode",
    "build_artifact_tar",
    "generate_emerge_commands",
]


# Files only earlier versions of the farm wrote. Their ``queue.json`` is
# not listed: it may be the document of a store category ``queue``.
EARLIER_VERSION_PATHS = (
    "records/*.json",
    f"{ARTIFACT_DIR}/index.jsonl",
    f"{ARTIFACT_DIR}/index.json",
)


class BuildFarm:
    def __init__(
        self,
        clock: Clock | None = None,
        root: str | Path | None = None,
        executor_table: ExecutorTable | None = None,
        num_workers: int = 1,
        worker_poll_interval: float = DEFAULT_POLL_INTERVAL,
    ):
        self.clock = clock or VirtualClock()
        self.root = Path(root) if root else None
        for pattern in EARLIER_VERSION_PATHS if self.root else ():
            if found := sorted(self.root.glob(pattern)):
                raise FarmStateError(
                    f"{found[0]}: left by an earlier version; remove records/"
                    f" and {ARTIFACT_DIR}/, and the farm builds each key again"
                    f" when it is next requested"
                )
        records_dir = self.root / "records" if self.root else None
        artifacts_dir = self.root / ARTIFACT_DIR if self.root else None
        self.queue = CompileQueue(on_dead_letter=self._dead_lettered)
        self.records = BuildRecordStore(records_dir)
        self.artifacts = ArtifactStore(artifacts_dir)
        # dead-lettered keys whose records may still be pending
        self._dead_letters: set[str] = set()
        self.executor_factory = ExecutorFactory(executor_table)
        start = self.clock.now()
        for key in self.records.pending_at_open:
            self.queue.send(key, start)
        self.workers = [
            Worker(
                f"worker{i}",
                self.queue,
                self.records,
                self.artifacts,
                self.executor_factory,
                poll_interval=worker_poll_interval,
                start_time=start,
            )
            for i in range(num_workers)
        ]
        self.lock = threading.Lock()
        self.service = RequestService(self)
        self._server: FarmServer | None = None

    # --- service mode ---

    def start_service(self, host: str = "127.0.0.1", port: int = 0) -> FarmServer:
        """Serve the wire protocol, answering each request by
        ``service.exchange``.

        Service mode is meant for a wall clock. The workers run on the
        server's thread, at each request, so a record is finalized and
        its journal line written when the next request arrives.
        """
        self._server = FarmServer(self.service, host, port).start()
        return self._server

    def stop_service(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None

    def close(self) -> None:
        """Stop serving, if serving, and close the record journal."""
        self.stop_service()
        self.records.close()

    # --- event-driven simulation ---

    def next_event_time(self) -> float | None:
        return min(
            (t for w in self.workers if (t := w.next_event_time()) is not None),
            default=None,
        )

    def advance_to(self, target: float) -> None:
        """Run all worker events up to the target time, then land on it."""
        self._run(target, settle=False)

    def run_until_settled(self, max_time: float) -> None:
        """``advance_to(max_time)``, stopping at the first instant by which
        no record is pending or progress has become impossible.

        A run that settles leaves the clock on the last instant whose
        events ran, or where it was if the farm had settled already. A
        run that does not settle lands on ``max_time``, as ``advance_to``
        does, so a later call continues from there.
        """
        self._run(max_time, settle=True)

    def _run(self, limit: float, settle: bool) -> None:
        """Drive the workers' events in time order up to ``limit``, land
        on ``limit`` unless the run settled, then spend the ticks up to
        where the clock stands.

        A min-heap holds each driven worker's next event as ``(time,
        index)``, so events at one instant run in worker order. External
        calls (``interrupt``, ``resume``, ``crash``) and queue sends come
        between runs, never during one (see the module docstring), so
        within one run the queue's earliest visible time can only grow: a
        receive, a hold, a delete or a dead letter never brings it nearer.
        A waiting worker's entry can therefore only be early, never late,
        and an early wake does nothing but spend ticks and queue the
        worker again; every other worker changes only its own event
        times. The one exception is a hibernation: it lapses its worker's
        hold, and the message that resurfaces can wake a waiting worker
        sooner than its entry, or one that has none. So the heap is built
        at the start of a call and again after a step that leaves its
        worker hibernated. With ``settle``, the run stops
        once every event of an instant has run and no record is pending,
        or nothing left can settle one. Within the loop the clock is set
        only to event times up to ``limit``, so a run up to a wall
        clock's reading (a served farm's, at each request) never moves it.
        """
        clock, workers = self.clock, self.workers
        self._fail_unheld_dead_letters(clock.now())
        heap = self._event_heap()
        instant = None
        while heap:
            t, i = heap[0]
            if t != instant:
                if settle and self._settled() or t > limit:
                    break
                if t > clock.now():
                    clock.set_time(t)
                instant = t
            worker = workers[i]
            after = worker.step(t)
            if worker.mode is HIBERNATED:
                heap = self._event_heap()
            elif after is None:
                heappop(heap)
            else:
                heapreplace(heap, (after, i))
        if not (settle and self._settled()) and limit > clock.now():
            clock.set_time(limit)
        self._spend_ticks()

    def _event_heap(self) -> list[tuple[float, int]]:
        heap = [
            (t, i)
            for i, t in enumerate(w.next_event_time() for w in self.workers)
            if t is not None
        ]
        heapify(heap)
        return heap

    def _spend_ticks(self) -> None:
        """Spend the waiting workers' poll ticks up to now, as the empty
        polls at them would have, so a message sent at this instant is
        first polled at the next tick, and make each builder's renewal due
        by now. A worker with an event still due (a run that settled
        before reaching it) keeps it for the next run.
        """
        now = self.clock.now()
        for worker in self.workers:
            t = worker.next_event_time()
            if t is None or t > now:
                worker.step(now)

    def _settled(self) -> bool:
        if self.records.pending_count() == 0:
            return True
        return self.queue.depth() == 0 and not any(
            w.mode is BUILDING or w.mode is HIBERNATED
            for w in self.workers
        )

    # --- dead letters ---

    def _dead_lettered(self, key: BuildKey, now: float) -> None:
        self._dead_letters.add(key.canonical())
        self._fail_unheld_dead_letters(now)

    def _fail_unheld_dead_letters(self, now: float) -> None:
        """Fail the record of each dead-lettered key no worker holds.

        A building or hibernated worker may yet publish its build, so
        while one holds the key its record waits; it fails once that
        worker has crashed. First write wins, so a record the holder
        finalized meanwhile keeps its status.
        """
        for canonical in sorted(self._dead_letters):
            if not any(w.holding == canonical for w in self.workers):
                self._dead_letters.discard(canonical)
                self.records.finalize_failed(canonical, DEAD_LETTER_ERROR, now)
