"""The desk-scale build farm: queue, stores, workers and request service.

``BuildFarm`` wires the pieces together over one clock and drives the
workers event by event, which keeps every run bit-reproducible under a
virtual clock. Given a root directory the queue, record store and
artifact store persist as files beneath it: the queue and the records as
append-only journals (``queue.jsonl``, ``records/records.jsonl``), the
artifacts as tars. ``close`` releases the journals' open handles. The
same directory doubles as the package store surface the client syncs
from and downloads artifacts out of. Without a root everything stays in
memory and no journal code runs. Opening a root writes nothing, and a
root holding a file of an earlier layout is refused before that.
"""
from __future__ import annotations

import heapq
import threading
from pathlib import Path

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
    BuildEvent,
    ExecutionResult,
    ExecutorFactory,
    ExecutorTable,
    JobProfile,
    SimulatedExecutor,
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
    "ExecutionResult",
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
    "SimulatedExecutor",
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
        worker_poll_interval: float = 1.0,
    ):
        self.clock = clock or VirtualClock()
        self.root = Path(root) if root else None
        for pattern in EARLIER_VERSION_PATHS if self.root else ():
            if found := sorted(self.root.glob(pattern)):
                raise FarmStateError(
                    f"{found[0]}: left by an earlier version; remove queue.jsonl,"
                    f" records/ and {ARTIFACT_DIR}/, and the farm builds each"
                    f" key again when it is next requested"
                )
        queue_path = self.root / "queue.jsonl" if self.root else None
        records_dir = self.root / "records" if self.root else None
        artifacts_dir = self.root / ARTIFACT_DIR if self.root else None
        self.queue = CompileQueue(queue_path, on_dead_letter=self._dead_lettered)
        self.records = BuildRecordStore(records_dir)
        self.artifacts = ArtifactStore(artifacts_dir)
        # keys whose records may still be pending, also those a crash left
        self._dead_letters: set[str] = {
            m.body for m in self.queue.dead_letters()
            if (r := self.records.get(m.body)) and r.status == PENDING
        }
        self.executor_factory = ExecutorFactory(executor_table)
        start = self.clock.now()
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
        self.service = RequestService(self.records, self.queue, self.clock)
        self._server: FarmServer | None = None
        self._pump_stop: threading.Event | None = None
        self._pump_thread: threading.Thread | None = None

    # --- service mode ---

    def start_service(
        self, host: str = "127.0.0.1", port: int = 0, pump_interval: float = 0.02
    ) -> FarmServer:
        """Serve the wire protocol and keep the workers polling.

        Service mode is meant for a wall clock: workers are stepped from a
        background thread at the pump interval until stop_service().
        """
        self._server = FarmServer(self.service, host, port).start()
        self._pump_stop = threading.Event()

        def pump() -> None:
            while not self._pump_stop.is_set():
                self._fail_unheld_dead_letters(self.clock.now())
                for worker in self.workers:
                    worker.step(self.clock.now())
                self._pump_stop.wait(pump_interval)

        self._pump_thread = threading.Thread(target=pump, daemon=True)
        self._pump_thread.start()
        return self._server

    def stop_service(self) -> None:
        if self._pump_stop is not None:
            self._pump_stop.set()
        if self._pump_thread is not None:
            self._pump_thread.join()
            self._pump_thread = None
        if self._server is not None:
            self._server.stop()
            self._server = None

    def close(self) -> None:
        """Stop serving, if serving, and close the journals."""
        self.stop_service()
        self.queue.close()
        self.records.close()

    # --- event-driven simulation ---

    def next_event_time(self) -> float | None:
        times = [
            t
            for t in (w.next_event_time() for w in self.workers)
            if t is not None
        ]
        return min(times) if times else None

    def advance_to(self, target: float) -> None:
        """Run all worker events up to the target time, then land on it."""
        self._run(target, settle=False)
        if target > self.clock.now():
            self.clock.set_time(target)

    def run_until_settled(self, max_time: float) -> None:
        """Run until no record is pending, or progress becomes impossible."""
        self._run(max_time, settle=True)

    def _run(self, limit: float, settle: bool) -> None:
        """Drive the workers' events in time order, up to ``limit``.

        A min-heap holds each driven worker's next event as ``(time,
        index)``, so events at one instant run in worker order. Only a
        worker changes its own event times, and external calls
        (``interrupt``, ``resume``, ``crash``) come between runs, so the
        heap is built once per call and never goes stale. With
        ``settle``, the run stops once every event of an instant has run
        and no record is pending, or nothing left can settle one.
        """
        assert isinstance(self.clock, VirtualClock)
        self._fail_unheld_dead_letters(self.clock.now())
        heap = [
            (t, i)
            for i, t in enumerate(w.next_event_time() for w in self.workers)
            if t is not None
        ]
        heapq.heapify(heap)
        instant = None
        while heap:
            t, i = heap[0]
            if t != instant:
                if t > limit or (settle and self._settled()):
                    return
                if t > self.clock.now():
                    self.clock.set_time(t)
                instant = t
            worker = self.workers[i]
            worker.step(t)
            after = worker.next_event_time()
            if after is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (after, i))

    def _settled(self) -> bool:
        if self.records.pending_count() == 0:
            return True
        return self.queue.depth() == 0 and not any(
            w.mode in (WorkerMode.BUILDING, WorkerMode.HIBERNATED)
            for w in self.workers
        )

    # --- dead letters ---

    def _dead_lettered(self, canonical: str, now: float) -> None:
        self._dead_letters.add(canonical)
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
