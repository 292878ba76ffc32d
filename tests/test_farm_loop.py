"""The farm's heap-scheduled event loop and its live pending count.

The scan loop the heap replaced is kept here as a reference: it found the
next event by asking every worker, stepped every worker due at that
instant in index order, and sorted the pending keys on every turn. It
drives ``reference_worker.ReferenceWorker``, whose renewals are events of
their own. Both loops must produce the same simulation, event for event.

So is the worker that polls at every tick of its chain, found or not,
which waiting workers replaced (``reference_worker.PollingWorker``):
skipping the polls that find nothing, and the renewals a hold makes
unnecessary, must not change the simulation either.
"""
import random
import threading

import pytest

from pacloud.bench import JobSpec, run_makespan
from pacloud.core import BuildKey
from pacloud.farm import (
    BuildFarm,
    BuildRecordStore,
    CompileQueue,
    ExecutorTable,
    JobProfile,
    VirtualClock,
    Worker,
    WorkerMode,
    build_artifact_tar,
)
from pacloud.farm import worker as worker_module
from reference_worker import PollingWorker, reference_workers


def scan_next_event_time(farm):
    times = [
        t for t in (w.next_event_time() for w in farm.workers) if t is not None
    ]
    return min(times) if times else None


def scan_step_due(farm, t):
    for worker in farm.workers:
        due = worker.next_event_time()
        if due is not None and due <= t:
            worker.step(t)


def scan_advance_to(farm, target):
    # Not part of the loop: dead letters whose holders crashed fail first.
    farm._fail_unheld_dead_letters(farm.clock.now())
    while True:
        t = scan_next_event_time(farm)
        if t is None or t > target:
            break
        if t > farm.clock.now():
            farm.clock.set_time(t)
        scan_step_due(farm, t)
    if target > farm.clock.now():
        farm.clock.set_time(target)


def scan_run_until_settled(farm, max_time):
    farm._fail_unheld_dead_letters(farm.clock.now())
    while farm.records.pending_keys():
        if farm.queue.depth() == 0 and not any(
            w.mode in (WorkerMode.BUILDING, WorkerMode.HIBERNATED)
            for w in farm.workers
        ):
            break
        t = scan_next_event_time(farm)
        if t is None or t > max_time:
            break
        if t > farm.clock.now():
            farm.clock.set_time(t)
        scan_step_due(farm, t)


def random_jobs(rng):
    """Integer durations on a 1 s poll tick and a 10 s renewal cadence, so
    many events share an instant."""
    count = rng.randint(1, 12)
    workers = rng.choice((rng.randint(1, count), rng.randint(count, 2 * count)))
    jobs = [
        JobSpec(BuildKey.parse(f"cat/p{i}-1.0[]"), float(rng.randint(1, 40)))
        for i in range(count)
    ]
    return workers, jobs


def test_makespan_matches_the_scan_loop(monkeypatch):
    rng = random.Random(20261018)
    cases = [random_jobs(rng) for _ in range(200)]
    assert sum(workers >= len(jobs) for workers, jobs in cases) > 50
    heap_docs = [run_makespan(w, jobs).to_document() for w, jobs in cases]
    monkeypatch.setattr(BuildFarm, "run_until_settled", scan_run_until_settled)
    reference_workers(monkeypatch)
    scan_docs = [run_makespan(w, jobs).to_document() for w, jobs in cases]
    assert heap_docs == scan_docs


def settled_state(workers, jobs, run_until_settled):
    """Everything a settled run leaves behind, not only what the report
    reads: events of the last instant that follow the last completion
    still have to run."""
    farm = BuildFarm(
        clock=VirtualClock(),
        executor_table=ExecutorTable(
            {job.key.canonical(): JobProfile(job.duration) for job in jobs}
        ),
        num_workers=workers,
    )
    for job in jobs:
        farm.service.handle_request(job.key)
    run_until_settled(farm, 10_000.0)
    return (
        farm.clock.now(),
        [(w.mode, w.next_event_time(), w.history) for w in farm.workers],
        farm.queue.depth(),
    )


def test_settled_state_matches_the_scan_loop(monkeypatch):
    rng = random.Random(7)
    cases = [random_jobs(rng) for _ in range(100)]
    heap_states = [
        settled_state(workers, jobs, BuildFarm.run_until_settled)
        for workers, jobs in cases
    ]
    reference_workers(monkeypatch)
    assert heap_states == [
        settled_state(workers, jobs, scan_run_until_settled)
        for workers, jobs in cases
    ]


def fault_trace(seed, advance_to):
    """Replay one seeded schedule of interrupts, resumes and crashes,
    driven by ``advance_to``; return everything the farm recorded."""
    rng = random.Random(seed)
    keys = [BuildKey.parse(f"cat/p{i}-1.0[]") for i in range(rng.randint(1, 8))]
    farm = BuildFarm(
        clock=VirtualClock(),
        executor_table=ExecutorTable(
            {k.canonical(): JobProfile(float(rng.randint(5, 300))) for k in keys}
        ),
        num_workers=rng.randint(2, 6),
    )
    for key in keys:
        farm.service.handle_request(key)
    for _ in range(80):
        advance_to(farm, farm.clock.now() + rng.randint(1, 30))
        worker = rng.choice(farm.workers)
        action = rng.random()
        if worker.mode is WorkerMode.HIBERNATED:
            worker.resume(farm.clock.now())
        elif action < 0.04:
            worker.crash()
        elif action < 0.2 and worker.mode is WorkerMode.BUILDING:
            worker.interrupt(farm.clock.now(), notice=float(rng.randint(10, 150)))
    return (
        farm.clock.now(),
        sorted((r.key, r.status, r.completed_at) for r in farm.records.all_records()),
        [(w.mode, w.history, w.busy_seconds) for w in farm.workers],
        farm.queue.depth(),
        farm.queue.dead_letters(),
    )


# Fault seeds past the first 40 whose traces change if the loop does not
# rebuild its heap after a hibernation (seed 18 is another).
REBUILD_SEEDS = (66, 81, 107, 138, 151, 174, 184, 230, 233, 259, 261)


@pytest.mark.parametrize("seed", [*range(40), *REBUILD_SEEDS])
def test_advance_to_matches_the_scan_loop(seed, monkeypatch):
    heap = fault_trace(seed, BuildFarm.advance_to)
    reference_workers(monkeypatch)
    assert heap == fault_trace(seed, scan_advance_to)


@pytest.fixture
def polling_workers(monkeypatch):
    """Call to make every farm built from then on drive workers that poll
    at every tick and renew at every renewal tick."""
    return lambda: reference_workers(monkeypatch, PollingWorker)


def test_makespan_matches_the_polling_workers(polling_workers):
    rng = random.Random(20261019)
    cases = [random_jobs(rng) for _ in range(200)]
    waiting_docs = [run_makespan(w, jobs).to_document() for w, jobs in cases]
    polling_workers()
    polling_docs = [run_makespan(w, jobs).to_document() for w, jobs in cases]
    assert waiting_docs == polling_docs


@pytest.mark.parametrize("seed", [*range(40), *REBUILD_SEEDS])
def test_faults_match_the_polling_workers(seed, polling_workers):
    waiting = fault_trace(seed, BuildFarm.advance_to)
    polling_workers()
    assert waiting == fault_trace(seed, BuildFarm.advance_to)


@pytest.mark.parametrize("seed", [*range(40), *REBUILD_SEEDS])
def test_step_returns_the_next_event_time(seed, monkeypatch):
    mismatches = []
    step = Worker.step

    def checked(self, now):
        returned = step(self, now)
        if returned != self.next_event_time():
            mismatches.append((self.name, now, returned))
        return returned

    monkeypatch.setattr(Worker, "step", checked)
    fault_trace(seed, BuildFarm.advance_to)
    assert mismatches == []


def late_request_trace(seed):
    """Request keys one by one between runs, at seeded times; about one
    request in three lands exactly on a tick an idle worker has already
    spent. Crashes leave messages to lapse, so waiting workers also wake
    for redeliveries. Return everything the farm recorded."""
    rng = random.Random(seed)
    farm = BuildFarm(
        clock=VirtualClock(),
        executor_table=ExecutorTable(
            default=JobProfile(rng.choice((3.0, 7.5, 25.25)))
        ),
        num_workers=rng.randint(1, 4),
        worker_poll_interval=rng.choice((1.0, 0.3, 0.7)),
    )
    for i in range(12):
        idle = [w for w in farm.workers if w.mode is WorkerMode.IDLE]
        if idle and rng.random() < 0.35:
            # the first tick the idle worker has not polled at or spent
            target = rng.choice(idle).next_poll_at
        else:
            step = rng.choice((rng.randint(0, 20), rng.uniform(0, 20)))
            target = farm.clock.now() + step
        farm.advance_to(target)
        building = [
            w for w in farm.workers[1:] if w.mode is WorkerMode.BUILDING
        ]
        if building and rng.random() < 0.3:
            rng.choice(building).crash()
        farm.service.handle_request(BuildKey.parse(f"cat/p{i}-1.0[]"))
        if rng.random() < 0.2:
            farm.run_until_settled(farm.clock.now() + 100.0)
    farm.run_until_settled(farm.clock.now() + 1000.0)
    return (
        farm.clock.now(),
        sorted((r.key, r.status, r.completed_at) for r in farm.records.all_records()),
        [(w.mode, w.history, w.busy_seconds, w.next_poll_at) for w in farm.workers],
        farm.queue.dead_letters(),
    )


@pytest.mark.parametrize("seed", range(40))
def test_late_requests_match_the_polling_workers(seed, polling_workers):
    waiting = late_request_trace(seed)
    polling_workers()
    assert waiting == late_request_trace(seed)


def test_late_requests_need_the_spent_ticks(monkeypatch):
    # Without spending the idle workers' ticks at the end of a run, a
    # request on a spent tick is picked up one tick early.
    spent = [late_request_trace(seed) for seed in range(40)]
    monkeypatch.setattr(BuildFarm, "_spend_ticks", lambda farm: None)
    assert spent != [late_request_trace(seed) for seed in range(40)]


def test_a_run_that_settles_at_once_spends_no_tick(polling_workers):
    # A fresh worker's first poll is due at once; a run with nothing to
    # settle leaves it due, so a request made next is taken at that tick.
    def history():
        farm = BuildFarm(clock=VirtualClock(5.0))
        farm.run_until_settled(100.0)
        farm.service.handle_request(BuildKey.parse("cat/p-1.0[]"))
        farm.run_until_settled(100.0)
        return farm.workers[0].history

    waiting = history()
    assert waiting[0].started_at == 5.0
    polling_workers()
    assert history() == waiting


class TestWaitingWorkers:
    JOBS = [JobSpec(BuildKey.parse(f"cat/p{i}-1.0[]"), 30.0) for i in range(10)]

    def test_idle_workers_do_not_poll_an_empty_queue(self, monkeypatch):
        calls = []
        receive = CompileQueue.receive
        monkeypatch.setattr(
            CompileQueue,
            "receive",
            lambda self, now: calls.append(now) or receive(self, now),
        )
        assert run_makespan(3, self.JOBS).total == 120.0
        assert len(calls) <= len(self.JOBS) + 3

    def test_a_replay_builds_no_tar(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            worker_module, "build_artifact_tar", lambda key: calls.append(key)
        )
        assert run_makespan(3, self.JOBS).total == 120.0
        assert calls == []

    def test_an_artifact_in_memory_is_built_once_when_read(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            worker_module,
            "build_artifact_tar",
            lambda key: calls.append(key) or build_artifact_tar(key),
        )
        farm = BuildFarm(clock=VirtualClock())
        key = self.JOBS[0].key
        farm.service.handle_request(key)
        farm.run_until_settled(100.0)
        assert calls == []
        assert farm.artifacts.get(key) == build_artifact_tar(key)
        assert farm.artifacts.get(key) == build_artifact_tar(key)
        assert calls == [key]


class TestLeases:
    JOBS = TestWaitingWorkers.JOBS
    KEY = JOBS[0].key

    def test_a_replay_renews_nothing(self, monkeypatch):
        renewals, steps = [], []
        renew, step = CompileQueue.renew, Worker.step
        monkeypatch.setattr(
            CompileQueue,
            "renew",
            lambda self, handle, now: renewals.append(now)
            or renew(self, handle, now),
        )
        monkeypatch.setattr(
            Worker, "step", lambda self, now: steps.append(now) or step(self, now)
        )
        assert run_makespan(3, self.JOBS).total == 120.0
        assert renewals == []
        assert len(steps) <= 2 * len(self.JOBS) + 3

    def test_a_hibernation_wakes_a_waiting_worker_in_the_same_run(self):
        farm = BuildFarm(
            clock=VirtualClock(),
            executor_table=ExecutorTable(default=JobProfile(500.0)),
            num_workers=2,
            worker_poll_interval=0.7,
        )
        builder, waiter = farm.workers
        farm.service.handle_request(self.KEY)
        farm.advance_to(0.0)
        assert builder.mode is WorkerMode.BUILDING
        assert waiter.next_event_time() is None  # only a held message
        builder.interrupt(0.0, notice=25.0)
        farm.advance_to(100.0)
        # renewed at 10 and 20, so visible 15 s after 20
        wake = 0.0
        while wake < 20.0 + 15.0:
            wake += 0.7
        assert builder.mode is WorkerMode.HIBERNATED
        assert waiter.mode is WorkerMode.BUILDING
        farm.advance_to(wake + 500.0)
        assert waiter.history[0].started_at == wake
        assert farm.records.get(self.KEY.canonical()).completed_at == wake + 500.0

    def test_an_unsettled_run_lands_on_its_max_time(self):
        farm = BuildFarm(
            clock=VirtualClock(),
            executor_table=ExecutorTable(default=JobProfile(100.0)),
            num_workers=2,
        )
        farm.service.handle_request(self.KEY)
        farm.run_until_settled(58.0)  # renewal ticks 10-50, completion 100
        assert farm.clock.now() == 58.0
        assert farm.workers[1].next_poll_at == 59.0  # ticks spent up to 58
        farm.run_until_settled(80.0)
        assert farm.clock.now() == 80.0
        farm.run_until_settled(1000.0)
        assert farm.clock.now() == 100.0
        assert farm.records.get(self.KEY.canonical()).completed_at == 100.0


class TestOneLock:
    """Only ``RequestService.exchange`` takes the farm's one lock, once per
    request; a replay takes none, and the queue and the stores take none
    of their own."""

    def test_only_an_exchange_takes_the_lock(self, monkeypatch):
        acquired = []
        real = threading.Lock

        class CountingLock:
            def __init__(self):
                self._lock = real()

            def acquire(self, *args, **kwargs):
                acquired.append(self)
                return self._lock.acquire(*args, **kwargs)

            def release(self):
                self._lock.release()

            def __enter__(self):
                return self.acquire()

            def __exit__(self, *exc):
                self.release()

        monkeypatch.setattr(threading, "Lock", CountingLock)
        jobs = TestWaitingWorkers.JOBS
        assert run_makespan(3, jobs).total == 120.0
        assert acquired == []
        farm = BuildFarm(clock=VirtualClock(), num_workers=3)
        farm.service.exchange({"type": "build", "keys": [jobs[0].key.canonical()]})
        assert acquired == [farm.lock]


class TestPendingCount:
    KEYS = [f"cat/p{i}-1.0[]" for i in range(6)]

    def check(self, store):
        assert store.pending_count() == len(store.pending_keys())

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pending_keys(self, tmp_path, seed):
        rng = random.Random(seed)
        store = BuildRecordStore(tmp_path / "records")
        store.finalize_failed("cat/never-requested-1.0[]", "stray", 0.0)
        self.check(store)
        for step in range(60):
            key = rng.choice(self.KEYS)
            op = rng.randrange(4)
            if op == 0:
                store.create_pending(key, float(step))
            elif op == 1:
                store.finalize_built(key, float(step))
            elif op == 2:
                store.finalize_failed(key, "boom", float(step))
            else:
                store.finalize_built(f"cat/stray{step}-1.0[]", 0.0)
            self.check(store)
        store.close()
        reopened = BuildRecordStore(tmp_path / "records")
        self.check(reopened)
        assert reopened.pending_keys() == store.pending_keys()
        reopened.create_pending("cat/late-1.0[]", 99.0)
        reopened.finalize_built(self.KEYS[0], 100.0)
        reopened.close()
        self.check(reopened)

    def test_settled_run_reads_the_count_not_the_sorted_keys(self, monkeypatch):
        calls = []
        sorted_keys = BuildRecordStore.pending_keys
        monkeypatch.setattr(
            BuildRecordStore,
            "pending_keys",
            lambda self: calls.append(1) or sorted_keys(self),
        )
        jobs = [
            JobSpec(BuildKey.parse(f"cat/p{i}-1.0[]"), 30.0) for i in range(10)
        ]
        report = run_makespan(3, jobs)
        assert report.total == 120.0
        assert calls == []  # the sorted keys only name unfinished jobs

    def test_completions_read_no_record_without_a_resume(self, monkeypatch):
        calls = []
        get = BuildRecordStore.get
        monkeypatch.setattr(
            BuildRecordStore,
            "get",
            lambda self, key: calls.append(key) or get(self, key),
        )
        jobs = [
            JobSpec(BuildKey.parse(f"cat/p{i}-1.0[]"), 30.0) for i in range(10)
        ]
        assert run_makespan(3, jobs).total == 120.0
        # one lookup per request by the service; completions read none
        assert calls == [job.key.canonical() for job in jobs]
