"""The farm's heap-scheduled event loop and its live pending count.

The scan loop the heap replaced is kept here as a reference: it found the
next event by asking every worker, stepped every worker due at that
instant in index order, and sorted the pending keys on every turn. Both
loops must produce the same simulation, event for event.
"""
import random

import pytest

from pacloud.bench import JobSpec, run_makespan
from pacloud.core import BuildKey
from pacloud.farm import (
    BuildFarm,
    BuildRecordStore,
    ExecutorTable,
    JobProfile,
    VirtualClock,
    WorkerMode,
)


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


def test_settled_state_matches_the_scan_loop():
    rng = random.Random(7)
    for _ in range(100):
        workers, jobs = random_jobs(rng)
        assert settled_state(
            workers, jobs, BuildFarm.run_until_settled
        ) == settled_state(workers, jobs, scan_run_until_settled)


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


@pytest.mark.parametrize("seed", range(40))
def test_advance_to_matches_the_scan_loop(seed):
    assert fault_trace(seed, BuildFarm.advance_to) == fault_trace(
        seed, scan_advance_to
    )


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
                store.finalize_built(key, f"store://{key}", float(step))
            elif op == 2:
                store.finalize_failed(key, "boom", float(step))
            else:
                store.finalize_built(f"cat/stray{step}-1.0[]", "store://x", 0.0)
            self.check(store)
        store.close()
        reopened = BuildRecordStore(tmp_path / "records")
        self.check(reopened)
        assert reopened.pending_keys() == store.pending_keys()
        reopened.create_pending("cat/late-1.0[]", 99.0)
        reopened.finalize_built(self.KEYS[0], "store://x", 100.0)
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
        assert len(calls) == 1  # run_makespan's own check after the run

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
