import random
from pathlib import Path

import pytest
from conftest import assert_frozen

from pacloud.core import BuildKey
from pacloud.errors import FarmStateError
from pacloud.farm import (
    ArtifactStore,
    BuildFarm,
    BuildRecordStore,
    CompileQueue,
    ExecutorFactory,
    ExecutorTable,
    JobProfile,
    VirtualClock,
    Worker,
    WorkerMode,
    build_artifact_tar,
)
from pacloud.farm.stores import BUILT, FAILED, PENDING
from pacloud.farm.worker import walk_ticks
from pacloud.files import json_line
from pacloud.wire import ARTIFACT_SUFFIX

KEY = BuildKey.parse("sys-libs/ncurses-6.1-r2[]")


def stored_keys(directory):
    """The canonical keys of the artifacts an on-disk store holds: its
    tar files, each named by its key's path token."""
    return sorted(
        BuildKey.from_path_token(path.name.removesuffix(ARTIFACT_SUFFIX)).canonical()
        for path in Path(directory).glob(f"*{ARTIFACT_SUFFIX}")
    )


def make_farm(profiles=None, num_workers=1, default=JobProfile(duration=10.0)):
    table = ExecutorTable(profiles or {}, default=default)
    return BuildFarm(
        clock=VirtualClock(), executor_table=table, num_workers=num_workers
    )


class SpyQueue(CompileQueue):
    def __init__(self):
        super().__init__()
        self.renewals = []

    def renew(self, handle, now):
        self.renewals.append(now)
        return super().renew(handle, now)


class TestWorkerLifecycle:
    def test_renewals_every_ten_seconds_and_no_redelivery(self):
        queue = SpyQueue()
        records = BuildRecordStore()
        artifacts = ArtifactStore()
        factory = ExecutorFactory(ExecutorTable(default=JobProfile(duration=25.0)))
        worker = Worker("w0", queue, records, artifacts, factory)
        rival = Worker("w1", queue, records, artifacts, factory)
        queue.send(KEY, now=0.0)
        worker.step(0.0)
        assert worker.mode is WorkerMode.BUILDING
        for t in range(1, 25):
            rival.step(float(t))  # a second worker keeps polling throughout
            worker.step(float(t))
        worker.step(25.0)
        assert queue.renewals == [10.0, 20.0]
        assert worker.mode is WorkerMode.IDLE
        assert rival.history == []  # never got the message mid-build
        record = records.get(KEY.canonical())
        assert record.status == BUILT
        assert record.completed_at == 25.0
        assert queue.depth() == 0

        # Stepped straight to a time, a builder renews once, at the last
        # tick up to it: at the tick itself when the time falls on one.
        queue = SpyQueue()
        factory = ExecutorFactory(ExecutorTable(default=JobProfile(duration=45.0)))
        worker = Worker("w2", queue, BuildRecordStore(), artifacts, factory)
        queue.send(KEY, now=0.0)
        worker.step(0.0)
        for now, renewed in [
            (9.99, []), (10.0, [10.0]), (29.99, [20.0]), (30.0, [30.0])
        ]:
            queue.renewals.clear()
            worker.step(now)
            assert queue.renewals == renewed, now
        # A hibernation on a renewal tick does not renew at the tie, so
        # the message resurfaces 15 s after the renewal at 30.
        worker.interrupt(30.0, notice=10.0)
        queue.renewals.clear()
        worker.step(40.0)
        assert worker.mode is WorkerMode.HIBERNATED
        assert queue.renewals == []
        assert queue.next_visible_at() == 45.0

    def test_failure_preserves_error_and_stores_nothing(self):
        error_text = "configure: error: missing x"
        farm = make_farm({KEY.canonical(): JobProfile(5.0, error=error_text)})
        farm.service.handle_request(KEY)
        farm.run_until_settled(100.0)
        record = farm.records.get(KEY.canonical())
        assert record.status == FAILED
        assert record.error_message == error_text
        assert farm.artifacts.get(KEY) is None
        assert farm.queue.depth() == 0

    def test_profiles_and_build_events_are_frozen(self):
        farm = make_farm({KEY.canonical(): JobProfile(5.0, error="boom")})
        farm.service.handle_request(KEY)
        farm.run_until_settled(100.0)
        [event] = farm.workers[0].history
        assert event.status == FAILED
        assert_frozen(event)
        assert_frozen(farm.executor_factory(KEY))
        assert_frozen(farm.executor_factory.table.default)

    def test_fresh_executor_per_message(self):
        farm = make_farm(num_workers=2, default=JobProfile(duration=3.0))
        keys = [BuildKey.parse(f"cat/p{i}-1.0[]") for i in range(5)]
        for key in keys:
            farm.service.handle_request(key)
        farm.run_until_settled(1000.0)
        assert farm.executor_factory.created == 5
        builds = sum(len(w.history) for w in farm.workers)
        assert builds == 5

    def test_crash_redelivery_single_terminal_record(self):
        farm = make_farm(num_workers=2, default=JobProfile(duration=20.0))
        farm.service.handle_request(KEY)
        victim, backup = farm.workers
        victim.step(0.0)
        assert victim.mode is WorkerMode.BUILDING
        farm.clock.set_time(10.0)
        victim.step(10.0)  # renews at t=10, pushing visibility to t=25
        victim.crash()  # vanishes without deleting; 50% done
        # visibility lapses 15 s after the last renewal at t=10
        backup.step(24.0)
        assert backup.mode is WorkerMode.IDLE
        backup.step(25.0)
        assert backup.mode is WorkerMode.BUILDING
        backup.step(45.0)
        record = farm.records.get(KEY.canonical())
        assert record.status == BUILT
        terminal = [r for r in farm.records.all_records() if r.terminal]
        assert len(terminal) == 1
        assert farm.artifacts.get(KEY) == build_artifact_tar(KEY)
        assert farm.queue.depth() == 0


class TestInterruption:
    def test_finishes_normally_within_notice(self):
        farm = make_farm(default=JobProfile(duration=100.0))
        farm.service.handle_request(KEY)
        worker = farm.workers[0]
        worker.step(0.0)
        farm.clock.set_time(50.0)
        worker.step(50.0)
        worker.interrupt(50.0, notice=120.0)  # 50 s of work left fits
        worker.step(100.0)
        record = farm.records.get(KEY.canonical())
        assert record.status == BUILT
        assert record.completed_at == 100.0
        assert worker.mode is WorkerMode.STOPPED  # reclaimed after finishing

    @pytest.mark.parametrize("notice", [120.0, 10.0])
    def test_a_notice_ends_with_its_build(self, notice):
        """Whether the build would finish inside the notice (120 s) or
        hibernate when it runs out (10 s), the notice is pending until the
        build ends: by a completion, or by a crash before either."""
        farm = make_farm(default=JobProfile(duration=100.0))
        farm.service.handle_request(KEY)
        worker = farm.workers[0]
        worker.step(0.0)
        worker.interrupt(50.0, notice=notice)
        assert worker.reclaiming and worker.holding == KEY.canonical()
        if notice > 50.0:
            worker.step(100.0)
            assert farm.records.get(KEY.canonical()).status == BUILT
        else:
            worker.crash()
        assert worker.mode is WorkerMode.STOPPED
        assert not worker.reclaiming
        assert worker.holding is None

    def test_hibernation_preserves_remaining_work(self):
        farm = make_farm(default=JobProfile(duration=500.0))
        farm.service.handle_request(KEY)
        worker = farm.workers[0]
        worker.step(0.0)
        worker.interrupt(100.0, notice=120.0)
        worker.step(220.0)  # works through the notice, then freezes
        assert worker.mode is WorkerMode.HIBERNATED
        worker.resume(1000.0)
        assert worker.mode is WorkerMode.BUILDING
        worker.step(1280.0)  # 500 - 220 = 280 seconds of work left
        record = farm.records.get(KEY.canonical())
        assert record.status == BUILT
        assert record.completed_at == 1280.0

    def test_resumed_worker_discards_when_other_finished(self, monkeypatch):
        farm = make_farm(num_workers=2, default=JobProfile(duration=200.0))
        puts = []
        real_put = farm.artifacts.put

        def spy_put(key, data):
            puts.append(key.canonical())
            return real_put(key, data)

        monkeypatch.setattr(farm.artifacts, "put", spy_put)
        farm.service.handle_request(KEY)
        first, second = farm.workers
        first.step(0.0)
        first.interrupt(0.0, notice=10.0)
        first.step(10.0)
        assert first.mode is WorkerMode.HIBERNATED
        # the visibility window lapses at t=15; the rival takes the message
        second.step(25.0)
        assert second.mode is WorkerMode.BUILDING
        second.step(225.0)
        assert farm.records.get(KEY.canonical()).status == BUILT
        first.resume(300.0)
        first.step(490.0)  # 190 remaining seconds after resume
        assert first.history[-1].status == "discarded"
        terminal = [r for r in farm.records.all_records() if r.terminal]
        assert len(terminal) == 1
        assert farm.artifacts.get(KEY) == build_artifact_tar(KEY)
        assert puts == [KEY.canonical()]

    def test_interrupt_idle_worker_stops_polling(self):
        farm = make_farm()
        worker = farm.workers[0]
        worker.interrupt(0.0)
        assert worker.mode is WorkerMode.STOPPED
        assert worker.next_event_time() is None
        farm.service.handle_request(KEY)
        worker.step(100.0)
        assert farm.records.get(KEY.canonical()).status == PENDING

    def test_resume_requires_hibernation(self):
        farm = make_farm()
        with pytest.raises(ValueError):
            farm.workers[0].resume(0.0)


class TestWalkTicks:
    """``walk_ticks`` reaches the floats of the chained loop it replaced,
    and of the worker's three loops before that."""

    @staticmethod
    def chained(t, interval, limit, inclusive):
        """The oracle: one addition per tick, as ``walk_ticks`` was."""
        last = None
        while t < limit or (inclusive and t == limit):
            last = t
            t += interval
            if t == last:
                raise ValueError(f"a tick chain stops moving at {t}")
        return last, t

    @staticmethod
    def loops(t, interval, limit, inclusive):
        """The worker's three loops, as they were written out."""
        first_at_or_after = t  # the next poll of a waiting worker
        while first_at_or_after < limit:
            first_at_or_after += interval
        first_after = t  # the ticks a waiting worker spends
        while first_after <= limit:
            first_after += interval
        last = None  # the last renewal due
        while t < limit or (inclusive and t == limit):
            last = t
            t += interval
        return last, t, (first_after if inclusive else first_at_or_after)

    @staticmethod
    def outcome(walk, *args):
        try:
            return walk(*args)
        except ValueError as exc:
            return str(exc)

    @staticmethod
    def tie_binade(interval):
        """The first float of the binade whose ulp is twice the lowest bit
        of ``interval``: there every sum leaves half an ulp over."""
        numerator, denominator = interval.as_integer_ratio()
        lowest = (numerator & -numerator) / denominator
        return 2 * lowest * 2.0**52

    @pytest.mark.parametrize(
        "interval", [1.0, 0.1, 1 / 3, 0.7, 0.3, 10.0, 3.0, 2.75, 1.5]
    )
    def test_matches_the_loops(self, interval):
        rng = random.Random(interval)
        for case in range(600):
            kind = case % 3
            if kind == 0:  # below a power of two, often below zero: crosses
                # binades, and from below zero through the subnormals
                start = 2.0 ** rng.randint(-3, 20) - rng.uniform(0, 20 * interval)
            elif kind == 1:  # into and through the binade of half-ulp ties
                binade = self.tie_binade(interval)
                start = binade * rng.uniform(1, 2) - rng.randint(0, 40) * interval
            else:
                start = rng.choice([0.0, rng.uniform(0, 1e6)])
            ticks = [start]
            for _ in range(rng.randint(0, 300)):
                ticks.append(ticks[-1] + interval)
            # a limit on the chain itself decides the inclusive case
            limit = rng.choice(
                [ticks[-1], ticks[-1] + rng.uniform(0, interval), start - 1.0]
            )
            expected = {
                inclusive: self.outcome(self.chained, start, interval, limit, inclusive)
                for inclusive in (False, True)
            }
            for inclusive in (False, True):
                args = (start, interval, limit, inclusive)
                assert self.outcome(walk_ticks, *args) == expected[inclusive], (
                    case, args
                )
                # the loops have no check: they hang where a chain stops
                if all(isinstance(e, tuple) for e in expected.values()):
                    last, past, first = self.loops(*args)
                    assert expected[inclusive] == (last, past), (case, args)
                    assert past == first, (case, args)

    @pytest.mark.parametrize("interval", [0.1, 1 / 3, 1.0, 2.75])
    @pytest.mark.parametrize("inclusive", [False, True])
    def test_matches_a_long_chain(self, interval, inclusive):
        limit = 20_000 * interval
        expected = self.chained(0.0, interval, limit, inclusive)
        assert walk_ticks(0.0, interval, limit, inclusive) == expected

    @pytest.mark.parametrize("inclusive", [False, True])
    def test_a_chain_that_stops_moving_raises(self, inclusive):
        with pytest.raises(ValueError, match="a tick chain stops moving at 1e"):
            walk_ticks(1e18, 1.0, 2e18, inclusive)
        assert walk_ticks(1e18, 1.0, 1e18, False) == (None, 1e18)
        # 2**53 + 1 rounds back to 2**53, after the chain crossed a binade
        # in one jump
        start = 2.0**53 - 10.0
        args = (start, 1.0, 2.0**54, inclusive)
        assert self.outcome(walk_ticks, *args) == self.outcome(self.chained, *args)
        with pytest.raises(ValueError, match="a tick chain stops moving at"):
            walk_ticks(*args)


class TestArtifactStore:
    def test_first_write_wins(self):
        store = ArtifactStore()
        store.put(KEY, b"original")
        store.put(KEY, b"imposter")
        assert store.get(KEY) == b"original"

    def test_persistence_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, b"bytes")
        reloaded = ArtifactStore(tmp_path)
        assert reloaded.get(KEY) == b"bytes"
        assert (tmp_path / f"{KEY.path_token()}.tar").is_file()

    def test_a_second_put_writes_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        other = BuildKey.parse("cat_x/pkg-1.0[]")
        store.put(KEY, b"a")

        def files():
            return {
                p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
                for p in tmp_path.iterdir()
            }

        before = files()
        store.put(KEY, b"again")
        assert files() == before
        store.put(other, b"b")
        reloaded = ArtifactStore(tmp_path)
        assert reloaded.get(KEY) == b"a"
        assert reloaded.get(other) == b"b"
        assert stored_keys(tmp_path) == sorted(
            [KEY.canonical(), other.canonical()]
        )

    def test_opening_reads_no_tar(self, tmp_path, monkeypatch):
        ArtifactStore(tmp_path).put(KEY, b"bytes")
        reads = []
        read_bytes = Path.read_bytes

        def counting(path):
            reads.append(path.name)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        store = ArtifactStore(tmp_path)
        assert stored_keys(tmp_path) == [KEY.canonical()]
        assert reads == []
        assert store.get(KEY) == b"bytes"
        assert reads == [f"{KEY.path_token()}.tar"]

    def test_a_torn_put_is_not_the_first_write(self, tmp_path, monkeypatch):
        def torn(path, data):
            with open(path, "wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_bytes", torn)
            with pytest.raises(OSError):
                ArtifactStore(tmp_path).put(KEY, b"full payload")
        store = ArtifactStore(tmp_path)
        assert store.get(KEY) is None
        store.put(KEY, b"full payload")
        reopened = ArtifactStore(tmp_path)
        assert reopened.get(KEY) == b"full payload"
        assert stored_keys(tmp_path) == [KEY.canonical()]

    @pytest.mark.parametrize("index", ["index.jsonl", "index.json"])
    def test_refuses_the_index_of_earlier_versions(self, tmp_path, index):
        # a root with a record journal whose artifact directory has an index:
        # the farm refuses it, though the store alone holds no such check
        farm = BuildFarm(clock=VirtualClock(), root=tmp_path)
        farm.service.handle_request(KEY)
        farm.run_until_settled(60.0)
        farm.close()
        (tmp_path / "artifacts" / index).write_text("")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        with pytest.raises(FarmStateError, match=index):
            BuildFarm(clock=VirtualClock(), root=tmp_path)
        assert {
            p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()
        } == before
        assert stored_keys(tmp_path / "artifacts") == [KEY.canonical()]


class TestRecordStore:
    def test_terminal_states_immutable(self):
        records = BuildRecordStore()
        records.create_pending(KEY.canonical(), 0.0)
        first = records.finalize_built(KEY.canonical(), 5.0)
        assert first.status == BUILT
        second = records.finalize_failed(KEY.canonical(), "boom", 6.0)
        assert second is first  # first write wins
        assert records.get(KEY.canonical()).completed_at == 5.0

    def test_records_handed_out_are_frozen(self):
        records = BuildRecordStore()
        records.create_pending(KEY.canonical(), 0.0)
        pending = records.get(KEY.canonical())
        built = records.finalize_built(KEY.canonical(), 5.0)
        assert pending.status == PENDING
        for record in [pending, built, *records.all_records()]:
            before = record.to_document()
            with pytest.raises(AttributeError):
                record.status = FAILED
            assert record.to_document() == before
            assert_frozen(record)
        assert records.get(KEY.canonical()) is built

    def test_create_pending_is_idempotent(self):
        records = BuildRecordStore()
        assert records.create_pending(KEY.canonical(), 0.0) is True
        assert records.create_pending(KEY.canonical(), 1.0) is False
        assert records.get(KEY.canonical()).created_at == 0.0

    def test_persistence_round_trip(self, tmp_path):
        records = BuildRecordStore(tmp_path)
        records.create_pending(KEY.canonical(), 0.0)
        records.finalize_failed(KEY.canonical(), "error text", 9.0)
        records.close()
        reloaded = BuildRecordStore(tmp_path)
        record = reloaded.get(KEY.canonical())
        assert record.status == FAILED
        assert record.error_message == "error text"
        assert record.created_at == 0.0
        assert record.completed_at == 9.0

    def test_keys_with_colliding_file_tokens_stay_apart(self, tmp_path):
        keys = ["a_b/c-1.0[]", "a/b_c-1.0[]"]
        records = BuildRecordStore(tmp_path)
        for i, key in enumerate(keys):
            records.create_pending(key, float(i))
            records.finalize_built(key, 10.0 + i)
        records.close()
        reloaded = BuildRecordStore(tmp_path)
        assert [r.to_document() for r in reloaded.all_records()] == [
            r.to_document() for r in records.all_records()
        ]
        assert [reloaded.get(key).completed_at for key in keys] == [10.0, 11.0]

    def test_every_truncation_replays_to_a_prefix(self, tmp_path):
        def documents(store):
            return [r.to_document() for r in store.all_records()]

        records = BuildRecordStore(tmp_path)
        prefixes = [documents(records)]
        for step, (op, key) in enumerate([
            ("create", "cat/a-1[]"), ("create", "cat/b-1[]"),
            ("built", "cat/a-1[]"), ("failed", "cat/stray-1[]"),
            ("create", "cat/c-1[]"), ("failed", "cat/b-1[]"),
        ]):
            if op == "create":
                records.create_pending(key, float(step))
            elif op == "built":
                records.finalize_built(key, float(step))
            else:
                records.finalize_failed(key, "boom", float(step))
            prefixes.append(documents(records))
        records.close()
        data = (tmp_path / "records.jsonl").read_bytes()
        cut = tmp_path / "cut"
        cut.mkdir()
        last = 0
        for offset in range(len(data) + 1):
            (cut / "records.jsonl").write_bytes(data[:offset])
            reopened = BuildRecordStore(cut)
            got = documents(reopened)
            assert got in prefixes[last:], offset
            last = prefixes.index(got, last)
            assert reopened.pending_count() == len(reopened.pending_keys())
            reopened.create_pending("cat/after-1[]", 50.0)
            reopened.finalize_built("cat/c-1[]", 51.0)
            reopened.close()
            assert documents(BuildRecordStore(cut)) == documents(reopened)
        assert last == len(prefixes) - 1

    @pytest.mark.parametrize("doc", [
        {"key": "cat/p-1[]", "status": "bogus"},
        {"key": "cat/p-1[]", "status": ["pending"]},
        {"key": ["cat/p-1[]"], "status": PENDING},
        {"key": "cat/p-1[]", "status": FAILED},
        {"key": "cat/p-1[]", "status": FAILED, "error_message": None},
        {"key": "cat/p-1[]", "status": PENDING, "created_at": "yesterday"},
        {"key": "cat/p-1[]", "status": PENDING, "created_at": True},
        {"key": "cat/p-1[]", "status": PENDING, "created_at": 10**400},
        {"key": "cat/p-1[]", "status": BUILT, "created_at": 0.0,
         "completed_at": [1]},
        {"key": "cat/p-1[]", "status": BUILT, "created_at": 0.0,
         "completed_at": 1.0, "error_message": 5},
        {"key": "cat/p-1[]", "status": BUILT, "created_at": 0.0,
         "completed_at": 1.0, "error_message": "boom"},
    ], ids=["unknown-status", "list-status", "list-key", "failed-without-error",
            "failed-null-error", "text-time", "bool-time", "huge-int-time",
            "list-time", "built-number-error", "built-with-error"])
    def test_refuses_a_document_no_store_writes(self, tmp_path, doc):
        good = {"key": "cat/q-1[]", "status": PENDING, "created_at": 0.0}
        (tmp_path / "records.jsonl").write_bytes(json_line(good) + json_line(doc))
        with pytest.raises(FarmStateError, match="line 2: not a build record"):
            BuildRecordStore(tmp_path)

    def test_a_time_no_float_holds_is_not_json(self, tmp_path):
        """``1e400`` is refused where the line is decoded, before the record
        decoder sees it: a line like any other that does not decode."""
        good = json_line({"key": "cat/q-1[]", "status": PENDING, "created_at": 0.0})
        line = b'{"key": "cat/p-1[]", "status": "pending", "created_at": 1e400}\n'
        (tmp_path / "records.jsonl").write_bytes(good + line + good)
        with pytest.raises(FarmStateError, match="records.jsonl: line 2 is not JSON"):
            BuildRecordStore(tmp_path)
        # as the last line, it is dropped as torn and cut off at the next append
        (tmp_path / "records.jsonl").write_bytes(good + line)
        records = BuildRecordStore(tmp_path)
        assert records.pending_keys() == ["cat/q-1[]"]
        records.create_pending("cat/r-1[]", 1.0)
        records.close()
        assert BuildRecordStore(tmp_path).pending_keys() == ["cat/q-1[]", "cat/r-1[]"]

    @pytest.mark.parametrize("status", [PENDING, BUILT])
    @pytest.mark.parametrize("key", ["garbage", "cat/p-1[b,a]"])
    def test_refuses_a_key_that_is_not_canonical(self, tmp_path, key, status):
        good = {"key": "cat/q-1[]", "status": PENDING, "created_at": 0.0}
        doc = {"key": key, "status": status, "created_at": 0.0}
        if status == BUILT:
            doc.update(completed_at=1.0)
        (tmp_path / "records.jsonl").write_bytes(json_line(good) + json_line(doc))
        with pytest.raises(
            FarmStateError, match="line 2: .* is not a canonical build key"
        ):
            BuildRecordStore(tmp_path)

    def test_damage_before_the_last_line_is_refused(self, tmp_path):
        good = {"key": "cat/q-1[]", "status": PENDING, "created_at": 0.0}
        (tmp_path / "records.jsonl").write_bytes(b"garbage\n" + json_line(good))
        with pytest.raises(FarmStateError, match="records.jsonl: line 1"):
            BuildRecordStore(tmp_path)


class TestArtifactPayload:
    def test_deterministic(self):
        assert build_artifact_tar(KEY) == build_artifact_tar(KEY)

    def test_differs_per_key(self):
        other = BuildKey.parse("sys-libs/ncurses-6.1-r2[unicode]")
        assert build_artifact_tar(KEY) != build_artifact_tar(other)
