import hashlib
import heapq
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
from conftest import assert_frozen

import pacloud.bench
from pacloud.bench import (
    MAX_DURATION,
    JobSpec,
    JobTiming,
    device_percent,
    estimate_storage_cost,
    load_jobs_file,
    main,
    parse_duration,
    run_makespan,
    scenario_jobs,
)
from pacloud.core import BuildKey
from pacloud.errors import UnknownMachine, UnknownPackage
from pacloud.farm import (
    BuildEvent,
    BuildFarm,
    BuildRecord,
    CompileQueue,
    ExecutorTable,
    JobProfile,
    ReceivedMessage,
    VirtualClock,
)
from pacloud.farm.stores import BUILT, PENDING, BuildRecordStore


def job(name, duration):
    return JobSpec(BuildKey.parse(f"cat/{name}-1.0[]"), duration)


class TestParseDuration:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("08:12:51.00", 29571.0),
            ("01:51:19.42", 6679.42),
            ("33:30.77", 2010.77),
            ("2:48.92", 168.92),
            ("2:02.86", 122.86),
            ("1:38.52", 98.52),
            ("26:00.92", 1560.92),
            ("45", 45.0),
            ("45.5", 45.5),
        ],
    )
    def test_conversions(self, text, expected):
        assert parse_duration(text) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize(
        "text",
        [
            "", ":", "1:2:3:4", "1:61.0", "61:00:00x", "nan", "inf", "1:nan",
            # ASCII digits only: int() and float() take these too
            "1_0:00", "\u0663", "1e3", " 45", "+5",
            pytest.param("9" * 400 + ":00:00", id="hours-past-a-float"),
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_duration(text)


class TestRunMakespan:
    def test_single_worker_serializes(self):
        report = run_makespan(1, [job("a", 10.0), job("b", 20.0), job("c", 30.0)])
        assert report.total == pytest.approx(60.0)

    def test_a_replay_parses_no_key(self, monkeypatch):
        jobs = [job(f"p{i}", 10.0 + i) for i in range(10)]
        parsed = []
        real = BuildKey.parse.__func__

        def counting(cls, text):
            parsed.append(text)
            return real(cls, text)

        monkeypatch.setattr(BuildKey, "parse", classmethod(counting))
        run_makespan(3, jobs)
        assert parsed == []

    def test_lower_bounds_hold_on_random_inputs(self):
        rng = random.Random(40)
        for _ in range(10):
            workers = rng.randint(1, 6)
            jobs = [
                job(f"p{i}", rng.uniform(1.0, 50.0)) for i in range(rng.randint(1, 12))
            ]
            report = run_makespan(workers, jobs)
            longest = max(j.duration for j in jobs)
            total_work = sum(j.duration for j in jobs)
            assert report.total >= longest - 1e-9
            assert report.total >= total_work / workers - 1e-9
            for spec in jobs:
                timing = report.jobs[spec.key.canonical()]
                assert timing.end - timing.start >= spec.duration - 1e-9

    def test_enough_workers_means_max_duration(self):
        jobs = [job(f"p{i}", 10.0 + i) for i in range(8)]
        report = run_makespan(8, jobs)
        assert report.total == pytest.approx(17.0)

    def test_deterministic(self):
        jobs = [job(f"p{i}", 7.5 * (i + 1)) for i in range(9)]
        first = run_makespan(3, jobs)
        second = run_makespan(3, jobs)
        assert first.to_document() == second.to_document()

    def test_extra_job_fits_in_the_shadow_of_the_longest(self):
        jobs = [job("long", 100.0)] + [job(f"p{i}", 10.0) for i in range(3)]
        report = run_makespan(4, jobs)
        assert report.total == pytest.approx(100.0)
        with_extra = jobs + [job("extra", 50.0)]
        report2 = run_makespan(4, with_extra)
        assert report2.total == pytest.approx(100.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_makespan(0, [job("a", 1.0)])
        with pytest.raises(ValueError):
            run_makespan(1, [])
        with pytest.raises(ValueError):
            run_makespan(1, [job("a", 1.0), job("a", 2.0)])
        with pytest.raises(ValueError):
            JobSpec(BuildKey.parse("a/b-1[]"), 0.0)

    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_a_non_finite_duration_is_refused(self, duration):
        with pytest.raises(ValueError, match="finite"):
            JobSpec(BuildKey.parse("a/b-1[]"), duration)

    def test_timings_are_frozen(self):
        report = run_makespan(2, [job("a", 10.0), job("b", 20.0)])
        assert len(report.jobs) == 2
        for timing in report.jobs.values():
            assert_frozen(timing)

    def test_utilization_bounded(self):
        report = run_makespan(2, [job("a", 10.0), job("b", 10.0), job("c", 10.0)])
        for value in report.worker_utilization.values():
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize(
        "duration", [1e7, 1e11, 2.0**40], ids=["1e7", "1e11", "2**40"]
    )
    def test_idle_time_costs_no_replay_time(self, duration):
        # The worker that builds the 1 s job then waits through the whole
        # long build. Its poll ticks and the builder's renewals are walked
        # in closed form: one addition per tick took about 0.3 s at 1e7 s,
        # and a 1e11 s replay did not end.
        started = time.perf_counter()
        report = run_makespan(2, [job("long", duration), job("short", 1.0)])
        assert time.perf_counter() - started < 0.1
        assert report.total == duration

    def test_a_chain_that_stops_moving_raises(self):
        # A jobs file cannot hold such a duration (MAX_DURATION); a
        # JobSpec can, and its replay raises instead of hanging.
        with pytest.raises(ValueError, match="^a tick chain stops moving at 1e"):
            run_makespan(2, [job("long", 1e18), job("short", 1.0)])


PER_JOB_TYPES = [BuildRecord, ReceivedMessage, BuildEvent, JobProfile, JobTiming]


class TestPerJobValues:
    """Each value a replay builds per job is built by ``tuple.__new__``,
    past its class's Python-level ``__new__``, and holds every field."""

    def test_a_replay_calls_no_per_job_new(self, monkeypatch):
        calls = []
        for cls in PER_JOB_TYPES:
            original = cls.__new__

            def counting(cls, *args, original=original, **kwargs):
                calls.append(cls.__name__)
                return original(cls, *args, **kwargs)

            monkeypatch.setattr(cls, "__new__", staticmethod(counting))
        workers, jobs = lognormal_jobs(40, 8)
        run_makespan(workers, jobs)
        assert calls == []
        # the counter counts: a constructor call runs the class's __new__
        BuildRecord("cat/a-1.0[]", PENDING)
        ReceivedMessage("m1", jobs[0].key, 1)
        BuildEvent("cat/a-1.0[]", 0.0, 1.0, BUILT)
        JobProfile(1.0)
        JobTiming(0.0, 1.0)
        assert calls == [cls.__name__ for cls in PER_JOB_TYPES]

    def test_each_equals_the_value_built_by_keyword(self, monkeypatch):
        farms, pending, received = [], [], []

        class KeptFarm(BuildFarm):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                farms.append(self)

        create_pending = BuildRecordStore.create_pending
        receive = CompileQueue.receive

        def keep_pending(self, key, now):
            created = create_pending(self, key, now)
            pending.append(self.get(key))
            return created

        def keep_received(self, now):
            result = receive(self, now)
            if result is not None:
                received.append(result[0])
            return result

        monkeypatch.setattr(pacloud.bench, "BuildFarm", KeptFarm)
        monkeypatch.setattr(BuildRecordStore, "create_pending", keep_pending)
        monkeypatch.setattr(CompileQueue, "receive", keep_received)
        jobs = [job("a", 10.0), job("b", 20.5), job("c", 7.25)]
        report = run_makespan(2, jobs)
        (farm,) = farms
        events = {e.key: e for w in farm.workers for e in w.history}
        assert len(pending) == len(received) == len(events) == len(jobs)
        for number, spec in enumerate(jobs, 1):
            key = spec.key.canonical()
            timing = report.jobs[key]
            assert pending[number - 1] == BuildRecord(
                key=key,
                status=PENDING,
                error_message=None,
                created_at=0.0,
                completed_at=None,
            )
            assert received[number - 1] == ReceivedMessage(
                id=f"m{number}", body=spec.key, receive_count=1
            )
            assert farm.executor_factory.table.profiles[key] == JobProfile(
                duration=spec.duration, error=None
            )
            assert events[key] == BuildEvent(
                key=key,
                started_at=timing.start,
                finished_at=timing.end,
                status=BUILT,
            )
            assert farm.records.get(key) == BuildRecord(
                key=key,
                status=BUILT,
                error_message=None,
                created_at=0.0,
                completed_at=timing.end,
            )
            assert timing == JobTiming(
                start=timing.start, end=timing.start + spec.duration
            )


def lognormal_jobs(count=200, workers=32):
    """``count`` jobs on ``workers`` workers; log-normal durations around
    120 s, to the ms."""
    rng = random.Random(20261018)
    return workers, [
        job(f"p{i}", round(rng.lognormvariate(math.log(120.0), 0.6), 3))
        for i in range(count)
    ]


# Every report must stay bit-identical as the farm's loop gets faster.
# Putting the build profile into the key (ROADMAP item 1) changes every
# canonical key, and so these digests, once.
@pytest.mark.parametrize(
    "make,digest",
    [
        (
            lambda: scenario_jobs("fig13"),
            "6a5e8217ff30fb61e0ce7b801a6aeaf12437dfc65465c31d512c3418e907f594",
        ),
        (
            lognormal_jobs,
            "5f3d9e38f33f99db4c8ea935f8fce8f121b57fe787ed106446f7e2beaaa85954",
        ),
        (
            lambda: lognormal_jobs(2000, 320),
            "7ab8b4f7c57b768683afd7024a9956ca0b11eeab49b12ef5fddfc57246e8cbf0",
        ),
    ],
    ids=["fig13", "lognormal-200x32", "lognormal-2000x320"],
)
def test_report_digest_is_pinned(make, digest):
    workers, jobs = make()
    document = run_makespan(workers, jobs).to_document()
    text = json.dumps(document, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == digest


@pytest.mark.parametrize(
    "make",
    [lambda: scenario_jobs("fig13"), lognormal_jobs, lambda: lognormal_jobs(2000, 320)],
    ids=["fig13", "lognormal-200x32", "lognormal-2000x320"],
)
def test_each_timing_is_the_one_built_event_its_record_agrees_with(
    make, monkeypatch
):
    farms = []

    class KeptFarm(BuildFarm):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            farms.append(self)

    monkeypatch.setattr(pacloud.bench, "BuildFarm", KeptFarm)
    read = []
    real_all_records = BuildRecordStore.all_records
    monkeypatch.setattr(
        BuildRecordStore,
        "all_records",
        lambda self: read.append(1) or real_all_records(self),
    )
    workers, jobs = make()
    report = run_makespan(workers, jobs)
    assert read == []  # the report is read from the worker histories alone
    (farm,) = farms
    built = [
        event
        for worker in farm.workers
        for event in worker.history
        if event.status == BUILT
    ]
    assert sorted(event.key for event in built) == sorted(report.jobs)
    completed = {
        record.key: record.completed_at
        for record in real_all_records(farm.records)
    }
    for event in built:
        assert completed[event.key] == event.finished_at
        assert report.jobs[event.key] == JobTiming(
            event.started_at, event.finished_at
        )


def list_schedule(workers, durations):
    """Graham's list scheduling: each job, in request order, starts at the
    earliest time a worker is free. The start of each job, and the total."""
    free = [0.0] * workers
    starts = []
    for duration in durations:
        start = heapq.heappop(free)
        starts.append(start)
        heapq.heappush(free, start + duration)
    return starts, max(start + d for start, d in zip(starts, durations))


def oracle_sets(seeds):
    """One job set per seed: 1-64 workers, 1-200 jobs, durations log-normal,
    uniform or tied, requested as drawn, longest first or shortest first."""
    for seed in seeds:
        rng = random.Random(seed)
        workers, count = rng.randint(1, 64), rng.randint(1, 200)
        draw = (
            lambda: round(rng.lognormvariate(math.log(120.0), 0.6), 3),
            lambda: rng.uniform(0.01, 600.0),
            lambda: rng.choice((0.333, 0.1, 120.0)),
        )[seed % 3]
        durations = [draw() for _ in range(count)]
        if seed // 3 % 3:
            durations.sort(reverse=seed // 3 % 3 == 1)
        yield seed, workers, [job(f"p{i}", d) for i, d in enumerate(durations)]


def replay_starts(workers, jobs, poll_interval):
    """Each job's start in a fault-free replay on a farm that polls every
    ``poll_interval`` seconds, and the farm's total."""
    farm = BuildFarm(
        clock=VirtualClock(),
        executor_table=ExecutorTable(
            {spec.key.canonical(): JobProfile(spec.duration) for spec in jobs}
        ),
        num_workers=workers,
        worker_poll_interval=poll_interval,
    )
    for spec in jobs:
        farm.service.handle_request(spec.key)
    farm.run_until_settled(sum(spec.duration for spec in jobs) + 3600.0)
    built = {
        event.key: event
        for worker in farm.workers
        for event in worker.history
        if event.status == BUILT
    }
    return (
        [built[spec.key.canonical()].started_at for spec in jobs],
        max(event.finished_at for event in built.values()),
    )


class TestListScheduling:
    """A fault-free replay is list scheduling, exactly: every job starts
    when the earliest worker is free, in request order, to the last bit
    of the float. A farm that leaves a worker idle while a message waits,
    or one that reorders the queue, fails at once."""

    def check(self, seed, workers, jobs, starts, total):
        durations = [spec.duration for spec in jobs]
        where = f"seed {seed}: {len(jobs)} jobs on {workers} workers"
        # Graham (1966): no list schedule is longer than this
        bound = sum(durations) / workers + (1 - 1 / workers) * max(durations)
        assert total <= bound, where
        assert (starts, total) == list_schedule(workers, durations), where

    def test_a_replay_is_list_scheduling(self):
        for seed, workers, jobs in oracle_sets(range(250)):
            report = run_makespan(workers, jobs)
            starts = [report.jobs[spec.key.canonical()].start for spec in jobs]
            self.check(seed, workers, jobs, starts, report.total)

    @pytest.mark.parametrize("poll_interval", [0.3, 10.0])
    def test_at_any_poll_interval(self, poll_interval):
        for seed, workers, jobs in oracle_sets(range(1000, 1150)):
            starts, total = replay_starts(workers, jobs, poll_interval)
            self.check(seed, workers, jobs, starts, total)


class TestStorageCost:
    def test_paper_scale_figure(self):
        assert estimate_storage_cost(20000, 2, 1.0) == pytest.approx(39.06, abs=0.01)

    def test_zero_packages(self):
        assert estimate_storage_cost(0, 2, 3.3) == 0.0

    def test_linear_in_each_argument(self):
        base = estimate_storage_cost(1000, 2, 0.5)
        assert estimate_storage_cost(2000, 2, 0.5) == pytest.approx(2 * base)
        assert estimate_storage_cost(1000, 4, 0.5) == pytest.approx(2 * base)
        assert estimate_storage_cost(1000, 2, 1.0) == pytest.approx(2 * base)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            estimate_storage_cost(-1, 2, 1.0)


class TestDeviceTable:
    def test_embedded_tables_complete(self):
        data = resources.files("pacloud").joinpath("data/benchmarks.json")
        table = json.loads(data.read_text("utf-8"))["device_times"]
        assert sorted(table) == ["gcc-6.4.0-r1", "ncurses-6.1-r2"]
        for package, by_machine in table.items():
            assert len(by_machine) == 10
            for machine, seconds in by_machine.items():
                assert seconds > 0
                assert device_percent(package, "Raspberry Pi 2", machine) > 0

    def test_gcc_ratio(self):
        percent = device_percent("gcc-6.4.0-r1", "Raspberry Pi 2", "c5.9xlarge")
        assert percent == pytest.approx(5.05, abs=0.1)

    def test_ncurses_ratio(self):
        percent = device_percent("ncurses-6.1-r2", "Raspberry Pi 2", "c5.9xlarge")
        assert percent == pytest.approx(7.87, abs=0.1)

    def test_same_machine_is_hundred_percent(self):
        percent = device_percent("gcc-6.4.0-r1", "c5.2xlarge", "c5.2xlarge")
        assert percent == pytest.approx(100.0)

    def test_unknown_names(self):
        with pytest.raises(UnknownMachine):
            device_percent("gcc-6.4.0-r1", "Raspberry Pi 2", "abacus")
        with pytest.raises(UnknownMachine):
            device_percent("gcc-6.4.0-r1", "abacus", "Raspberry Pi 2")
        with pytest.raises(UnknownPackage):
            device_percent("hello-1.0", "Raspberry Pi 2", "c5.large")


class TestScenario:
    def test_scenario_shape(self):
        workers, jobs = scenario_jobs("fig13")
        assert workers == 16
        assert len(jobs) == 16
        longest = max(j.duration for j in jobs)
        assert longest == pytest.approx(2010.77)
        assert len({j.key.canonical() for j in jobs}) == 16

    def test_unknown_scenario(self):
        from pacloud.errors import UsageError

        with pytest.raises(UsageError):
            scenario_jobs("fig99")


class TestBenchCli:
    def test_scenario_run_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["--scenario", "fig13", "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "total: 2010.77 s on 16 workers" in out
        doc = json.loads(report_path.read_text())
        assert doc["total_seconds"] == pytest.approx(2010.77)
        assert doc["workers"] == 16
        assert len(doc["jobs"]) == 16

    def test_jobs_file_run(self, tmp_path, capsys):
        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text(
            json.dumps(
                [
                    {"package": "cat/a", "version": "1.0", "duration": 5},
                    {"package": "cat/b", "version": "1.0", "duration": "0:07.5"},
                ]
            ),
            encoding="utf-8",
        )
        assert main(["--jobs", str(jobs_path), "--workers", "2"]) == 0
        assert "total: 7.50 s on 2 workers" in capsys.readouterr().out

    def test_jobs_and_scenario_conflict(self, capsys):
        assert main(["--jobs", "x.json", "--scenario", "fig13"]) == 2
        assert main([]) == 2

    def test_jobs_requires_workers(self, tmp_path):
        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text("[]", encoding="utf-8")
        assert main(["--jobs", str(jobs_path)]) == 2

    def test_a_deeply_nested_jobs_file_exits_1(self, tmp_path, capsys):
        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text("[" * 100_000, encoding="utf-8")
        assert main(["--jobs", str(jobs_path), "--workers", "2"]) == 1
        assert f"pacloud-bench: {jobs_path}: JSON document nested too deeply" in (
            capsys.readouterr().err
        )

    def test_an_undecodable_jobs_file_exits_1_naming_it(self, tmp_path, capsys):
        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text("{bad", encoding="utf-8")
        assert main(["--jobs", str(jobs_path), "--workers", "2"]) == 1
        assert f"pacloud-bench: {jobs_path}: Expecting property name" in (
            capsys.readouterr().err
        )

    def test_load_jobs_file_validates(self, tmp_path):
        from pacloud.errors import UsageError

        path = tmp_path / "jobs.json"
        path.write_text('{"not": "a list"}', encoding="utf-8")
        with pytest.raises(UsageError):
            load_jobs_file(path)

    @pytest.mark.parametrize(
        "entry,reason",
        [
            ("1", "not a JSON object"),
            ('{"package": "cat/b", "duration": 5}', "package and version"),
            (
                '{"package": "cat/b", "version": "1.0", "duration": "nan"}',
                "bad duration: 'nan'",
            ),
            (
                '{"package": "cat/b", "version": "1.0", "duration": true}',
                "duration must be a number",
            ),
            (
                '{"package": "cat/b", "version": "1.0", "duration": 5, '
                '"useflags": "ab"}',
                "useflags must be a list of strings",
            ),
        ],
        ids=["not-an-object", "no-version", "nan-text", "bool", "flags-string"],
    )
    def test_a_bad_job_exits_1_naming_the_file_and_the_job(
        self, tmp_path, capsys, entry, reason
    ):
        jobs_path = tmp_path / "jobs.json"
        good = '{"package": "cat/a", "version": "1.0", "duration": 5}'
        jobs_path.write_text(f"[{good}, {entry}]", encoding="utf-8")
        assert main(["--jobs", str(jobs_path), "--workers", "2"]) == 1
        err = capsys.readouterr().err
        assert f"pacloud-bench: {jobs_path}: job 2: {reason}" in err

    # Never run through main(): before these were refused, a replay of an
    # infinite duration did not return.
    @pytest.mark.parametrize(
        "duration",
        ["Infinity", "-Infinity", "NaN", "1e400", '"inf"', "1" + "0" * 400],
        ids=["Infinity", "-Infinity", "NaN", "1e400", "inf-text", "int-10e400"],
    )
    def test_load_jobs_file_refuses_a_non_finite_duration(self, tmp_path, duration):
        path = tmp_path / "jobs.json"
        path.write_text(
            f'[{{"package": "cat/a", "version": "1.0", "duration": {duration}}}]',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_jobs_file(path)

    def test_a_duration_no_float_holds_is_refused_by_the_codec(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(
            '[{"package": "cat/a", "version": "1.0", "duration": 1e400}]',
            encoding="utf-8",
        )
        with pytest.raises(
            ValueError, match=f"^{re.escape(str(path))}: number too large for a float"
        ):
            load_jobs_file(path)

    def test_a_duration_too_large_for_a_float_is_a_value_error(self):
        doc = {"package": "cat/a", "version": "1.0", "duration": 10**400}
        with pytest.raises(ValueError, match="too large"):
            pacloud.bench._job_from_doc(doc)

    @staticmethod
    def run_bench(jobs_path):
        """``pacloud-bench --jobs jobs_path --workers 2`` in a subprocess,
        so a replay that hangs fails the test instead of the run."""
        src = str(Path(pacloud.bench.__file__).parents[1])
        return subprocess.run(
            [sys.executable, "-c",
             "import sys; from pacloud.bench import main; sys.exit(main())",
             "--jobs", str(jobs_path), "--workers", "2"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=10,
        )

    def test_a_duration_no_tick_chain_can_pass_exits_1(self, tmp_path):
        # Polls 1 s apart from 1e18 s round to one float; the replay hung
        # there, and then raised once the chain stopped moving. The jobs
        # file is now refused before any replay.
        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text(
            '[{"package": "cat/a", "version": "1.0", "duration": 1e18}]',
            encoding="utf-8",
        )
        done = self.run_bench(jobs_path)
        assert done.returncode == 1
        assert done.stderr == (
            f"pacloud-bench: {jobs_path}: job 1: duration 1e+18 s is above"
            f" the bound of {MAX_DURATION!r} s\n"
        )

    def test_a_duration_past_the_bound_exits_1_naming_the_file_and_the_job(
        self, tmp_path
    ):
        # Without the bound a 2**41 s job replays, walking 2**41 poll ticks
        # one at a time before the closed form.
        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text(
            '[{"package": "cat/a", "version": "1.0", "duration": 1},'
            ' {"package": "cat/b", "version": "1.0", "duration": 2199023255552}]',
            encoding="utf-8",
        )
        done = self.run_bench(jobs_path)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == (
            f"pacloud-bench: {jobs_path}: job 2: duration 2199023255552.0 s is"
            f" above the bound of {MAX_DURATION!r} s\n"
        )

    def test_a_duration_at_the_bound_replays(self, tmp_path, capsys):
        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text(
            json.dumps(
                [
                    {"package": "cat/a", "version": "1.0", "duration": 1},
                    {"package": "cat/b", "version": "1.0", "duration": 2**40},
                ]
            ),
            encoding="utf-8",
        )
        assert main(["--jobs", str(jobs_path), "--workers", "2"]) == 0
        assert f"total: {2.0**40:.2f} s on 2 workers" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args",
        [
            ["--scenario", "fig13", "--workers", "0"],
            ["--scenario", "fig13", "--workers", "-1"],
            ["--jobs", "JOBS", "--workers", "-1"],
        ],
        ids=["scenario-0", "scenario-minus-1", "jobs-minus-1"],
    )
    def test_fewer_than_one_worker_is_a_usage_error(self, tmp_path, capsys, args):
        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text(
            '[{"package": "cat/a", "version": "1.0", "duration": 5}]',
            encoding="utf-8",
        )
        argv = [str(jobs_path) if arg == "JOBS" else arg for arg in args]
        assert main(argv) == 2
        assert "--workers must be at least 1" in capsys.readouterr().err
