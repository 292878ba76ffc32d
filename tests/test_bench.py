import hashlib
import json
import math
import random

import pytest

from pacloud.bench import (
    JobSpec,
    device_comparison,
    estimate_storage_cost,
    load_device_table,
    load_jobs_file,
    main,
    parse_duration,
    run_makespan,
    scenario_jobs,
)
from pacloud.core import BuildKey
from pacloud.errors import UnknownMachine, UnknownPackage


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

    @pytest.mark.parametrize("text", ["", ":", "1:2:3:4", "1:61.0", "61:00:00x"])
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

    def test_utilization_bounded(self):
        report = run_makespan(2, [job("a", 10.0), job("b", 10.0), job("c", 10.0)])
        for value in report.worker_utilization.values():
            assert 0.0 <= value <= 1.0


def lognormal_jobs():
    """200 jobs on 32 workers; log-normal durations around 120 s, to the ms."""
    rng = random.Random(20261018)
    return 32, [
        job(f"p{i}", round(rng.lognormvariate(math.log(120.0), 0.6), 3))
        for i in range(200)
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
    ],
    ids=["fig13", "lognormal-200x32"],
)
def test_report_digest_is_pinned(make, digest):
    workers, jobs = make()
    document = run_makespan(workers, jobs).to_document()
    text = json.dumps(document, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == digest


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
        table = load_device_table()
        assert table.packages() == ["gcc-6.4.0-r1", "ncurses-6.1-r2"]
        for package in table.packages():
            assert len(table.machines(package)) == 10
            for machine in table.machines(package):
                assert table.duration(package, machine) > 0

    def test_gcc_ratio(self):
        table = load_device_table()
        report = device_comparison(
            table, "gcc-6.4.0-r1", "Raspberry Pi 2", "c5.9xlarge"
        )
        assert report.percent == pytest.approx(5.05, abs=0.1)

    def test_ncurses_ratio(self):
        table = load_device_table()
        report = device_comparison(
            table, "ncurses-6.1-r2", "Raspberry Pi 2", "c5.9xlarge"
        )
        assert report.percent == pytest.approx(7.87, abs=0.1)

    def test_same_machine_is_hundred_percent(self):
        table = load_device_table()
        report = device_comparison(
            table, "gcc-6.4.0-r1", "c5.2xlarge", "c5.2xlarge"
        )
        assert report.percent == pytest.approx(100.0)

    def test_unknown_names(self):
        table = load_device_table()
        with pytest.raises(UnknownMachine):
            device_comparison(table, "gcc-6.4.0-r1", "Raspberry Pi 2", "abacus")
        with pytest.raises(UnknownPackage):
            device_comparison(table, "hello-1.0", "Raspberry Pi 2", "c5.large")


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
        assert "pacloud-bench: JSON document nested too deeply" in (
            capsys.readouterr().err
        )

    def test_load_jobs_file_validates(self, tmp_path):
        from pacloud.errors import UsageError

        path = tmp_path / "jobs.json"
        path.write_text('{"not": "a list"}', encoding="utf-8")
        with pytest.raises(UsageError):
            load_jobs_file(path)
