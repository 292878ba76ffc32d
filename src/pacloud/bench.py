"""Benchmark harness: parallel makespans, device speedups, storage cost.

The makespan runner drives the real build-farm machinery under a virtual
clock: every job is requested at t=0, workers pull greedily from the
queue, and the report is derived from the resulting build records and
worker histories, so totals are bit-reproducible across runs. Device
build times ship as a checked-in table (machine x package, in seconds);
the harness never pretends to measure a real compile.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .core import BuildKey, PackageId, UseFlagSet, parse_version
from .errors import PacloudError, UnknownMachine, UnknownPackage, UsageError
from .farm import BuildFarm, ExecutorTable, JobProfile, VirtualClock
from .farm.stores import BUILT
from .files import from_json


@dataclass(frozen=True)
class JobSpec:
    key: BuildKey
    duration: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")


@dataclass(frozen=True)
class JobTiming:
    start: float
    end: float


@dataclass
class MakespanReport:
    total: float
    num_workers: int
    jobs: dict[str, JobTiming]
    worker_utilization: dict[str, float]

    def to_document(self) -> dict:
        return {
            "total_seconds": self.total,
            "workers": self.num_workers,
            "jobs": {
                key: {"start": t.start, "end": t.end}
                for key, t in sorted(self.jobs.items())
            },
            "worker_utilization": dict(sorted(self.worker_utilization.items())),
        }

    def format_table(self) -> str:
        rows = [("job", "start", "end", "duration")]
        for key, t in sorted(self.jobs.items(), key=lambda kv: kv[1].start):
            rows.append(
                (key, f"{t.start:.2f}", f"{t.end:.2f}", f"{t.end - t.start:.2f}")
            )
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        lines.append("")
        lines.append(f"total: {self.total:.2f} s on {self.num_workers} workers")
        mean = (
            sum(self.worker_utilization.values()) / len(self.worker_utilization)
            if self.worker_utilization
            else 0.0
        )
        lines.append(f"mean worker utilization: {100 * mean:.1f}%")
        return "\n".join(lines)


def run_makespan(num_workers: int, jobs: list[JobSpec]) -> MakespanReport:
    """Simulate the whole job set submitted at once."""
    if num_workers < 1:
        raise ValueError("num_workers must be at least 1")
    if not jobs:
        raise ValueError("jobs must not be empty")
    canonicals = [job.key.canonical() for job in jobs]
    if len(set(canonicals)) != len(canonicals):
        raise ValueError("duplicate build keys in the job list")
    clock = VirtualClock()
    table = ExecutorTable(
        {
            job.key.canonical(): JobProfile(duration=job.duration)
            for job in jobs
        }
    )
    farm = BuildFarm(clock=clock, executor_table=table, num_workers=num_workers)
    for job in jobs:
        farm.service.handle_request(job.key)
    budget = sum(job.duration for job in jobs) + 60.0 * len(jobs) + 60.0
    farm.run_until_settled(budget)
    unfinished = farm.records.pending_keys()
    if unfinished:
        raise RuntimeError(f"jobs never finished: {unfinished}")
    completed = {
        record.key: record.completed_at for record in farm.records.all_records()
    }
    timings: dict[str, JobTiming] = {}
    utilization: dict[str, float] = {}
    total = 0.0
    for worker in farm.workers:
        for event in worker.history:
            if event.status == BUILT:
                end = completed[event.key]
                assert end == event.finished_at
                timings[event.key] = JobTiming(event.started_at, end)
                total = max(total, end)
    for worker in farm.workers:
        utilization[worker.name] = (
            worker.busy_seconds / total if total > 0 else 0.0
        )
    return MakespanReport(
        total=total,
        num_workers=num_workers,
        jobs=timings,
        worker_utilization=utilization,
    )


def estimate_storage_cost(
    n_packages: float, avg_package_mb: float, price_per_gb_month: float
) -> float:
    """Monthly storage cost in dollars; exactly linear in each argument."""
    if n_packages < 0 or avg_package_mb < 0 or price_per_gb_month < 0:
        raise ValueError("inputs must be non-negative")
    return n_packages * avg_package_mb / 1024.0 * price_per_gb_month


def parse_duration(text: str) -> float:
    """Parse ``[HH:]MM:SS[.ss]`` or plain seconds into seconds."""
    parts = text.split(":")
    if not 1 <= len(parts) <= 3 or not all(p.strip() for p in parts):
        raise ValueError(f"bad duration: {text!r}")
    seconds = float(parts[-1])
    minutes = int(parts[-2]) if len(parts) >= 2 else 0
    hours = int(parts[-3]) if len(parts) == 3 else 0
    if seconds < 0 or minutes < 0 or hours < 0:
        raise ValueError(f"bad duration: {text!r}")
    if len(parts) >= 2 and seconds >= 60:
        raise ValueError(f"seconds out of range in {text!r}")
    if len(parts) == 3 and minutes >= 60:
        raise ValueError(f"minutes out of range in {text!r}")
    return hours * 3600 + minutes * 60 + seconds


@dataclass(frozen=True)
class ComparisonReport:
    package: str
    baseline_machine: str
    target_machine: str
    baseline_seconds: float
    target_seconds: float

    @property
    def percent(self) -> float:
        return 100.0 * self.target_seconds / self.baseline_seconds

    def summary(self) -> str:
        return (
            f"{self.package}: {self.target_machine} takes "
            f"{self.percent:.2f}% of the {self.baseline_machine} time "
            f"({self.target_seconds:g} s vs {self.baseline_seconds:g} s)"
        )


class DeviceTimeTable:
    """Per-package build durations by machine, in seconds."""

    def __init__(self, durations: dict[str, dict[str, float]]):
        for package, by_machine in durations.items():
            for machine, seconds in by_machine.items():
                if seconds <= 0:
                    raise ValueError(
                        f"{package} on {machine}: non-positive duration"
                    )
        self.durations = durations

    def packages(self) -> list[str]:
        return sorted(self.durations)

    def machines(self, package: str) -> list[str]:
        return sorted(self._package(package))

    def duration(self, package: str, machine: str) -> float:
        by_machine = self._package(package)
        if machine not in by_machine:
            raise UnknownMachine(f"no duration for {package} on {machine}")
        return by_machine[machine]

    def _package(self, package: str) -> dict[str, float]:
        if package not in self.durations:
            raise UnknownPackage(f"no durations for package {package}")
        return self.durations[package]


def device_comparison(
    table: DeviceTimeTable, package: str, baseline: str, target: str
) -> ComparisonReport:
    """How much of the baseline machine's time the target machine needs."""
    return ComparisonReport(
        package=package,
        baseline_machine=baseline,
        target_machine=target,
        baseline_seconds=table.duration(package, baseline),
        target_seconds=table.duration(package, target),
    )


def _load_data() -> dict:
    text = (
        resources.files("pacloud").joinpath("data/benchmarks.json").read_text("utf-8")
    )
    return from_json(text)


def load_device_table() -> DeviceTimeTable:
    return DeviceTimeTable(_load_data()["device_times"])


def _job_from_doc(doc: dict) -> JobSpec:
    key = BuildKey(
        PackageId.parse(doc["package"]),
        parse_version(doc["version"]),
        UseFlagSet.of(doc.get("useflags", [])),
    )
    duration = doc["duration"]
    if isinstance(duration, str):
        duration = parse_duration(duration)
    return JobSpec(key, float(duration))


def scenario_jobs(name: str) -> tuple[int, list[JobSpec]]:
    scenarios = _load_data()["scenarios"]
    if name not in scenarios:
        raise UsageError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(scenarios))}"
        )
    scenario = scenarios[name]
    return scenario["workers"], [_job_from_doc(d) for d in scenario["jobs"]]


def load_jobs_file(path: str | Path) -> list[JobSpec]:
    docs = from_json(Path(path).read_text(encoding="utf-8"))
    if not isinstance(docs, list):
        raise UsageError(f"{path}: expected a JSON list of jobs")
    return [_job_from_doc(d) for d in docs]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pacloud-bench",
        description="Simulate parallel build makespans on the in-process farm.",
    )
    parser.add_argument("--workers", type=int, metavar="N")
    parser.add_argument("--jobs", metavar="FILE", help="JSON job list")
    parser.add_argument("--scenario", metavar="NAME", help="built-in scenario")
    parser.add_argument("--report", metavar="PATH", help="write a JSON report")
    ns = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        if (ns.jobs is None) == (ns.scenario is None):
            raise UsageError("exactly one of --jobs or --scenario is required")
        if ns.scenario is not None:
            default_workers, jobs = scenario_jobs(ns.scenario)
            workers = ns.workers or default_workers
        else:
            jobs = load_jobs_file(ns.jobs)
            if not ns.workers:
                raise UsageError("--workers is required with --jobs")
            workers = ns.workers
        started = time.monotonic()
        report = run_makespan(workers, jobs)
        elapsed = time.monotonic() - started
        print(report.format_table())
        print(f"(simulated in {elapsed:.3f} s of wall time)")
        if ns.report:
            Path(ns.report).write_text(
                json.dumps(report.to_document(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
    except UsageError as exc:
        print(f"pacloud-bench: {exc}", file=sys.stderr)
        return 2
    except (PacloudError, OSError, ValueError) as exc:
        print(f"pacloud-bench: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    sys.exit(main())
