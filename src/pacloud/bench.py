"""Benchmark harness: parallel makespans, device speedups, storage cost.

The makespan runner drives the real build-farm machinery under a virtual
clock: every job is requested at t=0, workers pull greedily from the
queue, and once no record is pending the report is read from the
workers' histories alone, each job's start and end from its one
``BUILT`` event, so totals are bit-reproducible across runs. A job list
read from a file is checked at that boundary: each entry needs string
``package`` and ``version``, a positive ``duration`` of at most
``MAX_DURATION`` (seconds, or ``[HH:]MM:SS[.ss]``) and, if present, a
list of string ``useflags``. The bound, 2**40 s or about 35 000 years,
keeps one job's tick chains far below 2**53 s, where a 1 s poll no
longer moves the clock: at 2**40 s adjacent floats are 2**-12 s apart.
It bounds each job, not the makespan: jobs queued one after another
past 2**53 s still end in the tick walk's ``ValueError``.

A ``JobTiming`` is a ``NamedTuple``, as is every value the farm builds
per job or per event (``BuildRecord``, ``ReceivedMessage``,
``JobProfile``, ``BuildEvent``), and ``run_makespan`` builds each job's
``JobProfile`` (by ``pacloud.farm.worker.job_profile``) and ``JobTiming``
with ``tuple.__new__``, past the class's Python-level ``__new__`` (see
``pacloud.farm.stores`` for the cost of each).

Device build times ship as a checked-in table (machine x package, in
seconds), and ``device_percent`` is the one ratio read from it; the
harness never pretends to measure a real compile.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .core import BuildKey, PackageId, UseFlagSet, parse_version
from .errors import PacloudError, UnknownMachine, UnknownPackage, UsageError
from .farm import BuildFarm, ExecutorTable, JobProfile, VirtualClock
from .farm.stores import BUILT
from .farm.worker import job_profile
from .files import from_json

# The longest job a job list may hold, in seconds (see the docstring).
MAX_DURATION = 2.0**40


@dataclass(frozen=True)
class JobSpec:
    key: BuildKey
    duration: float

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise ValueError(
                f"duration must be positive and finite: {self.duration}"
            )


class JobTiming(NamedTuple):
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
    profiles = {
        job.key.canonical(): job_profile(job.duration)
        for job in jobs
    }
    if len(profiles) != len(jobs):
        raise ValueError("duplicate build keys in the job list")
    farm = BuildFarm(
        clock=VirtualClock(),
        executor_table=ExecutorTable(profiles),
        num_workers=num_workers,
    )
    for job in jobs:
        farm.service.handle_request(job.key)
    budget = sum(job.duration for job in jobs) + 60.0 * len(jobs) + 60.0
    farm.run_until_settled(budget)
    if farm.records.pending_count():
        raise RuntimeError(f"jobs never finished: {farm.records.pending_keys()}")
    timings = {
        event.key: tuple.__new__(JobTiming, (event.started_at, event.finished_at))
        for worker in farm.workers
        for event in worker.history
        if event.status == BUILT
    }
    total = max(timing.end for timing in timings.values())
    utilization = {worker.name: worker.busy_seconds / total for worker in farm.workers}
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


# [HH:]MM:SS[.ss] or plain seconds, in ASCII digits alone
_DURATION_RE = re.compile(r"(?:(?:([0-9]+):)?([0-9]+):)?([0-9]+(?:\.[0-9]+)?)")


def parse_duration(text: str) -> float:
    """Parse ``[HH:]MM:SS[.ss]`` or plain seconds into seconds."""
    match = _DURATION_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"bad duration: {text!r}")
    hours, minutes, seconds = (float(part or 0) for part in match.groups())
    if match[2] and seconds >= 60:
        raise ValueError(f"seconds out of range in {text!r}")
    if match[1] and minutes >= 60:
        raise ValueError(f"minutes out of range in {text!r}")
    total = hours * 3600 + minutes * 60 + seconds
    if total == math.inf:
        raise ValueError(f"bad duration: {text!r}")
    return total


def _load_data() -> dict:
    text = (
        resources.files("pacloud").joinpath("data/benchmarks.json").read_text("utf-8")
    )
    return from_json(text)


def device_percent(package: str, baseline: str, target: str) -> float:
    """How much of the baseline machine's time to build ``package`` the
    target machine needs, in percent, from the checked-in device table."""
    by_machine = _load_data()["device_times"].get(package)
    if by_machine is None:
        raise UnknownPackage(f"no durations for package {package}")
    for machine in (baseline, target):
        if machine not in by_machine:
            raise UnknownMachine(f"no duration for {package} on {machine}")
    return 100.0 * by_machine[target] / by_machine[baseline]


def _job_from_doc(doc: object) -> JobSpec:
    """One job of a job list; ``ValueError`` (or a ``PacloudError`` for a
    bad name, version or flag) saying what is wrong with it."""
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    package, version = doc.get("package"), doc.get("version")
    if not isinstance(package, str) or not isinstance(version, str):
        raise ValueError("package and version must be strings")
    useflags = doc.get("useflags", [])
    if not isinstance(useflags, list) or not all(
        isinstance(flag, str) for flag in useflags
    ):
        raise ValueError("useflags must be a list of strings")
    duration = doc.get("duration")
    if isinstance(duration, str):
        duration = parse_duration(duration)
    elif isinstance(duration, bool) or not isinstance(duration, (int, float)):
        raise ValueError("duration must be a number of seconds or [HH:]MM:SS")
    try:
        seconds = float(duration)
    except OverflowError:
        raise ValueError("duration too large for a float") from None
    if seconds > MAX_DURATION:
        raise ValueError(
            f"duration {seconds!r} s is above the bound of {MAX_DURATION!r} s"
        )
    key = BuildKey(
        PackageId.parse(package), parse_version(version), UseFlagSet.of(useflags)
    )
    return JobSpec(key, seconds)


def scenario_jobs(name: str) -> tuple[int, list[JobSpec]]:
    scenarios = _load_data()["scenarios"]
    if name not in scenarios:
        raise UsageError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(scenarios))}"
        )
    scenario = scenarios[name]
    return scenario["workers"], [_job_from_doc(d) for d in scenario["jobs"]]


def load_jobs_file(path: str | Path) -> list[JobSpec]:
    try:
        docs = from_json(Path(path).read_bytes())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(docs, list):
        raise UsageError(f"{path}: expected a JSON list of jobs")
    jobs = []
    for number, doc in enumerate(docs, start=1):
        try:
            jobs.append(_job_from_doc(doc))
        except (PacloudError, ValueError) as exc:
            raise ValueError(f"{path}: job {number}: {exc}") from exc
    return jobs


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
        if ns.jobs is not None and ns.workers is None:
            raise UsageError("--workers is required with --jobs")
        if ns.workers is not None and ns.workers < 1:
            raise UsageError("--workers must be at least 1")
        if ns.scenario is not None:
            default_workers, jobs = scenario_jobs(ns.scenario)
        else:
            default_workers, jobs = None, load_jobs_file(ns.jobs)
        workers = ns.workers or default_workers
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

