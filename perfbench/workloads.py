"""The workloads: seeded inputs, fixed-shape ops and output checks.

Each workload is one closed loop with a single caller: an op starts only
after the previous one returned. ``setup`` does everything before the
first timed op, including warm-up ops of every type; it is a generator
that yields between steps, so the runner can calibrate between them (see
``calib``). ``run_op`` is the timed part; ``check`` inspects its output
afterwards, untimed, and raises ``CheckFailed`` on a wrong answer.
``finish`` checks the state the whole run leaves behind.
"""
from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

import gen
import pacloud.bench
from pacloud.bench import JobSpec
from pacloud.client import Client, TcpTransport
from pacloud.config import Config
from pacloud.core import (
    BuildKey,
    DependencyAtom,
    PackageId,
    Specifier,
    UseFlagSet,
    parse_version,
)
from pacloud.farm import (
    BuildFarm,
    ExecutorTable,
    FarmServer,
    JobProfile,
    VirtualClock,
)
from pacloud.localdb import DirectoryStore, LocalDb, PackageMetadata, write_store

WARMUP_CYCLES = 1


class CheckFailed(Exception):
    """The program returned a wrong answer."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def tree_digest(root: Path) -> str:
    """Hash of every directory and file (path and bytes) under root."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        rel = os.path.relpath(dirpath, root)
        digest.update(f"d {rel}\n".encode())
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(f"f {os.path.join(rel, name)}\n".encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _job_specs(docs: list[dict]) -> list[JobSpec]:
    return [
        JobSpec(
            BuildKey(PackageId.parse(d["package"]), parse_version(d["version"])),
            d["duration"],
        )
        for d in docs
    ]


def _check_makespan(report, jobs: list[JobSpec], workers: int) -> None:
    longest = max(job.duration for job in jobs)
    spread = sum(job.duration for job in jobs) / workers
    _require(
        report.total >= longest * (1 - 1e-12),
        f"makespan {report.total} below the longest job {longest}",
    )
    _require(
        report.total >= spread * (1 - 1e-12),
        f"makespan {report.total} below total work / workers {spread}",
    )


class Workload:
    name = ""
    cycle: tuple[str, ...] = ()
    # op types that settle work items (jobs, packages), and how many each
    item_ops: tuple[str, ...] = ()
    items_per_op = 0
    # count bytes written during queue calls (the farm persists to disk)
    count_io = False
    # threads set-up started that stay up for the ops (a server)
    threads: frozenset = frozenset()

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)

    def warm_up(self):
        for _ in range(WARMUP_CYCLES):
            for op in self.cycle:
                self.check(op, self.run_op(op))
                yield

    def finish(self) -> None:
        pass

    def close(self) -> None:
        """Release what the workload holds open. Its files stay until the
        run ends: deleting thousands of files between timed steps slows the
        file operations that follow on this file system."""


class FarmSim(Workload):
    """J jobs replayed on W workers with ``pacloud.bench.run_makespan``."""

    name = "farm-sim"
    cycle = ("replay",)
    item_ops = ("replay",)

    def __init__(self, seed, work_dir, tiny=False):
        super().__init__(work_dir)
        self.jobs_count, self.workers = (20, 4) if tiny else (200, 32)
        self.items_per_op = self.jobs_count
        self.job_docs = gen.job_set(seed, self.jobs_count, 120.0, 0.6)
        self.digest: str | None = None
        self.makespan = 0.0
        self.utilization = 0.0

    def shapes(self) -> dict:
        return {"J": self.jobs_count, "W": self.workers,
                "durations": "log-normal, median 120 s, sigma 0.6, longest first"}

    def setup(self):
        self.jobs = _job_specs(self.job_docs)
        yield from self.warm_up()

    def run_op(self, op: str):
        # Looked up per call, so a traced run sees the traced function.
        return pacloud.bench.run_makespan(self.workers, self.jobs)

    def check(self, op: str, report) -> None:
        doc = report.to_document()
        digest = hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()
        ).hexdigest()
        if self.digest is None:
            self.digest = digest
        _require(digest == self.digest, "replay report differs from the first")
        _require(len(report.jobs) == self.jobs_count, "not every job finished")
        _check_makespan(report, self.jobs, self.workers)
        self.makespan = report.total
        shares = report.worker_utilization.values()
        self.utilization = sum(shares) / len(shares)

    def outputs(self) -> dict:
        return {"report_sha256": self.digest, "makespan_s": self.makespan}


class CountingTransport(TcpTransport):
    """``TcpTransport`` that counts its exchanges, to record the shape."""

    exchanges = 0

    def exchange(self, request: dict) -> dict:
        self.exchanges += 1
        return super().exchange(request)


class ClientChurn(Workload):
    """install / remove / search cycles of one client against a socket farm."""

    name = "client-churn"
    cycle = ("install", "remove", "search")
    item_ops = ("install", "remove")
    count_io = True
    BUILD_SECONDS = 120.0
    POLL_SECONDS = 10.0
    FARM_WORKERS = 8

    def __init__(self, seed, work_dir, tiny=False):
        super().__init__(work_dir)
        self.cores, self.apps = (6, 8) if tiny else (30, 114)
        self.universe = gen.universe(seed, self.cores, self.apps)
        self.items_per_op = 1 + gen.LIBS_PER_APP
        self.server: FarmServer | None = None
        self.next_app = 0
        self.round = 0
        self.install_exchanges: set[int] = set()

    def shapes(self) -> dict:
        return {"database_size": len(self.universe["packages"]),
                "core": self.cores, "apps": self.apps,
                "plan_size": self.items_per_op,
                "build_s": self.BUILD_SECONDS, "poll_s": self.POLL_SECONDS,
                "farm_workers": self.FARM_WORKERS,
                "exchanges_per_install": sorted(self.install_exchanges)}

    def _flags(self) -> UseFlagSet:
        # A flag no package tests: each pass over the app list gets fresh
        # build keys, so the farm builds every install from scratch.
        return UseFlagSet.of(gen.CLIENT_FLAGS + (f"round{self.round}",))

    def setup(self):
        farm_root = self.work_dir / "farm"
        write_store(
            farm_root,
            [PackageMetadata.from_document(d) for d in self.universe["packages"]],
        )
        yield
        clock = VirtualClock()
        self.farm = BuildFarm(
            clock=clock,
            root=farm_root,
            executor_table=ExecutorTable(
                default=JobProfile(duration=self.BUILD_SECONDS)
            ),
            num_workers=self.FARM_WORKERS,
        )
        # Looked up per call, so a traced run sees the traced method.
        clock.on_sleep = lambda target: self.farm.advance_to(target)
        before = set(threading.enumerate())
        self.server = FarmServer(self.farm.service).start()
        self.threads = frozenset(set(threading.enumerate()) - before)
        self.config = Config(
            db_path=self.work_dir / "db",
            log_path=self.work_dir / "log" / "pacloud.log",
            install_root=self.work_dir / "image",
            use_flags=self._flags(),
            poll_interval=self.POLL_SECONDS,
        )
        self.config.install_root.mkdir(parents=True)
        self.client = Client(
            self.config,
            db=LocalDb(self.config.db_path),
            store=DirectoryStore(farm_root),
            transport=CountingTransport(self.server.address),
            clock=clock,
        )
        self.client.update()
        yield
        plan = self.client.install(
            [DependencyAtom(Specifier.ANY, PackageId.parse(p))
             for p in self.universe["core"]]
        )
        _require(len(plan.steps) == self.cores, "core set did not install")
        self.snapshot = self._digests()
        yield from self.warm_up()

    def _digests(self) -> tuple[str, str]:
        return tree_digest(self.config.db_path), tree_digest(self.config.install_root)

    def _next_app(self) -> dict:
        apps = self.universe["apps"]
        if self.next_app == len(apps):
            self.next_app = 0
            self.round += 1
            self.config.use_flags = self._flags()
        self.next_app += 1
        return apps[self.next_app - 1]

    def run_op(self, op: str):
        if op == "install":
            self.app = self._next_app()
            self.exchanges_before = self.client.transport.exchanges
            return self.client.install(
                [DependencyAtom(Specifier.ANY, PackageId.parse(self.app["package"]))]
            )
        if op == "remove":
            return self.client.remove([PackageId.parse(self.app["package"])])
        return self.client.search(self.app["term"])

    def check(self, op: str, output) -> None:
        if op == "install":
            got = {p.render() for p, _ in output.steps}
            self.install_exchanges.add(
                self.client.transport.exchanges - self.exchanges_before
            )
        elif op == "remove":
            got = {p.render() for p in output}
        else:
            got = {r.package.render() for r in output}
        expected = {self.app["package"], *self.app["libs"]}
        _require(got == expected, f"{op} {self.app['package']}: got {sorted(got)}")

    def finish(self) -> None:
        _require(self._digests() == self.snapshot,
                 "database or install root differs from the post-setup state")
        problems = self.client.db.validate()
        _require(problems == [], f"database invalid: {problems[:3]}")

    @property
    def utilization(self) -> float:
        """Mean share of virtual time the farm's workers spent building."""
        now = self.farm.clock.now()
        busy = [w.busy_seconds / now for w in self.farm.workers]
        return sum(busy) / len(busy)

    def outputs(self) -> dict:
        return {"virtual_clock_s": self.farm.clock.now()}

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {w.name: w for w in (FarmSim, ClientChurn)}
