"""pacloud benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload farm-sim --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and nothing else. ``--trace 0`` times the workload with no
instrumentation and reports the end-to-end metrics. ``--trace 1`` runs the
same workload once untraced and once with every layer wrapped, and reports
the per-layer metrics, each op's self-time attribution and the tracing
overhead. The last line of standard output is the result object; the line
before it holds per-op details. Reports and span dumps are written under
``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

SETUPS = 5  # setup_s is the median of this many full set-ups
MIN_SAMPLES = 11  # a tail needs ten samples beyond it
HARD_LIMIT_S = 60.0  # a phase stops here whatever --seconds says

# Facts about the benchmark machine that bound what the numbers mean.
LIMITS = {
    "cores": "2 shared cores; one caller, at most two busy threads",
    "network": "TCP over loopback only",
    "disk": "page cache not droppable and the program never fsyncs, "
            "so disk numbers are page-cache numbers",
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import pacloud
    from there; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import pacloud

    origin = Path(pacloud.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"pacloud imported from {origin}, not {src}")


def tail(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least ten samples beyond it,
    and the percentile it sits at."""
    ordered = sorted(values)
    n = len(ordered)
    if n < MIN_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - MIN_SAMPLES], 100.0 * (n - MIN_SAMPLES + 1) / n


class Phase:
    """Timed ops of one measured phase, grouped by op type and cycle.

    ``times`` and ``cycles`` are at the calibrated reference speed, ``raw``
    and ``raw_cycles`` are wall seconds.
    """

    def __init__(self, workload):
        self.workload = workload
        self.raw: dict[str, list[float]] = {op: [] for op in workload.cycle}
        self.raw_cycles: list[float] = []
        self.times: dict[str, list[float]] = {op: [] for op in workload.cycle}
        self.attempted = {op: 0 for op in workload.cycle}
        self.failed = {op: 0 for op in workload.cycle}
        self.cycles: list[float] = []
        self.items = 0
        self.item_seconds = 0.0
        self.errors: list[str] = []

    def run(self, seconds: float, min_cycles: int, tracer=None) -> None:
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            if len(self.cycles) >= min_cycles and elapsed >= seconds:
                return
            if elapsed >= HARD_LIMIT_S or self.errors:
                return
            self._cycle(tracer)

    def _cycle(self, tracer) -> None:
        total = raw_total = 0.0
        for op in self.workload.cycle:
            gc.collect()
            self.attempted[op] += 1
            try:
                output, raw, dt = calib.timed(
                    lambda: self.workload.run_op(op),
                    None if tracer is None else lambda fn: _traced_op(tracer, op, fn),
                )
                self.workload.check(op, output)
            except Exception:
                self.failed[op] += 1
                self.errors.append(f"{op}: {traceback.format_exc(limit=3)}")
                return
            self.times[op].append(dt)
            self.raw[op].append(raw)
            total += dt
            raw_total += raw
            if op in self.workload.item_ops:
                self.items += self.workload.items_per_op
                self.item_seconds += dt
        self.cycles.append(total)
        self.raw_cycles.append(raw_total)

    def summary(self) -> dict:
        ops = {}
        for op, values in self.times.items():
            entry = {"attempted": self.attempted[op], "failed": self.failed[op],
                     "samples": len(values)}
            if values:
                value, pct = tail(values)
                entry.update(p50_ms=1e3 * statistics.median(values),
                             tail_ms=1e3 * value, tail_percentile=pct,
                             raw_p50_ms=1e3 * statistics.median(self.raw[op]))
            ops[op] = entry
        return ops


_DONE = object()


def _traced_op(tracer, op: str, fn):
    with tracer.op(op) as span:
        result = fn()
    return result, span.duration


def _setup(workload_cls, seed: int, work: Path, index: int, tiny: bool):
    """A fresh workload set up in its own directory, with its raw and
    calibrated set-up seconds (each step calibrated on its own)."""
    workload = workload_cls(seed, work / f"setup{index}", tiny)
    steps = workload.setup()
    raw_total = total = 0.0
    while True:
        status, raw, scaled = calib.timed(
            lambda: next(steps, _DONE), keep=lambda: workload.threads
        )
        raw_total += raw
        total += scaled
        if status is _DONE:
            return workload, raw_total, total


def _e2e_metrics(phase: Phase, setups: list[float]) -> dict:
    cycle_tail, _ = tail(phase.cycles)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "cycle_p50_ms": {"value": 1e3 * statistics.median(phase.cycles), "unit": "ms"},
        "cycle_tail_ms": {"value": 1e3 * cycle_tail, "unit": "ms"},
        "items_per_s": {"value": phase.items / phase.item_seconds, "unit": "1/s"},
    }


# Each workload's own name for items_per_s.
ITEMS_NAME = {"farm-sim": "sim_jobs_per_s", "client-churn": "pkgs_per_s"}


def _named_metrics(name: str, phase: Phase) -> dict:
    out = {}
    for op, entry in phase.summary().items():
        if "p50_ms" in entry:
            out[f"{op}_p50_ms"] = {"value": entry["p50_ms"], "unit": "ms"}
            if op != "search":
                out[f"{op}_tail_ms"] = {
                    "value": entry["tail_ms"], "unit": "ms",
                    "percentile": entry["tail_percentile"],
                    "samples": entry["samples"],
                }
    if phase.item_seconds:
        out[ITEMS_NAME[name]] = {
            "value": phase.items / phase.item_seconds, "unit": "1/s"}
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, out_dir: Path = OUT_DIR) -> dict:
    """Run one workload and return the result object plus details."""
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[workload_name]
    work = out_dir / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    setups: list[float] = []
    workload = None
    details: dict = {"workload": workload_name, "seed": seed, "limits": LIMITS}
    try:
        if trace:
            result = _traced(workload_cls, seed, seconds, tiny, work, out_dir, details)
        else:
            raw_setups = []
            for i in range(SETUPS):
                if workload is not None:
                    workload.close()
                workload, raw, scaled = _setup(workload_cls, seed, work, i, tiny)
                raw_setups.append(raw)
                setups.append(scaled)
            phase = Phase(workload)
            phase.run(seconds, MIN_SAMPLES)
            _finish(workload, phase)
            result = _result([phase], _e2e_metrics(phase, setups) if phase.cycles else {})
            details["setup_s_each"] = setups
            details["raw_setup_s_each"] = raw_setups
            details["raw_cycle_p50_ms"] = (
                1e3 * statistics.median(phase.raw_cycles) if phase.cycles else None
            )
            details["ops"] = phase.summary()
            details["metrics"] = _named_metrics(workload_name, phase)
            details["errors"] = phase.errors
            details["shapes"] = workload.shapes()
            details["outputs"] = workload.outputs()
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)
    return {"result": result, "details": details}


def _finish(workload, phase: Phase) -> None:
    """Check the state the run leaves behind; a failure fails the run."""
    if phase.errors or not phase.cycles:
        return
    try:
        workload.finish()
    except Exception:
        phase.errors.append(f"finish: {traceback.format_exc(limit=3)}")


def _result(phases: list[Phase], metrics: dict) -> dict:
    attempted = sum(sum(p.attempted.values()) for p in phases)
    failed = sum(sum(p.failed.values()) for p in phases)
    ran = all(p.cycles for p in phases)
    return {
        "correct": ran and failed == 0 and not any(p.errors for p in phases),
        "attempted": max(attempted, 1),
        "failed": failed if ran else max(failed, 1),
        "metrics": metrics,
    }


def _traced(workload_cls, seed, seconds, tiny, work, out_dir, details) -> dict:
    import layers
    from spans import Tracer

    tracer = Tracer(count_io=workload_cls.count_io)
    tracer.use_bucket("setup")
    with tracer:
        workload, _, _ = _setup(workload_cls, seed, work, 0, tiny)
    try:
        plain = Phase(workload)
        plain.run(seconds / 2, 3)
        traced = Phase(workload)
        tracer.use_bucket("cycles")
        if not plain.errors:
            with tracer:
                traced.run(seconds / 2, 3, tracer)
        _finish(workload, traced)
        metrics = layers.per_layer(tracer, traced, plain, workload) if traced.cycles else {}
        result = _result([plain, traced], metrics)
        details["errors"] = plain.errors + traced.errors
        details["ops_untraced"] = plain.summary()
        details["ops_traced"] = traced.summary()
        details["shapes"] = workload.shapes()
        details["spans_dropped"] = tracer.spans_dropped
        tracer.dump_spans(out_dir / f"spans-{workload_cls.name}-{seed}.jsonl")
    finally:
        workload.close()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if ns.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {ns.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    out = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    report = OUT_DIR / f"report-{ns.workload}-{ns.seed}-trace{ns.trace}.json"
    report.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(json.dumps(out["details"], sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
