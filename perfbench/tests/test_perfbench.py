"""The benchmark's own tests: seeded inputs, tracer hygiene, smoke runs.

    python3 -m pytest perfbench/tests -q
"""
import json
import threading
from pathlib import Path

import pytest

import calib
import gen
import layers
import run
import spans

ROOT = Path(__file__).resolve().parents[2]


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: gen.job_set(seed, 200, 120.0, 0.6),
        lambda seed: gen.universe(seed, 30, 114),
    ],
    ids=["jobs", "universe"],
)
def test_same_seed_gives_identical_inputs(make):
    first = json.dumps(make(7), sort_keys=True)
    assert json.dumps(make(7), sort_keys=True) == first
    assert json.dumps(make(8), sort_keys=True) != first


@pytest.mark.parametrize("seed", range(5))
def test_universe_shape_is_fixed(seed):
    universe = gen.universe(seed, 30, 114)
    names = [p["name"] for p in universe["packages"]]
    assert len(names) == len(set(names)) == 30 + 114 * 5
    for app in universe["apps"]:
        matches = [n for n in names if app["term"] in n]
        assert sorted(matches) == sorted([app["package"], *app["libs"]])
    for name in names:
        assert all(c.isalnum() or c == "/" for c in name)


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(40)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 30 / 40)


@pytest.mark.parametrize("workload", ["farm-sim", "client-churn"])
def test_tiny_run_passes_its_checks(workload, tmp_path):
    out = run.run(workload, 5, 0.2, trace=False, tiny=True, out_dir=tmp_path)
    result = out["result"]
    assert result["correct"], out["details"]["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # every install of a run makes the same number of exchanges
    assert len(out["details"]["shapes"].get("exchanges_per_install", [0])) == 1


@pytest.mark.parametrize("workload", ["farm-sim", "client-churn"])
def test_traced_run_restores_every_wrapper(workload, tmp_path):
    assert spans.wrapped_attributes() == []
    out = run.run(workload, 5, 0.2, trace=True, tiny=True, out_dir=tmp_path)
    assert spans.wrapped_attributes() == []
    result = out["result"]
    assert result["correct"], out["details"]["errors"]
    assert set(result["metrics"]) == {m["name"] for m in spec()["per_layer"]}
    assert (tmp_path / f"spans-{workload}-5.jsonl").stat().st_size > 0


def test_tracer_wraps_while_installed():
    tracer = spans.Tracer()
    with tracer:
        wrapped = spans.wrapped_attributes()
    assert "pacloud.client.resolve_runtime_closure" in wrapped
    assert "pacloud.resolver.resolve_runtime_closure" in wrapped
    assert "pacloud.farm.queue.CompileQueue.receive" in wrapped
    assert "pacloud.core.BuildKey.parse" in wrapped
    assert spans.wrapped_attributes() == []


def test_benchmark_json_lists_the_per_layer_metrics():
    declared = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert declared == layers.UNITS


def test_timed_fails_on_a_thread_left_running(monkeypatch):
    monkeypatch.setattr(calib, "SETTLE_S", 0.05)
    stop = threading.Event()
    started = []

    def start_thread():
        thread = threading.Thread(target=stop.wait, daemon=True)
        thread.start()
        started.append(thread)

    try:
        with pytest.raises(calib.LeftoverThread):
            calib.timed(start_thread)
        calib.timed(start_thread, keep=lambda: set(started))
    finally:
        stop.set()
        for thread in started:
            thread.join()
