"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection;
these tests start benchmark runs and take about a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("streams.chunks", "wiener.path_steps", "quadrature.nodes", "cli.ops")


def _bench(workload: str, trace: int, seed: int = 5) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@lru_cache(maxsize=None)
def small_run(workload: str, trace: int) -> dict:
    return _bench(workload, trace)


def test_spec_matches_the_metrics_the_runner_reports():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_run_reports_every_metric_with_its_unit(workload, trace):
    result = small_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_exact_counts_repeat_across_traced_runs(workload):
    first = small_run(workload, 1)["metrics"]
    second = _bench(workload, 1)["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_traced_self_times_account_for_wall_time():
    metrics = small_run("paths", 1)["metrics"]
    assert metrics["trace.accounted_frac"]["value"] == pytest.approx(1.0, abs=0.02)
    assert metrics["streams.chunks"]["value"] > 0 and metrics["wiener.path_steps"]["value"] > 0


def test_negative_control_shifted_a_fails_ops(tmp_path, monkeypatch):
    """Shift A the way --corrupt-a does, in every quad build: checks must fire."""
    import dataclasses

    import passes
    from dirichlet_mc import scenarios
    from dirichlet_mc.estimators import QuadBatch

    def corrupt(build):
        def wrapped(n, seed, workers):
            b = build(n, seed, workers)
            return scenarios.corrupt_quad_batch(b, 0.1) if isinstance(b, QuadBatch) else b
        return wrapped

    patched = {k: dataclasses.replace(sc, build=corrupt(sc.build))
               for k, sc in scenarios.SCENARIOS.items()}
    monkeypatch.setattr(scenarios, "SCENARIOS", patched)
    result = passes.run_pass("tables", 3, 0.05, tmp_path, traced=False)
    assert result["failed"] / result["attempted"] > 0
    assert any("identities_gaussian" in p for p in result["problems"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "curve", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_attribution_splits_concurrent_time_and_sums_to_the_root():
    spans = [
        {"id": 1, "parent": None, "layer": "cli", "t0": 0.0, "t1": 10.0},
        {"id": 2, "parent": 1, "layer": "streams", "t0": 1.0, "t1": 9.0},
        {"id": 3, "parent": 2, "layer": "streams", "t0": 1.0, "t1": 5.0},
        {"id": 4, "parent": 2, "layer": "streams", "t0": 1.0, "t1": 5.0},
        {"id": 5, "parent": 4, "layer": "wiener", "t0": 2.0, "t1": 4.0},
    ]
    share = tracing.attribute(spans)
    assert sum(share.values()) == pytest.approx(10.0)
    assert share[1] == pytest.approx(2.0)
    assert share[2] == pytest.approx(4.0)
    assert share[3] == pytest.approx(2.0)
    assert share[4] == pytest.approx(1.0)
    assert share[5] == pytest.approx(1.0)
