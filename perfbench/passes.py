"""What one child process does: a timed or traced pass over a workload's ops,
or the worker-invariance check.  Each op's output is checked after its
timer stops, so checks never count towards wall time.

The machine's speed drifts: other tenants of its cores slow every kind of
work by up to ~1.5x for tens of seconds at a time, which is longer than a
run.  A fixed calibration kernel is therefore timed between consecutive
ops, and each op's time is also reported at reference speed: its wall time
times CAL_REF_S over the mean of the calibrations just before and after it.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import resource
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads


def _read_rows(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _execute(op: workloads.Op, out: Path, tracer: tracing.Tracer | None):
    """Run one op; returns (seconds, value or None, traceback text or None)."""
    from dirichlet_mc import cli

    if op.argv is not None:
        span = tracer.span("cli.cli_main", "cli") if tracer else contextlib.nullcontext()
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), span:
                rc = cli.cli_main(op.argv + ["--out", str(out)])
        except Exception:
            return time.perf_counter() - t0, None, traceback.format_exc()
        dt = time.perf_counter() - t0
        return dt, workloads.CliResult(rc, _read_rows(out), stdout.getvalue(), stderr.getvalue()), None
    span = tracer.span(f"bench.{op.name}", "bench") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span:
            value = op.call()
    except Exception:
        return time.perf_counter() - t0, None, traceback.format_exc()
    return time.perf_counter() - t0, value, None


# the calibration kernel's time at reference speed (its median on the
# 2-core, 2.1 GHz box the benchmark was defined on)
CAL_REF_S = 0.007
_CAL_X = np.random.default_rng(0).normal(size=200_000)
_CAL_BUF = np.empty_like(_CAL_X)


def _cal_numpy(rounds: int) -> None:
    for _ in range(rounds):
        np.subtract(0.3, _CAL_X, out=_CAL_BUF)
        np.sign(_CAL_BUF, out=_CAL_BUF)
        np.multiply(_CAL_BUF, _CAL_X, out=_CAL_BUF)
        _CAL_BUF.sum()


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and numpy work.

    It allocates nothing and warms its arrays into cache before the clock
    starts, so its time does not depend on what the op before it left in
    the allocator or the caches."""
    _cal_numpy(1)
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    _cal_numpy(4)
    return time.perf_counter() - t0


def run_pass(workload: str, seed: int, scale: float, workdir: Path, traced: bool) -> dict:
    """All ops of one workload, in order, each timed and then checked."""
    ops = workloads.WORKLOADS[workload](seed, scale)
    tracer = tracing.Tracer() if traced else None
    undo = tracing.install(tracer) if traced else None
    times: dict[str, float] = {}
    norm: dict[str, float] = {}
    problems: list[str] = []
    failed = 0
    se = ref = 0.0
    try:
        cal = calibrate()
        for i, op in enumerate(ops):
            out = workdir / f"op{i}.csv"
            if tracer:
                tracer.op = op.name
            dt, value, tb = _execute(op, out, tracer)
            cal_before, cal = cal, calibrate()
            times[op.name] = dt
            norm[op.name] = dt * CAL_REF_S / (0.5 * (cal_before + cal))
            rep = workloads.Report()
            if tb is not None:
                rep.problems.append(tb.strip().splitlines()[-1])
            else:
                try:
                    op.check(rep, value)
                except Exception:
                    rep.problems.append("check raised " + traceback.format_exc().strip().splitlines()[-1])
            if rep.problems:
                failed += 1
                problems += [f"{workload}/{op.name}: {p}" for p in rep.problems[:3]]
            se += rep.se
            ref += rep.ref
    finally:
        if undo:
            undo()
    wall = sum(times.values())
    result = {
        "wall": wall, "times": times, "norm": norm, "attempted": len(ops), "failed": failed,
        "problems": problems, "se": se, "ref": ref,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans, wall)
        base = min((s["t0"] for s in tracer.spans), default=0.0)
        spans = [dict(s, t0=s["t0"] - base, t1=s["t1"] - base) for s in tracer.spans]
        spans.sort(key=lambda s: s["t0"])
        trace_file = workdir.parent / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps({"workload": workload, "seed": seed, "spans": spans}))
        result["trace_file"] = str(trace_file)
    return result


def run_invariance(seed: int, scale: float, workdir: Path) -> dict:
    """One paths op at --workers 1 and 2: the CSVs must be byte-identical."""
    from dirichlet_mc import cli

    texts, problems = [], []
    for workers in (1, 2):
        out = workdir / f"invariance-w{workers}.csv"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.cli_main(workloads.paths_invariance_argv(seed, scale, workers) + ["--out", str(out)])
        if rc != 0:
            problems.append(f"invariance: workers={workers} exited {rc}")
        texts.append(out.read_bytes() if out.exists() else b"")
    if texts[0] != texts[1] or not texts[0]:
        problems.append("invariance: CSV differs between --workers 1 and --workers 2")
    return {"attempted": 1, "failed": int(bool(problems)), "problems": problems}
