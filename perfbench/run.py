"""Benchmark of dirichlet-mc: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload curve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Everything runs in child processes that
import the package from `src/` (see child.py): first the worker-invariance
check, then set-up probes, then passes over the workload's ops until
--seconds is spent, each pass in a fresh interpreter so caches start cold
the way they do for every CLI process.  With --trace 1, passes alternate
untraced and traced and the per-layer metrics are reported instead of the
end-to-end ones.  The last line of standard output is the JSON result.
See BENCHMARK.md for the workloads and the meaning of every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import ESTIMATOR_NAMES

HERE = Path(__file__).resolve().parent
WORKLOADS = ("curve", "paths", "tables", "oracles")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole invocation ends well inside 180 s
# numpy's BLAS must not add threads beyond the workload's own workers
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "rel_se": "frac", "ok_frac": "frac",
}
PER_LAYER = {
    "streams.chunks": "count", "streams.busy_s": "s", "streams.pool_util": "frac",
    "wiener.path_steps": "count", "wiener.busy_s": "s", "wiener.path_steps_per_s": "1/s",
    "poisson.points": "count", "poisson.busy_s": "s", "poisson.points_per_s": "1/s",
    "scenarios.build_s": "s", "scenarios.samples_requested": "count",
    "scenarios.kept_frac": "frac", "scenarios.batch_mb": "MB",
    **{f"estimators.{e}.{m}": u for e in ESTIMATOR_NAMES
       for m, u in (("queries", "count"), ("s_per_query", "s"), ("used_frac", "frac"))},
    "estimators.sample_queries_per_s": "1/s",
    "quadrature.nodes": "count", "quadrature.busy_s": "s", "quadrature.nodes_per_s": "1/s",
    "sweeps.self_s": "s", "sweeps.estimator_calls": "count",
    "cli.ops": "count", "cli.self_s": "s", "cli.csv_write_s": "s", "cli.csv_bytes": "bytes",
    "trace.overhead_frac": "frac", "trace.accounted_frac": "frac",
}


class ChildFailed(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    # the CLI lets this variable override --seed; op seeds come from the benchmark
    env.pop("DIRICHLET_MC_SEED", None)
    return env


def run_child(root: Path, env: dict, args: list[str], deadline: float) -> tuple[dict, float]:
    """Start one child, wait for it, return (its JSON result, wall seconds)."""
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        raise ChildFailed(f"no time left for child {args[0]}")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=root, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {args[0]} timed out") from None
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), elapsed


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def measure(args, root: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = root / ".perfbench"
    passdir = workdir / f"run-{os.getpid()}"
    passdir.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    attempted = failed = 0
    problems: list[str] = []
    try:
        inv, _ = run_child(root, env, ["invariance", str(args.seed), str(args.scale), str(passdir)],
                           deadline)
        attempted, failed, problems = inv["attempted"], inv["failed"], list(inv["problems"])

        setups = [run_child(root, env, ["setup"], deadline)[0] for _ in range(SETUP_PROBES)]

        passes: list[dict] = []
        spent: list[float] = []
        t_start = time.monotonic()
        while True:
            traced = args.trace == 1 and len(passes) % 2 == 1
            res, elapsed = run_child(
                root, env,
                ["pass", args.workload, str(args.seed), str(args.scale), "1" if traced else "0",
                 str(passdir)], deadline)
            res["traced"] = traced
            passes.append(res)
            spent.append(elapsed)
            attempted += res["attempted"]
            failed += res["failed"]
            problems += res["problems"]
            typical = statistics.median(spent)
            now = time.monotonic()
            if now + typical > deadline - 2.0:
                break
            if args.trace == 1 and len(passes) < 2:
                continue
            if now - t_start + typical > args.seconds:
                break
    finally:
        shutil.rmtree(passdir, ignore_errors=True)
    return {"setups": setups, "passes": passes, "attempted": attempted, "failed": failed,
            "problems": problems}


def op_median_wall(passes: list[dict], key: str = "norm") -> float:
    """Sum over ops of each op's median time across passes.

    key "norm" takes each op's time at reference machine speed (see
    passes.py), "times" its raw wall time.  Taking the median per op before
    summing keeps a burst that hit one op of one pass out of the result.
    """
    names = passes[0][key]
    return sum(statistics.median(p[key][k] for p in passes) for k in names)


def end_to_end_metrics(run: dict) -> dict[str, float]:
    passes = run["passes"]
    first = passes[0]
    return {
        "wall_s": op_median_wall(passes),
        "setup_s": statistics.median(s["setup_norm_s"] for s in run["setups"]),
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in passes),
        "rel_se": first["se"] / first["ref"] if first["ref"] > 0 else 0.0,
        "ok_frac": 1.0 - run["failed"] / run["attempted"],
    }


def per_layer_metrics(run: dict) -> dict[str, float]:
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    if not traced:
        raise ChildFailed("no traced pass fitted in the time limit")
    m = {k: statistics.median_low(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    base = op_median_wall(plain)
    m["trace.overhead_frac"] = (op_median_wall(traced) - base) / base
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply every op's sample count (the benchmark's own tests use < 1)")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dirichlet_mc" / "cli.py").is_file():
        print(f"perfbench: no dirichlet_mc sources under {root / 'src'}; "
              "run from the root of a dirichlet-mc checkout", file=sys.stderr)
        return 2
    try:
        run = measure(args, root)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    try:
        values = per_layer_metrics(run) if args.trace else end_to_end_metrics(run)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    timed = sum(not p["traced"] for p in run["passes"])
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "scale": args.scale,
        "passes_untraced": timed, "passes_traced": len(run["passes"]) - timed,
        "setup_probes": len(run["setups"]), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": run["passes"][0]["numpy"],
        "commit": git_commit(root),
        "blas_threads": dict.fromkeys(BLAS_THREAD_VARS, "1"),
        "failed_frac": run["failed"] / run["attempted"],
        "raw_wall_s": op_median_wall([p for p in run["passes"] if not p["traced"]], "times"),
        "raw_setup_s": statistics.median(s["setup_s"] for s in run["setups"]),
        "calibration_s": statistics.median(s["cal_s"] for s in run["setups"]),
        "trace_file": next((p["trace_file"] for p in reversed(run["passes"]) if p["traced"]), None),
    }
    for line in run["problems"][:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    record = root / ".perfbench" / f"result-{args.workload}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": info, "problems": run["problems"], **result}, indent=1))
    print(json.dumps({"env": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
