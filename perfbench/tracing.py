"""Spans recorded from outside the program, and the per-layer metrics built
from them.

For a traced pass, `install` replaces the public functions each layer calls
through module attributes that are looked up at call time (for example
`scenarios.sample_chunked` or `cli.direct_density`) with wrappers that
record a span: name, layer, start, end, parent span, op and a few counts.
Scenario builders are reached through the `SCENARIOS` registry, whose
entries are swapped for copies with a wrapped `build`.  `install` returns
the function that puts everything back.  No file of the program changes.

Spans nest through a per-thread stack; a chunk drawn on a pool thread is
parented explicitly to the `sample_chunked` span that scheduled it.  A
span's exclusive time is its interval minus the union of its children's.
Wall time is attributed by a sweep over all exclusive intervals: each
instant is split evenly between the spans exclusive at that instant, so
the per-layer self times of one pass add up to its traced wall time even
when two pool threads run at once.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict

ESTIMATOR_NAMES = (
    "direct", "regularized", "centered", "conditional", "shifted_1d",
    "plain_gamma", "plain_id", "shifted_2d", "identity",
)


class Tracer:
    """In-memory span store; spans are written out when the pass ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, layer: str, parent: int | None = None) -> "_Span":
        return _Span(self, name, layer, parent)


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: Tracer, name: str, layer: str, parent: int | None):
        self.tracer = tracer
        self.rec = {"id": next(tracer._ids), "parent": parent, "name": name, "layer": layer,
                    "op": tracer.op, "thread": threading.get_ident(), "t0": 0.0, "t1": 0.0,
                    "counts": {}}

    def __enter__(self) -> dict:
        stack = self.tracer._stack()
        if self.rec["parent"] is None and stack:
            self.rec["parent"] = stack[-1]
        stack.append(self.rec["id"])
        self.rec["t0"] = time.perf_counter()
        return self.rec

    def __exit__(self, *exc) -> None:
        self.rec["t1"] = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(self.rec)


def _wrap(tracer: Tracer, fn, name: str, layer: str, counts=None):
    """Wrapper recording one span per call; counts(bound_args, result) -> dict."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, layer) as rec:
            out = fn(*args, **kwargs)
        if counts is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            rec["counts"].update(counts(bound.arguments, out))
        return out

    return wrapper


def _wrap_sample_chunked(tracer: Tracer, fn):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        draw = bound.arguments["draw"]
        with tracer.span("streams.sample_chunked", "streams") as rec:
            parent = rec["id"]

            def traced_draw(rng, k):
                with tracer.span("streams.draw", "streams", parent=parent) as d:
                    out = draw(rng, k)
                d["counts"]["chunks"] = 1 if k > 0 else 0
                return out

            bound.arguments["draw"] = traced_draw
            out = fn(*bound.args, **bound.kwargs)
        rec["counts"]["workers"] = int(bound.arguments["workers"])
        return out

    return wrapper


def _estimate_counts(fname: str):
    """Counts for an estimator call: which estimator, queries, N·Q, samples used."""
    name = _ESTIMATOR_FUNCS[fname]

    def counts(a, out):
        b = a["b"]
        if name == "identity":
            used = int((b.gamma > 0).sum()) if fname == "weight_centering_z" else b.n
            return {"est": name, "queries": 1, "nq": b.n, "used": used, "avail": b.n}
        if name == "shifted":
            est = "shifted_2d" if b.d == 2 else "shifted_1d"
        elif name == "plain":
            est = "plain_id" if a["variant"] == "identity_cov" else "plain_gamma"
        else:
            est = name
        if name == "conditional":
            used = sum(e.numerator.n_used for e in out)
        else:
            used = sum(e.n_used for e in out)
        q = len(out)
        return {"est": est, "queries": q, "nq": b.n * q, "used": used, "avail": b.n * q}

    return counts


# estimator functions, by the name each caller imports them under
_ESTIMATOR_FUNCS = {
    "direct_density": "direct",
    "regularized_density": "regularized",
    "centered_direct_density": "centered",
    "conditional_expectation": "conditional",
    "shifted_kernel_density": "shifted",
    "plain_kernel_density": "plain",
    "generator_centering_z": "identity",
    "ibp_residual_z": "identity",
    "weight_centering_z": "identity",
}


def _batch_bytes(batch) -> int:
    return sum(getattr(batch, f.name).nbytes for f in dataclasses.fields(batch)
               if hasattr(getattr(batch, f.name), "nbytes"))


def install(tracer: Tracer):
    """Wrap every layer boundary the workloads cross; returns the undo function."""
    from dirichlet_mc import cli, estimators, quadrature, scenarios, sweeps

    saved: list[tuple[object, str, object]] = []

    def patch(module, attr, wrapper):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    patch(scenarios, "sample_chunked", _wrap_sample_chunked(tracer, scenarios.sample_chunked))
    patch(scenarios, "simulate_triple_batch", _wrap(
        tracer, scenarios.simulate_triple_batch, "wiener.simulate_triple_batch", "wiener",
        lambda a, out: {"path_steps": int(a["n"]) * int(a["n_paths"])}))
    patch(scenarios, "sample_poisson_arrays", _wrap(
        tracer, scenarios.sample_poisson_arrays, "poisson.sample_poisson_arrays", "poisson",
        lambda a, out: {"points": int(out[4].sum())}))

    def law_nodes(a, out):
        return {"nodes": int(a["panels"]) * int(a["order"])}

    def rule_nodes(a, out):
        return {"nodes": int(a["order"]) ** len(tuple(a["specs"]))}

    patch(quadrature, "law_integral", _wrap(
        tracer, quadrature.law_integral, "quadrature.law_integral", "quadrature", law_nodes))
    patch(scenarios, "law_integral", _wrap(
        tracer, scenarios.law_integral, "quadrature.law_integral", "quadrature", law_nodes))
    patch(scenarios, "quadrature_expectation", _wrap(
        tracer, scenarios.quadrature_expectation, "quadrature.quadrature_expectation",
        "quadrature", rule_nodes))
    patch(sweeps, "kernel_moment_integral", _wrap(
        tracer, sweeps.kernel_moment_integral, "quadrature.kernel_moment_integral", "quadrature"))

    for module in (cli, sweeps, estimators):
        for fname in _ESTIMATOR_FUNCS:
            if hasattr(module, fname):
                patch(module, fname, _wrap(tracer, getattr(module, fname), f"estimators.{fname}",
                                           "estimators", _estimate_counts(fname)))

    for fname in ("run_bias_sweep", "run_variance_sweep", "run_identity_suite",
                  "compare_estimators"):
        patch(cli, fname, _wrap(tracer, getattr(cli, fname), f"sweeps.{fname}", "sweeps"))

    def csv_counts(a, out):
        path = a["path"]
        return {"csv_bytes": os.path.getsize(path) if path else 0}

    patch(cli, "_write_csv", _wrap(tracer, cli._write_csv, "cli.write_csv", "cli_csv", csv_counts))

    def build_counts(a, out):
        return {"requested": int(a["n"]), "kept": int(out.n), "bytes": _batch_bytes(out)}

    originals = dict(scenarios.SCENARIOS)
    for name, sc in originals.items():
        build = _wrap(tracer, sc.build, f"scenarios.build.{name}", "scenarios", build_counts)
        scenarios.SCENARIOS[name] = dataclasses.replace(sc, build=build)

    def undo() -> None:
        scenarios.SCENARIOS.clear()
        scenarios.SCENARIOS.update(originals)
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)

    return undo


# -- analysis -----------------------------------------------------------------

def _exclusive(rec: dict, kids: list[dict]) -> list[tuple[float, float]]:
    """rec's interval minus the union of its children's intervals."""
    out, cur = [], rec["t0"]
    for a, b in sorted((max(k["t0"], rec["t0"]), min(k["t1"], rec["t1"])) for k in kids):
        if a > cur:
            out.append((cur, a))
        cur = max(cur, b)
    if rec["t1"] > cur:
        out.append((cur, rec["t1"]))
    return out


def attribute(spans: list[dict]) -> dict[int, float]:
    """Wall-clock self time per span id, splitting concurrent exclusive time evenly."""
    kids: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    events = []
    for s in spans:
        for a, b in _exclusive(s, kids[s["id"]]):
            if b > a:
                events.append((a, 1, s["id"]))
                events.append((b, 0, s["id"]))
    events.sort()
    share: dict[int, float] = defaultdict(float)
    active: set[int] = set()
    last = None
    for t, kind, sid in events:
        if active and t > last:
            piece = (t - last) / len(active)
            for a in active:
                share[a] += piece
        if kind:
            active.add(sid)
        else:
            active.discard(sid)
        last = t
    return share


def layer_metrics(spans: list[dict], traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see BENCHMARK.md for each name)."""
    share = attribute(spans)
    by_id = {s["id"]: s for s in spans}
    self_s: dict[str, float] = defaultdict(float)
    for sid, t in share.items():
        self_s[by_id[sid]["layer"]] += t

    def total(key, layer=None, name=None):
        return sum(s["counts"].get(key, 0) for s in spans
                   if (layer is None or s["layer"] == layer) and (name is None or s["name"] == name))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    pool_spans = [s for s in spans if s["name"] == "streams.sample_chunked"]
    draw_time = sum(s["t1"] - s["t0"] for s in spans if s["name"] == "streams.draw")
    capacity = sum(s["counts"]["workers"] * (s["t1"] - s["t0"]) for s in pool_spans)
    m["streams.chunks"] = total("chunks", name="streams.draw")
    m["streams.busy_s"] = self_s["streams"]
    m["streams.pool_util"] = draw_time / capacity if capacity > 0 else 0.0

    m["wiener.path_steps"] = total("path_steps", "wiener")
    m["wiener.busy_s"] = self_s["wiener"]
    m["wiener.path_steps_per_s"] = rate(m["wiener.path_steps"], self_s["wiener"])

    m["poisson.points"] = total("points", "poisson")
    m["poisson.busy_s"] = self_s["poisson"]
    m["poisson.points_per_s"] = rate(m["poisson.points"], self_s["poisson"])

    builds = [s for s in spans if s["layer"] == "scenarios"]
    requested = sum(s["counts"]["requested"] for s in builds)
    m["scenarios.build_s"] = self_s["scenarios"]
    m["scenarios.samples_requested"] = requested
    m["scenarios.kept_frac"] = sum(s["counts"]["kept"] for s in builds) / requested if requested else 0.0
    m["scenarios.batch_mb"] = max((s["counts"]["bytes"] for s in builds), default=0) / 2**20

    est_spans = [s for s in spans if s["layer"] == "estimators"]
    for name in ESTIMATOR_NAMES:
        mine = [s for s in est_spans if s["counts"]["est"] == name]
        q = sum(s["counts"]["queries"] for s in mine)
        avail = sum(s["counts"]["avail"] for s in mine)
        m[f"estimators.{name}.queries"] = q
        m[f"estimators.{name}.s_per_query"] = sum(share[s["id"]] for s in mine) / q if q else 0.0
        m[f"estimators.{name}.used_frac"] = sum(s["counts"]["used"] for s in mine) / avail if avail else 0.0
    m["estimators.sample_queries_per_s"] = rate(
        sum(s["counts"]["nq"] for s in est_spans), self_s["estimators"])

    m["quadrature.nodes"] = total("nodes", "quadrature")
    m["quadrature.busy_s"] = self_s["quadrature"]
    m["quadrature.nodes_per_s"] = rate(m["quadrature.nodes"], self_s["quadrature"])

    sweep_ids = {s["id"] for s in spans if s["layer"] == "sweeps"}
    m["sweeps.self_s"] = self_s["sweeps"]
    m["sweeps.estimator_calls"] = sum(
        1 for s in spans if s["parent"] in sweep_ids and s["layer"] in ("estimators", "quadrature"))

    m["cli.ops"] = sum(1 for s in spans if s["name"] == "cli.cli_main")
    m["cli.self_s"] = self_s["cli"]
    m["cli.csv_write_s"] = self_s["cli_csv"]
    m["cli.csv_bytes"] = total("csv_bytes", "cli_csv")

    program = sum(t for layer, t in self_s.items() if layer != "bench")
    m["trace.accounted_frac"] = program / traced_wall if traced_wall > 0 else 0.0
    return m
