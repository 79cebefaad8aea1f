"""The four workloads: their ops, the inputs derived from the seed, and the
checks on every output.

An op is either a `dirichlet-mc` command line (run in-process through
`dirichlet_mc.cli.cli_main`, with `--out` appended by the runner) or a
library call for what the command line cannot reach.  Every op carries a
check that turns its output into a list of problems; an op with any
problem counts as failed.

The references here are stated independently of the program (closed forms
and the benchmark's own Hermite rule), so a check never compares the
program with itself.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# Two-sided |z| that a correct estimator stays under at any seed.  The CLI's
# own --strict density threshold (4) is meant for one run at a few points;
# across the hundreds of density points one benchmark run checks it would
# raise false alarms, so density ops are checked here at 6 standard errors.
Z_MAX = 6.0

# Relative kernel bias allowance K·ε^p per estimator: twice the largest
# |bias|/(f·ε^p) the noise-free quadrature sweep gives on lognormal over
# [0.1, 4] and ε ∈ [0.025, 0.4] (shifted 4.7, plain_gamma 0.6, plain_id 2.1).
KERNEL_BIAS = {"shifted": (10.0, 2), "plain_gamma": (1.2, 1), "plain_id": (4.2, 1)}

# gbm_euler at 16 steps differs from the exact GBM law by 1-2.2% relative at
# the query points below; the check allows 5%.
EULER_GAP = 0.05

# Laws the scenarios document (scenarios.py, README), restated here.
GBM_VOL, GBM_DRIFT, GBM_T, GBM_X0 = 0.3, 0.05, 1.0, 1.0
ADD_VOL, ADD_DRIFT, EULER_STEPS = 0.4, 0.1, 16
SQRT_2PI = math.sqrt(2.0 * math.pi)


# -- references ---------------------------------------------------------------

def normal_pdf(x, mean=0.0, var=1.0):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def lognormal_pdf(x, mu=0.0, sigma=1.0):
    x = np.asarray(x, dtype=float)
    safe = np.maximum(x, 1e-300)
    val = np.exp(-0.5 * ((np.log(safe) - mu) / sigma) ** 2) / (safe * sigma * SQRT_2PI)
    return np.where(x > 0, val, 0.0)


def triangular_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.clip(1.0 - np.abs(x - 1.0), 0.0, None)


_HX, _HW = np.polynomial.hermite_e.hermegauss(120)
_HW = _HW / SQRT_2PI


def pair_density(x):
    """Density of U₁ + sin(U₂): E[φ(x − sin U₂)] by a 120-node Hermite rule."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return normal_pdf(x[:, None] - np.sin(_HX)[None, :]) @ _HW


def pair_conditional(x):
    """E[sin U₂ | U₁ + sin U₂ = x] by the same rule."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = np.sin(_HX)
    return (s[None, :] * normal_pdf(x[:, None] - s[None, :])) @ _HW / pair_density(x)


GBM_MU = math.log(GBM_X0) + (GBM_DRIFT - 0.5 * GBM_VOL**2) * GBM_T
GBM_SIGMA = GBM_VOL * math.sqrt(GBM_T)

EXACT = {
    "gaussian": normal_pdf,
    "lognormal": lognormal_pdf,
    "gaussian_pair": pair_density,
    "triangular": triangular_pdf,
    "gbm_exact": lambda x: lognormal_pdf(x, GBM_MU, GBM_SIGMA),
}


def additive_euler_law() -> tuple[float, float]:
    """Mean and variance of the Euler scheme for dX = σ dB + rX dt, X₀ = 1.

    X_n = x0(1+rh)ⁿ + σ Σ_k db_k (1+rh)^(n-1-k), so the law is Gaussian with
    mean x0(1+rh)ⁿ and variance σ²h Σ_k (1+rh)^(2k).  Γ[X] equals that
    variance on every path, so the Γ-covariance kernel of width ε has the
    exact expectation N(mean, (1+ε)·variance).
    """
    h = GBM_T / EULER_STEPS
    growth = 1.0 + ADD_DRIFT * h
    mean = GBM_X0 * growth**EULER_STEPS
    var = ADD_VOL**2 * h * sum(growth ** (2 * k) for k in range(EULER_STEPS))
    return mean, var


# -- ops and checks -----------------------------------------------------------

@dataclass
class Report:
    """Problems found in one op's output, plus its (std_error, |reference|) rows."""

    problems: list[str] = field(default_factory=list)
    se: float = 0.0
    ref: float = 0.0

    def require(self, ok: bool, msg: str) -> bool:
        if not ok:
            self.problems.append(msg)
        return ok

    def se_row(self, se: float, ref: float) -> None:
        self.se += se
        self.ref += abs(ref)


@dataclass
class CliResult:
    rc: int
    rows: list[dict]
    stdout: str
    stderr: str


@dataclass
class Op:
    name: str
    check: Callable[[Report, object], None]
    argv: Optional[list[str]] = None
    call: Optional[Callable[[], object]] = None


def op_seed(seed: int, workload: str, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{workload}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def scaled(n: int, scale: float, floor: int = 1000) -> int:
    return max(floor, int(round(n * scale)))


def points_arg(points) -> str:
    # "--points=-2,..." because argparse reads "--points -2,..." as a flag
    return "--points=" + ",".join(repr(float(p)) for p in points)


def grid(lo: float, hi: float, k: int) -> list[float]:
    return [float(v) for v in np.linspace(lo, hi, k)]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _cli_ok(rep: Report, res: CliResult) -> bool:
    return rep.require(res.rc == 0, f"exit {res.rc}: {res.stderr.strip()[-200:]}")


def density_check(points, reference, *, side: str = "both", kernel: Optional[str] = None,
                  epsilon: float = 0.0, rel_allowance: float = 0.0, program_ref: bool = True):
    """Rows x,estimate,std_error,reference against a reference law.

    side="below" checks only that the estimate is not above the reference
    (the regularised formula is a lower approximation).  program_ref says
    whether the CSV carries the program's own reference, which must then
    agree with the benchmark's.
    """
    refs = np.asarray(reference(np.asarray(points, dtype=float)), dtype=float)
    k, p = KERNEL_BIAS[kernel] if kernel else (0.0, 0)

    def check(rep: Report, res: CliResult) -> None:
        if not _cli_ok(rep, res):
            return
        if not rep.require(len(res.rows) == len(points), f"{len(res.rows)} rows, want {len(points)}"):
            return
        for row, x, ref in zip(res.rows, points, refs):
            est, se = float(row["estimate"]), float(row["std_error"])
            rep.require(_close(float(row["x"]), x, 1e-12), f"x {row['x']} != {x}")
            if not rep.require(math.isfinite(est) and math.isfinite(se) and se > 0,
                               f"x={x}: estimate {est}, std_error {se}"):
                continue
            if program_ref:
                rep.require(row["reference"] != "" and _close(float(row["reference"]), ref, 1e-9),
                            f"x={x}: program reference {row['reference']!r} vs {ref!r}")
            slack = Z_MAX * se + abs(ref) * (k * epsilon**p + rel_allowance)
            dev = est - ref if side == "below" else abs(est - ref)
            rep.require(dev <= slack, f"x={x}: estimate {est:.6g} vs reference {ref:.6g} "
                                      f"(se {se:.3g}, allowed {slack:.3g})")
            rep.se_row(se, ref)

    return check


def identity_check(scenario: str, n: int):
    def check(rep: Report, res: CliResult) -> None:
        if not _cli_ok(rep, res):
            return
        rep.require(len(res.rows) == 8, f"{len(res.rows)} identity rows, want 8")
        for row in res.rows:
            z, thr = float(row["statistic"]), float(row["threshold"])
            rep.require(row["scenario"] == scenario and int(row["n"]) == n,
                        f"row {row['check']} names {row['scenario']}/{row['n']}")
            rep.require(row["passed"] == "true" and abs(z) <= thr,
                        f"{row['check']}: |z| = {abs(z):.2f} > {thr}")

    return check


def sweep_check(n_rows: int, density=None, variance_constant: bool = False, predict_n: int = 0):
    """Sweep rows epsilon,n,x,estimate,reference,abs_error,std_error.

    With density, the reference column of a bias sweep must match it.  With
    variance_constant the reference is f(x)/√(4πγ(x)) for the lognormal
    (γ = x²), the ε → 0 limit of ε^{1/2}·Var; at ε ∈ [1e-3, 1e-2] the exact
    value sits 4-13% below it, so estimates must lie in [0.8, 1.05] times
    the limit.  predict_n > 0 turns a noise-free variance row into the
    relative standard error a shifted-kernel run of predict_n samples would
    report, which is how the oracle workload feeds rel_se.
    """
    def check(rep: Report, res: CliResult) -> None:
        if not _cli_ok(rep, res):
            return
        if not rep.require(len(res.rows) == n_rows, f"{len(res.rows)} rows, want {n_rows}"):
            return
        for row in res.rows:
            eps, x, est = float(row["epsilon"]), float(row["x"]), float(row["estimate"])
            se = float(row["std_error"])
            if not rep.require(math.isfinite(est) and math.isfinite(se), f"eps={eps} x={x}: {est}"):
                continue
            if density is not None:
                ref = float(density(np.array([x]))[0])
                rep.require(_close(float(row["reference"]), ref, 1e-9),
                            f"eps={eps} x={x}: reference {row['reference']} vs {ref}")
            if variance_constant:
                f = float(lognormal_pdf(x))
                ref = f / math.sqrt(4.0 * math.pi * x * x)
                rep.require(_close(float(row["reference"]), ref, 1e-9),
                            f"eps={eps} x={x}: variance constant {row['reference']} vs {ref}")
                rep.require(0.8 * ref <= est <= 1.05 * ref,
                            f"eps={eps} x={x}: eps^1/2 Var {est:.6g} vs limit {ref:.6g}")
                if predict_n:
                    rep.se_row(math.sqrt(est / math.sqrt(eps) / predict_n), f)

    return check


def compare_check(sizes, epsilons, points):
    estimators = ("shifted", "plain_gamma", "plain_id", "direct", "regularized")
    refs = dict(zip(points, lognormal_pdf(np.asarray(points))))

    def check(rep: Report, res: CliResult) -> None:
        if not _cli_ok(rep, res):
            return
        want = len(sizes) * len(estimators) * len(points)
        if not rep.require(len(res.rows) == want, f"{len(res.rows)} rows, want {want}"):
            return
        for row in res.rows:
            name, x, n = row["estimator"], float(row["x"]), int(row["n"])
            est, se = float(row["estimate"]), float(row["std_error"])
            ref = float(refs[x])
            where = f"{name} n={n} x={x}"
            rep.require(n in sizes, f"{where}: unexpected n")
            rep.require(_close(float(row["reference"]), ref, 1e-9), f"{where}: reference")
            if not rep.require(math.isfinite(est) and se > 0, f"{where}: estimate {est}, se {se}"):
                continue
            slack = Z_MAX * se
            if name in KERNEL_BIAS:
                eps = float(row["epsilon"])
                rep.require(eps in epsilons, f"{where}: epsilon {eps} not offered")
                k, p = KERNEL_BIAS[name]
                slack += abs(ref) * k * eps**p
            dev = est - ref if name == "regularized" else abs(est - ref)
            rep.require(dev <= slack, f"{where}: estimate {est:.6g} vs {ref:.6g} (allowed {slack:.3g})")
            if name not in KERNEL_BIAS:
                # a kernel row's epsilon is the table's per-seed best, so its
                # standard error jumps with the seed; it stays out of rel_se
                rep.se_row(se, ref)

    return check


def density_argv(scenario, estimator, points, n, seed, workers=1, epsilon=None):
    argv = ["density", "--scenario", scenario, "--estimator", estimator, points_arg(points),
            "--samples", str(n), "--seed", str(seed), "--workers", str(workers)]
    if epsilon is not None:
        argv += ["--epsilons", repr(epsilon)]
    return argv


# -- workloads ----------------------------------------------------------------

def curve(seed: int, scale: float) -> list[Op]:
    """Dense density curves: the per-query cost of every estimator dominates."""
    n = scaled(500_000, scale)
    s = [op_seed(seed, "curve", i) for i in range(8)]
    ln64, pair32, ln32 = grid(0.1, 4.0, 64), grid(-2.0, 2.0, 32), grid(0.1, 4.0, 32)
    ops = [
        Op("lognormal_direct", density_check(ln64, lognormal_pdf),
           density_argv("lognormal", "direct", ln64, n, s[0])),
        Op("lognormal_regularized", density_check(ln64, lognormal_pdf, side="below"),
           density_argv("lognormal", "regularized", ln64, n, s[1], epsilon=1e-3)),
        Op("lognormal_centered", density_check(ln64, lognormal_pdf),
           density_argv("lognormal", "centered", ln64, n, s[2])),
        Op("pair_conditional", density_check(pair32, pair_conditional),
           density_argv("gaussian_pair", "conditional", pair32, n, s[3])),
        Op("pair_direct", density_check(pair32, pair_density),
           density_argv("gaussian_pair", "direct", pair32, n, s[4])),
        Op("lognormal_shifted", density_check(ln32, lognormal_pdf, kernel="shifted", epsilon=0.01),
           density_argv("lognormal", "shifted", ln32, n, s[5], epsilon=0.01)),
    ]
    ops.append(_kernel_2d_op(scaled(100_000, scale), s[6], s[7]))
    return ops


def _kernel_2d_op(n: int, seed_a: int, seed_b: int) -> Op:
    """d = 2 shifted kernel on a batch stacked from independent gaussian and
    lognormal builds: Γ is diagonal and the exact density is the product."""
    from dirichlet_mc import estimators, scenarios

    eps = 0.01
    q = np.array([(u, v) for u in grid(-1.5, 1.5, 4) for v in grid(0.5, 2.0, 4)])
    refs = normal_pdf(q[:, 0]) * lognormal_pdf(q[:, 1])

    def call():
        a = scenarios.get_scenario("gaussian").build(n, seed_a, 1)
        b = scenarios.get_scenario("lognormal").build(n, seed_b, 1)
        gamma = np.zeros((n, 2, 2))
        gamma[:, 0, 0], gamma[:, 1, 1] = a.gamma, b.gamma
        tb = estimators.TripleBatch(np.stack([a.x, b.x], 1), gamma, np.stack([a.a, b.a], 1))
        return estimators.shifted_kernel_density(tb, eps, q)

    def check(rep: Report, ests) -> None:
        if not rep.require(len(ests) == len(q), f"{len(ests)} estimates, want {len(q)}"):
            return
        k, p = KERNEL_BIAS["shifted"]
        for e, x, ref in zip(ests, q, refs):
            ok = rep.require(math.isfinite(e.value) and e.std_error > 0 and e.n_used == n,
                             f"x={x}: {e.value}, se {e.std_error}, n_used {e.n_used}")
            slack = Z_MAX * e.std_error + ref * k * eps**p
            if ok and rep.require(abs(e.value - ref) <= slack,
                                  f"x={x}: estimate {e.value:.6g} vs {ref:.6g}"):
                rep.se_row(e.std_error, ref)

    return Op("kernel_2d", check, call=call)


def paths_invariance_argv(seed: int, scale: float, workers: int) -> list[str]:
    """The paths op run at --workers 1 and 2 for the byte-identity check."""
    n = scaled(500_000, scale)
    return density_argv("gbm_euler", "shifted", [0.8, 1.0, 1.3], n,
                        op_seed(seed, "invariance", 0), workers=workers, epsilon=0.01)


def paths(seed: int, scale: float) -> list[Op]:
    """Sampling-heavy runs on two workers; estimators see three points."""
    s = [op_seed(seed, "paths", i) for i in range(3)]
    gbm_pts, add_pts = [0.8, 1.0, 1.3], [0.8, 1.1, 1.4]
    mean, var = additive_euler_law()
    eps = 0.01
    n_gbm, n_add, n_poi = scaled(2_000_000, scale), scaled(1_000_000, scale), scaled(1_000_000, scale)
    return [
        Op("gbm_euler_shifted",
           density_check(gbm_pts, EXACT["gbm_exact"], kernel="shifted", epsilon=eps,
                         rel_allowance=EULER_GAP, program_ref=False),
           density_argv("gbm_euler", "shifted", gbm_pts, n_gbm, s[0], workers=2, epsilon=eps)),
        Op("additive_euler_plain_gamma",
           density_check(add_pts, lambda x: normal_pdf(x, mean, (1.0 + eps) * var),
                         program_ref=False),
           density_argv("additive_euler", "plain_gamma", add_pts, n_add, s[1], workers=2,
                        epsilon=eps)),
        Op("poisson_identities", identity_check("poisson_mc_unit", n_poi),
           ["check-identities", "--scenario", "poisson_mc_unit", "--strict",
            "--samples", str(n_poi), "--seed", str(s[2]), "--workers", "2"]),
    ]


def tables(seed: int, scale: float) -> list[Op]:
    """The paper's Monte Carlo tables: many small ops at one to three points."""
    ops: list[Op] = []
    i = 0

    def nxt() -> int:
        nonlocal i
        i += 1
        return op_seed(seed, "tables", i)

    n_id = scaled(500_000, scale)
    for sc in ("gaussian", "lognormal", "gaussian_pair", "triangular", "gbm_exact"):
        ops.append(Op(f"identities_{sc}", identity_check(sc, n_id),
                      ["check-identities", "--scenario", sc, "--strict", "--samples", str(n_id),
                       "--seed", str(nxt())]))
    for n in (10_000, 100_000, 1_000_000):
        n = scaled(n, scale)
        for rep in range(8):
            for est in ("direct", "centered"):
                ops.append(Op(f"lln_{est}_n{n}_r{rep}", density_check([0.0], normal_pdf),
                              density_argv("gaussian", est, [0.0], n, nxt())))
    sizes = [scaled(n, scale) for n in (10_000, 100_000, 1_000_000)]
    epsilons = [0.4, 0.2, 0.1, 0.05, 0.025]
    pts = [0.5, 1.0, 2.0]
    ops.append(Op("compare_lognormal", compare_check(sizes, epsilons, pts),
                  ["compare", "--scenario", "lognormal",
                   "--estimators", "shifted,plain_gamma,plain_id,direct,regularized",
                   "--samples", ",".join(map(str, sizes)),
                   "--epsilons", ",".join(map(repr, epsilons)), points_arg(pts),
                   "--seed", str(nxt())]))
    # Not --strict: at ε = 1e-3 the exact constant is already 4.4% below the
    # limit, so 10^6 samples cross the CLI's 5% threshold on about a third of
    # seeds.  Its std_error column is left out of rel_se (see BENCHMARK.md).
    ops.append(Op("variance_sweep_mc", sweep_check(3, variance_constant=True),
                  ["sweep-variance", "--scenario", "lognormal", points_arg([1.0]),
                   "--samples", str(scaled(1_000_000, scale, floor=500_000)), "--seed", str(nxt())]))
    return ops


def oracles(seed: int, scale: float) -> list[Op]:
    """Deterministic oracles with cold caches: quadrature does the work."""
    from dirichlet_mc import quadrature, scenarios

    ops: list[Op] = []
    for name in ("gaussian", "lognormal", "gaussian_pair", "triangular", "gbm_exact"):
        # the pair density costs a 96-node rule per integrand point
        panels = 32 if name == "gaussian_pair" else 512

        def mass(name=name, panels=panels):
            sc = scenarios.get_scenario(name)
            lo, hi = sc.mass_bounds or sc.support
            return quadrature.law_integral(sc.exact_density, lo, hi, panels=panels, order=12)

        def mass_check(rep: Report, m, name=name):
            rep.require(abs(m - 1.0) <= 1e-4, f"{name} integrates to {m!r}")

        ops.append(Op(f"mass_{name}", mass_check, call=mass))

    rng = random.Random(op_seed(seed, "oracles", 0))
    cond_pts = sorted(rng.uniform(-3.0, 3.0) for _ in range(max(4, int(round(128 * scale)))))
    cond_refs = pair_conditional(cond_pts)

    def cond_call():
        return [scenarios.pair_conditional_oracle(x) for x in cond_pts]

    def cond_check(rep: Report, vals):
        for x, v, ref in zip(cond_pts, vals, cond_refs):
            rep.require(abs(v - ref) <= 1e-8, f"conditional oracle at {x}: {v!r} vs {ref!r}")

    ops.append(Op("pair_conditional_oracle", cond_check, call=cond_call))

    epsilons = [0.2 * 2.0**-k for k in range(8)]
    for sc in ("lognormal", "gbm_exact"):
        n_pts = len(scenarios.get_scenario(sc).default_points)
        for est in ("shifted", "plain_gamma", "plain_id"):
            ops.append(Op(f"bias_{sc}_{est}", sweep_check(8 * n_pts, density=EXACT[sc]),
                          ["sweep-bias", "--scenario", sc, "--estimator", est, "--strict",
                           "--epsilons", ",".join(map(repr, epsilons))]))
    var_eps = [float(v) for v in np.geomspace(0.01, 0.001, 5)]
    ops.append(Op("variance_sweep_quadrature",
                  sweep_check(5 * 3, variance_constant=True, predict_n=1_000_000),
                  ["sweep-variance", "--scenario", "lognormal", "--strict",
                   "--epsilons", ",".join(map(repr, var_eps))]))
    return ops


WORKLOADS: dict[str, Callable[[int, float], list[Op]]] = {
    "curve": curve,
    "paths": paths,
    "tables": tables,
    "oracles": oracles,
}
