"""Bias/variance sweeps, identity suites and convergence-order fitting.

Bias sweeps answer: how fast does E[f̂_ε(x)] - f(x) shrink as ε ↓ 0?
The expectation is computed noise-free by quadrature in the law of X
(available when Γ and A are deterministic functions of X), so the fitted
order is a property of the estimator, not of sampling noise.  Variance
sweeps check the ε^{-1/2} blow-up of the kernel variance against the
reduced constant f(x)/√(4π γ(x)).  Identity suites exercise the exact
expectations that must vanish: the generator statistic, the regularised
integration-by-parts residual, and the centering of the direct weight.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .estimators import (
    ESTIMATORS,
    check_epsilon,
    get_estimator,
    identity_z_scores,
    run_estimator,
    run_pass,
    shifted_kernel_variance,
)
from .quadrature import UnresolvedKernelError, kernel_moment_integral
from .scenarios import Scenario, at_points, corrupt_quad_batch, get_scenario, is_default_build

IDENTITY_Z_THRESHOLD = 4.0
# the one estimator a variance sweep measures: shifted_kernel_variance's kernel
VARIANCE_ESTIMATOR = "shifted"


@dataclass(frozen=True)
class SweepRow:
    """One record of a sweep, against the exact reference every sweep needs."""

    epsilon: float
    n: int
    x: float
    estimate: float
    reference: float
    abs_error: float
    std_error: float

    @staticmethod
    def make(epsilon, n, x, estimate, reference, std_error) -> "SweepRow":
        return SweepRow(epsilon, n, x, estimate, reference, abs(estimate - reference), std_error)


@dataclass(frozen=True)
class SweepConfig:
    scenario: str
    estimator: str
    epsilons: tuple[float, ...]
    sample_size: int | str = "quadrature"
    query_points: tuple[float, ...] = ()
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "query_points", tuple(float(x) for x in self.query_points))
        if len(eps) == 0:
            raise ValueError("epsilons must be given")
        for e in eps:
            check_epsilon(e)
        for x in self.query_points:
            if not math.isfinite(x):
                raise ValueError(f"query points must be finite, got {x!r}")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly decreasing")
        if self.sample_size != "quadrature":
            object.__setattr__(self, "sample_size", sample_count(self.sample_size))
            if self.sample_size < 1000:
                raise ValueError("Monte Carlo sweeps need at least 10^3 samples")


def sample_count(n) -> int:
    """n as an int; a ValueError naming n unless it is an integral number ≥ 1
    (2000.0 is accepted, 2000.7 is rejected, never truncated)."""
    if (isinstance(n, (int, np.integer)) or (isinstance(n, float) and n.is_integer())) and n >= 1:
        return int(n)
    raise ValueError(f"sample counts must be integers >= 1, got {n!r}")


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """Ordinary least squares slope of log y against log x."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError("need at least two points to fit a slope")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("log-log fit needs strictly positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    design = np.vstack([lx, np.ones_like(lx)]).T
    return float(np.linalg.lstsq(design, ly, rcond=None)[0][0])


def _monte_carlo(sc: Scenario, cfg: SweepConfig, points, reducer) -> list:
    """Per ε, reducer(stream, ε, points)'s result on one stream drawn once."""
    stream = sc.stream(cfg.sample_size, cfg.seed, cfg.workers)
    passes = run_pass(stream, [reducer(stream, eps, points) for eps in cfg.epsilons])
    return [res[stream.requested] for res in passes]


def _require_reduced(sc: Scenario, purpose: str) -> None:
    if sc.exact_density is None or not sc.has_reduced_form:
        raise ValueError(
            f"scenario {sc.name!r} cannot drive a {purpose}: it needs an exact density "
            "and deterministic γ(x), a(x) reduced forms (degenerate or structureless "
            "scenarios are not eligible)"
        )


@dataclass(frozen=True)
class BiasSweepResult:
    rows: tuple[SweepRow, ...]
    slope: float
    fit_points: tuple[tuple[float, float], ...]
    notices: tuple[str, ...]


def run_bias_sweep(cfg: SweepConfig) -> BiasSweepResult:
    """Bias of a kernel estimator per ε, plus the fitted convergence order.

    The least-squares slope uses the last four epsilons whose bias is
    resolvable; an ε is dropped from the fit with a notice when its mean
    |bias| is below ten times the estimated quadrature tolerance
    (quadrature mode) or three times its mean standard error (Monte
    Carlo), and fewer than two resolvable ε is a ValueError.
    """
    kernel = get_estimator(cfg.estimator).kernel
    if kernel is None:
        raise ValueError(
            "bias sweeps cover the kernel estimators "
            f"{sorted(n for n, e in ESTIMATORS.items() if e.kernel)}, not {cfg.estimator!r}"
        )
    shift, identity_cov = kernel
    sc = get_scenario(cfg.scenario)
    if cfg.sample_size == "quadrature":
        _require_reduced(sc, "quadrature bias sweep")
    elif sc.exact_density is None:
        raise ValueError(f"scenario {sc.name!r} has no exact density to measure the bias against")
    points = cfg.query_points or sc.default_points
    refs = at_points(sc.exact_density, points)
    rows, notices, tol_by_eps = [], [], {}  # tol_by_eps: quadrature tolerance per ε
    if cfg.sample_size == "quadrature":
        for eps in cfg.epsilons:
            try:  # the default 16-point rule and a coarser one bound the quadrature error
                ests = [[kernel_moment_integral(
                    x, eps, sc.exact_density, sc.gamma_of_x, sc.a_of_x, sc.support,
                    shift=shift, identity_cov=identity_cov, power=1, order=order,
                ) for order in (16, 10)] for x in points]
            except UnresolvedKernelError as exc:
                notices.append(f"epsilon={eps:g} dropped from the fit: {exc}")
                continue
            rows += [SweepRow.make(eps, 0, x, est, ref, 0.0)
                     for x, ref, (est, _) in zip(points, refs, ests)]
            tol_by_eps[eps] = max(max(abs(est - coarse), 1e-14 * max(1.0, abs(est)))
                                  for est, coarse in ests)
    else:
        mc = _monte_carlo(sc, cfg, points, partial(run_estimator, cfg.estimator, reducer=True))
        for eps, ests in zip(cfg.epsilons, mc):
            rows += [SweepRow.make(eps, e.n_used, x, e.value, ref, e.std_error)
                     for x, ref, e in zip(points, refs, ests)]

    fit_pts = []
    for eps in cfg.epsilons:
        eps_rows = [r for r in rows if r.epsilon == eps]
        if not eps_rows:
            continue  # unresolved, noticed above
        bias = float(np.mean([r.abs_error for r in eps_rows]))
        if eps in tol_by_eps:
            tol = tol_by_eps[eps]
            floor, name = 10.0 * tol, f"10x the quadrature tolerance {tol:.3e}"
        else:  # a Monte Carlo bias within noise fits nothing
            se = float(np.mean([r.std_error for r in eps_rows]))
            floor, name = 3.0 * se, f"3x its standard error {se:.3e}"
        if bias < floor:
            notices.append(f"epsilon={eps:g} dropped from the fit: bias {bias:.3e} is below {name}")
            continue
        fit_pts.append((eps, bias))
    fit_pts = fit_pts[-4:]
    if len(fit_pts) < 2:
        raise ValueError("; ".join(["fewer than two resolvable epsilons; cannot fit a slope",
                                    *notices]))
    slope = fit_loglog_slope(fit_pts)
    return BiasSweepResult(tuple(rows), slope, tuple(fit_pts), tuple(notices))


@dataclass(frozen=True)
class VarianceSweepResult:
    rows: tuple[SweepRow, ...]
    slope: float
    constant: float
    constant_reference: float


def _variance_constants(sc: Scenario, points) -> list[float]:
    """f(x)/√(4π γ(x)), the small-ε limit of ε^{1/2}·Var, at each point.
    The sweep's relative gap divides by it, so anything but a finite value
    > 0 is a ValueError naming the point."""
    refs = []
    for x, f, gamma in zip(points, at_points(sc.exact_density, points),
                           at_points(sc.gamma_of_x, points)):
        ref = f / math.sqrt(4.0 * math.pi * gamma) if gamma > 0 else math.nan
        if not (math.isfinite(ref) and ref > 0):
            raise ValueError(
                f"query point {x!r}: the variance constant f(x)/sqrt(4*pi*gamma(x)) is {ref!r} "
                f"(f = {f!r}, gamma = {gamma!r}); a variance sweep needs it finite and > 0"
            )
        refs.append(ref)
    return refs


def run_variance_sweep(cfg: SweepConfig) -> VarianceSweepResult:
    """ε^{1/2}·Var of the shifted kernel per ε against f(x)/√(4π γ(x)).

    Needs a scenario whose (Γ, A) are deterministic functions of X, where
    that reduced constant is the exact small-ε limit.  The slope is fitted
    on the unscaled variance, whose theoretical order is -1/2.  Monte Carlo
    rows carry the standard error of the sample variance, taken from the
    fourth central moment of the kernel values; quadrature rows carry 0.
    Every point's reference is checked before any sample or integral; an
    estimator other than VARIANCE_ESTIMATOR is a ValueError naming it.
    """
    if cfg.estimator != VARIANCE_ESTIMATOR:
        raise ValueError(f"variance sweeps measure the {VARIANCE_ESTIMATOR!r} kernel only, "
                         f"not {cfg.estimator!r}")
    sc = get_scenario(cfg.scenario)
    _require_reduced(sc, "variance sweep")
    points = cfg.query_points or sc.default_points
    refs = _variance_constants(sc, points)
    rows: list[SweepRow] = []
    var_by_eps: dict[float, list[float]] = {}
    if cfg.sample_size == "quadrature":
        per_eps = []
        for eps in cfg.epsilons:
            moments = [kernel_moment_integral(x, eps, sc.exact_density, sc.gamma_of_x, sc.a_of_x,
                                              sc.support, shift=True, power=(1, 2)) for x in points]
            per_eps.append([(m2 - m1 * m1, 0.0, 0) for m1, m2 in moments])
    else:
        per_eps = _monte_carlo(sc, cfg, points, shifted_kernel_variance.reducer)
    for eps, stats in zip(cfg.epsilons, per_eps):
        for x, ref, (var, se, n) in zip(points, refs, stats):
            rows.append(SweepRow.make(eps, n, x, math.sqrt(eps) * var, ref, math.sqrt(eps) * se))
            var_by_eps.setdefault(eps, []).append(var)

    slope = fit_loglog_slope([(e, float(np.mean(v))) for e, v in var_by_eps.items()])
    smallest = min(cfg.epsilons)
    const = math.sqrt(smallest) * float(np.mean(var_by_eps[smallest]))
    const_ref = float(np.mean([r.reference for r in rows if r.epsilon == smallest]))
    return VarianceSweepResult(tuple(rows), slope, const, const_ref)


@dataclass(frozen=True)
class IdentityReport:
    """z-scores of the exact-in-expectation identities for one scenario."""

    scenario: str
    n: int
    z_scores: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(abs(z) <= IDENTITY_Z_THRESHOLD for z in self.z_scores.values())


def run_identity_suite(
    scenario: str,
    n: int,
    seed: int,
    workers: int = 1,
    corrupt_a: float = 0.0,
) -> IdentityReport:
    """The identity z-scores (see identity_z_scores) of n fresh samples.

    The suite reads X, Γ, A and Γ[X, Γ[X]] only, so it runs on the
    scenario's draw cut to them.  With the default build that is one pass
    over the draw's stream, a few chunks held whatever n; a build given
    explicitly stays the one that runs, on its whole batch.  corrupt_a
    shifts every A by a finite constant; any nonzero shift must blow the
    generator-centering z-scores up, which is the negative control proving
    the suite has power.  The stream shifts A in the draw, before rows with
    a non-finite entry are dropped: that is the built batch's shift on
    every row whose A + corrupt_a is finite.
    """
    sc = get_scenario(scenario)
    if not sc.quad:
        raise ValueError(f"scenario {scenario!r} does not provide quad batches")
    if not math.isfinite(corrupt_a):
        raise ValueError(f"corrupt_a must be finite, got {corrupt_a!r}")
    n = sample_count(n)
    if is_default_build(sc.build):
        def draw(rng, k):
            x, gamma, a, q = sc.draw(rng, k)[:4]
            return x, gamma, a + corrupt_a if corrupt_a != 0.0 else a, q

        src = replace(sc, draw=draw).stream(n, seed, workers)
    else:
        src = sc.build(n, seed, workers)
        if corrupt_a != 0.0:
            src = corrupt_quad_batch(src, corrupt_a)
    return IdentityReport(scenario, n, identity_z_scores(src))


@dataclass(frozen=True)
class CompareRow:
    estimator: str
    epsilon: Optional[float]
    n: int
    x: float
    estimate: float
    reference: Optional[float]
    abs_error: Optional[float]
    std_error: float


def compare_estimators(
    scenario: str,
    estimators: Sequence[str],
    sample_sizes: Sequence[int],
    epsilons: Sequence[float],
    query_points: Sequence[float] = (),
    seed: int = 0,
    workers: int = 1,
) -> list[CompareRow]:
    """Side-by-side error table over sample sizes, rows in the given order.

    Kernel estimators grid-search their ε over the given list and report
    the best root-mean-square error across the query points per sample
    size; the other estimators report as-is, at the smallest ε if they
    take one.  conditional estimates no density and is rejected before
    anything is sampled, as is an estimator that needs ε when none is
    given, or one that splits its rows in two halves when a size is
    below 2.  Every size is a prefix of one stream of the largest, reduced
    in one pass.  No pass/fail is attached.
    """
    if not estimators or not sample_sizes:
        raise ValueError("compare needs at least one estimator and one sample size")
    entries = [get_estimator(name) for name in estimators]
    for name, entry in zip(estimators, entries):
        if not entry.density:
            raise ValueError(f"estimator {name!r} does not estimate a density")
    for eps in epsilons:
        check_epsilon(eps)
    sc = get_scenario(scenario)
    points = tuple(query_points) or sc.default_points
    if sc.exact_density is None:
        raise ValueError(f"scenario {scenario!r} has no exact density to compare against")
    refs = at_points(sc.exact_density, points)
    sizes = [sample_count(n) for n in sample_sizes]
    stream = sc.stream(max(sizes), seed, workers)
    nested = tuple(sorted(set(sizes)))
    # one reducer per (estimator, ε), snapshotted at every size.  Without
    # ε, run_estimator rejects the estimators that need one.
    smallest, plan = min(epsilons, default=None), []
    for i, (name, entry) in enumerate(zip(estimators, entries)):
        for eps in (epsilons or [None]) if entry.kernel else [smallest]:
            r = run_estimator(name, stream, eps, list(points), scenario, reducer=True)
            if r.halves and nested[0] < 2:
                raise ValueError(f"estimator {name!r} splits each sample size in two halves;"
                                 f" n = {nested[0]} is too small to split")
            plan.append((i, r._replace(sizes=nested)))
    found: dict = {}
    for (i, _), res in zip(plan, run_pass(stream, [r for _, r in plan])):
        for n, ests in res.items():
            found.setdefault((i, n), []).append(ests)
    out: list[CompareRow] = []
    for n in sizes:
        for i, name in enumerate(estimators):
            # a kernel keeps the first ε of least root-mean-square error
            ests = min(found[(i, n)], key=lambda c: math.sqrt(float(np.mean(
                [(e.value - ref) ** 2 for ref, e in zip(refs, c)]))))
            out += [CompareRow(name, e.epsilon, e.n_used, x, e.value, ref, abs(e.value - ref),
                               e.std_error) for x, ref, e in zip(points, refs, ests)]
    return out
