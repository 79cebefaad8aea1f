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
from dataclasses import dataclass
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
from .quadrature import kernel_moment_integral
from .scenarios import Scenario, corrupt_quad_batch, get_scenario

IDENTITY_Z_THRESHOLD = 4.0


@dataclass(frozen=True)
class SweepRow:
    """One record of a sweep: blank reference means none is known."""

    epsilon: float
    n: int
    x: float
    estimate: float
    reference: Optional[float]
    abs_error: Optional[float]
    std_error: float

    @staticmethod
    def make(epsilon, n, x, estimate, reference, std_error) -> "SweepRow":
        err = abs(estimate - reference) if reference is not None else None
        return SweepRow(epsilon, n, x, estimate, reference, err, std_error)


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
    resolvable: quadrature-mode rows with |bias| below ten times the
    estimated quadrature tolerance are dropped from the fit with a notice.
    """
    kernel = get_estimator(cfg.estimator).kernel
    if kernel is None:
        raise ValueError(
            "bias sweeps cover the kernel estimators "
            f"{sorted(n for n, e in ESTIMATORS.items() if e.kernel)}, not {cfg.estimator!r}"
        )
    shift, identity_cov = kernel
    sc = get_scenario(cfg.scenario)
    points = cfg.query_points or sc.default_points
    refs = [None if sc.exact_density is None else float(sc.exact_density(np.array([x]))[0])
            for x in points]
    rows, notices, tol_by_eps = [], [], {}  # tol_by_eps: quadrature tolerance per ε
    if cfg.sample_size == "quadrature":
        _require_reduced(sc, "quadrature bias sweep")
        for eps in cfg.epsilons:
            tols = []
            for x, ref in zip(points, refs):
                # the default 16-point rule and a coarser one bound the quadrature error
                est, coarse = (kernel_moment_integral(
                    x, eps, sc.exact_density, sc.gamma_of_x, sc.a_of_x, sc.support,
                    shift=shift, identity_cov=identity_cov, power=1, order=order,
                ) for order in (16, 10))
                tols.append(max(abs(est - coarse), 1e-14 * max(1.0, abs(est))))
                rows.append(SweepRow.make(eps, 0, x, est, ref, 0.0))
            tol_by_eps[eps] = max(tols)
    else:
        mc = _monte_carlo(sc, cfg, points, partial(run_estimator, cfg.estimator, reducer=True))
        for eps, ests in zip(cfg.epsilons, mc):
            rows += [SweepRow.make(eps, e.n_used, x, e.value, ref, e.std_error)
                     for x, ref, e in zip(points, refs, ests)]

    fit_pts = []
    for eps in cfg.epsilons:
        biases = [r.abs_error for r in rows if r.epsilon == eps and r.abs_error is not None]
        if not biases:
            continue
        bias = float(np.mean(biases))
        tol = tol_by_eps.get(eps, 0.0)
        if tol > 0.0 and bias < 10.0 * tol:
            notices.append(f"epsilon={eps:g} dropped from the fit: bias {bias:.3e} is below "
                           f"10x the quadrature tolerance {tol:.3e}")
            continue
        fit_pts.append((eps, bias))
    fit_pts = fit_pts[-4:]
    if len(fit_pts) < 2:
        raise ValueError("fewer than two resolvable epsilons; cannot fit a slope")
    slope = fit_loglog_slope(fit_pts)
    return BiasSweepResult(tuple(rows), slope, tuple(fit_pts), tuple(notices))


@dataclass(frozen=True)
class VarianceSweepResult:
    rows: tuple[SweepRow, ...]
    slope: float
    constant: float
    constant_reference: float


def _variance_constant(sc: Scenario, x: float) -> float:
    """f(x)/√(4π γ(x)), the small-ε limit of ε^{1/2}·Var at x.  The sweep's
    relative gap divides by it, so anything but a finite value > 0 is a
    ValueError naming the point."""
    f = float(sc.exact_density(np.array([x]))[0])
    gamma = float(sc.gamma_of_x(np.array([x]))[0])
    ref = f / math.sqrt(4.0 * math.pi * gamma) if gamma > 0 else math.nan
    if not (math.isfinite(ref) and ref > 0):
        raise ValueError(
            f"query point {x!r}: the variance constant f(x)/sqrt(4*pi*gamma(x)) is {ref!r} "
            f"(f = {f!r}, gamma = {gamma!r}); a variance sweep needs it finite and > 0"
        )
    return ref


def run_variance_sweep(cfg: SweepConfig) -> VarianceSweepResult:
    """ε^{1/2}·Var of the shifted kernel per ε against f(x)/√(4π γ(x)).

    Needs a scenario whose (Γ, A) are deterministic functions of X, where
    that reduced constant is the exact small-ε limit.  The slope is fitted
    on the unscaled variance, whose theoretical order is -1/2.  Monte Carlo
    rows carry the standard error of the sample variance, taken from the
    fourth central moment of the kernel values; quadrature rows carry 0.
    Every point's reference is checked before any sample or integral.
    """
    sc = get_scenario(cfg.scenario)
    _require_reduced(sc, "variance sweep")
    points = cfg.query_points or sc.default_points
    refs = [_variance_constant(sc, x) for x in points]
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
    threshold: float = IDENTITY_Z_THRESHOLD

    @property
    def passed(self) -> bool:
        return all(abs(z) <= self.threshold for z in self.z_scores.values())


def run_identity_suite(
    scenario: str,
    n: int,
    seed: int,
    workers: int = 1,
    corrupt_a: float = 0.0,
) -> IdentityReport:
    """The identity z-scores (see identity_z_scores) of a fresh batch.

    corrupt_a shifts every A by a constant; any nonzero shift must blow the
    generator-centering z-scores up, which is the negative control proving
    the suite has power.
    """
    sc = get_scenario(scenario)
    if sc.kind != "quad":
        raise ValueError(f"scenario {scenario!r} does not provide quad batches")
    b = sc.build(sample_count(n), seed, workers)
    if corrupt_a != 0.0:
        b = corrupt_quad_batch(b, corrupt_a)
    return IdentityReport(scenario, int(n), identity_z_scores(b))


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
    anything is sampled.  Every size is a prefix of one stream of the
    largest, reduced in one pass.  No pass/fail is attached.
    """
    if not estimators or not sample_sizes:
        raise ValueError("compare needs at least one estimator and one sample size")
    entries = [get_estimator(name) for name in estimators]
    if "conditional" in estimators:
        raise ValueError("estimator 'conditional' does not estimate a density")
    if not epsilons and any(e.takes_epsilon for e in entries):
        raise ValueError("the estimators compared need at least one epsilon")
    for eps in epsilons:
        check_epsilon(eps)
    sc = get_scenario(scenario)
    points = tuple(query_points) or sc.default_points
    if sc.exact_density is None:
        raise ValueError(f"scenario {scenario!r} has no exact density to compare against")
    refs = {x: float(sc.exact_density(np.array([x]))[0]) for x in points}
    sizes = [sample_count(n) for n in sample_sizes]
    stream = sc.stream(max(sizes), seed, workers)
    nested = tuple(sorted(set(sizes)))
    # one reducer per (estimator, ε), snapshotted at every size; centered
    # splits each size's own rows, so it has one reducer per size
    plan = []
    for i, (name, entry) in enumerate(zip(estimators, entries)):
        for eps in epsilons if entry.kernel else [min(epsilons) if entry.takes_epsilon else None]:
            r = run_estimator(name, stream, eps, list(points), scenario, reducer=True)
            for grid in [(n,) for n in nested] if r.halves else [nested]:
                plan.append((i, eps, r._replace(sizes=grid)))
    found: dict = {}
    for (i, eps, _), res in zip(plan, run_pass(stream, [r for _, _, r in plan])):
        for n, ests in res.items():
            found.setdefault((i, n), []).append((eps, ests))
    out: list[CompareRow] = []
    for n in sizes:
        for i, name in enumerate(estimators):
            # a kernel keeps the first ε of least root-mean-square error
            eps, ests = min(found[(i, n)], key=lambda c: math.sqrt(float(np.mean(
                [(e.value - refs[x]) ** 2 for x, e in zip(points, c[1])]))))
            out += [CompareRow(name, eps, e.n_used, x, e.value, refs[x], abs(e.value - refs[x]),
                               e.std_error) for x, e in zip(points, ests)]
    return out
