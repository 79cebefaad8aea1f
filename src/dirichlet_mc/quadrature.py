"""Deterministic expectation oracles.

Two instruments:

* quadrature_expectation: tensor product of per-coordinate rules over up
  to three base coordinates; the noise-free stand-in for a Monte Carlo
  average when verifying estimator expectations.  Only the tests call it,
  with the coordinates of tests/calculus.py; it stays here because the
  benchmark's tracer wraps it as scenarios.quadrature_expectation.

* law_integral / kernel_moment_integral: composite Gauss-Legendre
  integration against a known density on an interval.  Kernel sweeps need
  integrands whose width shrinks like √ε, far below what a 128-point
  Hermite rule can resolve, so those expectations are computed in the
  law of X directly with panel counts tied to the kernel bandwidth.
  Each Gauss-Legendre rule is built once per order per process and
  shared read-only; several kernel powers share one evaluation of the
  grid, each still summed on its own.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

MAX_ORACLE_DIM = 3
MAX_ORDER = 128


def quadrature_expectation(
    integrand: Callable[[np.ndarray], np.ndarray],
    specs: Sequence,
    order: int = 64,
) -> float:
    """E[integrand(U_1, ..., U_m)] by a tensor product rule.

    integrand receives an (npoints, m) array and must return (npoints,)
    values.  Each spec contributes its own rule: spec.quad_rule(order)
    returns (nodes, weights) for its law with the weights summing to one.
    A spec whose quad_rule is None is rejected, named by its label or
    kind.
    """
    specs = tuple(specs)
    if not 1 <= len(specs) <= MAX_ORACLE_DIM:
        raise ValueError(f"quadrature supports 1..{MAX_ORACLE_DIM} coordinates")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    rules = []
    for i, s in enumerate(specs):
        if s.quad_rule is None:
            raise ValueError(
                f"coordinate {i + 1} ({s.label or s.kind}) has no quadrature rule"
            )
        rules.append(s.quad_rule(order))
    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    w = rules[0][1]
    for r in rules[1:]:
        w = np.outer(w, r[1]).ravel()
    vals = np.asarray(integrand(pts), dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ValueError("integrand must return one value per quadrature point")
    return float(np.sum(w * vals))


@lru_cache(maxsize=None)
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built (an eigenvalue
    solve) once per order; read-only, since every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def law_integral(
    fn: Callable[[np.ndarray], np.ndarray | tuple[np.ndarray, ...]],
    lo: float,
    hi: float,
    panels: int = 256,
    order: int = 12,
) -> float | tuple[float, ...]:
    """∫_lo^hi fn(y) dy by composite Gauss-Legendre panels.

    fn may return a tuple of arrays for several integrands on one grid;
    the result is then one integral per entry, each summed on its own."""
    if not hi > lo:
        raise ValueError("empty integration interval")
    x, w = _legendre(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    vals = fn(pts)
    if isinstance(vals, tuple):
        return tuple(float(np.sum(wts * np.asarray(v, dtype=float))) for v in vals)
    return float(np.sum(wts * np.asarray(vals, dtype=float)))


def normal_pdf(y: np.ndarray, var: float = 1.0) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    return np.exp(-0.5 * y * y / var) / math.sqrt(2.0 * math.pi * var)


def kernel_moment_integral(
    x: float,
    epsilon: float,
    density: Callable[[np.ndarray], np.ndarray],
    gamma_fn: Callable[[np.ndarray], np.ndarray],
    a_fn: Callable[[np.ndarray], np.ndarray],
    support: tuple[float, float],
    shift: bool = True,
    identity_cov: bool = False,
    power: int | tuple[int, ...] = 1,
    order: int = 16,
) -> float | tuple[float, ...]:
    """E[g(x - X - εa(X), εγ(X))^power] for scenarios where (Γ, A) are
    deterministic functions γ(X), a(X) of the value.

    A tuple of powers gives one moment per power from one evaluation of
    γ, a, g and the density, each with the bits of its single-power call.

    The kernel width is O(√ε), so the panel count scales with 1/√ε to keep
    several panels per bandwidth regardless of ε.
    """
    lo, hi = support
    lo = max(lo, x - 60.0 * math.sqrt(max(epsilon, 1e-12)) - 10.0)
    hi = min(hi, x + 60.0 * math.sqrt(max(epsilon, 1e-12)) + 10.0)
    panels = int(min(4096, max(256, 8.0 * (hi - lo) / math.sqrt(epsilon))))
    powers = power if isinstance(power, tuple) else (power,)

    def integrand(y: np.ndarray) -> tuple[np.ndarray, ...]:
        var = epsilon * (np.ones_like(y) if identity_cov else gamma_fn(y))
        var = np.maximum(var, 1e-300)
        offset = x - y - (epsilon * a_fn(y) if shift else 0.0)
        g = np.exp(-0.5 * offset * offset / var) / np.sqrt(2.0 * math.pi * var)
        f = density(y)
        return tuple(g**p * f for p in powers)

    moments = law_integral(integrand, lo, hi, panels=panels, order=order)
    return moments if isinstance(power, tuple) else moments[0]
