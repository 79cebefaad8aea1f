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
  law of X directly, on a grid graded towards the kernel: panels half a
  kernel width wide around its centre, and a fixed 256 panels across the
  window elsewhere.  Each Gauss-Legendre rule is built once per order per
  process and shared read-only.  A kernel moment evaluates its integrand
  once, on the nodes of all its segments, and several kernel powers share
  that evaluation; each power and segment is still summed on its own.
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


def _composite_rule(segments, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point Gauss-Legendre rule on each of
    the n equal panels of every (lo, hi, n) segment, left to right.  The
    panel edges are np.linspace(lo, hi, n + 1), in its arithmetic."""
    x, w = _legendre(order)
    left, right = [], []
    for lo, hi, n in segments:
        edges = np.arange(n + 1.0)
        edges *= (hi - lo) / n
        edges += lo
        edges[-1] = hi
        left.append(edges[:-1])
        right.append(edges[1:])
    left, right = np.concatenate(left), np.concatenate(right)
    half, mid = 0.5 * (right - left), 0.5 * (right + left)
    pts = np.multiply.outer(half, x)
    pts += mid[:, None]
    return pts.ravel(), np.multiply.outer(half, w).ravel()


def law_integral(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    panels: int = 256,
    order: int = 12,
) -> float:
    """∫_lo^hi fn(y) dy by composite Gauss-Legendre panels."""
    if not hi > lo:
        raise ValueError("empty integration interval")
    pts, wts = _composite_rule([(lo, hi, panels)], order)
    vals = np.asarray(fn(pts), dtype=float)
    if vals.shape != pts.shape:
        raise ValueError("fn must return one value per quadrature node")
    return float(np.sum(wts * vals))


def normal_pdf(y: np.ndarray) -> np.ndarray:
    """The standard normal density at y."""
    y = np.asarray(y, dtype=float)
    return np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)


class UnresolvedKernelError(ValueError):
    """The quadrature grid cannot resolve a kernel moment: the kernel is
    narrower than float64 nodes resolve, or the far field too coarse for
    the density."""


NEAR_WIDTHS = 40.0  # the near field spans the kernel's centre ± 40 kernel widths
FAR_PANELS = 256  # far-field panels are (hi - lo) / 256 wide
# The window's fixed 10-unit pad takes the densities to vary on unit scale;
# a far field with fewer than four nodes per unit (ε above about 70 at
# order 16 on an unbounded support) would not resolve them.
MAX_FAR_SPACING = 0.25
EDGE_PANELS = 8  # the panel at a finite end of the support is split in eight
# Rounding a node y to float64 moves it by at most u/2, u the float64 spacing
# there, and moves a moment of a Gaussian kernel of width w in y by at most
# (u/2)·√(2p/π)/w relative, below u/w for powers p ≤ 6.  A moment is only
# returned when u/w, with u taken at the near field's largest magnitude, is
# at most RESOLUTION.
RESOLUTION = 1e-12


def _kernel_centre(x, epsilon, gamma_fn, a_fn, shift, identity_cov) -> tuple[float, float]:
    """(centre, width) of the kernel y ↦ g(x - y - εa(y), εγ(y)) in y.

    Unshifted, it is centred at x with width √(εγ(x)) (√ε with
    identity_cov).  The shift moves the centre to the root of
    x - y - εa(y) = 0, one Newton step from x, and divides the width by
    J = 1 + εa'(x), a′ by central difference over a thousandth of the
    width."""
    width = math.sqrt(epsilon * (1.0 if identity_cov else float(gamma_fn(np.array([x]))[0])))
    if not shift or not width > 0.0:
        return x, width
    step = 1e-3 * width
    a_lo, a_x, a_hi = (float(v) for v in a_fn(np.array([x - step, x, x + step])))
    jac = 1.0 + epsilon * (a_hi - a_lo) / (2.0 * step)
    if jac == 0.0:  # the kernel does not depend on y to first order
        return x, math.inf
    return x - epsilon * a_x / jac, width / abs(jac)


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

    A tuple of powers gives one moment per power from the same evaluation
    of γ, a, g and the density, each with the bits of its single-power
    call.

    The integral runs over the window [lo, hi] = x ± (60√ε + 10) within
    the support, on a graded grid (see _kernel_centre for the kernel's
    centre and its width w in y):

    * the near field, the centre ± 40w, with panels at most w/2 wide and
      never wider than the far-field panels;
    * the far field, the rest of the window, with panels (hi - lo)/256 wide;
    * the panel touching a finite end of the support, split in eight.

    The integrand is evaluated once, on the nodes of every segment
    together; each segment is summed on its own and the segment sums are
    added left to right, so a moment has the bits of one law_integral call
    per segment.  The node count stays bounded as ε falls.  Two kernels
    are an UnresolvedKernelError, not a result: one whose width is below
    1e12 float64 spacings at its near field (see RESOLUTION; on lognormal
    at x = 1, ε below 4.93e-8), and one whose window is so wide that the
    far field has fewer than four nodes per unit (see MAX_FAR_SPACING).  A
    window without float64 width inside the support (x outside it, or
    too large) is a ValueError naming x and ε.
    """
    segments = _kernel_segments(x, epsilon, gamma_fn, a_fn, support, shift, identity_cov, order)
    y, wts = _composite_rule(segments, order)
    var = max(epsilon, 1e-300) if identity_cov else np.maximum(epsilon * gamma_fn(y), 1e-300)
    offset = x - y
    if shift:
        offset -= epsilon * a_fn(y)
    g = -0.5 * offset
    g *= offset
    g /= var
    np.exp(g, out=g)
    g /= np.sqrt(2.0 * math.pi * var)
    f = density(y)
    moments = []
    for p in power if isinstance(power, tuple) else (power,):
        vals = (g if p == 1 else g**p) * f
        vals *= wts
        total, lo = 0.0, 0
        for *_, n in segments:
            total += float(vals[lo:lo + n * order].sum())
            lo += n * order
        moments.append(total)
    return tuple(moments) if isinstance(power, tuple) else moments[0]


def _kernel_segments(x, epsilon, gamma_fn, a_fn, support, shift, identity_cov,
                     order) -> list[tuple[float, float, int]]:
    """kernel_moment_integral's graded grid, as (start, end, panel count)
    left to right; raises its errors for a window or kernel it cannot resolve."""
    pad = 60.0 * math.sqrt(max(epsilon, 1e-12)) + 10.0
    lo, hi = max(support[0], x - pad), min(support[1], x + pad)
    if not hi > lo:
        raise ValueError(
            f"epsilon={epsilon:g}, x={x:g}: the integration window x ± {pad:.4g} has no "
            f"float64 width inside the support [{support[0]:g}, {support[1]:g}]")
    centre, width = _kernel_centre(x, epsilon, gamma_fn, a_fn, shift, identity_cov)
    near_lo, near_hi = (min(max(v, lo), hi) for v in (centre - NEAR_WIDTHS * width,
                                                       centre + NEAR_WIDTHS * width))
    limit = float(np.spacing(max(abs(near_lo), abs(near_hi)))) / RESOLUTION
    if not width >= limit:
        raise UnresolvedKernelError(
            f"the kernel width {width:.3e} at epsilon={epsilon:g}, x={x:g} is below the "
            f"quadrature node limit {limit:.3e}, 1e12 times the float64 node spacing at its "
            f"centre {centre:.6g}: rounding the nodes could move its moments by more than "
            "1e-12 relative")
    far = (hi - lo) / FAR_PANELS
    if far / order > MAX_FAR_SPACING:
        raise UnresolvedKernelError(
            f"the far-field node spacing at epsilon={epsilon:g}, x={x:g} is "
            f"{far / order:.3g}, above {MAX_FAR_SPACING:g} of the unit scale the window "
            "takes for the density, so the quadrature cannot resolve it")
    near = min(0.5 * width, far)
    segments = [(a, b, math.ceil((b - a) / h)) for a, b, h in (
        (lo, near_lo, far), (near_lo, near_hi, near), (near_hi, hi, far)) if b > a]
    # a density may be flat to all orders at a finite end of its support (the
    # lognormal's at 0), which one Gauss-Legendre panel does not resolve
    if lo == support[0]:
        a, b, n = segments.pop(0)
        cut = a + (b - a) / n
        segments[:0] = [(a, cut, EDGE_PANELS)] + ([(cut, b, n - 1)] if n > 1 else [])
    if hi == support[1]:
        a, b, n = segments.pop()
        cut = b - (b - a) / n
        segments += ([(a, cut, n - 1)] if n > 1 else []) + [(cut, b, EDGE_PANELS)]
    return segments
