"""Point-process functionals X = N(h) with their square field and generator.

For a Poisson point process N with finite intensity μ on an interval,
equipped with the structure that commutes with the point integral, the
operators act point by point:

    Γ[N(h)] = N(γ[h]),   γ[h](p) = γ(p) h'(p)²
    A[N(h)] = N(a[h]),   a[h](p) = ½ γ(p) h''(p) + a(p) h'(p)
    Γ[N(h), N(g)] = N(γ[h, g]),  γ[h, g](p) = γ(p) h'(p) g'(p)

where (γ, a) is the underlying one-dimensional structure.  Sampling is a
two-stage draw: K ~ Poisson(μ(total)) then K i.i.d. points from μ/μ(total).
With the bilinear extension applied to g = γ[h] this also yields
Γ[X, Γ[X]], so full quad samples are simulatable.

The law of N(h) has an atom at the empty configuration, so the direct
density formulas' hypotheses fail here; the module's role is triple/quad
simulation and identity checking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coords import CoordinateSpec, mc_unit
from .estimators import z_score
from .jets import fd_mismatch

PointFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PoissonFunctionalSpec:
    """Intensity, point function h with two derivatives, and base structure.

    total_mass is μ of the whole interval; point_sampler draws from the
    normalised law μ/total_mass.  h1 and h2 are probed against finite
    differences of h at construction.
    """

    total_mass: float
    point_sampler: Callable[[np.random.Generator, int], np.ndarray]
    h: PointFn
    h1: PointFn
    h2: PointFn
    base_gamma: PointFn
    base_gamma_prime: PointFn
    base_a: PointFn
    name: str = ""
    probe_points: tuple[float, ...] = (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95)

    def __post_init__(self):
        if not (self.total_mass > 0 and math.isfinite(self.total_mass)):
            raise ValueError("total_mass must be positive and finite")
        for order, dh, nm in ((1, self.h1, "h1"), (2, self.h2, "h2")):
            for p in np.asarray(self.probe_points, dtype=float):
                if fd_mismatch(self.h, dh, order, p) is not None:
                    raise ValueError(f"{nm} disagrees with finite differences of h at p={p:g}")

    # per-point integrands of the lifted operators
    def gamma_h(self, p: np.ndarray) -> np.ndarray:
        return self.base_gamma(p) * self.h1(p) ** 2

    def a_h(self, p: np.ndarray) -> np.ndarray:
        return 0.5 * self.base_gamma(p) * self.h2(p) + self.base_a(p) * self.h1(p)

    def gamma_h_prime(self, p: np.ndarray) -> np.ndarray:
        """(γ[h])' = γ' h'² + 2 γ h' h''."""
        return (
            self.base_gamma_prime(p) * self.h1(p) ** 2
            + 2.0 * self.base_gamma(p) * self.h1(p) * self.h2(p)
        )

    def gamma_x_gammax_term(self, p: np.ndarray) -> np.ndarray:
        """Per-point term of Γ[X, Γ[X]]: γ(p) h'(p) (γ[h])'(p)."""
        return self.base_gamma(p) * self.h1(p) * self.gamma_h_prime(p)


def sample_poisson_arrays(
    spec: PoissonFunctionalSpec,
    rng: np.random.Generator,
    n: int,
    return_points: bool = False,
):
    """n draws at once: (x, gamma, a, gamma_x_gammax, k) arrays.

    All counts are drawn first, then one flat batch of points which is cut
    into configurations by segment sums.  With return_points the flat
    point array and the segment offsets are appended to the result.
    """
    ks = rng.poisson(spec.total_mass, size=n).astype(np.int64)
    total = int(ks.sum())
    pts = np.asarray(spec.point_sampler(rng, total), dtype=float)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(ks[:-1], out=offsets[1:])

    # reduceat over the nonempty segments only: their offsets are strictly
    # increasing and in range, which sidesteps reduceat's empty-slice quirk
    nonempty = np.flatnonzero(ks > 0)

    def seg_sum(vals: np.ndarray) -> np.ndarray:
        out = np.zeros(n)
        if nonempty.size:
            out[nonempty] = np.add.reduceat(vals, offsets[nonempty])
        return out

    x = seg_sum(spec.h(pts))
    g = seg_sum(spec.gamma_h(pts))
    a = seg_sum(spec.a_h(pts))
    q = seg_sum(spec.gamma_x_gammax_term(pts))
    if return_points:
        return x, g, a, q, ks, pts, offsets
    return x, g, a, q, ks


@dataclass(frozen=True)
class PoissonIdentityReport:
    """Worst per-sample additivity violation plus the centering z-score."""

    max_identity_violation: float
    centering_z: float
    n: int


def poisson_identity_check(
    spec: PoissonFunctionalSpec,
    n: int,
    rng: np.random.Generator,
    phi_prime: PointFn = lambda x: np.ones_like(x),
    phi_second: PointFn = lambda x: np.zeros_like(x),
) -> PoissonIdentityReport:
    """Check Γ[N(h)] = N(γ[h]) and A[N(h)] = N(a[h]) sample by sample, and
    the centering E[φ'(X) A[X] + ½ φ''(X) Γ[X]] = 0 for the given test φ.

    The additivity check recomputes every configuration by exact per-point
    summation (math.fsum over base-function evaluations) against the batch
    segment sums, so vectorisation refactorings that break the point-by-point
    action are caught.  The violation must be roundoff-sized.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    x, g, a, _, ks, pts, offsets = sample_poisson_arrays(spec, rng, n, return_points=True)

    # reference route: raw base functions per point, exact summation
    h_ref = spec.h(pts)
    g_ref = spec.base_gamma(pts) * spec.h1(pts) ** 2
    a_ref = 0.5 * spec.base_gamma(pts) * spec.h2(pts) + spec.base_a(pts) * spec.h1(pts)
    worst = 0.0
    for i in range(n):
        lo, hi = offsets[i], offsets[i] + ks[i]
        xr = math.fsum(h_ref[lo:hi])
        gr = math.fsum(g_ref[lo:hi])
        ar = math.fsum(a_ref[lo:hi])
        worst = max(
            worst,
            abs(x[i] - xr) / max(1.0, abs(xr)),
            abs(g[i] - gr) / max(1.0, abs(gr)),
            abs(a[i] - ar) / max(1.0, abs(ar)),
        )

    z = z_score(phi_prime(x) * a + 0.5 * phi_second(x) * g)
    return PoissonIdentityReport(worst, z, n)


def poisson_mc_unit(
    lam: float,
    h_name: str = "identity",
    base: CoordinateSpec | None = None,
) -> PoissonFunctionalSpec:
    """Uniform intensity λ·dp on [0,1] over the mc_unit base structure,
    with h from a small named family."""
    try:
        h, h1, h2 = _H_FAMILY[h_name]
    except KeyError:
        raise ValueError(
            f"unknown h {h_name!r}; choose from {sorted(_H_FAMILY)}"
        ) from None
    base = base if base is not None else mc_unit()
    return PoissonFunctionalSpec(
        total_mass=float(lam),
        point_sampler=lambda rng, k: rng.uniform(0.0, 1.0, size=k),
        h=h, h1=h1, h2=h2,
        base_gamma=base.gamma,
        base_gamma_prime=base.gamma_prime,
        base_a=base.gen_a,
        name=f"poisson_mc_unit(lam={lam:g},h={h_name})",
    )


_H_FAMILY: dict[str, tuple[PointFn, PointFn, PointFn]] = {
    "identity": (
        lambda p: np.asarray(p, dtype=float),
        lambda p: np.ones_like(np.asarray(p, dtype=float)),
        lambda p: np.zeros_like(np.asarray(p, dtype=float)),
    ),
    "sin": (np.sin, np.cos, lambda p: -np.sin(p)),
    "polynomial": (
        lambda p: p**2 * (1.0 + p),
        lambda p: 2.0 * p + 3.0 * p**2,
        lambda p: 2.0 + 6.0 * p,
    ),
}
