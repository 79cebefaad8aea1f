"""Point-process functionals X = N(h) with their square field and generator.

For a Poisson point process N with finite intensity μ on an interval,
equipped with the structure that commutes with the point integral, Γ
and A act point by point:

    Γ[N(h)] = N(γ[h]),   γ[h](p) = γ(p) h'(p)²
    A[N(h)] = N(a[h]),   a[h](p) = ½ γ(p) h''(p) + a(p) h'(p)
    Γ[N(h), N(g)] = N(γ[h, g]),  γ[h, g](p) = γ(p) h'(p) g'(p)

where (γ, a) is the underlying one-dimensional structure.  Sampling is a
two-stage draw: K ~ Poisson(μ(total)) then K i.i.d. points from μ/μ(total).
With the bilinear extension applied to g = γ[h] this also yields
Γ[X, Γ[X]], so full quad samples are simulatable.

PoissonFunctionalSpec is the general lift: any intensity, any h with two
stated derivatives, any base structure.  poisson_mc_unit is the one
instance the scenarios run, h = identity over the unit-interval structure
of coords.

The law of N(h) has an atom at the empty configuration, so the direct
density formulas' hypotheses fail here; the module's role is triple/quad
simulation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coords import fd_mismatch, unit_a, unit_gamma, unit_gamma_prime

PointFn = Callable[[np.ndarray], np.ndarray]

# Points at which h1 and h2 are probed against differences of h.
_PROBE_POINTS = np.array([0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95])


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

    def __post_init__(self):
        if not (self.total_mass > 0 and math.isfinite(self.total_mass)):
            raise ValueError("total_mass must be positive and finite")
        for order, dh, nm in ((1, self.h1, "h1"), (2, self.h2, "h2")):
            for p in _PROBE_POINTS:
                if fd_mismatch(self.h, dh, order, p) is not None:
                    raise ValueError(f"{nm} disagrees with finite differences of h at p={p:g}")

    # per-point integrands of the lifted Γ and A
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
):
    """n draws at once: (x, gamma, a, gamma_x_gammax, k) arrays.

    All counts are drawn first, then one flat batch of points which is cut
    into configurations by segment sums.
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
    return x, g, a, q, ks


def poisson_mc_unit(lam: float) -> PoissonFunctionalSpec:
    """X = N(identity) for the uniform intensity λ·dp on [0,1] over the
    unit-interval structure of coords."""
    return PoissonFunctionalSpec(
        total_mass=float(lam),
        point_sampler=lambda rng, k: rng.uniform(0.0, 1.0, size=k),
        h=lambda p: np.asarray(p, dtype=float),
        h1=lambda p: np.ones_like(np.asarray(p, dtype=float)),
        h2=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
        base_gamma=unit_gamma,
        base_gamma_prime=unit_gamma_prime,
        base_a=unit_a,
    )
