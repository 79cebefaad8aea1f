"""The Poisson-space scenario: X = N(identity) over the unit interval.

For a Poisson point process N with the structure that commutes with the
point integral, Γ[N(h)] = N(γ h'²) and A[N(h)] = N(½ γ h'' + a h'),
where (γ, a) is the base structure.  Here μ = LAMBDA·dp on [0, 1], (γ, a)
is the unit-interval structure of coords and h = identity, so X = Σp,
Γ[X] = Σγ(p), A[X] = Σa(p) and Γ[X, Γ[X]] = Σγ(p)γ'(p).  The test suite
holds the general lift (any intensity, h and base structure) and pins
this draw to it bit for bit.  The empty configuration is an atom of the
law, so the direct density formulas' hypotheses fail here.
"""
from __future__ import annotations

import numpy as np

from .coords import unit_a, unit_gamma, unit_gamma_prime

LAMBDA = 3.0


def sample_poisson_arrays(rng: np.random.Generator, n: int):
    """n draws at once: (x, gamma, a, gamma_x_gammax, k) arrays.

    All counts are drawn first, then one flat batch of points which is cut
    into configurations by segment sums.
    """
    ks = rng.poisson(LAMBDA, size=n).astype(np.int64)
    pts = rng.uniform(0.0, 1.0, size=int(ks.sum()))
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

    # each column's temporaries are freed before the next column's: holding
    # γ(p) for reuse in the last column read about 1 MB higher peak RSS on
    # the benchmark's two-worker Poisson identity run
    x = seg_sum(pts)
    g = seg_sum(unit_gamma(pts))
    a = seg_sum(unit_a(pts))
    q = seg_sum(unit_gamma(pts) * unit_gamma_prime(pts))
    return x, g, a, q, ks
