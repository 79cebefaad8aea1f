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

from .coords import unit_terms
from .streams import thread_scratch

LAMBDA = 3.0


def sample_poisson_arrays(rng: np.random.Generator, n: int):
    """n draws at once: (x, gamma, a, gamma_x_gammax, k) arrays.

    All counts are drawn first, then one flat batch of points which is cut
    into configurations by segment sums.  The points and their terms take
    two arrays of per-thread scratch: a(p) and then γ(p)γ'(p) = γ(p)·2a(p)
    overwrite the points, and the other array holds γ(p).
    """
    ks = rng.poisson(LAMBDA, size=n).astype(np.int64, copy=False)
    total = int(ks.sum())
    pts, spare = thread_scratch("poisson", 2, total)
    rng.random(out=pts)  # the stream and the values of uniform(0.0, 1.0, total)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(ks[:-1], out=offsets[1:])

    # reduceat over the nonempty segments only: their offsets are strictly
    # increasing and in range, which sidesteps reduceat's empty-slice quirk
    nonempty = np.flatnonzero(ks > 0)
    starts = offsets[nonempty]

    def seg_sum(vals: np.ndarray) -> np.ndarray:
        out = np.zeros(n)
        if nonempty.size:
            out[nonempty] = np.add.reduceat(vals, starts)
        return out

    x = seg_sum(pts)
    gam, a = unit_terms(pts, out=(spare, pts))
    g, a_sum = seg_sum(gam), seg_sum(a)
    q = seg_sum(np.multiply(gam, np.multiply(a, 2.0, out=a), out=a))
    return x, g, a_sum, q, ks
