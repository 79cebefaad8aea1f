"""Density estimators driven by (X, Γ[X], A[X]) samples.

Two families:

* kernel estimators  f̂(x) = N⁻¹ Σ g(x - X_n - ε A_n, ε Γ_n), where g(·, Σ)
  is the centered Gaussian density.  The A-shift together with the
  Γ-shaped covariance pushes the bias from O(ε) down to O(ε²); the
  baselines without the shift (identity or Γ covariance) are kept for
  comparison.

* sign formulas      f(x) = ½ E[sign(x - X) W], with the weight
  W = Γ[X, 1/Γ[X]] + 2 A[X]/Γ[X] and Γ[X, 1/Γ[X]] = -Γ[X, Γ[X]]/Γ[X]².
  These converge at the plain law-of-large-numbers rate.  The
  ε-regularised variant replaces Γ by ε + Γ and increases monotonically
  to a lower semicontinuous version of the density as ε decreases.  W is
  centered, which both drives the far-tail behaviour and enables a
  split-sample control variate.

One record, QuadBatch, holds a draw, quad data or not; the kernels read
its columns in place through (N, d) views.

One pass, many statistics.  Every statistic is a Reducer: block →
partial, merged in block order (the sign formulas add per-side bin sums,
the kernels and the identity statistics merge Moments by the pairwise
update of Chan, Golub and LeVeque, 1983), then finish.  run_pass walks a
built batch or a SampleStream once and feeds each CHUNK_SIZE-row block of
kept rows to every reducer, so one draw serves every (estimator, ε); the
public estimators are its one-reducer case.  At each requested n it
snapshots what a batch of the first n drawn rows gives, bit for bit, so
one stream serves nested sample sizes.  ESTIMATORS is the one table of
estimators: per name, its public function, whether it needs quad data,
takes ε and estimates a density, and a kernel's shape and bias order.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .streams import CHUNK_SIZE

DEGENERATE_DET = 1e-30


class NoUsableSamplesError(ValueError):
    """Every sample of a batch was excluded (degenerate or invalid)."""


def _sums_finite(*arrays: np.ndarray) -> bool:
    """True when the sum of each array is finite, which proves every entry
    finite (NaN and ±inf propagate); an overflowing sum reads False."""
    with np.errstate(over="ignore", invalid="ignore"):
        return all(math.isfinite(np.sum(arr)) for arr in arrays)


def _finite_rows(cols: tuple) -> tuple[tuple, int]:
    """The rows of cols (arrays sharing the leading axis) whose entries are
    all finite, and how many rows were dropped; cols itself when none is."""
    if _sums_finite(*cols):
        return cols, 0
    ok = np.ones(cols[0].shape[0], dtype=bool)
    for c in cols:
        ok &= np.isfinite(c).reshape(c.shape[0], -1).all(axis=1)
    bad = int((~ok).sum())
    return (tuple(c[ok] for c in cols) if bad else cols), bad


@dataclass(frozen=True)
class QuadBatch:
    """A draw of N samples: X, Γ[X] and A[X]; for the sign formulas also
    Γ[X, Γ[X]] (quad data), and G with Γ[X, G] for conditional expectations.
    Scalar draws have 1-d columns; a draw in dimension d has x (N, d),
    gamma (N, d, d) and a (N, d) only.  from_raw drops non-finite rows and
    keeps their count."""

    x: np.ndarray
    gamma: np.ndarray
    a: np.ndarray
    gamma_x_gammax: Optional[np.ndarray] = None
    g: Optional[np.ndarray] = None
    gamma_x_g: Optional[np.ndarray] = None
    invalid_count: int = 0

    n = requested = property(lambda self: self.x.shape[0])
    d = property(lambda self: 1 if self.x.ndim == 1 else self.x.shape[1])
    quad = property(lambda self: self.gamma_x_gammax is not None)
    has_aux = property(lambda self: self.g is not None)

    def __post_init__(self):
        # chunks() hands the columns on by position: G needs Γ[X, Γ[X]]
        if (self.g is None) != (self.gamma_x_g is None) or (self.has_aux and not self.quad):
            raise ValueError("g and gamma_x_g must be supplied together, with gamma_x_gammax")
        cols = {f.name: np.asarray(getattr(self, f.name), dtype=float)
                for f in dataclasses.fields(self)[:6] if getattr(self, f.name) is not None}
        x = cols["x"]
        if not (x.ndim == 1 or x.ndim == 2 and len(cols) == 3):
            raise ValueError("a batch has 1-d columns, or only x (N, d), gamma (N, d, d), a (N, d)")
        n, *d = x.shape
        for name, v in cols.items():
            want = (n, *d, *d) if name == "gamma" else x.shape
            if v.shape != want:
                raise ValueError(f"{name} has shape {v.shape}, want {want}")
            object.__setattr__(self, name, v)

    @classmethod
    def from_raw(cls, *cols, **named):
        """The batch of the given columns, dropping (but counting) rows with
        a non-finite entry; when every row is finite no array is copied."""
        given = dict(zip([f.name for f in dataclasses.fields(cls)], cols), **named)
        given = {k: np.asarray(v, dtype=float) for k, v in given.items() if v is not None}
        kept, bad = _finite_rows(tuple(given.values()))
        return cls(**dict(zip(given, kept)), invalid_count=bad)

    def chunks(self, lend=None) -> list[tuple]:
        """The batch as a source of run_pass: one chunk of its columns; a
        built batch has no draw pool to lend, so lend is left as it is."""
        fields = (getattr(self, f.name) for f in dataclasses.fields(self))
        return [tuple(v for v in fields if isinstance(v, np.ndarray))]


# an old second name, kept only because the benchmark's kernel_2d op
# (perfbench/workloads.py) imports it; the next benchmark change drops it
TripleBatch = QuadBatch


@dataclass
class SampleStream:
    """The batch a scenario would build, drawn while run_pass reduces it:
    chunks(lend) draws its chunks afresh each time, lending its draw pool
    as lend["pool"] while open; empty (0 rows) states their columns;
    run_pass sets n and invalid_count, the kept and dropped rows."""

    chunks: Callable[..., Iterable[tuple]]
    requested: int
    empty: QuadBatch
    n: int = 0
    invalid_count: int = 0

    quad = property(lambda self: self.empty.quad)
    has_aux = property(lambda self: self.empty.has_aux)
    d = property(lambda self: self.empty.d)


@dataclass(frozen=True)
class DensityEstimate:
    """Point estimate of a density (or a signed numerator) at one query x."""

    x: float | np.ndarray
    value: float
    std_error: float
    n_used: int
    epsilon: Optional[float] = None


@dataclass(frozen=True)
class ConditionalEstimate:
    """Ratio estimate value = f(x)E[G|X=x] / f(x) with its delta-method
    std_error, and n_used, the numerator's, as in a DensityEstimate."""

    x: float
    numerator: DensityEstimate
    denominator: DensityEstimate
    value: float
    std_error: float
    reliable: bool

    n_used = property(lambda self: self.numerator.n_used)


# -- Gaussian kernel -------------------------------------------------------

def _as_queries(xs, d: int) -> np.ndarray:
    """Query points as a (Q, d) array; a non-finite point is a ValueError."""
    q = np.asarray(xs, dtype=float)
    if d == 1:
        q = np.atleast_1d(q).reshape(-1, 1)
    else:
        if q.ndim == 1:
            q = q[None, :]
        if q.shape[1] != d:
            raise ValueError(f"query points have dimension {q.shape[1]}, batch has {d}")
    bad = ~np.isfinite(q).all(axis=1)
    if bad.any():
        point = q[np.argmax(bad)]
        shown = float(point[0]) if d == 1 else point.tolist()
        raise ValueError(f"query point {shown!r} is not finite")
    return q


# -- block reductions ------------------------------------------------------

@dataclass(frozen=True)
class Moments:
    """Count n, mean and central sums M2 = Σ(v - mean)², M3 and M4 of a set
    of values.  mean and the sums are scalars or one entry per query; M3
    and M4 are None unless the fourth moment was asked for."""

    n: int = 0
    mean: float | np.ndarray = 0.0
    m2: float | np.ndarray = 0.0
    m3: float | np.ndarray | None = None
    m4: float | np.ndarray | None = None


def _moments(vals: np.ndarray, fourth: bool = False) -> Moments:
    """Moments of the values along the last axis of vals, one set per row
    of a 2-d array (two passes); overwrites vals.  An infinite value gives
    a NaN or infinite moment, without a warning."""
    n = vals.shape[-1]
    if n == 0:
        return Moments()
    with np.errstate(invalid="ignore", over="ignore"):
        mean = vals.sum(axis=-1) / n
        dev = np.subtract(vals, mean[..., None], out=vals)
        if not fourth:
            return Moments(n, mean, np.multiply(dev, dev, out=dev).sum(axis=-1))
        sq = dev * dev
        m2 = sq.sum(axis=-1)
        m3 = np.multiply(sq, dev, out=dev).sum(axis=-1)
        return Moments(n, mean, m2, m3, np.multiply(sq, sq, out=sq).sum(axis=-1))


def _merge(a: Moments, b: Moments) -> Moments:
    """Moments of the union of two disjoint sets of values, by the pairwise
    update of Chan, Golub and LeVeque (1983); an empty set is the identity."""
    if b.n == 0:
        return a
    if a.n == 0:
        return b
    na, nb = a.n, b.n
    n = na + nb
    d = b.mean - a.mean
    dn = d / n
    m2 = a.m2 + b.m2 + d * dn * na * nb
    m3 = m4 = None
    if a.m4 is not None:
        m3 = a.m3 + b.m3 + d * dn * dn * na * nb * (na - nb) + 3.0 * dn * (na * b.m2 - nb * a.m2)
        m4 = (a.m4 + b.m4 + d * dn**3 * na * nb * (na * na - na * nb + nb * nb)
              + 6.0 * dn * dn * (na * na * b.m2 + nb * nb * a.m2)
              + 4.0 * dn * (na * b.m3 - nb * a.m3))
    return Moments(n, a.mean + dn * nb, m2, m3, m4)


def _mean_se(m: Moments):
    """Mean and its standard error √(M2/(n-1)/n), inf below two values; a
    negative M2, left by cancellation in a sum, reads 0."""
    if m.n < 2:
        return m.mean, np.full_like(m.mean, np.inf, dtype=float)
    return m.mean, np.sqrt(np.maximum(m.m2, 0.0) / (m.n - 1)) / math.sqrt(m.n)


def _estimates(queries: np.ndarray, m: Moments, epsilon=None) -> list[DensityEstimate]:
    """One estimate per row of the (Q, d) queries from the moments of its
    values; x is a float for d = 1."""
    mean, se = _mean_se(m)
    return [DensityEstimate(float(q[0]) if q.shape[0] == 1 else q.copy(),
                            float(v), float(e), m.n, epsilon) for q, v, e in zip(queries, mean, se)]


def z_score(value: float, se: float) -> float:
    """value over its standard error se.  NaN, which fails every threshold,
    when either is not finite (fewer than two values give an infinite
    error); ±inf when the error is 0 but the value is not; 0 when both are 0."""
    if not (math.isfinite(value) and math.isfinite(se)):
        return math.nan
    if se > 0:
        return value / se
    return math.copysign(math.inf, value) if value != 0 else 0.0


def _z(m: Moments) -> float:
    """The mean of m over its standard error, by z_score."""
    return z_score(*(float(v) for v in _mean_se(m)))


# -- one pass, many reducers -------------------------------------------------

class Reducer(NamedTuple):
    """A statistic: part(block, half, shared) → partial, merged in block
    order by _add; finish(total) → result, total None if no block fed it.
    run_pass snapshots it at each of sizes, counts of drawn rows (default:
    all); with halves, each n's rows split at n // 2 into halves 0 and 1."""

    part: Callable
    finish: Callable
    sizes: tuple[int, ...] = ()
    halves: bool = False


def _add(a, b):
    """Partial a merged with the next partial b, entry by entry in a tuple;
    None is the empty partial."""
    if a is None or b is None:
        return b if a is None else a
    if isinstance(a, tuple):
        return tuple(map(_add, a, b))
    return _merge(a, b) if isinstance(a, Moments) else a + b


class _Cutter:
    """Cuts the kept rows pushed to it into CHUNK_SIZE-row blocks counted
    from each half's first row and reduces them with the reducers of its
    slots, (reducer, sizes, {drawn rows, or None for the running total:
    merged partial}), which share per block a dict: "buf" holds the pass's
    scratch (see _scratch), "pool" the stream's draw pool while it lends
    one (else None), other keys the sign formulas' bins of the block.  A
    reducer that hands work to the pool waits for it before it returns.
    A block held in several pieces is joined into the cutter's column
    buffers, allocated at its first join; no reducer keeps a block's
    columns past reduce (the bins go with the dict, a partial holds sums
    and moments), so the next block reuses them."""

    def __init__(self, buf, lend, split, end):
        self.buf, self.lend, self.split, self.end = buf, lend, split, end
        self.slots, self.half, self.held, self.have, self.joins = [], 0, [], 0, None

    def push(self, start: int, cols: tuple) -> None:
        half = int(self.split is not None and start >= self.split)
        if half != self.half and self.held:
            self.reduce()
        self.half, lo, n = half, 0, cols[0].shape[0]
        while lo < n:
            hi = min(n, lo + CHUNK_SIZE - self.have)
            self.held.append(tuple(c[lo:hi] for c in cols))
            self.have, lo = self.have + hi - lo, hi
            if self.have == CHUNK_SIZE:
                self.reduce()

    def reduce(self, drawn: Optional[int] = None) -> None:
        """Merge the held rows into every running total and let them go,
        or, at drawn rows, snapshot each reducer that asks for one there."""
        slots = [s for s in self.slots if drawn is None or drawn in s[1]]
        if self.held and slots:
            blk = QuadBatch(*self._joined())
            shared = {"buf": self.buf, "pool": self.lend.get("pool")}
        for r, _, snaps in slots:
            part = r.part(blk, self.half, shared) if self.held else None
            snaps[drawn] = _add(snaps.get(None), part)
        if drawn is None:
            self.held, self.have = [], 0

    def _joined(self) -> tuple:
        if len(self.held) == 1:
            return self.held[0]
        if self.joins is None:
            self.joins = [np.empty((CHUNK_SIZE, *c.shape[1:])) for c in self.held[0]]
        return tuple(np.concatenate(parts, out=buf[:self.have])
                     for parts, buf in zip(zip(*self.held), self.joins))


def _scratch(shared, size: int, key=None) -> np.ndarray:
    """The pass's scratch array of float64 for key, grown to at least size
    entries: key None names the one array the reducers' per-block
    temporaries share, "kernel" the rows each kernel reducer writes its
    block's set-up into, one reducer after another, "helper" the kernel
    values a lent pool thread evaluates, so that none is allocated anew
    for each block or reducer."""
    buf = shared["buf"]
    if key not in buf or buf[key].size < size:
        buf[key] = np.empty(size)
    return buf[key]


def run_pass(src, reducers) -> list[dict]:
    """Walk src once, a built batch or a SampleStream (drawn here, its n and
    invalid_count set, its draw pool lent to the reducers while it is
    open), feeding each block to every reducer; per reducer,
    {n: its result on the first n drawn rows} for each of its sizes.
    Reducers share the cutter of their split, none or n // 2 per size n.  A
    snapshot at n merges the blocks before n with the partial of the cut
    block's rows up to n; the running total still reduces that block whole."""
    total, stream, lo = src.requested, isinstance(src, SampleStream), 0
    buf, lend, cutters, slots, marks = {}, {}, {}, [], {total}
    out = [{} for _ in reducers]
    for r, res in zip(reducers, out):
        sizes = r.sizes or (total,)
        for grid in [(n,) for n in sizes] if r.halves else [sizes]:
            end = grid[0] if r.halves else total
            if r.halves and end < 2:
                raise ValueError(f"batch too small to split: {end} row(s), need at least 2")
            split = end // 2 if r.halves else None
            slots.append((res, (r, grid, {})))
            cut = cutters.setdefault((split, end), _Cutter(buf, lend, split, end))
            cut.slots.append(slots[-1][1])
            marks.update(grid, [split] if split else [])
    if stream:
        src.n = src.invalid_count = 0
    for cols in src.chunks(lend):
        start, hi = lo, lo + cols[0].shape[0]
        for stop in [m for m in sorted(marks) if lo < m < hi] + [hi]:
            piece = tuple(c[start - lo:stop - lo] for c in cols)
            if stream:
                piece, bad = _finite_rows(piece)
                src.n += piece[0].shape[0]
                src.invalid_count += bad
            for cut in cutters.values():
                if start < cut.end:
                    cut.push(start, piece)
                cut.reduce(stop)
            start = stop
        lo = hi
    for res, (r, _, snaps) in slots:
        res.update((n, r.finish(t)) for n, t in snaps.items() if n is not None)
    return out


def _estimator(reducer: Callable) -> Callable:
    """The estimator of reducer(b, ...), one pass over all of b; .reducer
    (kept by functools.wraps wrappers too) serves passes shared by many."""

    @functools.wraps(reducer)
    def estimate(b, *args, **kwargs):
        return run_pass(b, [reducer(b, *args, **kwargs)])[0][b.requested]

    estimate.reducer = reducer
    return estimate


# Gaussian terms below exp(-700) ≈ 1e-304 count as exactly 0: np.exp leaves
# its vectorised path for arguments below about -708, where the far tails of
# narrow kernels put most samples, and runs up to 100 times slower there.
_EXP_CUT = -700.0


def _cut_exp(z: np.ndarray) -> np.ndarray:
    """exp(z) in place, with exp(z) = 0 for z < _EXP_CUT."""
    keep = z >= _EXP_CUT
    np.maximum(z, _EXP_CUT, out=z)
    np.exp(z, out=z)
    return np.multiply(z, keep, out=z)


# coordinates of queries whose kernel values a block evaluates together:
# max(1, _GROUP // d) queries, so the value scratch stays _GROUP·CHUNK_SIZE
# doubles for every d ≤ _GROUP, and as much again for a lent pool thread
# that evaluates groups of the same block
_GROUP = 8


def _ldl(entry, d: int, rows, tmp):
    """Square-root-free Cholesky Σ = L D Lᵀ, L unit lower triangular, of
    every sample's covariance at once (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10).

    entry(i, j, out), i ≥ j, writes Σ_ij, one value per sample, into out.
    The loops run over the d × d entries; each operation is one pass over
    the samples, written in place into an array taken from the iterator
    rows per entry, with tmp as scratch.  Returns the pivots D_i and the
    rows [L_i0, …, L_i,i-1] of L.  A covariance that is not positive
    definite has a pivot ≤ 0 or NaN.
    """
    piv: list = []
    low: list[list] = []
    for i in range(d):
        row: list = []
        for j in range(i + 1):
            other = row if j == i else low[j]
            s = entry(i, j, next(rows))
            for k in range(j):
                np.multiply(row[k], other[k], out=tmp)
                np.subtract(s, np.multiply(tmp, piv[k], out=tmp), out=s)
            if j == i:
                piv.append(s)
            else:
                row.append(np.divide(s, piv[j], out=s))
        low.append(row)
    return piv, low


def _kernel_block(b: QuadBatch, epsilon: float, shift: bool, identity_cov: bool,
                  scratch: np.ndarray):
    """The number of usable samples in block b, its x, a and Γ read in place
    as (N, d) and (N, d, d) views, and (queries, buffer) ↦ the kernel values
    g(x - c_n, Σ_n) of a group of queries over them, as a (group, samples)
    array in the buffer.

    c_n = X_n + εA_n with the A-shift, else X_n; Σ_n = εΓ_n, or εI with
    identity_cov.  A sample is usable when c_n is finite, every pivot of
    Σ_n is > 0 and det Σ_n = Π D_i ≥ DEGENERATE_DET; when some sample is
    not, the usable rows are moved to the front of the set-up's own rows
    (the centres of an unshifted kernel to rows of their own, as they are
    views of x), in order.  The factors, -½/D_i and the
    normaliser (1/√((2π)^d)) / √det are computed once, so a query costs
    the forward substitution r = L⁻¹(x - c_n), Σ r_i²·(-½/D_i) and one exp per
    sample.  For d = 1, D_0 is the variance and L is empty, so the values
    are (x - c_n)²·(-½/var_n) times the normaliser.  The set-up is written
    into N-entry rows cut from the front of scratch, one per CHUNK_SIZE
    entries, which every block and every reducer reuses; -½/D_i overwrites D_i.
    """
    d, n = b.d, b.n
    x, a, gamma = b.x.reshape(-1, d), b.a.reshape(-1, d), b.gamma.reshape(-1, d, d)
    rows = iter(scratch[:scratch.size // CHUNK_SIZE * n].reshape(-1, n))
    inv_root = 1.0 / math.sqrt((2.0 * math.pi) ** d)
    # an overflow (a centre, a pivot or det past 1e308) leaves the sample
    # unusable, without a warning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        center = [x[:, i] for i in range(d)]
        if shift:
            for i in range(d):
                c = np.multiply(epsilon, a[:, i], out=next(rows))
                center[i] = np.add(x[:, i], c, out=c)
        if identity_cov:
            piv, low, out = [float(epsilon)] * d, [[]] * d, None
        else:
            # one row is the factorisation's temporary, then det (d ≥ 2),
            # then the normaliser
            out = next(rows)
            piv, low = _ldl(lambda i, j, out: np.multiply(epsilon, gamma[:, i, j], out=out),
                            d, rows, out)
        det = reduce(lambda u, v: np.multiply(u, v, out=out), piv)
        # the last pivot is > 0 when the others are and det ≥ DEGENERATE_DET
        ok = np.min(det) >= DEGENERATE_DET and all(np.min(p) > 0 for p in piv[:-1])
        if not (ok and _sums_finite(*center, det)):
            usable = np.isfinite(det) & (det >= DEGENERATE_DET)
            for v in center:
                usable &= np.isfinite(v)
            for p in piv[:-1]:
                usable &= p > 0
            k = np.count_nonzero(usable)

            def keep(v, dst=None):
                if not np.ndim(v):
                    return v
                dst = v if dst is None else dst
                dst[:k] = v[usable]
                return dst[:k]

            center = [keep(v, None if shift else next(rows)) for v in center]
            piv = [keep(p) for p in piv]
            low = [[keep(v) for v in row] for row in low]
            out = None if out is None else out[:k]
            det = reduce(lambda u, v: np.multiply(u, v, out=out), piv)
        norm = np.divide(inv_root, np.sqrt(det, out=out), out=out)
        neg_half_prec = [np.divide(-0.5, p, out=None if identity_cov else p) for p in piv]
    n = center[0].shape[0]

    def values(q: np.ndarray, buf: np.ndarray) -> np.ndarray:
        r = buf[:d * q.shape[0] * n].reshape(d, q.shape[0], n)
        for i in range(d):
            np.subtract(q[:, i, None], center[i], out=r[i])
            for k, lik in enumerate(low[i]):
                # query by query: the product is one row, not a (group, block) array
                for ri, rk in zip(r[i], r[k]):
                    ri -= lik * rk
        z = r[0]
        # a far query squares to inf: its exponent is -inf, its term exactly 0
        with np.errstate(over="ignore"):
            for i in range(d):
                np.multiply(r[i], r[i], out=r[i])
                np.multiply(r[i], neg_half_prec[i], out=r[i])
                if i:
                    z += r[i]
        return np.multiply(_cut_exp(z), norm, out=z)

    return n, values


def check_epsilon(epsilon: float) -> None:
    """A ValueError naming ε unless it is finite and > 0."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon!r}")


def _check_quad(b) -> None:
    """A ValueError naming Γ[X, Γ[X]] unless the record or stream b carries it."""
    if not b.quad:
        raise ValueError("the sign formulas need Γ[X, Γ[X]] (quad data); this draw has none")


def _kernel_reducer(d: int, epsilon: float, xs, shift: bool, identity_cov: bool,
                    finish=_estimates, fourth: bool = False) -> Reducer:
    """Per query, the moments of the kernel values over the usable samples
    for finish(queries, moments, ε).  A block evaluates its queries in
    groups of max(1, _GROUP // d), one (group, block) array at a time in
    the pass's scratch.  With a lent draw pool and more than one group, a
    task on the pool claims groups from the caller's iterator into a
    second value buffer of the pass (_scratch key "helper"); part cancels
    it if no thread has started it, else waits for it, so the set-up and
    both buffers are free when part returns.  Each query's row is reduced
    alone, so no bit depends on the thread.  Each reducer makes its own
    set-up of each block, into the one scratch region (_scratch key
    "kernel") that every kernel reducer of the pass writes in turn."""
    check_epsilon(epsilon)
    queries = _as_queries(xs, d)
    nq, group = queries.shape[0], max(1, _GROUP // d)
    need = d * min(nq, group) * CHUNK_SIZE
    # the set-up's rows: centres, the entries of L D Lᵀ and the normaliser
    setup = (d * (d + 3) // 2 + 1) * CHUNK_SIZE

    def run(values, cols, groups, buf):
        for lo in groups:
            m = _moments(values(queries[lo:lo + group], buf), fourth)
            for col, v in zip(cols, (m.mean, m.m2, m.m3, m.m4)):
                col[lo:lo + group] = v

    def part(blk, half, shared):
        n, values = _kernel_block(blk, epsilon, shift, identity_cov,
                                  _scratch(shared, setup, "kernel"))
        if not n:
            return None
        cols = [np.empty(nq) for _ in range(4 if fourth else 2)]
        # next() on a range iterator is one C call under the GIL, so each
        # group goes to exactly one of the two threads
        groups = iter(range(0, nq, group))
        pool = shared["pool"] if nq > group else None
        helper = None if pool is None else pool.submit(
            run, values, cols, groups, _scratch(shared, need, "helper"))
        try:
            run(values, cols, groups, _scratch(shared, need))
        finally:
            if helper is not None and not helper.cancel():
                helper.result()
        return Moments(n, *cols)

    def done(total):
        if total is None:
            raise NoUsableSamplesError("no usable samples")
        return finish(queries, total, epsilon)

    return Reducer(part, done)


@_estimator
def shifted_kernel_density(b: QuadBatch, epsilon: float, xs):
    """Bias-reduced kernel estimate: mean of g(x - X_n - εA_n, εΓ_n)."""
    return _kernel_reducer(b.d, epsilon, xs, True, False)


@_estimator
def plain_kernel_density(b: QuadBatch, epsilon: float, xs, variant: str = "gamma_cov"):
    """Baselines without the A-shift: g(x - X_n, εI) or g(x - X_n, εΓ_n)."""
    if variant not in ("identity_cov", "gamma_cov"):
        raise ValueError("variant must be 'identity_cov' or 'gamma_cov'")
    return _kernel_reducer(b.d, epsilon, xs, False, variant == "identity_cov")


def _variance(queries, m: Moments, epsilon) -> list[tuple[float, float, int]]:
    n = m.n
    if n < 2:
        return [(math.inf, math.inf, n)] * len(queries)
    var = m.m2 / (n - 1)
    se = np.sqrt(np.maximum(m.m4 / n - var * var * (n - 3) / (n - 1), 0.0) / n)
    return [(float(v), float(e), n) for v, e in zip(var, se)]


@_estimator
def shifted_kernel_variance(b: QuadBatch, epsilon: float, xs):
    """Sample variance s² of the shifted-kernel values per query, its
    standard error and the number of samples used.

    The standard error is √((m₄ − s⁴(n−3)/(n−1))/n), with m₄ the fourth
    central moment of the kernel values; it assumes nothing about their
    law (near-singular kernels have heavy-tailed values).
    """
    return _kernel_reducer(b.d, epsilon, xs, True, False, _variance, fourth=True)


# -- sign formulas ---------------------------------------------------------

# sign(x - X) on the sides {X < x}, {X = x}, {X > x}
_SIGN = np.array([1.0, 0.0, -1.0])
_HALF_SIGN = 0.5 * _SIGN


def _weight_terms(q, a, gam, gam2, out=None, tmp=None) -> np.ndarray:
    """2·(a/gam) - q/gam2, the weight from q = Γ[X,Γ[X]] and A (the same
    bits as -q/gam2 + 2a/gam), for gam = Γ or ε + Γ; into out, with tmp
    (which may be gam2) as scratch, when they are given.  Where gam2 has
    underflowed to 0 (gam below about 1.5e-162) and q is 0, as on the
    empty Poisson configuration, the q term is 0, not 0/0."""
    w = np.divide(a, gam, out=out)
    w *= 2.0
    w -= np.divide(q, gam2 if gam2.all() else np.where(q == 0.0, 1.0, gam2), out=tmp)
    return w


def direct_weights(b: QuadBatch) -> tuple[np.ndarray, np.ndarray]:
    """W = -Γ[X,Γ[X]]/Γ² + 2A/Γ, 0 where Γ ≤ 0, and the Γ > 0 usability mask."""
    usable = b.gamma > 0.0
    if usable.all():
        return _weight_terms(b.gamma_x_gammax, b.a, b.gamma, b.gamma * b.gamma), usable
    gam = np.where(usable, b.gamma, 1.0)
    return np.where(usable, _weight_terms(b.gamma_x_gammax, b.a, gam, gam * gam), 0.0), usable


def regularized_weights(b: QuadBatch, epsilon: float) -> np.ndarray:
    """W_ε = -Γ[X,Γ[X]]/(ε+Γ)² + 2A/(ε+Γ); defined for every sample.  An
    (ε+Γ)² past 1e308 is inf, and its term 0, without a warning."""
    gam = epsilon + b.gamma
    with np.errstate(over="ignore"):
        return _weight_terms(b.gamma_x_gammax, b.a, gam, gam * gam)


def conditional_weights(b: QuadBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numerator weights Γ[X,G]/Γ - G·Γ[X,Γ[X]]/Γ² + 2·G·A/Γ, the direct
    weights W and the Γ > 0 mask, both weights 0 where Γ ≤ 0; Γ's mask and
    Γ² are formed once for both.

    For G ≡ 1, Γ[X,G] = 0 the numerator reduces term by term to W.
    """
    usable = b.gamma > 0.0
    every = bool(usable.all())
    gam = b.gamma if every else np.where(usable, b.gamma, 1.0)
    gam2 = gam * gam
    wn = b.gamma_x_g / gam - b.g * b.gamma_x_gammax / gam2 + 2.0 * b.g * b.a / gam
    wd = _weight_terms(b.gamma_x_gammax, b.a, gam, gam2)
    if not every:
        wn, wd = np.where(usable, wn, 0.0), np.where(usable, wd, 0.0)
    return wn, wd, usable


# sorted distinct queries a block is compared with at once: the (group,
# block) comparisons take ≤ CHUNK_SIZE·_BIN_GROUP bytes (512 KiB) of scratch
_BIN_GROUP = 32
# up to this many distinct queries, a block's bins count X > q and X ≥ q
# in one group of both comparisons, which beats the tie gather there
_TWO_COUNT = 16


def _side_sums(xs, finish, *columns) -> Reducer:
    """Per columns function, the usable count and the Σ of each weight
    column over {X < x}, {X = x} and {X > x} per query, handed to
    finish(queries, [(n_used, sums of shape (columns, Q, 3) or None)]),
    queries as a (Q, 1) array.

    columns(block) gives a block's usable count and weight columns (0 on
    unusable rows); with two, the reducer has halves and half h feeds
    columns[h].  Each block is binned once against the sorted distinct
    queries, shared by the reducers with the same queries: bin 2j holds
    q_{j-1} < X < q_j and bin 2j+1 holds X = q_j, so sign(0) = 0.  The bin
    index counts the queries below X by broadcast comparisons, _BIN_GROUP
    queries against the whole block at a time, summed over the group in
    uint8 (uint16 above 255 distinct queries): O(N·Q) SIMD compares and no
    Python loop per query.  Up to _TWO_COUNT queries it is #(q < X) +
    #(q ≤ X), both comparisons summed at once, with no gather of the tie.
    Each column takes one bincount per block;
    running sums over the bins from either end give the two sides, neither
    formed by cancellation.
    """
    queries = _as_queries(xs, 1)
    grid, pos = np.unique(queries[:, 0], return_inverse=True)
    k, ends, key = grid.shape[0], np.append(grid, np.nan), ("bins", grid.tobytes())
    two = k <= _TWO_COUNT
    # float64s holding one group of bool compares
    need = -(-min(2 * k if two else k, _BIN_GROUP) * CHUNK_SIZE // 8)

    def part(blk, half, shared):
        if key not in shared:
            above = _scratch(shared, need).view(np.bool_)
            if two:
                cmp = above[:2 * k * blk.n].reshape(2, k, blk.n)
                np.greater(blk.x, grid[:, None], out=cmp[0])
                np.greater_equal(blk.x, grid[:, None], out=cmp[1])
                counts = cmp.view(np.uint8).reshape(2 * k, blk.n)
                shared[key] = np.add.reduce(counts, axis=0, dtype=np.uint8).astype(np.intp)
            else:
                below = np.zeros(blk.n, dtype=np.min_scalar_type(k))
                for lo in range(0, k, _BIN_GROUP):
                    q = grid[lo:lo + _BIN_GROUP, None]
                    gt = np.greater(blk.x, q, out=above[:q.size * blk.n].reshape(q.size, blk.n))
                    below += np.add.reduce(gt.view(np.uint8), axis=0, dtype=below.dtype)
                bins = below.astype(np.intp)
                tie = ends[bins] == blk.x
                bins *= 2
                bins += tie
                shared[key] = bins
        used, cols = columns[half](blk)
        sums = np.stack([np.bincount(shared[key], col, 2 * k + 1) for col in cols])
        return tuple((used, sums) if h == half else None for h in range(len(columns)))

    def done(total):
        return finish(queries, [(0, None) if t is None else (t[0], _sides(t[1], k)[:, pos])
                                for t in total or [None] * len(columns)])

    return Reducer(part, done, halves=len(columns) == 2)


def _sides(total: np.ndarray, k: int) -> np.ndarray:
    out = np.empty((total.shape[0], k, 3))
    out[:, :, 0] = np.cumsum(total, axis=1)[:, 0:-1:2]
    out[:, :, 1] = total[:, 1::2]
    out[:, :, 2] = np.cumsum(total[:, ::-1], axis=1)[:, -3::-2]
    return out


def _side_moments(coef, sums, squares, n: int) -> Moments:
    """Per query, the mean of v = coef·W and M2 = Σv² - n·mean², from the
    per-side sums of W and W² over n values; coef holds the factor on
    each side, ½(sign(x - X) - c)."""
    mean = (coef * sums).sum(axis=-1) / n
    return Moments(n, mean, (coef * coef * squares).sum(axis=-1) - n * mean * mean)


def _direct_columns(blk: QuadBatch):
    w, usable = direct_weights(blk)
    return int(usable.sum()), (w, w * w)


def _sign_density(columns, xs, epsilon=None) -> Reducer:
    """The reducer of a density ½ E[sign(x - X) W], W from columns."""
    def finish(queries, sums):
        [(n, sums)] = sums
        if n == 0:
            raise NoUsableSamplesError("no samples with positive square field")
        return _estimates(queries, _side_moments(_HALF_SIGN, *sums, n), epsilon)

    return _side_sums(xs, finish, columns)


@_estimator
def direct_density(b: QuadBatch, xs):
    """f(x) = ½ E[sign(x - X) W]; needs Γ > 0 on the used samples.

    Samples with Γ ≤ 0 fall outside the formula's hypotheses; they are
    excluded and visible through n_used (use regularized_density when the
    law of Γ touches 0).
    """
    _check_quad(b)
    return _sign_density(_direct_columns, xs)


@_estimator
def regularized_density(b: QuadBatch, epsilon: float, xs):
    """Monotone-in-ε lower approximation; no positivity needed on Γ."""
    check_epsilon(epsilon)
    _check_quad(b)

    def columns(blk):
        w = regularized_weights(blk, epsilon)
        return blk.n, (w, w * w)

    return _sign_density(columns, xs, epsilon)


@_estimator
def conditional_expectation(b: QuadBatch, xs):
    """Estimate E[G | X = x] as the ratio of the two sign formulas.

    The numerator estimates f(x)·E[G|X=x], the denominator f(x); the ratio
    carries a delta-method standard error and is flagged unreliable when
    the denominator is within two standard errors of zero.
    """
    _check_quad(b)
    if not b.has_aux:
        raise ValueError("conditional needs auxiliary G data, G and Γ[X, G]; this draw has none")

    def columns(blk):
        wn, wd, usable = conditional_weights(blk)
        return int(usable.sum()), (wn, wd, wn * wn, wd * wd, wn * wd)

    def finish(queries, sums) -> list[ConditionalEstimate]:
        [(n, sums)] = sums
        if n < 2:
            raise NoUsableSamplesError("not enough samples with positive square field")
        sn, sd, snn, sdd, snd = sums
        mn, md = _side_moments(_HALF_SIGN, sn, snn, n), _side_moments(_HALF_SIGN, sd, sdd, n)
        m_nd = (_HALF_SIGN * _HALF_SIGN * snd).sum(axis=-1) - n * mn.mean * md.mean
        var_n, var_d, cov_nd = (m / (n - 1) for m in (mn.m2, md.m2, m_nd))
        out = []
        for j, (num, den) in enumerate(zip(_estimates(queries, mn), _estimates(queries, md))):
            reliable = abs(den.value) > 2.0 * den.std_error
            if den.value != 0.0:
                ratio = num.value / den.value
                var_r = (var_n[j] - 2.0 * ratio * cov_nd[j] + ratio**2 * var_d[j]) / (
                    den.value**2 * n)
                se_r = math.sqrt(max(float(var_r), 0.0))
            else:
                ratio, se_r, reliable = float("nan"), float("inf"), False
            out.append(ConditionalEstimate(num.x, num, den, ratio, se_r, reliable))
        return out

    return _side_sums(xs, finish, columns)


@_estimator
def centered_direct_density(b: QuadBatch, xs):
    """Split-sample control variate on the centered weight.

    Half 1 fits the per-x constant c*(x) = Σ sign(x-X)W² / Σ W² (the
    variance minimiser of (sign - c)W when E[W] = 0); half 2 averages
    ½(sign(x-X) - c*)W.  Keeping the halves disjoint keeps the estimator
    unbiased.  Both halves are reduced in one pass over b, so a stream is
    drawn once; each half is blocked from its own first row.
    """
    _check_quad(b)

    def squares(blk):
        w, _ = direct_weights(blk)
        return 0, (w * w,)

    def finish(queries, sums):
        (_, fit), (n, sums) = sums
        if n == 0:
            raise NoUsableSamplesError("no usable samples in the estimation half")
        c = np.zeros(queries.shape[0])
        if fit is not None:
            denom = fit[0].sum(axis=1)
            np.divide(fit[0][:, 0] - fit[0][:, 2], denom, out=c, where=denom > 0)
        return _estimates(queries, _side_moments(0.5 * (_SIGN - c[:, None]), *sums, n))

    return _side_sums(xs, finish, squares, _direct_columns)


# -- the estimator table ---------------------------------------------------

@dataclass(frozen=True)
class Estimator:
    """What the program knows of one named estimator.

    function(b, [ε,] xs[, variant=…]) is a public estimator of this module,
    looked up when it is called, so a wrapper set on the module attribute
    sees every call.  takes_epsilon: it needs ε.  A kernel estimator has
    kernel, its (A-shift, identity covariance) pair, and bias_order, the
    order in ε of its bias; the others read Γ[X, Γ[X]] (needs_quad).
    density: it estimates f(x), where conditional estimates E[G | X = x].
    """

    function: str
    takes_epsilon: bool
    kernel: Optional[tuple[bool, bool]] = None
    bias_order: Optional[int] = None
    density: bool = True

    needs_quad = property(lambda self: self.kernel is None)


ESTIMATORS: dict[str, Estimator] = {
    "shifted": Estimator("shifted_kernel_density", True, (True, False), 2),
    "plain_gamma": Estimator("plain_kernel_density", True, (False, False), 1),
    "plain_id": Estimator("plain_kernel_density", True, (False, True), 1),
    "direct": Estimator("direct_density", False),
    "regularized": Estimator("regularized_density", True),
    "centered": Estimator("centered_direct_density", False),
    "conditional": Estimator("conditional_expectation", False, density=False),
}


def get_estimator(name: str) -> Estimator:
    """The table entry of name; an unknown name is a ValueError listing the valid ones."""
    if name not in ESTIMATORS:
        raise ValueError(f"unknown estimator {name!r}; valid: {', '.join(ESTIMATORS)}")
    return ESTIMATORS[name]


def run_estimator(name: str, batch, epsilon: Optional[float], xs, scenario: str = "",
                  reducer: bool = False):
    """Run the named estimator on a batch as a scenario builds it, or on
    the scenario's stream; with reducer, the Reducer it would run instead,
    for a pass shared with others.

    Kernels read (X, Γ, A) of any batch; the other estimators need quad
    data, and conditional also G; the error for a batch without them names
    scenario, before anything is drawn.  An estimator that takes ε and is
    given None is a ValueError naming it; the others ignore epsilon.
    """
    entry = get_estimator(name)
    if entry.needs_quad and not batch.quad:
        raise ValueError(f"scenario {scenario!r} provides no quad data; {name!r} needs it")
    if not entry.density and not batch.has_aux:
        raise ValueError(f"scenario {scenario!r} provides no auxiliary G data; {name!r} needs it")
    if entry.takes_epsilon and epsilon is None:
        raise ValueError(f"estimator {name!r} needs an epsilon")
    fn = globals()[entry.function]
    args = (batch, epsilon, xs) if entry.takes_epsilon else (batch, xs)
    kwargs = {}
    if entry.kernel and not entry.kernel[0]:  # the plain kernels name their covariance
        kwargs["variant"] = "identity_cov" if entry.kernel[1] else "gamma_cov"
    return (fn.reducer if reducer else fn)(*args, **kwargs)


# -- identity statistics ----------------------------------------------------

# the statistics of the identity suite that read φ, in report order: the
# generator applied to φ ∈ {x, x², cos}, then the regularised
# integration-by-parts residual of φ ∈ {cos, x²} at each ε
_IBP_EPSILONS = (0.5, 0.1)
_PHI_STATS = ("generator_x", "generator_x2", "generator_cos",
              *(f"ibp_{name}_eps{eps:g}" for name in ("cos", "x2") for eps in _IBP_EPSILONS))


@_estimator
def identity_z_scores(b: QuadBatch):
    """z-scores against 0, in report order, of the statistics whose
    expectation vanishes under the law the batch samples:

    * generator_φ, φ ∈ {x, x², cos}: φ'(X) A + ½ φ''(X) Γ, the generator
      applied to φ(X); a shifted A or a wrong Γ breaks it;
    * ibp_φ_epsε, φ ∈ {cos, x²}, ε ∈ {0.5, 0.1}: the regularised
      integration-by-parts residual φ''(X) Γ/(ε+Γ) + φ'(X) W_ε, whose
      expectation is 0 for any smooth bounded φ and every ε > 0;
    * weight_centering: W over the samples with Γ > 0.  W is exactly
      centered whenever the direct formula's hypotheses hold;
      configurations at Γ = 0 (e.g. the empty-configuration atom of point
      process functionals) carry zero weight and are excluded.

    The suite reads X, Γ, A and Γ[X, Γ[X]] only.  Per block, the seven φ
    statistics are the rows of one (7, block) array in the pass's scratch,
    reduced by one _moments call; φ'(X) and φ''(X)·Γ of cos, and ε + Γ and
    W_ε per ε, are evaluated once, into the same scratch, and shared by
    every row that reads them.
    """
    _check_quad(b)
    k = len(_PHI_STATS)

    def part(blk, half, shared) -> tuple[Moments, Moments]:
        n, x, gamma, a = blk.n, blk.x, blk.gamma, blk.a
        buf = _scratch(shared, (k + 5) * n)[:(k + 5) * n].reshape(k + 5, n)
        rows, (d1_cos, d2g_cos, g, w, tmp) = buf[:k], buf[k:]
        stat = dict(zip(_PHI_STATS, rows))
        # φ = x has φ' = 1 and φ'' = 0: its generator statistic is A
        np.copyto(stat["generator_x"], a)
        # φ'(X) and φ''(X)·Γ.  The x² rows are those of φ = x²/2, (x, Γ):
        # halving a statistic, a power of two, halves its mean and standard
        # error exactly, so its z-score keeps every bit
        np.negative(np.sin(x, out=d1_cos), out=d1_cos)
        np.negative(np.cos(x, out=d2g_cos), out=d2g_cos)
        d2g_cos *= gamma
        d = {"x2": (x, gamma), "cos": (d1_cos, d2g_cos)}
        # an A near 1e308 (a --corrupt-a control) overflows the rows and W
        # to inf or NaN, which fails its z-score, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for name, (d1, d2g) in d.items():
                row = np.multiply(d1, a, out=stat[f"generator_{name}"])
                row += np.multiply(0.5, d2g, out=tmp)
            for eps in _IBP_EPSILONS:
                np.add(eps, gamma, out=g)
                _weight_terms(blk.gamma_x_gammax, a, g, np.multiply(g, g, out=tmp), out=w, tmp=tmp)
                for name, (d1, d2g) in d.items():
                    row = np.divide(d2g, g, out=stat[f"ibp_{name}_eps{eps:g}"])
                    row += np.multiply(d1, w, out=tmp)
            wc, usable = direct_weights(blk)
        return _moments(rows), _moments(wc if usable.all() else wc[usable])

    def finish(total) -> dict[str, float]:
        if total is None or total[1].n < 2:
            raise NoUsableSamplesError("not enough samples with positive square field")
        phi, weight = total
        mean, se = _mean_se(phi)
        return {**dict(zip(_PHI_STATS, map(z_score, mean.tolist(), se.tolist()))),
                "weight_centering": _z(weight)}

    return Reducer(part, finish)
