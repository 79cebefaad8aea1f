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

Dispatch.  ESTIMATORS maps each of the seven estimator names to its call,
whether it needs quad data, whether it takes ε and, for a kernel, its
(A-shift, identity covariance) pair; run_estimator runs a name on a batch
as a scenario builds it.  The CLI and the sweeps choose estimators only
through this table.

Cost per query point.  Kernels compute everything that does not depend on
x (mask, normaliser, precision) once per (batch, ε), leaving one pass over
the samples per query.  The sign formulas bin the samples once against the
sorted distinct queries (one vectorised comparison per query) and take one
bincount per weight column; no per-query pass forms signs or moments.
All reductions run over arrays in canonical chunk order, so every estimate
is bit-reproducible for any worker count.

Cost per call.  Batches, 1-d kernel set-up and the direct weights build a
row mask and copy the kept rows only when some sample is unusable (a
finite column sum proves every entry finite); skipping the copy changes
no bit.  The identity statistics take φ'(X) and φ''(X) as arrays, so a
suite evaluates each φ once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

DEGENERATE_DET = 1e-30


class NoUsableSamplesError(ValueError):
    """Every sample of a batch was excluded (degenerate or invalid)."""


def _sums_finite(*arrays: np.ndarray) -> bool:
    """True when the sum of each array is finite, which proves every entry
    finite: NaN and ±inf propagate through a sum.  A sum that overflows
    from finite entries reads False, so callers fall back to the exact
    per-entry test."""
    with np.errstate(over="ignore", invalid="ignore"):
        return all(math.isfinite(np.sum(arr)) for arr in arrays)


@dataclass(frozen=True)
class TripleBatch:
    """Independent (X, Γ, A) draws sharing a dimension d.

    x: (N, d); gamma: (N, d, d); a: (N, d).  Non-finite draws are excluded
    before construction and only their count is kept.
    """

    x: np.ndarray
    gamma: np.ndarray
    a: np.ndarray
    invalid_count: int = 0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim == 1:
            g = g[:, None, None]
        a = np.asarray(self.a, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        n, d = x.shape
        if g.shape != (n, d, d) or a.shape != (n, d):
            raise ValueError("batch arrays disagree on N or d")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @classmethod
    def from_raw(cls, x, gamma, a) -> "TripleBatch":
        """Build a batch, silently dropping (but counting) non-finite rows.

        When every row is finite the given arrays are kept, not copied.
        """
        x = np.asarray(x, dtype=float)
        gamma = np.asarray(gamma, dtype=float)
        a = np.asarray(a, dtype=float)
        if _sums_finite(x, gamma, a):
            return cls(x, gamma, a)
        ok = (
            np.isfinite(x).reshape(x.shape[0], -1).all(axis=1)
            & np.isfinite(gamma).reshape(gamma.shape[0], -1).all(axis=1)
            & np.isfinite(a).reshape(a.shape[0], -1).all(axis=1)
        )
        bad = int((~ok).sum())
        if bad:
            x, gamma, a = x[ok], gamma[ok], a[ok]
        return cls(x, gamma, a, invalid_count=bad)


@dataclass(frozen=True)
class QuadBatch:
    """Scalar quads (X, Γ, A, Γ[X, Γ[X]]), optionally with a second scalar
    G and Γ[X, G] for conditional expectations."""

    x: np.ndarray
    gamma: np.ndarray
    a: np.ndarray
    gamma_x_gammax: np.ndarray
    g: Optional[np.ndarray] = None
    gamma_x_g: Optional[np.ndarray] = None
    invalid_count: int = 0

    def __post_init__(self):
        arrays = {
            "x": self.x, "gamma": self.gamma, "a": self.a,
            "gamma_x_gammax": self.gamma_x_gammax,
        }
        n = None
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            n = arr.shape[0] if n is None else n
            if arr.shape[0] != n:
                raise ValueError("quad arrays disagree on N")
        for name in ("g", "gamma_x_g"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                object.__setattr__(self, name, arr)
                if arr.shape != (n,):
                    raise ValueError(f"{name} has wrong shape")
        if (self.g is None) != (self.gamma_x_g is None):
            raise ValueError("g and gamma_x_g must be supplied together")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def has_aux(self) -> bool:
        return self.g is not None

    @classmethod
    def from_raw(cls, x, gamma, a, gamma_x_gammax, g=None, gamma_x_g=None) -> "QuadBatch":
        """Build a batch, dropping (but counting) rows with a non-finite entry.

        When every row is finite the given arrays are kept, not copied.
        """
        cols = [np.asarray(c, dtype=float) for c in (x, gamma, a, gamma_x_gammax)]
        aux = [np.asarray(c, dtype=float) for c in (g, gamma_x_g) if c is not None]
        if _sums_finite(*cols, *aux):
            return cls(*cols, *(aux or [None, None]))
        ok = np.ones(cols[0].shape[0], dtype=bool)
        for c in cols + aux:
            ok &= np.isfinite(c)
        bad = int((~ok).sum())
        if bad:
            cols = [c[ok] for c in cols]
            aux = [c[ok] for c in aux]
        return cls(*cols, *(aux or [None, None]), invalid_count=bad)

    def triple_batch(self) -> TripleBatch:
        return TripleBatch(self.x, self.gamma, self.a, invalid_count=self.invalid_count)

    def halves(self) -> tuple["QuadBatch", "QuadBatch"]:
        """First-half / second-half split in canonical sample order."""
        if self.n < 2:
            raise ValueError("batch too small to split")
        m = self.n // 2
        def cut(arr, lo, hi):
            return None if arr is None else arr[lo:hi]
        return (
            QuadBatch(self.x[:m], self.gamma[:m], self.a[:m], self.gamma_x_gammax[:m],
                      cut(self.g, 0, m), cut(self.gamma_x_g, 0, m)),
            QuadBatch(self.x[m:], self.gamma[m:], self.a[m:], self.gamma_x_gammax[m:],
                      cut(self.g, m, self.n), cut(self.gamma_x_g, m, self.n)),
        )


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
    """Ratio estimate f(x)E[G|X=x] / f(x) with delta-method error bars."""

    x: float
    numerator: DensityEstimate
    denominator: DensityEstimate
    ratio: float
    ratio_std_error: float
    reliable: bool


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


def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error; overwrites vals."""
    n = vals.shape[0]
    mean = float(vals.mean())
    if n < 2:
        return mean, float("inf")
    vals -= mean
    vals *= vals
    return mean, math.sqrt(float(vals.sum()) / (n - 1)) / math.sqrt(n)


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


def _kernel_1d(center: np.ndarray, var):
    """x ↦ g(x - c_n, var_n) over the usable samples, for d = 1.

    var is one variance per sample, or a scalar shared by all of them.
    The usable rows are copied out only when some sample is unusable.
    Normaliser and -½/var are computed once; each call fills and returns
    the same buffer.
    """
    if not (_sums_finite(center, var) and np.min(var) >= DEGENERATE_DET):
        usable = np.isfinite(var) & np.isfinite(center) & (var >= DEGENERATE_DET)
        center = center[usable]
        var = var[usable] if np.ndim(var) else var
    neg_half_prec = -0.5 / var
    norm = 1.0 / np.sqrt(2.0 * math.pi * var)
    vals = np.empty_like(center)

    def values(q: np.ndarray) -> np.ndarray:
        np.subtract(q[0], center, out=vals)
        np.multiply(vals, vals, out=vals)
        np.multiply(vals, neg_half_prec, out=vals)
        return np.multiply(_cut_exp(vals), norm, out=vals)

    return values


def _kernel_nd(center: np.ndarray, cov: np.ndarray):
    """x ↦ g(x - c_n, Σ_n) over the usable samples, for d ≥ 2.

    Mask, det-based normaliser and precision matrices are computed once,
    so each query costs one quadratic form and one exp.
    """
    d = center.shape[1]
    det = np.linalg.det(cov)
    usable = np.isfinite(det) & np.isfinite(center).all(axis=1) & (det >= DEGENERATE_DET)
    # (d, d, n) and (d, n) layouts keep the per-query loops contiguous in n
    neg_half_prec = np.ascontiguousarray(-0.5 * np.linalg.inv(cov[usable]).transpose(1, 2, 0))
    c = np.ascontiguousarray(center[usable].T)
    norm = (2.0 * math.pi) ** (-d / 2.0) * det[usable] ** -0.5

    def values(q: np.ndarray) -> np.ndarray:
        y = q[:, None] - c
        vals = np.einsum("ijn,in,jn->n", neg_half_prec, y, y)
        return np.multiply(_cut_exp(vals), norm, out=vals)

    return values


def shifted_kernel_density(b: TripleBatch, epsilon: float, xs) -> list[DensityEstimate]:
    """Bias-reduced kernel estimate: mean of g(x - X_n - εA_n, εΓ_n)."""
    return _kernel_density(b, epsilon, xs, shift=True, identity_cov=False)


def plain_kernel_density(
    b: TripleBatch, epsilon: float, xs, variant: str = "gamma_cov"
) -> list[DensityEstimate]:
    """Baselines without the A-shift: g(x - X_n, εI) or g(x - X_n, εΓ_n)."""
    if variant not in ("identity_cov", "gamma_cov"):
        raise ValueError("variant must be 'identity_cov' or 'gamma_cov'")
    return _kernel_density(b, epsilon, xs, shift=False, identity_cov=(variant == "identity_cov"))


def _kernel_density(
    b: TripleBatch, epsilon: float, xs, shift: bool, identity_cov: bool
) -> list[DensityEstimate]:
    return [est for est, _ in _kernel_estimates(b, epsilon, xs, shift, identity_cov)]


def _kernel_estimates(b: TripleBatch, epsilon: float, xs, shift: bool, identity_cov: bool):
    """Per query: the estimate and the squared deviations of the kernel values
    from their mean (a buffer reused by the next query)."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if b.n == 0:
        raise NoUsableSamplesError("empty batch")
    queries = _as_queries(xs, b.d)
    if b.d == 1:
        x = b.x[:, 0]
        center = x + epsilon * b.a[:, 0] if shift else x
        var = float(epsilon) if identity_cov else epsilon * b.gamma[:, 0, 0]
        values = _kernel_1d(center, var)
    else:
        center = b.x + epsilon * b.a if shift else b.x
        cov = epsilon * (np.broadcast_to(np.eye(b.d), b.gamma.shape) if identity_cov else b.gamma)
        values = _kernel_nd(center, cov)
    for q in queries:
        vals = values(q)
        if vals.shape[0] == 0:
            raise NoUsableSamplesError("no usable samples")
        mean, se = _mean_se(vals)
        x = float(q[0]) if b.d == 1 else q.copy()
        yield DensityEstimate(x, mean, se, vals.shape[0], epsilon), vals


def shifted_kernel_variance(b: TripleBatch, epsilon: float, xs) -> list[tuple[float, float, int]]:
    """Sample variance s² of the shifted-kernel values per query, its
    standard error and the number of samples used.

    The standard error is √((m₄ − s⁴(n−3)/(n−1))/n), with m₄ the fourth
    central moment of the kernel values; it assumes nothing about their
    law (near-singular kernels have heavy-tailed values).
    """
    out = []
    for est, sq_dev in _kernel_estimates(b, epsilon, xs, True, False):
        n = est.n_used
        var = est.std_error**2 * n
        if n < 2:
            out.append((var, math.inf, n))
            continue
        m4 = float(np.dot(sq_dev, sq_dev)) / n
        out.append((var, math.sqrt(max(m4 - var * var * (n - 3) / (n - 1), 0.0) / n), n))
    return out


# -- sign formulas ---------------------------------------------------------

# sign(x - X) on the sides {X < x}, {X = x}, {X > x}
_SIGN = np.array([1.0, 0.0, -1.0])
_HALF_SIGN = 0.5 * _SIGN


def _positive_gamma(b: QuadBatch) -> tuple[np.ndarray, np.ndarray, bool]:
    """The Γ > 0 mask, Γ with 1 on the masked-out samples, and whether
    every sample is usable (then Γ itself is returned, not a copy)."""
    usable = b.gamma > 0.0
    every = bool(usable.all())
    return usable, (b.gamma if every else np.where(usable, b.gamma, 1.0)), every


def direct_weights(b: QuadBatch) -> tuple[np.ndarray, np.ndarray]:
    """W = -Γ[X,Γ[X]]/Γ² + 2A/Γ and the Γ > 0 usability mask."""
    usable, gam, every = _positive_gamma(b)
    w = -b.gamma_x_gammax / gam**2 + 2.0 * b.a / gam
    return (w if every else np.where(usable, w, 0.0)), usable


def regularized_weights(b: QuadBatch, epsilon: float) -> np.ndarray:
    """W_ε = -Γ[X,Γ[X]]/(ε+Γ)² + 2A/(ε+Γ); defined for every sample."""
    gam = epsilon + b.gamma
    return -b.gamma_x_gammax / gam**2 + 2.0 * b.a / gam


def conditional_weights(b: QuadBatch) -> tuple[np.ndarray, np.ndarray]:
    """Numerator weights Γ[X,G]/Γ - G·Γ[X,Γ[X]]/Γ² + 2·G·A/Γ.

    For G ≡ 1, Γ[X,G] = 0 these reduce term by term to direct_weights.
    """
    if not b.has_aux:
        raise ValueError("batch carries no auxiliary G data")
    usable, gam, every = _positive_gamma(b)
    w = b.gamma_x_g / gam - b.g * b.gamma_x_gammax / gam**2 + 2.0 * b.g * b.a / gam
    return (w if every else np.where(usable, w, 0.0)), usable


def _side_sums(xs_samples: np.ndarray, queries: np.ndarray, columns) -> np.ndarray:
    """Σ of each column over {X < x}, {X = x} and {X > x}, for every query.

    The samples are binned once against the sorted distinct queries: bin 2j
    holds q_{j-1} < X < q_j and bin 2j+1 holds X = q_j, so ties keep
    sign(0) = 0.  Each column takes one bincount; running sums over the
    bins from either end give the two sides, so neither side is formed by
    cancelling against the total.  Returns shape (len(columns), Q, 3).
    """
    grid, pos = np.unique(queries, return_inverse=True)
    k = grid.shape[0]
    below = np.zeros(xs_samples.shape[0], dtype=np.min_scalar_type(k))
    for v in grid:
        below += (xs_samples > v).view(np.uint8)
    bins = below.astype(np.intp)
    tie = np.append(grid, np.nan)[bins] == xs_samples
    bins *= 2
    bins += tie
    out = np.empty((len(columns), k, 3))
    for c, col in enumerate(columns):
        s = np.bincount(bins, weights=col, minlength=2 * k + 1)
        out[c, :, 0] = np.cumsum(s)[0:-1:2]
        out[c, :, 1] = s[1::2]
        out[c, :, 2] = np.cumsum(s[::-1])[-3::-2]
    return out[:, pos]


def _side_moments(coef, sum_a, sum_b, sum_ab, n: int):
    """Means of v_a = coef·W_a and v_b = coef·W_b and their sample
    covariance, per query, from the per-side sums of W_a, W_b and W_a·W_b.

    coef holds the factor on each side, ½(sign(x - X) - c); with a = b
    this is the mean and the sample variance.
    """
    mean_a = (coef * sum_a).sum(axis=-1) / n
    mean_b = (coef * sum_b).sum(axis=-1) / n
    if n < 2:
        return mean_a, mean_b, np.full_like(mean_a, np.inf)
    cov = ((coef * coef * sum_ab).sum(axis=-1) - n * mean_a * mean_b) / (n - 1)
    return mean_a, mean_b, cov


def _estimates(queries, mean, var, n: int, epsilon=None) -> list[DensityEstimate]:
    se = np.sqrt(np.maximum(var, 0.0)) / math.sqrt(n)
    return [
        DensityEstimate(float(x), float(m), float(e), n, epsilon)
        for x, m, e in zip(queries, mean, se)
    ]


def _sign_density(b: QuadBatch, w, n: int, xs, epsilon=None) -> list[DensityEstimate]:
    queries = _as_queries(xs, 1)[:, 0]
    if n == 0:
        raise NoUsableSamplesError("no samples with positive square field")
    s, ss = _side_sums(b.x, queries, (w, w * w))
    mean, _, var = _side_moments(_HALF_SIGN, s, s, ss, n)
    return _estimates(queries, mean, var, n, epsilon)


def direct_density(b: QuadBatch, xs) -> list[DensityEstimate]:
    """f(x) = ½ E[sign(x - X) W]; needs Γ > 0 on the used samples.

    Samples with Γ ≤ 0 fall outside the formula's hypotheses; they are
    excluded and visible through n_used (use regularized_density when the
    law of Γ touches 0).
    """
    w, usable = direct_weights(b)
    return _sign_density(b, w, int(usable.sum()), xs)


def regularized_density(b: QuadBatch, epsilon: float, xs) -> list[DensityEstimate]:
    """Monotone-in-ε lower approximation; no positivity needed on Γ."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return _sign_density(b, regularized_weights(b, epsilon), b.n, xs, epsilon)


def conditional_expectation(b: QuadBatch, xs) -> list[ConditionalEstimate]:
    """Estimate E[G | X = x] as the ratio of the two sign formulas.

    The numerator estimates f(x)·E[G|X=x], the denominator f(x); the ratio
    carries a delta-method standard error and is flagged unreliable when
    the denominator is within two standard errors of zero.
    """
    queries = _as_queries(xs, 1)[:, 0]
    wn, usable = conditional_weights(b)
    wd, _ = direct_weights(b)
    n = int(usable.sum())
    if n < 2:
        raise NoUsableSamplesError("not enough samples with positive square field")
    sn, sd, snn, sdd, snd = _side_sums(b.x, queries, (wn, wd, wn * wn, wd * wd, wn * wd))
    mean_n, mean_d, cov_nd = _side_moments(_HALF_SIGN, sn, sd, snd, n)
    var_n = _side_moments(_HALF_SIGN, sn, sn, snn, n)[2]
    var_d = _side_moments(_HALF_SIGN, sd, sd, sdd, n)[2]
    out = []
    for j, (num, den) in enumerate(zip(_estimates(queries, mean_n, var_n, n),
                                       _estimates(queries, mean_d, var_d, n))):
        reliable = abs(den.value) > 2.0 * den.std_error
        if den.value != 0.0:
            ratio = num.value / den.value
            var_r = (
                var_n[j] - 2.0 * ratio * cov_nd[j] + ratio**2 * var_d[j]
            ) / (den.value**2 * n)
            se_r = math.sqrt(max(float(var_r), 0.0))
        else:
            ratio, se_r, reliable = float("nan"), float("inf"), False
        out.append(ConditionalEstimate(num.x, num, den, ratio, se_r, reliable))
    return out


def centered_direct_density(b: QuadBatch, xs, force_c: Optional[float] = None) -> list[DensityEstimate]:
    """Split-sample control variate on the centered weight.

    Half 1 fits the per-x constant c*(x) = Σ sign(x-X)W² / Σ W² (the
    variance minimiser of (sign - c)W when E[W] = 0); half 2 averages
    ½(sign(x-X) - c*)W.  Keeping the halves disjoint keeps the estimator
    unbiased.  force_c pins the constant (c = 0 reproduces direct_density
    on half 2).
    """
    queries = _as_queries(xs, 1)[:, 0]
    h1, h2 = b.halves()
    w1, _ = direct_weights(h1)
    w2, u2 = direct_weights(h2)
    n = int(u2.sum())
    if n == 0:
        raise NoUsableSamplesError("no usable samples in the estimation half")
    c = np.zeros(queries.shape[0])
    if force_c is not None:
        c[:] = float(force_c)
    else:
        (s1,) = _side_sums(h1.x, queries, (w1 * w1,))
        denom = s1.sum(axis=1)
        np.divide(s1[:, 0] - s1[:, 2], denom, out=c, where=denom > 0)
    s, ss = _side_sums(h2.x, queries, (w2, w2 * w2))
    mean, _, var = _side_moments(0.5 * (_SIGN - c[:, None]), s, s, ss, n)
    return _estimates(queries, mean, var, n)


# -- the estimator table ---------------------------------------------------

@dataclass(frozen=True)
class Estimator:
    """How to run one named estimator.

    call(batch, ε, xs) looks its function up in this module when called,
    so a wrapper set on the module attribute sees every call.  kernel is
    the (A-shift, identity covariance) pair of a kernel estimator, else
    None; kernels read the (X, Γ, A) triples of the batch.
    """

    call: Callable
    needs_quad: bool
    takes_epsilon: bool
    kernel: Optional[tuple[bool, bool]] = None


ESTIMATORS: dict[str, Estimator] = {
    "shifted": Estimator(
        lambda b, eps, xs: shifted_kernel_density(b, eps, xs), False, True, (True, False)),
    "plain_gamma": Estimator(
        lambda b, eps, xs: plain_kernel_density(b, eps, xs, variant="gamma_cov"),
        False, True, (False, False)),
    "plain_id": Estimator(
        lambda b, eps, xs: plain_kernel_density(b, eps, xs, variant="identity_cov"),
        False, True, (False, True)),
    "direct": Estimator(lambda b, eps, xs: direct_density(b, xs), True, False),
    "regularized": Estimator(lambda b, eps, xs: regularized_density(b, eps, xs), True, True),
    "centered": Estimator(lambda b, eps, xs: centered_direct_density(b, xs), True, False),
    "conditional": Estimator(lambda b, eps, xs: conditional_expectation(b, xs), True, False),
}


def get_estimator(name: str) -> Estimator:
    """The table entry of name; an unknown name is a ValueError listing the valid ones."""
    try:
        return ESTIMATORS[name]
    except KeyError:
        raise ValueError(f"unknown estimator {name!r}; valid: {', '.join(ESTIMATORS)}") from None


def run_estimator(name: str, batch, epsilon: Optional[float], xs, scenario: str = "") -> list:
    """Run the named estimator on a batch as a scenario builds it.

    Kernels take the triples of a quad batch; the other estimators need
    quad data, and the error for a triple batch names scenario.  Estimators
    that take no ε ignore epsilon.
    """
    entry = get_estimator(name)
    if entry.needs_quad and not isinstance(batch, QuadBatch):
        raise ValueError(f"scenario {scenario!r} provides no quad data; {name!r} needs it")
    if entry.kernel is not None and isinstance(batch, QuadBatch):
        batch = batch.triple_batch()
    return entry.call(batch, epsilon, xs)


# -- identity statistics ----------------------------------------------------

def z_score(stat: np.ndarray) -> float:
    """Mean of stat over its standard error, 0 when that error is 0 or
    undefined (fewer than two values); overwrites stat."""
    if stat.shape[0] < 2:
        return 0.0
    mean, se = _mean_se(stat)
    return mean / se if se > 0 else 0.0


def generator_centering_z(b: QuadBatch, phi_prime: np.ndarray, phi_second: np.ndarray) -> float:
    """z-score of mean[φ'(X) A + ½ φ''(X) Γ] against 0, given φ'(X) and φ''(X).

    The statistic is the generator applied to φ(X), whose expectation
    vanishes under the invariant law; a shifted A or wrong Γ breaks it.
    """
    return z_score(phi_prime * b.a + 0.5 * phi_second * b.gamma)


def ibp_residual_z(
    b: QuadBatch, phi_prime: np.ndarray, phi_second: np.ndarray, epsilon: float
) -> float:
    """z-score of the regularised integration-by-parts residual, given
    φ'(X) and φ''(X).

    E[φ''(X) Γ/(ε+Γ)] + E[φ'(X)(Γ[X, 1/(ε+Γ)] + 2A/(ε+Γ))] = 0 for any
    smooth bounded φ and every ε > 0.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return z_score(
        phi_second * b.gamma / (epsilon + b.gamma) + phi_prime * regularized_weights(b, epsilon)
    )


def weight_centering_z(b: QuadBatch) -> float:
    """z-score of mean W against 0 over the samples with Γ > 0.

    W is exactly centered whenever the direct formula's hypotheses hold;
    configurations at Γ = 0 (e.g. the empty-configuration atom of point
    process functionals) carry zero weight and are excluded.
    """
    w, usable = direct_weights(b)
    n_used = int(usable.sum())
    if n_used < 2:
        raise NoUsableSamplesError("not enough samples with positive square field")
    return z_score(w if n_used == b.n else w[usable])
