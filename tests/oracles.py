"""Independent finite-difference oracles and reference routes used across
the test suite.

The finite-difference oracles never touch a jet's gradient or Hessian:
they re-derive Γ, A and Γ[X, Γ[X]] from plain scalar evaluations of the
functional, so agreement with the jet calculus of calculus.py is a
genuine two-route check.

The scalar estimator references (one Gaussian kernel at a time through
np.linalg, one full pass over the samples per sign-formula query, the 1-d
kernel values one query at a time) are what the vectorised estimators
are checked against.  PoissonFunctionalSpec, sample_poisson_lift and
poisson_mc_unit are the general lift X = N(h) (any intensity, any h with
two stated derivatives, any base structure) that the package's
closed-form Poisson draw is pinned to; the Poisson identity check
recomputes each configuration of the lift by exact per-point sums.  The
expression-form Euler batch is the reference the in-place Euler
recursion must match bit for bit; the identity z-scores and the stacked
triangular builder below are the references for the identity suite and
the column-wise builder.

simulate_triple is not a reference but the side under test of the
commutation checks: it draws one path's increments and runs them through
the package's Euler recursion, so calculus.jet_oracle_triple can replay
them.  COEFFICIENT_SETS names the package's coefficient presets, and
poisson_point_spec swaps a non-identity h into the Poisson scenario's spec.
"""
from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from dirichlet_mc.coords import fd_mismatch
from dirichlet_mc.estimators import (
    DEGENERATE_DET,
    DensityEstimate,
    Moments,
    QuadBatch,
    _merge,
    conditional_weights,
    direct_weights,
    regularized_weights,
)
from dirichlet_mc.streams import CHUNK_SIZE, sample_chunked
from dirichlet_mc.wiener import (
    SdeCoefficients,
    _mesh,
    additive_coefficients,
    euler_triple_paths,
    gbm_coefficients,
    zero_noise_coefficients,
)

from calculus import BasePoint, ErrorQuad, ErrorTriple, mc_unit

FD_STEP = 1e-4


def fd_gradient(f: Callable[[np.ndarray], float], u: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    g = np.zeros_like(u)
    for i in range(u.shape[0]):
        up, dn = u.copy(), u.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (f(up) - f(dn)) / (2.0 * step)
    return g


def fd_diag_hessian(f: Callable[[np.ndarray], float], u: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    h = np.zeros_like(u)
    f0 = f(u)
    for i in range(u.shape[0]):
        up, dn = u.copy(), u.copy()
        up[i] += step
        dn[i] -= step
        h[i] = (f(up) - 2.0 * f0 + f(dn)) / step**2
    return h


def fd_gamma(f: Callable[[np.ndarray], float], base: BasePoint, step: float = FD_STEP) -> float:
    """Γ[F] = Σ (∂̂_i F)² γ_i(u_i) with finite-difference partials."""
    g = fd_gradient(f, base.coords, step)
    return float(np.sum(g * g * base.gamma_values()))


def fd_a(f: Callable[[np.ndarray], float], base: BasePoint, step: float = FD_STEP) -> float:
    """A[F] = Σ (∂̂_i F) a_i(u_i) + ½ (∂̂²_ii F) γ_i(u_i)."""
    g = fd_gradient(f, base.coords, step)
    h = fd_diag_hessian(f, base.coords, step)
    return float(np.sum(g * base.gen_a_values()) + 0.5 * np.sum(h * base.gamma_values()))


def fd_gamma_x_gammax(
    f: Callable[[np.ndarray], float], base: BasePoint, step: float = FD_STEP
) -> float:
    """Γ[F, Γ[F]] = Σ_j (∂̂_j F) ∂̂_j(Γ[F] field) γ_j(u_j).

    The Γ[F] field itself is recomputed by finite differences at each
    shifted base point, so no jet gradients enter anywhere.
    """
    m = base.m
    gx = fd_gradient(f, base.coords, step)
    w = base.gamma_values()

    def gamma_field(u: np.ndarray) -> float:
        shifted = BasePoint(u, base.specs)
        return fd_gamma(f, shifted, step)

    total = 0.0
    for j in range(m):
        up, dn = base.coords.copy(), base.coords.copy()
        up[j] += step
        dn[j] -= step
        dgam = (gamma_field(up) - gamma_field(dn)) / (2.0 * step)
        total += gx[j] * dgam * w[j]
    return total


def rel_err(a: float, b: float, floor: float = 1.0) -> float:
    return abs(a - b) / max(floor, abs(a), abs(b))


# -- scalar estimator references --------------------------------------------

class DegenerateCovarianceError(ValueError):
    """Kernel covariance is numerically singular; the caller counts and skips it."""


def gaussian_kernel(y, cov):
    """Centered Gaussian density (2π)^{-d/2} det(Σ)^{-1/2} exp(-½ yᵀΣ⁻¹y).

    y is one point (a scalar when d = 1, else a length-d vector), giving a
    float, or an (m, d) array of points, giving m values.  A covariance
    with det below 1e-30 is degenerate: an error for the caller to count
    and skip.
    """
    y = np.asarray(y, dtype=float)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    points = y if y.ndim == 2 else np.atleast_1d(y)[None, :]
    d = points.shape[1]
    if cov.shape != (d, d):
        raise ValueError(f"covariance shape {cov.shape} does not match y of length {d}")
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(cov).max()))):
        raise ValueError("covariance must be symmetric")
    eig = np.linalg.eigvalsh(cov)
    if eig.min() < -1e-12 * max(1.0, float(np.trace(cov))):
        raise ValueError("covariance is not positive semidefinite")
    det = float(np.linalg.det(cov))
    if det < DEGENERATE_DET:
        raise DegenerateCovarianceError(
            f"covariance determinant {det:.3e} below {DEGENERATE_DET:g}"
        )
    quad = np.einsum("ij,ji->i", points, np.linalg.solve(cov, points.T))
    vals = (2.0 * math.pi) ** (-d / 2.0) * det**-0.5 * np.exp(-0.5 * quad)
    return vals if y.ndim == 2 else float(vals[0])


def kernel_moments_per_query(tb, epsilon: float, xs, shift: bool, identity_cov: bool) -> list[Moments]:
    """Per query, the Moments (count, mean, M2, M3, M4) of the 1-d kernel
    values g(x - c_n, var_n) over the usable samples, one pass over a
    block's samples per query.

    Per CHUNK_SIZE-row block: the rows with finite centre and
    var ≥ DEGENERATE_DET, then per query (x - c)²·(-½/var), exp cut to 0
    below -700, times (1/√(2π))/√var, and two-pass moments; the blocks are
    merged in order by the estimators' own merge.  The same arithmetic in
    the same order, so the grouped kernel must match it bit for bit.
    """
    out = []
    for q in np.atleast_1d(np.asarray(xs, dtype=float)):
        total = Moments()
        for lo in range(0, tb.n, CHUNK_SIZE):
            rows = slice(lo, min(lo + CHUNK_SIZE, tb.n))
            center = tb.x[rows, 0] + epsilon * tb.a[rows, 0] if shift else tb.x[rows, 0]
            var = (np.full(center.shape, float(epsilon)) if identity_cov
                   else epsilon * tb.gamma[rows, 0, 0])
            usable = np.isfinite(var) & np.isfinite(center) & (var >= DEGENERATE_DET)
            center, var = center[usable], var[usable]
            n = center.shape[0]
            if n == 0:
                continue
            y = q - center
            z = y * y * (-0.5 / var)
            vals = np.where(z >= -700.0, np.exp(np.maximum(z, -700.0)), 0.0)
            vals = vals * ((1.0 / math.sqrt(2.0 * math.pi)) / np.sqrt(var))
            mean = vals.sum() / n
            dev = vals - mean
            sq = dev * dev
            total = _merge(total, Moments(n, mean, sq.sum(), (sq * dev).sum(), (sq * sq).sum()))
        out.append(total)
    return out


def _sign_loop(x: float, xs_samples, weights, usable, epsilon=None) -> DensityEstimate:
    n_used = int(usable.sum())
    vals = 0.5 * np.sign(x - xs_samples[usable]) * weights[usable]
    se = float(np.std(vals, ddof=1)) / math.sqrt(n_used) if n_used > 1 else float("inf")
    return DensityEstimate(x, float(np.mean(vals)), se, n_used, epsilon)


def direct_loop(b, xs) -> list[DensityEstimate]:
    """direct_density as one full pass over the samples per query point."""
    w, usable = direct_weights(b)
    return [_sign_loop(float(x), b.x, w, usable) for x in np.atleast_1d(xs)]


def regularized_loop(b, epsilon: float, xs) -> list[DensityEstimate]:
    w = regularized_weights(b, epsilon)
    usable = np.ones(b.n, dtype=bool)
    return [_sign_loop(float(x), b.x, w, usable, epsilon) for x in np.atleast_1d(xs)]


def conditional_loop(b, xs) -> list[tuple[DensityEstimate, DensityEstimate, float, float]]:
    """(numerator, denominator, ratio, ratio_std_error) per query point."""
    wn, wd, usable = conditional_weights(b)
    n_used = int(usable.sum())
    out = []
    for x in np.atleast_1d(xs):
        x = float(x)
        s = np.sign(x - b.x[usable])
        num_vals = 0.5 * s * wn[usable]
        den_vals = 0.5 * s * wd[usable]
        num = DensityEstimate(x, float(np.mean(num_vals)),
                              float(np.std(num_vals, ddof=1)) / math.sqrt(n_used), n_used)
        den = DensityEstimate(x, float(np.mean(den_vals)),
                              float(np.std(den_vals, ddof=1)) / math.sqrt(n_used), n_used)
        ratio = num.value / den.value
        cov = np.cov(num_vals, den_vals, ddof=1)
        var_r = (cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio**2 * cov[1, 1]) / (den.value**2 * n_used)
        out.append((num, den, ratio, math.sqrt(max(var_r, 0.0))))
    return out


def halves(b: QuadBatch) -> tuple[QuadBatch, QuadBatch]:
    """Rows [0, n // 2) and [n // 2, n) of b: the centered estimator's split."""
    def rows(sl):
        cols = (b.x, b.gamma, b.a, b.gamma_x_gammax, b.g, b.gamma_x_g)
        return QuadBatch(*(None if c is None else c[sl] for c in cols))

    return rows(slice(0, b.n // 2)), rows(slice(b.n // 2, None))


def centered_loop(b, xs, parts=None) -> list[DensityEstimate]:
    """The centered estimate on halves(b), or on the two batches in parts."""
    h1, h2 = parts or halves(b)
    w1, u1 = direct_weights(h1)
    w2, u2 = direct_weights(h2)
    out = []
    for x in np.atleast_1d(xs):
        x = float(x)
        denom = float(np.sum(w1[u1] ** 2))
        c = float(np.sum(np.sign(x - h1.x[u1]) * w1[u1] ** 2)) / denom if denom > 0 else 0.0
        vals = 0.5 * (np.sign(x - h2.x[u2]) - c) * w2[u2]
        n_used = int(u2.sum())
        se = float(np.std(vals, ddof=1)) / math.sqrt(n_used) if n_used > 1 else float("inf")
        out.append(DensityEstimate(x, float(np.mean(vals)), se, n_used))
    return out


def euler_batch_reference(x0: float, T: float, n: int, c, n_paths: int, rng):
    """Extended Euler over many paths as one fresh array expression per step.

    Every coefficient is broadcast to a full array (constants as v·1), so
    this is the vectorised scheme with no scalar shortcut and no buffer
    reuse.  Returns (x, gamma, a).
    """

    def full(f):
        return lambda x, t: f(x, t) * np.ones_like(x)

    sigma, sigma_x, sigma_xx = full(c.sigma), full(c.sigma_x), full(c.sigma_xx)
    r, r_x, r_xx = full(c.r), full(c.r_x), full(c.r_xx)
    h = T / n
    sqh = math.sqrt(h)
    x = np.full(n_paths, float(x0))
    g = np.zeros(n_paths)
    a = np.zeros(n_paths)
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            db = rng.normal(0.0, sqh, size=n_paths)
            sig = sigma(x, t)
            sig1 = sigma_x(x, t)
            sig2 = sigma_xx(x, t)
            r0 = r(x, t)
            r1 = r_x(x, t)
            r2 = r_xx(x, t)
            lin = 1.0 + sig1 * db + r1 * h
            x, g, a = (
                x + sig * db + r0 * h,
                lin * lin * g + sig * sig * h,
                a + (-0.5 * sig + 0.5 * sig2 * g + sig1 * a) * db + (0.5 * r2 * g + r1 * a) * h,
            )
            t += h
    return x, g, a


def simulate_triple(
    x0: float,
    T: float,
    n: int,
    c: SdeCoefficients,
    rng: np.random.Generator,
) -> tuple[Optional[ErrorTriple], np.ndarray]:
    """One path of n steps of mesh T/n from (x0, 0, 0); db_k ~ N(0, T/n).

    Returns the terminal scalar triple and the increments used, so an
    oracle can replay the same path.  A non-finite terminal state (the
    recursion never turns a non-finite component finite again) yields
    triple None with the increments still reported.
    """
    increments = rng.normal(0.0, math.sqrt(_mesh(T, n)), size=n)
    x, g, a = euler_triple_paths(x0, T, n, c, increments[:, None])
    if not np.isfinite([x[0], g[0], a[0]]).all():
        return None, increments
    return ErrorTriple(x, g[:, None], a), increments


COEFFICIENT_SETS: dict[str, Callable[[], SdeCoefficients]] = {
    "gbm": gbm_coefficients,
    "additive": additive_coefficients,
    "zero_noise": zero_noise_coefficients,
}


# -- the general Poisson lift X = N(h) ----------------------------------------

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


def sample_poisson_lift(spec: PoissonFunctionalSpec, rng: np.random.Generator, n: int):
    """n draws at once of X = N(h) under spec: (x, gamma, a, gamma_x_gammax,
    k) arrays, with the counts drawn first, then one flat batch of points
    cut into configurations by segment sums, as the package's draw does."""
    ks = rng.poisson(spec.total_mass, size=n).astype(np.int64)
    total = int(ks.sum())
    pts = np.asarray(spec.point_sampler(rng, total), dtype=float)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(ks[:-1], out=offsets[1:])
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
    unit-interval structure, as the reference calculus states it: the
    package's Poisson scenario at λ = poisson.LAMBDA."""
    unit = mc_unit()
    return PoissonFunctionalSpec(
        total_mass=float(lam),
        point_sampler=lambda rng, k: rng.uniform(0.0, 1.0, size=k),
        h=lambda p: np.asarray(p, dtype=float),
        h1=lambda p: np.ones_like(np.asarray(p, dtype=float)),
        h2=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
        base_gamma=unit.gamma,
        base_gamma_prime=unit.gamma_prime,
        base_a=unit.gen_a,
    )


def sample_poisson_quad(spec: PoissonFunctionalSpec, rng: np.random.Generator) -> ErrorQuad:
    """One draw of (X, Γ[X], A[X], Γ[X, Γ[X]]) for X = N(h).

    An empty configuration (K = 0) gives the zero quad.
    """
    k = int(rng.poisson(spec.total_mass))
    if k == 0:
        return ErrorQuad(ErrorTriple(np.zeros(1), np.zeros((1, 1)), np.zeros(1)), 0.0)
    p = np.asarray(spec.point_sampler(rng, k), dtype=float)
    x = float(np.sum(spec.h(p)))
    g = float(np.sum(spec.gamma_h(p)))
    a = float(np.sum(spec.a_h(p)))
    gxx = float(np.sum(spec.gamma_x_gammax_term(p)))
    return ErrorQuad(ErrorTriple(np.array([x]), np.array([[g]]), np.array([a])), gxx)


POINT_FUNCTIONS: dict[str, tuple[PointFn, PointFn, PointFn]] = {
    "sin": (np.sin, np.cos, lambda p: -np.sin(p)),
    "polynomial": (
        lambda p: p**2 * (1.0 + p),
        lambda p: 2.0 * p + 3.0 * p**2,
        lambda p: 2.0 + 6.0 * p,
    ),
}


def poisson_point_spec(lam: float, h_name: str) -> PoissonFunctionalSpec:
    """poisson_mc_unit(lam) with (h, h', h'') = POINT_FUNCTIONS[h_name];
    the spec re-checks the derivatives on construction."""
    h, h1, h2 = POINT_FUNCTIONS[h_name]
    return dataclasses.replace(poisson_mc_unit(lam), h=h, h1=h1, h2=h2)


def z_exact(stat: np.ndarray) -> float:
    """z-score from math.fsum sums: the mean and Σ(v - mean)² carry no
    summation error, so no order of summation is built in.  0 below two
    values or when the error is 0."""
    vals = stat.tolist()
    n = len(vals)
    if n < 2:
        return 0.0
    mean = math.fsum(vals) / n
    se = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (n - 1)) / math.sqrt(n)
    return mean / se if se > 0 else 0.0


def identity_z_reference(b: QuadBatch) -> dict[str, float]:
    """The identity suite's z-scores, in report order, from fresh φ
    evaluations per statistic over the whole batch, the masked weights and
    exact sums."""
    phis = {
        "x": (lambda x: np.ones_like(x), lambda x: np.zeros_like(x)),
        "x2": (lambda x: 2.0 * x, lambda x: 2.0 * np.ones_like(x)),
        "cos": (lambda x: -np.sin(x), lambda x: -np.cos(x)),
    }
    z = {}
    for name, (p1, p2) in phis.items():
        z[f"generator_{name}"] = z_exact(p1(b.x) * b.a + 0.5 * p2(b.x) * b.gamma)
    for name in ("cos", "x2"):
        p1, p2 = phis[name]
        for eps in (0.5, 0.1):
            gam = eps + b.gamma
            w = -b.gamma_x_gammax / gam**2 + 2.0 * b.a / gam
            z[f"ibp_{name}_eps{eps:g}"] = z_exact(
                p2(b.x) * b.gamma / (eps + b.gamma) + p1(b.x) * w
            )
    usable = b.gamma > 0.0
    gam = np.where(usable, b.gamma, 1.0)
    w = np.where(usable, -b.gamma_x_gammax / gam**2 + 2.0 * b.a / gam, 0.0)
    z["weight_centering"] = z_exact(w[usable])
    return z


def triangular_reference(n: int, seed: int, workers: int = 1):
    """Columns (X, Γ, A, Γ[X, Γ[X]]) of the triangular scenario from the
    stacked (n, 2) per-coordinate arrays, summed over the coordinate axis."""

    def draw(rng, k):
        u = rng.uniform(size=(k, 2))
        return u[:, 0], u[:, 1]

    u0, u1 = sample_chunked(n, seed, draw, workers)
    u = np.stack([u0, u1], axis=1)
    gam_i = (u * (1.0 - u)) ** 2
    a_i = u * (1.0 - u) * (1.0 - 2.0 * u)
    gp_i = 2.0 * a_i
    return u.sum(axis=1), gam_i.sum(axis=1), a_i.sum(axis=1), (gp_i * gam_i).sum(axis=1)


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
    # the counts and points, replayed from a generator with the same key and
    # counter: the order in which sample_poisson_lift draws them
    replay = copy.deepcopy(rng)
    x, g, a, _, _ = sample_poisson_lift(spec, rng, n)
    ks = replay.poisson(spec.total_mass, size=n)
    pts = np.asarray(spec.point_sampler(replay, int(ks.sum())), dtype=float)
    offsets = np.cumsum(ks) - ks

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

    z = z_exact(phi_prime(x) * a + 0.5 * phi_second(x) * g)
    return PoissonIdentityReport(worst, z, n)
