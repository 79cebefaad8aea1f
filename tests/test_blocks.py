"""Block reductions at block boundaries, against the oracles.

Every reduction walks its batch in CHUNK_SIZE-row blocks and merges the
per-block partials in block order.  These cases put the batch size, the
unusable rows and the centered split on either side of a block boundary;
the references reduce the whole batch at once (tests/oracles.py).
"""
import math

import numpy as np
import pytest

from dirichlet_mc.estimators import (
    NoUsableSamplesError,
    QuadBatch,
    TripleBatch,
    centered_direct_density,
    conditional_expectation,
    direct_density,
    identity_z_scores,
    plain_kernel_density,
    regularized_density,
    shifted_kernel_density,
    shifted_kernel_variance,
)
from dirichlet_mc.streams import CHUNK_SIZE, chunk_rng, sample_chunked

from oracles import (
    DegenerateCovarianceError,
    centered_loop,
    conditional_loop,
    direct_loop,
    gaussian_kernel,
    identity_z_reference,
    regularized_loop,
)

C = CHUNK_SIZE
SIZES = [1, 2, C - 1, C, C + 1, 3 * C + 7]
QUERIES = [0.5, 1.0, 2.0]


def quads(n: int) -> QuadBatch:
    """Lognormal quads with G = cos X, built by from_raw from n + 1 rows of
    which one is NaN.  From n = 3: a Γ = 0 and a Γ < 0 row; ties at the
    queries, one at a block start; from n = 2C the whole block [C, 2C) has
    Γ = 0."""
    g = chunk_rng(40, 0).normal(size=n + 1)
    x = np.exp(g)
    gam, a, gxx = x * x, 0.5 * x * (1.0 - g), 2.0 * x**3
    x[min(n, C - 1)] = math.nan
    if n >= 3:
        gam[1], gam[n] = 0.0, -1.0
        x[2] = 1.0
    if n > C + 2:
        x[C + 1] = 0.5  # row C of the batch once the NaN row is dropped
    if n >= 2 * C:
        gam[C + 1:2 * C + 1] = 0.0
    b = QuadBatch.from_raw(x, gam, a, gxx, g=np.cos(x), gamma_x_g=-np.sin(x) * gam)
    assert b.n == n and b.invalid_count == 1
    return b


def _close(a, b, rel=1e-12):
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def _cond(r) -> float:
    """1 + mean²/s² of a sign-formula estimate.  The sign formulas take
    s² = (Σv² - n·mean²)/(n - 1) from per-side sums, whose rounding error
    is about 2⁻⁵² times this, relative; it is large only at tiny n."""
    return 1.0 + r.value**2 / (r.std_error**2 * r.n_used) if 0 < r.std_error < math.inf else 1.0


def _assert_same(got, want):
    assert len(got) == len(want)
    for e, r in zip(got, want):
        assert e.x == r.x and e.n_used == r.n_used
        assert _close(e.value, r.value), (e.x, e.value, r.value)
        assert _close(e.std_error, r.std_error, rel=1e-12 * _cond(r)), (e.x, e.std_error, r.std_error)


@pytest.mark.parametrize("n", SIZES)
class TestSignFormulas:
    def test_direct(self, n):
        _assert_same(direct_density(quads(n), QUERIES), direct_loop(quads(n), QUERIES))

    def test_regularized(self, n):
        b = quads(n)
        _assert_same(regularized_density(b, 0.05, QUERIES), regularized_loop(b, 0.05, QUERIES))

    def test_centered(self, n):
        b = quads(n)
        if n < 2:
            with pytest.raises(ValueError, match="too small"):
                centered_direct_density(b, QUERIES)
            return
        # at n = 3C + 7 the split n // 2 = C + 8195 falls inside a block
        _assert_same(centered_direct_density(b, QUERIES), centered_loop(b, QUERIES))
        _assert_same(centered_direct_density(b, QUERIES, force_c=0.3),
                     centered_loop(b, QUERIES, force_c=0.3))

    def test_conditional(self, n):
        b = quads(n)
        if n < 2:
            with pytest.raises(NoUsableSamplesError):
                conditional_expectation(b, QUERIES)
            return
        for ce, (num, den, ratio, se_r) in zip(conditional_expectation(b, QUERIES),
                                               conditional_loop(b, QUERIES)):
            _assert_same([ce.numerator, ce.denominator], [num, den])
            assert _close(ce.ratio, ratio)
            assert _close(ce.ratio_std_error, se_r, rel=1e-12 * max(_cond(num), _cond(den)))


def triples(n: int, d: int):
    """(X, Γ, A) with Γ cycling through a few covariances, a non-finite
    row, a degenerate Γ = 0 row and, from n = 2C, the block [C, 2C)
    wholly degenerate.  Also returns the covariances and which one each
    row has."""
    rng = chunk_rng(41, d)
    if d == 1:
        covs = [np.array([[v]]) for v in (0.5, 1.0, 2.0, 0.0)]
    else:
        covs = [np.array([[1.0, 0.3], [0.3, 0.5]]), np.eye(2), np.array([[2.0, -0.4], [-0.4, 0.7]]),
                np.diag([1.3, 0.0])]
    which = np.arange(n) % 3
    if n >= 3:
        which[1] = 3
    if n >= 2 * C:
        which[C:2 * C] = 3
    x, a = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    if n >= 3:
        x[n - 1, 0] = math.inf
    return TripleBatch(x, np.stack(covs)[which], a), covs, which


def kernel_reference(tb: TripleBatch, covs, which, eps: float, q, shift: bool, identity_cov: bool):
    """Count, mean, standard error, s² and the fourth central moment of the
    kernel values at q, from the vectorised oracle per covariance and exact
    sums."""
    center = tb.x + eps * tb.a if shift else tb.x
    finite = np.isfinite(center).all(axis=1)
    if identity_cov:
        groups = [(finite, np.eye(tb.d))]
    else:
        groups = [(finite & (which == k), cov) for k, cov in enumerate(covs)]
    vals = []
    for rows, cov in groups:
        try:
            vals.extend(gaussian_kernel(q - center[rows], eps * cov).tolist())
        except DegenerateCovarianceError:
            pass
    n = len(vals)
    mean = math.fsum(vals) / n
    if n < 2:
        return n, mean, math.inf, math.inf, math.nan
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    m4 = math.fsum((v - mean) ** 4 for v in vals) / n
    return n, mean, math.sqrt(var / n), var, m4


KERNELS = {
    "shifted": (lambda tb, eps, xs: shifted_kernel_density(tb, eps, xs), True, False),
    "plain_gamma": (lambda tb, eps, xs: plain_kernel_density(tb, eps, xs, "gamma_cov"), False, False),
    "plain_id": (lambda tb, eps, xs: plain_kernel_density(tb, eps, xs, "identity_cov"), False, True),
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_1d_kernels(kernel, n):
    call, shift, identity_cov = KERNELS[kernel]
    tb, covs, which = triples(n, 1)
    eps = 0.1
    for est, q in zip(call(tb, eps, QUERIES), QUERIES):
        used, mean, se, _, _ = kernel_reference(tb, covs, which, eps, np.array([q]), shift,
                                                identity_cov)
        assert est.n_used == used
        assert _close(est.value, mean) and _close(est.std_error, se), (q, est, mean, se)


@pytest.mark.parametrize("n", SIZES)
def test_shifted_kernel_variance(n):
    tb, covs, which = triples(n, 1)
    eps = 0.1
    for (var, se, used), q in zip(shifted_kernel_variance(tb, eps, QUERIES), QUERIES):
        n_ref, _, _, var_ref, m4 = kernel_reference(tb, covs, which, eps, np.array([q]), True, False)
        assert used == n_ref
        if used < 2:
            assert var == se == math.inf
            continue
        se_ref = math.sqrt(max(m4 - var_ref**2 * (used - 3) / (used - 1), 0.0) / used)
        assert _close(var, var_ref) and _close(se, se_ref, rel=1e-10), (q, var, var_ref, se, se_ref)


@pytest.mark.parametrize("n", [C + 5, 3 * C + 7])
def test_2d_kernel_over_blocks(n):
    tb, covs, which = triples(n, 2)
    eps = 0.3
    queries = np.array([[0.1, -0.2], [1.5, 0.7], [-2.0, 3.0]])
    for est, q in zip(shifted_kernel_density(tb, eps, queries), queries):
        used, mean, se, _, _ = kernel_reference(tb, covs, which, eps, q, True, False)
        assert est.n_used == used
        assert _close(est.value, mean) and _close(est.std_error, se), (q, est.value, mean)


@pytest.mark.parametrize("n", SIZES)
def test_identity_z_scores(n):
    b = quads(n)
    if n < 2:
        with pytest.raises(NoUsableSamplesError):
            identity_z_scores(b)
        return
    got, ref = identity_z_scores(b), identity_z_reference(b)
    assert list(got) == list(ref)
    for key, z in ref.items():
        assert got[key] == pytest.approx(z, rel=1e-12, abs=1e-12), key


def test_sample_chunked_assembles_chunks_in_order():
    # trailing axes and dtypes survive the in-place assembly, for any pool size
    def draw(rng, k):
        u = rng.uniform(size=(k, 2))
        return u, (u[:, 0] * 1e6).astype(np.int64)

    n = 3 * C + 7
    parts = [draw(chunk_rng(9, i), k) for i, k in enumerate([C, C, C, 7])]
    for workers in (1, 2, 3):
        u, k = sample_chunked(n, 9, draw, workers)
        assert u.shape == (n, 2) and k.dtype == np.int64
        assert np.array_equal(u, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(k, np.concatenate([p[1] for p in parts]))
