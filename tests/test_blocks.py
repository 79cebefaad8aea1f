"""Block reductions at block boundaries, against the oracles.

Every reduction walks its batch in CHUNK_SIZE-row blocks and merges the
per-block partials in block order.  These cases put the batch size, the
unusable rows and the centered split on either side of a block boundary;
the references reduce the whole batch at once (tests/oracles.py).  The
kernels are also checked in d = 3 with full and rank-deficient
covariances, with covariances that are not positive definite, and, for
d = 1, bit for bit against one pass per query however the queries are
grouped.  The sign formulas also take up to 300 unsorted and repeated
queries, which they bin a group at a time.
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
    kernel_moments_per_query,
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


def many_queries(q: int) -> np.ndarray:
    """q unsorted query points, log-spaced over the lognormal samples.  The
    tied values 0.5 and 1.0 of quads() are among them, from q = 64 past the
    32nd distinct point; q = 300 holds 270 distinct points (more than 255)
    and 30 repeats, the tied values among them."""
    if q == 1:
        return np.array([1.0])
    distinct = np.geomspace(0.01, 5.0, min(q, 270))
    for tie in (0.5, 1.0):
        distinct[np.argmin(abs(distinct - tie))] = tie
    rng = np.random.default_rng(q)
    extra = q - distinct.size
    repeats = np.concatenate([[0.5, 1.0], rng.choice(distinct, extra - 2)]) if extra else []
    xs = rng.permutation(np.concatenate([distinct, repeats]))
    grid = np.unique(xs)
    assert q < 64 or min(np.searchsorted(grid, (0.5, 1.0))) >= 32
    assert q < 300 or grid.size > 255
    return xs


# every size with three queries, and four blocks with many: up to 16
# distinct queries a block is binned by two counts, above by groups of
# comparisons, so these cross both routes, group boundaries and counts past
# uint8, with unsorted and repeated points and ties past the first group
SIGN_CASES = [pytest.param(n, QUERIES, id=str(n)) for n in SIZES] + [
    pytest.param(3 * C + 7, many_queries(q), id=f"{3 * C + 7}-q{q}")
    for q in (1, 16, 17, 64, 65, 300)]


@pytest.mark.parametrize("n,xs", SIGN_CASES)
class TestSignFormulas:
    def test_direct(self, n, xs):
        _assert_same(direct_density(quads(n), xs), direct_loop(quads(n), xs))

    def test_regularized(self, n, xs):
        b = quads(n)
        _assert_same(regularized_density(b, 0.05, xs), regularized_loop(b, 0.05, xs))

    def test_centered(self, n, xs):
        b = quads(n)
        if n < 2:
            with pytest.raises(ValueError, match="too small"):
                centered_direct_density(b, xs)
            return
        # at n = 3C + 7 the split n // 2 = C + 8195 falls inside a block
        _assert_same(centered_direct_density(b, xs), centered_loop(b, xs))
        _assert_same(centered_direct_density(b, xs, force_c=0.3),
                     centered_loop(b, xs, force_c=0.3))

    def test_conditional(self, n, xs):
        b = quads(n)
        if n < 2:
            with pytest.raises(NoUsableSamplesError):
                conditional_expectation(b, xs)
            return
        got = conditional_expectation(b, xs)
        assert len(got) == len(xs)
        for ce, (num, den, ratio, se_r) in zip(got, conditional_loop(b, xs)):
            _assert_same([ce.numerator, ce.denominator], [num, den])
            assert _close(ce.ratio, ratio)
            assert _close(ce.ratio_std_error, se_r, rel=1e-12 * max(_cond(num), _cond(den)))


# d = 3: three full covariances, then rank one and rank two.  Their entries
# are small dyadic numbers, so with a dyadic ε every factorisation meets an
# exact 0 pivot or determinant.
COVS_3D = [
    np.array([[1.0, 0.3, -0.2], [0.3, 0.8, 0.1], [-0.2, 0.1, 0.5]]),
    np.array([[2.0, -0.7, 0.4], [-0.7, 1.1, -0.3], [0.4, -0.3, 0.9]]),
    np.array([[0.6, 0.2, 0.25], [0.2, 1.4, -0.5], [0.25, -0.5, 0.7]]),
    np.outer([1.0, -1.0, 2.0], [1.0, -1.0, 2.0]),
    np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
]


def triples(n: int, d: int):
    """(X, Γ, A) with Γ cycling through a few covariances, a non-finite
    row, a degenerate Γ = 0 row (for d = 3 a rank-one row, and a rank-two
    row from n = 5) and, from n = 2C, the block [C, 2C) wholly degenerate.
    Also returns the covariances and which one each row has."""
    rng = chunk_rng(41, d)
    if d == 1:
        covs = [np.array([[v]]) for v in (0.5, 1.0, 2.0, 0.0)]
    elif d == 2:
        covs = [np.array([[1.0, 0.3], [0.3, 0.5]]), np.eye(2), np.array([[2.0, -0.4], [-0.4, 0.7]]),
                np.diag([1.3, 0.0])]
    else:
        covs = COVS_3D
    which = np.arange(n) % 3
    if n >= 3:
        which[1] = 3
    if d == 3 and n >= 5:
        which[4] = 4
    if n >= 2 * C:
        which[C:2 * C] = 3
    x, a = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    if n >= 3:
        x[n - 1, 0] = math.inf
    return TripleBatch(x, np.stack(covs)[which], a), covs, which


def kernel_reference(tb: TripleBatch, covs, which, eps: float, q, shift: bool, identity_cov: bool,
                     skip=()):
    """Count, mean, standard error, s² and the fourth central moment of the
    kernel values at q, from the vectorised oracle per covariance and exact
    sums.  The rows of the covariances numbered in skip are left out."""
    center = tb.x + eps * tb.a if shift else tb.x
    finite = np.isfinite(center).all(axis=1)
    if identity_cov:
        groups = [(finite, np.eye(tb.d))]
    else:
        groups = [(finite & (which == k), cov) for k, cov in enumerate(covs) if k not in skip]
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


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_3d_kernels_full_gamma(kernel):
    # full covariances, a rank-one and a rank-two row, one row past a block
    call, shift, identity_cov = KERNELS[kernel]
    n = C + 1
    tb, covs, which = triples(n, 3)
    eps = 0.25
    queries = np.array([[0.1, -0.2, 0.3], [1.5, 0.7, -1.0], [-2.0, 3.0, 0.5]])
    for est, q in zip(call(tb, eps, queries), queries):
        used, mean, se, _, _ = kernel_reference(tb, covs, which, eps, q, shift, identity_cov)
        assert est.n_used == used == (n - 1 if identity_cov else n - 3)
        assert _close(est.value, mean) and _close(est.std_error, se), (q, est.value, mean)


NOT_POSITIVE_DEFINITE = {
    2: [-np.eye(2), np.array([[-1.0, 0.3], [0.3, -2.0]])],
    3: [np.diag([-1.0, -1.0, 1.0]), np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, -1.0]])],
}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_not_positive_definite_rows_are_excluded(kernel, d):
    # each Γ below has det > 0 (det(-I) = +1 for d = 2), so a determinant
    # test alone would evaluate them; Γ-shaped kernels must skip and count
    # them, and the identity covariance ignores Γ
    call, shift, identity_cov = KERNELS[kernel]
    n = 1000
    bad = NOT_POSITIVE_DEFINITE[d]
    covs = [COVS_3D[0] if d == 3 else np.array([[1.0, 0.3], [0.3, 0.5]])] + bad
    which = np.zeros(n, dtype=int)
    which[::100] = 1
    which[50::100] = 2
    rng = chunk_rng(42, d)
    tb = TripleBatch(rng.normal(size=(n, d)), np.stack(covs)[which], rng.normal(size=(n, d)))
    for cov in bad:
        assert np.linalg.det(cov) > 0
        with pytest.raises(ValueError, match="positive semidefinite"):
            gaussian_kernel(np.zeros(d), cov)
    eps = 0.1
    queries = np.array([np.zeros(d), np.full(d, 3.0), np.full(d, 0.5)])
    for est, q in zip(call(tb, eps, queries), queries):
        used, mean, se, _, _ = kernel_reference(tb, covs, which, eps, q, shift, identity_cov,
                                                skip=(1, 2))
        assert est.n_used == used == (n if identity_cov else n - 20)
        assert _close(est.value, mean) and _close(est.std_error, se), (q, est.value, mean)
    if kernel == "shifted":
        for (_, _, used), q in zip(shifted_kernel_variance(tb, eps, queries), queries):
            assert used == n - 20


@pytest.mark.parametrize("q", [1, 7, 8, 9, 64])
@pytest.mark.parametrize("kernel", list(KERNELS) + ["shifted_variance"])
def test_grouped_1d_kernel_equals_per_query_bitwise(kernel, q):
    # queries are evaluated in groups; each group's moments must carry the
    # bits of one pass per query, over four blocks with unusable rows
    n = 3 * C + 7
    tb, _, _ = triples(n, 1)
    eps = 0.1
    xs = np.linspace(-2.0, 2.5, q)
    if kernel == "shifted_variance":
        got = shifted_kernel_variance(tb, eps, xs)
        shift, identity_cov = True, False
    else:
        call, shift, identity_cov = KERNELS[kernel]
        got = call(tb, eps, xs)
    refs = kernel_moments_per_query(tb, eps, xs, shift, identity_cov)
    assert len(got) == len(refs) == q
    for x, g, m in zip(xs, got, refs):
        var = m.m2 / (m.n - 1)
        if kernel == "shifted_variance":
            se = np.sqrt(np.maximum(m.m4 / m.n - var * var * (m.n - 3) / (m.n - 1), 0.0) / m.n)
            assert g == (float(var), float(se), m.n), x
        else:
            assert (g.x, g.n_used) == (x, m.n)
            assert g.value == m.mean and g.std_error == np.sqrt(var) / math.sqrt(m.n), x


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
