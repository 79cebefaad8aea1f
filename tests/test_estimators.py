import math
import re

import numpy as np
import pytest

from dirichlet_mc.estimators import (
    ESTIMATORS,
    NoUsableSamplesError,
    QuadBatch,
    TripleBatch,
    centered_direct_density,
    conditional_expectation,
    direct_density,
    identity_z_scores,
    plain_kernel_density,
    regularized_density,
    regularized_weights,
    run_estimator,
    shifted_kernel_density,
    shifted_kernel_variance,
)
from dirichlet_mc.scenarios import corrupt_quad_batch, get_scenario
from dirichlet_mc.streams import chunk_rng

from oracles import (
    DegenerateCovarianceError,
    centered_loop,
    conditional_loop,
    direct_loop,
    gaussian_kernel,
    halves,
    regularized_loop,
    z_exact,
)


def gaussian_quads(n, seed, chunk_offset=0):
    g = chunk_rng(seed, chunk_offset).normal(size=n)
    return QuadBatch(g, np.ones(n), -0.5 * g, np.zeros(n))


def lognormal_quads(n, seed, chunk_offset=0):
    g = chunk_rng(seed, chunk_offset).normal(size=n)
    x = np.exp(g)
    return QuadBatch(x, x * x, 0.5 * x * (1 - g), 2.0 * x**3)


class TestGaussianKernel:
    def test_standard_normal_at_zero(self):
        assert gaussian_kernel(0.0, 1.0) == pytest.approx(0.3989422804014327, abs=1e-9)

    def test_narrow_kernel_value(self):
        assert gaussian_kernel(0.01, 0.01) == pytest.approx(3.9695254747, abs=1e-6)

    def test_bivariate_identity(self):
        assert gaussian_kernel([0.0, 0.0], np.eye(2)) == pytest.approx(1 / (2 * math.pi))

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            gaussian_kernel([0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            gaussian_kernel([0.0, 0.0], np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_degenerate_raises_by_default(self):
        with pytest.raises(DegenerateCovarianceError):
            gaussian_kernel(0.0, 1e-31)

    def test_normalisation_1d(self):
        # ∫ g(x - μ, σ²) dx = 1 by trapezoid over ±8 standard deviations
        mu, var = 0.3, 0.7
        xs = np.linspace(mu - 8 * math.sqrt(var), mu + 8 * math.sqrt(var), 4001)
        vals = [gaussian_kernel(x - mu, var) for x in xs]
        assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-6)

    def test_normalisation_2d(self):
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        lim = 8.0
        xs = np.linspace(-lim, lim, 201)
        ys = np.linspace(-lim, lim, 201)
        points = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        grid = gaussian_kernel(points, cov).reshape(201, 201)
        inner = np.trapezoid(grid, ys, axis=1)
        assert np.trapezoid(inner, xs) == pytest.approx(1.0, abs=1e-6)


class TestKernelEstimators:
    def test_single_sample_spot_value(self):
        tb = TripleBatch(np.array([0.0]), np.array([1.0]), np.array([0.0]))
        assert shifted_kernel_density(tb, 1.0, [0.0])[0].value == pytest.approx(
            0.3989422804014327
        )

    def test_shift_cancels_offset(self):
        tb = TripleBatch(np.array([0.0]), np.array([1.0]), np.array([1.0]))
        est = shifted_kernel_density(tb, 0.01, [0.01])[0]
        assert est.value == pytest.approx(gaussian_kernel(0.0, 0.01), rel=1e-14)

    def test_zero_shift_matches_gamma_baseline_exactly(self):
        g = chunk_rng(0, 0).normal(size=500)
        tb = TripleBatch(g, np.full(500, 1.3), np.zeros(500))
        a = shifted_kernel_density(tb, 0.2, [0.1, 0.4])
        b = plain_kernel_density(tb, 0.2, [0.1, 0.4], variant="gamma_cov")
        assert all(x.value == y.value and x.std_error == y.std_error for x, y in zip(a, b))

    def test_variance_and_its_error_from_explicit_moments(self):
        rng = chunk_rng(12, 0)
        x, g, a = rng.normal(size=300), rng.uniform(0.5, 2.0, 300), rng.normal(size=300)
        eps, q = 0.05, 0.3
        ((var, se, n),) = shifted_kernel_variance(TripleBatch(x, g, a), eps, [q])
        vals = np.array([gaussian_kernel(q - xi - eps * ai, eps * gi) for xi, gi, ai in zip(x, g, a)])
        s2 = float(np.var(vals, ddof=1))
        m4 = float(np.mean((vals - vals.mean()) ** 4))
        assert n == 300
        assert var == pytest.approx(s2, rel=1e-12)
        assert se == pytest.approx(math.sqrt((m4 - s2 * s2 * (n - 3) / (n - 1)) / n), rel=1e-10)

    def test_identity_cov_spot_value(self):
        tb = TripleBatch(np.array([0.0]), np.array([2.0]), np.array([5.0]))
        est = plain_kernel_density(tb, 1.0, [0.0], variant="identity_cov")[0]
        assert est.value == pytest.approx(0.3989422804014327)

    def test_unknown_variant_rejected(self):
        tb = TripleBatch(np.array([0.0]), np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="variant"):
            plain_kernel_density(tb, 1.0, [0.0], variant="typo")

    def test_estimate_mass_integrates_to_one_gaussian(self):
        b = gaussian_quads(4000, 1)
        eps = 0.05
        xs = np.linspace(-6.0, 6.0, 4001)
        vals = [e.value for e in shifted_kernel_density(b, eps, xs)]
        assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-5)

    def test_estimate_mass_integrates_to_one_lognormal(self):
        # restrict to a sub-batch whose kernel widths the grid resolves
        full = lognormal_quads(4000, 1)
        keep = (full.x > 0.2) & (full.x < 5.0)
        b = TripleBatch(full.x[keep], full.gamma[keep], full.a[keep])
        eps = 0.05
        xs = np.linspace(-2.0, 9.0, 8001)
        vals = [e.value for e in shifted_kernel_density(b, eps, xs)]
        assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-4)

    def test_degenerate_samples_skipped_and_counted(self):
        x = np.array([0.0, 1.0, 2.0])
        gam = np.array([1.0, 0.0, 1.0])  # middle sample has zero covariance
        tb = TripleBatch(x, gam, np.zeros(3))
        est = shifted_kernel_density(tb, 0.5, [0.5])[0]
        assert est.n_used == 2

    def test_all_degenerate_is_an_error(self):
        tb = TripleBatch(np.zeros(4), np.zeros(4), np.zeros(4))
        with pytest.raises(NoUsableSamplesError):
            shifted_kernel_density(tb, 0.5, [0.0])

    @pytest.mark.parametrize("kernel", [
        lambda tb, xs: shifted_kernel_density(tb, 0.1, xs),
        lambda tb, xs: plain_kernel_density(tb, 0.1, xs, variant="gamma_cov"),
    ])
    def test_unusable_rows_take_the_masked_route(self, kernel):
        # a NaN row and a Γ = 0 row send the set-up to the row mask; the
        # estimates must equal those over the clean rows, bit for bit
        rng = chunk_rng(19, 0)
        x, gam, a = rng.normal(size=400), rng.uniform(0.5, 2.0, 400), rng.normal(size=400)
        x[7], gam[250] = math.nan, 0.0
        keep = np.ones(400, dtype=bool)
        keep[[7, 250]] = False
        xs = [-0.5, 0.0, 1.2]
        got = kernel(TripleBatch(x, gam, a), xs)
        ref = kernel(TripleBatch(x[keep], gam[keep], a[keep]), xs)
        assert got == ref
        assert got[0].n_used == 398

    def test_identity_cov_equals_broadcast_reference(self):
        # the scalar variance ε against ε·Γ with Γ ≡ 1: per-sample variances
        # ε·1 = ε, i.e. the ε·I broadcast, must give the same bits
        rng = chunk_rng(20, 0)
        x, gam, a = rng.normal(size=500), rng.uniform(0.5, 2.0, 500), rng.normal(size=500)
        xs = [-1.0, 0.3, 2.0]
        for eps in (0.3, 1e-3, 7.0):
            got = plain_kernel_density(TripleBatch(x, gam, a), eps, xs, variant="identity_cov")
            ref = plain_kernel_density(TripleBatch(x, np.ones(500), a), eps, xs, variant="gamma_cov")
            assert got == ref
        x[3] = math.inf  # and through the masked route
        got = plain_kernel_density(TripleBatch(x, gam, a), 0.3, xs, variant="identity_cov")
        ref = plain_kernel_density(TripleBatch(x, np.ones(500), a), 0.3, xs, variant="gamma_cov")
        assert got == ref and got[0].n_used == 499

    def test_vectorised_matches_scalar_kernel(self):
        rng = chunk_rng(12, 0)
        x = rng.normal(size=50)
        gam = rng.uniform(0.5, 2.0, size=50)
        a = rng.normal(size=50)
        tb = TripleBatch(x, gam, a)
        eps, q = 0.3, 0.7
        est = shifted_kernel_density(tb, eps, [q])[0]
        ref = np.mean([gaussian_kernel(q - xi - eps * ai, eps * gi) for xi, gi, ai in zip(x, gam, a)])
        assert est.value == pytest.approx(float(ref), rel=1e-12)


class TestDirectDensity:
    def test_gaussian_at_zero(self):
        est = direct_density(gaussian_quads(100_000, 1), [0.0])[0]
        assert abs(est.value - 0.3989422804014327) < 4 * est.std_error

    def test_lognormal_at_one(self):
        est = direct_density(lognormal_quads(100_000, 2), [1.0])[0]
        assert abs(est.value - 0.3989422804014327) < 4 * est.std_error

    def test_far_tail_is_centering(self):
        b = gaussian_quads(100_000, 3)
        est = direct_density(b, [60.0])[0]
        assert abs(est.value) < 4 * est.std_error

    def test_zero_gamma_samples_excluded_and_reported(self):
        b = QuadBatch(
            np.array([0.0, 1.0, 2.0]),
            np.array([1.0, 0.0, 1.0]),
            np.array([0.1, 0.2, 0.3]),
            np.zeros(3),
        )
        est = direct_density(b, [1.0])[0]
        assert est.n_used == 2

    def test_no_positive_gamma_is_an_error(self):
        b = QuadBatch(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))
        with pytest.raises(NoUsableSamplesError):
            direct_density(b, [0.0])


class TestRegularizedDensity:
    def test_constant_gamma_scaling(self):
        b = gaussian_quads(100_000, 4)
        for eps in (0.5, 0.1):
            est = regularized_density(b, eps, [0.0])[0]
            ref = 0.3989422804014327 / (1.0 + eps)
            assert abs(est.value - ref) < 4 * est.std_error

    def test_large_epsilon_kills_the_weight(self):
        b = gaussian_quads(10_000, 5)
        est = regularized_density(b, 1e9, [0.0])[0]
        assert abs(est.value) < 1e-8

    def test_positive_epsilon_required(self):
        with pytest.raises(ValueError):
            regularized_density(gaussian_quads(10, 0), 0.0, [0.0])


class TestConditionalExpectation:
    def _pair_batch(self, n, seed):
        rng = chunk_rng(seed, 0)
        g1, g2 = rng.normal(size=n), rng.normal(size=n)
        c, s = np.cos(g2), np.sin(g2)
        return QuadBatch(
            g1 + s, 1 + c * c, -0.5 * g1 - 0.5 * g2 * c - 0.5 * s,
            -c * np.sin(2 * g2), g=s, gamma_x_g=c * c,
        )

    def test_constant_g_reduces_to_direct_bitwise(self):
        b = gaussian_quads(5000, 6)
        b1 = QuadBatch(b.x, b.gamma, b.a, b.gamma_x_gammax, g=np.ones(b.n), gamma_x_g=np.zeros(b.n))
        ce = conditional_expectation(b1, [0.3])[0]
        dd = direct_density(b1, [0.3])[0]
        assert ce.numerator.value == dd.value
        assert ce.numerator.std_error == dd.std_error
        assert ce.ratio == 1.0

    def test_conditional_mean_of_x_given_x(self):
        # G = X: the ratio estimates E[X | X = x] = x
        b = lognormal_quads(100_000, 7)
        with_aux = QuadBatch(
            b.x, b.gamma, b.a, b.gamma_x_gammax, g=b.x, gamma_x_g=b.gamma
        )
        ce = conditional_expectation(with_aux, [1.0])[0]
        assert ce.reliable
        assert abs(ce.ratio - 1.0) < 4 * ce.ratio_std_error

    def test_missing_aux_rejected(self):
        with pytest.raises(ValueError, match="auxiliary"):
            conditional_expectation(gaussian_quads(100, 0), [0.0])

    def test_unreliable_flag_in_the_far_tail(self):
        ce = conditional_expectation(self._pair_batch(2000, 8), [80.0])[0]
        assert not ce.reliable


class TestCenteredDirect:
    def test_forced_zero_matches_direct_on_second_half(self):
        b = lognormal_quads(20_000, 9)
        _, h2 = halves(b)
        cd = centered_direct_density(b, [1.0], force_c=0.0)[0]
        dd = direct_density(h2, [1.0])[0]
        assert cd.value == dd.value and cd.std_error == dd.std_error

    def test_symmetric_scenario_keeps_estimate(self):
        b = gaussian_quads(100_000, 10)
        _, h2 = halves(b)
        cd = centered_direct_density(b, [0.0])[0]
        dd = direct_density(h2, [0.0])[0]
        # at the symmetry point the fitted constant is ~0, so both agree
        assert abs(cd.value - dd.value) < 2 * math.hypot(cd.std_error, dd.std_error)

    def test_variance_reduction_reported_on_lognormal(self):
        b = lognormal_quads(100_000, 11)
        _, h2 = halves(b)
        cd = centered_direct_density(b, [1.0])[0]
        dd = direct_density(h2, [1.0])[0]
        print(
            f"control variate variance ratio at x=1: {(cd.std_error / dd.std_error) ** 2:.3f}"
        )
        assert cd.std_error > 0

    def test_mean_invariance_across_seeds(self):
        # estimator mean is unchanged by the control variate
        diffs, ses = [], []
        for seed in range(50):
            b = lognormal_quads(4000, 100 + seed)
            _, h2 = halves(b)
            cd = centered_direct_density(b, [1.0])[0]
            dd = direct_density(h2, [1.0])[0]
            diffs.append(cd.value - dd.value)
            ses.append(math.hypot(cd.std_error, dd.std_error))
        mean_diff = float(np.mean(diffs))
        combined_se = float(np.mean(ses)) / math.sqrt(len(diffs))
        assert abs(mean_diff) < 3 * combined_se

    def test_degenerate_first_half_falls_back_to_zero(self):
        x = np.concatenate([np.zeros(10), chunk_rng(0, 0).normal(size=10)])
        gam = np.concatenate([np.zeros(10), np.ones(10)])  # half 1 unusable
        b = QuadBatch(x, gam, np.zeros(20), np.zeros(20))
        est = centered_direct_density(b, [0.5])[0]
        assert math.isfinite(est.value)


class TestIdentityStatistics:
    def test_ibp_sides_match_closed_form_gaussian_cos(self):
        # both sides of the relation are ∓ e^{-1/2}/(1+ε) at ε = 0.5
        b = gaussian_quads(100_000, 12)
        eps = 0.5
        lhs = -np.cos(b.x) * b.gamma / (eps + b.gamma)
        side = float(np.mean(lhs))
        se = float(np.std(lhs, ddof=1)) / math.sqrt(b.n)
        assert abs(side - (-math.exp(-0.5) / 1.5)) < 4 * se
        assert abs(identity_z_scores(b)["ibp_cos_eps0.5"]) < 4.0

    def test_ibp_affine_phi_reduces_to_centering(self):
        # φ(x) = x leaves the residual W_ε alone
        b = lognormal_quads(100_000, 13)
        assert abs(z_exact(regularized_weights(b, 0.5))) < 4.0

    def test_ibp_triangular_quadratic_phi(self):
        rng = chunk_rng(14, 0)
        u = rng.uniform(size=(100_000, 2))
        gam_i = (u * (1 - u)) ** 2
        a_i = u * (1 - u) * (1 - 2 * u)
        b = QuadBatch(u.sum(1), gam_i.sum(1), a_i.sum(1), (2 * a_i * gam_i).sum(1))
        assert abs(identity_z_scores(b)["ibp_x2_eps0.1"]) < 4.0

    def test_weight_centering_every_quad_scenario(self):
        for make, seed in ((gaussian_quads, 15), (lognormal_quads, 16)):
            assert abs(identity_z_scores(make(100_000, seed))["weight_centering"]) < 4.0

    def test_generator_centering_catches_shifted_a(self):
        b = gaussian_quads(100_000, 17)
        shifted = QuadBatch(b.x, b.gamma, b.a + 0.1, b.gamma_x_gammax)
        assert abs(identity_z_scores(shifted)["generator_x"]) > 4.0


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


class TestSignReductions:
    """The binned reductions against one full pass per query point."""

    QUERIES = [1.0, 0.5, 1.0, 3.0, 0.2, 60.0, -5.0]

    def _batch(self):
        b = lognormal_quads(6000, 31)
        x, gam = b.x.copy(), b.gamma.copy()
        x[[10, 11, 4000]] = 1.0  # samples exactly at a query, in both halves
        x[12] = 0.5
        gam[[20, 3500]] = 0.0  # Γ ≤ 0: excluded from the direct formulas
        gam[21] = -1.0
        return QuadBatch(x, gam, b.a, b.gamma_x_gammax, g=np.cos(x), gamma_x_g=-np.sin(x) * gam)

    def _assert_same(self, got, want):
        assert len(got) == len(want)
        for e, r in zip(got, want):
            assert e.x == r.x and e.n_used == r.n_used
            assert _close(e.value, r.value), (e.x, e.value, r.value)
            assert _close(e.std_error, r.std_error), (e.x, e.std_error, r.std_error)

    @pytest.mark.parametrize("queries", [QUERIES, [1.0], list(np.linspace(0.05, 6.0, 300))],
                             ids=["mixed", "single", "dense"])
    def test_direct(self, queries):
        b = self._batch()
        self._assert_same(direct_density(b, queries), direct_loop(b, queries))
        assert direct_density(b, queries)[0].n_used == b.n - 3

    @pytest.mark.parametrize("queries", [QUERIES, [1.0]], ids=["mixed", "single"])
    def test_regularized(self, queries):
        b = self._batch()
        self._assert_same(regularized_density(b, 0.05, queries), regularized_loop(b, 0.05, queries))

    @pytest.mark.parametrize("queries", [QUERIES, [1.0]], ids=["mixed", "single"])
    def test_centered(self, queries):
        b = self._batch()
        self._assert_same(centered_direct_density(b, queries), centered_loop(b, queries))
        self._assert_same(centered_direct_density(b, queries, force_c=0.3),
                          centered_loop(b, queries, force_c=0.3))

    @pytest.mark.parametrize("queries", [QUERIES, [1.0]], ids=["mixed", "single"])
    def test_conditional(self, queries):
        b = self._batch()
        for ce, (num, den, ratio, se_r) in zip(conditional_expectation(b, queries),
                                               conditional_loop(b, queries)):
            self._assert_same([ce.numerator, ce.denominator], [num, den])
            assert _close(ce.ratio, ratio) and _close(ce.ratio_std_error, se_r)

    def test_large_n_centered_weight_against_exact_sums(self):
        # W = -U is centered, so in the tails the signed terms cancel down to
        # a small mean; the error of a sum is measured against the mean |term|.
        # Per-block bin sums added block by block stay within 5.2e-16 of it
        # (seeds 32-34, also at N = 10^7); one sequential sum over the batch
        # reached 1.3e-14
        b = gaussian_quads(1_000_000, 32)
        w = -b.x
        for est in direct_density(b, [0.0, 2.5, -4.0]):
            vals = (0.5 * np.sign(est.x - b.x) * w).tolist()
            n = len(vals)
            mean = math.fsum(vals) / n
            scale = math.fsum(abs(v) for v in vals) / n
            var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
            assert abs(est.value - mean) <= 2e-15 * scale, (est.x, est.value, mean)
            assert _close(est.std_error, math.sqrt(var / n)), est.x

    def test_non_finite_query_rejected(self):
        b = gaussian_quads(100, 33)
        for xs in ([0.0, math.nan], [math.inf]):
            with pytest.raises(ValueError, match="not finite"):
                direct_density(b, xs)
            with pytest.raises(ValueError, match="not finite"):
                shifted_kernel_density(b, 0.1, xs)


class TestKernel2d:
    """The factored d = 2 kernel against the scalar reference kernel."""

    def _batch(self):
        rng = chunk_rng(34, 0)
        n = 40
        m = rng.normal(size=(n, 2, 2))
        gam = m @ m.transpose(0, 2, 1) + 0.1 * np.eye(2)
        gam[7] = np.diag([1.3, 0.0])  # rank one: determinant below the threshold
        return TripleBatch(rng.normal(size=(n, 2)), gam, rng.normal(size=(n, 2)))

    def test_matches_scalar_kernel(self):
        tb = self._batch()
        eps = 0.3
        queries = np.array([[0.1, -0.2], [1.5, 0.7], [-2.0, 3.0]])
        for est, q in zip(shifted_kernel_density(tb, eps, queries), queries):
            vals = []
            for x, g, a in zip(tb.x, tb.gamma, tb.a):
                try:
                    vals.append(gaussian_kernel(q - x - eps * a, eps * g))
                except DegenerateCovarianceError:
                    pass
            assert est.n_used == len(vals) == tb.n - 1
            assert _close(est.value, float(np.mean(vals))), (q, est.value)
            se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
            assert _close(est.std_error, se), (q, est.std_error, se)


class TestEstimatorTable:
    """run_estimator is the named function applied to the batch, bit for bit."""

    _DIRECT = {
        "shifted": shifted_kernel_density,
        "plain_gamma": lambda b, eps, xs: plain_kernel_density(b, eps, xs, variant="gamma_cov"),
        "plain_id": lambda b, eps, xs: plain_kernel_density(b, eps, xs, variant="identity_cov"),
        "direct": lambda b, eps, xs: direct_density(b, xs),
        "regularized": regularized_density,
        "centered": lambda b, eps, xs: centered_direct_density(b, xs),
        "conditional": lambda b, eps, xs: conditional_expectation(b, xs),
    }

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_matches_direct_call(self, name):
        batch = get_scenario("gaussian_pair").build(3000, 12, 1)
        xs = [-0.5, 0.0, 0.5]
        got = run_estimator(name, batch, 0.1, xs)
        assert repr(got) == repr(self._DIRECT[name](batch, 0.1, xs))

    def test_kernels_take_triple_batches(self):
        tb = get_scenario("gbm_euler").build(2000, 3, 1)
        assert isinstance(tb, TripleBatch)
        got = run_estimator("plain_id", tb, 0.1, [1.0])
        assert repr(got) == repr(plain_kernel_density(tb, 0.1, [1.0], variant="identity_cov"))

    def test_missing_quad_data_names_the_scenario(self):
        tb = get_scenario("gbm_euler").build(2000, 3, 1)
        with pytest.raises(ValueError, match="scenario 'gbm_euler' provides no quad data; "
                                             "'direct' needs it"):
            run_estimator("direct", tb, None, [1.0], "gbm_euler")

    @pytest.mark.parametrize("source", ["build", "stream"])
    @pytest.mark.parametrize("call", [
        lambda b: direct_density(b, [1.0]),
        lambda b: regularized_density(b, 0.1, [1.0]),
        lambda b: centered_direct_density(b, [1.0]),
        lambda b: conditional_expectation(b, [1.0]),
        identity_z_scores,
    ], ids=["direct_density", "regularized_density", "centered_direct_density",
            "conditional_expectation", "identity_z_scores"])
    def test_sign_formulas_name_missing_quad_data(self, call, source):
        draw = getattr(get_scenario("gbm_euler"), source)(1000, 1, 1)
        with pytest.raises(ValueError, match=re.escape("need Γ[X, Γ[X]] (quad data)")):
            call(draw)

    @pytest.mark.parametrize("name", [n for n, e in ESTIMATORS.items() if e.takes_epsilon])
    def test_missing_epsilon_names_the_estimator(self, name):
        batch = get_scenario("lognormal").build(2000, 3, 1)
        with pytest.raises(ValueError, match=f"estimator '{name}' needs an epsilon"):
            run_estimator(name, batch, None, [1.0])

    def test_table_states_each_kernel_and_its_bias_order(self):
        kernels = {n: (e.kernel, e.bias_order) for n, e in ESTIMATORS.items() if e.kernel}
        assert kernels == {"shifted": ((True, False), 2), "plain_gamma": ((False, False), 1),
                           "plain_id": ((False, True), 1)}
        assert [n for n, e in ESTIMATORS.items() if not e.density] == ["conditional"]
        assert all(e.bias_order is None for e in ESTIMATORS.values() if not e.kernel)


class TestBatches:
    def test_from_raw_counts_invalid(self):
        x = np.array([0.0, math.nan, 1.0])
        b = QuadBatch.from_raw(x, np.ones(3), np.zeros(3), np.zeros(3))
        assert b.n == 2 and b.invalid_count == 1

    def test_from_raw_keeps_clean_arrays(self):
        cols = [np.arange(4.0), np.ones(4), np.zeros(4), np.zeros(4)]
        qb = QuadBatch.from_raw(*cols, g=np.ones(4), gamma_x_g=np.zeros(4))
        assert all(got is given for got, given in zip((qb.x, qb.gamma, qb.a, qb.gamma_x_gammax), cols))
        assert qb.invalid_count == 0 and qb.has_aux
        tb = TripleBatch.from_raw(*cols[:3])
        assert all(np.shares_memory(got, given) for got, given in zip((tb.x, tb.gamma, tb.a), cols))
        assert tb.invalid_count == 0

    def test_from_raw_overflowing_sum_keeps_finite_rows(self):
        # the column sums overflow to inf, but every entry is finite
        x = np.array([1e308, 1e308])
        qb = QuadBatch.from_raw(x, np.ones(2), np.zeros(2), np.zeros(2))
        assert qb.invalid_count == 0 and qb.x is x
        tb = TripleBatch.from_raw(x, np.array([1e308, 1e308]), np.zeros(2))
        assert tb.invalid_count == 0 and tb.n == 2

    def test_from_raw_drops_one_nan_row(self):
        cols = [np.arange(5.0), np.ones(5), np.zeros(5), np.zeros(5)]
        cols[3][2] = math.nan
        qb = QuadBatch.from_raw(*cols)
        assert qb.invalid_count == 1 and qb.x.tolist() == [0.0, 1.0, 3.0, 4.0]

    def test_triple_from_raw_counts_invalid(self):
        tb = TripleBatch.from_raw(np.array([0.0, 1.0, 2.0]), np.array([1.0, math.inf, 1.0]),
                                  np.array([math.nan, 0.0, 0.0]))
        assert tb.n == 1 and tb.invalid_count == 2 and tb.x.tolist() == [2.0]

    @pytest.mark.parametrize("cols, aux", [
        ((np.zeros(2), np.ones(2), np.zeros(2), np.zeros(2)), dict(g=np.ones(2))),
        # blocks rebuild a record from its columns by position, so G needs Γ[X, Γ[X]]
        ((np.zeros(2), np.ones(2), np.zeros(2)), dict(g=np.ones(2), gamma_x_g=np.zeros(2))),
    ], ids=["g_alone", "without_quad"])
    def test_aux_must_come_in_pairs_with_quad_data(self, cols, aux):
        with pytest.raises(ValueError, match="together, with gamma_x_gammax"):
            QuadBatch(*cols, **aux)

    @pytest.mark.parametrize("kernel", [
        lambda b, xs: shifted_kernel_density(b, 0.1, xs),
        lambda b, xs: plain_kernel_density(b, 0.1, xs, variant="gamma_cov"),
        lambda b, xs: plain_kernel_density(b, 0.1, xs, variant="identity_cov"),
        lambda b, xs: shifted_kernel_variance(b, 0.1, xs),
    ], ids=["shifted", "plain_gamma", "plain_id", "shifted_variance"])
    def test_scalar_columns_match_d1_columns_bit_for_bit(self, kernel):
        # the kernels read a scalar record through (N, 1) views in place
        b = lognormal_quads(20_000, 9)
        as_d1 = TripleBatch(b.x[:, None], b.gamma[:, None, None], b.a[:, None])
        assert b.x.ndim == 1 and b.d == as_d1.d == 1
        xs = [0.5, 1.0, 2.0]
        assert repr(kernel(b, xs)) == repr(kernel(as_d1, xs))

    @pytest.mark.parametrize("cols, extra", [
        ((np.zeros((3, 2)), np.ones((3, 2, 2)), np.zeros((3, 2))), dict(gamma_x_gammax=np.zeros(3))),
        ((np.zeros((3, 2)), np.ones((3, 2, 2)), np.zeros((3, 2)), np.zeros((3, 2))), {}),
        ((np.zeros((3, 2)), np.ones((3, 2, 2)), np.zeros((3, 2))),
         dict(g=np.ones(3), gamma_x_g=np.zeros(3))),
        ((np.zeros((3, 2)), np.ones((3, 2)), np.zeros((3, 2))), {}),
        ((np.zeros((3, 2)), np.ones((3, 3, 3)), np.zeros((3, 2))), {}),
        ((np.zeros(3), np.ones((3, 1, 1)), np.zeros(3)), {}),
        ((np.zeros(3), np.ones(3), np.zeros(4)), {}),
        ((np.zeros(3), np.ones(3), np.zeros(3), np.zeros(2)), {}),
        ((np.zeros((3, 2, 2)), np.ones(3), np.zeros(3)), {}),
    ], ids=["quad_with_d2", "quad_positional_with_d2", "aux_with_d2", "gamma_not_square",
            "gamma_wrong_d", "gamma_not_scalar", "a_wrong_rows", "quad_wrong_rows", "x_3d"])
    def test_columns_of_the_wrong_shape_rejected(self, cols, extra):
        with pytest.raises(ValueError):
            QuadBatch(*cols, **extra)

    def test_one_record_class(self):
        assert TripleBatch is QuadBatch
        b = get_scenario("gbm_euler").build(100, 3, 1)
        assert not b.quad and not b.has_aux and b.x.shape == (100,) and b.gamma_x_gammax is None

    def test_corrupt_quad_batch_shifts_only_a(self):
        x = np.array([0.0, math.nan, 1.0, 2.0])
        b = QuadBatch.from_raw(x, np.ones(4), np.zeros(4), np.full(4, 3.0),
                               g=np.cos(x), gamma_x_g=np.sin(x))
        c = corrupt_quad_batch(b, 0.25)
        assert c.invalid_count == b.invalid_count == 1
        assert c.a.tolist() == [0.25] * 3
        for name in ("x", "gamma", "gamma_x_gammax", "g", "gamma_x_g"):
            assert getattr(c, name) is getattr(b, name), name

    def test_estimates_deterministic(self):
        a = direct_density(gaussian_quads(50_000, 18), [0.2])[0]
        b = direct_density(gaussian_quads(50_000, 18), [0.2])[0]
        assert a.value == b.value and a.std_error == b.std_error
