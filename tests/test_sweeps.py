import dataclasses
import math

import numpy as np
import pytest

from dirichlet_mc import scenarios, sweeps
from dirichlet_mc.estimators import QuadBatch, shifted_kernel_variance
from dirichlet_mc.quadrature import kernel_moment_integral
from dirichlet_mc.scenarios import Scenario, corrupt_quad_batch, get_scenario
from dirichlet_mc.sweeps import (
    IDENTITY_Z_THRESHOLD,
    SweepConfig,
    compare_estimators,
    fit_loglog_slope,
    identity_z_scores,
    run_bias_sweep,
    run_identity_suite,
    run_variance_sweep,
)

from oracles import identity_z_reference

QUAD_SCENARIOS = (
    "gaussian", "lognormal", "gaussian_pair", "triangular", "gbm_exact", "poisson_mc_unit",
)


class TestLogLogSlope:
    def test_quadratic_pair(self):
        assert fit_loglog_slope([(1.0, 1.0), (10.0, 100.0)]) == pytest.approx(2.0)

    def test_constant(self):
        assert fit_loglog_slope([(1.0, 3.3), (10.0, 3.3)]) == pytest.approx(0.0)

    def test_inverse(self):
        assert fit_loglog_slope([(1.0, 1.0), (2.0, 0.5), (4.0, 0.25)]) == pytest.approx(-1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_loglog_slope([(1.0, 0.0), (2.0, 1.0)])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="two points"):
            fit_loglog_slope([(1.0, 1.0)])


class TestSweepConfig:
    def test_epsilons_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            SweepConfig("gaussian", "shifted", (0.1, 0.2))

    def test_monte_carlo_floor(self):
        with pytest.raises(ValueError, match="10\\^3"):
            SweepConfig("gaussian", "shifted", (0.1,), sample_size=100)

    @pytest.mark.parametrize("epsilons, points, bad", [
        ((math.nan, 0.1), (), "nan"),
        ((math.inf, 0.1), (), "inf"),
        ((0.2, 0.1), (1.0, math.nan), "nan"),
        ((0.2, 0.1), (-math.inf,), "-inf"),
    ])
    def test_non_finite_values_named(self, epsilons, points, bad):
        with pytest.raises(ValueError, match=f"got {bad}$"):
            SweepConfig("lognormal", "shifted", epsilons, query_points=points)

    def test_quadrature_accepted(self):
        cfg = SweepConfig("gaussian", "shifted", (0.2, 0.1), sample_size="quadrature")
        assert cfg.sample_size == "quadrature"


class TestBiasSweep:
    def test_lognormal_shifted_order_two(self):
        cfg = SweepConfig(
            "lognormal", "shifted", (0.2, 0.1, 0.05, 0.025), "quadrature", (1.0,)
        )
        res = run_bias_sweep(cfg)
        assert 1.7 <= res.slope <= 2.3
        assert len(res.rows) == 4
        assert all(r.n == 0 and r.std_error == 0.0 for r in res.rows)

    def test_lognormal_plain_baseline_order_one(self):
        cfg = SweepConfig(
            "lognormal", "plain_gamma", (0.2, 0.1, 0.05, 0.025), "quadrature", (1.0,)
        )
        res = run_bias_sweep(cfg)
        assert 0.7 <= res.slope <= 1.3

    def test_unresolvable_epsilon_dropped_with_notice(self):
        cfg = SweepConfig(
            "lognormal", "shifted", (0.2, 0.1, 0.05, 1e-8), "quadrature", (1.0,)
        )
        res = run_bias_sweep(cfg)
        assert res.notices and "dropped" in res.notices[0]
        assert len(res.fit_points) == 3

    def test_degenerate_scenario_rejected(self):
        cfg = SweepConfig("zero_noise", "shifted", (0.1, 0.05), "quadrature", (1.0,))
        with pytest.raises(ValueError, match="cannot drive"):
            run_bias_sweep(cfg)

    def test_sign_estimators_not_allowed(self):
        with pytest.raises(ValueError, match="kernel estimators"):
            run_bias_sweep(SweepConfig("lognormal", "direct", (0.1, 0.05)))

    def test_monte_carlo_mode_produces_noisy_rows(self):
        # plain_id at x = 0.5, whose bias is far above the noise at both ε
        cfg = SweepConfig("lognormal", "plain_id", (0.2, 0.1), 20_000, (0.5,), seed=3)
        res = run_bias_sweep(cfg)
        assert all(r.n > 0 and r.std_error > 0 for r in res.rows)

    def test_monte_carlo_bias_within_noise_dropped_with_notice(self):
        # N = 50 001: plain_gamma's bias at ε ≤ 0.05 is within 3 standard errors
        eps = (0.2, 0.1, 0.05, 0.025)
        cfg = SweepConfig("lognormal", "plain_gamma", eps, 50_001, (0.5, 1.0), seed=6)
        res = run_bias_sweep(cfg)
        kept = [p[0] for p in res.fit_points]
        assert kept == [0.2, 0.1]
        for e in eps:
            rows = [r for r in res.rows if r.epsilon == e]
            bias = np.mean([r.abs_error for r in rows])
            se = np.mean([r.std_error for r in rows])
            assert (e in kept) == (bias >= 3.0 * se)
        assert [n.split(":")[0] for n in res.notices] == [
            "epsilon=0.05 dropped from the fit", "epsilon=0.025 dropped from the fit"]
        assert all("3x its standard error" in n for n in res.notices)

    def test_monte_carlo_without_exact_density_rejected_before_drawing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(Scenario, "stream", no_draw)
        cfg = SweepConfig("gbm_euler", "shifted", (0.2, 0.1), 400_000, (1.0,))
        with pytest.raises(ValueError, match="no exact density"):
            run_bias_sweep(cfg)

    def test_kernel_below_node_spacing_dropped_with_notice(self):
        # at ε = 1e-12 the kernel width 1e-6 is below the float64 node limit
        cfg = SweepConfig(
            "lognormal", "shifted", (0.2, 0.1, 0.05, 1e-12), "quadrature", (1.0,)
        )
        res = run_bias_sweep(cfg)
        assert len(res.notices) == 1 and "node spacing" in res.notices[0]
        assert res.notices[0].startswith("epsilon=1e-12 dropped from the fit")
        assert [p[0] for p in res.fit_points] == [0.2, 0.1, 0.05]
        assert all(r.epsilon != 1e-12 for r in res.rows)
        assert 1.7 <= res.slope <= 2.3


class TestVarianceSweep:
    def test_lognormal_scaling_and_constant(self):
        cfg = SweepConfig(
            "lognormal", "shifted", (0.01, 10**-2.5, 0.001), "quadrature", (1.0,)
        )
        res = run_variance_sweep(cfg)
        assert -0.65 <= res.slope <= -0.35
        assert abs(res.constant - res.constant_reference) <= 0.05 * res.constant_reference
        assert res.constant_reference == pytest.approx(0.112540, abs=5e-6)

    def test_gaussian_constant_matches_reduction(self):
        cfg = SweepConfig("gaussian", "shifted", (0.01, 0.001), "quadrature", (0.0,))
        res = run_variance_sweep(cfg)
        # φ(0)/√(4π) for the unit square field
        assert res.constant_reference == pytest.approx(0.112540, abs=5e-6)
        assert abs(res.constant - res.constant_reference) <= 0.05 * res.constant_reference

    def test_monte_carlo_rows_equal_per_point_calls(self):
        # one call per ε over every point gives each point's own figures
        points = (0.5, 1.0, 2.0)
        cfg = SweepConfig("lognormal", "shifted", (0.01, 0.001), 20_000, points, seed=4)
        res = run_variance_sweep(cfg)
        batch = get_scenario("lognormal").build(20_000, 4, 1)
        want = [(eps, x, shifted_kernel_variance(batch, eps, [x])[0])
                for eps in cfg.epsilons for x in points]
        assert len(res.rows) == len(want)
        for r, (eps, x, (var, se, n)) in zip(res.rows, want):
            assert (r.epsilon, r.x, r.n) == (eps, x, n)
            assert r.estimate == math.sqrt(eps) * var and r.std_error == math.sqrt(eps) * se

    def test_monte_carlo_std_error_matches_seed_spread(self):
        # kernel values at ε = 1e-3 are heavy-tailed: a Gaussian-value error
        # bar (s²·√(2/(n−1))) understates the seed-to-seed spread ~3.6×
        rows = [
            run_variance_sweep(
                SweepConfig("lognormal", "shifted", (2e-3, 1e-3), 20_000, (1.0,), seed=s)
            ).rows[-1]
            for s in range(24)
        ]
        spread = float(np.std([r.estimate for r in rows], ddof=1))
        reported = float(np.mean([r.std_error for r in rows]))
        assert 0.6 < spread / reported < 1.6, (spread, reported)

    def test_scenario_without_reduced_form_rejected(self):
        cfg = SweepConfig("triangular", "shifted", (0.01,), "quadrature", (1.0,))
        with pytest.raises(ValueError, match="cannot drive"):
            run_variance_sweep(cfg)

    @pytest.mark.parametrize("estimator", ["direct", "plain_id", "plain_gamma", "nope"])
    @pytest.mark.parametrize("samples", ["quadrature", 20_000])
    def test_other_estimators_rejected_by_name(self, estimator, samples):
        # the sweep measures the shifted kernel alone; 'direct' once ran it
        # and returned a slope of -0.686
        cfg = SweepConfig("lognormal", estimator, (0.1, 0.05), samples, (1.0,))
        with pytest.raises(ValueError, match=f"not '{estimator}'"):
            run_variance_sweep(cfg)

    def test_quadrature_rows_equal_two_single_power_integrals(self):
        eps = tuple(float(e) for e in np.geomspace(0.01, 0.001, 5))
        sc = get_scenario("lognormal")
        res = run_variance_sweep(SweepConfig("lognormal", "shifted", eps, "quadrature"))
        expected = []
        for e in eps:
            for x in sc.default_points:
                m1, m2 = (
                    kernel_moment_integral(
                        x, e, sc.exact_density, sc.gamma_of_x, sc.a_of_x, sc.support,
                        shift=True, power=p,
                    )
                    for p in (1, 2)
                )
                ref = float(sc.exact_density(np.array([x]))[0]
                            / math.sqrt(4.0 * math.pi * sc.gamma_of_x(np.array([x]))[0]))
                expected.append((e, 0, x, math.sqrt(e) * (m2 - m1 * m1), ref, 0.0))
        got = [(r.epsilon, r.n, r.x, r.estimate, r.reference, r.std_error) for r in res.rows]
        assert got == expected

    @pytest.mark.parametrize("points,samples,bad", [
        ((-0.3,), "quadrature", -0.3),  # f(x) = 0 outside the support
        ((-0.3,), 20_000, -0.3),
        ((0.0, 1.0), "quadrature", 0.0),  # f(x) = γ(x) = 0: 0/0
    ])
    def test_point_without_a_positive_constant_rejected_up_front(
        self, points, samples, bad, monkeypatch
    ):
        sc = get_scenario("lognormal")

        def must_not_run(*args, **kwargs):
            raise AssertionError("the point check must come first")

        monkeypatch.setattr(sweeps, "get_scenario",
                            lambda name: dataclasses.replace(sc, build=must_not_run))
        monkeypatch.setattr(sweeps, "kernel_moment_integral", must_not_run)
        cfg = SweepConfig("lognormal", "shifted", (0.4, 0.2, 0.1), samples, points)
        with pytest.raises(ValueError, match=f"query point {bad!r}.*finite and > 0"):
            run_variance_sweep(cfg)


    def test_kernel_below_node_spacing_rejected(self):
        cfg = SweepConfig("lognormal", "shifted", (1e-8, 5e-9), "quadrature", (1.0,))
        with pytest.raises(ValueError, match="epsilon=1e-08, x=1 is below the quadrature node"):
            run_variance_sweep(cfg)

    def test_smallest_resolved_epsilon_keeps_its_constant(self):
        cfg = SweepConfig("lognormal", "shifted", (1e-6, 1e-7), "quadrature", (1.0,))
        res = run_variance_sweep(cfg)
        assert abs(res.constant - res.constant_reference) <= 1e-3 * res.constant_reference


class TestIdentitySuite:
    @pytest.mark.parametrize(
        "name", ["gaussian", "lognormal", "triangular", "gaussian_pair", "poisson_mc_unit"]
    )
    def test_all_quad_scenarios_pass(self, name):
        rep = run_identity_suite(name, 40_000, seed=11)
        assert rep.passed, rep.z_scores

    def test_corrupted_a_fails(self):
        rep = run_identity_suite("gaussian", 40_000, seed=11, corrupt_a=0.1)
        assert not rep.passed
        assert abs(rep.z_scores["generator_x"]) > 4.0

    def test_triple_scenario_rejected(self):
        with pytest.raises(ValueError, match="quad"):
            run_identity_suite("gbm_euler", 1000, seed=0)

    def test_explicit_build_is_the_one_that_runs(self, monkeypatch):
        # the suite builds its four columns through Scenario.build: a
        # scenario registered with an explicit build that shifts A fails it
        # as --corrupt-a does, and one that keeps the pair's six columns is
        # reduced as given
        sc = get_scenario("gaussian_pair")
        calls = []

        def shifted(n, seed, workers):
            calls.append(n)
            return corrupt_quad_batch(sc.build(n, seed, workers), 0.1)

        monkeypatch.setitem(scenarios.SCENARIOS, "shifted_pair",
                            dataclasses.replace(sc, name="shifted_pair", build=shifted))
        rep = run_identity_suite("shifted_pair", 40_000, seed=11)
        assert calls == [40_000] and not rep.passed
        assert abs(rep.z_scores["generator_x"]) > IDENTITY_Z_THRESHOLD
        assert rep.z_scores == run_identity_suite("gaussian_pair", 40_000, seed=11,
                                                  corrupt_a=0.1).z_scores

    @pytest.mark.parametrize("name", QUAD_SCENARIOS)
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("corrupt_a", [0.0, 0.1])
    def test_stream_equals_the_built_batch(self, name, workers, corrupt_a, monkeypatch):
        # with the default build the suite is one pass over the stream, which
        # builds no batch and cuts the kept rows into the blocks the built
        # batch is cut into: every z-score keeps every bit
        b = get_scenario(name).build(50_001, 7, workers)
        if corrupt_a:
            b = corrupt_quad_batch(b, corrupt_a)
        want = identity_z_scores(b)

        def must_not_run(*args):
            raise AssertionError("the suite built a batch")

        monkeypatch.setattr(scenarios, "sample_chunked", must_not_run)
        rep = run_identity_suite(name, 50_001, 7, workers, corrupt_a)
        assert rep.n == 50_001 and repr(rep.z_scores) == repr(want)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stream_drops_the_rows_the_build_drops(self, workers, monkeypatch):
        # every 997th row of each chunk carries a NaN: the stream drops it
        # chunk by chunk, the build from the whole batch, and both reduce
        # the same blocks of kept rows
        sc = get_scenario("lognormal")

        def draw(rng, k):
            x, gamma, a, q = sc.draw(rng, k)
            a[::997] = math.nan
            return x, gamma, a, q

        monkeypatch.setitem(scenarios.SCENARIOS, "holed", dataclasses.replace(
            sc, name="holed", draw=draw))
        b = get_scenario("holed").build(50_001, 7, workers)
        assert b.invalid_count > 0
        rep = run_identity_suite("holed", 50_001, 7, workers, 0.1)
        assert repr(rep.z_scores) == repr(identity_z_scores(corrupt_quad_batch(b, 0.1)))

    @pytest.mark.parametrize("corrupt_a", [math.nan, math.inf, -math.inf])
    def test_non_finite_corrupt_a_rejected(self, corrupt_a):
        with pytest.raises(ValueError, match="corrupt_a must be finite"):
            run_identity_suite("gaussian", 1000, seed=0, corrupt_a=corrupt_a)

    @pytest.mark.filterwarnings("error")
    def test_infinite_a_fails_instead_of_passing(self):
        # one infinite A leaves no finite mean or error: the z-scores that
        # read A are NaN, which fails the threshold rather than reading 0,
        # and no numpy warning is raised on the way
        b = get_scenario("gaussian").build(2000, 0, 1)
        a = b.a.copy()
        a[7] = math.inf
        z = identity_z_scores(QuadBatch(b.x, b.gamma, a, b.gamma_x_gammax))
        assert math.isnan(z["generator_x"]) and math.isnan(z["weight_centering"])
        assert not sweeps.IdentityReport("gaussian", 2000, z).passed

    @pytest.mark.parametrize("shift", [0.5, -0.5])
    def test_constant_statistic_is_infinitely_far_from_zero(self, shift):
        # generator_x is A itself: a constant nonzero A has error 0
        b = get_scenario("gaussian").build(2000, 0, 1)
        z = identity_z_scores(QuadBatch(b.x, b.gamma, np.full(2000, shift), b.gamma_x_gammax))
        assert z["generator_x"] == math.copysign(math.inf, shift)

    def test_expected_checks_present(self):
        rep = run_identity_suite("gaussian", 2000, seed=0)
        keys = set(rep.z_scores)
        assert {"generator_x", "generator_x2", "generator_cos", "weight_centering"} <= keys
        assert {"ibp_cos_eps0.5", "ibp_cos_eps0.1", "ibp_x2_eps0.5", "ibp_x2_eps0.1"} <= keys

    @pytest.mark.parametrize("name", QUAD_SCENARIOS)
    @pytest.mark.parametrize("corrupt_a", [0.0, 0.05])
    def test_z_scores_equal_reference_formulas(self, name, corrupt_a):
        # the blocked suite against whole-batch statistics with exact sums:
        # the order of summation is the only difference, in report order
        rep = run_identity_suite(name, 30_000, seed=12, corrupt_a=corrupt_a)
        b = get_scenario(name).build(30_000, 12, 1)
        if corrupt_a:
            b = corrupt_quad_batch(b, corrupt_a)
        ref = identity_z_reference(b)
        assert list(rep.z_scores) == list(ref)
        for key, z in ref.items():
            assert rep.z_scores[key] == pytest.approx(z, rel=1e-12, abs=0), key
            assert math.copysign(1.0, rep.z_scores[key]) == math.copysign(1.0, z), key

    def test_report_order(self):
        rep = run_identity_suite("gaussian", 2000, seed=0)
        assert list(rep.z_scores) == [
            "generator_x", "generator_x2", "generator_cos",
            "ibp_cos_eps0.5", "ibp_cos_eps0.1", "ibp_x2_eps0.5", "ibp_x2_eps0.1",
            "weight_centering",
        ]


def _replace(b: QuadBatch, **cols) -> QuadBatch:
    fields = dict(x=b.x, gamma=b.gamma, a=b.a, gamma_x_gammax=b.gamma_x_gammax,
                  g=b.g, gamma_x_g=b.gamma_x_g)
    fields.update(cols)
    return QuadBatch(**fields)


class TestNegativeControls:
    """Corruptions of Γ and Γ[X, Γ[X]] that the identity suite must see,
    and the statistics that cannot see them by construction."""

    N = 100_000

    def _scores(self, name, corrupt):
        b = get_scenario(name).build(self.N, 21, 1)
        return identity_z_scores(b), identity_z_scores(corrupt(b))

    @pytest.mark.parametrize("name", QUAD_SCENARIOS)
    def test_scaled_gamma_breaks_a_z_score(self, name):
        clean, bad = self._scores(name, lambda b: _replace(b, gamma=1.5 * b.gamma))
        assert max(abs(z) for z in bad.values()) > IDENTITY_Z_THRESHOLD
        # φ(x) = x puts no weight on Γ: its statistic is A alone
        assert bad["generator_x"] == clean["generator_x"]

    @pytest.mark.parametrize("name", ["lognormal", "gaussian_pair", "triangular", "gbm_exact"])
    def test_scaled_gamma_x_gammax_breaks_an_ibp_residual(self, name):
        clean, bad = self._scores(
            name, lambda b: _replace(b, gamma_x_gammax=1.5 * b.gamma_x_gammax)
        )
        ibp = [z for key, z in bad.items() if key.startswith("ibp_")]
        assert max(abs(z) for z in ibp) > IDENTITY_Z_THRESHOLD
        # the generator statistics never read Γ[X, Γ[X]]
        for key in ("generator_x", "generator_x2", "generator_cos"):
            assert bad[key] == clean[key]

    def test_scaled_gamma_x_gammax_is_no_corruption_on_gaussian(self):
        # Γ[X, Γ[X]] ≡ 0 there, so scaling it changes no input at all
        clean, bad = self._scores(
            "gaussian", lambda b: _replace(b, gamma_x_gammax=1.5 * b.gamma_x_gammax)
        )
        assert bad == clean


class TestCompare:
    def test_table_covers_all_estimators_and_sizes(self):
        rows = compare_estimators(
            "lognormal", ["shifted", "plain_gamma", "direct"], [2000, 5000],
            [0.2, 0.1, 0.05], (1.0,), seed=4,
        )
        assert {r.estimator for r in rows} == {"shifted", "plain_gamma", "direct"}
        assert {r.n for r in rows if r.estimator == "direct"} == {2000, 5000}
        kernel_rows = [r for r in rows if r.estimator == "shifted"]
        assert all(r.epsilon in (0.2, 0.1, 0.05) for r in kernel_rows)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            compare_estimators("lognormal", ["nope"], [2000], [0.1])

    def test_scenario_without_reference_rejected(self):
        with pytest.raises(ValueError, match="exact density"):
            compare_estimators("poisson_mc_unit", ["direct"], [2000], [0.1])


class TestFractionalSampleCounts:
    """The library rejects a fractional sample count, naming it, as the CLI
    does, instead of truncating it; an integral float is its integer."""

    def test_sweep_config(self):
        with pytest.raises(ValueError, match="2000.7"):
            SweepConfig("lognormal", "shifted", (0.1, 0.05), sample_size=2000.7)
        cfg = SweepConfig("lognormal", "shifted", (0.1, 0.05), sample_size=2000.0)
        assert cfg.sample_size == 2000 and isinstance(cfg.sample_size, int)

    def test_compare(self):
        with pytest.raises(ValueError, match="2000.7"):
            compare_estimators("lognormal", ["direct"], [2000.7], [], [1.0])
        whole = compare_estimators("lognormal", ["direct"], [2000.0], [], [1.0])
        assert whole == compare_estimators("lognormal", ["direct"], [2000], [], [1.0])

    def test_identity_suite(self):
        with pytest.raises(ValueError, match="2000.7"):
            run_identity_suite("gaussian", 2000.7, 1)
        assert run_identity_suite("gaussian", 2000.0, 1) == run_identity_suite("gaussian", 2000, 1)

    @pytest.mark.parametrize("bad", [0, -5, math.nan, math.inf, "2000", None])
    def test_other_non_counts(self, bad):
        with pytest.raises(ValueError, match="sample counts"):
            compare_estimators("lognormal", ["direct"], [bad], [], [1.0])
