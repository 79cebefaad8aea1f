"""Scenario registry checks: every fast vectorised builder is re-derived
through the jet calculus on shared coordinate draws, exact densities carry
unit mass, and every scenario with an exact density is hit by a sign
estimator within Monte Carlo error."""
import dataclasses
import math

import numpy as np
import pytest

from dirichlet_mc.estimators import QuadBatch, direct_density, regularized_density
from dirichlet_mc.quadrature import normal_pdf, quadrature_expectation
from dirichlet_mc.scenarios import SCENARIOS, get_scenario, pair_conditional_oracle
from dirichlet_mc.streams import chunk_rng

from calculus import BasePoint, jet_const, jet_exp, jet_sin, lift, mc_unit, ou_gaussian, quad_of
from oracles import triangular_reference

N_CHECK = 300


def _assert_quad_matches(batch_fn, jet_route, specs, seed=404):
    """Shared draws through the closed-form arrays and through quad_of."""
    rng = chunk_rng(seed, 0)
    for _ in range(N_CHECK):
        u = np.array([s.sample(rng) for s in specs])
        base = BasePoint(u, specs)
        jx, jg = jet_route(base)
        q = quad_of(jx, base, jg)
        x, gam, a, gxx, g, gxg = batch_fn(u)
        assert q.x == pytest.approx(x, rel=1e-12, abs=1e-12)
        assert q.gamma == pytest.approx(gam, rel=1e-12, abs=1e-12)
        assert q.a == pytest.approx(a, rel=1e-12, abs=1e-12)
        assert q.gamma_x_gammax == pytest.approx(gxx, rel=1e-12, abs=1e-12)
        if g is not None:
            assert q.aux[0] == pytest.approx(g, rel=1e-12, abs=1e-12)
            assert q.aux[1] == pytest.approx(gxg, rel=1e-12, abs=1e-12)


class TestBuildersAgainstJets:
    def test_gaussian(self):
        def arrays(u):
            return u[0], 1.0, -u[0] / 2, 0.0, None, None

        _assert_quad_matches(
            arrays, lambda b: (lift(b, 1), None), (ou_gaussian(1.0),)
        )

    def test_lognormal(self):
        def arrays(u):
            x = math.exp(u[0])
            return x, x * x, 0.5 * x * (1 - u[0]), 2 * x**3, None, None

        _assert_quad_matches(
            arrays, lambda b: (jet_exp(lift(b, 1)), None), (ou_gaussian(1.0),)
        )

    def test_gaussian_pair_with_aux(self):
        def arrays(u):
            c, s = math.cos(u[1]), math.sin(u[1])
            x = u[0] + s
            gam = 1 + c * c
            a = -u[0] / 2 - u[1] * c / 2 - s / 2
            gxx = -c * math.sin(2 * u[1])
            return x, gam, a, gxx, s, c * c

        def jets(base):
            jx = lift(base, 1) + jet_sin(lift(base, 2))
            return jx, jet_sin(lift(base, 2))

        _assert_quad_matches(arrays, jets, (ou_gaussian(1.0), ou_gaussian(1.0)))

    def test_triangular(self):
        def arrays(u):
            gam_i = (u * (1 - u)) ** 2
            a_i = u * (1 - u) * (1 - 2 * u)
            return (
                float(u.sum()), float(gam_i.sum()), float(a_i.sum()),
                float((2 * a_i * gam_i).sum()), None, None,
            )

        _assert_quad_matches(
            arrays, lambda b: (lift(b, 1) + lift(b, 2), None), (mc_unit(), mc_unit())
        )

    def test_gbm_exact(self):
        vol, drift, T, x0 = 0.3, 0.05, 1.0, 1.0

        def arrays(u):
            x = x0 * math.exp((drift - vol**2 / 2) * T + vol * u[0])
            return (
                x, vol**2 * x * x * T, -0.5 * vol * x * u[0] + 0.5 * vol**2 * x * T,
                2 * T**2 * vol**4 * x**3, None, None,
            )

        def jets(base):
            s = jet_const((drift - vol**2 / 2) * T, 1) + vol * lift(base, 1)
            return x0 * jet_exp(s), None

        _assert_quad_matches(arrays, jets, (ou_gaussian(T),))


class TestRegistry:
    def test_unknown_scenario_lists_names(self):
        with pytest.raises(KeyError, match="known scenarios"):
            get_scenario("missing")

    def test_exact_densities_have_unit_mass(self):
        for name, sc in SCENARIOS.items():
            if sc.exact_density is not None:
                assert sc.check_mass() == pytest.approx(1.0, abs=1e-4), name

    def test_builders_are_deterministic_across_workers(self):
        for name in ("gaussian", "poisson_mc_unit", "gbm_euler", "triangular"):
            sc = get_scenario(name)
            a = sc.build(40_000, 5, 1)
            b = sc.build(40_000, 5, 4)
            assert np.array_equal(a.x, b.x), name
            assert np.array_equal(a.a, b.a), name

    def test_reduced_forms_match_batches(self):
        # γ(x), a(x) evaluated on simulated X reproduce the batch Γ, A
        for name in ("gaussian", "lognormal", "gbm_exact"):
            sc = get_scenario(name)
            b = sc.build(2000, 7, 1)
            assert np.allclose(sc.gamma_of_x(b.x), b.gamma, rtol=1e-10), name
            assert np.allclose(sc.a_of_x(b.x), b.a, rtol=1e-9, atol=1e-9), name

    def test_triangular_builder_equals_stacked_reference(self):
        # column-wise adds against the (n, 2) stack summed over its width
        for n, workers in ((1, 1), (40_000, 2)):
            b = get_scenario("triangular").build(n, 6, workers)
            ref = triangular_reference(n, 6, workers)
            for got, want in zip((b.x, b.gamma, b.a, b.gamma_x_gammax), ref):
                assert np.array_equal(got, want)

    def test_replaced_draw_reaches_build_and_stream(self):
        sc = get_scenario("gaussian")

        def shifted(rng, k):
            x, *rest = sc.draw(rng, k)
            return (x + 100.0, *rest)

        moved = dataclasses.replace(sc, draw=shifted)
        want = sc.build(3000, 2, 1).x + 100.0
        assert np.array_equal(moved.build(3000, 2, 1).x, want)
        streamed = np.concatenate([b.x for _, b in moved.stream(3000, 2, 1).blocks()])
        assert np.array_equal(streamed, want)

    def test_replaced_build_is_kept(self):
        sc = get_scenario("gaussian")
        build = lambda n, seed, workers: sc.build(n, seed, workers)
        replaced = dataclasses.replace(sc, build=build)
        assert replaced.build is build
        # and survives a later replace of the draw
        assert dataclasses.replace(replaced, draw=sc.draw).build is build


class TestDensityRecovery:
    """Scenarios with an exact density: a sign estimator lands within
    4 standard errors at three interior points, N = 10^5."""

    N = 100_000

    @pytest.mark.parametrize("name", ["gaussian", "lognormal", "gaussian_pair", "gbm_exact"])
    def test_direct_recovers_density(self, name):
        sc = get_scenario(name)
        b = sc.build(self.N, 2024, 1)
        for est in direct_density(b, list(sc.default_points)):
            ref = float(sc.exact_density(np.array([est.x]))[0])
            assert abs(est.value - ref) < 4 * est.std_error, (name, est.x)

    def test_triangular_needs_the_regularized_path(self):
        # E[1/Γ] diverges at the corners, so the direct hypotheses fail;
        # the regularised estimator at small ε is the supported route.
        sc = get_scenario("triangular")
        b = sc.build(self.N, 2024, 1)
        for est in regularized_density(b, 1e-5, list(sc.default_points)):
            ref = float(sc.exact_density(np.array([est.x]))[0])
            assert abs(est.value - ref) < 4 * est.std_error, est.x


class TestConditionalOracle:
    def test_vectorised_pair_rule_matches_quadrature_route(self):
        sc = get_scenario("gaussian_pair")
        xs = np.array([-2.5, -0.3, 0.0, 1.1])
        dens = sc.exact_density(xs)
        for x, f in zip(xs, dens):
            specs = (ou_gaussian(1.0),)
            ref = quadrature_expectation(lambda u: normal_pdf(x - np.sin(u[:, 0])), specs, order=96)
            num = quadrature_expectation(
                lambda u: np.sin(u[:, 0]) * normal_pdf(x - np.sin(u[:, 0])), specs, order=96
            )
            assert f == pytest.approx(ref, rel=1e-14)
            assert pair_conditional_oracle(float(x)) == pytest.approx(num / ref, rel=1e-13, abs=1e-15)

    def test_oracle_is_antisymmetric(self):
        assert pair_conditional_oracle(0.0) == pytest.approx(0.0, abs=1e-12)
        assert pair_conditional_oracle(0.8) == pytest.approx(-pair_conditional_oracle(-0.8), abs=1e-10)

    def test_oracle_against_dense_mc(self):
        rng = chunk_rng(5150, 0)
        g1, g2 = rng.normal(size=2_000_000), rng.normal(size=2_000_000)
        x = g1 + np.sin(g2)
        band = np.abs(x - 0.5) < 0.01
        mc = float(np.sin(g2[band]).mean())
        se = float(np.sin(g2[band]).std(ddof=1)) / math.sqrt(int(band.sum()))
        assert abs(pair_conditional_oracle(0.5) - mc) < 5 * se + 1e-3
