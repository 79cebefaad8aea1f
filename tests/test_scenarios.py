"""Scenario registry checks: every closed-form draw is re-derived through
the jet calculus on the base coordinates it drew, exact densities carry
unit mass, and every scenario with an exact density is hit by a sign
estimator within Monte Carlo error."""
import dataclasses
import math

import numpy as np
import pytest

from dirichlet_mc.cli import EXIT_VALIDATION, cli_main
from dirichlet_mc.estimators import QuadBatch, direct_density, regularized_density
from dirichlet_mc.quadrature import normal_pdf, quadrature_expectation
from dirichlet_mc.scenarios import SCENARIOS, get_scenario, pair_conditional_oracle
from dirichlet_mc.streams import chunk_rng
from dirichlet_mc.sweeps import (
    SweepConfig,
    compare_estimators,
    run_bias_sweep,
    run_identity_suite,
    run_variance_sweep,
)

from calculus import BasePoint, jet_const, jet_exp, jet_sin, lift, mc_unit, ou_gaussian, quad_of
from oracles import triangular_reference

N_CHECK = 300

_GBM_VOL, _GBM_DRIFT, _GBM_T, _GBM_X0 = 0.3, 0.05, 1.0, 1.0


def _pair_jets(base):
    return lift(base, 1) + jet_sin(lift(base, 2)), jet_sin(lift(base, 2))


def _gbm_jets(base):
    s = jet_const((_GBM_DRIFT - _GBM_VOL**2 / 2) * _GBM_T, 1) + _GBM_VOL * lift(base, 1)
    return _GBM_X0 * jet_exp(s), None


# Every scenario whose draw is a closed form: its base coordinates, the
# draw's reading of them from its generator (replayed on a second generator
# of the same key, as an (N, coordinates) array) and the jets of X and of G
# (None without G).
CLOSED_FORMS = {
    "gaussian": ((ou_gaussian(1.0),), lambda rng, k: rng.normal(size=(k, 1)),
                 lambda base: (lift(base, 1), None)),
    "lognormal": ((ou_gaussian(1.0),), lambda rng, k: rng.normal(size=(k, 1)),
                  lambda base: (jet_exp(lift(base, 1)), None)),
    "gaussian_pair": ((ou_gaussian(1.0), ou_gaussian(1.0)),
                      lambda rng, k: rng.normal(size=(k, 2)), _pair_jets),
    "triangular": ((mc_unit(), mc_unit()), lambda rng, k: rng.uniform(size=(k, 2)),
                   lambda base: (lift(base, 1) + lift(base, 2), None)),
    "gbm_exact": ((ou_gaussian(_GBM_T),),
                  lambda rng, k: rng.normal(0.0, math.sqrt(_GBM_T), size=(k, 1)), _gbm_jets),
}


class TestBuildersAgainstJets:
    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_draw_equals_the_calculus(self, name):
        # the scenario's own draw and quad_of on the base coordinates it drew
        specs, replay, jets = CLOSED_FORMS[name]
        cols = get_scenario(name).draw(chunk_rng(404, 0), N_CHECK)
        coords = replay(chunk_rng(404, 0), N_CHECK)
        for i in range(N_CHECK):
            base = BasePoint(coords[i], specs)
            jx, jg = jets(base)
            q = quad_of(jx, base, jg)
            want = (q.x, q.gamma, q.a, q.gamma_x_gammax) + (q.aux if jg is not None else ())
            assert len(cols) == len(want)
            for col, w in zip(cols, want):
                assert col[i] == pytest.approx(w, rel=1e-12, abs=1e-12)


class TestRegistry:
    def test_unknown_scenario_lists_names(self):
        # the rule of get_estimator: a ValueError naming the valid choices
        calls = [lambda: get_scenario("bogus"),
                 lambda: compare_estimators("bogus", ["direct"], [1000], []),
                 lambda: run_identity_suite("bogus", 1000, 0),
                 lambda: run_bias_sweep(SweepConfig("bogus", "shifted", (0.1,))),
                 lambda: run_variance_sweep(SweepConfig("bogus", "shifted", (0.1,)))]
        for call in calls:
            with pytest.raises(ValueError, match="unknown scenario 'bogus'; known scenarios"):
                call()

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
        streamed = np.concatenate([cols[0] for cols in moved.stream(3000, 2, 1).chunks()])
        assert np.array_equal(streamed, want)

    def test_replaced_build_is_kept(self):
        sc = get_scenario("gaussian")
        build = lambda n, seed, workers: sc.build(n, seed, workers)
        replaced = dataclasses.replace(sc, build=build)
        assert replaced.build is build
        # and survives a later replace of the draw
        assert dataclasses.replace(replaced, draw=sc.draw).build is build


class TestQuadDataFromTheDraw:
    """Whether a scenario has Γ[X, Γ[X]] is stated once, by its draw's
    columns; a replaced draw brings its own answer."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_quad_is_the_draws_column_count(self, name):
        sc = SCENARIOS[name]
        assert sc.quad == (len(sc.draw(chunk_rng(1, 0), 5)) >= 4)

    def test_draw_cut_to_three_columns_is_rejected_by_name(self, monkeypatch, capsys):
        sc = get_scenario("lognormal")
        cut = dataclasses.replace(sc, name="lognormal_cut", draw=lambda rng, k: sc.draw(rng, k)[:3])
        monkeypatch.setitem(SCENARIOS, cut.name, cut)
        rc = cli_main(["density", "--scenario", cut.name, "--estimator", "direct",
                       "--samples", "2000"])
        assert rc == EXIT_VALIDATION
        assert "'lognormal_cut' provides no quad data" in capsys.readouterr().err
        rc = cli_main(["check-identities", "--scenario", cut.name, "--samples", "2000"])
        assert rc == EXIT_VALIDATION
        assert "'lognormal_cut'" in capsys.readouterr().err


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
