import math

import numpy as np
import pytest

from dirichlet_mc.coords import unit_terms
from dirichlet_mc.quadrature import quadrature_expectation
from dirichlet_mc.streams import chunk_rng, sample_chunked

from calculus import BasePoint, custom, mc_unit, opaque, ou_gaussian, sample_base


class TestCoordinateSpecs:
    def test_ou_gaussian_structure(self):
        spec = ou_gaussian(2.0)
        u = np.array([0.0, 1.0, -3.0])
        assert np.allclose(spec.gamma(u), 2.0)
        assert np.allclose(spec.gamma_prime(u), 0.0)
        assert np.allclose(spec.gen_a(u), -u / 2)

    def test_ou_gaussian_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            ou_gaussian(0.0)
        with pytest.raises(ValueError):
            ou_gaussian(-1.0)

    def test_mc_unit_structure(self):
        spec = mc_unit()
        u = np.array([0.0, 0.25, 0.5, 1.0])
        assert np.allclose(spec.gamma(u), (u * (1 - u)) ** 2)
        assert np.allclose(spec.gen_a(u), u * (1 - u) * (1 - 2 * u))
        # a = γ'/2 for this weight
        assert np.allclose(spec.gamma_prime(u), 2 * spec.gen_a(u))

    def test_gamma_nonnegative_on_support(self):
        rng = chunk_rng(0, 0)
        for spec in (ou_gaussian(1.0), mc_unit()):
            draws = spec.sample_n(rng, 500)
            assert (spec.gamma(draws) >= 0).all()

    def test_mc_unit_draws_in_unit_interval(self):
        draws = mc_unit().sample_n(chunk_rng(1, 0), 1000)
        assert ((draws >= 0) & (draws <= 1)).all()

    def test_opaque_has_zero_structure(self):
        spec = opaque(lambda rng, n: rng.exponential(size=n))
        u = np.array([0.3, 2.0])
        assert np.allclose(spec.gamma(u), 0.0)
        assert np.allclose(spec.gen_a(u), 0.0)
        assert spec.is_opaque

    def test_custom_carries_the_given_structure(self):
        def rule(order):
            x, w = np.polynomial.legendre.leggauss(order)
            return x, w / 2.0

        spec = custom(
            lambda rng, n: rng.uniform(-1.0, 1.0, size=n),
            gamma=lambda u: 1.0 - np.asarray(u) ** 2,
            gamma_prime=lambda u: -2.0 * np.asarray(u),
            gen_a=lambda u: -np.asarray(u),
            quad_rule=rule,
            label="jacobi",
        )
        u = np.array([-0.5, 0.0, 0.5])
        assert spec.kind == "custom" and spec.label == "jacobi" and not spec.is_opaque
        assert np.array_equal(spec.gamma(u), 1.0 - u**2)
        assert np.array_equal(spec.gamma_prime(u), -2.0 * u)
        assert np.array_equal(spec.gen_a(u), -u)
        # its rule drives the quadrature oracle: E[u²] = 1/3 on [-1, 1]
        assert quadrature_expectation(lambda p: p[:, 0] ** 2, (spec,), order=8) == pytest.approx(1 / 3)
        draws = spec.sample_n(chunk_rng(4, 0), 1000)
        assert draws.dtype == float and ((draws >= -1.0) & (draws <= 1.0)).all()

    def test_custom_without_rule_is_rejected_by_quadrature(self):
        spec = custom(lambda rng, n: rng.normal(size=n), gamma=np.ones_like,
                      gamma_prime=np.zeros_like, gen_a=lambda u: -0.5 * u)
        assert spec.label == "custom" and spec.quad_rule is None
        with pytest.raises(ValueError, match="custom"):
            quadrature_expectation(lambda p: p[:, 0], (spec,))


class TestUnitStructure:
    def test_package_formulas_equal_the_oracle_bit_for_bit(self):
        # the triangular and Poisson draws read unit_terms, into new arrays
        # and in place over u; the oracle states the same structure on its own
        u = np.concatenate([np.linspace(0.0, 1.0, 1025), chunk_rng(9, 0).uniform(size=4096),
                            [2.0**-53, 1.0 - 2.0**-53]])
        ref = mc_unit()
        spare, over = np.empty_like(u), u.copy()
        for gam, a in (unit_terms(u), unit_terms(over, out=(spare, over))):
            for got, want in ((gam, ref.gamma(u)), (2.0 * a, ref.gamma_prime(u)),
                              (a, ref.gen_a(u))):
                assert got.dtype == want.dtype == np.float64
                assert got.tobytes() == want.tobytes()


class TestBasePoint:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BasePoint([0.1, 0.2], (mc_unit(),))

    def test_coordinate_cap(self):
        specs = (ou_gaussian(1.0),) * 65
        with pytest.raises(ValueError, match="cap"):
            BasePoint(np.zeros(65), specs)

    def test_sample_base_matches_specs(self):
        specs = (ou_gaussian(1.0), mc_unit())
        base = sample_base(specs, chunk_rng(3, 0))
        assert base.m == 2
        assert 0.0 <= base.coords[1] <= 1.0


class TestStreams:
    def test_deterministic_across_worker_counts(self):
        draw = lambda rng, n: rng.normal(size=n)
        a = sample_chunked(50_000, 7, draw, workers=1)[0]
        b = sample_chunked(50_000, 7, draw, workers=4)[0]
        assert a.shape == (50_000,)
        assert np.array_equal(a, b)

    def test_reproducible_single_draws(self):
        specs = (ou_gaussian(1.0),)
        x1 = sample_base(specs, chunk_rng(11, 0)).coords[0]
        x2 = sample_base(specs, chunk_rng(11, 0)).coords[0]
        assert x1 == x2

    def test_gaussian_sample_mean_clt_bound(self):
        # 10^6 unit-variance draws: |mean| within 4/sqrt(10^6)
        (g,) = sample_chunked(1_000_000, 123, lambda rng, n: rng.normal(size=n))
        assert abs(float(g.mean())) < 4.0 / math.sqrt(1_000_000)
