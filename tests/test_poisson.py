import math

import numpy as np
import pytest

from dirichlet_mc.coords import mc_unit
from dirichlet_mc.poisson import (
    PoissonFunctionalSpec,
    poisson_mc_unit,
    sample_poisson_arrays,
)
from dirichlet_mc.quadrature import law_integral
from dirichlet_mc.streams import chunk_rng

from oracles import poisson_identity_check, sample_poisson_quad


class TestSpecValidation:
    def test_h_derivative_mismatch_rejected(self):
        with pytest.raises(ValueError, match="h1"):
            PoissonFunctionalSpec(
                total_mass=2.0,
                point_sampler=lambda rng, k: rng.uniform(size=k),
                h=lambda p: p**2,
                h1=lambda p: p,  # should be 2p
                h2=lambda p: 2.0 * np.ones_like(p),
                base_gamma=mc_unit().gamma,
                base_gamma_prime=mc_unit().gamma_prime,
                base_a=mc_unit().gen_a,
            )

    @staticmethod
    def _offset_square(h2):
        # h = 100 + p²: its second difference carries ~1e-4 of rounding error
        return PoissonFunctionalSpec(
            total_mass=2.0,
            point_sampler=lambda rng, k: rng.uniform(size=k),
            h=lambda p: 100.0 + p**2,
            h1=lambda p: 2.0 * p,
            h2=h2,
            base_gamma=mc_unit().gamma,
            base_gamma_prime=mc_unit().gamma_prime,
            base_a=mc_unit().gen_a,
        )

    def test_large_h_with_correct_derivatives_accepted(self):
        self._offset_square(lambda p: 2.0 * np.ones_like(p))

    def test_large_h_with_h2_one_percent_off_rejected(self):
        with pytest.raises(ValueError, match="h2"):
            self._offset_square(lambda p: 2.02 * np.ones_like(p))

    def test_infinite_mass_rejected(self):
        with pytest.raises(ValueError, match="total_mass"):
            poisson_mc_unit(math.inf)

    def test_unknown_h_name(self):
        with pytest.raises(ValueError, match="unknown h"):
            poisson_mc_unit(1.0, h_name="nope")


class TestSampling:
    def test_empty_configuration_is_zero_quad(self):
        spec = poisson_mc_unit(1e-6)  # K = 0 essentially surely
        q = sample_poisson_quad(spec, chunk_rng(0, 0))
        assert (q.x, q.gamma, q.a, q.gamma_x_gammax) == (0.0, 0.0, 0.0, 0.0)

    def test_single_point_identities(self):
        # one point p with the unit-interval weight and h = identity:
        # X = p, Γ = p²(1-p)², A = p(1-p)(1-2p)
        spec = poisson_mc_unit(3.0)
        rng = chunk_rng(1, 0)
        found = 0
        while found < 20:
            q = sample_poisson_quad(spec, rng)
            # recover configurations of size one through the quad structure:
            # identity h means X is the point itself when K == 1
            p = q.x
            if q.gamma == 0.0 or not (0 < p < 1):
                continue
            if abs(q.gamma - (p * (1 - p)) ** 2) < 1e-12:
                assert q.a == pytest.approx(p * (1 - p) * (1 - 2 * p), abs=1e-12)
                gam_p = (p * (1 - p)) ** 2
                gp = 2 * p * (1 - p) * (1 - 2 * p)
                assert q.gamma_x_gammax == pytest.approx(gam_p * gp, abs=1e-12)
                found += 1

    def test_count_moments(self):
        lam = 3.0
        spec = poisson_mc_unit(lam)
        _, _, _, _, ks = sample_poisson_arrays(spec, chunk_rng(3, 0), 100_000)
        n = ks.size
        se_mean = math.sqrt(lam / n)
        assert abs(ks.mean() - lam) < 4 * se_mean
        # var(K) estimator has variance ≈ (2λ² + λ)/n for Poisson
        se_var = math.sqrt((2 * lam**2 + lam) / n)
        assert abs(ks.var(ddof=1) - lam) < 4 * se_var

    def test_campbell_formula_against_quadrature(self):
        lam = 3.0
        spec = poisson_mc_unit(lam, h_name="polynomial")
        x, _, _, _, _ = sample_poisson_arrays(spec, chunk_rng(4, 0), 100_000)
        ref = lam * law_integral(spec.h, 0.0, 1.0, panels=64, order=12)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - ref) < 4 * se

    def test_linearity_in_h(self):
        lam, c = 2.0, 3.0
        base = poisson_mc_unit(lam, h_name="sin")
        scaled = PoissonFunctionalSpec(
            total_mass=lam,
            point_sampler=base.point_sampler,
            h=lambda p: c * np.sin(p),
            h1=lambda p: c * np.cos(p),
            h2=lambda p: -c * np.sin(p),
            base_gamma=base.base_gamma,
            base_gamma_prime=base.base_gamma_prime,
            base_a=base.base_a,
        )
        x1, g1, a1, _, _ = sample_poisson_arrays(base, chunk_rng(6, 0), 5000)
        x2, g2, a2, _, _ = sample_poisson_arrays(scaled, chunk_rng(6, 0), 5000)
        assert np.allclose(x2, c * x1, rtol=1e-13, atol=1e-13)
        assert np.allclose(a2, c * a1, rtol=1e-13, atol=1e-13)
        assert np.allclose(g2, c * c * g1, rtol=1e-13, atol=1e-13)


class TestIdentityCheck:
    def test_additivity_violation_is_roundoff(self):
        rep = poisson_identity_check(poisson_mc_unit(3.0), 4000, chunk_rng(7, 0))
        assert rep.max_identity_violation <= 1e-12

    def test_mean_generator_statistic_centered_phi_identity(self):
        rep = poisson_identity_check(poisson_mc_unit(3.0), 100_000, chunk_rng(8, 0))
        assert abs(rep.centering_z) <= 4.0

    def test_mean_generator_statistic_centered_phi_cos(self):
        rep = poisson_identity_check(
            poisson_mc_unit(3.0),
            100_000,
            chunk_rng(9, 0),
            phi_prime=lambda x: -np.sin(x),
            phi_second=lambda x: -np.cos(x),
        )
        assert abs(rep.centering_z) <= 4.0

    def test_needs_at_least_one_sample(self):
        with pytest.raises(ValueError):
            poisson_identity_check(poisson_mc_unit(1.0), 0, chunk_rng(0, 0))
