import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirichlet_mc.streams import chunk_rng

from calculus import (
    BasePoint,
    ErrorTriple,
    a_of,
    gamma_grad,
    gamma_of,
    jet_apply_unary,
    jet_const,
    jet_exp,
    lift,
    mc_unit,
    ou_gaussian,
    quad_of,
    sample_base,
)
from functionals import random_functional, random_specs
from oracles import fd_a, fd_gamma, fd_gamma_x_gammax, rel_err


class TestSpotValues:
    def test_gamma_single_mc_unit_coordinate(self):
        base = BasePoint([0.5], (mc_unit(),))
        j = lift(base, 1)
        assert gamma_of(j, j, base) == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_gamma_of_constant_is_zero(self):
        base = BasePoint([0.3], (mc_unit(),))
        c = jet_const(5.0, 1)
        assert gamma_of(c, c, base) == 0.0
        assert a_of(c, base) == 0.0

    def test_gamma_exp_gaussian(self):
        base = BasePoint([0.0], (ou_gaussian(1.0),))
        j = jet_exp(lift(base, 1))
        assert gamma_of(j, j, base) == pytest.approx(1.0, abs=1e-15)
        assert a_of(j, base) == pytest.approx(0.5, abs=1e-15)

    def test_a_single_mc_unit_coordinate(self):
        base = BasePoint([0.25], (mc_unit(),))
        assert a_of(lift(base, 1), base) == pytest.approx(3.0 / 32.0, abs=1e-15)

    def test_gamma_grad_cases(self):
        base = BasePoint([0.0], (ou_gaussian(1.0),))
        assert np.allclose(gamma_grad(lift(base, 1), base), [0.0])
        assert np.allclose(gamma_grad(jet_exp(lift(base, 1)), base), [2.0])
        base_mc = BasePoint([0.5], (mc_unit(),))
        assert np.allclose(gamma_grad(lift(base_mc, 1), base_mc), [0.0])

    def test_quad_of_cases(self):
        base = BasePoint([0.0], (ou_gaussian(1.0),))
        assert quad_of(lift(base, 1), base).gamma_x_gammax == 0.0
        assert quad_of(jet_exp(lift(base, 1)), base).gamma_x_gammax == pytest.approx(2.0)
        base_mc = BasePoint([0.5], (mc_unit(),))
        assert quad_of(lift(base_mc, 1), base_mc).gamma_x_gammax == 0.0

    def test_quad_of_carries_aux(self):
        base = BasePoint([0.2, -0.3], (ou_gaussian(1.0), ou_gaussian(1.0)))
        jx = lift(base, 1) + lift(base, 2)
        jg = lift(base, 2)
        q = quad_of(jx, base, jg)
        assert q.aux == (-0.3, 1.0)  # Γ[X, U₂] = 1


class TestFiniteDifferenceOracles:
    """gamma_of / a_of / quad_of against plain finite differences."""

    def test_randomized_functionals_match_oracles(self):
        rng = chunk_rng(2024, 0)
        checked = 0
        for trial in range(20):
            m = int(rng.integers(1, 5))
            specs = random_specs(rng, m)
            label, jet_fn, val_fn = random_functional(rng, m)
            base = sample_base(specs, rng)
            j = jet_fn(base)
            g = gamma_of(j, j, base)
            a = a_of(j, base)
            q = quad_of(j, base).gamma_x_gammax
            assert rel_err(g, fd_gamma(val_fn, base)) < 1e-5, (label, trial)
            assert rel_err(a, fd_a(val_fn, base)) < 1e-5, (label, trial)
            assert rel_err(q, fd_gamma_x_gammax(val_fn, base)) < 1e-5, (label, trial)
            checked += 1
        assert checked == 20

    def test_tight_tolerance_on_smooth_mix(self):
        # the documented oracle equivalence: 1e-6 relative at step 1e-4
        rng = chunk_rng(55, 0)
        for _ in range(10):
            m = int(rng.integers(1, 5))
            specs = random_specs(rng, m)
            label, jet_fn, val_fn = random_functional(rng, m)
            base = sample_base(specs, rng)
            j = jet_fn(base)
            assert rel_err(gamma_of(j, j, base), fd_gamma(val_fn, base)) < 1e-6, label
            assert rel_err(a_of(j, base), fd_a(val_fn, base)) < 1e-6, label


class TestBilinearityAndPositivity:
    @given(
        st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=2, max_size=4),
        st.floats(-2.0, 2.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_bilinearity(self, values, a):
        values = np.asarray(values)
        base = BasePoint(values, (ou_gaussian(1.0),) * values.shape[0])
        x = jet_exp(0.3 * lift(base, 1))
        y = a * lift(base, 2)
        z = lift(base, 1) * lift(base, 2)
        lhs = gamma_of(x + y, z, base)
        rhs = gamma_of(x, z, base) + gamma_of(y, z, base)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_positivity_and_symmetry(self, values):
        values = np.asarray(values)
        base = BasePoint(values, (ou_gaussian(1.0),) * values.shape[0])
        x = jet_exp(0.2 * lift(base, 1))
        y = lift(base, base.m) + 0.5
        assert gamma_of(x, x, base) >= 0.0
        assert gamma_of(x, y, base) == gamma_of(y, x, base)

    def test_constant_has_zero_gamma_against_anything(self):
        base = BasePoint([0.4, 0.6], (mc_unit(), mc_unit()))
        c = jet_const(math.pi, 2)
        x = lift(base, 1) * lift(base, 2)
        assert gamma_of(c, x, base) == 0.0


class TestFunctionalCalculusIdentity:
    """A[φ(X)] = φ'(X) A[X] + ½ φ''(X) Γ[X], exactly in jet arithmetic."""

    @pytest.mark.parametrize(
        "phi,dphi,d2phi",
        [
            (math.exp, math.exp, math.exp),
            (math.sin, math.cos, lambda v: -math.sin(v)),
            (lambda v: v**3, lambda v: 3 * v**2, lambda v: 6 * v),
        ],
    )
    def test_identity_exact(self, phi, dphi, d2phi):
        rng = chunk_rng(77, 0)
        for _ in range(25):
            m = int(rng.integers(1, 5))
            specs = random_specs(rng, m)
            _, jet_fn, _ = random_functional(rng, m)
            base = sample_base(specs, rng)
            x = jet_fn(base)
            lhs = a_of(jet_apply_unary(x, phi, dphi, d2phi), base)
            rhs = dphi(x.value) * a_of(x, base) + 0.5 * d2phi(x.value) * gamma_of(x, x, base)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_chain_rule_for_gamma(self):
        # Γ[φ(X)] = φ'(X)² Γ[X]
        rng = chunk_rng(78, 0)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            specs = random_specs(rng, m)
            _, jet_fn, _ = random_functional(rng, m)
            base = sample_base(specs, rng)
            x = jet_fn(base)
            fx = jet_apply_unary(x, math.sin, math.cos, lambda v: -math.sin(v))
            assert gamma_of(fx, fx, base) == pytest.approx(
                math.cos(x.value) ** 2 * gamma_of(x, x, base), rel=1e-12, abs=1e-14
            )


class TestGeneratorCenteringWeakForm:
    """MC mean of φ'(X)A[X] + ½φ''(X)Γ[X] is within 4 standard errors of 0."""

    @pytest.mark.parametrize("phi_idx", [0, 1])
    def test_centering_on_random_functional(self, phi_idx):
        phis = [
            (math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v)),
            (lambda v: v * v, lambda v: 2 * v, lambda v: 2.0),
        ]
        _, dphi, d2phi = phis[phi_idx]
        rng = chunk_rng(101 + phi_idx, 0)
        specs = random_specs(rng, 2)
        _, jet_fn, _ = random_functional(rng, 2)
        stats = []
        for _ in range(4000):
            base = sample_base(specs, rng)
            x = jet_fn(base)
            stats.append(dphi(x.value) * a_of(x, base) + 0.5 * d2phi(x.value) * gamma_of(x, x, base))
        stats = np.asarray(stats)
        z = stats.mean() / (stats.std(ddof=1) / math.sqrt(stats.size))
        assert abs(z) < 4.0


class TestErrorTripleValidation:
    def test_psd_check_accepts_valid(self):
        t = ErrorTriple(np.array([0.0, 0.0]), np.eye(2), np.zeros(2))
        t.check_psd()

    def test_psd_check_rejects_negative(self):
        t = ErrorTriple(np.array([0.0, 0.0]), np.diag([1.0, -0.5]), np.zeros(2))
        with pytest.raises(ValueError, match="eigenvalue"):
            t.check_psd()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ErrorTriple(np.zeros(2), np.eye(3), np.zeros(2))

    def test_quad_rejects_negative_square_field(self):
        from calculus import ErrorQuad

        bad = ErrorTriple(np.zeros(1), np.array([[-0.5]]), np.zeros(1))
        with pytest.raises(ValueError, match="negative"):
            ErrorQuad(bad, 0.0)

    def test_quad_requires_scalar_triple(self):
        from calculus import ErrorQuad

        two_d = ErrorTriple(np.zeros(2), np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="d=1"):
            ErrorQuad(two_d, 0.0)
