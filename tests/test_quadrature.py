import math

import numpy as np
import pytest

from dirichlet_mc import quadrature
from dirichlet_mc.coords import mc_unit, ou_gaussian
from dirichlet_mc.quadrature import (
    _legendre,
    kernel_moment_integral,
    law_integral,
    normal_pdf,
    quadrature_expectation,
)
from dirichlet_mc.scenarios import get_scenario

from calculus import opaque


class TestTensorExpectation:
    def test_constant_integrand(self):
        val = quadrature_expectation(lambda u: np.ones(u.shape[0]), [ou_gaussian(1.0)], order=8)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_second_gaussian_moment(self):
        val = quadrature_expectation(lambda u: u[:, 0] ** 2, [ou_gaussian(1.0)], order=32)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_exponential_moment(self):
        val = quadrature_expectation(lambda u: np.exp(u[:, 0]), [ou_gaussian(1.0)], order=64)
        assert val == pytest.approx(math.exp(0.5), abs=1e-10)

    def test_scaled_variance(self):
        val = quadrature_expectation(lambda u: u[:, 0] ** 2, [ou_gaussian(2.5)], order=32)
        assert val == pytest.approx(2.5, abs=1e-12)

    def test_uniform_moments(self):
        val = quadrature_expectation(lambda u: u[:, 0] ** 3, [mc_unit()], order=16)
        assert val == pytest.approx(0.25, abs=1e-13)

    def test_tensor_product_of_mixed_coordinates(self):
        # E[U² V] for U ~ N(0,1), V ~ uniform: 1 · 1/2
        val = quadrature_expectation(
            lambda u: u[:, 0] ** 2 * u[:, 1], [ou_gaussian(1.0), mc_unit()], order=24
        )
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_three_dimensional_cap_is_inclusive(self):
        specs = [ou_gaussian(1.0)] * 3
        val = quadrature_expectation(
            lambda u: u[:, 0] ** 2 + u[:, 1] ** 2 + u[:, 2] ** 2, specs, order=12
        )
        assert val == pytest.approx(3.0, abs=1e-10)

    def test_dimension_limit(self):
        with pytest.raises(ValueError, match="coordinates"):
            quadrature_expectation(lambda u: np.ones(u.shape[0]), [ou_gaussian(1.0)] * 4)

    def test_order_limit(self):
        with pytest.raises(ValueError, match="order"):
            quadrature_expectation(lambda u: np.ones(u.shape[0]), [ou_gaussian(1.0)], order=129)

    def test_opaque_coordinate_rejected(self):
        spec = opaque(lambda rng, n: rng.uniform(size=n))
        with pytest.raises(ValueError, match="no quadrature rule"):
            quadrature_expectation(lambda u: np.ones(u.shape[0]), [spec])

    def test_bad_integrand_shape_rejected(self):
        with pytest.raises(ValueError, match="one value per"):
            quadrature_expectation(lambda u: np.ones((u.shape[0], 2)), [mc_unit()])


class TestLawIntegrals:
    def test_polynomial_integral(self):
        assert law_integral(lambda y: 3 * y**2, 0.0, 2.0, panels=8, order=6) == pytest.approx(8.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            law_integral(lambda y: y, 1.0, 1.0)

    def test_normal_mass(self):
        assert law_integral(normal_pdf, -9.0, 9.0, panels=64, order=12) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_kernel_moment_recovers_density_in_the_limit(self):
        # gaussian law with Γ = 1, A = -x/2: E[g(x - X - εA, ε)] → f(x)
        est = kernel_moment_integral(
            x=0.3,
            epsilon=1e-5,
            density=normal_pdf,
            gamma_fn=lambda y: np.ones_like(y),
            a_fn=lambda y: -0.5 * y,
            support=(-math.inf, math.inf),
        )
        assert est == pytest.approx(normal_pdf(np.array([0.3]))[0], abs=1e-6)

    def test_kernel_second_moment_scaling(self):
        # √ε·E[g²] → f(x)/√(4π γ) for the unit-Γ gaussian law
        eps = 1e-6
        m2 = kernel_moment_integral(
            x=0.0,
            epsilon=eps,
            density=normal_pdf,
            gamma_fn=lambda y: np.ones_like(y),
            a_fn=lambda y: -0.5 * y,
            support=(-math.inf, math.inf),
            power=2,
        )
        ref = normal_pdf(np.array([0.0]))[0] / math.sqrt(4 * math.pi)
        assert math.sqrt(eps) * m2 == pytest.approx(ref, rel=1e-3)


def fresh_rule_integral(fn, lo, hi, panels, order):
    """Composite Gauss-Legendre sum from a rule built for this call."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    return float(np.sum((half[:, None] * w[None, :]).ravel() * fn(pts)))


class TestLegendreRuleCache:
    @pytest.mark.parametrize("order", [6, 10, 12, 16])
    def test_rule_is_leggauss_bit_for_bit(self, order):
        x, w = _legendre(order)
        ref_x, ref_w = np.polynomial.legendre.leggauss(order)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()

    @pytest.mark.parametrize("order", [6, 10, 12, 16])
    def test_rule_is_built_once_and_read_only(self, order):
        x, w = _legendre(order)
        again = _legendre(order)
        assert again[0] is x and again[1] is w
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[...] = 1.0
        assert x.tobytes() == np.polynomial.legendre.leggauss(order)[0].tobytes()

    def test_law_integral_equals_a_freshly_built_rule(self):
        fn = lambda y: np.exp(-y) * np.cos(3.0 * y)  # noqa: E731
        ref = fresh_rule_integral(fn, 0.0, 5.0, 32, 12)
        for _ in range(2):
            assert law_integral(fn, 0.0, 5.0, panels=32, order=12) == ref

    def test_tuple_integrand_gives_one_integral_each(self):
        got = law_integral(lambda y: (3 * y**2, np.cos(y)), 0.0, 2.0, panels=8, order=6)
        assert got == (
            law_integral(lambda y: 3 * y**2, 0.0, 2.0, panels=8, order=6),
            law_integral(np.cos, 0.0, 2.0, panels=8, order=6),
        )


# every (shift, identity_cov) a kernel sweep integrates
KERNEL_VARIANTS = [(True, False), (False, False), (False, True), (True, True)]


class TestKernelMomentPowers:
    @pytest.mark.parametrize("name", ["lognormal", "gbm_exact"])
    # the widest and the finest kernels the oracle sweeps integrate
    @pytest.mark.parametrize("eps", [0.2, 1e-3])
    @pytest.mark.parametrize("shift,identity_cov", KERNEL_VARIANTS)
    def test_power_tuple_equals_single_powers_bit_for_bit(
        self, name, eps, shift, identity_cov, monkeypatch
    ):
        grids = []

        def recording(fn, lo, hi, panels, order):
            grids.append((lo, hi, panels, order))
            return law_integral(fn, lo, hi, panels=panels, order=order)

        monkeypatch.setattr(quadrature, "law_integral", recording)
        sc = get_scenario(name)
        for x in sc.default_points:
            args = (x, eps, sc.exact_density, sc.gamma_of_x, sc.a_of_x, sc.support)
            kw = dict(shift=shift, identity_cov=identity_cov)
            both = kernel_moment_integral(*args, **kw, power=(1, 2))
            singles = tuple(kernel_moment_integral(*args, **kw, power=p) for p in (1, 2))
            assert isinstance(both, tuple)
            assert all(type(v) is float for v in both + singles)
            assert [v.hex() for v in both] == [v.hex() for v in singles], (x, both, singles)

            # each moment is the one-power integrand summed on a fresh rule
            def integrand(y, p):
                var = eps * (np.ones_like(y) if identity_cov else sc.gamma_of_x(y))
                var = np.maximum(var, 1e-300)
                offset = x - y - (eps * sc.a_of_x(y) if shift else 0.0)
                g = np.exp(-0.5 * offset * offset / var) / np.sqrt(2.0 * math.pi * var)
                return g**p * sc.exact_density(y)

            assert len(set(grids)) == 1
            refs = [fresh_rule_integral(lambda y: integrand(y, p), *grids[0]) for p in (1, 2)]
            assert [v.hex() for v in both] == [v.hex() for v in refs], (x, both, refs)
            grids.clear()
