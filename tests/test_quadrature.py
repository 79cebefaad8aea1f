import math
import re

import numpy as np
import pytest

from dirichlet_mc import quadrature
from dirichlet_mc.quadrature import (
    UnresolvedKernelError,
    _legendre,
    kernel_moment_integral,
    law_integral,
    normal_pdf,
    quadrature_expectation,
)
from dirichlet_mc.scenarios import get_scenario

from calculus import mc_unit, opaque, ou_gaussian


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

    def test_one_value_per_node_required(self):
        with pytest.raises(ValueError, match="one value per quadrature node"):
            law_integral(lambda y: (3 * y**2, np.cos(y)), 0.0, 2.0, panels=8, order=6)

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


# every (shift, identity_cov) a kernel sweep integrates
KERNEL_VARIANTS = [(True, False), (False, False), (False, True), (True, True)]


def recording_segments(monkeypatch) -> list:
    """Record (lo, hi, panels, order) of every segment the kernel oracle
    integrates, in call order and left to right."""
    calls = []
    plan = quadrature._kernel_segments

    def recording(*args):
        segments = plan(*args)
        calls.extend((lo, hi, panels, args[-1]) for lo, hi, panels in segments)
        return segments

    monkeypatch.setattr(quadrature, "_kernel_segments", recording)
    return calls


class TestKernelMomentPowers:
    @pytest.mark.parametrize("name", ["lognormal", "gbm_exact"])
    # the widest and the finest kernels the oracle sweeps integrate
    @pytest.mark.parametrize("eps", [0.2, 1e-3])
    @pytest.mark.parametrize("shift,identity_cov", KERNEL_VARIANTS)
    def test_power_tuple_equals_single_powers_bit_for_bit(
        self, name, eps, shift, identity_cov, monkeypatch
    ):
        calls = recording_segments(monkeypatch)
        sc = get_scenario(name)
        for x in sc.default_points:
            args = (x, eps, sc.exact_density, sc.gamma_of_x, sc.a_of_x, sc.support)
            kw = dict(shift=shift, identity_cov=identity_cov)
            both = kernel_moment_integral(*args, **kw, power=(1, 2))
            segments = calls[:]
            singles = tuple(kernel_moment_integral(*args, **kw, power=p) for p in (1, 2))
            assert isinstance(both, tuple)
            assert all(type(v) is float for v in both + singles)
            assert [v.hex() for v in both] == [v.hex() for v in singles], (x, both, singles)
            # every call integrates the same segments, which tile the window
            assert calls == segments * 3
            pad = 60.0 * math.sqrt(eps) + 10.0
            assert segments[0][0] == max(sc.support[0], x - pad)
            assert segments[-1][1] == x + pad
            assert all(a[1] == b[0] for a, b in zip(segments, segments[1:]))

            # each moment is the one-power integrand summed on a fresh rule
            # per segment, the segments added left to right
            def integrand(y, p):
                var = eps * (np.ones_like(y) if identity_cov else sc.gamma_of_x(y))
                var = np.maximum(var, 1e-300)
                offset = x - y - (eps * sc.a_of_x(y) if shift else 0.0)
                g = np.exp(-0.5 * offset * offset / var) / np.sqrt(2.0 * math.pi * var)
                return g**p * sc.exact_density(y)

            refs = []
            for p in (1, 2):
                total = 0.0
                for seg in segments:
                    total += fresh_rule_integral(lambda y: integrand(y, p), *seg)
                refs.append(total)
            assert [v.hex() for v in both] == [v.hex() for v in refs], (x, both, refs)
            calls.clear()

    @pytest.mark.parametrize("power", [1, (1, 2)])
    def test_integrand_is_evaluated_once_per_call(self, power, monkeypatch):
        # γ and a are also read at the kernel's centre, on 1 and 3 points
        calls = recording_segments(monkeypatch)
        sc = get_scenario("lognormal")
        sizes = {"density": [], "gamma": [], "a": []}

        def counted(name, fn):
            return lambda y: sizes[name].append(y.size) or fn(y)

        kernel_moment_integral(1.0, 1e-3, counted("density", sc.exact_density),
                               counted("gamma", sc.gamma_of_x), counted("a", sc.a_of_x),
                               sc.support, power=power)
        nodes = sum(panels * order for *_, panels, order in calls)
        assert len(calls) == 3  # the edge panel, the near field, the far field
        assert sizes == {"density": [nodes], "gamma": [1, nodes], "a": [3, nodes]}


class TestGradedGrid:
    @pytest.mark.parametrize("shift,identity_cov", KERNEL_VARIANTS)
    def test_near_field_panels_are_half_a_kernel_width(self, shift, identity_cov, monkeypatch):
        # lognormal at x = 1, ε = 1e-6: γ(1) = 1 and a′(1) = 0, so every
        # kernel is centred within 1e-6 of 1 with width 1e-3 in y
        calls = recording_segments(monkeypatch)
        sc = get_scenario("lognormal")
        kernel_moment_integral(1.0, 1e-6, sc.exact_density, sc.gamma_of_x, sc.a_of_x,
                               sc.support, shift=shift, identity_cov=identity_cov)
        widths = [(hi - lo) / panels for lo, hi, panels, _ in calls]
        far = (1.0 + 60e-3 + 10.0) / 256
        # the panel at the support's end 0, the rest of the far field, the
        # near field ± 40 widths, the far field above it
        assert [panels for *_, panels, _ in calls][0] == quadrature.EDGE_PANELS
        assert far * 0.9 <= widths[1] <= far
        assert calls[2][0] == pytest.approx(1.0 - 0.04, abs=2e-6)
        assert calls[2][1] == pytest.approx(1.0 + 0.04, abs=2e-6)
        assert widths[2] <= 0.5e-3 and calls[2][2] in (160, 161)  # ceil of 80w / (w/2)
        assert far * 0.9 <= widths[3] <= far
        assert len(calls) == 4

    def test_shift_moves_the_near_field_to_the_kernel(self, monkeypatch):
        # gaussian, A = -y/2: the shifted kernel is g(x - (1 - ε/2)y, ε), in
        # y centred at x/(1 - ε/2) with width √ε/(1 - ε/2)
        calls = recording_segments(monkeypatch)
        eps, x = 0.2, 2.0
        kernel_moment_integral(x, eps, normal_pdf, lambda y: np.ones_like(y),
                               lambda y: -0.5 * y, (-math.inf, math.inf))
        centre, width = x / (1 - eps / 2), math.sqrt(eps) / (1 - eps / 2)
        near = calls[1]
        assert near[0] == pytest.approx(centre - 40 * width, rel=1e-9)
        assert near[1] == pytest.approx(centre + 40 * width, rel=1e-9)


def phi(x: float, var: float) -> float:
    return math.exp(-0.5 * x * x / var) / math.sqrt(2.0 * math.pi * var)


class TestGaussianClosedForms:
    """X ~ N(0, 1), Γ = 1, A = -X/2: the kernel argument is x - bX with
    b = 1 - ε/2 (shifted) or 1, so m1 = φ(x; b² + ε) and
    m2 = φ(x; b² + ε/2)/(2√(πε)).  Every moment is within 1e-12 of these,
    or an UnresolvedKernelError."""

    @pytest.mark.parametrize("shift", [True, False])
    @pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2, 0.2, 10, 100, 1e3, 1e4])
    def test_moments_match_or_raise(self, shift, eps):
        b = 1.0 - eps / 2 if shift else 1.0
        for x in (0.0, 1.0, 3.0):
            try:
                m1, m2 = kernel_moment_integral(
                    x, eps, normal_pdf, lambda y: np.ones_like(y), lambda y: -0.5 * y,
                    (-math.inf, math.inf), shift=shift, power=(1, 2))
            except UnresolvedKernelError:
                assert eps > 10, "a bandwidth of the sweeps' range must resolve"
                continue
            assert m1 == pytest.approx(phi(x, b * b + eps), rel=1e-12, abs=0)
            assert m2 == pytest.approx(phi(x, b * b + eps / 2) / (2 * math.sqrt(math.pi * eps)),
                                       rel=1e-12, abs=0)

    @pytest.mark.parametrize("eps,order", [(1e3, 16), (100.0, 16), (40.0, 10)])
    def test_far_nodes_sparser_than_the_density_scale_raise(self, eps, order):
        # the window's 256 far-field panels are (120√ε + 20)/256 wide, so
        # there are fewer than four nodes per unit of a unit-scale density
        # from ε ≈ 70 at order 16 and from ε ≈ 27 at order 10
        args = (normal_pdf, lambda y: np.ones_like(y), lambda y: -0.5 * y, (-math.inf, math.inf))
        with pytest.raises(UnresolvedKernelError,
                           match=f"far-field node spacing at epsilon={eps:g}, x=1"):
            kernel_moment_integral(1.0, eps, *args, shift=False, order=order)
        kernel_moment_integral(1.0, 10.0, *args, shift=False, order=order)


class TestUnresolvedKernel:
    """A kernel narrower than 1e12 float64 spacings at its near field is an
    error, not a moment: rounding the nodes there could move the moment by
    more than 1e-12 relative."""

    @pytest.mark.parametrize("shift,identity_cov", KERNEL_VARIANTS)
    def test_width_below_float64_node_limit_raises(self, shift, identity_cov):
        sc = get_scenario("lognormal")
        args = (sc.exact_density, sc.gamma_of_x, sc.a_of_x, sc.support)
        kw = dict(shift=shift, identity_cov=identity_cov, power=(1, 2))
        # x = 1: γ = 1 and a′ = 0, so the width is √ε, and the near field
        # reaches above 1, where the float64 spacing is 2^-52
        limit = 2.0**-52 / quadrature.RESOLUTION
        kernel_moment_integral(1.0, (1.01 * limit) ** 2, *args, **kw)
        with pytest.raises(UnresolvedKernelError, match=r"x=1 is below the quadrature node "
                           r"limit 2\.220e-04"):
            kernel_moment_integral(1.0, (0.99 * limit) ** 2, *args, **kw)

    def test_degenerate_gamma_at_the_point_raises(self):
        sc = get_scenario("lognormal")
        with pytest.raises(UnresolvedKernelError, match="kernel width 0.000e"):
            kernel_moment_integral(0.0, 0.1, sc.exact_density, sc.gamma_of_x, sc.a_of_x,
                                   sc.support)


class TestQueryOutsideTheWindow:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x,eps", [(-20.0, 0.025), (1e300, 0.1)])
    def test_empty_window_names_x_and_epsilon(self, x, eps):
        # lognormal lives on (0, ∞): x ± (60√ε + 10) misses it at x = -20,
        # and has no float64 width at x = 1e300, where γ(x) = x² overflows
        sc = get_scenario("lognormal")
        with pytest.raises(ValueError, match=re.escape(f"epsilon={eps:g}, x={x:g}: the integration window")):
            kernel_moment_integral(x, eps, sc.exact_density, sc.gamma_of_x, sc.a_of_x,
                                   sc.support)
