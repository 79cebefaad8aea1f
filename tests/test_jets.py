import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirichlet_mc.coords import mc_unit, ou_gaussian

from calculus import (
    BasePoint,
    Jet2,
    jet_add,
    jet_apply_unary,
    jet_const,
    jet_exp,
    jet_mul,
    lift,
    opaque,
)


def _base(values, specs=None):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if specs is None:
        specs = (ou_gaussian(1.0),) * values.shape[0]
    return BasePoint(values, specs)


class TestLift:
    def test_lift_mc_unit(self):
        base = _base([0.5], (mc_unit(),))
        j = lift(base, 1)
        assert j.value == 0.5
        assert np.array_equal(j.grad, [1.0])
        assert np.array_equal(j.hess, [[0.0]])

    def test_lift_second_of_two(self):
        base = _base([1.0, 2.0])
        j = lift(base, 2)
        assert j.value == 2.0
        assert np.array_equal(j.grad, [0.0, 1.0])
        assert not j.hess.any()

    def test_index_out_of_range(self):
        base = _base([1.0, 2.0])
        with pytest.raises(IndexError, match="out of range"):
            lift(base, 3)

    def test_opaque_lift_is_an_error_naming_the_coordinate(self):
        base = _base(
            [0.5, 0.5], (mc_unit(), opaque(lambda rng, n: rng.uniform(size=n)))
        )
        with pytest.raises(ValueError, match="coordinate 2 is opaque"):
            lift(base, 2)


class TestUnaryChain:
    def test_exp_at_zero(self):
        j = jet_exp(Jet2(0.0, [1.0], [[0.0]]))
        assert (j.value, j.grad[0], j.hess[0, 0]) == (1.0, 1.0, 1.0)

    def test_identity_map_keeps_jet(self):
        j = Jet2(0.7, [2.0, 1.0], [[0.0, 1.0], [1.0, 3.0]])
        out = jet_apply_unary(j, lambda v: v, lambda v: 1.0, lambda v: 0.0)
        assert out.value == j.value
        assert np.array_equal(out.grad, j.grad)
        assert np.array_equal(out.hess, j.hess)

    def test_square_via_unary(self):
        out = jet_apply_unary(
            Jet2(3.0, [1.0], [[0.0]]), lambda v: v * v, lambda v: 2 * v, lambda v: 2.0
        )
        assert (out.value, out.grad[0], out.hess[0, 0]) == (9.0, 6.0, 2.0)

    def test_nonfinite_propagates_as_flag(self):
        j = jet_apply_unary(
            Jet2(0.0, [1.0], [[0.0]]), lambda v: math.inf, lambda v: 1.0, lambda v: 0.0
        )
        assert not j.is_finite


class TestArithmetic:
    def test_add_of_two_lifts(self):
        base = _base([0.5, 0.5], (mc_unit(), mc_unit()))
        j = lift(base, 1) + lift(base, 2)
        assert j.value == 1.0
        assert np.array_equal(j.grad, [1.0, 1.0])

    def test_mul_by_constant_one_is_identity(self):
        j = Jet2(2.0, [1.0, -1.0], [[0.5, 0.0], [0.0, 0.2]])
        out = jet_mul(j, jet_const(1.0, 2))
        assert out.value == j.value
        assert np.array_equal(out.grad, j.grad)
        assert np.array_equal(out.hess, j.hess)

    def test_square_of_lift(self):
        base = _base([3.0])
        j = lift(base, 1)
        out = j * j
        assert (out.value, out.grad[0], out.hess[0, 0]) == (9.0, 6.0, 2.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            jet_add(jet_const(0.0, 2), jet_const(0.0, 3))

    def test_integer_power(self):
        base = _base([2.0])
        out = lift(base, 1) ** 3
        assert (out.value, out.grad[0], out.hess[0, 0]) == (8.0, 12.0, 12.0)


coords_strategy = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=1, max_size=4
)
scalars = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestJetAlgebraProperties:
    @given(coords_strategy, scalars, scalars)
    @settings(max_examples=60, deadline=None)
    def test_mul_commutes(self, values, a, b):
        base = _base(values)
        x = a + lift(base, 1)
        y = b * lift(base, base.m)
        xy, yx = jet_mul(x, y), jet_mul(y, x)
        assert xy.value == pytest.approx(yx.value, abs=1e-12)
        assert np.allclose(xy.grad, yx.grad, atol=1e-12)
        assert np.allclose(xy.hess, yx.hess, atol=1e-12)

    @given(coords_strategy)
    @settings(max_examples=60, deadline=None)
    def test_hessian_stays_symmetric(self, values):
        base = _base(values)
        j = jet_const(1.0, base.m)
        for i in range(base.m):
            j = j * (1.0 + 0.3 * lift(base, i + 1))
        j = jet_exp(0.1 * j)
        assert np.array_equal(j.hess, j.hess.T)

    @given(coords_strategy, scalars)
    @settings(max_examples=60, deadline=None)
    def test_product_rule_against_unary_square(self, values, a):
        base = _base(values)
        s = a + lift(base, 1)
        via_mul = s * s
        via_unary = jet_apply_unary(s, lambda v: v * v, lambda v: 2 * v, lambda v: 2.0)
        assert via_mul.value == pytest.approx(via_unary.value, rel=1e-12, abs=1e-12)
        assert np.allclose(via_mul.grad, via_unary.grad, atol=1e-10)
        assert np.allclose(via_mul.hess, via_unary.hess, atol=1e-10)
