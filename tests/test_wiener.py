import math
import sys
import threading

import numpy as np
import pytest

from dirichlet_mc import streams
from dirichlet_mc.streams import CHUNK_SIZE, chunk_rng, sample_chunked
from dirichlet_mc.wiener import (
    SdeCoefficients,
    additive_coefficients,
    euler_triple_paths,
    gbm_coefficients,
    simulate_triple_batch,
    zero_noise_coefficients,
)

from calculus import jet_oracle_triple
from oracles import COEFFICIENT_SETS, euler_batch_reference, simulate_triple


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _linear_sigma():
    # σ(x) = x, r = 0: the simplest state-dependent case
    z = lambda x, t: 0.0 * x
    return SdeCoefficients(
        sigma=lambda x, t: x, sigma_x=lambda x, t: 1.0 + 0.0 * x, sigma_xx=z,
        r=z, r_x=z, r_xx=z,
    )


class TestCoefficients:
    def test_wrong_derivative_rejected(self):
        with pytest.raises(ValueError, match="sigma_x"):
            SdeCoefficients(
                sigma=lambda x, t: x * x,
                sigma_x=lambda x, t: x,  # should be 2x
                sigma_xx=lambda x, t: 2.0,
                r=lambda x, t: 0.0, r_x=lambda x, t: 0.0, r_xx=lambda x, t: 0.0,
            )

    def test_quadratic_drift_constructs_at_default_probes(self):
        # at x = 4 the second difference of x² carries ~5e-5 of rounding
        # error, which the check must allow for
        for k in (1.0, 5.0):
            SdeCoefficients(
                sigma=lambda x, t: 0.0, sigma_x=lambda x, t: 0.0, sigma_xx=lambda x, t: 0.0,
                r=lambda x, t: k * x * x, r_x=lambda x, t: 2.0 * k * x,
                r_xx=lambda x, t: 2.0 * k,
            )

    def test_second_derivative_one_percent_off_rejected(self):
        with pytest.raises(ValueError, match="r_xx"):
            SdeCoefficients(
                sigma=lambda x, t: 0.0, sigma_x=lambda x, t: 0.0, sigma_xx=lambda x, t: 0.0,
                r=lambda x, t: x * x, r_x=lambda x, t: 2.0 * x, r_xx=lambda x, t: 2.02,
            )

    def test_presets_validate(self):
        gbm_coefficients()
        additive_coefficients()
        zero_noise_coefficients()

    def test_named_coefficient_registry(self):
        from oracles import COEFFICIENT_SETS

        assert set(COEFFICIENT_SETS) == {"gbm", "additive", "zero_noise"}
        for make in COEFFICIENT_SETS.values():
            assert isinstance(make(), SdeCoefficients)


def _aliasing():
    # σ(x) = r(x) = x, both returning the state array itself
    return SdeCoefficients(
        sigma=lambda x, t: x, sigma_x=lambda x, t: 1.0, sigma_xx=lambda x, t: 0.0,
        r=lambda x, t: x, r_x=lambda x, t: 1.0, r_xx=lambda x, t: 0.0,
    )


def _exploding(k=5.0, vol=2.0):
    # r(x) = k·x² overflows to inf on most paths within 16 steps from x0 = 1
    return SdeCoefficients(
        sigma=lambda x, t: vol * x, sigma_x=lambda x, t: vol, sigma_xx=lambda x, t: 0.0,
        r=lambda x, t: k * x * x, r_x=lambda x, t: 2.0 * k * x, r_xx=lambda x, t: 2.0 * k,
    )


def _finite(x, g, a):
    """The paths whose (X, Γ, A) are all finite."""
    return np.isfinite(x) & np.isfinite(g) & np.isfinite(a)


class TestEulerStep:
    def test_single_step_linear_sigma(self):
        # from (1, 0, 0) with h = 1 and increment b: (1+b, 1, -b/2)
        b = np.array([-0.7, 0.0, 0.4, 2.0])
        x, g, a = euler_triple_paths(1.0, 1.0, 1, _linear_sigma(), b[None, :])
        np.testing.assert_allclose(x, 1.0 + b, rtol=1e-15)
        np.testing.assert_allclose(g, 1.0, rtol=1e-15)
        np.testing.assert_allclose(a, -b / 2.0, rtol=1e-15)

    def test_zero_noise_is_deterministic_euler(self):
        h = 0.25
        inc = np.full((4, 1), 0.33)  # increments must not matter
        x, g, a = euler_triple_paths(1.0, 1.0, 4, zero_noise_coefficients(drift=1.0), inc)
        assert g[0] == 0.0 and a[0] == 0.0
        assert x[0] == pytest.approx((1 + h) ** 4)

    def test_constant_sigma_gamma_grows_linearly(self):
        c = additive_coefficients(vol=1.0, drift=0.0)
        h = 0.125
        inc = 0.1 * np.arange(8.0)[:, None]
        _, g, _ = euler_triple_paths(0.0, 1.0, 8, c, inc)
        assert g[0] == pytest.approx(8 * h)

    def test_bad_step_size(self):
        with pytest.raises(ValueError, match="horizon"):
            euler_triple_paths(0.0, 0.0, 1, _linear_sigma(), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="step"):
            simulate_triple_batch(0.0, 1.0, 0, _linear_sigma(), 4, chunk_rng(0, 0))

    def test_increment_shape_must_match(self):
        with pytest.raises(ValueError, match="increments"):
            euler_triple_paths(0.0, 1.0, 4, _linear_sigma(), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="increments"):
            euler_triple_paths(0.0, 1.0, 4, _linear_sigma(), np.zeros(4))


class TestSimulateTriple:
    def test_one_step_reduces_to_euler_step(self):
        # one step of the module-docstring formulas from (1, 0, 0), in floats
        vol, drift = 0.3, 0.05
        triple, inc = simulate_triple(1.0, 1.0, 1, gbm_coefficients(vol, drift), chunk_rng(0, 0))
        db = float(inc[0])
        lin = 1.0 + vol * db + drift * 1.0
        assert triple.x[0] == 1.0 + vol * db + drift * 1.0
        assert triple.gamma[0, 0] == lin * lin * 0.0 + vol * vol * 1.0
        assert triple.a[0] == -0.5 * vol * db

    def test_path_is_a_column_of_the_batch(self):
        # simulate_triple is the batch recursion run on one path
        c = gbm_coefficients()
        triple, inc = simulate_triple(1.0, 1.0, 16, c, chunk_rng(4, 0))
        others = chunk_rng(4, 1).normal(0.0, 0.25, size=(16, 7))
        x, g, a = euler_triple_paths(1.0, 1.0, 16, c, np.column_stack([others, inc]))
        assert (triple.x[0], triple.gamma[0, 0], triple.a[0]) == (x[-1], g[-1], a[-1])

    def test_non_finite_path_yields_none(self):
        rng = chunk_rng(3, 0)
        results = [simulate_triple(1.0, 1.0, 16, _exploding(), rng)[0] for _ in range(40)]
        assert any(r is None for r in results)
        assert all(r.is_finite for r in results if r is not None)

    def test_gamma_nonnegative_along_paths(self):
        c = _linear_sigma()
        rng = chunk_rng(5, 0)
        for _ in range(300):
            triple, _ = simulate_triple(1.0, 1.0, 8, c, rng)
            assert triple.gamma[0, 0] >= 0.0

    def test_zero_drift_unit_diffusion_exact_triple(self):
        c = additive_coefficients(vol=1.0, drift=0.0)
        rng = chunk_rng(9, 0)
        triple, inc = simulate_triple(0.5, 2.0, 16, c, rng)
        bt = float(inc.sum())
        assert triple.x[0] == pytest.approx(0.5 + bt, rel=1e-14)
        assert triple.gamma[0, 0] == pytest.approx(2.0, rel=1e-14)
        assert triple.a[0] == pytest.approx(-bt / 2.0, rel=1e-14)

    def test_batch_matches_invariants(self):
        # Γ = lin²·Γ + σ²h stays ≥ 0 on every finite path, for every preset
        for name, make in COEFFICIENT_SETS.items():
            x, g, a = simulate_triple_batch(1.0, 1.0, 16, make(), 2000, chunk_rng(2, 0))
            assert _finite(x, g, a).all(), name
            assert (g >= 0).all(), name
        x, g, a = simulate_triple_batch(1.0, 1.0, 16, _exploding(), 2000, chunk_rng(2, 0))
        assert (g[_finite(x, g, a)] >= 0).all()


class TestBitwiseReference:
    """The in-place recursion against the expression-form batch, bit for bit.

    The recursion draws its increments a group of steps at a time: 4 steps
    at 16 384 paths, 1 step past 4·16 384 paths, all n steps at 1 path.
    The step counts end the scheme on a group boundary and inside a group;
    the reference draws step by step."""

    @pytest.mark.parametrize("n_paths", [1, CHUNK_SIZE, 4 * CHUNK_SIZE + 1])
    @pytest.mark.parametrize("n", [1, 4, 5, 16, 17])
    @pytest.mark.parametrize("make", [
        gbm_coefficients, additive_coefficients, zero_noise_coefficients, _aliasing, _exploding,
    ])
    def test_matches_expression_form(self, make, n, n_paths):
        c = make()
        got = simulate_triple_batch(1.0, 1.0, n, c, n_paths, chunk_rng(77, 3))
        want = euler_batch_reference(1.0, 1.0, n, c, n_paths, chunk_rng(77, 3))
        for name, u, v in zip(("x", "gamma", "a"), got, want):
            assert np.array_equal(u, v, equal_nan=True), name
            assert np.array_equal(np.signbit(u), np.signbit(v)), name
        if make is _exploding and n == 16 and n_paths > 1:
            assert 0 < _finite(*got).sum() < n_paths  # both finite and overflowed paths

    @pytest.mark.parametrize("n_paths", [3, CHUNK_SIZE, 4 * CHUNK_SIZE + 1])
    @pytest.mark.parametrize("n", [1, 5, 17])
    def test_generator_consumed_as_step_by_step(self, n, n_paths):
        # the grouped draw leaves the generator where n draws of n_paths
        # standard normals each leave its twin
        rng, twin = chunk_rng(78, 1), chunk_rng(78, 1)
        simulate_triple_batch(1.0, 1.0, n, gbm_coefficients(), n_paths, rng)
        for _ in range(n):
            twin.standard_normal(n_paths)
        assert rng.random() == twin.random()


class TestScratchReuse:
    """The recursion keeps its scratch per thread from call to call; the
    arrays a call returns stay its own, the increments scratch stays within
    the group rule's bound, and chunks drawn concurrently on more threads
    than cores are the same bits as on one."""

    def test_returned_arrays_outlive_later_calls(self):
        c = gbm_coefficients()
        first = simulate_triple_batch(1.0, 1.0, 16, c, 1000, chunk_rng(5, 0))
        kept = [v.copy() for v in first]
        for n_paths in (1000, 4000, 10):
            simulate_triple_batch(1.0, 1.0, 16, c, n_paths, chunk_rng(6, n_paths))
        assert all(np.array_equal(u, v) for u, v in zip(first, kept))
        again = simulate_triple_batch(1.0, 1.0, 16, c, 1000, chunk_rng(5, 0))
        assert all(np.array_equal(u, v) for u, v in zip(again, kept))

    def test_increments_scratch_is_bounded(self):
        # read in a fresh thread, so no earlier call of this process has
        # grown the thread's scratch
        n_paths = 100_000
        held = {}

        def call():
            simulate_triple_batch(1.0, 1.0, 16, gbm_coefficients(), n_paths, chunk_rng(8, 0))
            held["increments"] = [b.size for b in streams._SCRATCH.euler_increments]
            held["euler"] = len(streams._SCRATCH.euler)

        worker = threading.Thread(target=call)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert len(held["increments"]) == 1
        assert held["increments"][0] <= max(n_paths, 4 * CHUNK_SIZE)
        assert held["euler"] == 4

    @pytest.mark.parametrize("make", [
        gbm_coefficients, additive_coefficients, zero_noise_coefficients,
    ])
    def test_chunks_on_more_threads_than_cores(self, make):
        c = make()

        def draw(rng, k):
            return simulate_triple_batch(1.0, 1.0, 16, c, k, rng)

        n = 9 * CHUNK_SIZE + 5
        want = sample_chunked(n, 3, draw, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sample_chunked(n, 3, draw, 4)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(u, v) for u, v in zip(got, want))


class TestJetOracleCommutation:
    def test_one_step_closed_form(self):
        c = _linear_sigma()
        b = 0.63
        o = jet_oracle_triple(1.0, 1.0, 1, c, np.array([b]))
        assert o.x[0] == pytest.approx(1.0 + b)
        assert o.gamma[0, 0] == pytest.approx(1.0)
        assert o.a[0] == pytest.approx(-b / 2.0)

    def test_zero_noise_oracle_zero_gamma(self):
        c = zero_noise_coefficients()
        o = jet_oracle_triple(1.0, 1.0, 4, c, np.zeros(4))
        assert o.gamma[0, 0] == 0.0 and o.a[0] == 0.0

    def test_increment_count_must_match(self):
        with pytest.raises(ValueError, match="increments"):
            jet_oracle_triple(1.0, 1.0, 4, gbm_coefficients(), np.zeros(3))

    def test_coordinate_cap(self):
        with pytest.raises(ValueError, match="cap"):
            jet_oracle_triple(1.0, 1.0, 65, gbm_coefficients(), np.zeros(65))

    @pytest.mark.parametrize("coeffs", [gbm_coefficients(), additive_coefficients(), _linear_sigma()])
    def test_commutation_to_roundoff(self, coeffs):
        # the production recursion on 64 paths, each replayed by the jet oracle
        rng = chunk_rng(31, 0)
        for n in (1, 4, 16, 32):
            inc = rng.normal(0.0, math.sqrt(1.0 / n), size=(n, 64))
            x, g, a = euler_triple_paths(1.0, 1.0, n, coeffs, inc)
            assert _finite(x, g, a).all()
            for j in range(64):
                o = jet_oracle_triple(1.0, 1.0, n, coeffs, inc[:, j])
                assert _rel(x[j], o.x[0]) < 1e-10
                assert _rel(g[j], o.gamma[0, 0]) < 1e-10
                assert _rel(a[j], o.a[0]) < 1e-10


class TestExactSolutionCrossCheck:
    """Euler triple vs the closed-form GBM triple on coupled increments.

    X and Γ converge weakly at order one.  A is centered for both routes
    (its mean vanishes identically), so the weak error is measured on A²
    instead, and the signed mean of A's difference is checked to be noise.
    """

    def test_weak_order_one_on_coupled_paths(self):
        vol, drift, T, x0 = 0.3, 0.05, 1.0, 1.0
        n_paths, fine = 150_000, 32
        rng = chunk_rng(17, 0)
        db_fine = rng.normal(0.0, math.sqrt(T / fine), size=(n_paths, fine))
        bt = db_fine.sum(axis=1)
        x_ex = x0 * np.exp((drift - 0.5 * vol**2) * T + vol * bt)
        g_ex = vol**2 * x_ex**2 * T
        a_ex = -0.5 * vol * x_ex * bt + 0.5 * vol**2 * x_ex * T

        errs = {"x": [], "gamma": [], "a2": []}
        ns = (4, 8, 16, 32)
        for n in ns:
            db = db_fine.reshape(n_paths, n, fine // n).sum(axis=2)
            h = T / n
            x = np.full(n_paths, x0)
            g = np.zeros(n_paths)
            a = np.zeros(n_paths)
            for k in range(n):
                d = db[:, k]
                sig = vol * x
                lin = 1.0 + vol * d + drift * h
                x, g, a = (
                    x + sig * d + drift * x * h,
                    lin * lin * g + sig * sig * h,
                    a + (-0.5 * sig + vol * a) * d + drift * a * h,
                )
            errs["x"].append(abs(float(np.mean(x - x_ex))))
            errs["gamma"].append(abs(float(np.mean(g - g_ex))))
            errs["a2"].append(abs(float(np.mean(a * a - a_ex * a_ex))))
            # signed mean of the A difference is statistically zero
            da = a - a_ex
            z = float(np.mean(da)) / (float(np.std(da, ddof=1)) / math.sqrt(n_paths))
            assert abs(z) < 4.0

        ln = np.log(np.asarray(ns, dtype=float))
        design = np.vstack([ln, np.ones_like(ln)]).T
        for key in errs:
            slope = float(np.linalg.lstsq(design, np.log(errs[key]), rcond=None)[0][0])
            assert -1.3 < slope < -0.7, (key, slope, errs[key])
