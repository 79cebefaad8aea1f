"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Criterion 8's convergence clause is implemented exactly as
stated and marked as an expected failure: the regularised estimator's
deterministic gap at ε = 0.01 on the triangular scenario is ~0.25
(the corner degeneracy of the weight makes the limit approach O(√ε)),
which no Monte Carlo standard error at N = 10^5 can absorb.  See
test_criterion_8_convergence for the measured numbers.
"""
import importlib.util
import math
import time
from pathlib import Path

import numpy as np
import pytest

from dirichlet_mc.cli import cli_main
from dirichlet_mc.estimators import (
    QuadBatch,
    conditional_expectation,
    direct_density,
    regularized_density,
)
from dirichlet_mc.scenarios import get_scenario, pair_conditional_oracle
from dirichlet_mc.streams import chunk_rng
from dirichlet_mc.sweeps import (
    SweepConfig,
    fit_loglog_slope,
    run_bias_sweep,
    run_identity_suite,
    run_variance_sweep,
)
from dirichlet_mc.wiener import additive_coefficients, gbm_coefficients

from calculus import a_of, gamma_of, jet_oracle_triple, quad_of, sample_base
from functionals import random_functional, random_specs
from oracles import fd_a, fd_gamma, fd_gamma_x_gammax, rel_err, simulate_triple


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, limit: float | None):
    budget = f", {elapsed:.1f}s" + (f" < {limit:.0f}s" if limit else "")
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}{budget}")


def test_criterion_1_commutation_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for coeffs in (gbm_coefficients(), additive_coefficients()):
        rng = chunk_rng(1001, 0)
        for n in (1, 4, 16, 32):
            for _ in range(100):
                triple, inc = simulate_triple(1.0, 1.0, n, coeffs, rng)
                oracle = jet_oracle_triple(1.0, 1.0, n, coeffs, inc)
                for a, b in (
                    (triple.x[0], oracle.x[0]),
                    (triple.gamma[0, 0], oracle.gamma[0, 0]),
                    (triple.a[0], oracle.a[0]),
                ):
                    worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _report(1, "commutation exactness", ok, f"worst rel err {worst:.2e} over 800 paths", elapsed, 10)
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_2_functional_calculus_oracles():
    t0 = time.perf_counter()
    rng = chunk_rng(2002, 0)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 5))
        specs = random_specs(rng, m)
        _, jet_fn, val_fn = random_functional(rng, m)
        base = sample_base(specs, rng)
        j = jet_fn(base)
        worst = max(
            worst,
            rel_err(gamma_of(j, j, base), fd_gamma(val_fn, base)),
            rel_err(a_of(j, base), fd_a(val_fn, base)),
            rel_err(quad_of(j, base).gamma_x_gammax, fd_gamma_x_gammax(val_fn, base)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 5.0
    _report(2, "finite-difference oracle equivalence", ok,
            f"worst rel err {worst:.2e} over 20 randomized functionals", elapsed, 5)
    assert worst < 1e-5
    assert elapsed < 5.0


def test_criterion_3_direct_formula_correctness():
    t0 = time.perf_counter()
    worst_z = 0.0
    for name, points in (("gaussian", (-1.0, 0.0, 1.0)), ("lognormal", (0.5, 1.0, 2.0))):
        sc = get_scenario(name)
        batch = sc.build(100_000, 3003, 1)
        for est in direct_density(batch, list(points)):
            ref = float(sc.exact_density(np.array([est.x]))[0])
            worst_z = max(worst_z, abs(est.value - ref) / est.std_error)
    elapsed = time.perf_counter() - t0
    ok = worst_z < 4.0 and elapsed < 30.0
    _report(3, "direct formula correctness", ok,
            f"worst |estimate-exact|/se = {worst_z:.2f} at N=10^5", elapsed, 30)
    assert worst_z < 4.0
    assert elapsed < 30.0


def test_criterion_4_lln_rate():
    t0 = time.perf_counter()
    sc = get_scenario("gaussian")
    pts = []
    for i, n in enumerate((1_000, 10_000, 100_000)):
        batch = sc.build(n, 4004 + i, 1)
        pts.append((float(n), direct_density(batch, [0.0])[0].std_error))
    slope = fit_loglog_slope(pts)
    elapsed = time.perf_counter() - t0
    ok = abs(slope + 0.5) <= 0.1
    _report(4, "law-of-large-numbers rate", ok, f"std-error slope {slope:.3f} vs -0.5 ± 0.1",
            elapsed, None)
    assert abs(slope + 0.5) <= 0.1


def test_criterion_5_bias_order():
    t0 = time.perf_counter()
    eps = (0.2, 0.1, 0.05, 0.025)
    shifted = run_bias_sweep(SweepConfig("lognormal", "shifted", eps, "quadrature", (1.0,)))
    plain = run_bias_sweep(SweepConfig("lognormal", "plain_gamma", eps, "quadrature", (1.0,)))
    elapsed = time.perf_counter() - t0
    ok = 1.7 <= shifted.slope <= 2.3 and 0.7 <= plain.slope <= 1.3 and elapsed < 10.0
    _report(5, "bias order", ok,
            f"shifted slope {shifted.slope:.3f} in [1.7, 2.3]; "
            f"plain slope {plain.slope:.3f} in [0.7, 1.3]", elapsed, 10)
    assert 1.7 <= shifted.slope <= 2.3
    assert 0.7 <= plain.slope <= 1.3
    assert elapsed < 10.0


def test_criterion_6_variance_scaling():
    t0 = time.perf_counter()
    res = run_variance_sweep(
        SweepConfig("lognormal", "shifted", (0.01, 10**-2.5, 0.001), "quadrature", (1.0,))
    )
    rel = abs(res.constant - 0.112540) / 0.112540
    elapsed = time.perf_counter() - t0
    ok = -0.65 <= res.slope <= -0.35 and rel <= 0.05 and elapsed < 30.0
    _report(6, "variance scaling", ok,
            f"log-var slope {res.slope:.3f} in [-0.65, -0.35]; "
            f"sqrt(eps)*Var = {res.constant:.6f} within {100 * rel:.2f}% of 0.112540",
            elapsed, 30)
    assert -0.65 <= res.slope <= -0.35
    assert rel <= 0.05
    assert elapsed < 30.0


IDENTITY_SCENARIOS = ("gaussian", "lognormal", "triangular", "gaussian_pair", "poisson_mc_unit")


def test_criterion_7_identity_suite():
    t0 = time.perf_counter()
    worst = {}
    for name in IDENTITY_SCENARIOS:
        rep = run_identity_suite(name, 100_000, seed=7007)
        worst[name] = max(abs(z) for z in rep.z_scores.values())
        assert rep.passed, (name, rep.z_scores)
    fault = run_identity_suite("gaussian", 100_000, seed=7007, corrupt_a=0.1)
    fault_z = max(abs(z) for z in fault.z_scores.values())
    elapsed = time.perf_counter() - t0
    ok = all(v <= 4.0 for v in worst.values()) and fault_z > 4.0
    _report(7, "identity suite", ok,
            f"worst |z| per scenario {({k: round(v, 2) for k, v in worst.items()})}; "
            f"fault control |z| = {fault_z:.1f} > 4", elapsed, None)
    assert fault_z > 4.0


def _triangular_regularized_curve():
    sc = get_scenario("triangular")
    batch = sc.build(100_000, 8008, 1)
    return [regularized_density(batch, e, [1.0])[0] for e in (0.1, 0.03, 0.01)]


def test_criterion_8_monotonicity():
    t0 = time.perf_counter()
    ests = _triangular_regularized_curve()
    gaps = []
    ok = True
    for lo_eps, hi_eps in zip(ests[1:], ests[:-1]):
        slack = 2.0 * math.hypot(lo_eps.std_error, hi_eps.std_error)
        gaps.append(lo_eps.value - hi_eps.value)
        ok = ok and lo_eps.value >= hi_eps.value - slack
    elapsed = time.perf_counter() - t0
    _report(8, "regularized monotonicity", ok,
            "estimates rise as eps drops: "
            + " -> ".join(f"{e.value:.4f}" for e in ests)
            + f" (increments {['%.4f' % g for g in gaps]})", elapsed, None)
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="stated as: triangular regularized estimate at eps=0.01 within 4 standard "
    "errors of the exact density 1.0 at N=10^5.  The estimator is correct and the "
    "monotone limit holds, but the deterministic regularization gap at eps=0.01 is "
    "~0.25 (the weight degenerates at the unit-square corners, making the approach "
    "O(sqrt(eps)): 1 - pi*sqrt(eps/2) = 0.778 at eps=0.01), while 4 standard errors "
    "at N=10^5 is ~0.011.  No implementation of the stated formula can satisfy this; "
    "at eps=1e-5 the same estimator does match the density (see scenario tests).",
)
def test_criterion_8_convergence_at_stated_epsilon():
    t0 = time.perf_counter()
    est = _triangular_regularized_curve()[-1]
    dev = abs(est.value - 1.0)
    ok = dev <= 4.0 * est.std_error
    _report(8, "regularized convergence at eps=0.01 (stated tolerance)", ok,
            f"estimate {est.value:.4f} vs exact 1.0: gap {dev:.4f} vs 4se {4 * est.std_error:.4f}",
            time.perf_counter() - t0, None)
    assert ok


def test_criterion_9_conditional_expectation():
    t0 = time.perf_counter()
    sc = get_scenario("gaussian_pair")
    batch = sc.build(100_000, 9009, 1)
    ce = conditional_expectation(batch, [0.0])[0]
    oracle = pair_conditional_oracle(0.0)
    z = abs(ce.value - oracle) / ce.std_error
    # constant-G reduction must reproduce the direct estimator bit for bit
    ones = QuadBatch(batch.x, batch.gamma, batch.a, batch.gamma_x_gammax,
                     g=np.ones(batch.n), gamma_x_g=np.zeros(batch.n))
    red = conditional_expectation(ones, [0.3])[0]
    dd = direct_density(ones, [0.3])[0]
    bitwise = (red.numerator.value == dd.value and red.numerator.std_error == dd.std_error
               and red.value == 1.0)
    elapsed = time.perf_counter() - t0
    ok = z < 4.0 and bitwise
    _report(9, "conditional expectation", ok,
            f"E[G|X=0]: ratio {ce.value:.4f} vs oracle {oracle:.2e} (z = {z:.2f}); "
            f"G==1 reduction bitwise: {bitwise}", elapsed, None)
    assert z < 4.0
    assert bitwise


# criterion 10: byte-identical CSV across repeated runs and worker counts.
# The command list is defined once, in scripts/csv_digest.py, which also
# pins these commands' CSV from one tree to the next.
def _criterion_10_commands() -> dict[str, list[str]]:
    path = Path(__file__).resolve().parents[1] / "scripts" / "csv_digest.py"
    spec = importlib.util.spec_from_file_location("csv_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CRITERION_10


_DETERMINISM_COMMANDS = _criterion_10_commands()


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    all_ok = True
    for tag, argv in _DETERMINISM_COMMANDS.items():
        outputs = []
        for run, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{tag}_{run}.csv"
            rc = cli_main(argv + ["--workers", workers, "--out", str(out)])
            assert rc == 0, (tag, rc)
            outputs.append(out.read_bytes())
        same = outputs[0] == outputs[1] == outputs[2]
        all_ok = all_ok and same
        assert same, f"{tag}: output differs across runs/worker counts"
    elapsed = time.perf_counter() - t0
    _report(10, "determinism", all_ok,
            f"{len(_DETERMINISM_COMMANDS)} commands byte-identical over repeats and "
            "workers in {1, 4}", elapsed, None)
