#!/usr/bin/env python3
"""Print one sha256 per (command, workers) for a fixed list of CLI runs.

The list holds the criterion-10 commands of the acceptance suite, `density`
for every scenario × estimator, `compare`, `density` and `check-identities`
at sizes that cross reduction-block boundaries (every estimator, and the
centered split at N // 2 inside a chunk; `check-identities` on every quad
scenario, gaussian_pair also with `--corrupt-a 0.1`), `compare` over unsorted and
repeated sizes that cross block boundaries, the quadrature and
Monte Carlo `sweep-bias`/`sweep-variance` runs (N = 50 001 among them), the quadrature sweeps
of the `oracles` benchmark workload down to its smallest ε, and the
command layer's input rules (a `1e4` sample count against `10000`, a
fractional count, an empty `--points` list and the option spellings no
command reads, and an `--estimators` list separated by spaces as well as
commas), a non-finite `--corrupt-a`, `check-identities` on the Euler
draws, which carry no Γ[X, Γ[X]], the three kernels on gaussian at
ε = 3e307, where (2π)·εΓ overflows, a Monte Carlo bias sweep on a
scenario without an exact density, quadrature sweeps at ε around and
below what the grid resolves, `density` and `compare` at a query point of
1e300, where every kernel term and reference is exactly 0, and `density`
for each sign formula at 300 unsorted points, 270 of them distinct, which
it bins in several groups with counts past 255, and `density` on each
Euler scenario at N = 81 923, five full chunks plus 3 rows, and the
kernel grids: `compare` over nine ε at five points and N = 32 775, a Monte
Carlo `sweep-variance` over five ε, `compare` on triangular and
gbm_exact, and `compare` and Monte Carlo `sweep-bias` at ε = 1e-29,
where ε decides which rows a block keeps.  Each command
runs in-process at `--workers 1` and `--workers 2`; a line reads

    <sha256 of the CSV, or "-" when none was written>  <exit code>  w<workers>  <tag>

so an exit-2 rejection is a pinned outcome too.  No CLI command reaches a
kernel in d ≥ 2, so library calls pin those: `shifted`, `plain_gamma` and
`plain_id` on seeded d = 2 and d = 3 batches with full covariances and one
rank-one row, one line each,

    <sha256 of the repr of the estimates>  -  lib  <tag>

and the same three on one seeded scalar (X, Γ, A) record with one zero Γ,
passed once as 1-d columns and once as (N, 1) and (N, 1, 1) columns, so
that both layouts print one hash (tags kernel_scalar_1d_* and
kernel_scalar_n1_*), and the three over three ε at four queries on the
d = 2 batch (tags kernel_d2_grid_*),

the mass `check_mass()` integrates for each exact density, printed
as its repr,

    <repr of the mass>  -  lib  mass_<scenario>

and the kernel-moment oracle's (m1, m2) at each query point, printed as
the repr of one tuple per (scenario, kernel, ε), an error class name
where the oracle rejects the point: on the gaussian closed-form grid of
tests/test_quadrature.py, and at ε = 1e-6 on lognormal and gbm_exact, so
that a change of the quadrature grid shows by name,

    <repr of the moments>  -  lib  moments_<scenario>_<kernel>_eps<ε>

and at order 10 on lognormal and gbm_exact over the ε = 0.2·2⁻ᵏ, k = 0…7,
of the oracles benchmark workload: a quadrature bias sweep integrates each
(x, ε) at orders 16 and 10, and their difference decides which ε it
fits,

    <repr of the moments>  -  lib  moments_<scenario>_<kernel>_eps<ε>_order10

Two trees produce the same outputs exactly when their outputs diff empty:

    PYTHONPATH=src python scripts/csv_digest.py > new.txt
    PYTHONPATH=/path/to/other/src python scripts/csv_digest.py > old.txt
    diff old.txt new.txt

The names below are spelled out rather than read from the package, so the
script runs unchanged against an older tree.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from dirichlet_mc.cli import cli_main
from dirichlet_mc.estimators import QuadBatch, plain_kernel_density, shifted_kernel_density
from dirichlet_mc.quadrature import kernel_moment_integral
from dirichlet_mc.scenarios import SCENARIOS

ESTIMATOR_NAMES = (
    "shifted", "plain_gamma", "plain_id", "direct", "regularized", "centered", "conditional",
)
KERNEL_NAMES = ESTIMATOR_NAMES[:3]

# the criterion-10 commands; tests/test_acceptance.py runs this list too
CRITERION_10 = {
    "c3_gaussian": ["density", "--scenario", "gaussian", "--estimator", "direct",
                    "--points=-1,0,1", "--samples", "100000", "--seed", "31"],
    "c3_lognormal": ["density", "--scenario", "lognormal", "--estimator", "direct",
                     "--points", "0.5,1,2", "--samples", "100000", "--seed", "32"],
    "c4_n3": ["density", "--scenario", "gaussian", "--estimator", "direct",
              "--points", "0", "--samples", "1000", "--seed", "41"],
    "c4_n5": ["density", "--scenario", "gaussian", "--estimator", "direct",
              "--points", "0", "--samples", "100000", "--seed", "43"],
    "c5_sweep": ["sweep-bias", "--scenario", "lognormal", "--estimator", "shifted",
                 "--points", "1.0", "--samples", "quadrature"],
    "c6_sweep": ["sweep-variance", "--scenario", "lognormal", "--points", "1.0",
                 "--samples", "quadrature"],
    "c7_identities_gaussian": ["check-identities", "--scenario", "gaussian",
                               "--samples", "100000", "--seed", "71"],
    "c7_identities_poisson": ["check-identities", "--scenario", "poisson_mc_unit",
                              "--samples", "100000", "--seed", "72"],
    "c8_regularized": ["density", "--scenario", "triangular", "--estimator", "regularized",
                       "--epsilons", "0.01", "--points", "1.0", "--samples", "100000",
                       "--seed", "81"],
    "c9_conditional": ["density", "--scenario", "gaussian_pair", "--estimator", "conditional",
                       "--points", "0", "--samples", "100000", "--seed", "91"],
}


def commands() -> dict[str, list[str]]:
    cmds = dict(CRITERION_10)
    for sc in sorted(SCENARIOS):
        for est in ESTIMATOR_NAMES:
            cmds[f"density_{sc}_{est}"] = [
                "density", "--scenario", sc, "--estimator", est, "--epsilons", "0.05",
                "--samples", "20000", "--seed", "5",
            ]
    compare = ["compare", "--samples", "1000,10000", "--epsilons", "0.4,0.2,0.1,0.05",
               "--seed", "11"]
    cmds["compare_lognormal_kernels_direct"] = compare + [
        "--scenario", "lognormal", "--estimators", "shifted,plain_gamma,plain_id,direct",
        "--points", "0.5,1.0,2.0"]
    cmds["compare_gaussian_regularized_shifted"] = compare + [
        "--scenario", "gaussian", "--estimators", "regularized,shifted,direct"]
    cmds["compare_lognormal_centered"] = compare + [
        "--scenario", "lognormal", "--estimators", "centered", "--points", "0.5,1.0,2.0"]
    cmds["compare_gaussian_conditional"] = compare + [
        "--scenario", "gaussian", "--estimators", "conditional"]
    # nested sizes: unsorted, repeated and across block boundaries, so each
    # row is a snapshot of one stream and the rows keep the given order
    nested = ["compare", "--samples", "16385,1000,50001,1000", "--epsilons", "0.4,0.2,0.1,0.05",
              "--seed", "11"]
    cmds["compare_nested_lognormal_kernels_sign"] = nested + [
        "--scenario", "lognormal", "--points", "0.5,1.0,2.0",
        "--estimators", "shifted,plain_gamma,plain_id,direct,regularized,centered"]
    cmds["compare_nested_gaussian_pair_centered"] = nested + [
        "--scenario", "gaussian_pair", "--estimators", "centered,direct,shifted"]
    for est in KERNEL_NAMES:
        for samples in ("quadrature", "20000", "50001"):
            cmds[f"sweep_bias_{est}_{samples}"] = [
                "sweep-bias", "--scenario", "lognormal", "--estimator", est,
                "--points", "0.5,1.0", "--samples", samples, "--seed", "6"]
    # one row past a block boundary and three blocks plus a partial one:
    # the per-block partials are merged across block boundaries
    for samples in ("16385", "50001"):
        for est in ("direct", "centered", "shifted"):
            cmds[f"blocks_{est}_{samples}"] = [
                "density", "--scenario", "lognormal", "--estimator", est, "--epsilons", "0.05",
                "--points", "0.5,1.0,2.0", "--samples", samples, "--seed", "7"]
        cmds[f"blocks_identities_{samples}"] = [
            "check-identities", "--scenario", "lognormal", "--samples", samples, "--seed", "7"]
        # the same sizes for the estimators the streamed blocking feeds
        # otherwise: regularized, conditional and the plain kernels on triples
        cmds[f"blocks_regularized_{samples}"] = [
            "density", "--scenario", "lognormal", "--estimator", "regularized", "--epsilons",
            "0.05", "--points", "0.5,1.0,2.0", "--samples", samples, "--seed", "7"]
        cmds[f"blocks_conditional_{samples}"] = [
            "density", "--scenario", "gaussian_pair", "--estimator", "conditional",
            "--points=-0.5,0.0,0.5", "--samples", samples, "--seed", "7"]
        for est in ("plain_gamma", "plain_id"):
            cmds[f"blocks_additive_euler_{est}_{samples}"] = [
                "density", "--scenario", "additive_euler", "--estimator", est, "--epsilons",
                "0.05", "--points", "0.8,1.1,1.4", "--samples", samples, "--seed", "7"]
    # centered splits at N // 2: at N = 2 into single rows, and inside a
    # chunk from N = C + 1 on (C = 16384)
    for samples in ("2", "16385", "32769", "49159"):
        cmds[f"centered_split_{samples}"] = [
            "density", "--scenario", "lognormal", "--estimator", "centered",
            "--points", "0.5,1.0,2.0", "--samples", samples, "--seed", "7"]
    # 300 unsorted points, 270 distinct and 30 repeated: the sign formulas
    # compare each block with the sorted distinct points a group at a time,
    # across group boundaries and with bin counts past 255
    for sc, est, lo, hi in (("lognormal", "direct", 0.01, 5.0),
                            ("lognormal", "regularized", 0.01, 5.0),
                            ("lognormal", "centered", 0.01, 5.0),
                            ("gaussian_pair", "conditional", -3.0, 3.0)):
        distinct = np.linspace(lo, hi, 270)
        points = np.concatenate([distinct[(97 * np.arange(270)) % 270], distinct[::9]])
        cmds[f"many_points_{sc}_{est}"] = [
            "density", "--scenario", sc, "--estimator", est, "--epsilons", "0.05",
            "--points=" + ",".join(repr(float(x)) for x in points), "--samples", "20000",
            "--seed", "5"]
    for samples in ("quadrature", "20000", "50001"):
        cmds[f"sweep_variance_{samples}"] = [
            "sweep-variance", "--scenario", "lognormal", "--points", "1.0",
            "--epsilons", "0.1,0.05,0.025", "--samples", samples, "--seed", "6"]
    # the quadrature grids of the oracle workload: ε down to 1.6e-3 on
    # gbm_exact and down to 1e-3 for the variance sweep, at default points
    for est in KERNEL_NAMES:
        cmds[f"sweep_bias_gbm_exact_{est}_quadrature"] = [
            "sweep-bias", "--scenario", "gbm_exact", "--estimator", est, "--strict",
            "--epsilons", ",".join(repr(0.2 * 2.0**-k) for k in range(8))]
    cmds["sweep_variance_lognormal_small_eps_quadrature"] = [
        "sweep-variance", "--scenario", "lognormal", "--strict",
        "--epsilons", ",".join(repr(float(e)) for e in np.geomspace(0.01, 0.001, 5))]
    # the sample-count rule: a float literal with an integral value runs as
    # its integer and a fraction exits 2; so do an empty list and the
    # spellings no command reads
    for count in ("10000", "1e4"):
        cmds[f"samples_{count}_density"] = [
            "density", "--scenario", "lognormal", "--points", "0.5,1.0", "--samples", count,
            "--seed", "3"]
        cmds[f"samples_{count}_compare"] = [
            "compare", "--scenario", "lognormal", "--estimators", "shifted,direct",
            "--epsilons", "0.2,0.1", "--points", "1.0", "--samples", count, "--seed", "3"]
    for command in ("density", "sweep-bias", "sweep-variance", "check-identities", "compare"):
        tag = command.replace("-", "_")
        cmds[f"samples_fraction_{tag}"] = [
            command, "--scenario", "lognormal", "--samples", "2000.7"]
        cmds[f"empty_points_{tag}"] = [
            command, "--scenario", "lognormal", "--points", ",", "--samples", "2000"]
    for tag, flag, value in (("epsilons", "--epsilons", "0.1"), ("points", "--points", "1")):
        cmds[f"check_identities_{tag}"] = [
            "check-identities", flag, value, "--samples", "2000"]
    cmds["compare_estimators_spaced"] = [
        "compare", "--scenario", "lognormal", "--estimators", "shifted direct, centered",
        "--epsilons", "0.2,0.1", "--points", "0.5,1.0", "--samples", "2000", "--seed", "3"]
    for sc in ("gaussian", "lognormal"):
        for est in ("direct", "shifted"):
            cmds[f"far_point_density_{sc}_{est}"] = [
                "density", "--scenario", sc, "--estimator", est, "--epsilons", "0.1",
                "--points=1e300,1", "--samples", "1000", "--seed", "3"]
        cmds[f"far_point_compare_{sc}"] = [
            "compare", "--scenario", sc, "--points=1e300,1", "--samples", "1000", "--seed", "3"]
    cmds["compare_strict"] = ["compare", "--estimators", "direct", "--strict", "--samples", "2000"]
    cmds["density_epsilon_alias"] = [
        "density", "--estimator", "regularized", "--epsilon", "0.1", "--samples", "2000"]
    # the identity suite on the quad scenarios the lines above leave out,
    # gaussian_pair among them (its draw carries G and Γ[X, G], which the
    # suite does not read), three blocks plus a partial one, and a finite
    # negative control on the pair
    for sc in ("gaussian_pair", "triangular", "gbm_exact"):
        cmds[f"identities_{sc}_50001"] = [
            "check-identities", "--scenario", sc, "--samples", "50001", "--seed", "7"]
    cmds["identities_gaussian_pair_corrupt_a_0.1"] = [
        "check-identities", "--scenario", "gaussian_pair", "--samples", "50001", "--seed", "7",
        "--corrupt-a", "0.1"]
    # a non-finite negative control exits 2 instead of passing on NaN z-scores
    for value in ("nan", "inf"):
        cmds[f"identities_corrupt_a_{value}"] = [
            "check-identities", "--scenario", "gaussian", "--samples", "1000",
            "--corrupt-a", value, "--strict"]
    # the identity suite on draws without Γ[X, Γ[X]] exits 2: it needs quad data
    for sc in ("gbm_euler", "zero_noise"):
        cmds[f"identities_{sc}_no_quad"] = [
            "check-identities", "--scenario", sc, "--samples", "2000", "--seed", "7"]
    # kernels at ε = 3e307, where (2π)·εΓ overflows though εΓ does not: the
    # normaliser is formed from separate roots, so the plain kernels read
    # about 7.3e-155 rather than 0
    for est in KERNEL_NAMES:
        cmds[f"kernel_normaliser_overflow_{est}"] = [
            "density", "--scenario", "gaussian", "--estimator", est, "--points", "0",
            "--samples", "2000", "--seed", "1", "--epsilons", "3e307"]
    # a Monte Carlo bias sweep without an exact density exits 2 before drawing
    cmds["sweep_bias_gbm_euler_monte_carlo"] = [
        "sweep-bias", "--scenario", "gbm_euler", "--estimator", "shifted",
        "--samples", "400000"]
    # kernels below the quadrature node limit (1e12 float64 spacings at the
    # kernel's centre): exit 2, where the smallest resolved ε still runs
    cmds["sweep_bias_unresolved_quadrature"] = [
        "sweep-bias", "--scenario", "lognormal", "--estimator", "shifted", "--points", "1.0",
        "--epsilons", "1e-12,5e-13"]
    for eps in ("1e-7,5e-8", "1e-8,5e-9", "1e-10,5e-11"):
        cmds[f"sweep_variance_tiny_eps_{eps.split(',')[0]}_quadrature"] = [
            "sweep-variance", "--scenario", "lognormal", "--points", "1.0", "--epsilons", eps]
    # the Euler draws at five full chunks plus 3 rows: at two workers more
    # chunks than the pool keeps in flight, and a last chunk of 3 paths
    for sc, est in (("gbm_euler", "shifted"), ("additive_euler", "plain_gamma"),
                    ("zero_noise", "plain_id")):
        cmds[f"euler_chunks_{sc}_{est}_81923"] = [
            "density", "--scenario", sc, "--estimator", est, "--epsilons", "0.05",
            "--samples", "81923", "--seed", "7"]
    # kernel grids: one compare over nine ε at five points, two blocks plus
    # 7 rows; a Monte Carlo variance sweep over five ε at three points; the
    # compare table on triangular and gbm_exact; and ε = 1e-29, where the
    # lognormal rows with Γ < 0.1 have εΓ below DEGENERATE_DET, so ε
    # decides which rows a block keeps
    cmds["compare_lognormal_nine_eps"] = [
        "compare", "--scenario", "lognormal", "--estimators", "shifted,plain_gamma,plain_id",
        "--epsilons", ",".join(repr(0.4 * 2.0**-k) for k in range(9)),
        "--points", "0.25,0.5,1.0,2.0,4.0", "--samples", "1000,32775", "--seed", "12"]
    cmds["sweep_variance_five_eps_50001"] = [
        "sweep-variance", "--scenario", "lognormal", "--points", "0.5,1.0,2.0",
        "--epsilons", "0.2,0.1,0.05,0.025,0.0125", "--samples", "50001", "--seed", "6"]
    for sc in ("triangular", "gbm_exact"):
        cmds[f"compare_{sc}_kernels_direct"] = compare + [
            "--scenario", sc, "--estimators", "shifted,plain_gamma,plain_id,direct"]
    cmds["compare_lognormal_eps_decides_usable"] = [
        "compare", "--scenario", "lognormal", "--estimators", "shifted,plain_gamma,plain_id",
        "--epsilons", "0.1,1e-29", "--points", "0.5,1.0,2.0", "--samples", "1000,32775",
        "--seed", "12"]
    # compare prints only each kernel's best ε; a Monte Carlo bias sweep
    # prints every ε's rows, 1e-29's usable count among them
    for est in ("shifted", "plain_gamma"):
        cmds[f"sweep_bias_{est}_eps_decides_usable"] = [
            "sweep-bias", "--scenario", "lognormal", "--estimator", est,
            "--epsilons", "0.8,0.4,1e-29", "--points", "0.5,1.0,2.0", "--samples", "32775",
            "--seed", "12"]
    return cmds


LIBRARY_KERNELS = {
    "shifted": lambda tb, eps, xs: shifted_kernel_density(tb, eps, xs),
    "plain_gamma": lambda tb, eps, xs: plain_kernel_density(tb, eps, xs, variant="gamma_cov"),
    "plain_id": lambda tb, eps, xs: plain_kernel_density(tb, eps, xs, variant="identity_cov"),
}


def kernel_batch(d: int, n: int = 20_000, seed: int = 12):
    """Seeded (X, Γ, A) in dimension d: covariances M Mᵀ + 0.1 I with M
    standard normal, and row 3 the rank-one v vᵀ, v = (1, -1[, 2]), whose
    factorisation meets an exact 0.  n crosses a reduction-block boundary."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, d, d))
    gamma = m @ m.transpose(0, 2, 1) + 0.1 * np.eye(d)
    v = np.array([1.0, -1.0, 2.0][:d])
    gamma[3] = np.outer(v, v)
    return QuadBatch(rng.normal(size=(n, d)), gamma, rng.normal(size=(n, d)))


def scalar_batches(n: int = 20_000, seed: int = 13) -> dict:
    """One seeded scalar (X, Γ, A) record, row 3 with Γ = 0, by layout:
    1-d columns, and (N, 1), (N, 1, 1) columns."""
    rng = np.random.default_rng(seed)
    x, gamma, a = rng.normal(size=n), rng.uniform(0.5, 2.0, n), rng.normal(size=n)
    gamma[3] = 0.0
    return {"1d": QuadBatch(x, gamma, a),
            "n1": QuadBatch(x[:, None], gamma[:, None, None], a[:, None])}


def library_digests():
    """(sha256 of the repr of the estimates, tag) per library kernel call:
    d = 2 and 3, then the scalar record in both layouts."""
    calls = []
    for d in (2, 3):
        xs = np.array([np.zeros(d), np.linspace(0.5, -0.5, d), np.linspace(-1.5, 1.0, d)])
        calls.append((f"d{d}", kernel_batch(d), xs))
    calls += [(f"scalar_{layout}", tb, [-1.0, 0.0, 0.5, 2.0])
              for layout, tb in scalar_batches().items()]
    for tag, tb, xs in calls:
        for name, call in LIBRARY_KERNELS.items():
            got = repr(call(tb, 0.1, xs))
            yield hashlib.sha256(got.encode()).hexdigest(), f"kernel_{tag}_{name}"


GRID_EPSILONS = (0.4, 0.1, 0.025)


def grid_digests():
    """(sha256 of the repr of the per-ε estimates, tag) per library kernel
    over three ε at four queries on the d = 2 batch: one call over the
    grid, or on a tree whose kernels take one ε per call (a grid is a
    TypeError there), one call per ε, which must print the same hash."""
    tb = kernel_batch(2)
    xs = np.array([[0.0, 0.0], [0.5, -0.5], [-1.5, 1.0], [1.0, 1.0]])
    for name, call in LIBRARY_KERNELS.items():
        try:
            got = call(tb, GRID_EPSILONS, xs)
        except TypeError:
            got = [call(tb, eps, xs) for eps in GRID_EPSILONS]
        yield hashlib.sha256(repr(got).encode()).hexdigest(), f"kernel_d2_grid_{name}"


def mass_lines():
    """(repr of check_mass(), tag) per scenario with an exact density."""
    for name in ("gaussian", "lognormal", "gaussian_pair", "triangular", "gbm_exact"):
        yield repr(SCENARIOS[name].check_mass()), f"mass_{name}"


# (shift, identity_cov) of each kernel
MOMENT_KERNELS = {"shifted": (True, False), "plain_gamma": (False, False),
                  "plain_id": (False, True)}
GAUSSIAN_EPSILONS = (1e-6, 1e-4, 1e-2, 0.2, 10.0, 100.0, 1e3, 1e4)


# the ε of the oracles benchmark workload's quadrature bias sweeps
ORACLES_EPSILONS = tuple(0.2 * 2.0**-k for k in range(8))


def moment_lines():
    """(repr of (m1, m2) per query point, tag) per (scenario, kernel, ε),
    at the default order, and at order 10, the coarse rule a quadrature
    bias sweep checks each ε against."""
    cases = [("gaussian", est, eps, (0.0, 1.0, 3.0), 16)
             for est in ("shifted", "plain_gamma") for eps in GAUSSIAN_EPSILONS]
    cases += [(name, est, 1e-6, SCENARIOS[name].default_points, 16)
              for name in ("lognormal", "gbm_exact") for est in MOMENT_KERNELS]
    cases += [(name, est, eps, SCENARIOS[name].default_points, 10)
              for name in ("lognormal", "gbm_exact") for est in MOMENT_KERNELS
              for eps in ORACLES_EPSILONS]
    for name, est, eps, points, order in cases:
        sc = SCENARIOS[name]
        shift, identity_cov = MOMENT_KERNELS[est]
        got = []
        for x in points:
            try:
                got.append(kernel_moment_integral(
                    x, eps, sc.exact_density, sc.gamma_of_x, sc.a_of_x, sc.support,
                    shift=shift, identity_cov=identity_cov, power=(1, 2), order=order))
            except ValueError as exc:
                got.append(type(exc).__name__)
        yield repr(tuple(got)), f"moments_{name}_{est}_eps{eps:g}" + (
            "" if order == 16 else f"_order{order}")


def run_command(argv: list[str], workdir: str) -> tuple[int, bytes | None]:
    """Run the CLI command argv in-process, its output silenced and its CSV
    written into workdir: its exit code and the CSV's bytes, None when it
    wrote none."""
    out = os.path.join(workdir, "out.csv")
    if os.path.exists(out):
        os.remove(out)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(argv + ["--out", out])
    if not os.path.exists(out):
        return rc, None
    with open(out, "rb") as fh:
        return rc, fh.read()


def digest(argv: list[str], workdir: str) -> tuple[str, int]:
    rc, text = run_command(argv, workdir)
    return ("-" if text is None else hashlib.sha256(text).hexdigest()), rc


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for tag, argv in commands().items():
            for workers in ("1", "2"):
                sha, rc = digest(argv + ["--workers", workers], workdir)
                print(f"{sha}  {rc}  w{workers}  {tag}", flush=True)
    for sha, tag in library_digests():
        print(f"{sha}  -  lib  {tag}", flush=True)
    for sha, tag in grid_digests():
        print(f"{sha}  -  lib  {tag}", flush=True)
    for mass, tag in mass_lines():
        print(f"{mass}  -  lib  {tag}", flush=True)
    for moments, tag in moment_lines():
        print(f"{moments}  -  lib  {tag}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
