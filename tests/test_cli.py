import argparse
import contextlib
import dataclasses
import io
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dirichlet_mc import cli, streams
from dirichlet_mc.cli import (
    BIAS_SLOPE_WINDOWS,
    EXIT_OK,
    EXIT_THRESHOLD,
    EXIT_VALIDATION,
    build_parser,
    cli_main,
)
from dirichlet_mc.estimators import ESTIMATORS, centered_direct_density, run_estimator
from dirichlet_mc.scenarios import SCENARIOS, Scenario, get_scenario


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestValidation:
    def test_unknown_scenario_exits_2(self, capsys):
        assert cli_main(["density", "--scenario", "nosuch"]) == EXIT_VALIDATION
        assert "known scenarios" in capsys.readouterr().err

    def test_unknown_estimator_exits_2(self, capsys):
        rc = cli_main(["density", "--scenario", "gaussian", "--estimator", "nope"])
        assert rc == EXIT_VALIDATION
        assert "valid:" in capsys.readouterr().err

    def test_kernel_estimator_needs_epsilon(self):
        rc = cli_main(["density", "--scenario", "gaussian", "--estimator", "shifted",
                       "--samples", "2000"])
        assert rc == EXIT_VALIDATION

    def test_bad_samples_string(self):
        rc = cli_main(["density", "--scenario", "gaussian", "--samples", "many"])
        assert rc == EXIT_VALIDATION

    def test_bad_points_string(self):
        rc = cli_main(["density", "--scenario", "gaussian", "--points", "a,b"])
        assert rc == EXIT_VALIDATION

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == EXIT_VALIDATION

    def test_negative_samples_exits_2(self, capsys):
        rc = cli_main(["density", "--scenario", "gaussian", "--samples", "-5"])
        assert rc == EXIT_VALIDATION
        assert "--samples must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("workers", ["0", "65"])
    def test_workers_outside_1_to_64_exits_2(self, workers, how, tmp_path, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("a rejected worker count must not reach the pool")

        monkeypatch.setattr(streams, "ThreadPoolExecutor", no_pool)
        argv = ["density", "--scenario", "gaussian", "--samples", "100000"]
        if how == "flag":
            argv += ["--workers", workers]
        else:
            (tmp_path / "run.cfg").write_text(f"workers = {workers}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert cli_main(argv) == EXIT_VALIDATION
        assert f"--workers must be in 1..64, got {workers}" in capsys.readouterr().err

    def test_unparsable_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = abc\n")
        rc = cli_main(["density", "--scenario", "gaussian", "--config", str(cfg)])
        assert rc == EXIT_VALIDATION
        assert "'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["direct", "shifted"])
    def test_non_finite_point_exits_2(self, estimator, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = cli_main(["density", "--scenario", "gaussian", "--estimator", estimator,
                       "--epsilons", "0.1", "--points", "0,nan", "--samples", "2000",
                       "--out", str(out)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "query point nan is not finite" in err and "no usable samples" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, value", [
        (["sweep-bias", "--scenario", "lognormal", "--points", "nan"], "nan"),
        (["sweep-bias", "--scenario", "lognormal", "--epsilons", "nan,0.1,0.05"], "nan"),
        (["sweep-bias", "--scenario", "lognormal", "--points", "inf"], "inf"),
        (["density", "--estimator", "regularized", "--epsilons", "inf", "--samples", "2000"],
         "inf"),
        (["compare", "--scenario", "lognormal", "--epsilons", "nan", "--samples", "2000"], "nan"),
    ])
    def test_non_finite_epsilon_or_sweep_point_exits_2(self, argv, value, tmp_path, capfd):
        # capfd: LAPACK prints its complaints on file descriptor 1
        out = tmp_path / "s.csv"
        rc = cli_main([*argv, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        captured = capfd.readouterr()
        assert captured.err.startswith("error:") and f"got {value}" in captured.err
        assert "DLASCL" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["compare", "--scenario", "lognormal", "--samples", "1e30"],
        ["density", "--scenario", "lognormal", "--samples", "99999999999999999999999"],
    ])
    def test_oversize_samples_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = cli_main([*argv, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "error: --samples must be" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_point_list_is_a_value(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = cli_main(["density", "--scenario", "gaussian", "--points", "-1,0,1",
                       "--samples", "2000", "--out", str(out)])
        assert rc == EXIT_OK
        xs = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert xs == [-1.0, 0.0, 1.0]


class TestDensityCommand:
    def test_direct_density_csv(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = cli_main([
            "density", "--scenario", "gaussian", "--estimator", "direct",
            "--points", "0", "--samples", "100000", "--seed", "1", "--out", str(out),
        ])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "x,estimate,std_error,reference"
        x, est, se, ref = (float(v) for v in lines[1].split(","))
        assert abs(est - 0.3989) < 4 * se + 1e-4
        assert "density gaussian/direct" in capsys.readouterr().out

    def test_strict_mode_passes_on_good_estimate(self):
        rc = cli_main([
            "density", "--scenario", "lognormal", "--estimator", "direct",
            "--points", "0.5,1,2", "--samples", "50000", "--seed", "2", "--strict",
        ])
        assert rc == EXIT_OK

    def test_non_finite_estimate_without_reference_fails_strict(self, monkeypatch, capsys):
        # no exact density, and a finite draw whose weight 2A/Γ overflows to
        # inf on every row, so the sign formula reads inf - inf = NaN: with
        # no reference to measure it against, --strict still exits 3 naming
        # the point, while a finite estimate without a reference passes
        def draw(rng, k):
            return rng.normal(size=k), np.full(k, 1e-10), np.full(k, 1e308), np.zeros(k)

        monkeypatch.setitem(SCENARIOS, "overflowing", Scenario("overflowing", "W is inf", draw))
        argv = ["density", "--scenario", "overflowing", "--estimator", "direct", "--points", "0.5",
                "--samples", "2000", "--seed", "1"]
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli_main(argv) == EXIT_OK
            assert cli_main(argv + ["--strict"]) == EXIT_THRESHOLD
        out = capsys.readouterr().out
        assert "(no reference)" in out
        assert "STRICT: at x = 0.5 the estimate or its standard error is not finite" in out
        assert cli_main(["density", "--scenario", "gbm_euler", "--estimator", "shifted",
                         "--epsilons", "0.05", "--samples", "2000", "--strict"]) == EXIT_OK

    def test_conditional_estimator(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = cli_main([
            "density", "--scenario", "gaussian_pair", "--estimator", "conditional",
            "--points", "0", "--samples", "50000", "--seed", "2", "--out", str(out),
        ])
        assert rc == EXIT_OK
        header, row = out.read_text().splitlines()
        assert header == "x,estimate,std_error,reference"
        assert row.count(",") == 3

    def test_quad_only_estimator_on_triple_scenario(self):
        rc = cli_main(["density", "--scenario", "gbm_euler", "--estimator", "direct",
                       "--samples", "2000"])
        assert rc == EXIT_VALIDATION


class TestSweepCommands:
    def test_bias_sweep_schema_and_strict(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = cli_main([
            "sweep-bias", "--scenario", "lognormal", "--estimator", "shifted",
            "--points", "1.0", "--out", str(out), "--strict",
        ])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,n,x,estimate,reference,abs_error,std_error"
        assert len(lines) == 5

    def test_variance_sweep_strict(self, tmp_path):
        out = tmp_path / "v.csv"
        rc = cli_main([
            "sweep-variance", "--scenario", "lognormal", "--points", "1.0",
            "--out", str(out), "--strict",
        ])
        assert rc == EXIT_OK
        assert out.read_text().splitlines()[0] == (
            "epsilon,n,x,estimate,reference,abs_error,std_error"
        )

    @pytest.mark.parametrize("argv", [
        ["--points=-0.3", "--epsilons", "0.4,0.2,0.1"],
        ["--points=-0.3", "--epsilons", "0.4,0.2,0.1", "--samples", "20000"],
        ["--points", "0,1", "--strict"],
    ])
    def test_variance_point_without_a_constant_exits_2(self, argv, tmp_path, capsys):
        # f(-0.3) = 0 once divided by zero; f(0) = γ(0) = 0 once passed --strict
        out = tmp_path / "v.csv"
        rc = cli_main(["sweep-variance", "--scenario", "lognormal", *argv, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_noise_rejected_with_diagnostic(self, capsys):
        rc = cli_main(["sweep-bias", "--scenario", "zero_noise"])
        assert rc == EXIT_VALIDATION
        assert "cannot drive" in capsys.readouterr().err

    def test_monte_carlo_bias_sweep_without_density_exits_2_before_drawing(
        self, monkeypatch, capsys
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(Scenario, "stream", no_draw)
        rc = cli_main(["sweep-bias", "--scenario", "gbm_euler", "--estimator", "shifted",
                       "--samples", "400000"])
        assert rc == EXIT_VALIDATION
        assert "no exact density" in capsys.readouterr().err

    # lognormal at x = 1: the kernel width is √ε, and the quadrature node
    # limit is 1e12 float64 spacings above 1, 2^-52 · 1e12 = 2.22e-4, a
    # width reached at ε = 4.93e-8
    @pytest.mark.parametrize("command,eps,named", [
        ("sweep-variance", "1e-7,5e-8", None),
        ("sweep-variance", "1e-7,4.9e-8", "epsilon=4.9e-08, x=1"),
        ("sweep-bias", "1e-12,5e-13", "epsilon=1e-12, x=1"),
    ])
    def test_kernel_below_node_spacing_exits_2(self, command, eps, named, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = cli_main([command, "--scenario", "lognormal", "--points", "1.0",
                       "--epsilons", eps, "--out", str(out)])
        err = capsys.readouterr().err
        if named is None:
            assert rc == EXIT_OK and out.exists() and not err
            return
        assert rc == EXIT_VALIDATION
        assert "node spacing" in err and named in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command,point,named", [
        ("sweep-bias", "-20", "epsilon=0.025, x=-20: the integration window"),
        ("sweep-bias", "1e300", "epsilon=0.2, x=1e+300: the integration window"),
        ("sweep-variance", "1e300", "query point 1e+300: the variance constant"),
    ])
    def test_point_outside_the_support_names_it_without_warnings(
        self, command, point, named, tmp_path, capsys
    ):
        # lognormal lives on (0, ∞); at 1e300, γ(x) = x² overflows, and any
        # numpy warning on the way fails this test
        out = tmp_path / "s.csv"
        rc = cli_main([command, "--scenario", "lognormal", f"--points={point}",
                       "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_monte_carlo_bias_within_noise_is_dropped_from_the_fit(self, tmp_path, capsys):
        # at N = 10^6 only ε = 0.1 has a bias above 3 standard errors, which
        # leaves nothing to fit (it used to print "fitted order 0.009")
        out = tmp_path / "b.csv"
        rc = cli_main(["sweep-bias", "--scenario", "lognormal", "--estimator", "shifted",
                       "--samples", "1000000", "--epsilons", "1e-1,1e-2,1e-3,1e-4",
                       "--seed", "1", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "fewer than two resolvable epsilons" in err
        for eps in ("0.01", "0.001", "0.0001"):
            assert f"epsilon={eps} dropped from the fit" in err
        assert "epsilon=0.1 dropped" not in err and "3x its standard error" in err
        assert not out.exists()


class TestIdentityCommand:
    def test_pass_and_csv(self, tmp_path):
        out = tmp_path / "i.csv"
        rc = cli_main([
            "check-identities", "--scenario", "gaussian", "--samples", "30000",
            "--seed", "3", "--out", str(out), "--strict",
        ])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "scenario,check,n,statistic,threshold,passed"
        assert all(line.endswith("true") for line in lines[1:])

    def test_negative_control_exits_3_under_strict(self):
        rc = cli_main([
            "check-identities", "--scenario", "gaussian", "--samples", "30000",
            "--seed", "3", "--corrupt-a", "0.1", "--strict",
        ])
        assert rc == EXIT_THRESHOLD

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_negative_control_exits_2(self, value, tmp_path, capsys):
        # a NaN or infinite shift leaves no finite statistic to test
        out = tmp_path / "i.csv"
        rc = cli_main(["check-identities", "--scenario", "gaussian", "--samples", "1000",
                       f"--corrupt-a={value}", "--strict", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "corrupt_a must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_negative_control_from_config_exits_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("corrupt_a = nan\n")
        rc = cli_main(["check-identities", "--scenario", "gaussian", "--samples", "1000",
                       "--config", str(cfg), "--strict", "--out", str(tmp_path / "i.csv")])
        assert rc == EXIT_VALIDATION


class TestCompareCommand:
    def test_compare_csv(self, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = cli_main([
            "compare", "--scenario", "lognormal", "--estimators", "shifted,direct",
            "--samples", "2000,5000", "--epsilons", "0.2,0.1", "--points", "1.0",
            "--seed", "5", "--out", str(out),
        ])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "estimator,epsilon,n,x,estimate,reference,abs_error,std_error"
        assert len(lines) == 5

    def test_centered_rows_equal_the_estimator(self, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = cli_main([
            "compare", "--scenario", "lognormal", "--estimators", "centered",
            "--samples", "3000", "--points", "0.5,1.0,2.0", "--seed", "6", "--out", str(out),
        ])
        assert rc == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        batch = get_scenario("lognormal").build(3000, 6, 1)
        ests = centered_direct_density(batch, [0.5, 1.0, 2.0])
        assert len(rows) == len(ests) == 3
        for row, e in zip(rows, ests):
            assert row[:3] == ["centered", "", str(e.n_used)]
            assert (float(row[3]), float(row[4]), float(row[7])) == (e.x, e.value, e.std_error)

    def test_conditional_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        rc = cli_main(["compare", "--scenario", "gaussian_pair", "--estimators", "conditional",
                       "--samples", "2000", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "does not estimate a density" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("estimators", ["direct,conditional", ","])
    def test_estimator_list_is_checked_before_sampling(self, estimators, tmp_path,
                                                       capsys, monkeypatch):
        def no_build(n, seed, workers):
            raise AssertionError("sampled before the estimator list was checked")

        sc = get_scenario("gaussian_pair")
        monkeypatch.setitem(SCENARIOS, sc.name, dataclasses.replace(sc, build=no_build))
        out = tmp_path / "cmp.csv"
        rc = cli_main(["compare", "--scenario", sc.name, "--estimators", estimators,
                       "--samples", "2000", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestFarPoints:
    @pytest.mark.parametrize("scenario", ["gaussian", "lognormal"])
    @pytest.mark.parametrize("argv", [
        ["density", "--estimator", "direct"],
        ["density", "--estimator", "shifted", "--epsilons", "0.1"],
        ["compare"],
    ])
    def test_far_point_runs_without_warnings(self, scenario, argv, tmp_path, capsys):
        # at 1e300 a kernel's exponent and the reference's x² overflow to
        # inf; both terms are exactly 0, and no numpy warning may show
        out = tmp_path / "far.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main(argv + ["--scenario", scenario, "--points=1e300,1", "--samples", "1000",
                                  "--out", str(out)])
        assert rc == EXIT_OK
        assert capsys.readouterr().err == ""
        far = out.read_text().splitlines()[1].split(",")
        assert float(far[-1 if argv[0] == "density" else 5]) == 0.0  # the reference

    @pytest.mark.parametrize("scenario", ["gaussian", "lognormal"])
    def test_zero_over_zero_passes_strict(self, scenario, capsys):
        # the far kernel row is 0 ± 0 against a reference of 0: z reads 0
        rc = cli_main(["density", "--scenario", scenario, "--estimator", "shifted",
                       "--epsilons", "0.1", "--points=1e300", "--samples", "1000", "--strict"])
        assert rc == EXIT_OK
        assert "worst |estimate-reference|/se = 0.00" in capsys.readouterr().out

    def test_nan_reference_fails_strict_naming_the_point(self, tmp_path, capsys):
        # the conditional oracle at 1e300 is 0/0; max(worst, nan) once kept
        # 0 and exited 0 under --strict
        out = tmp_path / "cond.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main(["density", "--scenario", "gaussian_pair", "--estimator", "conditional",
                           "--points=0,1e300", "--samples", "2000", "--seed", "3", "--strict",
                           "--out", str(out)])
        assert rc == EXIT_THRESHOLD
        printed = capsys.readouterr()
        assert printed.err == ""
        assert "worst |estimate-reference|/se = nan" in printed.out
        assert "STRICT: at x = 1e+300 " in printed.out
        assert out.read_text().splitlines()[2].endswith(",nan")

    def test_exact_estimate_off_the_reference_fails_strict(self, monkeypatch, capsys):
        # an estimate of 0 ± 0 against a nonzero reference is infinitely many
        # standard errors off
        sc = get_scenario("gaussian")
        monkeypatch.setitem(SCENARIOS, sc.name, dataclasses.replace(
            sc, exact_density=lambda x: np.full(np.shape(x), 1e-3)))
        rc = cli_main(["density", "--scenario", sc.name, "--estimator", "shifted",
                       "--epsilons", "0.1", "--points=1e300", "--samples", "1000", "--strict"])
        assert rc == EXIT_THRESHOLD
        assert "STRICT: at x = 1e+300 the estimate deviates inf" in capsys.readouterr().out


class TestNoWarningsAtExtremeInputs:
    """An overflow whose result already surfaces as 0, inf or a failing z
    prints no numpy warning, and the exit code stays what it is: a kernel
    at ε = 1e308 (its normaliser, and on lognormal and gaussian_pair the
    centre X + εA), (ε + Γ)² at ε = 1e200, compare and the Monte Carlo
    sweeps at ε = 1e308, and the identity suite with A shifted by 1e308."""

    @pytest.mark.parametrize("argv, rc", [
        (["density", "--scenario", "lognormal", "--estimator", "shifted",
          "--epsilons", "1e308"], EXIT_OK),
        (["density", "--scenario", "gaussian_pair", "--estimator", "plain_gamma",
          "--epsilons", "1e308"], EXIT_OK),
        (["density", "--scenario", "gaussian", "--estimator", "regularized",
          "--epsilons", "1e200"], EXIT_OK),
        (["compare", "--scenario", "lognormal", "--epsilons", "1e308"], EXIT_OK),
        (["sweep-bias", "--scenario", "lognormal", "--epsilons", "1e308,1e307"], EXIT_OK),
        (["sweep-variance", "--scenario", "lognormal", "--epsilons", "1e308,1e307"],
         EXIT_VALIDATION),
        (["check-identities", "--scenario", "poisson_mc_unit", "--corrupt-a", "1e308"], EXIT_OK),
    ], ids=["shifted", "plain_gamma", "regularized", "compare", "sweep_bias", "sweep_variance",
            "check_identities"])
    def test_no_runtime_warning(self, argv, rc, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = cli_main(argv + ["--samples", "2000", "--out", str(tmp_path / "out.csv")])
        assert got == rc
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "Warning" not in capsys.readouterr().err


class TestEstimatorNames:
    def test_unknown_name_message_is_shared(self, capsys):
        messages = []
        for argv in (["density", "--estimator", "nope", "--samples", "2000"],
                     ["compare", "--estimators", "direct,nope", "--samples", "2000"],
                     ["sweep-bias", "--estimator", "nope"]):
            assert cli_main(argv + ["--scenario", "lognormal"]) == EXIT_VALIDATION
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1] == messages[2]
        assert f"valid: {', '.join(ESTIMATORS)}" in messages[0]

    def test_bias_windows_cover_the_kernels(self):
        # derived from the table's bias orders; the thresholds are exactly these
        assert BIAS_SLOPE_WINDOWS == {"shifted": (1.7, 2.3), "plain_gamma": (0.7, 1.3),
                                      "plain_id": (0.7, 1.3)}

    @pytest.mark.parametrize("spelling", ["direct centered", "direct, centered",
                                          " direct,,centered "])
    def test_commas_or_spaces_separate_names(self, spelling, tmp_path):
        outs = []
        for i, names in enumerate(["direct,centered", spelling]):
            outs.append(tmp_path / f"c{i}.csv")
            rc = cli_main(["compare", "--scenario", "lognormal", "--estimators", names,
                           "--samples", "2000", "--out", str(outs[-1])])
            assert rc == EXIT_OK
        assert _read(outs[0]) == _read(outs[1])


class TestConfigAndEnvironment:
    def test_config_file_overrides_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nscenario = lognormal\nseed = 9\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        rc = cli_main([
            "density", "--scenario", "gaussian", "--estimator", "direct",
            "--points", "1.0", "--samples", "5000", "--seed", "1",
            "--config", str(cfg), "--out", str(out1),
        ])
        assert rc == EXIT_OK
        rc = cli_main([
            "density", "--scenario", "lognormal", "--estimator", "direct",
            "--points", "1.0", "--samples", "5000", "--seed", "9", "--out", str(out2),
        ])
        assert rc == EXIT_OK
        assert _read(out1) == _read(out2)

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_flag = 1\n")
        rc = cli_main(["density", "--scenario", "gaussian", "--samples", "2000",
                       "--config", str(cfg)])
        assert rc == EXIT_VALIDATION

    def test_env_seed_overrides(self, tmp_path, monkeypatch):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        monkeypatch.setenv("DIRICHLET_MC_SEED", "77")
        rc = cli_main(["density", "--scenario", "gaussian", "--estimator", "direct",
                       "--points", "0", "--samples", "5000", "--seed", "1",
                       "--out", str(out1)])
        assert rc == EXIT_OK
        monkeypatch.delenv("DIRICHLET_MC_SEED")
        rc = cli_main(["density", "--scenario", "gaussian", "--estimator", "direct",
                       "--points", "0", "--samples", "5000", "--seed", "77",
                       "--out", str(out2)])
        assert rc == EXIT_OK
        assert _read(out1) == _read(out2)

    def test_bad_env_seed_rejected(self, monkeypatch):
        monkeypatch.setenv("DIRICHLET_MC_SEED", "not-a-number")
        rc = cli_main(["density", "--scenario", "gaussian", "--samples", "2000"])
        assert rc == EXIT_VALIDATION


class TestDeterminism:
    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        outs = []
        for tag, workers in (("r1", "1"), ("r2", "1"), ("w4", "4")):
            out = tmp_path / f"{tag}.csv"
            rc = cli_main([
                "density", "--scenario", "poisson_mc_unit", "--estimator", "regularized",
                "--epsilons", "0.1", "--points", "1.0,2.0", "--samples", "60000",
                "--seed", "8", "--workers", workers, "--out", str(out),
            ])
            assert rc == EXIT_OK
            outs.append(_read(out))
        assert outs[0] == outs[1] == outs[2]


# -- fuzzed command lines ------------------------------------------------------

_JUNK = st.sampled_from(["nan", "inf", "-inf", "-0.0", "0", "-1", "1e-300", "1e300", "abc", ""])
_NUMBER = st.one_of(st.floats(-3.0, 3.0).map(repr), _JUNK)
_DECREASING = st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=4, unique=True).map(
    lambda v: ",".join(repr(e) for e in sorted(v, reverse=True)))
_FLOATS = st.lists(st.floats(-3.0, 3.0).map(repr), min_size=1, max_size=4).map(",".join)
_COUNT = st.integers(1000, 2000).map(str)
_SAMPLE_COUNT = st.one_of(
    st.integers(-5, 999).map(str),
    st.sampled_from(["quadrature", "many", "1e3", "nan", "inf", "1500.5", "1.5e3", ""]),
)
# a value every option accepts on its own (a run may still reject the
# combination, e.g. a scenario without quad data for direct) ...
_VALID = {
    "--scenario": st.sampled_from(sorted(SCENARIOS)),
    "--estimator": st.sampled_from(list(ESTIMATORS)),
    "--estimators": st.lists(st.sampled_from([n for n in ESTIMATORS if n != "conditional"]),
                             min_size=1, max_size=3, unique=True).map(",".join),
    "--epsilons": _DECREASING,
    "--points": _FLOATS,
    "--seed": st.integers(0, 99).map(str),
    "--workers": st.sampled_from(["1", "2"]),
    "--corrupt-a": st.floats(-3.0, 3.0).map(repr),
}
# ... and anything at all, valid or not
_OPTIONS = {
    "--scenario": st.sampled_from(sorted(SCENARIOS) + ["nosuch"]),
    "--estimator": st.sampled_from(list(ESTIMATORS) + ["nope"]),
    "--estimators": st.lists(st.sampled_from(list(ESTIMATORS) + ["nope"]), max_size=3).map(
        ",".join),
    "--epsilons": st.one_of(_DECREASING, st.lists(_NUMBER, max_size=4).map(",".join)),
    "--points": st.one_of(_FLOATS, st.lists(_NUMBER, max_size=4).map(",".join)),
    "--seed": st.one_of(st.integers(0, 99), st.integers(-5, 2**70), st.just("x")).map(str),
    "--workers": st.sampled_from(["1", "2"]),
    "--corrupt-a": _NUMBER,
}
_NOT_DRAWN = {"--samples", "--strict", "--out", "--config"}
# one token in eight is drawn from anything: invalid tokens stay a minority,
# so most runs pass validation and reach the estimators and sweeps
_ANYTHING = st.sampled_from([False] * 7 + [True])


def _subparsers():
    """Subcommand name -> its parser, read from the parser cli_main uses."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _option_sets():
    """Each subcommand's long options as its parser accepts them."""
    return {
        name: {s for a in p._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
        for name, p in _subparsers().items()
    }


@st.composite
def _argv(draw):
    options = _option_sets()
    commands = ["density", "sweep-bias", "sweep-variance", "check-identities", "compare"]
    command = "bogus" if draw(_ANYTHING) else draw(st.sampled_from(commands))
    flags = options.get(command, set().union(*options.values()))
    argv = [command]

    def value(valid, anything):
        return draw(anything if draw(_ANYTHING) else valid)

    for flag in draw(st.lists(st.sampled_from(sorted(flags - _NOT_DRAWN)), max_size=5,
                              unique=True)):
        valid = _VALID[flag]
        if command == "sweep-bias" and flag == "--estimator":
            valid = st.sampled_from(sorted(BIAS_SLOPE_WINDOWS))
        argv += [flag, value(valid, _OPTIONS[flag])]
    # a sample count on every call keeps each run at 2000 samples or fewer
    if command == "compare":
        counts = st.lists(_COUNT, min_size=1, max_size=2).map(",".join)
        argv += ["--samples", value(counts, st.lists(st.one_of(_COUNT, _SAMPLE_COUNT), min_size=1,
                                                      max_size=2).map(",".join))]
    elif command.startswith("sweep-"):  # half of them noise-free
        argv += ["--samples", value(st.sampled_from(["quadrature", "2000"]), _SAMPLE_COUNT)]
    else:
        argv += ["--samples", value(_COUNT, _SAMPLE_COUNT)]
    if "--strict" in flags and draw(st.booleans()):
        argv.append("--strict")
    if draw(_ANYTHING):
        argv.append(draw(st.sampled_from(["--bogus", "-x", "--points", "extra"])))
    return argv


class TestFuzzedArgv:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_argv())
    @example(["compare", "--samples", "inf,1000"])  # once an OverflowError traceback
    @example(["compare", "--estimators", "shifted", "--epsilons", ",", "--samples", "1000"])
    # a zero and a 0/0 variance constant: once a ZeroDivisionError, once exit 0 under --strict
    @example(["sweep-variance", "--scenario", "lognormal", "--points=-0.3",
              "--epsilons", "0.4,0.2,0.1"])
    @example(["sweep-variance", "--scenario", "lognormal", "--points", "0,1", "--strict"])
    def test_exit_code_contract(self, argv):
        """Any command line exits 0, 2 or 3 without raising, and a failed
        run leaves --out alone: nothing on exit 2, the complete report on
        exit 3 (a --strict threshold failure still writes what it measured)."""
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out.csv")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = cli_main(argv + ["--out", out])
            assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_THRESHOLD), (argv, rc)
            if rc == EXIT_VALIDATION:
                assert not os.path.exists(out), argv
                return
            assert os.path.exists(out), argv
            with open(out, encoding="ascii") as fh:
                lines = fh.read().split("\n")
            assert lines[-1] == "", argv
            width = lines[0].count(",")
            assert all(row.count(",") == width for row in lines[1:-1]), argv


class TestParserReuse:
    """cli_main parses with one parser per process; runs in a row must give
    what each gives alone with a freshly built parser."""

    def test_back_to_back_runs_match_fresh_parsers(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 4\npoints = 0.5,2\nestimator = centered\n")
        gbm = ["density", "--scenario", "gbm_exact", "--estimator", "shifted",
               "--epsilons", "0.4", "--samples", "20000", "--seed", "3"]
        small = ["--samples", "5000", "--seed", "1"]
        runs = [
            (gbm + ["--strict"], None),  # 6 standard errors of kernel bias: exit 3
            (gbm, None),
            (["density", "--scenario", "lognormal", "--config", str(cfg)] + small, None),
            (["density", "--scenario", "lognormal"] + small, None),
            (["density", "--scenario", "gaussian"] + small, "9"),
            (["density", "--scenario", "gaussian"] + small, None),
        ]

        def run(i, argv, env_seed):
            if env_seed is None:
                monkeypatch.delenv("DIRICHLET_MC_SEED", raising=False)
            else:
                monkeypatch.setenv("DIRICHLET_MC_SEED", env_seed)
            out = tmp_path / f"{i}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main(argv + ["--out", str(out)])
            return rc, _read(out)

        in_a_row = [run(i, argv, env) for i, (argv, env) in enumerate(runs)]
        assert build_parser() is build_parser()
        fresh = []
        for i, (argv, env) in enumerate(runs):
            build_parser.cache_clear()
            fresh.append(run(i, argv, env))
        assert in_a_row == fresh
        assert [rc for rc, _ in in_a_row] == [EXIT_THRESHOLD] + [EXIT_OK] * 5
        assert in_a_row[2][1] != in_a_row[3][1] and in_a_row[4][1] != in_a_row[5][1]


def _nan_first_row(draw):
    """draw with the first row of every chunk made non-finite."""
    def poisoned(rng, k):
        cols = draw(rng, k)
        cols[0][:1] = np.nan
        return cols
    return poisoned


class TestDensityCounts:
    """The summary line reports samples requested (n), kept, dropped as
    non-finite and excluded (kept - n_used, the largest over the queries)."""

    @pytest.mark.parametrize("scenario,estimator,poison", [
        ("poisson_mc_unit", "direct", False),  # the empty configuration has Γ = 0
        ("gaussian_pair", "conditional", False),
        ("lognormal", "centered", False),
        ("gbm_euler", "shifted", False),
        ("lognormal", "regularized", True),
        ("zero_noise", "plain_id", True),
    ])
    def test_counts_add_up(self, scenario, estimator, poison, tmp_path, capsys, monkeypatch):
        sc = get_scenario(scenario)
        if poison:
            sc = dataclasses.replace(sc, draw=_nan_first_row(sc.draw))
            monkeypatch.setitem(SCENARIOS, scenario, sc)
        n, points = 3 * 16384 + 7, list(sc.default_points)
        rc = cli_main(["density", "--scenario", scenario, "--estimator", estimator,
                       "--epsilons", "0.05", "--samples", str(n), "--seed", "2",
                       "--out", str(tmp_path / "d.csv")])
        assert rc == EXIT_OK
        counts = {k: int(v) for k, v in
                  re.findall(r"\b(n|kept|dropped|excluded)=(\d+)", capsys.readouterr().out)}
        assert counts["n"] == n == counts["kept"] + counts["dropped"]
        assert counts["dropped"] == (4 if poison else 0)
        ests = run_estimator(estimator, sc.stream(n, 2, 1), 0.05, points)
        for e in ests:
            assert e.n_used + counts["excluded"] == counts["kept"]
        if scenario == "poisson_mc_unit":
            assert counts["excluded"] > 0


# -- one command layer -----------------------------------------------------------

_RUN_OPTIONS = {"--scenario", "--samples", "--seed", "--workers", "--out", "--config"}
# the long options each subcommand reads: adding one to the parser fails
# test_option_sets until it is added here, and test_every_option_is_read
# fails until its command reads it
COMMAND_OPTIONS = {
    "list-scenarios": set(),
    "density": _RUN_OPTIONS | {"--estimator", "--epsilons", "--points", "--strict"},
    "sweep-bias": _RUN_OPTIONS | {"--estimator", "--epsilons", "--points", "--strict"},
    "sweep-variance": _RUN_OPTIONS | {"--epsilons", "--points", "--strict"},
    "check-identities": _RUN_OPTIONS | {"--corrupt-a", "--strict"},
    "compare": _RUN_OPTIONS | {"--estimators", "--epsilons", "--points"},
}
_SAMPLING_COMMANDS = ["density", "sweep-bias", "sweep-variance", "check-identities", "compare"]


class TestOptionSets:
    def test_option_sets(self):
        assert _option_sets() == COMMAND_OPTIONS

    def test_every_option_has_a_fuzz_value(self):
        assert set().union(*COMMAND_OPTIONS.values()) - _NOT_DRAWN == set(_OPTIONS)

    @pytest.mark.parametrize("command, argv", [
        ("list-scenarios", []),
        ("density", ["--points", "0", "--samples", "2000", "--strict"]),
        ("sweep-bias", ["--scenario", "lognormal", "--points", "1.0"]),
        ("sweep-variance", ["--scenario", "lognormal", "--points", "1.0"]),
        ("check-identities", ["--samples", "2000"]),
        ("compare", ["--scenario", "lognormal", "--estimators", "direct", "--samples", "2000",
                     "--points", "1.0"]),
    ])
    def test_every_option_is_read(self, command, argv, tmp_path, monkeypatch):
        read = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        class RecordingParser:
            def parse_args(self, argv):
                return Recording(**vars(parser.parse_args(argv)))

        parser = build_parser()
        monkeypatch.setattr(cli, "build_parser", RecordingParser)
        out = tmp_path / "o.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main([command, *argv] + (["--out", str(out)] if argv else []))
        assert rc == EXIT_OK
        dests = {a.dest for a in _subparsers()[command]._actions if a.option_strings}
        assert dests - {"help"} <= read

    @pytest.mark.parametrize("argv", [
        ["check-identities", "--epsilons", "0.1"],
        ["check-identities", "--points", "1"],
        ["compare", "--estimators", "direct", "--strict"],
        ["density", "--epsilon", "0.1"],
        ["sweep-bias", "--epsilon=0.1"],
        # abbreviations: once read as --epsilons and --estimators
        ["density", "--eps", "0.1"],
        ["compare", "--estimator", "direct"],
    ])
    def test_removed_spellings_exit_2(self, argv, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = cli_main([*argv, "--samples", "2000", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestConfigKeys:
    @pytest.mark.parametrize("command, text", [
        ("density", "command = bogus\n"),  # once a KeyError traceback
        ("density", "command = compare\n"),  # once an AttributeError traceback
        ("density", "handler = compare\n"),
        ("density", "help = 1\n"),
        ("density", "config = other.cfg\n"),
        ("density", "corrupt_a = 0.1\n"),
        ("density", "estimators = direct\n"),
        ("check-identities", "points = 1\n"),
        ("compare", "strict = true\n"),
        ("sweep-variance", "estimator = plain_gamma\n"),
    ])
    def test_key_that_is_no_option_of_the_command_exits_2(self, command, text, tmp_path,
                                                          capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "o.csv"
        rc = cli_main([command, "--samples", "2000", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_VALIDATION
        key = text.split()[0]
        assert f"config key {key!r} is not an option of {command}" in capsys.readouterr().err
        assert not out.exists()

    def test_keys_are_converted_as_their_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("corrupt-a = 0.1\nstrict = yes\nsamples = 3e4\nseed = 3\n")
        out = tmp_path / "o.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["check-identities", "--scenario", "gaussian", "--config", str(cfg),
                           "--out", str(out)])
        assert rc == EXIT_THRESHOLD
        assert {line.split(",")[2] for line in out.read_text().splitlines()[1:]} == {"30000"}


class TestSampleCounts:
    @pytest.mark.parametrize("command", _SAMPLING_COMMANDS)
    @pytest.mark.parametrize("count", ["2000.7", "1500.5", "9007199254740992.0", "1e16"])
    def test_non_integral_or_inexact_float_exits_2(self, command, count, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = cli_main([command, "--scenario", "lognormal", "--samples", count, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"--samples must be integers or integral floats below 2**53, got {count!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["density", "--scenario", "lognormal", "--points", "0.5,1"],
        ["compare", "--scenario", "lognormal", "--estimators", "shifted,direct",
         "--epsilons", "0.2,0.1", "--points", "1.0"],
    ])
    def test_float_literal_runs_as_its_integer(self, argv, tmp_path):
        outs = []
        for i, count in enumerate(("10000", "1e4", "10000.0")):
            out = tmp_path / f"{i}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main([*argv, "--samples", count, "--seed", "3", "--out", str(out)])
            assert rc == EXIT_OK
            outs.append(_read(out))
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("command", ["density", "sweep-bias", "check-identities"])
    def test_one_count_per_run(self, command, capsys):
        assert cli_main([command, "--samples", "2000,3000"]) == EXIT_VALIDATION
        assert f"{command} takes one --samples count" in capsys.readouterr().err


class TestEmptyLists:
    @pytest.mark.parametrize("command", _SAMPLING_COMMANDS)
    @pytest.mark.parametrize("empty", [",", ""])
    def test_empty_points_exits_2(self, command, empty, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = cli_main([command, "--scenario", "lognormal", "--points", empty,
                       "--samples", "2000", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "--points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["density", "sweep-bias", "sweep-variance", "compare"])
    def test_empty_epsilons_exits_2(self, command, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = cli_main([command, "--scenario", "lognormal", "--epsilons", ",",
                       "--samples", "2000", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "--epsilons is empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("empty", [",", "", " , "])
    def test_empty_estimators_exits_2(self, empty, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = cli_main(["compare", "--scenario", "lognormal", "--estimators", empty,
                       "--samples", "2000", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "--estimators is empty" in capsys.readouterr().err
        assert not out.exists()
