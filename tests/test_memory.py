"""Peak memory of a run is set by its batch, not by the temporaries of
sampling and reduction.

One child process runs four CLI commands at N = 10⁵ and then the same four
at N = 10⁶.  Peak RSS is read with getrusage(RUSAGE_SELF), which counts
that process only, so its growth between the two rounds is what the larger
batches cost.  A build that concatenated its chunks, or an estimator that
formed N-sized weight or kernel arrays, would grow by two batches or more.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dirichlet_mc.streams import CHUNK_SIZE

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = r"""
import contextlib, dataclasses, io, json, os, resource, sys, tempfile
from dirichlet_mc.cli import cli_main
from dirichlet_mc.scenarios import get_scenario

RUNS = [
    ("lognormal", ["density", "--estimator", "direct"]),
    ("lognormal", ["density", "--estimator", "shifted", "--epsilons", "0.01"]),
    ("lognormal", ["check-identities"]),
    ("gaussian_pair", ["density", "--estimator", "conditional"]),
]

def bytes_per_row(name):
    b = get_scenario(name).build(1000, 1, 1)
    arrays = [getattr(b, f.name) for f in dataclasses.fields(b)]
    return sum(a.nbytes for a in arrays if hasattr(a, "nbytes")) / 1000

per_row = {name: bytes_per_row(name) for name, _ in RUNS}
out = []
with tempfile.TemporaryDirectory() as tmp:
    for n in (100_000, 1_000_000):
        for name, argv in RUNS:
            argv = argv + ["--scenario", name, "--samples", str(n), "--seed", "1",
                           "--out", os.path.join(tmp, "out.csv")]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli_main(argv) == 0, argv
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        out.append((peak, max(per_row[name] * n for name, _ in RUNS)))
print(json.dumps(out))
"""


def test_peak_rss_grows_with_the_batch_only():
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env.pop("DIRICHLET_MC_SEED", None)
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (peak_small, batch_small), (peak_large, batch_large) = json.loads(proc.stdout)
    ratio = (peak_large - peak_small) / (batch_large - batch_small)
    assert ratio <= 1.5, (ratio, peak_small, peak_large, batch_small, batch_large)


PAIR_IDENTITIES_CHILD = r"""
import contextlib, io, json, os, resource, tempfile
from dirichlet_mc.cli import cli_main

peaks = []
with tempfile.TemporaryDirectory() as tmp:
    for n in (100_000, 1_000_000):
        argv = ["check-identities", "--scenario", "gaussian_pair", "--samples", str(n),
                "--seed", "1", "--out", os.path.join(tmp, "out.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(argv) == 0, argv
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
print(json.dumps(peaks))
"""


def test_identity_suite_holds_four_columns():
    """check-identities holds X, Γ, A and Γ[X, Γ[X]] only, 32 B per sample,
    also for gaussian_pair, whose draw carries G and Γ[X, G] as well (a
    batch of all six columns is 48 B per sample).  So going from N = 10⁵ to
    10⁶ grows peak RSS by at most 1.25 × 32 B per added sample."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env.pop("DIRICHLET_MC_SEED", None)
    proc = subprocess.run([sys.executable, "-c", PAIR_IDENTITIES_CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    small, large = json.loads(proc.stdout)
    per_sample = (large - small) / 900_000
    assert per_sample <= 1.25 * 32, (per_sample, small, large)


STREAM_CHILD = r"""
import contextlib, io, json, os, resource, sys, tempfile
from dirichlet_mc.cli import cli_main

peaks = []
with tempfile.TemporaryDirectory() as tmp:
    for n in (100_000, 4_000_000):
        argv = ["density", "--scenario", "lognormal", "--estimator", "direct", "--samples", str(n),
                "--seed", "1", "--workers", sys.argv[1], "--out", os.path.join(tmp, "out.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(argv) == 0, argv
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
print(json.dumps(peaks))
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_streamed_density_peak_rss_does_not_grow_with_n(workers):
    """`density` reduces each chunk as it is drawn, so going from N = 10⁵ to
    4·10⁶ lognormal samples (a 125 MB batch of 32 B rows) grows peak RSS by
    less than 16 chunks of rows, a bound that does not depend on N."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env.pop("DIRICHLET_MC_SEED", None)
    proc = subprocess.run([sys.executable, "-c", STREAM_CHILD, workers], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    small, large = json.loads(proc.stdout)
    assert large - small < 16 * CHUNK_SIZE * 32, (small, large)


NESTED_CHILD = r"""
import contextlib, io, json, os, resource, sys, tempfile
from dirichlet_mc.cli import cli_main

command, workers = sys.argv[1], sys.argv[2]
peaks = []
with tempfile.TemporaryDirectory() as tmp:
    for n in (100_000, 4_000_000):
        if command == "compare":
            argv = ["compare", "--estimators", "shifted,plain_gamma,direct,centered",
                    "--epsilons", "0.2,0.1", "--samples", f"1000,{n // 3},{n}"]
        else:
            argv = ["sweep-variance", "--epsilons", "0.1,0.05", "--samples", str(n)]
        argv += ["--scenario", "lognormal", "--points", "0.5,1.0,2.0", "--seed", "1",
                 "--workers", workers, "--out", os.path.join(tmp, "out.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(argv) == 0, argv
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
print(json.dumps(peaks))
"""


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command", ["compare", "sweep-variance"])
def test_one_pass_commands_peak_rss_does_not_grow_with_n(command, workers):
    """compare (nested sizes up to N) and a Monte Carlo sweep-variance
    reduce one stream with all their reducers at once, so going from
    N = 10⁵ to 4·10⁶ lognormal samples grows peak RSS by less than 16
    chunks of 32 B rows, as for a streamed density."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env.pop("DIRICHLET_MC_SEED", None)
    proc = subprocess.run([sys.executable, "-c", NESTED_CHILD, command, workers], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    small, large = json.loads(proc.stdout)
    assert large - small < 16 * CHUNK_SIZE * 32, (small, large)
