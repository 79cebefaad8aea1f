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
