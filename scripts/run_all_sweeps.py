#!/usr/bin/env python3
"""Reproduce the headline convergence tables in one go.

Writes CSVs under results/ (created next to the working directory):

  bias_shifted.csv / bias_plain.csv   quadrature bias sweeps on the lognormal
                                      scenario: orders ~2 and ~1
  variance.csv                        kernel variance scaling with the
                                      reduced-form constant
  identities_<scenario>.csv           z-scores of the exact identities
  lln_gaussian_n{N}.csv               direct estimator at x = 0, one file per
                                      sample size N (standard error vs N)
  mse_vs_n.csv                        reported error table: kernel estimators
                                      at their best bandwidth vs the direct
                                      formula (no pass/fail attached)

Every run is seeded; rerunning the script reproduces the files byte for byte.
"""
from __future__ import annotations

import os
import sys

from dirichlet_mc.cli import cli_main

RESULTS = "results"

RUNS = [
    ["sweep-bias", "--scenario", "lognormal", "--estimator", "shifted",
     "--points", "1.0", "--out", f"{RESULTS}/bias_shifted.csv"],
    ["sweep-bias", "--scenario", "lognormal", "--estimator", "plain_gamma",
     "--points", "1.0", "--out", f"{RESULTS}/bias_plain.csv"],
    ["sweep-variance", "--scenario", "lognormal", "--points", "1.0",
     "--out", f"{RESULTS}/variance.csv"],
    *[
        ["check-identities", "--scenario", name, "--samples", "100000",
         "--seed", "7", "--out", f"{RESULTS}/identities_{name}.csv"]
        for name in ("gaussian", "lognormal", "triangular", "gaussian_pair", "poisson_mc_unit")
    ],
    *[
        ["density", "--scenario", "gaussian", "--estimator", "direct", "--points", "0",
         "--samples", str(n), "--seed", str(40 + i),
         "--out", f"{RESULTS}/lln_gaussian_n{n}.csv"]
        for i, n in enumerate((1_000, 10_000, 100_000))
    ],
    ["compare", "--scenario", "lognormal", "--estimators", "shifted,plain_gamma,plain_id,direct",
     "--samples", "1000,10000,100000", "--epsilons", "0.4,0.2,0.1,0.05,0.025",
     "--points", "0.5,1.0,2.0", "--seed", "11", "--out", f"{RESULTS}/mse_vs_n.csv"],
]


def main() -> int:
    os.makedirs(RESULTS, exist_ok=True)
    for argv in RUNS:
        print("$ dirichlet-mc " + " ".join(argv))
        rc = cli_main(argv)
        if rc != 0:
            print(f"command failed with exit code {rc}", file=sys.stderr)
            return rc
    print(f"\nall tables written under {RESULTS}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
