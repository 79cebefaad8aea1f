"""Monte Carlo simulation of random variables together with their square
field Γ[X] and generator A[X], and the density estimators those objects
enable: bias-reduced shifted kernels and sign-formula estimators that
converge at the law-of-large-numbers rate."""

from .estimators import ESTIMATORS, DensityEstimate, QuadBatch, run_estimator
from .scenarios import SCENARIOS, get_scenario
from .sweeps import (
    SweepConfig,
    compare_estimators,
    run_bias_sweep,
    run_identity_suite,
    run_variance_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "SCENARIOS", "get_scenario",
    "QuadBatch", "DensityEstimate",
    "ESTIMATORS", "run_estimator",
    "SweepConfig", "run_bias_sweep", "run_variance_sweep", "run_identity_suite",
    "compare_estimators",
]
