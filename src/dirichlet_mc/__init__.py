"""Monte Carlo simulation of random variables together with their square
field Γ[X] and generator A[X], and the density estimators those objects
enable: bias-reduced shifted kernels and sign-formula estimators that
converge at the law-of-large-numbers rate."""

from .coords import BasePoint, CoordinateSpec, custom, mc_unit, opaque, ou_gaussian, sample_base
from .jets import Jet2, jet_add, jet_apply_unary, jet_const, jet_mul, jet_scale, lift
from .operators import ErrorQuad, ErrorTriple, a_of, gamma_grad, gamma_of, quad_of, triple_of
from .wiener import SdeCoefficients, jet_oracle_triple, simulate_triple
from .poisson import PoissonFunctionalSpec, poisson_identity_check, poisson_mc_unit
from .estimators import (
    ConditionalEstimate,
    DensityEstimate,
    QuadBatch,
    TripleBatch,
    centered_direct_density,
    conditional_expectation,
    direct_density,
    plain_kernel_density,
    regularized_density,
    shifted_kernel_density,
)
from .quadrature import law_integral, quadrature_expectation
from .scenarios import SCENARIOS, Scenario, get_scenario
from .sweeps import (
    SweepConfig,
    SweepRow,
    compare_estimators,
    fit_loglog_slope,
    run_bias_sweep,
    run_identity_suite,
    run_variance_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BasePoint", "CoordinateSpec", "custom", "mc_unit", "opaque", "ou_gaussian",
    "sample_base", "Jet2", "jet_add", "jet_apply_unary", "jet_const", "jet_mul",
    "jet_scale", "lift", "ErrorQuad", "ErrorTriple", "a_of", "gamma_grad",
    "gamma_of", "quad_of", "triple_of", "SdeCoefficients",
    "jet_oracle_triple", "simulate_triple",
    "PoissonFunctionalSpec", "poisson_identity_check", "poisson_mc_unit",
    "ConditionalEstimate", "DensityEstimate", "QuadBatch",
    "TripleBatch", "centered_direct_density", "conditional_expectation",
    "direct_density", "plain_kernel_density",
    "regularized_density", "shifted_kernel_density", "law_integral",
    "quadrature_expectation", "SCENARIOS", "Scenario", "get_scenario",
    "SweepConfig", "SweepRow", "compare_estimators", "fit_loglog_slope",
    "run_bias_sweep", "run_identity_suite", "run_variance_sweep",
]
