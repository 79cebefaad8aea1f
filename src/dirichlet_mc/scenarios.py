"""Built-in scenarios: named laws with simulatable (X, Γ, A, Γ[X,Γ[X]]).

Each scenario has a per-chunk draw, from which it builds a batch or opens
a stream (drawn chunk by chunk as an estimator reduces it), and optionally
carries an exact density, the deterministic reduced forms γ(x), a(x) used
by the kernel sweeps, and a conditional-expectation oracle.  Draws are
vectorised closed forms of the functional calculus, the extended Euler
recursion or the Poisson point sums; a build holds the batch, a stream a
few chunks in flight.  A closed form evaluates each column from the terms
it already holds (Γ[X, Γ[X]] from Γ, cos² once), with no cube.  The
test suite feeds each closed-form draw a generator whose stream it
replays and re-derives every column from the drawn base coordinates
through its jet calculus (tests/calculus.py), so a draw cannot drift from
the calculus silently; the Euler and Poisson draws have their own oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .coords import unit_terms
from .estimators import QuadBatch, SampleStream
from .poisson import LAMBDA as _POISSON_LAMBDA, sample_poisson_arrays
from .quadrature import law_integral, normal_pdf, quadrature_expectation  # noqa: F401  (perfbench wraps it here)
from .streams import iter_chunks, sample_chunked
from .wiener import (
    additive_coefficients,
    gbm_coefficients,
    simulate_triple_batch,
    zero_noise_coefficients,
)

Density = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Scenario:
    """A named law together with everything the harness can know about it."""

    name: str
    description: str
    kind: str  # "quad" or "triple"
    draw: Callable[[np.random.Generator, int], tuple[np.ndarray, ...]]
    build: Optional[Callable[[int, int, int], QuadBatch]] = None  # default: from draw
    exact_density: Optional[Density] = None
    support: tuple[float, float] = (-math.inf, math.inf)
    mass_bounds: Optional[tuple[float, float]] = None
    gamma_of_x: Optional[Density] = None
    a_of_x: Optional[Density] = None
    cond_oracle: Optional[Callable[[float], float]] = None
    default_points: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        # The default build is remade from this draw, so that it follows
        # the draw through dataclasses.replace; a build given explicitly is
        # kept as it is.
        if self.build is None or (isinstance(self.build, partial) and self.build.func is _build):
            object.__setattr__(self, "build", partial(_build, self.draw))

    def stream(self, n: int, seed: int, workers: int) -> SampleStream:
        """The samples build(n, seed, workers) would hold, drawn chunk by
        chunk each time an estimator walks them."""
        return SampleStream(lambda: iter_chunks(n, seed, self.draw, workers), n, self.kind == "quad")

    @property
    def has_reduced_form(self) -> bool:
        return self.gamma_of_x is not None and self.a_of_x is not None

    def check_mass(self) -> float:
        """Exact densities must integrate to one over their support, to 1e-4."""
        if self.exact_density is None:
            raise ValueError(f"scenario {self.name} has no exact density")
        lo, hi = self.mass_bounds if self.mass_bounds else self.support
        mass = law_integral(self.exact_density, lo, hi, panels=512, order=12)
        if abs(mass - 1.0) > 1e-4:
            raise ValueError(f"exact density of {self.name} integrates to {mass:.6f}")
        return mass


def _build(draw, n: int, seed: int, workers: int) -> QuadBatch:
    """The whole batch of n samples of draw, gathered by sample_chunked."""
    return QuadBatch.from_raw(*sample_chunked(n, seed, draw, workers))


# -- per-chunk draws ---------------------------------------------------------

def _draw_gaussian(rng, k):
    g = rng.normal(size=k)
    return g, np.ones(k), -0.5 * g, np.zeros(k)


def _draw_lognormal(rng, k):
    g = rng.normal(size=k)
    x = np.exp(g)
    # X = e^u: Γ = X², A = X(1-u)/2, Γ[X,Γ[X]] = 2X³ = 2X·Γ
    gam = x * x
    return x, gam, 0.5 * x * (1.0 - g), 2.0 * x * gam


def _draw_gaussian_pair(rng, k):
    z = rng.normal(size=(k, 2))
    g1, g2 = np.ascontiguousarray(z.T)
    c, s = np.cos(g2), np.sin(g2)
    # Γ = 1 + cos²u₂ and ∂₂Γ = -2 sin u₂ cos u₂, so Γ[X,Γ[X]] = cos u₂·∂₂Γ
    # = -2 sin u₂ cos²u₂; G = sin u₂ has Γ[X,G] = cos²u₂
    c2 = c * c
    return (g1 + s, 1.0 + c2, -0.5 * g1 - 0.5 * g2 * c - 0.5 * s, -2.0 * s * c2, s, c2)


def _triangular_terms(u):
    # per coordinate of the unit structure: γ, a, and γ·γ' with γ' = 2a
    gam, a = unit_terms(u)
    return gam, a, (2.0 * a) * gam


def _draw_triangular(rng, k):
    u = rng.uniform(size=(k, 2))
    u0, u1 = u[:, 0], u[:, 1]
    g0, a0, q0 = _triangular_terms(u0)
    g1, a1, q1 = _triangular_terms(u1)
    return u0 + u1, g0 + g1, a0 + a1, q0 + q1


_GBM_VOL, _GBM_DRIFT, _GBM_T, _GBM_X0 = 0.3, 0.05, 1.0, 1.0
_GBM_STEPS = 16


def _draw_gbm_exact(rng, k):
    vol, drift, T, x0 = _GBM_VOL, _GBM_DRIFT, _GBM_T, _GBM_X0
    bt = rng.normal(0.0, math.sqrt(T), size=k)
    x = x0 * np.exp((drift - 0.5 * vol**2) * T + vol * bt)
    # Γ = σ²TX², so Γ[X,Γ[X]] = 2σ⁴T²X³ = 2σ²T·X·Γ
    gam = vol**2 * x**2 * T
    a = -0.5 * vol * x * bt + 0.5 * vol**2 * x * T
    return x, gam, a, 2.0 * vol**2 * T * x * gam


def _euler_draw(coeffs):
    def draw(rng, k):
        return simulate_triple_batch(_GBM_X0, _GBM_T, _GBM_STEPS, coeffs, k, rng)[:3]

    return draw


def _draw_poisson(rng, k):
    x, g, a, q, _ = sample_poisson_arrays(rng, k)
    return x, g, a, q


# -- densities and oracles ---------------------------------------------------

def _lognormal_density(x, mu: float = 0.0, sigma: float = 1.0):
    x = np.asarray(x, dtype=float)
    safe = np.maximum(x, 1e-300)
    val = np.exp(-0.5 * ((np.log(safe) - mu) / sigma) ** 2) / (
        safe * sigma * math.sqrt(2.0 * math.pi)
    )
    return np.where(x > 0, val, 0.0)


def _triangular_density(x):
    x = np.asarray(x, dtype=float)
    return np.where((x >= 0) & (x <= 1), x, np.where((x > 1) & (x <= 2), 2.0 - x, 0.0))


@lru_cache(maxsize=1)
def _pair_rule() -> tuple[np.ndarray, np.ndarray]:
    """sin of the 96 Hermite nodes of a standard Gaussian U₂, and their
    weights normalised to sum to one."""
    nodes, weights = np.polynomial.hermite.hermgauss(96)
    return np.sin(nodes * math.sqrt(2.0)), weights / math.sqrt(math.pi)


def _pair_moments(x) -> tuple[np.ndarray, np.ndarray]:
    """E[φ(x - sin U₂)] and E[sin U₂ φ(x - sin U₂)] at every x.

    The first coordinate is Gaussian given the second, so its density
    enters in closed form and the expectation over the second is a 96-node
    Hermite rule, evaluated as one (points × nodes) product."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sin_u, w = _pair_rule()
    phi = normal_pdf(x[:, None] - sin_u[None, :])
    return (w * phi).sum(axis=1), (w * (sin_u * phi)).sum(axis=1)


def pair_conditional_oracle(x: float) -> float:
    """E[sin(U₂) | U₁ + sin(U₂) = x] for independent standard Gaussians."""
    density, numerator = _pair_moments(x)
    return float(numerator[0] / density[0])


def _lognormal_gamma(x):
    return np.asarray(x, dtype=float) ** 2


def _lognormal_a(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * x * (1.0 - np.log(np.maximum(x, 1e-300)))


def _gbm_exact_gamma(x):
    return _GBM_VOL**2 * np.asarray(x, dtype=float) ** 2 * _GBM_T


def _gbm_exact_a(x):
    vol, drift, T, x0 = _GBM_VOL, _GBM_DRIFT, _GBM_T, _GBM_X0
    x = np.asarray(x, dtype=float)
    bt = (np.log(np.maximum(x, 1e-300) / x0) - (drift - 0.5 * vol**2) * T) / vol
    return -0.5 * vol * x * bt + 0.5 * vol**2 * x * T


_GBM_MU = math.log(_GBM_X0) + (_GBM_DRIFT - 0.5 * _GBM_VOL**2) * _GBM_T
_GBM_SIG = _GBM_VOL * math.sqrt(_GBM_T)


# -- registry ----------------------------------------------------------------

SCENARIOS: dict[str, Scenario] = {}


def _register(s: Scenario) -> Scenario:
    SCENARIOS[s.name] = s
    return s


_register(Scenario(
    name="gaussian",
    description="X = U for one standard Gaussian coordinate; Γ = 1, A = -U/2",
    kind="quad",
    draw=_draw_gaussian,
    exact_density=normal_pdf,
    mass_bounds=(-10.0, 10.0),
    gamma_of_x=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    a_of_x=lambda x: -0.5 * np.asarray(x, dtype=float),
    default_points=(-1.0, 0.0, 1.0),
))

_register(Scenario(
    name="lognormal",
    description="X = exp(U) for one standard Gaussian coordinate",
    kind="quad",
    draw=_draw_lognormal,
    exact_density=_lognormal_density,
    support=(0.0, math.inf),
    mass_bounds=(1e-9, 80.0),
    gamma_of_x=_lognormal_gamma,
    a_of_x=_lognormal_a,
    default_points=(0.5, 1.0, 2.0),
))

_register(Scenario(
    name="gaussian_pair",
    description="X = U₁ + sin(U₂) with tracked G = sin(U₂); nondegenerate (Γ, A) given X",
    kind="quad",
    draw=_draw_gaussian_pair,
    exact_density=lambda x: _pair_moments(x)[0],
    mass_bounds=(-12.0, 12.0),
    cond_oracle=pair_conditional_oracle,
    default_points=(-0.5, 0.0, 0.5),
))

_register(Scenario(
    name="triangular",
    description="X = U₀ + U₁ on the unit-square structure; Γ degenerates at the corners",
    kind="quad",
    draw=_draw_triangular,
    exact_density=_triangular_density,
    support=(0.0, 2.0),
    default_points=(0.5, 1.0, 1.5),
))

_register(Scenario(
    name="gbm_exact",
    description="terminal value of geometric Brownian motion built in closed form",
    kind="quad",
    draw=_draw_gbm_exact,
    exact_density=lambda x: _lognormal_density(x, _GBM_MU, _GBM_SIG),
    support=(0.0, math.inf),
    mass_bounds=(1e-9, 30.0),
    gamma_of_x=_gbm_exact_gamma,
    a_of_x=_gbm_exact_a,
    default_points=(0.8, 1.0, 1.3),
))

_register(Scenario(
    name="gbm_euler",
    description=f"extended Euler triple of the same GBM at n = {_GBM_STEPS} steps; "
    "its law differs from the exact one at O(1/n), so no exact density is attached",
    kind="triple",
    draw=_euler_draw(gbm_coefficients(_GBM_VOL, _GBM_DRIFT)),
    support=(0.0, math.inf),
    default_points=(0.8, 1.0, 1.3),
))

_register(Scenario(
    name="additive_euler",
    description="extended Euler triple with state-independent noise and linear drift",
    kind="triple",
    draw=_euler_draw(additive_coefficients()),
    default_points=(0.8, 1.1, 1.4),
))

_register(Scenario(
    name="zero_noise",
    description="σ = 0 degenerate case: X deterministic, Γ = A = 0",
    kind="triple",
    draw=_euler_draw(zero_noise_coefficients()),
    default_points=(math.e,),
))

_register(Scenario(
    name="poisson_mc_unit",
    description=f"X = N(identity) for a Poisson process of mean {_POISSON_LAMBDA:g} uniform "
    "points; the empty configuration is an atom, so density formulas are out of scope",
    kind="quad",
    draw=_draw_poisson,
    support=(0.0, math.inf),
    default_points=(1.0, 1.5, 2.0),
))


def at_points(fn: Density, points) -> list[float]:
    """A scenario function (an exact density, γ(x) or a(x)) at each query
    point; a far point that overflows reads ±inf, 0 or NaN without a numpy
    warning, for the caller's check to name it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [float(v) for v in fn(np.asarray(points, dtype=float))]


def get_scenario(name: str) -> Scenario:
    """The scenario of name; an unknown name is a ValueError listing the known ones."""
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r}; known scenarios: {known}")
    return SCENARIOS[name]


def corrupt_quad_batch(b: QuadBatch, a_shift: float) -> QuadBatch:
    """Shift A by a constant: the negative control that breaks centering."""
    return replace(b, a=b.a + a_shift)
