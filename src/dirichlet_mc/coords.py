"""Base coordinates of a product error structure, and the derivative check.

A coordinate carries a sampling law together with the three functions
that define its one-dimensional error structure: the weight γ(u) of the
square field operator, its derivative γ'(u), and the generator applied
to the identity, a(u).  The scenarios name the coordinates their closed
forms are built over, the quadrature oracle integrates over them, and the
Poisson functionals lift the structure of one to the point process.

Built-in structures:

  ou_gaussian(v)  centered Gaussian, γ(u) = v,           a(u) = -u/2
  mc_unit         uniform on [0,1],  γ(u) = u²(1-u)²,    a(u) = u(1-u)(1-2u)

fd_mismatch probes a stated derivative against a central difference; the
SDE coefficients and the Poisson point functions run it at construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

QuadRule = Callable[[int], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class CoordinateSpec:
    """One coordinate: a law plus the weight/generator functions of its structure.

    gamma, gamma_prime and gen_a accept scalars or numpy arrays.  quad_rule,
    when present, returns (nodes, weights) of a quadrature rule for
    expectations under the coordinate's law, normalised so the weights sum
    to one.
    """

    kind: str
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    gamma: Callable[[np.ndarray], np.ndarray]
    gamma_prime: Callable[[np.ndarray], np.ndarray]
    gen_a: Callable[[np.ndarray], np.ndarray]
    quad_rule: Optional[QuadRule] = None
    label: str = ""

    @property
    def is_opaque(self) -> bool:
        return self.kind == "opaque"

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.sampler(rng, 1)[0])

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.asarray(self.sampler(rng, n), dtype=float)


def ou_gaussian(variance: float) -> CoordinateSpec:
    """Centered Gaussian coordinate of the Ornstein-Uhlenbeck structure.

    γ(u) = variance, γ'(u) = 0, a(u) = -u/2.
    """
    if not variance > 0:
        raise ValueError("variance must be positive")
    v = float(variance)
    sd = math.sqrt(v)

    def rule(order: int) -> tuple[np.ndarray, np.ndarray]:
        x, w = np.polynomial.hermite.hermgauss(order)
        return x * math.sqrt(2.0 * v), w / math.sqrt(math.pi)

    return CoordinateSpec(
        kind="ou_gaussian",
        sampler=lambda rng, n: rng.normal(0.0, sd, size=n),
        gamma=lambda u: np.full_like(np.asarray(u, dtype=float), v),
        gamma_prime=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        gen_a=lambda u: -0.5 * np.asarray(u, dtype=float),
        quad_rule=rule,
        label=f"ou_gaussian({v:g})",
    )


def mc_unit() -> CoordinateSpec:
    """Uniform coordinate with weight γ(u) = u²(1-u)².

    The weight vanishes at both endpoints, which is what closes the
    structure on [0,1]; a(u) = γ'(u)/2 = u(1-u)(1-2u).
    """

    def rule(order: int) -> tuple[np.ndarray, np.ndarray]:
        x, w = np.polynomial.legendre.leggauss(order)
        return (x + 1.0) / 2.0, w / 2.0

    u_ = lambda u: np.asarray(u, dtype=float)
    return CoordinateSpec(
        kind="mc_unit",
        sampler=lambda rng, n: rng.uniform(0.0, 1.0, size=n),
        gamma=lambda u: (u_(u) * (1.0 - u_(u))) ** 2,
        gamma_prime=lambda u: 2.0 * u_(u) * (1.0 - u_(u)) * (1.0 - 2.0 * u_(u)),
        gen_a=lambda u: u_(u) * (1.0 - u_(u)) * (1.0 - 2.0 * u_(u)),
        quad_rule=rule,
        label="mc_unit",
    )


# -- finite-difference check of stated derivatives ---------------------------

_FD_STEP = 1e-5
_FD_TOL = 1e-5


def fd_mismatch(
    f: Callable, df: Callable, order: int, x: float, *args
) -> Optional[tuple[float, float]]:
    """(stated, measured) when df(x, *args) disagrees with a central
    difference of f(·, *args) at the point x, else None.

    The bound is _FD_TOL relative to the larger of 1, |stated| and
    |measured|, plus the rounding error of the difference quotient:
    2⁻⁵²·max|f| times the summed weights of the stencil (2 for order 1, 4
    for order 2) over its divisor (2h or h²).  Without that term an
    order-2 check rejects correct derivatives once |f| ≳ 10.
    """
    h = _FD_STEP
    fp, fm = float(f(x + h, *args)), float(f(x - h, *args))
    if order == 1:
        fd = (fp - fm) / (2.0 * h)
        rounding = 2.0**-52 * 2.0 * max(abs(fp), abs(fm)) / (2.0 * h)
    else:
        f0 = float(f(x, *args))
        fd = (fp - 2.0 * f0 + fm) / h**2
        rounding = 2.0**-52 * 4.0 * max(abs(fp), abs(f0), abs(fm)) / h**2
    stated = float(df(x, *args))
    if abs(fd - stated) > _FD_TOL * max(1.0, abs(stated), abs(fd)) + rounding:
        return stated, fd
    return None
