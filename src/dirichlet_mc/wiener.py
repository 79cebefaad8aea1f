"""Extended Euler scheme carrying (X, Γ[X], A[X]) along a scalar SDE.

For dX = σ(X,t) dB + r(X,t) dt under the Ornstein-Uhlenbeck structure,
the triple Y = (X, Γ[X], A[X]) is itself a diffusion.  One Euler step of
mesh h with Brownian increment db updates, with all coefficients at (X, t):

    X⁺ = X + σ db + r h
    Γ⁺ = (1 + σ'_x db + r'_x h)² Γ + σ² h
    A⁺ = A + [-σ/2 + σ''_xx Γ/2 + σ'_x A] db + [r''_xx Γ/2 + r'_x A] h

The Γ update keeps the exact square of the one-step derivative
(1 + σ' db + r' h) rather than its expansion 1 + 2σ' db + (2r' + σ'²) h;
the two agree in mean to O(h²), but only the exact square commutes
pathwise with the functional calculus applied to the scheme, which the
jet oracle of the test suite (tests/calculus.py) verifies to roundoff on
paths fed through euler_triple_paths.  It also keeps Γ ≥ 0 on every path.

One recursion implements the scheme: simulate_triple_batch (increments
drawn step by step) and euler_triple_paths (given increments) both run
it.  It allocates its state once per call and updates it in place; its
scratch (the drawn increments too) is kept per thread across calls.

Coefficient contract.  σ, r and their x-derivatives are called as f(x, t)
with x a float64 array of the current states (a float in the derivative
probe) and t a float.  Each returns a scalar or an array that broadcasts
against x.  It may return x itself but never mutates it.  A constant
coefficient should return the bare scalar, which costs no array per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coords import fd_mismatch
from .streams import thread_scratch

CoefFn = Callable[[float, float], float]

# The probes (x, t) of the derivative check: states paired with times
# spread over [0, 1].
_PROBE_XS = np.array([0.2, 0.5, 0.8, 1.0, 1.3, 1.7, 2.0, 2.5, 3.0, 4.0])
_PROBE_TS = np.linspace(0.0, 1.0, _PROBE_XS.size)


def _check_derivative(f: CoefFn, df: CoefFn, name: str, order: int) -> None:
    """Central finite differences of f against the stated derivative df,
    one float probe (x, t) at a time."""
    for x, t in zip(_PROBE_XS, _PROBE_TS):
        bad = fd_mismatch(f, df, order, x, t)
        if bad is not None:
            stated, measured = bad
            raise ValueError(
                f"{name} disagrees with finite differences at x={x:g}, t={t:g}: "
                f"stated {stated:.6g}, measured {measured:.6g}"
            )


@dataclass(frozen=True)
class SdeCoefficients:
    """σ, r and their first two x-derivatives, as functions of (x, t).

    The stated derivatives are probed against central finite differences
    at construction; a mismatch is a hard error since a wrong derivative
    silently corrupts Γ and A.
    """

    sigma: CoefFn
    sigma_x: CoefFn
    sigma_xx: CoefFn
    r: CoefFn
    r_x: CoefFn
    r_xx: CoefFn

    def __post_init__(self):
        _check_derivative(self.sigma, self.sigma_x, "sigma_x", 1)
        _check_derivative(self.sigma, self.sigma_xx, "sigma_xx", 2)
        _check_derivative(self.r, self.r_x, "r_x", 1)
        _check_derivative(self.r, self.r_xx, "r_xx", 2)


# -- the extended Euler recursion --------------------------------------------

def _mul(p, q, out: np.ndarray):
    """p * q, written into out when either factor is an array."""
    if isinstance(p, np.ndarray) or isinstance(q, np.ndarray):
        return np.multiply(p, q, out=out)
    return p * q


def _mesh(T: float, n: int) -> float:
    """Step size T/n of an n-step scheme on [0, T]."""
    if n < 1:
        raise ValueError("need at least one step")
    if not T > 0:
        raise ValueError("horizon must be positive")
    return T / n


def _euler(
    x0: float,
    h: float,
    n: int,
    c: SdeCoefficients,
    n_paths: int,
    draw: Callable[[int, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n extended Euler steps of mesh h over n_paths paths from (x0, 0, 0).

    draw(k, out) returns the k-th Brownian increments, one per path, in out
    or elsewhere.  State arrays are allocated once and updated in place,
    each update in the operand order of the formulas in the module
    docstring, so the result does not depend on whether a coefficient
    returns a scalar or an array.  X is double-buffered because a
    coefficient may return x itself.  No scratch array is returned; an
    overflowed path ends in inf or NaN, which QuadBatch.from_raw and
    run_pass drop as non-finite rows.
    """
    x = np.full(n_paths, float(x0))
    x_next = np.empty(n_paths)
    g = np.zeros(n_paths)
    a = np.zeros(n_paths)
    lin, u, v, w, dbuf = thread_scratch("euler", 5, n_paths)
    t = 0.0
    # overflow surfaces as inf or NaN entries, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            db = draw(k, dbuf)
            sig = c.sigma(x, t)
            sig1 = c.sigma_x(x, t)
            sig2 = c.sigma_xx(x, t)
            r0 = c.r(x, t)
            r1 = c.r_x(x, t)
            r2 = c.r_xx(x, t)
            # lin = 1 + σ' db + r' h
            np.multiply(sig1, db, out=lin)
            np.add(1.0, lin, out=lin)
            np.add(lin, _mul(r1, h, u), out=lin)
            # X⁺ = X + σ db + r h
            np.multiply(sig, db, out=x_next)
            np.add(x, x_next, out=x_next)
            np.add(x_next, _mul(r0, h, u), out=x_next)
            # A⁺ = A + [-σ/2 + σ'' Γ/2 + σ' A] db + [r'' Γ/2 + r' A] h, on the old Γ
            np.multiply(_mul(0.5, sig2, w), g, out=w)
            np.add(_mul(-0.5, sig, v), w, out=w)
            np.add(w, np.multiply(sig1, a, out=v), out=w)
            np.multiply(w, db, out=w)
            np.multiply(_mul(0.5, r2, v), g, out=v)
            np.add(v, np.multiply(r1, a, out=u), out=v)
            np.multiply(v, h, out=v)
            np.add(a, w, out=a)
            np.add(a, v, out=a)
            # Γ⁺ = lin² Γ + σ² h
            np.multiply(lin, lin, out=lin)
            np.multiply(lin, g, out=g)
            np.add(g, _mul(_mul(sig, sig, u), h, u), out=g)
            x, x_next = x_next, x
            t += h
    return x, g, a


def simulate_triple_batch(
    x0: float,
    T: float,
    n: int,
    c: SdeCoefficients,
    n_paths: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extended Euler over n_paths paths; db_k ~ N(0, T/n) drawn step by step.

    Returns (x, gamma, a) arrays of length n_paths.  The k-th increment of
    every path is drawn in one batch, so path j here follows a different
    increment stream than j calls of the test oracle simulate_triple.
    """
    h = _mesh(T, n)
    sqh = math.sqrt(h)
    # normal(0, √h) is √h times a standard normal draw, drawn into out
    return _euler(x0, h, n, c, n_paths,
                  lambda k, out: np.multiply(rng.standard_normal(out=out), sqh, out=out))


def euler_triple_paths(
    x0: float, T: float, n: int, c: SdeCoefficients, increments: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extended Euler driven by given increments of shape (n, n_paths).

    Returns (x, gamma, a) like simulate_triple_batch; the same recursion,
    so an oracle can replay any of its paths.
    """
    h = _mesh(T, n)
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 2 or increments.shape[0] != n:
        raise ValueError(f"expected increments of shape ({n}, n_paths), got {increments.shape}")
    return _euler(x0, h, n, c, increments.shape[1], lambda k, out: increments[k])


# -- named coefficient sets ----------------------------------------------

def _const(v: float) -> CoefFn:
    return lambda x, t: v


def _linear(slope: float) -> CoefFn:
    return lambda x, t: slope * x


def gbm_coefficients(vol: float = 0.3, drift: float = 0.05) -> SdeCoefficients:
    """Geometric Brownian motion: σ(x) = vol·x, r(x) = drift·x."""
    return SdeCoefficients(
        sigma=_linear(vol), sigma_x=_const(vol), sigma_xx=_const(0.0),
        r=_linear(drift), r_x=_const(drift), r_xx=_const(0.0),
    )


def additive_coefficients(vol: float = 0.4, drift: float = 0.1) -> SdeCoefficients:
    """State-independent noise with linear drift: σ = vol, r(x) = drift·x."""
    return SdeCoefficients(
        sigma=_const(vol), sigma_x=_const(0.0), sigma_xx=_const(0.0),
        r=_linear(drift), r_x=_const(drift), r_xx=_const(0.0),
    )


def zero_noise_coefficients(drift: float = 1.0) -> SdeCoefficients:
    """σ = 0: the scheme degenerates to a deterministic Euler ODE with Γ = A = 0."""
    return SdeCoefficients(
        sigma=_const(0.0), sigma_x=_const(0.0), sigma_xx=_const(0.0),
        r=_linear(drift), r_x=_const(drift), r_xx=_const(0.0),
    )

