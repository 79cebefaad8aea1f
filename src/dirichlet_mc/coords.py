"""The unit-interval error structure, and the derivative check.

The "Monte Carlo space" of the paper is the unit interval with the
uniform law and the error structure of weight

    γ(u) = u²(1-u)²,   γ'(u) = 2u(1-u)(1-2u),   a(u) = γ'(u)/2 = u(1-u)(1-2u).

The weight vanishes at both endpoints, which is what closes the structure
on [0,1].  The triangular scenario is built on two such coordinates and
the Poisson scenario lifts the structure to the point process; both
read it from unit_terms, which computes γ and a from one u(1-u).

fd_mismatch probes a stated derivative against a central difference; the
SDE coefficients of wiener run it at construction, and so does the test
suite's general Poisson lift for its point functions h', h''.
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np


def unit_terms(u: np.ndarray, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """γ(u) and a(u) of an array u, from one t = u(1-u): γ = t² and
    a = t(1-2u); γ' = 2a exactly, since scaling by 2 is exact.  They are
    written into the arrays of out, each shaped like u or None for a new
    one; out[1] may be u itself, which is read before it is written."""
    gam, a = (np.empty_like(u) if o is None else o for o in out)
    np.subtract(1.0, u, out=gam)
    np.multiply(u, gam, out=gam)
    np.multiply(2.0, u, out=a)
    np.subtract(1.0, a, out=a)
    np.multiply(gam, a, out=a)
    return np.multiply(gam, gam, out=gam), a


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
