"""Second-order forward jets over the active coordinates.

A Jet2 tracks (value, gradient, dense Hessian) of a scalar functional of
the m base coordinates.  Propagating jets through arithmetic and smooth
unary maps realises the chain rules of the functional calculus; the
square field and generator of the result are then read off the jet by
the operators module.

Jets are immutable.  Non-finite intermediates are not errors: they
propagate through the arrays and are detected with is_finite, so a bad
sample can be counted and excluded downstream instead of aborting a run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .coords import BasePoint


@dataclass(frozen=True)
class Jet2:
    """Value, gradient and symmetric Hessian of a scalar functional."""

    value: float
    grad: np.ndarray
    hess: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grad, dtype=float)
        h = np.asarray(self.hess, dtype=float)
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "grad", g)
        object.__setattr__(self, "hess", h)
        m = g.shape[0]
        if h.shape != (m, m):
            raise ValueError(f"hessian shape {h.shape} does not match gradient length {m}")

    @property
    def m(self) -> int:
        return self.grad.shape[0]

    @property
    def is_finite(self) -> bool:
        return (
            math.isfinite(self.value)
            and bool(np.isfinite(self.grad).all())
            and bool(np.isfinite(self.hess).all())
        )

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "JetLike") -> "Jet2":
        return jet_add(self, _promote(other, self.m))

    __radd__ = __add__

    def __sub__(self, other: "JetLike") -> "Jet2":
        return jet_add(self, jet_scale(_promote(other, self.m), -1.0))

    def __rsub__(self, other: "JetLike") -> "Jet2":
        return jet_add(_promote(other, self.m), jet_scale(self, -1.0))

    def __mul__(self, other: "JetLike") -> "Jet2":
        if isinstance(other, (int, float)):
            return jet_scale(self, float(other))
        return jet_mul(self, _promote(other, self.m))

    __rmul__ = __mul__

    def __neg__(self) -> "Jet2":
        return jet_scale(self, -1.0)

    def __pow__(self, k: int) -> "Jet2":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = jet_const(1.0, self.m)
        for _ in range(k):
            out = jet_mul(out, self)
        return out


JetLike = Union[Jet2, int, float]


def _promote(x: JetLike, m: int) -> Jet2:
    if isinstance(x, Jet2):
        return x
    return jet_const(float(x), m)


def jet_const(c: float, m: int) -> Jet2:
    """Constant functional: zero gradient and Hessian."""
    return Jet2(c, np.zeros(m), np.zeros((m, m)))


def lift(base: BasePoint, i: int) -> Jet2:
    """Jet of the i-th coordinate function (1-based index).

    Opaque coordinates have no derivative structure, so lifting one is a
    hard error rather than a silent zero jet.
    """
    if not 1 <= i <= base.m:
        raise IndexError(f"coordinate index {i} out of range for m={base.m}")
    spec = base.specs[i - 1]
    if spec.is_opaque:
        raise ValueError(
            f"coordinate {i} is opaque and cannot be lifted; "
            "opaque coordinates may be sampled but not differentiated"
        )
    g = np.zeros(base.m)
    g[i - 1] = 1.0
    return Jet2(float(base.coords[i - 1]), g, np.zeros((base.m, base.m)))


def jet_add(j1: Jet2, j2: Jet2) -> Jet2:
    if j1.m != j2.m:
        raise ValueError(f"coordinate dimension mismatch: {j1.m} vs {j2.m}")
    return Jet2(j1.value + j2.value, j1.grad + j2.grad, j1.hess + j2.hess)


def jet_mul(j1: Jet2, j2: Jet2) -> Jet2:
    """Product rule: H = v2·H1 + v1·H2 + g1 g2ᵀ + g2 g1ᵀ."""
    if j1.m != j2.m:
        raise ValueError(f"coordinate dimension mismatch: {j1.m} vs {j2.m}")
    cross = np.outer(j1.grad, j2.grad)
    return Jet2(
        j1.value * j2.value,
        j1.value * j2.grad + j2.value * j1.grad,
        j2.value * j1.hess + j1.value * j2.hess + cross + cross.T,
    )


def jet_scale(j: Jet2, c: float) -> Jet2:
    return Jet2(c * j.value, c * j.grad, c * j.hess)


def jet_apply_unary(
    j: Jet2,
    phi: Callable[[float], float],
    dphi: Callable[[float], float],
    d2phi: Callable[[float], float],
) -> Jet2:
    """Chain rule through a smooth scalar map φ.

    value = φ(v), grad = φ'(v)·g, hess = φ''(v)·g gᵀ + φ'(v)·H.
    """
    v = j.value
    p, p1, p2 = float(phi(v)), float(dphi(v)), float(d2phi(v))
    return Jet2(p, p1 * j.grad, p2 * np.outer(j.grad, j.grad) + p1 * j.hess)


# -- common smooth maps --------------------------------------------------

def jet_exp(j: Jet2) -> Jet2:
    return jet_apply_unary(j, math.exp, math.exp, math.exp)


def jet_sin(j: Jet2) -> Jet2:
    return jet_apply_unary(j, math.sin, math.cos, lambda v: -math.sin(v))


def jet_cos(j: Jet2) -> Jet2:
    return jet_apply_unary(j, math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v))


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
