"""Randomised smooth functionals with paired jet and plain-float routes.

Each generated functional comes as (label, jet route, scalar route): the
jet route composes lifts through jet arithmetic, the scalar route is an
ordinary float expression.  Tests drive the two routes against each other
through the finite-difference oracles.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from calculus import (
    BasePoint,
    CoordinateSpec,
    Jet2,
    jet_const,
    jet_cos,
    jet_exp,
    jet_sin,
    lift,
    mc_unit,
    ou_gaussian,
)


def random_specs(rng: np.random.Generator, m: int) -> tuple[CoordinateSpec, ...]:
    out = []
    for _ in range(m):
        if rng.uniform() < 0.5:
            out.append(ou_gaussian(float(rng.uniform(0.5, 2.0))))
        else:
            out.append(mc_unit())
    return tuple(out)


def random_functional(
    rng: np.random.Generator, m: int
) -> tuple[str, Callable[[BasePoint], Jet2], Callable[[np.ndarray], float]]:
    family = int(rng.integers(0, 6))
    c = rng.uniform(-0.6, 0.6, size=m)
    c0 = float(rng.uniform(-0.5, 0.5))

    if family == 0:  # affine
        def jet_fn(base):
            out = jet_const(c0, m)
            for i in range(m):
                out = out + float(c[i]) * lift(base, i + 1)
            return out

        def val_fn(u):
            return c0 + float(np.dot(c, u))

        return "affine", jet_fn, val_fn

    if family == 1:  # product of affine factors
        def jet_fn(base):
            out = jet_const(1.0, m)
            for i in range(m):
                out = out * (1.0 + float(c[i]) * lift(base, i + 1))
            return out

        def val_fn(u):
            return float(np.prod(1.0 + c * u))

        return "product", jet_fn, val_fn

    if family == 2:  # exp of affine
        def jet_fn(base):
            out = jet_const(c0, m)
            for i in range(m):
                out = out + float(c[i]) * lift(base, i + 1)
            return jet_exp(out)

        def val_fn(u):
            return math.exp(c0 + float(np.dot(c, u)))

        return "exp_affine", jet_fn, val_fn

    if family == 3:  # trig of affine plus one bare coordinate
        def jet_fn(base):
            s = jet_const(c0, m)
            for i in range(m):
                s = s + float(c[i]) * lift(base, i + 1)
            return jet_sin(s) + 0.5 * jet_cos(lift(base, 1))

        def val_fn(u):
            return math.sin(c0 + float(np.dot(c, u))) + 0.5 * math.cos(u[0])

        return "trig", jet_fn, val_fn

    if family == 4:  # squared affine (quadratic with full cross Hessian)
        def jet_fn(base):
            s = jet_const(c0, m)
            for i in range(m):
                s = s + float(c[i]) * lift(base, i + 1)
            return s * s

        def val_fn(u):
            v = c0 + float(np.dot(c, u))
            return v * v

        return "quadratic", jet_fn, val_fn

    # family 5: product of a trig factor and an exp factor
    def jet_fn(base):
        s = jet_const(0.0, m)
        for i in range(m):
            s = s + float(c[i]) * lift(base, i + 1)
        return jet_exp(0.5 * s) * jet_sin(s + c0)

    def val_fn(u):
        v = float(np.dot(c, u))
        return math.exp(0.5 * v) * math.sin(v + c0)

    return "exp_trig", jet_fn, val_fn
