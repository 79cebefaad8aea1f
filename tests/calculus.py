"""Reference functional calculus: second-order jets over product coordinates.

This is the independent route the package's samplers are checked against
(Bouleau and Hirsch, Dirichlet Forms and Analysis on Wiener Space, 1991).
A functional X of m base coordinates is carried as a jet (value, gradient,
dense Hessian); its square field and generator are read off the jet:

    Γ[X, Y] = Σ_i gx_i gy_i γ_i(u_i)
    A[X]    = Σ_i [ gx_i a_i(u_i) + ½ H_ii γ_i(u_i) ]
    ∂_j Γ[X] = Σ_i 2 gx_i H_ij γ_i(u_i) + gx_j² γ'_j(u_j)
    Γ[X, Γ[X]] = Σ_j gx_j (∂_j Γ[X]) γ_j(u_j)

Only the Hessian diagonal enters A (the product structure has no cross
weights), but off-diagonals are kept because ∂_j Γ[X] needs them.

The coordinates are the module's own: CoordinateSpec carries a law (a
sampler and a normalised quadrature rule) and the three functions of a
one-dimensional structure, γ, γ' and a.  ou_gaussian(v) is the
Ornstein-Uhlenbeck structure of a centered Gaussian, mc_unit the uniform
law on [0,1] with γ(u) = u²(1-u)²; opaque and custom cover the rest.

jet_oracle_triple replays the extended Euler scheme of dirichlet_mc.wiener
as a jet over its n Gaussian increments, so the production recursion can
be checked path by path.  The module imports nothing from the package,
so neither the samplers and estimators it checks nor the structure
formulas they are built from can leak into the reference.

Jets are immutable.  Non-finite intermediates are not errors: they
propagate through the arrays and are detected with is_finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

# Dense Hessians make jet algebra O(m²) per operation; this cap keeps a
# full second-order jet affordable while covering desk-scale functionals.
MAX_ACTIVE_COORDS = 64

# Eigenvalue slack accepted as numerical PSD, relative to max(1, trace).
PSD_SLACK = 1e-12

CoefFn = Callable[[float, float], float]


# -- coordinates ---------------------------------------------------------

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


def opaque(sampler: Callable[[np.random.Generator, int], np.ndarray]) -> CoordinateSpec:
    """Coordinate that is sampled but carries no error structure.

    Houses the irregular inputs of a simulation (rejection steps, etc.):
    γ ≡ 0, γ' ≡ 0, a ≡ 0, and lift() refuses it.
    """
    zero = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    return CoordinateSpec(
        kind="opaque", sampler=sampler, gamma=zero, gamma_prime=zero, gen_a=zero,
        label="opaque",
    )


def custom(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    gamma: Callable[[np.ndarray], np.ndarray],
    gamma_prime: Callable[[np.ndarray], np.ndarray],
    gen_a: Callable[[np.ndarray], np.ndarray],
    quad_rule: Optional[QuadRule] = None,
    label: str = "custom",
) -> CoordinateSpec:
    """User-supplied coordinate structure.  Closability is the caller's problem."""
    return CoordinateSpec(
        kind="custom", sampler=sampler, gamma=gamma, gamma_prime=gamma_prime,
        gen_a=gen_a, quad_rule=quad_rule, label=label,
    )


@dataclass(frozen=True)
class BasePoint:
    """One draw of the product coordinates: values u_1..u_m plus their specs."""

    coords: np.ndarray
    specs: tuple[CoordinateSpec, ...]

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coords, dtype=float))
        object.__setattr__(self, "coords", c)
        object.__setattr__(self, "specs", tuple(self.specs))
        if len(self.specs) != c.shape[0]:
            raise ValueError(
                f"{c.shape[0]} coordinate values for {len(self.specs)} specs"
            )
        if c.shape[0] > MAX_ACTIVE_COORDS:
            raise ValueError(
                f"{c.shape[0]} coordinates exceeds the cap of {MAX_ACTIVE_COORDS}"
            )

    @property
    def m(self) -> int:
        return self.coords.shape[0]

    def gamma_values(self) -> np.ndarray:
        """γ_i(u_i) per coordinate."""
        return np.array([float(s.gamma(u)) for s, u in zip(self.specs, self.coords)])

    def gamma_prime_values(self) -> np.ndarray:
        return np.array(
            [float(s.gamma_prime(u)) for s, u in zip(self.specs, self.coords)]
        )

    def gen_a_values(self) -> np.ndarray:
        return np.array([float(s.gen_a(u)) for s, u in zip(self.specs, self.coords)])


def sample_base(
    specs: Sequence[CoordinateSpec], rng: np.random.Generator
) -> BasePoint:
    """Independent draw of every coordinate from its own law."""
    specs = tuple(specs)
    values = np.array([s.sample(rng) for s in specs])
    return BasePoint(values, specs)


# -- jets ----------------------------------------------------------------

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


def jet_exp(j: Jet2) -> Jet2:
    return jet_apply_unary(j, math.exp, math.exp, math.exp)


def jet_sin(j: Jet2) -> Jet2:
    return jet_apply_unary(j, math.sin, math.cos, lambda v: -math.sin(v))


def jet_cos(j: Jet2) -> Jet2:
    return jet_apply_unary(j, math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v))


# -- square field, generator and triples read off a jet ----------------------

@dataclass(frozen=True)
class ErrorTriple:
    """(X, Γ[X] matrix, A[X] vector) for an ℝ^d-valued functional."""

    x: np.ndarray
    gamma: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        g = np.atleast_2d(np.asarray(self.gamma, dtype=float))
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "a", a)
        d = x.shape[0]
        if g.shape != (d, d) or a.shape != (d,):
            raise ValueError(f"inconsistent shapes: x {x.shape}, gamma {g.shape}, a {a.shape}")

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @property
    def is_finite(self) -> bool:
        return bool(
            np.isfinite(self.x).all()
            and np.isfinite(self.gamma).all()
            and np.isfinite(self.a).all()
        )

    def check_psd(self) -> None:
        """Reject gamma matrices that are non-symmetric or clearly not PSD."""
        g = self.gamma
        if not np.allclose(g, g.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(g).max()))):
            raise ValueError("gamma matrix is not symmetric")
        eig = np.linalg.eigvalsh(0.5 * (g + g.T))
        floor = -PSD_SLACK * max(1.0, float(np.trace(g)))
        if eig.min() < floor:
            raise ValueError(f"gamma matrix has eigenvalue {eig.min():.3e} below {floor:.3e}")


@dataclass(frozen=True)
class ErrorQuad:
    """Scalar triple extended with Γ[X, Γ[X]], plus optional data for a
    second tracked scalar G (its value and Γ[X, G])."""

    triple: ErrorTriple
    gamma_x_gammax: float
    aux: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.triple.d != 1:
            raise ValueError("ErrorQuad requires a scalar (d=1) triple")
        g = float(self.triple.gamma[0, 0])
        if np.isfinite(g) and g < -PSD_SLACK * max(1.0, abs(g)):
            raise ValueError(f"square field entry {g:g} is negative")
        object.__setattr__(self, "gamma_x_gammax", float(self.gamma_x_gammax))

    @property
    def x(self) -> float:
        return float(self.triple.x[0])

    @property
    def gamma(self) -> float:
        return float(self.triple.gamma[0, 0])

    @property
    def a(self) -> float:
        return float(self.triple.a[0])


def _weights(base: BasePoint) -> np.ndarray:
    return base.gamma_values()


def gamma_of(jx: Jet2, jy: Jet2, base: BasePoint) -> float:
    """Square field Γ[X, Y] = Σ_i gx_i gy_i γ_i(u_i); symmetric, Γ[X, X] ≥ 0."""
    if jx.m != base.m or jy.m != base.m:
        raise ValueError("jets were not built over this base point")
    return float(np.sum(jx.grad * jy.grad * _weights(base)))


def a_of(jx: Jet2, base: BasePoint) -> float:
    """Generator A[X] = Σ_i [ gx_i a_i(u_i) + ½ H_ii γ_i(u_i) ]."""
    if jx.m != base.m:
        raise ValueError("jet was not built over this base point")
    return float(
        np.sum(jx.grad * base.gen_a_values())
        + 0.5 * np.sum(np.diag(jx.hess) * _weights(base))
    )


def gamma_grad(jx: Jet2, base: BasePoint) -> np.ndarray:
    """Coordinate gradient of the Γ[X] field:
    ∂_j Γ[X] = Σ_i 2 gx_i H_ij γ_i + gx_j² γ'_j."""
    if jx.m != base.m:
        raise ValueError("jet was not built over this base point")
    w = _weights(base)
    return 2.0 * (jx.hess @ (jx.grad * w)) + jx.grad**2 * base.gamma_prime_values()


def triple_of(jx: Jet2, base: BasePoint) -> ErrorTriple:
    """Scalar ErrorTriple (X, Γ[X], A[X]) read off a jet."""
    g = gamma_of(jx, jx, base)
    return ErrorTriple(np.array([jx.value]), np.array([[g]]), np.array([a_of(jx, base)]))


def quad_of(jx: Jet2, base: BasePoint, jg: Optional[Jet2] = None) -> ErrorQuad:
    """ErrorQuad with Γ[X, Γ[X]] = Σ_j gx_j (∂_j Γ[X]) γ_j, and, when a
    second jet G is supplied, (G, Γ[X, G]) for conditional expectations."""
    trip = triple_of(jx, base)
    gxx = float(np.sum(jx.grad * gamma_grad(jx, base) * _weights(base)))
    aux = None
    if jg is not None:
        aux = (float(jg.value), gamma_of(jx, jg, base))
    return ErrorQuad(trip, gxx, aux)


# -- the extended Euler scheme, replayed as a jet ----------------------------

def jet_oracle_triple(x0: float, T: float, n: int, c, increments: np.ndarray) -> ErrorTriple:
    """Triple computed purely by functional calculus on the discrete scheme.

    c is a wiener.SdeCoefficients (only sigma, r and their x-derivatives
    are called).  The terminal value X_T of the Euler recursion is built as
    a jet over n Gaussian coordinates of variance h (γ_k = h,
    a_k(u) = -u/2), and Γ, A are read off the jet.  Agreement with the
    extended Euler recursion on the same increments is the commutation
    check for the extended scheme.
    """
    increments = np.asarray(increments, dtype=float)
    if increments.shape[0] != n:
        raise ValueError(f"expected {n} increments, got {increments.shape[0]}")
    if n > MAX_ACTIVE_COORDS:
        raise ValueError(f"n={n} exceeds the jet coordinate cap of {MAX_ACTIVE_COORDS}")
    h = T / n
    spec = ou_gaussian(h)
    base = BasePoint(increments, (spec,) * n)
    x = jet_const(x0, n)
    t = 0.0
    for k in range(n):
        db = lift(base, k + 1)
        sig = _coef_jet(c.sigma, c.sigma_x, c.sigma_xx, x, t)
        drift = _coef_jet(c.r, c.r_x, c.r_xx, x, t)
        x = x + sig * db + drift * h
        t += h
    g = gamma_of(x, x, base)
    return ErrorTriple(np.array([x.value]), np.array([[g]]), np.array([a_of(x, base)]))


def _coef_jet(f: CoefFn, fx: CoefFn, fxx: CoefFn, jx: Jet2, t: float) -> Jet2:
    """Chain a coefficient function (and its x-derivatives) through a jet."""
    v = jx.value
    p, p1, p2 = f(v, t), fx(v, t), fxx(v, t)
    return Jet2(p, p1 * jx.grad, p2 * np.outer(jx.grad, jx.grad) + p1 * jx.hess)
