"""Differential and spin geometry of the 1+1 de Sitter hyperboloid.

This module is the appendix-style side of the toolkit: charts, the
embedding, Killing fields, the wave operator, extrinsic curvature, Clifford
frames and the spinor frame transport, all in closed form.  It serves as
the independent oracle against which the operator construction is
cross-checked, so derivatives are exact: functions on the chart are
``HypFn``, in the algebra spanned by sinh^a(theta) cosh^b(theta) e^{ik phi}
(a >= 0, b and k integers), closed under multiplication and d/dtheta,
d/dphi, with exact phi-Fourier modes.  Differential operators are
their ``HypFn`` coefficients: a vector field is the pair on (d_theta,
d_phi), so the Killing brackets and the Casimir identity are checked on
the coefficients and hold for every function, not only for samples.

The pointwise functions (``HypFn.__call__``, ``geometry_at``,
``frame_vectors``, ``slash``, ``embedding_extrinsic_trace``,
``symmetry_checks``, ``frame_intertwiner_inverse``) also take arrays of
theta and phi, directly or in a ``ChartPoint``, and broadcast over them:
component axes lead and the point axes trail, so a vector field is
(3, *points) and a Clifford matrix the fiber-major (2, 2, *points) stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .operators import block_stack

__all__ = [
    "GAMMA0",
    "GAMMA1",
    "GAMMA2",
    "ETA",
    "B_INTERTWINER",
    "ChartPoint",
    "GeometryData",
    "HypFn",
    "geometry_at",
    "embedding_extrinsic_trace",
    "frame_vectors",
    "slash",
    "KILLING_L21",
    "KILLING_L02",
    "KILLING_L01",
    "WAVE_OPERATOR",
    "derivative",
    "bracket",
    "square",
    "symmetry_checks",
    "frame_intertwiner_inverse",
]

# Clifford generators of the flat frame, {g_i, g_j} = 2 eta_ij
GAMMA0 = np.array([[1j, 0.0], [0.0, -1j]])
GAMMA1 = np.array([[0.0, -1j], [1j, 0.0]])
GAMMA2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
ETA = np.diag([-1.0, 1.0, 1.0])

# hermitean Dirac-product intertwiner: gamma_mu^+ B = -B gamma_mu
B_INTERTWINER = np.diag([-1j, 1j])


@dataclass(frozen=True)
class ChartPoint:
    """A chart point, or a batch of them when theta and phi are arrays
    (the radius is one scalar)."""

    theta: float | np.ndarray
    phi: float | np.ndarray
    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")


class HypFn:
    """Function in the closed algebra sinh^a cosh^b e^{ik phi}.

    The key (a, b, k) stands for sinh^a(theta) cosh^b(theta) e^{ik phi};
    exact under products and chart derivatives, so composed differential
    operators (Killing brackets, Laplacians) carry no discretization error.
    The constructor takes a dict or an iterable of (key, coef) pairs; it
    adds up the coefficients of repeated keys and drops zeros.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | Iterable = ()):
        if not isinstance(terms, dict):
            acc: dict = {}
            for key, coef in terms:
                acc[key] = acc[key] + coef if key in acc else coef
            terms = acc
        self.terms = {key: complex(coef) for key, coef in terms.items() if coef != 0}

    @classmethod
    def constant(cls, c: complex) -> "HypFn":
        return cls({(0, 0, 0): c})

    @classmethod
    def monomial(cls, a: int = 0, b: int = 0, k: int = 0, coef: complex = 1.0) -> "HypFn":
        if a < 0:
            raise ValueError("sinh power must be nonnegative")
        return cls({(a, b, k): coef})

    def __add__(self, other: "HypFn") -> "HypFn":
        return HypFn([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other: "HypFn") -> "HypFn":
        return self + (-1.0) * other

    def __mul__(self, other) -> "HypFn":
        """Product with another HypFn, or a scalar multiple."""
        if not isinstance(other, HypFn):
            return HypFn({key: coef * other for key, coef in self.terms.items()})
        return HypFn(((a1 + a2, b1 + b2, k1 + k2), c1 * c2)
                     for (a1, b1, k1), c1 in self.terms.items()
                     for (a2, b2, k2), c2 in other.terms.items())

    __rmul__ = __mul__

    def d_theta(self) -> "HypFn":
        # d(s^a c^b) = a s^(a-1) c^(b+1) + b s^(a+1) c^(b-1); a zero power
        # gives a zero coefficient, which the constructor drops
        return HypFn(pair for (a, b, k), coef in self.terms.items()
                     for pair in (((a - 1, b + 1, k), a * coef),
                                  ((a + 1, b - 1, k), b * coef)))

    def d_phi(self) -> "HypFn":
        return HypFn({(a, b, k): 1j * k * coef for (a, b, k), coef in self.terms.items()})

    def __call__(self, theta, phi):
        """Value at (theta, phi); arrays broadcast, and the empty function
        gives zeros of the broadcast shape."""
        if not self.terms:
            return np.zeros(np.broadcast(theta, phi).shape, dtype=complex)[()]
        # every term depends on both theta and phi, so the sum has their
        # broadcast shape
        s, c = np.sinh(theta), np.cosh(theta)
        total = 0.0 + 0.0j
        for (a, b, k), coef in self.terms.items():
            total += coef * s ** a * c ** b * np.exp(1j * k * phi)
        return total

    def phi_modes(self, theta: float) -> dict[int, complex]:
        """Exact phi-Fourier coefficients at fixed theta: mode k is the sum
        of coef sinh^a cosh^b over the terms with that k."""
        s, c = np.sinh(theta), np.cosh(theta)
        modes: dict[int, complex] = {}
        for (a, b, k), coef in self.terms.items():
            modes[k] = modes.get(k, 0.0) + coef * s ** a * c ** b
        return modes


# trigonometric building blocks as algebra elements
SIN_PHI = HypFn({(0, 0, 1): -0.5j, (0, 0, -1): 0.5j})
COS_PHI = HypFn({(0, 0, 1): 0.5, (0, 0, -1): 0.5})
TANH = HypFn({(1, -1, 0): 1.0})
SECH = HypFn({(0, -1, 0): 1.0})


def x_embedding(radius: float = 1.0) -> tuple[HypFn, HypFn, HypFn]:
    """Restrictions of the embedding coordinates to the hyperboloid."""
    x0 = HypFn.monomial(1, 0, 0, radius)
    x1 = radius * (HypFn.monomial(0, 1, 0) * COS_PHI)
    x2 = radius * (HypFn.monomial(0, 1, 0) * SIN_PHI)
    return x0, x1, x2


@dataclass(frozen=True)
class GeometryData:
    embedding: np.ndarray


def _chart_arrays(p: ChartPoint):
    """theta and phi broadcast to one shape; a single point stays scalar."""
    th, ph = p.theta, p.phi
    if np.shape(th) != np.shape(ph):
        th, ph = np.broadcast_arrays(th, ph)
    return th, ph


def geometry_at(p: ChartPoint) -> GeometryData:
    """The chart data at a point, by direct evaluation."""
    r = p.radius
    th, ph = _chart_arrays(p)
    c = np.cosh(th)
    return GeometryData(embedding=np.array([r * np.sinh(th), r * c * np.cos(ph),
                                            r * c * np.sin(ph)]))


# first and second chart derivatives of the unit-radius embedding, along
# theta and along phi
_EMBEDDING_DERIVATIVES = tuple(
    (tuple(d(x) for x in x_embedding()), tuple(d(d(x)) for x in x_embedding()))
    for d in (HypFn.d_theta, HypFn.d_phi))


def _minkowski(u, v):
    """<u, v>_eta over the leading component axis."""
    return -u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def embedding_extrinsic_trace(p: ChartPoint) -> float | np.ndarray:
    """K_A^A from exact second derivatives of the embedding ``x_embedding``:
    K_AB = -<n, d_A d_B X>_eta with n the unit normal e1 of the frame
    (n = X/R), traced with the induced metric g_AB = <d_A X, d_B X>_eta,
    which is diagonal on the chart.  X scales with R, so the trace is the
    unit-radius one over R.  Equals 2/R on the hyperboloid."""
    th, ph = p.theta, p.phi
    normal = frame_vectors(p)[1]
    trace = 0.0
    for first, second in _EMBEDDING_DERIVATIVES:
        d1 = np.array([x(th, ph).real for x in first])
        d2 = np.array([x(th, ph).real for x in second])
        trace += -_minkowski(normal, d2) / _minkowski(d1, d1)
    return trace / p.radius


def frame_vectors(p: ChartPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal triad (e0, e1, e2) in Minkowski components; e0 and e2 are
    tangent to the hyperboloid, e1 is the unit normal."""
    th, ph = _chart_arrays(p)
    s, c = np.sinh(th), np.cosh(th)
    cp, sp = np.cos(ph), np.sin(ph)
    e0 = np.array([c, s * cp, s * sp])
    e1 = np.array([s, c * cp, c * sp])
    e2 = np.array([np.zeros(np.shape(cp)), -sp, cp])
    return e0, e1, e2


def slash(v: np.ndarray) -> np.ndarray:
    """Clifford insertion of a Minkowski vector, v^mu gamma_mu; a (3, *points)
    field gives the fiber-major (2, 2, *points) stack."""
    v = np.asarray(v)
    axes = (slice(None), slice(None)) + (None,) * (v.ndim - 1)
    return v[0] * GAMMA0[axes] + v[1] * GAMMA1[axes] + v[2] * GAMMA2[axes]


# -- Killing fields and wave operator ---------------------------------------
#
# A vector field a d_theta + b d_phi is its coefficient pair (a, b) and a
# second-order operator its coefficients on (d_theta^2, d_theta d_phi,
# d_phi^2, d_theta, d_phi), so an identity between such operators holds on
# every function exactly when their coefficients agree.

# rotation about the x0 axis: d_phi
KILLING_L21 = (HypFn(), HypFn.constant(1.0))
# boost mixing x0 and x2: sin(phi) d_theta + cos(phi) tanh(theta) d_phi
KILLING_L02 = (SIN_PHI, COS_PHI * TANH)
# boost mixing x0 and x1: cos(phi) d_theta - sin(phi) tanh(theta) d_phi
KILLING_L01 = (COS_PHI, -1.0 * (SIN_PHI * TANH))

# -R^2 times the Laplace-Beltrami operator |g|^(-1/2) d_A |g|^(1/2) g^AB d_B,
# read from the metric g = R^2 diag(-1, cosh^2): with h = -R^2 g^(-1) =
# diag(1, -sech^2) and |g|^(1/2) = R^2 cosh, the second-order part is h and
# the first-order part sech d_A(cosh h^AA).  R drops out.
_H_THETA, _H_PHI = HypFn.constant(1.0), -1.0 * (SECH * SECH)
_COSH = HypFn.monomial(0, 1, 0)
WAVE_OPERATOR = (_H_THETA, HypFn(), _H_PHI,
                 SECH * (_COSH * _H_THETA).d_theta(), SECH * (_COSH * _H_PHI).d_phi())


def derivative(v: tuple[HypFn, HypFn], f: HypFn) -> HypFn:
    """v(f) = a d_theta f + b d_phi f for the vector field v = (a, b)."""
    return v[0] * f.d_theta() + v[1] * f.d_phi()


def bracket(v: tuple[HypFn, HypFn], w: tuple[HypFn, HypFn]) -> tuple[HypFn, HypFn]:
    """Coefficients v(w_i) - w(v_i) of the commutator [v, w] = v w - w v."""
    return tuple(derivative(v, wi) - derivative(w, vi) for vi, wi in zip(v, w))


def square(v: tuple[HypFn, HypFn]) -> tuple[HypFn, ...]:
    """Coefficients of v v for v = (a, b): second-order part (a^2, 2ab, b^2)
    and first-order part (v(a), v(b))."""
    a, b = v
    return a * a, 2.0 * (a * b), b * b, derivative(v, a), derivative(v, b)


def symmetry_checks(p: ChartPoint) -> dict[str, float]:
    """Residuals of the Killing bracket relations [L01,L21] = L02,
    [L02,L21] = -L01, [L01,L02] = L21 and of the Casimir identity
    L01^2 + L02^2 - L21^2 = -R^2 Laplacian as operator identities: the
    largest defect coefficient at the points of p.  The defects are built
    from the module constants on each call.  Their coefficients are read at
    points, since the monomials are not independent (sinh^2 = cosh^2 - 1)."""
    l01, l02, l21 = KILLING_L01, KILLING_L02, KILLING_L21
    defects = {
        "bracket_l01_l21": [x - y for x, y in zip(bracket(l01, l21), l02)],
        "bracket_l02_l21": [x + y for x, y in zip(bracket(l02, l21), l01)],
        "bracket_l01_l02": [x - y for x, y in zip(bracket(l01, l02), l21)],
        "casimir": [a + b - c - w for a, b, c, w in
                    zip(square(l01), square(l02), square(l21), WAVE_OPERATOR)],
    }
    return {name: max(float(np.abs(c(p.theta, p.phi)).max()) for c in coefs)
            for name, coefs in defects.items()}


# -- spinor frame transport --------------------------------------------------

def frame_intertwiner_inverse(theta, phi) -> np.ndarray:
    """S^(-1) = exp(-theta g2 / 2) exp(-phi g0 / 2) for the spinor transport
    S from the global frame to the moving triad, fixed by the covariance
    gamma(e_mu) = S gamma_mu S^(-1); arrays of theta and phi broadcast to the
    fiber-major (2, 2, *points) stack."""
    ch, sh = np.cosh(theta / 2.0), np.sinh(theta / 2.0)
    em, ep = np.exp(-0.5j * phi), np.exp(0.5j * phi)
    return block_stack(ch * em, -sh * ep, -sh * em, ch * ep)
