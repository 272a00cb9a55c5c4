"""Differential and spin geometry of the 1+1 de Sitter hyperboloid.

This module is the appendix-style side of the toolkit: charts, metric,
Christoffel symbols, Killing fields, extrinsic curvature, Clifford frames
and spin matrices, all in closed form.  It serves as the independent oracle
against which the operator construction is cross-checked, so derivatives
are exact: functions on the chart are ``HypFn``, in the algebra spanned by
sinh^a(theta) cosh^b(theta) e^{ik phi} (a >= 0, b and k integers), closed
under multiplication and d/dtheta, d/dphi, with exact phi-Fourier modes.

The pointwise functions (``HypFn.__call__``, ``geometry_at``,
``frame_vectors``, ``slash``, ``embedding_extrinsic_trace``) also take a
``ChartPoint`` whose theta and phi are arrays and broadcast over them:
component axes lead and the point axes trail, so a vector field is
(3, *points) and a Clifford matrix the fiber-major (2, 2, *points) stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

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
    "killing_l21",
    "killing_l02",
    "killing_l01",
    "laplace_beltrami",
    "symmetry_checks",
    "default_test_functions",
    "SpinMatrices",
    "spin_matrices",
    "frame_intertwiner",
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
    metric: np.ndarray
    metric_inv: np.ndarray
    christoffel_theta_phiphi: float | np.ndarray
    christoffel_phi_thetaphi: float | np.ndarray


def _diag2(a: float, b) -> np.ndarray:
    """diag(a, b) for a scalar a and b of the point shape: (2, 2, *points)."""
    zero = np.zeros(np.shape(b))
    return np.array([[np.full(np.shape(b), a), zero], [zero, b]])


def _chart_arrays(p: ChartPoint):
    """theta and phi broadcast to one shape; a single point stays scalar."""
    th, ph = p.theta, p.phi
    if np.shape(th) != np.shape(ph):
        th, ph = np.broadcast_arrays(th, ph)
    return th, ph


def geometry_at(p: ChartPoint) -> GeometryData:
    """All chart data at a point, by direct evaluation."""
    r = p.radius
    th, ph = _chart_arrays(p)
    s, c = np.sinh(th), np.cosh(th)
    embedding = np.array([r * s, r * c * np.cos(ph), r * c * np.sin(ph)])
    metric = _diag2(-r ** 2, r ** 2 * c ** 2)
    metric_inv = _diag2(-1.0 / r ** 2, 1.0 / (r ** 2 * c ** 2))
    return GeometryData(
        embedding=embedding,
        metric=metric,
        metric_inv=metric_inv,
        christoffel_theta_phiphi=c * s,
        christoffel_phi_thetaphi=s / c,
    )


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

def killing_l21(f: HypFn) -> HypFn:
    """Rotation about the x0 axis: d/dphi."""
    return f.d_phi()


def killing_l02(f: HypFn) -> HypFn:
    """Boost mixing x0 and x2: sin(phi) d_theta + cos(phi) tanh(theta) d_phi."""
    return SIN_PHI * f.d_theta() + (COS_PHI * TANH) * f.d_phi()


def killing_l01(f: HypFn) -> HypFn:
    """Boost mixing x0 and x1: cos(phi) d_theta - sin(phi) tanh(theta) d_phi."""
    return COS_PHI * f.d_theta() - (SIN_PHI * TANH) * f.d_phi()


def laplace_beltrami(f: HypFn, radius: float = 1.0) -> HypFn:
    """-(1/R^2) [ (1/cosh) d_theta (cosh d_theta f) - (1/cosh^2) d_phi^2 f ]."""
    cosh = HypFn.monomial(0, 1, 0)
    term_theta = SECH * (cosh * f.d_theta()).d_theta()
    term_phi = (SECH * SECH) * f.d_phi().d_phi()
    return (-1.0 / radius ** 2) * (term_theta - term_phi)


def default_test_functions(radius: float = 1.0) -> list[HypFn]:
    """Embedding-coordinate restrictions, their products, and a constant."""
    x0, x1, x2 = x_embedding(radius)
    return [x0, x1, x2, x0 * x1, x1 * x2, x0 * x2, HypFn.constant(1.0)]


def symmetry_checks(p: ChartPoint, fns: Iterable[HypFn] | None = None) -> dict[str, float]:
    """Residuals of the Killing bracket relations [L01,L21] = L02,
    [L02,L21] = -L01, [L01,L02] = L21 and of the Casimir identity
    (L01^2 + L02^2 - L21^2) f = -R^2 Laplacian f, evaluated at the point on
    each test function with exact derivatives."""
    fns = list(default_test_functions(p.radius) if fns is None else fns)
    th, ph = p.theta, p.phi

    def bracket(opa, opb, f):
        return opa(opb(f)) - opb(opa(f))

    out = {"bracket_l01_l21": 0.0, "bracket_l02_l21": 0.0,
           "bracket_l01_l02": 0.0, "casimir": 0.0}
    for f in fns:
        r1 = bracket(killing_l01, killing_l21, f) - killing_l02(f)
        r2 = bracket(killing_l02, killing_l21, f) + killing_l01(f)
        r3 = bracket(killing_l01, killing_l02, f) - killing_l21(f)
        cas = (killing_l01(killing_l01(f)) + killing_l02(killing_l02(f))
               - killing_l21(killing_l21(f)))
        cas = cas + (p.radius ** 2) * laplace_beltrami(f, p.radius)
        out["bracket_l01_l21"] = max(out["bracket_l01_l21"], abs(r1(th, ph)))
        out["bracket_l02_l21"] = max(out["bracket_l02_l21"], abs(r2(th, ph)))
        out["bracket_l01_l02"] = max(out["bracket_l01_l02"], abs(r3(th, ph)))
        out["casimir"] = max(out["casimir"], abs(cas(th, ph)))
    return out


# -- spin matrices -----------------------------------------------------------

@dataclass(frozen=True)
class SpinMatrices:
    s01: np.ndarray
    s02: np.ndarray
    s12: np.ndarray
    s_frame: np.ndarray
    s_frame_inv: np.ndarray


def spin_matrices(theta: float, phi: float) -> SpinMatrices:
    """The boost and rotation spin matrices and their product
    S_{theta,phi} = S12 S01 (identity at the origin, determinant 1, double
    cover: a 2 pi rotation gives -1)."""
    et = np.exp(theta / 2.0)
    s01 = np.diag([et, 1.0 / et]).astype(complex)
    ch, sh = np.cosh(theta / 2.0), np.sinh(theta / 2.0)
    s02 = np.array([[ch, sh], [sh, ch]], dtype=complex)
    cp, sp = np.cos(phi / 2.0), np.sin(phi / 2.0)
    s12 = np.array([[cp, sp], [-sp, cp]], dtype=complex)
    s_frame = s12 @ s01
    s_frame_inv = np.array([[cp / et, -sp / et], [et * sp, et * cp]], dtype=complex)
    return SpinMatrices(s01=s01, s02=s02, s12=s12, s_frame=s_frame,
                        s_frame_inv=s_frame_inv)


def frame_intertwiner(theta: float, phi: float) -> np.ndarray:
    """Spinor transport S from the global frame to the moving triad, fixed
    by the covariance gamma(e_mu) = S gamma_mu S^{-1}:
    S = exp(phi gamma0 / 2) exp(theta gamma2 / 2)."""
    rot = np.diag([np.exp(0.5j * phi), np.exp(-0.5j * phi)])
    ch, sh = np.cosh(theta / 2.0), np.sinh(theta / 2.0)
    boost = np.array([[ch, sh], [sh, ch]], dtype=complex)
    return rot @ boost


def frame_intertwiner_inverse(theta: float, phi: float) -> np.ndarray:
    ch, sh = np.cosh(theta / 2.0), np.sinh(theta / 2.0)
    boost_inv = np.array([[ch, -sh], [-sh, ch]], dtype=complex)
    rot_inv = np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])
    return boost_inv @ rot_inv
