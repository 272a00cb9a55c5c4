"""Field-based reference for the geometry oracle.

The library checks the Killing brackets, the Casimir identity and the
intrinsic-vs-extrinsic Dirac pair on operator coefficients.  This module
holds the field-based form of those checks, which acts with the operators
on explicit functions and spinor fields, as the reference the coefficients
must reproduce: the Killing fields and the Laplace-Beltrami operator as
maps of ``HypFn``, the Dirac pair evaluated on a ``SpinorField`` at one
point, random closed-form spinor fields, and the spinor frame transport S
itself.  It also holds the chart metric, its inverse and the Christoffel
symbols, which the library's checks do not read.
"""

from dataclasses import dataclass

import numpy as np

from specquad.geometry import (
    COS_PHI,
    GAMMA0,
    GAMMA2,
    SECH,
    SIN_PHI,
    TANH,
    ChartPoint,
    HypFn,
    frame_intertwiner_inverse,
    frame_vectors,
    slash,
    x_embedding,
)
from specquad.spinfields import SpinorField


# -- chart metric ------------------------------------------------------------

@dataclass(frozen=True)
class ChartMetric:
    metric: np.ndarray
    metric_inv: np.ndarray
    christoffel_theta_phiphi: float | np.ndarray
    christoffel_phi_thetaphi: float | np.ndarray


def _diag2(a: float, b) -> np.ndarray:
    """diag(a, b) for a scalar a and b of the point shape: (2, 2, *points)."""
    zero = np.zeros(np.shape(b))
    return np.array([[np.full(np.shape(b), a), zero], [zero, b]])


def chart_metric(p: ChartPoint) -> ChartMetric:
    """g = R^2 diag(-1, cosh^2 theta), its inverse and the nonzero
    Christoffel symbols at a point; a ChartPoint of arrays broadcasts, with
    the fiber-major (2, 2, *points) matrices."""
    r = p.radius
    th = np.broadcast_arrays(p.theta, p.phi)[0]
    s, c = np.sinh(th), np.cosh(th)
    return ChartMetric(metric=_diag2(-r ** 2, r ** 2 * c ** 2),
                       metric_inv=_diag2(-1.0 / r ** 2, 1.0 / (r ** 2 * c ** 2)),
                       christoffel_theta_phiphi=c * s, christoffel_phi_thetaphi=s / c)


# -- Killing fields and Laplacian as maps of functions ----------------------

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


def casimir(f: HypFn) -> HypFn:
    """(L01^2 + L02^2 - L21^2) f by composing the maps."""
    return (killing_l01(killing_l01(f)) + killing_l02(killing_l02(f))
            - killing_l21(killing_l21(f)))


def default_test_functions(radius: float = 1.0) -> list[HypFn]:
    """Embedding-coordinate restrictions, their products, and a constant."""
    x0, x1, x2 = x_embedding(radius)
    return [x0, x1, x2, x0 * x1, x1 * x2, x0 * x2, HypFn.constant(1.0)]


def apply_second_order(coefs, f: HypFn) -> HypFn:
    """The second-order operator with coefficients on (d_theta^2,
    d_theta d_phi, d_phi^2, d_theta, d_phi) applied to f."""
    ft, fp = f.d_theta(), f.d_phi()
    derivs = (ft.d_theta(), ft.d_phi(), fp.d_phi(), ft, fp)
    return sum((c * d for c, d in zip(coefs, derivs)), HypFn())


# -- spinor fields and the Dirac pair on one field ---------------------------

def random_spinor_field(rng: np.random.Generator) -> SpinorField:
    """Random closed-form field: small combinations of sinh^a cosh^b e^{ik phi},
    |k| <= 3."""
    def comp():
        terms = {}
        for _ in range(4):
            a = int(rng.integers(0, 3))
            b = int(rng.integers(-2, 3))
            k = int(rng.integers(-3, 4))
            terms[(a, b, k)] = complex(rng.normal(), rng.normal())
        return HypFn(terms)
    return SpinorField(comp(), comp())


def frame_intertwiner(theta: float, phi: float) -> np.ndarray:
    """Spinor transport S from the global frame to the moving triad, fixed
    by the covariance gamma(e_mu) = S gamma_mu S^{-1}:
    S = exp(phi gamma0 / 2) exp(theta gamma2 / 2)."""
    rot = np.diag([np.exp(0.5j * phi), np.exp(-0.5j * phi)])
    ch, sh = np.cosh(theta / 2.0), np.sinh(theta / 2.0)
    boost = np.array([[ch, sh], [sh, ch]], dtype=complex)
    return rot @ boost


def field_dirac_pair(psi: SpinorField, p: ChartPoint) -> tuple[np.ndarray, np.ndarray]:
    """(intrinsic value in the moving frame, extrinsic value in the global
    frame) of the hypersurface Dirac operator on the field at one point."""
    th, ph, r = p.theta, p.phi, p.radius
    c = np.cosh(th)
    val = psi(th, ph)
    vth = psi.d_theta()(th, ph)
    vph = psi.d_phi()(th, ph)

    e0, e1, e2 = frame_vectors(p)
    extrinsic = (-slash(e0) @ vth / r + slash(e2) @ vph / (r * c)
                 - slash(e1) @ val / r)

    sinv = frame_intertwiner_inverse(th, ph)
    # d(S^{-1} psi) = (dS^{-1}) psi + S^{-1} dpsi, with
    # S^{-1} = exp(-theta g2 / 2) exp(-phi g0 / 2)
    dsinv_dth = -0.5 * GAMMA2 @ sinv
    dsinv_dph = -0.5 * sinv @ GAMMA0

    e_val = sinv @ val
    e_vth = dsinv_dth @ val + sinv @ vth
    e_vph = dsinv_dph @ val + sinv @ vph
    intrinsic = (-GAMMA0 @ e_vth / r + GAMMA2 @ e_vph / (r * c)
                 - np.tanh(th) / (2.0 * r) * (GAMMA0 @ e_val))
    return intrinsic, extrinsic


def dirac_agreement_residual(psi: SpinorField, p: ChartPoint) -> float:
    """Max componentwise mismatch between the intrinsic value and the
    frame-transported extrinsic value."""
    intrinsic, extrinsic = field_dirac_pair(psi, p)
    transported = frame_intertwiner_inverse(p.theta, p.phi) @ extrinsic
    return float(np.abs(intrinsic - transported).max())


def apply_coefficients(stack: np.ndarray, psi: SpinorField, theta: float,
                       phi: float) -> np.ndarray:
    """A (3, 2, 2) coefficient stack of ``dirac_pair`` at one point applied
    to the field's (d_theta psi, d_phi psi, psi) there."""
    values = (psi.d_theta()(theta, phi), psi.d_phi()(theta, phi), psi(theta, phi))
    return sum(m @ v for m, v in zip(stack, values))
