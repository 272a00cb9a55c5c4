"""Field-based reference for the geometry oracle.

The library checks the Killing brackets, the Casimir identity and the
intrinsic-vs-extrinsic Dirac pair on operator coefficients, and reads the
T-action of the theta derivative from its coefficient pair.  This module
holds the field-based form of those checks, which acts with the operators
on explicit functions and spinor fields, as the reference the coefficients
must reproduce: the Killing fields and the Laplace-Beltrami operator as
maps of ``HypFn``, the two-component ``SpinorField`` with the T-basis
fields, the Dirac pair evaluated on a field at one point, random
closed-form spinor fields, and the spinor frame transport S itself.  It
also holds the coefficient pairs of the symmetry generators and Clifford
elements, T_ij = omega_ij - L_ij with the theta derivative taken on shell,
and the chart metric, its inverse and the Christoffel symbols, which the
library's checks do not read.
"""

from dataclasses import dataclass

import numpy as np

from specquad.geometry import (
    COS_PHI,
    GAMMA0,
    GAMMA2,
    KILLING_L01,
    KILLING_L02,
    KILLING_L21,
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
from specquad.spinfields import _E0_MAT, _N_MAT, _OMEGA, d_theta_pair


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

@dataclass(frozen=True)
class SpinorField:
    """Two-component field in the global-frame spinor basis, with ``HypFn``
    components on the de Sitter chart; derivatives act componentwise."""

    up: HypFn
    down: HypFn

    def d_theta(self) -> "SpinorField":
        return SpinorField(self.up.d_theta(), self.down.d_theta())

    def d_phi(self) -> "SpinorField":
        return SpinorField(self.up.d_phi(), self.down.d_phi())

    def __add__(self, other: "SpinorField") -> "SpinorField":
        return SpinorField(self.up + other.up, self.down + other.down)

    def scale(self, c) -> "SpinorField":
        """Multiply both components by a scalar or a HypFn."""
        return SpinorField(c * self.up, c * self.down)

    def mat(self, m) -> "SpinorField":
        """Apply a 2x2 matrix whose entries are scalars or HypFn."""
        return SpinorField(self.up * m[0][0] + self.down * m[0][1],
                           self.up * m[1][0] + self.down * m[1][1])

    def __call__(self, theta: float, phi: float) -> np.ndarray:
        return np.array([self.up(theta, phi), self.down(theta, phi)])


def t_basis_field(n: float, sign: int) -> SpinorField:
    """Eigenfield of the compact generator: (e^{-i(n-1/2)phi}, 0) for
    sign = +1 and (0, e^{-i(n+1/2)phi}) for sign = -1, n half-integer."""
    if abs(n - np.floor(n) - 0.5) > 1e-12:
        raise ValueError("n must be a half-odd integer")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign > 0:
        return SpinorField(HypFn.monomial(0, 0, int(round(-(n - 0.5)))), HypFn())
    return SpinorField(HypFn(), HypFn.monomial(0, 0, int(round(-(n + 0.5)))))


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


# -- generators and Clifford elements as coefficient pairs -------------------
#
# A first-order operator is its pair (A, B) of 2x2 HypFn matrices on
# (d_phi, 1), the form ``spinfields.t_bands`` reads.

def _combine(*terms):
    """sum_i c_i M_i of 2x2 HypFn matrices M_i with scalar or HypFn c_i."""
    return tuple(tuple(sum((c * m[r][s] for c, m in terms), HypFn()) for s in range(2))
                 for r in range(2))


def _constant(m) -> tuple:
    """A numeric 2x2 matrix as a matrix of constant HypFn."""
    return tuple(tuple(HypFn.constant(x) for x in row) for row in m)


_ZERO, _ONE = _constant(np.zeros((2, 2))), _constant(np.eye(2))
# rslash = cos(phi) g1 + sin(phi) g2, the radial unit vector of the slice
_RHAT_MAT = ((HypFn(), HypFn({(0, 0, 1): -1j})), (HypFn({(0, 0, -1): 1j}), HypFn()))


def killing_generator_pair(omega: np.ndarray, killing, rm: float):
    """T_ij = omega_ij - L_ij for the Killing field L_ij = a d_theta +
    b d_phi, with the theta derivative on shell, d_theta = A d_phi + B:
    the pair (-a A - b, omega_ij - a B)."""
    a, b = killing
    d_a, d_b = d_theta_pair(rm)
    return (_combine((-1.0 * a, d_a), (-1.0 * b, _ONE)),
            _combine((1.0, _constant(omega)), (-1.0 * a, d_b)))


def symmetry_pairs(rm: float) -> dict[str, tuple]:
    """The coefficient pairs of d_theta, the rotation T21, the ladders
    T+- = T01 -+ i T02 of the boosts, and the Clifford elements e0slash,
    nslash and rslash, by name."""
    t01 = killing_generator_pair(_OMEGA[(0, 1)], KILLING_L01, rm)
    t02 = killing_generator_pair(_OMEGA[(0, 2)], KILLING_L02, rm)
    return {
        "d_theta": d_theta_pair(rm),
        "T21": killing_generator_pair(_OMEGA[(2, 1)], KILLING_L21, rm),
        "Tplus": tuple(_combine((1.0, x), (-1j, y)) for x, y in zip(t01, t02)),
        "Tminus": tuple(_combine((1.0, x), (1j, y)) for x, y in zip(t01, t02)),
        "e0": (_ZERO, _E0_MAT),
        "n_slash": (_ZERO, _N_MAT),
        "r_slash": (_ZERO, _RHAT_MAT),
    }
