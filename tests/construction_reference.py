"""Reference forms of the quadruple construction that the library does not
call.

The paper's general U(2) family of seed blocks with its charge-conjugation
constraints, the order-one ladder recursion as a map of levels to blocks,
the basis change from the T-eigenvector basis to the orthonormal
time-vector eigenbasis, the Dirac-type operator of the volume-element
condition, and the two basis phases the construction fixes to zero.  The
library builds the quadruple from the closed forms these reduce to
(``desitter.seed_operators``, ``appendix_t_plus`` and ``appendix_t_minus``,
``evolution_block``) in that fixed gauge; the tests check them against each
other.
"""

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from specquad.operators import BasisDescriptor, TruncatedOperator, block_stack, commutator
from specquad.quadruple import SpectralQuadruple


@dataclass(frozen=True)
class U2Params:
    """Parameters (rho, x, y, theta) of the general unitary 2x2 family."""

    rho: float
    x: float
    y: float
    theta: float


def u2_from_params(p: U2Params) -> np.ndarray:
    """e^{i rho} (1+x^2+y^2)^{-1/2} [[-ix + tanh th, 1/cosh th + iy],
    [-1/cosh th + iy, ix + tanh th]]; unitary for any parameter values."""
    t, c = np.tanh(p.theta), np.cosh(p.theta)
    mat = np.array([
        [-1j * p.x + t, 1.0 / c + 1j * p.y],
        [-1.0 / c + 1j * p.y, 1j * p.x + t],
    ], dtype=complex)
    return np.exp(1j * p.rho) / np.sqrt(1.0 + p.x ** 2 + p.y ** 2) * mat


def apply_cc_constraints(p_plus: U2Params, p_minus: U2Params,
                         tol: float = 1e-12) -> bool:
    """Whether the charge-conjugation constraints hold:
    e^{i rho+} = -e^{i rho-}, x+ = -x-, theta+ = theta-, y+ = y-.

    Phases are compared on the unit circle.
    """
    phase_ok = abs(np.exp(1j * p_plus.rho) + np.exp(1j * p_minus.rho)) <= tol
    return (phase_ok
            and abs(p_plus.x + p_minus.x) <= tol
            and abs(p_plus.theta - p_minus.theta) <= tol
            and abs(p_plus.y - p_minus.y) <= tol)


def cc_constrained_pair(rho: float, x: float, theta: float, y: float) -> tuple[U2Params, U2Params]:
    """The 4-parameter constrained family; gauge fixing rho = y = 0 leaves
    (x, theta) = (rm, theta)."""
    return (U2Params(rho=rho, x=x, y=y, theta=theta),
            U2Params(rho=rho + np.pi, x=-x, y=y, theta=theta))


def solve_order_one_recursion(
    u_plus: np.ndarray, u_minus: np.ndarray, nrange: Iterable[float],
) -> tuple[dict[float, np.ndarray], dict[float, np.ndarray]]:
    """Affine solution of T(n+1) - 2 T(n) + T(n-1) = 0 from the two seeds,
    as maps of each level to its block:

        T+(n) = (n/2 - 1/4)(U+ + U-*) + U+
        T-(n) = (-n/2 - 1/4)(U- + U+*) + U-

    Being affine in n, the recursion is satisfied bit-exactly.
    """
    plus, minus = u_plus + u_minus.conj().T, u_minus + u_plus.conj().T
    ns = [float(n) for n in nrange]
    return ({n: plus * (0.5 * n - 0.25) + u_plus for n in ns},
            {n: minus * (-0.5 * n - 0.25) + u_minus for n in ns})


def eigenframe(theta: float) -> np.ndarray:
    """Basis change from the T-eigenvector basis to the orthonormal
    time-vector eigenbasis; columns are the +i and -i eigenvectors.

    The half-angle form [[cosh(th/2), sinh(th/2)], [sinh(th/2), cosh(th/2)]]
    is the smooth-in-theta representative of the normalized eigenvectors
    (cosh th +- 1, sinh th)/sqrt(2 cosh th +- 2).
    """
    ch, sh = np.cosh(theta / 2.0), np.sinh(theta / 2.0)
    return np.array([[ch, sh], [sh, ch]], dtype=complex)


def spatial_dirac(q: SpectralQuadruple) -> TruncatedOperator:
    """The Dirac-type operator gamma [iH, gamma] of the volume-element
    condition in even spacetime dimension."""
    return q.gamma @ commutator(q.ih, q.gamma)


def gauge_unitary(basis: BasisDescriptor, rho: float, y: float) -> TruncatedOperator:
    """Diagonal-phase unitary exp(i rho n) (x) diag(1, e^{iy}) realizing the
    two residual basis-phase freedoms (overall u-phase and fiber phase) on
    a single-point basis."""
    phase = np.exp(1j * rho * basis.level_array)
    return TruncatedOperator(basis, {0: block_stack(phase, 0.0, 0.0, phase * np.exp(1j * y))})


def gauge_transform(q: SpectralQuadruple, rho: float, y: float) -> SpectralQuadruple:
    """q in the basis changed by w = gauge_unitary(rho, y): every linear
    operator X becomes w* X w and C becomes w* C w."""
    w = gauge_unitary(q.basis, rho, y)
    w_h = w.adjoint()

    def conj(x: TruncatedOperator) -> TruncatedOperator:
        return w_h @ x @ w

    return replace(q, u=conj(q.u), e_perp=conj(q.e_perp), gamma=conj(q.gamma),
                   cc=q.cc.before(w_h).after(w), t21=conj(q.t21), t_plus=conj(q.t_plus),
                   t_minus=conj(q.t_minus), ih=conj(q.ih))
