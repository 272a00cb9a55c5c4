"""Construction of the de Sitter spectral quadruple on a truncated basis.

The quadruple is built in the orthonormal eigenbasis of the time vector,
where the operator data take closed forms: u is the pure level shift,
e_perp = diag(i, -i) per level, gamma = [[0, i], [-i, 0]], T21 = diag(i n),
and the ladder blocks are affine in the level,

    T+(n) = [[-i rm + (n+1/2) tanh(th), (n+1/2)/cosh(th)],
             [-(n+1/2)/cosh(th),        i rm + (n+1/2) tanh(th)]],

with T-(n) the (n -> -(n)-reflected) counterpart.  The same blocks follow
from the order-one recursion T(n+1) - 2 T(n) + T(n-1) = 0 seeded at
n = +-1/2, which is the cross-check this module exposes.

Units: the slice radius R is set to 1, so only the product rm enters any
matrix (the field mass is the meter stick).  The evolution generator stored
on the quadruple is the transport of the theta-derivative blocks into the
orthonormal frame normalized against the conserved inner product; per level
it is [[i rm, -n/cosh(th)], [n/cosh(th), -i rm]].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .operators import (
    AntilinearOperator,
    BasisDescriptor,
    TruncatedOperator,
    TruncationError,
)
from .quadruple import SpectralQuadruple

__all__ = [
    "DeSitterParams",
    "U2Params",
    "u2_from_params",
    "apply_cc_constraints",
    "cc_constrained_pair",
    "seed_operators",
    "appendix_t_plus",
    "appendix_t_minus",
    "solve_order_one_recursion",
    "hamiltonian_theta",
    "eigenframe",
    "evolution_block",
    "charge_conjugation",
    "gauge_unitary",
    "assemble_quadruple",
    "crosscheck_construction_vs_appendix",
]

# fiber matrices in the orthonormal time-vector eigenbasis
E_PERP_FIBER = np.diag([1j, -1j])
GAMMA_FIBER = np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex)
FIBER_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class DeSitterParams:
    """Two physical parameters (rm, theta) plus the truncation size and the
    two gauge phases the basis choice leaves free (both default to zero)."""

    rm: float
    theta: float = 0.0
    nmax: int = 32
    rho: float = 0.0
    y: float = 0.0

    def __post_init__(self):
        if self.nmax < 4:
            raise TruncationError("nmax must be >= 4")
        for name in ("rm", "theta", "rho", "y"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


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


def seed_operators(rm: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Seed blocks U+ = T+(1/2), U- = T-(-1/2) in the unnormalized
    convention U U* = (1 + rm^2) 1 (the unitary family is U/sqrt(1+rm^2))."""
    t, c = np.tanh(theta), np.cosh(theta)
    u_plus = np.array([
        [-1j * rm + t, 1.0 / c],
        [-1.0 / c, 1j * rm + t],
    ], dtype=complex)
    u_minus = np.array([
        [-1j * rm + t, -1.0 / c],
        [1.0 / c, 1j * rm + t],
    ], dtype=complex)
    return u_plus, u_minus


def _blocks(b00, b01, b10, b11) -> np.ndarray:
    """2x2 blocks from entries that are scalars or level arrays: shape
    (2, 2) for scalars, (N, 2, 2) for arrays of length N."""
    b00, b01, b10, b11 = np.broadcast_arrays(b00, b01, b10, b11)
    return np.stack([np.stack([b00, b01], -1), np.stack([b10, b11], -1)], -2).astype(complex)


def appendix_t_plus(n, rm: float, theta: float) -> np.ndarray:
    """Closed-form raising block at level n (orthonormal frame); an array
    of levels gives the stack of blocks."""
    t, c = np.tanh(theta), np.cosh(theta)
    a = np.asarray(n) + 0.5
    return _blocks(-1j * rm + a * t, a / c, -a / c, 1j * rm + a * t)


def appendix_t_minus(n, rm: float, theta: float) -> np.ndarray:
    """Closed-form lowering block at level n (orthonormal frame); an array
    of levels gives the stack of blocks."""
    t, c = np.tanh(theta), np.cosh(theta)
    a = np.asarray(n) - 0.5
    return _blocks(-1j * rm - a * t, a / c, -a / c, 1j * rm - a * t)


def solve_order_one_recursion(
    u_plus: np.ndarray, u_minus: np.ndarray, nrange: Iterable[float],
) -> tuple[dict[float, np.ndarray], dict[float, np.ndarray]]:
    """Affine solution of T(n+1) - 2 T(n) + T(n-1) = 0 from the two seeds:

        T+(n) = (n/2 - 1/4)(U+ + U-*) + U+
        T-(n) = (-n/2 - 1/4)(U- + U+*) + U-

    Being affine in n, the recursion is satisfied bit-exactly.
    """
    sum_plus = u_plus + u_minus.conj().T
    sum_minus = u_minus + u_plus.conj().T
    tplus, tminus = {}, {}
    for n in nrange:
        n = float(n)
        tplus[n] = (0.5 * n - 0.25) * sum_plus + u_plus
        tminus[n] = (-0.5 * n - 0.25) * sum_minus + u_minus
    return tplus, tminus


def hamiltonian_theta(rm: float, theta: float,
                      basis: BasisDescriptor) -> TruncatedOperator:
    """Level-diagonal theta-derivative blocks in the (non-orthonormal)
    T-eigenvector basis:

        d_theta |n,+> = ((n-1/2) tanh th + i rm cosh th)|n,+>
                        + ((n+1/2) + i rm sinh th)|n,->
        d_theta |n,-> = ((-n-1/2) tanh th - i rm cosh th)|n,->
                        + ((-n+1/2) - i rm sinh th)|n,+>
    """
    t, c, s = np.tanh(theta), np.cosh(theta), np.sinh(theta)

    def block(n: float) -> np.ndarray:
        return np.array([
            [(n - 0.5) * t + 1j * rm * c, (0.5 - n) - 1j * rm * s],
            [(n + 0.5) + 1j * rm * s, -(n + 0.5) * t - 1j * rm * c],
        ], dtype=complex)

    return TruncatedOperator.from_level_diagonal(basis, block)


def eigenframe(theta: float) -> np.ndarray:
    """Basis change from the T-eigenvector basis to the orthonormal
    time-vector eigenbasis; columns are the +i and -i eigenvectors.

    The half-angle form [[cosh(th/2), sinh(th/2)], [sinh(th/2), cosh(th/2)]]
    is the smooth-in-theta representative of the normalized eigenvectors
    (cosh th +- 1, sinh th)/sqrt(2 cosh th +- 2).
    """
    ch, sh = np.cosh(theta / 2.0), np.sinh(theta / 2.0)
    return np.array([[ch, sh], [sh, ch]], dtype=complex)


def evolution_block(n, rm: float, theta: float) -> np.ndarray:
    """Per-level block of the stored generator iH: the theta-derivative
    blocks transported into the frame normalized against the conserved
    inner product (measure factor cosh theta), which subtracts the frame
    connection and yields the antihermitian closed form

        iH(n) = [[i rm, -n/cosh th], [n/cosh th, -i rm]].

    An array of levels gives the stack of blocks.
    """
    c = np.cosh(theta)
    n = np.asarray(n)
    return _blocks(1j * rm, -n / c, n / c, -1j * rm)


def charge_conjugation(basis: BasisDescriptor) -> AntilinearOperator:
    """C: |n, sigma> -> conj o |-n, -sigma> with overall phase +1: the level
    reflection times the fiber flip."""
    return AntilinearOperator(TruncatedOperator.from_fiber(basis, FIBER_FLIP))


def gauge_unitary(basis: BasisDescriptor, rho: float, y: float) -> TruncatedOperator:
    """Diagonal-phase unitary exp(i rho n) (x) diag(1, e^{iy}) realizing the
    two residual basis-phase freedoms (overall u-phase and fiber phase)."""
    fiber = np.diag([1.0, np.exp(1j * y)])
    return TruncatedOperator.from_level_diagonal(
        basis, lambda n: np.exp(1j * rho * n) * fiber)


def assemble_quadruple(p: DeSitterParams) -> SpectralQuadruple:
    """Assemble the full de Sitter quadruple at the given parameters."""
    basis = BasisDescriptor.spinor(p.nmax)
    levels = np.asarray(basis.levels)
    ident = np.eye(2)
    # blocks whose image leaves the window are dropped by the constructor
    u = TruncatedOperator(basis, {1: np.broadcast_to(ident, (basis.nlevels, 2, 2))})
    e_perp = TruncatedOperator.from_fiber(basis, E_PERP_FIBER)
    gamma = TruncatedOperator.from_fiber(basis, GAMMA_FIBER)
    t21 = TruncatedOperator(basis, {0: 1j * levels[:, None, None] * ident})
    t_plus = TruncatedOperator(basis, {1: appendix_t_plus(levels, p.rm, p.theta)})
    t_minus = TruncatedOperator(basis, {-1: appendix_t_minus(levels, p.rm, p.theta)})
    ih = TruncatedOperator(basis, {0: evolution_block(levels, p.rm, p.theta)})
    cc = charge_conjugation(basis)

    quad = SpectralQuadruple(
        basis=basis, u=u, e_perp=e_perp, gamma=gamma, cc=cc,
        t21=t21, t_plus=t_plus, t_minus=t_minus, ih=ih, spacetime_dim=2)

    if p.rho != 0.0 or p.y != 0.0:
        w = gauge_unitary(basis, p.rho, p.y)
        w_h = w.adjoint()

        def conj(x: TruncatedOperator) -> TruncatedOperator:
            return w_h @ x @ w

        quad = SpectralQuadruple(
            basis=basis, u=conj(u), e_perp=conj(e_perp), gamma=conj(gamma),
            cc=cc.before(w_h).after(w),
            t21=conj(t21), t_plus=conj(t_plus), t_minus=conj(t_minus),
            ih=conj(ih), spacetime_dim=2)
    return quad


def crosscheck_construction_vs_appendix(p: DeSitterParams,
                                        nrange: Iterable[float] | None = None) -> float:
    """Max elementwise difference between the recursion-built ladder blocks
    and the direct closed-form evaluation, on the given level range."""
    if nrange is None:
        nrange = BasisDescriptor.spinor(p.nmax).levels
    u_plus, u_minus = seed_operators(p.rm, p.theta)
    tplus, tminus = solve_order_one_recursion(u_plus, u_minus, nrange)
    worst = 0.0
    for n in tplus:
        worst = max(worst, float(np.abs(tplus[n] - appendix_t_plus(n, p.rm, p.theta)).max()))
        worst = max(worst, float(np.abs(tminus[n] - appendix_t_minus(n, p.rm, p.theta)).max()))
    return worst
