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
it is [[i rm, -n/cosh(th)], [n/cosh(th), -i rm]].  Arrays of parameters
give one batched quadruple over their points (``assemble_quadruple``).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .operators import (
    AntilinearOperator,
    BasisDescriptor,
    TruncatedOperator,
    TruncationError,
    block_stack,
)
from .quadruple import SpectralQuadruple

__all__ = [
    "DeSitterParams",
    "seed_operators",
    "appendix_t_plus",
    "appendix_t_minus",
    "hamiltonian_theta",
    "evolution_block",
    "charge_conjugation",
    "assemble_quadruple",
    "crosscheck_construction_vs_appendix",
]

# fiber matrices in the orthonormal time-vector eigenbasis
E_PERP_FIBER = np.diag([1j, -1j])
GAMMA_FIBER = np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex)
FIBER_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


_POINT_PARAMS = ("rm", "theta")

# the least truncation a quadruple is assembled at
MIN_NMAX = 4


@dataclass(frozen=True)
class DeSitterParams:
    """The two physical parameters (rm, theta) plus the truncation size.

    rm and theta may be arrays: ``batch``, their broadcast shape, is the
    batch of parameter points of one quadruple, () for a single point."""

    rm: float | np.ndarray
    theta: float | np.ndarray = 0.0
    nmax: int = 32

    def __post_init__(self):
        if not isinstance(self.nmax, Integral) or self.nmax < MIN_NMAX:
            raise TruncationError(f"nmax must be an integer >= {MIN_NMAX}, not {self.nmax!r}")
        for name in _POINT_PARAMS:
            value = getattr(self, name)
            if np.iscomplexobj(value) or not np.isfinite(value).all():
                raise ValueError(f"{name} must be real and finite")
        self.batch  # raises ValueError unless the parameter shapes broadcast

    @property
    def batch(self) -> tuple[int, ...]:
        return np.broadcast(*(getattr(self, name) for name in _POINT_PARAMS)).shape


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


def appendix_t_plus(n, rm: float, theta: float) -> np.ndarray:
    """Closed-form raising block at level n (orthonormal frame); an array
    of levels gives the fiber-major stack of blocks."""
    t, c = np.tanh(theta), np.cosh(theta)
    a = np.asarray(n) + 0.5
    return block_stack(-1j * rm + a * t, a / c, -a / c, 1j * rm + a * t)


def appendix_t_minus(n, rm: float, theta: float) -> np.ndarray:
    """Closed-form lowering block at level n (orthonormal frame); an array
    of levels gives the fiber-major stack of blocks."""
    t, c = np.tanh(theta), np.cosh(theta)
    a = np.asarray(n) - 0.5
    return block_stack(-1j * rm - a * t, a / c, -a / c, 1j * rm - a * t)


def _recursion_stacks(u_plus: np.ndarray, u_minus: np.ndarray,
                      ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The affine recursion solution on an array of levels, as the two
    fiber-major (2, 2, N) stacks of T+(n) and T-(n)."""
    return ((u_plus + u_minus.conj().T)[..., None] * (0.5 * ns - 0.25) + u_plus[..., None],
            (u_minus + u_plus.conj().T)[..., None] * (-0.5 * ns - 0.25) + u_minus[..., None])


def hamiltonian_theta(n, rm: float, theta: float) -> np.ndarray:
    """Level-diagonal theta-derivative block at level n in the
    (non-orthonormal) T-eigenvector basis:

        d_theta |n,+> = ((n-1/2) tanh th + i rm cosh th)|n,+>
                        + ((n+1/2) + i rm sinh th)|n,->
        d_theta |n,-> = ((-n-1/2) tanh th - i rm cosh th)|n,->
                        + ((-n+1/2) - i rm sinh th)|n,+>

    An array of levels gives the fiber-major stack of blocks.
    """
    t, c, s = np.tanh(theta), np.cosh(theta), np.sinh(theta)
    n = np.asarray(n)
    return block_stack((n - 0.5) * t + 1j * rm * c, (0.5 - n) - 1j * rm * s,
                       (n + 0.5) + 1j * rm * s, -(n + 0.5) * t - 1j * rm * c)


def evolution_block(n, rm: float, theta: float) -> np.ndarray:
    """Per-level block of the stored generator iH: the theta-derivative
    blocks transported into the frame normalized against the conserved
    inner product (measure factor cosh theta), which subtracts the frame
    connection and yields the antihermitian closed form

        iH(n) = [[i rm, -n/cosh th], [n/cosh th, -i rm]].

    An array of levels gives the fiber-major stack of blocks.
    """
    c = np.cosh(theta)
    n = np.asarray(n)
    return block_stack(1j * rm, -n / c, n / c, -1j * rm)


def charge_conjugation(basis: BasisDescriptor) -> AntilinearOperator:
    """C: |n, sigma> -> conj o |-n, -sigma> with overall phase +1: the level
    reflection times the fiber flip."""
    return AntilinearOperator(TruncatedOperator.from_fiber(basis, FIBER_FLIP))


def assemble_quadruple(p: DeSitterParams) -> SpectralQuadruple:
    """Assemble the full de Sitter quadruple at the given parameters.

    Over a batch of parameter points (``p.batch``) it is one quadruple on a
    batched basis: t+- and iH hold a block stack per point, and u, e_perp,
    gamma, T21 and C are shared by every point."""
    basis = BasisDescriptor.spinor(p.nmax, p.batch)
    levels = basis.level_array
    # the parameters of every point against a trailing level axis
    rm, theta = (np.broadcast_to(x, basis.batch)[..., None] for x in (p.rm, p.theta))
    ident = np.eye(2).reshape(2, 2, *basis.shared, 1)
    # blocks whose image leaves the window are dropped by the constructor
    u = TruncatedOperator(basis, {1: np.broadcast_to(ident, ident.shape[:-1] + levels.shape)})
    e_perp = TruncatedOperator.from_fiber(basis, E_PERP_FIBER)
    gamma = TruncatedOperator.from_fiber(basis, GAMMA_FIBER)
    t21 = TruncatedOperator(basis, {0: 1j * levels * ident})
    t_plus = TruncatedOperator(basis, {1: appendix_t_plus(levels, rm, theta)})
    t_minus = TruncatedOperator(basis, {-1: appendix_t_minus(levels, rm, theta)})
    ih = TruncatedOperator(basis, {0: evolution_block(levels, rm, theta)})
    return SpectralQuadruple(
        basis=basis, u=u, e_perp=e_perp, gamma=gamma, cc=charge_conjugation(basis),
        t21=t21, t_plus=t_plus, t_minus=t_minus, ih=ih)


def crosscheck_construction_vs_appendix(p: DeSitterParams) -> float:
    """Max elementwise difference between the recursion-built ladder blocks
    and the direct closed-form evaluation, on the levels up to p.nmax."""
    levels = BasisDescriptor.spinor(p.nmax).level_array
    tplus, tminus = _recursion_stacks(*seed_operators(p.rm, p.theta), levels)
    return float(max(np.abs(tplus - appendix_t_plus(levels, p.rm, p.theta)).max(),
                     np.abs(tminus - appendix_t_minus(levels, p.rm, p.theta)).max()))
