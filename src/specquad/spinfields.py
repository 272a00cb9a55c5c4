"""Spinor fields on the de Sitter chart and the symmetry action on them.

A first-order operator on two-component fields is its pair (A, B) of 2x2
``HypFn`` matrices on (d_phi, 1), in the global-frame spinor basis on the
chart, so chart derivatives are exact.  The time derivative of a solution
is eliminated through the Dirac equation (``d_theta_pair``), which lets
the boost generators act on slice data; ``t_bands`` reads such a pair's
matrix elements in the compact generator's eigenbasis from the exact
phi-Fourier modes of its entries, for all levels at once, and the operator
construction must reproduce them.  The module also carries the per-level
evolution generator and fiber Gram matrix, with the identity that makes
the solution product slice independent.  Two first-order identities are
read off the operators' coefficient matrices, so they hold for every field
and no field is sampled: the intrinsic and the extrinsic Dirac operator of
the slice agree after the frame transport, and on Minkowski space the flat
Dirac operator commutes with the symmetry generators.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    GAMMA0,
    GAMMA1,
    GAMMA2,
    SECH,
    ChartPoint,
    HypFn,
    frame_intertwiner_inverse,
    frame_vectors,
    slash,
)
from .operators import block_product, block_stack

__all__ = [
    "d_theta_pair",
    "t_bands",
    "level_block",
    "fiber_gram",
    "conservation_defect",
    "dirac_pair",
    "minkowski_commutation_residual",
]

_SINH = HypFn.monomial(1, 0, 0)
_COSH = HypFn.monomial(0, 1, 0)


# pointwise Clifford matrices with closed-form entries (global frame):
# e0slash = cosh g0 + sinh cos(phi) g1 + sinh sin(phi) g2, etc.
_E0_MAT = ((1j * _COSH, HypFn({(1, 0, 1): -1j})),
           (HypFn({(1, 0, -1): 1j}), -1j * _COSH))
_N_MAT = ((1j * _SINH, HypFn({(0, 1, 1): -1j})),
          (HypFn({(0, 1, -1): 1j}), -1j * _SINH))


def d_theta_pair(rm: float):
    """The on-shell theta derivative d_theta psi = nslash (sech d_phi -
    e0slash) psi + rm e0slash psi (the Dirac equation solved for it) as its
    pair (A, B) of 2x2 ``HypFn`` matrices on (d_phi, 1): A = sech nslash and
    B = -nslash e0slash + rm e0slash."""
    a = tuple(tuple(SECH * x for x in row) for row in _N_MAT)
    b = tuple(tuple(_E0_MAT[r][s] * rm - (_N_MAT[r][0] * _E0_MAT[0][s]
                                          + _N_MAT[r][1] * _E0_MAT[1][s])
                    for s in range(2)) for r in range(2))
    return a, b


def t_bands(pair, levels, theta: float) -> dict[int, np.ndarray]:
    """The T-basis bands of the first-order operator A d_phi + B with the
    ``HypFn`` matrix pair (A, B), on the slice theta, for an array of levels.

    The basis field |T: n, s> is e^{i k_s(n) phi} e_s with k_s(n) = -n + s/2
    (s = +1 the up, s = -1 the down component).  Mode j of entry (r, s) of
    the pair maps it to e^{i (k_s(n) + j) phi} e_r = |T: n + (r - s)/2 - j, r>
    with the value i k_s(n) a_j + b_j.  Band d is the fiber-major
    (2, 2, nlevels) stack whose entry [:, :, i] maps level n_i to n_i + d;
    only bands that some mode reaches are returned.
    """
    levels = np.asarray(levels, dtype=float)
    bands: dict[int, np.ndarray] = {}
    # r and s index the fiber, 0 for the sign +1 and 1 for -1: k_s(n) reads
    # -n + 1/2 - s and the shift (r - s)/2 - j reads s - r - j
    for r in range(2):
        for s in range(2):
            ik = 1j * (0.5 - s - levels)
            a, b = (m[r][s].phi_modes(theta) for m in pair)
            for j in a.keys() | b.keys():
                band = bands.setdefault(s - r - j, np.zeros((2, 2, levels.size), dtype=complex))
                band[r, s] = ik * a.get(j, 0.0) + b.get(j, 0.0)
    return bands


def level_block(n, rm: float, theta) -> np.ndarray:
    """On-shell theta-derivative block on the span of |T: n, +->, built by
    composing the Clifford actions restricted to the level (independent of
    the displayed derivative formula).  Arrays of levels and of slices
    broadcast against each other and give the fiber-major stack of blocks."""
    n, theta = np.broadcast_arrays(n, np.asarray(theta, dtype=float))
    s, c = np.sinh(theta), np.cosh(theta)
    # the Clifford actions of nslash and e0slash on the level pair
    n_t = block_stack(1j * s, -1j * c, 1j * c, -1j * s)
    e0_t = block_stack(1j * c, -1j * s, 1j * s, -1j * c)
    # d_phi is diagonal: -i(n - 1/2) on the up and -i(n + 1/2) on the down pair
    dphi_t = block_stack(-1j * (n - 0.5), 0.0, 0.0, -1j * (n + 0.5))
    return block_product(n_t, dphi_t / c - e0_t) + rm * e0_t


def fiber_gram(theta) -> np.ndarray:
    """Gram matrix G of the level pair |T: n, +-> under the flux density
    B(., e0slash .) of the solution product: e0slash maps the pair to itself
    by i[[c, -s], [s, -c]] and B = diag(-i, i), so G = [[c, -s], [-s, c]]
    with c = cosh(theta), s = sinh(theta).  The phi integral pairs each
    level with itself, so the product of two solutions on a slice is
    2 pi cosh(theta) sum_n v1_n^* G v2_n; the cosh is the slice volume
    element.  An array of slices gives the fiber-major stack of matrices."""
    s, c = np.sinh(theta), np.cosh(theta)
    return block_stack(c, -s, -s, c)


# the entries cosh^2 and -cosh sinh of cosh(theta) G, differentiated exactly
_D_COSH_GRAM = tuple(tuple(f.d_theta() for f in row) for row in (
    (_COSH * _COSH, -1.0 * _COSH * _SINH), (-1.0 * _COSH * _SINH, _COSH * _COSH)))


def conservation_defect(n, rm: float, theta) -> np.ndarray:
    """K_n = (cosh G)' + M_n^* cosh G + cosh G M_n with M_n = level_block and
    G = fiber_gram; arrays broadcast as in ``level_block``.

    Along solutions v' = M_n v the slice product 2 pi cosh(theta) sum_n
    v1_n^* G v2_n has derivative 2 pi sum_n v1_n^* K_n v2_n, so it is the
    same on every slice for every solution exactly when K_n vanishes at
    every level and slice.
    """
    n, theta = np.broadcast_arrays(n, np.asarray(theta, dtype=float))
    m = level_block(n, rm, theta)
    cg = np.cosh(theta) * fiber_gram(theta)
    dcg = np.array([[f(theta, 0.0) for f in row] for row in _D_COSH_GRAM])
    return dcg + block_product(m.conj().swapaxes(0, 1), cg) + block_product(cg, m)


# -- intrinsic vs extrinsic Dirac --------------------------------------------

def dirac_pair(p: ChartPoint) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the hypersurface Dirac operator on (d_theta psi,
    d_phi psi, psi) at the points of p, as fiber-major (3, 2, 2, *points)
    stacks: the intrinsic operator in the moving frame and the extrinsic
    one transported there by S^(-1).  Both are first order, so they agree
    on every field exactly when the stacks agree.

    Intrinsic: -g0 (1/R) d_theta + g2 (1/(R cosh)) d_phi - tanh/(2R) g0,
    acting on the transported components S^(-1) psi, with d_theta S^(-1) =
    -g2 S^(-1) / 2 and d_phi S^(-1) = -S^(-1) g0 / 2.  Extrinsic:
    -e0slash (1/R) d_theta + e2slash (1/(R cosh)) d_phi - (1/R) nslash
    (half the extrinsic-curvature trace 2/R), in the global frame.
    """
    th, ph = np.broadcast_arrays(p.theta, p.phi)
    r, c = p.radius, np.cosh(th)
    g0, g2 = (g.reshape(g.shape + (1,) * th.ndim) for g in (GAMMA0, GAMMA2))
    sinv = frame_intertwiner_inverse(th, ph)
    g0_sinv, g2_sinv = block_product(g0, sinv), block_product(g2, sinv)
    intrinsic = np.array([
        -g0_sinv / r,
        g2_sinv / (r * c),
        (0.5 * block_product(g0, g2_sinv) - 0.5 * block_product(g2_sinv, g0) / c
         - 0.5 * np.tanh(th) * g0_sinv) / r])
    e0, e1, e2 = (slash(e) for e in frame_vectors(p))
    extrinsic = (-e0 / r, e2 / (r * c), -e1 / r)
    return intrinsic, np.array([block_product(sinv, x) for x in extrinsic])


# -- Minkowski-space check: the flat Dirac operator commutes with the
#    symmetry generators ------------------------------------------------------

_MINK_ETA = (-1.0, 1.0, 1.0)
_OMEGA = {(0, 1): 0.5 * GAMMA2, (0, 2): -0.5 * GAMMA1, (2, 1): 0.5 * GAMMA0}


def minkowski_commutation_residual() -> float:
    """Max over the generators T_ij and over k of |C_k|, where
    [Dslash_M, T_ij] = sum_k C_k d_k; vanishes exactly for the flat Dirac
    operator.

    Dslash_M = sum_k A_k d_k with A_k = eta_kk gamma_k (index raised by eta),
    and T_ij = omega_ij - L_ij with L_ij = eta_j x_j d_i - eta_i x_i d_j, i.e.
    T_ij = omega_ij + sum_kl M_kl x_l d_k with M_ij = -eta_j, M_ji = eta_i.
    Both are first order with affine coefficients, so the second-order parts
    cancel and C_k = [A_k, omega_ij] + sum_l M_kl A_l is constant: the
    commutator vanishes on every field iff every C_k does.
    """
    a = [eta * g for eta, g in zip(_MINK_ETA, (GAMMA0, GAMMA1, GAMMA2))]
    worst = 0.0
    for (i, j), omega in _OMEGA.items():
        m = np.zeros((3, 3))
        m[i, j], m[j, i] = -_MINK_ETA[j], _MINK_ETA[i]
        for k in range(3):
            c_k = a[k] @ omega - omega @ a[k] + sum(m[k, l] * a[l] for l in range(3))
            worst = max(worst, float(np.abs(c_k).max()))
    return worst
