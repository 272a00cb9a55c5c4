"""Spinor fields on the de Sitter chart and the symmetry action on them.

``SpinorField`` is the one two-component field type: ``HypFn`` components
in the global-frame spinor basis on the chart, so chart derivatives are
exact.  The time derivative of a solution is eliminated through the Dirac
equation, which lets the boost generators act on slice data; the exact
phi-Fourier modes of the results give their matrix elements in the compact
generator's eigenbasis, which the operator construction must reproduce.
The module also carries the per-level evolution generator and fiber Gram
matrix, with the identity that makes the solution product slice
independent.  Two first-order identities are read off the operators'
coefficient matrices, so they hold for every field and no field is
sampled: the intrinsic and the extrinsic Dirac operator of the slice agree
after the frame transport, and on Minkowski space the flat Dirac operator
commutes with the symmetry generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    COS_PHI,
    GAMMA0,
    GAMMA1,
    GAMMA2,
    SECH,
    SIN_PHI,
    TANH,
    ChartPoint,
    HypFn,
    frame_intertwiner_inverse,
    frame_vectors,
    slash,
)
from .operators import block_product, block_stack

__all__ = [
    "SpinorField",
    "t_basis_field",
    "apply_generator",
    "apply_T_grid",
    "level_block",
    "fiber_gram",
    "conservation_defect",
    "dirac_pair",
    "minkowski_commutation_residual",
]

_SINH = HypFn.monomial(1, 0, 0)
_COSH = HypFn.monomial(0, 1, 0)


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

    def __sub__(self, other: "SpinorField") -> "SpinorField":
        return SpinorField(self.up - other.up, self.down - other.down)

    def scale(self, c) -> "SpinorField":
        """Multiply both components by a scalar or a HypFn."""
        return SpinorField(c * self.up, c * self.down)

    def mat(self, m) -> "SpinorField":
        """Apply a 2x2 matrix whose entries are scalars or HypFn."""
        return SpinorField(self.up * m[0][0] + self.down * m[0][1],
                           self.up * m[1][0] + self.down * m[1][1])

    def __call__(self, theta: float, phi: float) -> np.ndarray:
        return np.array([self.up(theta, phi), self.down(theta, phi)])


# pointwise Clifford matrices with closed-form entries (global frame):
# e0slash = cosh g0 + sinh cos(phi) g1 + sinh sin(phi) g2, etc.
_E0_MAT = ((1j * _COSH, HypFn({(1, 0, 1): -1j})),
           (HypFn({(1, 0, -1): 1j}), -1j * _COSH))
_N_MAT = ((1j * _SINH, HypFn({(0, 1, 1): -1j})),
          (HypFn({(0, 1, -1): 1j}), -1j * _SINH))
_RHAT_MAT = ((0.0, HypFn({(0, 0, 1): -1j})),
             (HypFn({(0, 0, -1): 1j}), 0.0))


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


def _on_shell_d_theta(f: SpinorField, rm: float) -> SpinorField:
    """theta derivative of the solution through the Dirac equation:
    d_theta psi = nslash (sech d_phi - e0slash) psi + rm e0slash psi."""
    e0f = f.mat(_E0_MAT)
    return (f.d_phi().scale(SECH) - e0f).mat(_N_MAT) + e0f.scale(rm)


def apply_generator(gen_id: str, f: SpinorField, rm: float = 0.0) -> SpinorField:
    """Act with a symmetry generator or Clifford element on slice data.

    The boosts (and their ladder combinations) involve the evolution
    derivative, realized on-shell; they therefore depend on the field mass
    through rm.
    """
    if gen_id == "T21":
        return f.mat(0.5 * GAMMA0) - f.d_phi()
    if gen_id == "e0":
        return f.mat(_E0_MAT)
    if gen_id == "n_slash":
        return f.mat(_N_MAT)
    if gen_id == "r_slash":
        return f.mat(_RHAT_MAT)
    if gen_id == "d_theta":
        return _on_shell_d_theta(f, rm)
    if gen_id in ("Tplus", "Tminus", "T01", "T02"):
        fth = _on_shell_d_theta(f, rm)
        fph = f.d_phi()
        t01 = f.mat(0.5 * GAMMA2) - fth.scale(COS_PHI) + fph.scale(SIN_PHI * TANH)
        t02 = f.mat(-0.5 * GAMMA1) - fth.scale(SIN_PHI) - fph.scale(COS_PHI * TANH)
        if gen_id == "T01":
            return t01
        if gen_id == "T02":
            return t02
        if gen_id == "Tplus":
            return t01 - t02.scale(1j)
        return t01 + t02.scale(1j)
    raise ValueError(f"unknown generator {gen_id!r}")


def apply_T_grid(gen_id: str, n: float, sign: int, rm: float,
                 theta: float) -> dict[tuple[float, int], complex]:
    """Apply a generator to |T: n, sign> and decompose the result in the
    T-basis through the exact phi-Fourier modes at the given slice.

    Raises if more than 1e-9 of the result's norm leaks outside the two
    target basis vectors (the displayed matrix elements would then be wrong).
    """
    result = apply_generator(gen_id, t_basis_field(n, sign), rm)
    target_n = n + 1.0 if gen_id == "Tplus" else n - 1.0 if gen_id == "Tminus" else n

    coefs: dict[tuple[float, int], complex] = {}
    total = 0.0
    for comp_sign, comp in ((+1, result.up), (-1, result.down)):
        for k, c in comp.phi_modes(theta).items():
            # component exponents: e^{-i(n'-1/2)phi} (up), e^{-i(n'+1/2)phi} (down)
            n_prime = 0.5 - k if comp_sign > 0 else -0.5 - k
            coefs[(float(n_prime), comp_sign)] = c
            total += abs(c) ** 2
    targets = {(float(target_n), +1), (float(target_n), -1)}
    kept = {key: coefs.get(key, 0.0 + 0.0j) for key in targets}
    leak_sq = total - sum(abs(c) ** 2 for c in kept.values())
    scale = max(np.sqrt(total), 1e-30)
    if np.sqrt(max(leak_sq, 0.0)) > 1e-9 * scale:
        raise ValueError(
            f"decomposition of {gen_id} |T:{n},{sign:+d}> leaks outside the "
            f"target level {target_n}")
    return kept


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
