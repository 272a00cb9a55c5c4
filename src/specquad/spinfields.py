"""Spinor fields on the de Sitter chart and the symmetry action on them.

``SpinorField`` is the one two-component field type (components in the
global-frame spinor basis): ``HypFn`` components on the chart, so chart
derivatives are exact, or ``PolyG`` components on Minkowski space.  The time
derivative of a solution is eliminated through the Dirac equation, which
lets the boost generators act on slice data; the exact phi-Fourier modes of
the results give their matrix elements in the compact generator's
eigenbasis, which the operator construction must reproduce.  The module
also carries the conserved solution inner product, the frame change to the
orthonormal time-vector eigenbasis, and the check on Minkowski space that
the flat Dirac operator commutes with the symmetry generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy.integrate import solve_ivp

from .geometry import (
    B_INTERTWINER,
    COS_PHI,
    GAMMA0,
    GAMMA1,
    GAMMA2,
    SECH,
    SIN_PHI,
    TANH,
    ChartPoint,
    HypFn,
    SparseMonomials,
    frame_intertwiner_inverse,
    frame_vectors,
    slash,
)

__all__ = [
    "SpinorField",
    "t_basis_field",
    "apply_generator",
    "apply_T_grid",
    "level_block",
    "SolutionCoefficients",
    "propagate",
    "inner_product_slice",
    "slice_independence",
    "fiber_gram",
    "dirac_pair",
    "dirac_agreement_residual",
    "random_spinor_field",
    "PolyG",
    "random_poly_spinor",
    "minkowski_commutation_residual",
]

_SINH = HypFn.monomial(1, 0, 0)
_COSH = HypFn.monomial(0, 1, 0)


@dataclass(frozen=True)
class SpinorField:
    """Two-component field in the global-frame spinor basis, with ``HypFn``
    components on the de Sitter chart or ``PolyG`` components on Minkowski
    space; derivatives act componentwise."""

    up: SparseMonomials
    down: SparseMonomials

    def d_theta(self) -> "SpinorField":
        return SpinorField(self.up.d_theta(), self.down.d_theta())

    def d_phi(self) -> "SpinorField":
        return SpinorField(self.up.d_phi(), self.down.d_phi())

    def d(self, i: int) -> "SpinorField":
        return SpinorField(self.up.d(i), self.down.d(i))

    def mul_x(self, i: int) -> "SpinorField":
        return SpinorField(self.up.mul_x(i), self.down.mul_x(i))

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

    def __call__(self, *args) -> np.ndarray:
        return np.array([self.up(*args), self.down(*args)])


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


def apply_T_grid(gen_id: str, n: float, sign: int, rm: float, theta: float,
                 leak_tol: float = 1e-9) -> dict[tuple[float, int], complex]:
    """Apply a generator to |T: n, sign> and decompose the result in the
    T-basis through the exact phi-Fourier modes at the given slice.

    Raises if the decomposition leaks outside the two target basis vectors
    (the displayed matrix elements would then be wrong).
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
    if np.sqrt(max(leak_sq, 0.0)) > leak_tol * scale:
        raise ValueError(
            f"decomposition of {gen_id} |T:{n},{sign:+d}> leaks outside the "
            f"target level {target_n}")
    return kept


def level_block(n: float, rm: float, theta: float) -> np.ndarray:
    """On-shell theta-derivative block on the span of |T: n, +->, built by
    composing the Clifford actions restricted to the level (independent of
    the displayed derivative formula)."""
    s, c = np.sinh(theta), np.cosh(theta)
    n_t = 1j * np.array([[s, -c], [c, -s]])
    e0_t = 1j * np.array([[c, -s], [s, -c]])
    dphi_t = np.diag([-1j * (n - 0.5), -1j * (n + 0.5)])
    return n_t @ (dphi_t / c - e0_t) + rm * e0_t


@dataclass(frozen=True)
class SolutionCoefficients:
    """T-basis coefficient data of a Dirac solution at one slice."""

    rm: float
    coeffs: Mapping[float, np.ndarray]

    def levels(self) -> list[float]:
        return sorted(self.coeffs)


def propagate(sol: SolutionCoefficients, theta_from: float,
              theta_to: float, rtol: float = 1e-12) -> SolutionCoefficients:
    """Propagate slice data by integrating the per-level 2x2 evolution ODE."""
    if theta_from == theta_to:
        return sol
    out = {}
    for n, v in sol.coeffs.items():
        res = solve_ivp(
            lambda th, y, n=n: level_block(n, sol.rm, th) @ y,
            (theta_from, theta_to), np.asarray(v, dtype=complex),
            method="DOP853", rtol=rtol, atol=1e-14)
        if not res.success:
            raise RuntimeError(f"propagation failed at level {n}: {res.message}")
        out[n] = res.y[:, -1]
    return SolutionCoefficients(rm=sol.rm, coeffs=out)


def _field_on_grid(sol: SolutionCoefficients, phi: np.ndarray) -> np.ndarray:
    up = np.zeros_like(phi, dtype=complex)
    down = np.zeros_like(phi, dtype=complex)
    for n, v in sol.coeffs.items():
        up += v[0] * np.exp(-1j * (n - 0.5) * phi)
        down += v[1] * np.exp(-1j * (n + 0.5) * phi)
    return np.stack([up, down])


def inner_product_slice(sol1: SolutionCoefficients, sol2: SolutionCoefficients,
                        theta: float, npts: int = 1024) -> complex:
    """Conserved solution product at a slice: the flux integral
    int B(psi1, e0slash psi2) cosh(theta) dphi on the uniform grid.

    The cosh factor is the slice volume element; without it the integral is
    not slice independent.
    """
    phi = np.arange(npts) * 2.0 * np.pi / npts
    f1 = _field_on_grid(sol1, phi)
    f2 = _field_on_grid(sol2, phi)
    s, c = np.sinh(theta), np.cosh(theta)
    # e0slash on the grid: [[i c, -i s e^{i phi}], [i s e^{-i phi}, -i c]]
    eip = np.exp(1j * phi)
    g1 = np.conj(f1)
    bw = B_INTERTWINER
    e0f2_up = 1j * c * f2[0] - 1j * s * eip * f2[1]
    e0f2_down = 1j * s * np.conj(eip) * f2[0] - 1j * c * f2[1]
    integrand = g1[0] * bw[0, 0] * e0f2_up + g1[1] * bw[1, 1] * e0f2_down
    return complex(np.sum(integrand) * (2.0 * np.pi / npts) * c)


def slice_independence(sol1: SolutionCoefficients, sol2: SolutionCoefficients,
                       theta_a: float, theta_b: float) -> float:
    """|product at theta_a - product at theta_b| after propagating both
    solutions; zero for true solutions of the evolution ODE."""
    p_a = inner_product_slice(sol1, sol2, theta_a)
    p_b = inner_product_slice(propagate(sol1, theta_a, theta_b),
                              propagate(sol2, theta_a, theta_b), theta_b)
    return abs(p_a - p_b)


def fiber_gram(theta: float, npts: int = 1024) -> np.ndarray:
    """Gram matrix of the T-basis pair at one level under the pointwise
    B-weighted product B(., e0slash .), computed on the grid."""
    gram = np.zeros((2, 2), dtype=complex)
    basis = [SolutionCoefficients(0.0, {0.5: np.array([1.0, 0.0])}),
             SolutionCoefficients(0.0, {0.5: np.array([0.0, 1.0])})]
    for a in range(2):
        for b in range(2):
            gram[a, b] = inner_product_slice(basis[a], basis[b], theta, npts) \
                / (2.0 * np.pi * np.cosh(theta))
    return gram


# -- intrinsic vs extrinsic Dirac --------------------------------------------

def dirac_pair(psi: SpinorField, p: ChartPoint) -> tuple[np.ndarray, np.ndarray]:
    """(intrinsic value in the moving frame, extrinsic value in the global
    frame) of the hypersurface Dirac operator on the field at a point.

    Intrinsic: -g0 (1/R) d_theta + g2 (1/(R cosh)) d_phi - tanh/(2R) g0,
    acting on the transported components S^{-1} psi.  Extrinsic:
    -e0slash (1/R) d_theta + e2slash (1/(R cosh)) d_phi - (1/R) nslash
    (half the extrinsic-curvature trace 2/R).
    """
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
    intrinsic, extrinsic = dirac_pair(psi, p)
    transported = frame_intertwiner_inverse(p.theta, p.phi) @ extrinsic
    return float(np.abs(intrinsic - transported).max())


def random_spinor_field(rng: np.random.Generator, max_k: int = 3) -> SpinorField:
    """Random closed-form field: small combinations of sinh^a cosh^b e^{ik phi}."""
    def comp():
        terms = {}
        for _ in range(4):
            a = int(rng.integers(0, 3))
            b = int(rng.integers(-2, 3))
            k = int(rng.integers(-max_k, max_k + 1))
            terms[(a, b, k)] = complex(rng.normal(), rng.normal())
        return HypFn(terms)
    return SpinorField(comp(), comp())


# -- Minkowski-space check: the flat Dirac operator commutes with the
#    symmetry generators ------------------------------------------------------

class PolyG(SparseMonomials):
    """Polynomial in (x0, x1, x2) times the Gaussian e^{-|x|^2/2}; the key
    (a, b, c) stands for x0^a x1^b x2^c e^{-|x|^2/2}.  Closed under
    coordinate multiplication and differentiation, but not under products."""

    __slots__ = ()

    def mul_x(self, i: int) -> "PolyG":
        return PolyG({_shifted(key, i, 1): coef for key, coef in self.terms.items()})

    def d(self, i: int) -> "PolyG":
        # d_i (P e^G) = (d_i P - x_i P) e^G; a zero power of x_i gives a zero
        # coefficient, which the constructor drops
        return PolyG(pair for key, coef in self.terms.items()
                     for pair in ((_shifted(key, i, -1), key[i] * coef),
                                  (_shifted(key, i, 1), -coef)))

    def __call__(self, x: np.ndarray) -> complex:
        g = np.exp(-0.5 * float(np.dot(x, x)))
        total = 0.0 + 0.0j
        for (a, b, c), v in self.terms.items():
            total += v * x[0] ** a * x[1] ** b * x[2] ** c
        return total * g


def _shifted(key: tuple[int, int, int], i: int, step: int) -> tuple[int, int, int]:
    out = list(key)
    out[i] += step
    return tuple(out)


_MINK_ETA = (-1.0, 1.0, 1.0)
_OMEGA = {(0, 1): 0.5 * GAMMA2, (0, 2): -0.5 * GAMMA1, (2, 1): 0.5 * GAMMA0}


def _dirac_minkowski(f: SpinorField) -> SpinorField:
    # gamma^k d_k with the index raised by eta
    return (f.d(0).mat(-GAMMA0) + f.d(1).mat(GAMMA1) + f.d(2).mat(GAMMA2))


def _symmetry_generator(i: int, j: int, f: SpinorField) -> SpinorField:
    # T_ij = -L_ij + omega_ij with L_ij = x_j d_i - x_i d_j (indices lowered)
    l_term = f.d(i).mul_x(j).scale(_MINK_ETA[j]) - f.d(j).mul_x(i).scale(_MINK_ETA[i])
    return f.mat(_OMEGA[(i, j)]) - l_term


def random_poly_spinor(rng: np.random.Generator, degree: int = 2) -> SpinorField:
    """Random field with PolyG components of the given degree per coordinate."""
    def comp():
        terms = {}
        for _ in range(5):
            key = tuple(int(rng.integers(0, degree + 1)) for _ in range(3))
            terms[key] = complex(rng.normal(), rng.normal())
        return PolyG(terms)
    return SpinorField(comp(), comp())


def minkowski_commutation_residual(field: SpinorField,
                                   points: Iterable[np.ndarray]) -> float:
    """Max over sample points and generator pairs of |[Dslash_M, T_ij] psi|,
    computed with exact derivatives; vanishes identically for the flat Dirac
    operator."""
    worst = 0.0
    for (i, j) in _OMEGA:
        lhs = _dirac_minkowski(_symmetry_generator(i, j, field))
        rhs = _symmetry_generator(i, j, _dirac_minkowski(field))
        diff = lhs - rhs
        for x in points:
            worst = max(worst, float(np.abs(diff(np.asarray(x, dtype=float))).max()))
    return worst
