"""Spinor fields on the de Sitter chart and the symmetry action on them.

Fields are pairs of closed-form functions (components in the global-frame
spinor basis), so chart derivatives are exact.  The time derivative of a
solution is eliminated through the Dirac equation, which lets the boost
generators act on slice data; decomposing the results over the compact
generator's eigenbasis yields the matrix elements that the operator
construction must reproduce.  The module also carries the conserved
solution inner product, the frame change to the orthonormal time-vector
eigenbasis, and a polynomial-Gaussian field algebra on Minkowski space used
to check that the flat Dirac operator commutes with the symmetry
generators.
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
    "PolySpinor",
    "random_poly_spinor",
    "minkowski_commutation_residual",
]

_ZERO = HypFn()
_SINH = HypFn.monomial(1, 0, 0)
_COSH = HypFn.monomial(0, 1, 0)


@dataclass(frozen=True)
class SpinorField:
    """Two-component field in the global-frame spinor basis."""

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
        return SpinorField(c * self.up, c * self.down)

    def __call__(self, theta: float, phi: float) -> np.ndarray:
        return np.array([self.up(theta, phi), self.down(theta, phi)])


def _mat_apply(m, f: SpinorField) -> SpinorField:
    """Apply a 2x2 matrix whose entries are HypFn or scalars."""
    def entry(x):
        return x if isinstance(x, HypFn) else HypFn.constant(x)
    return SpinorField(
        entry(m[0][0]) * f.up + entry(m[0][1]) * f.down,
        entry(m[1][0]) * f.up + entry(m[1][1]) * f.down,
    )


# pointwise Clifford matrices with closed-form entries (global frame):
# e0slash = cosh g0 + sinh cos(phi) g1 + sinh sin(phi) g2, etc.
_E0_MAT = ((1j * _COSH, HypFn({(1, 0, 1): -1j})),
           (HypFn({(1, 0, -1): 1j}), -1j * _COSH))
_N_MAT = ((1j * _SINH, HypFn({(0, 1, 1): -1j})),
          (HypFn({(0, 1, -1): 1j}), -1j * _SINH))
_RHAT_MAT = ((_ZERO, HypFn({(0, 0, 1): -1j})),
             (HypFn({(0, 0, -1): 1j}), _ZERO))


def t_basis_field(n: float, sign: int) -> SpinorField:
    """Eigenfield of the compact generator: (e^{-i(n-1/2)phi}, 0) for
    sign = +1 and (0, e^{-i(n+1/2)phi}) for sign = -1, n half-integer."""
    if abs(n - np.floor(n) - 0.5) > 1e-12:
        raise ValueError("n must be a half-odd integer")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign > 0:
        return SpinorField(HypFn.monomial(0, 0, int(round(-(n - 0.5)))), _ZERO)
    return SpinorField(_ZERO, HypFn.monomial(0, 0, int(round(-(n + 0.5)))))


def _on_shell_d_theta(f: SpinorField, rm: float) -> SpinorField:
    """theta derivative of the solution through the Dirac equation:
    d_theta psi = nslash (sech d_phi - e0slash) psi + rm e0slash psi."""
    e0f = _mat_apply(_E0_MAT, f)
    inner = _mat_apply(_N_MAT, SpinorField(SECH * f.d_phi().up,
                                           SECH * f.d_phi().down) - e0f)
    return inner + e0f.scale(rm)


def apply_generator(gen_id: str, f: SpinorField, rm: float = 0.0) -> SpinorField:
    """Act with a symmetry generator or Clifford element on slice data.

    The boosts (and their ladder combinations) involve the evolution
    derivative, realized on-shell; they therefore depend on the field mass
    through rm.
    """
    if gen_id == "T21":
        half_g0 = ((HypFn.constant(0.5j), _ZERO), (_ZERO, HypFn.constant(-0.5j)))
        return _mat_apply(half_g0, f) - f.d_phi()
    if gen_id == "e0":
        return _mat_apply(_E0_MAT, f)
    if gen_id == "n_slash":
        return _mat_apply(_N_MAT, f)
    if gen_id == "r_slash":
        return _mat_apply(_RHAT_MAT, f)
    if gen_id == "d_theta":
        return _on_shell_d_theta(f, rm)
    if gen_id in ("Tplus", "Tminus", "T01", "T02"):
        fth = _on_shell_d_theta(f, rm)
        fph = f.d_phi()
        t01 = (_mat_apply(((_ZERO, HypFn.constant(0.5)),
                           (HypFn.constant(0.5), _ZERO)), f)  # (1/2) gamma2
               - SpinorField(COS_PHI * fth.up, COS_PHI * fth.down)
               + SpinorField((SIN_PHI * TANH) * fph.up, (SIN_PHI * TANH) * fph.down))
        t02 = (_mat_apply(((_ZERO, HypFn.constant(0.5j)),
                           (HypFn.constant(-0.5j), _ZERO)), f)  # -(1/2) gamma1
               - SpinorField(SIN_PHI * fth.up, SIN_PHI * fth.down)
               - SpinorField((COS_PHI * TANH) * fph.up, (COS_PHI * TANH) * fph.down))
        if gen_id == "T01":
            return t01
        if gen_id == "T02":
            return t02
        if gen_id == "Tplus":
            return t01 - t02.scale(1j)
        return t01 + t02.scale(1j)
    raise ValueError(f"unknown generator {gen_id!r}")


def _component_frequencies(comp: HypFn, theta: float) -> dict[int, complex]:
    """Exact phi-Fourier coefficients of a component at fixed theta, from the
    uniform 1024-point grid (trapezoid rule is exact for trigonometric
    polynomials of bounded degree)."""
    npts = 1024
    phi = np.arange(npts) * 2.0 * np.pi / npts
    values = np.asarray(comp(theta, phi)) + np.zeros(npts, dtype=complex)
    spec = np.fft.fft(values) / npts
    out = {}
    for idx, c in enumerate(spec):
        if abs(c) < 1e-15:
            continue
        k = idx if idx <= npts // 2 else idx - npts
        out[k] = complex(c)
    return out


def apply_T_grid(gen_id: str, n: float, sign: int, rm: float, theta: float,
                 leak_tol: float = 1e-9) -> dict[tuple[float, int], complex]:
    """Apply a generator to |T: n, sign> and decompose the result in the
    T-basis by phi-Fourier analysis at the given slice.

    Raises if the decomposition leaks outside the two target basis vectors
    (the displayed matrix elements would then be wrong).
    """
    result = apply_generator(gen_id, t_basis_field(n, sign), rm)
    target_n = n + 1.0 if gen_id == "Tplus" else n - 1.0 if gen_id == "Tminus" else n

    coefs: dict[tuple[float, int], complex] = {}
    total = 0.0
    for comp_sign, comp in ((+1, result.up), (-1, result.down)):
        for k, c in _component_frequencies(comp, theta).items():
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
    # d(S^{-1} psi) = (dS^{-1}) psi + S^{-1} dpsi, all in closed form
    ch2, sh2 = np.cosh(th / 2.0), np.sinh(th / 2.0)
    dboost_inv = 0.5 * np.array([[sh2, -ch2], [-ch2, sh2]], dtype=complex)
    rot_inv = np.diag([np.exp(-0.5j * ph), np.exp(0.5j * ph)])
    dsinv_dth = dboost_inv @ rot_inv
    boost_inv = np.array([[ch2, -sh2], [-sh2, ch2]], dtype=complex)
    drot_inv = np.diag([-0.5j * np.exp(-0.5j * ph), 0.5j * np.exp(0.5j * ph)])
    dsinv_dph = boost_inv @ drot_inv

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

class PolyG:
    """Polynomial in (x0, x1, x2) times the Gaussian e^{-|x|^2/2}; closed
    under coordinate multiplication and differentiation."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int, int], complex] | None = None):
        self.terms = {k: complex(v) for k, v in (terms or {}).items() if v != 0}

    def __add__(self, other: "PolyG") -> "PolyG":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return PolyG(out)

    def __sub__(self, other: "PolyG") -> "PolyG":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "PolyG":
        return PolyG({k: v * scalar for k, v in self.terms.items()})

    __rmul__ = __mul__

    def mul_x(self, i: int) -> "PolyG":
        out = {}
        for k, v in self.terms.items():
            kk = list(k)
            kk[i] += 1
            out[tuple(kk)] = out.get(tuple(kk), 0.0) + v
        return PolyG(out)

    def d(self, i: int) -> "PolyG":
        # d_i (P e^G) = (d_i P - x_i P) e^G
        out: dict = {}
        for k, v in self.terms.items():
            if k[i]:
                kk = list(k)
                kk[i] -= 1
                out[tuple(kk)] = out.get(tuple(kk), 0.0) + k[i] * v
            kk = list(k)
            kk[i] += 1
            out[tuple(kk)] = out.get(tuple(kk), 0.0) - v
        return PolyG(out)

    def __call__(self, x: np.ndarray) -> complex:
        g = np.exp(-0.5 * float(np.dot(x, x)))
        total = 0.0 + 0.0j
        for (a, b, c), v in self.terms.items():
            total += v * x[0] ** a * x[1] ** b * x[2] ** c
        return total * g


@dataclass(frozen=True)
class PolySpinor:
    up: PolyG
    down: PolyG

    def d(self, i: int) -> "PolySpinor":
        return PolySpinor(self.up.d(i), self.down.d(i))

    def mul_x(self, i: int) -> "PolySpinor":
        return PolySpinor(self.up.mul_x(i), self.down.mul_x(i))

    def __add__(self, other: "PolySpinor") -> "PolySpinor":
        return PolySpinor(self.up + other.up, self.down + other.down)

    def __sub__(self, other: "PolySpinor") -> "PolySpinor":
        return PolySpinor(self.up - other.up, self.down - other.down)

    def scale(self, c) -> "PolySpinor":
        return PolySpinor(c * self.up, c * self.down)

    def mat(self, m: np.ndarray) -> "PolySpinor":
        return PolySpinor(m[0, 0] * self.up + m[0, 1] * self.down,
                          m[1, 0] * self.up + m[1, 1] * self.down)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.array([self.up(x), self.down(x)])


_MINK_ETA = (-1.0, 1.0, 1.0)
_OMEGA = {(0, 1): 0.5 * GAMMA2, (0, 2): -0.5 * GAMMA1, (2, 1): 0.5 * GAMMA0}


def _dirac_minkowski(f: PolySpinor) -> PolySpinor:
    # gamma^k d_k with the index raised by eta
    return (f.d(0).mat(-GAMMA0) + f.d(1).mat(GAMMA1) + f.d(2).mat(GAMMA2))


def _symmetry_generator(i: int, j: int, f: PolySpinor) -> PolySpinor:
    # T_ij = -L_ij + omega_ij with L_ij = x_j d_i - x_i d_j (indices lowered)
    l_term = f.d(i).mul_x(j).scale(_MINK_ETA[j]) - f.d(j).mul_x(i).scale(_MINK_ETA[i])
    return f.mat(_OMEGA[(i, j)]) - l_term


def random_poly_spinor(rng: np.random.Generator, degree: int = 2) -> PolySpinor:
    def comp():
        terms = {}
        for _ in range(5):
            key = tuple(int(rng.integers(0, degree + 1)) for _ in range(3))
            terms[key] = complex(rng.normal(), rng.normal())
        return PolyG(terms)
    return PolySpinor(comp(), comp())


def minkowski_commutation_residual(field: PolySpinor,
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
