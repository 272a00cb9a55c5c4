"""Finite spectral triples, their axioms, and the Connes distance.

A finite triple is classified by matrix-block dimensions n_i and a
symmetric invertible integer intersection form q.  The Hilbert space is the
direct sum over q_ij != 0 of C^{n_i} (x) C^{|q_ij|} (x) C^{n_j}; the algebra
acts on the left factor, the opposite algebra (through the real structure J)
on the right, and the grading is sign(q_ij) per block.  The 1+0-dimensional
quadruple extension sets e_perp = i gamma and H(t) = e_perp D(t) for a
schedule of Dirac parameters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .quadruple import AxiomReport

__all__ = [
    "FiniteTripleSpec",
    "FiniteTriple",
    "FiniteQuadruple",
    "RealStructure",
    "build_finite_triple",
    "two_point_spec",
    "two_point_dirac",
    "two_point_triple",
    "validate_finite_triple",
    "sign_table",
    "connes_distance",
    "quadruple_from_triple",
]


@dataclass(frozen=True)
class FiniteTripleSpec:
    """Classification data: summand dimensions and the intersection form."""

    dims: tuple[int, ...]
    q: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if any(d < 1 for d in self.dims):
            raise ValueError("summand dimensions must be positive")
        qm = np.asarray(self.q, dtype=int)
        k = len(self.dims)
        if qm.shape != (k, k):
            raise ValueError("intersection form must be k x k")
        if not np.array_equal(qm, qm.T):
            raise ValueError("intersection form must be symmetric")
        if round(abs(np.linalg.det(qm.astype(float)))) == 0:
            raise ValueError("intersection form must be invertible")

    @property
    def q_matrix(self) -> np.ndarray:
        return np.asarray(self.q, dtype=int)

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Nonzero-multiplicity blocks (i, j) in lexicographic order."""
        qm = self.q_matrix
        k = len(self.dims)
        return tuple((i, j) for i in range(k) for j in range(k) if qm[i, j] != 0)


@dataclass(frozen=True)
class RealStructure:
    """Antilinear map v -> mat conj(v) on the assembled Hilbert space."""

    mat: np.ndarray

    def after(self, a: np.ndarray) -> np.ndarray:
        """Matrix of J o a (antilinear)."""
        return self.mat @ np.conj(a)

    def before(self, a: np.ndarray) -> np.ndarray:
        """Matrix of a o J (antilinear)."""
        return a @ self.mat


class FiniteTriple:
    """Assembled finite spectral triple (H, pi, pi_op, J, gamma, D)."""

    def __init__(self, spec: FiniteTripleSpec, dirac: np.ndarray):
        self.spec = spec
        qm = spec.q_matrix
        self.blocks = spec.blocks
        self.block_dims = tuple(
            spec.dims[i] * abs(int(qm[i, j])) * spec.dims[j] for i, j in self.blocks)
        offsets = np.concatenate([[0], np.cumsum(self.block_dims)])
        self.offsets = {blk: int(offsets[b]) for b, blk in enumerate(self.blocks)}
        self.hilbert_dim = int(offsets[-1])

        gamma = np.zeros(self.hilbert_dim)
        for (i, j), d in zip(self.blocks, self.block_dims):
            o = self.offsets[(i, j)]
            gamma[o:o + d] = np.sign(qm[i, j])
        self.gamma = gamma
        self.real_structure = RealStructure(self._build_j())
        dirac = np.asarray(dirac, dtype=complex)
        if dirac.shape != (self.hilbert_dim, self.hilbert_dim):
            raise ValueError(
                f"Dirac matrix shape {dirac.shape} != Hilbert dim {self.hilbert_dim}")
        self.dirac = dirac

    def _block_shape(self, i: int, j: int) -> tuple[int, int, int]:
        return (self.spec.dims[i], abs(int(self.spec.q[i][j])), self.spec.dims[j])

    def _build_j(self) -> np.ndarray:
        # J (v_i (x) v_ij (x) v_j) = conj(v_j) (x) conj(v_ij) (x) conj(v_i)
        m = np.zeros((self.hilbert_dim, self.hilbert_dim))
        for (i, j) in self.blocks:
            ni, nq, nj = self._block_shape(i, j)
            src = self.offsets[(i, j)]
            dst = self.offsets[(j, i)]
            for a in range(ni):
                for mu in range(nq):
                    for b in range(nj):
                        row = dst + (b * nq + mu) * ni + a
                        col = src + (a * nq + mu) * nj + b
                        m[row, col] = 1.0
        return m

    def _summand_matrices(self, a: Sequence) -> list[np.ndarray]:
        out = []
        for i, d in enumerate(self.spec.dims):
            ai = np.asarray(a[i], dtype=complex)
            if ai.ndim == 0:
                ai = ai.reshape(1, 1)
            if ai.shape != (d, d):
                raise ValueError(f"summand {i} must be a {d}x{d} matrix")
            out.append(ai)
        return out

    def pi(self, a: Sequence) -> np.ndarray:
        """Left action a (x) 1 (x) 1."""
        mats = self._summand_matrices(a)
        out = np.zeros((self.hilbert_dim, self.hilbert_dim), dtype=complex)
        for (i, j) in self.blocks:
            ni, nq, nj = self._block_shape(i, j)
            o = self.offsets[(i, j)]
            d, k = ni * nq * nj, nq * nj
            # the block a (x) 1_k viewed as (row, copy, column, copy); a
            # reshape that only splits axes is a view, so this writes out
            block = out[o:o + d, o:o + d].reshape(ni, k, ni, k)
            copies = np.arange(k)
            block[:, copies, :, copies] = mats[i]
        return out

    def pi_op(self, a: Sequence) -> np.ndarray:
        """Right action 1 (x) 1 (x) a^T (equals J pi(a)* J)."""
        mats = self._summand_matrices(a)
        out = np.zeros((self.hilbert_dim, self.hilbert_dim), dtype=complex)
        for (i, j) in self.blocks:
            ni, nq, nj = self._block_shape(i, j)
            o = self.offsets[(i, j)]
            d, k = ni * nq * nj, ni * nq
            # the block 1_k (x) a^T viewed as (copy, row, copy, column)
            block = out[o:o + d, o:o + d].reshape(k, nj, k, nj)
            copies = np.arange(k)
            block[copies, :, copies, :] = mats[j].T
        return out

    def algebra_basis(self) -> list[list[np.ndarray]]:
        """Hermitian-spanning basis elements of the algebra, one summand hot."""
        basis = []
        for i, d in enumerate(self.spec.dims):
            units = []
            for r in range(d):
                for c in range(d):
                    e = np.zeros((d, d), dtype=complex)
                    e[r, c] = 1.0
                    units.append(e)
            for e in units:
                elem = [np.zeros((dd, dd), dtype=complex) for dd in self.spec.dims]
                elem[i] = e
                basis.append(elem)
        return basis

    def characters(self) -> list[int]:
        """Indices of the 1-dim summands (the pure points of the space)."""
        return [i for i, d in enumerate(self.spec.dims) if d == 1]


def _offending_block(t: FiniteTriple, bad: np.ndarray) -> str:
    idx = np.unravel_index(np.argmax(np.abs(bad)), bad.shape)
    row = col = ("?", "?")
    for blk, d in zip(t.blocks, t.block_dims):
        o = t.offsets[blk]
        if o <= idx[0] < o + d:
            row = blk
        if o <= idx[1] < o + d:
            col = blk
    return f"block H_{row} x H_{col}"


# largest entry of D - D* and of JD - DJ that build_finite_triple admits
_ADMISSION_TOL = 1e-12


def build_finite_triple(spec: FiniteTripleSpec, dirac: np.ndarray) -> FiniteTriple:
    """Assemble and admission-check a finite triple.

    Rejects D that are not selfadjoint or do not commute with the real
    structure (an entry of D - D* or JD - DJ above 1e-12), naming the
    offending block.
    """
    t = FiniteTriple(spec, dirac)
    herm = t.dirac - t.dirac.conj().T
    if np.abs(herm).max() > _ADMISSION_TOL:
        raise ValueError(f"Dirac operator not selfadjoint at {_offending_block(t, herm)}")
    jd = t.real_structure.after(t.dirac) - t.real_structure.before(t.dirac)
    if np.abs(jd).max() > _ADMISSION_TOL:
        raise ValueError(f"Dirac operator violates JD = DJ at {_offending_block(t, jd)}")
    return t


@functools.cache
def two_point_spec() -> FiniteTripleSpec:
    """The spec of the two-point example, validated once per process (it is
    frozen, so every caller can share it)."""
    return FiniteTripleSpec(dims=(1, 1), q=((1, -1), (-1, 0)))


def two_point_dirac(m: complex) -> np.ndarray:
    """The two-point Dirac form [[0, m, conj(m)], [conj(m), 0, 0], [m, 0, 0]]."""
    m = complex(m)
    return np.array([
        [0.0, m, np.conj(m)],
        [np.conj(m), 0.0, 0.0],
        [m, 0.0, 0.0],
    ], dtype=complex)


def two_point_triple(m: complex) -> FiniteTriple:
    return build_finite_triple(two_point_spec(), two_point_dirac(m))


def validate_finite_triple(t: FiniteTriple) -> AxiomReport:
    """Residuals of D = D*, JD = DJ, gamma D = -D gamma, and the first-order
    condition over an algebra basis."""
    d = t.dirac
    g = np.diag(t.gamma)
    basis = t.algebra_basis()
    right = [t.pi_op(b) for b in basis]
    first_order = []
    for a in basis:
        pa = t.pi(a)
        da = d @ pa - pa @ d
        first_order += [da @ bo - bo @ da for bo in right]
    norms = _norms([d - d.conj().T,
                    t.real_structure.after(d) - t.real_structure.before(d),
                    g @ d + d @ g, *first_order])
    rep = AxiomReport()
    rep.add("finite.selfadjoint", norms[0])
    rep.add("finite.j_commutes", norms[1])
    rep.add("finite.gamma_anticommutes", norms[2])
    rep.add("finite.first_order", max(norms[3:]))
    return rep


def _norms(mats: list[np.ndarray]) -> list[float]:
    """The spectral norm of each matrix, from one SVD call on their stack."""
    return np.linalg.svd(np.stack(mats), compute_uv=False).max(axis=-1).tolist()


class SignTable(NamedTuple):
    j_squared: int
    d_commutation: int
    gamma_commutation: int | None


def sign_table(n: int) -> SignTable:
    """Reality signs of a KO-dimension-n triple: J^2, JD vs DJ, and (even n
    only) J gamma vs gamma J; 8-periodic in n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    j2 = (-1) ** (((n - 1) * n * (n + 1) * (n + 2) // 8) % 2)
    jd = (-1) ** ((n * (n + 1) * (n + 2) // 2) % 2)
    jg = (-1) ** ((n // 2) % 2) if n % 2 == 0 else None
    return SignTable(j2, jd, jg)


def _distance_norm(t: FiniteTriple, values: np.ndarray) -> float:
    pa = t.pi([complex(v) for v in values])
    return float(np.linalg.norm(t.dirac @ pa - pa @ t.dirac, 2))


# the least min ||[D, a]||, relative to max(||D||, 1), that connes_distance
# reads as nonzero
_ZERO_TOL = 1e-11


def connes_distance(t: FiniteTriple, i: int, j: int) -> float:
    """sup { |x_i(a) - x_j(a)| : ||[D, a]|| <= 1 } for the characters of the
    commutative summands.

    Solved through the equivalent convex form 1 / min { ||[D, a]|| :
    a_i - a_j = 1 } with the gauge a_j = 0 (adding a constant to a leaves
    [D, a] invariant).  Returns math.inf when the minimum vanishes, below
    1e-11 max(||D||, 1) (the points are infinitely far apart, e.g. m = 0).
    """
    chars = t.characters()
    if i not in chars or j not in chars:
        raise ValueError("requested summand carries no character (dimension > 1)")
    if i == j:
        return 0.0
    k = len(t.spec.dims)
    free = [idx for idx in range(k) if idx not in (i, j)]

    def assemble(x: np.ndarray) -> np.ndarray:
        vals = np.zeros(k)
        vals[i] = 1.0
        for slot, idx in enumerate(free):
            vals[idx] = x[slot]
        return vals

    scale = max(float(np.linalg.norm(t.dirac, 2)), 1.0)
    if not free:
        mu = _distance_norm(t, assemble(np.zeros(0)))
    else:
        # imported here, not at module load: no default path needs scipy
        from scipy.optimize import minimize

        # deterministic multi-start simplex descent; the objective is convex
        # (a seminorm on an affine slice), so local descent finds the optimum
        best_x, best_f = None, np.inf
        for start in (np.zeros(len(free)), 0.5 * np.ones(len(free)),
                      -0.5 * np.ones(len(free))):
            res = minimize(lambda x: _distance_norm(t, assemble(x)), start,
                           method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-14,
                                    "maxiter": 4000, "maxfev": 8000})
            if res.fun < best_f:
                best_x, best_f = np.array(res.x), float(res.fun)
        # deterministic grid refinement fallback around the incumbent
        if len(free) <= 2:
            grid = np.linspace(-1.0, 1.0, 11)
            for width in (1.0, 0.1, 0.01, 0.001):
                for idx in np.ndindex(*(len(grid),) * len(free)):
                    p = best_x + width * grid[list(idx)]
                    val = _distance_norm(t, assemble(p))
                    if val < best_f:
                        best_x, best_f = p, val
        mu = best_f
    if mu <= _ZERO_TOL * scale:
        return math.inf
    return 1.0 / mu


@dataclass(frozen=True)
class FiniteQuadruple:
    """Time-scheduled quadruple extension: e_perp = i gamma(t),
    H(t) = e_perp(t) D(t)."""

    times: tuple[float, ...]
    triples: tuple[FiniteTriple, ...]

    def e_perp(self, idx: int) -> np.ndarray:
        return 1j * np.diag(self.triples[idx].gamma)

    def validate(self) -> AxiomReport:
        """Time-vector and odd-spacetime volume-element conditions at every
        scheduled time: e_perp^2 = -1, e_perp* = -e_perp, [e_perp, gamma] = 0."""
        defects = []
        for idx, t in enumerate(self.triples):
            e = self.e_perp(idx)
            g = np.diag(t.gamma)
            defects += [e @ e + np.eye(t.hilbert_dim), e.conj().T + e, e @ g - g @ e]
        norms = _norms(defects) if defects else []
        rep = AxiomReport()
        for idx, tval in enumerate(self.times):
            note = f"t = {tval:g}"
            for k, name in enumerate(("e_perp_square", "e_perp_antihermitian",
                                      "volume_braiding")):
                rep.add(f"finite.{name}@{idx}", norms[3 * idx + k], notes=note)
        return rep


def quadruple_from_triple(
    base: FiniteTriple,
    m_schedule: Iterable[tuple[float, complex]],
) -> FiniteQuadruple:
    """Extend the two-point triple by a schedule of its Dirac parameter, in
    the displayed comoving form ``two_point_dirac``; any other base triple
    is refused."""
    if base.spec != two_point_spec():
        raise ValueError("a Dirac-parameter schedule extends only the two-point triple")
    times, triples = [], []
    for tval, m in m_schedule:
        times.append(float(tval))
        triples.append(build_finite_triple(base.spec, two_point_dirac(m)))
    return FiniteQuadruple(times=tuple(times), triples=tuple(triples))
