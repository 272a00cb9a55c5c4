"""Finite spectral triples, their axioms, and the Connes distance.

A finite triple is classified by matrix-block dimensions n_i and a
symmetric invertible integer intersection form q.  The Hilbert space is the
direct sum over q_ij != 0 of C^{n_i} (x) C^{|q_ij|} (x) C^{n_j}; the algebra
acts on the left factor, the opposite algebra (through the real structure J)
on the right, and the grading is sign(q_ij) per block.  The 1+0-dimensional
quadruple extension sets e_perp = i gamma and H(t) = e_perp D(t) for a
schedule of Dirac parameters.

The checks and the two-point distance call neither LAPACK nor BLAS:
products are ``operators.block_product`` sums, spectral norms come from
``operators.block_norms`` (a batched one-sided Jacobi iteration, or the
closed form on a 2-dimensional Hilbert space) of blocks scaled by a power
of two, so they keep the whole float range, and the invertibility of q
from an exact integer determinant.  Only the multi-point distance search
takes SVD norms and BLAS products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .operators import block_norms, block_product, power_of_two_below
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


def _integer_det(rows: Sequence[Sequence[int]]) -> int:
    """The exact determinant of a square integer matrix, by fraction-free
    (Bareiss) elimination on Python ints: every division is exact."""
    m = [[int(x) for x in row] for row in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, len(m)) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


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
        if _integer_det(self.q) == 0:
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
        return block_product(self.mat, np.conj(a))

    def before(self, a: np.ndarray) -> np.ndarray:
        """Matrix of a o J (antilinear)."""
        return block_product(a, self.mat)


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

    Rejects D with a nan or inf entry, and D that are not selfadjoint or do
    not commute with the real structure (an entry of D - D* or JD - DJ above
    1e-12), naming the offending block.
    """
    t = FiniteTriple(spec, dirac)
    finite = np.isfinite(t.dirac)
    if not finite.all():
        raise ValueError(f"Dirac operator has a non-finite entry at {_offending_block(t, ~finite)}")
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
    condition over an algebra basis; a nan in D reads red."""
    d = t.dirac
    basis = t.algebra_basis()
    # [[D, a], b°] for every pair of basis elements, as one (n, n, a, b) stack
    left = np.stack([t.pi(a) for a in basis], axis=-1)
    right = np.stack([t.pi_op(b) for b in basis], axis=-1)
    da = _commutator(d[..., None], left)
    first_order = _commutator(da[..., None], right[..., None, :])
    norms = _norms(np.concatenate([
        np.stack([d - d.conj().T, t.real_structure.after(d) - t.real_structure.before(d),
                  # gamma is diagonal: (gamma D + D gamma)_ij = (g_i + g_j) D_ij
                  (t.gamma[:, None] + t.gamma) * d], axis=-1),
        first_order.reshape(first_order.shape[:2] + (-1,))], axis=-1))
    rep = AxiomReport()
    rep.add("finite.selfadjoint", norms[0])
    rep.add("finite.j_commutes", norms[1])
    rep.add("finite.gamma_anticommutes", norms[2])
    rep.add("finite.first_order", norms[3:].max())
    return rep


def _norms(stack: np.ndarray) -> np.ndarray:
    """``block_norms`` of a fiber-major stack (n, n, ...), each block first
    divided by the power of two at or below its largest |entry| and its
    norm multiplied back, both exact, so the squares of a 2x2 block neither
    overflow nor underflow (a product by the reciprocal: a complex nan
    divided by a real warns)."""
    scale = power_of_two_below(np.abs(stack).max(axis=(0, 1)))
    return block_norms(stack * (1.0 / scale)) * scale


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba of two fiber-major stacks (n, n, ...)."""
    return block_product(a, b) - block_product(b, a)


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


# the least min ||[D, a]||, relative to ||D||, that connes_distance reads
# as nonzero
_ZERO_TOL = 1e-11


def connes_distance(t: FiniteTriple, i: int, j: int) -> float:
    """sup { |x_i(a) - x_j(a)| : ||[D, a]|| <= 1 } for the characters of the
    commutative summands.

    Solved through the equivalent convex form 1 / min { ||[D, a]|| :
    a_i - a_j = 1 } with the gauge a_j = 0 (adding a constant to a leaves
    [D, a] invariant).  Returns math.inf when the minimum vanishes, at or
    below 1e-11 ||D|| (the points are infinitely far apart, e.g. m = 0,
    where D = 0).
    With no free coordinate (two points) both norms come from ``block_norms``;
    otherwise a multi-start search over the free coordinates minimizes.
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

    if free:
        # imported here, not at module load: no default path needs scipy
        from scipy.optimize import minimize

        # the objective runs thousands of times, so it keeps the SVD norm
        # and BLAS products, which beat the Jacobi sums here
        def objective(x: np.ndarray) -> float:
            pa = t.pi(assemble(x))
            return float(np.linalg.norm(t.dirac @ pa - pa @ t.dirac, 2))

        dnorm = float(np.linalg.norm(t.dirac, 2))
        # deterministic multi-start simplex descent; the objective is convex
        # (a seminorm on an affine slice), so local descent finds the optimum
        best_x, best_f = None, np.inf
        for start in (np.zeros(len(free)), 0.5 * np.ones(len(free)),
                      -0.5 * np.ones(len(free))):
            res = minimize(objective, start, method="Nelder-Mead",
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
                    val = objective(p)
                    if val < best_f:
                        best_x, best_f = p, val
        mu, unit = best_f, 1.0
    else:
        pa = t.pi(assemble(np.zeros(0)))
        # both norms in units of the power of two at or below max |D_ij|,
        # so that ||D|| cannot overflow for entries near 1e308
        unit = float(power_of_two_below(np.abs(t.dirac).max()))
        stack = np.stack([t.dirac, _commutator(t.dirac, pa)], axis=-1) / unit
        dnorm, mu = block_norms(stack).tolist()
    # both sides in units of unit, so the test is scale-free
    if mu <= _ZERO_TOL * dnorm:
        return math.inf
    # 1 / unit is exact, so d = 1 / (mu unit) is rounded once
    return 1.0 / unit / mu


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
        norms = []
        if self.triples:
            # e_perp at every time as an (n, n, times) stack, the diagonal
            # of gamma as (n, times), so [e, gamma]_ij = e_ij (g_j - g_i); the
            # defects interleave as (n, n, times, 3)
            e = np.stack([self.e_perp(idx) for idx in range(len(self.triples))], axis=-1)
            g = np.stack([t.gamma for t in self.triples], axis=-1)
            defects = np.stack([block_product(e, e) + np.eye(e.shape[0])[..., None],
                                e.conj().swapaxes(0, 1) + e, e * (g[None] - g[:, None])],
                               axis=-1)
            norms = _norms(defects.reshape(e.shape[:2] + (-1,)))
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
