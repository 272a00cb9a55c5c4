"""Complex linear algebra on truncated level bases, stored band by band.

Operators live on a basis indexed by a uniformly spaced ladder of "levels"
(weights of the compact rotation generator) times a small fiber (the spinor
index).  Each quadruple operator maps level n to level n + k for one fixed
k, so operators are stored as shift bands of fiber blocks and multiply band
by band in O(nlevels).  Truncation simply drops states beyond the cutoff, so
identities that hold on the infinite ladder are checked on interior levels
away from the contaminated boundary.  ``to_dense``/``from_dense`` are the
dense oracle for tests at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "BasisDescriptor",
    "TruncatedOperator",
    "AntilinearOperator",
    "InteriorProjector",
    "TruncationError",
    "commutator",
    "anticommutator",
    "op_norm",
    "interior_residual",
    "bch_terms",
    "antilinear_conjugate",
]


class BasisMismatchError(ValueError):
    """Raised when two operands live on different bases."""


class TruncationError(ValueError):
    """Raised when a truncation window is too small for the requested margin."""


@dataclass(frozen=True)
class BasisDescriptor:
    """An ordered ladder of levels with a fiber attached to each level.

    ``levels`` must be strictly increasing with spacing 1 and symmetric about
    zero (all half-odd integers for the spinor basis, all integers for the
    scalar weight lattices of the representation module).
    """

    levels: tuple[float, ...]
    fiber_dim: int = 2

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        if lv.size < 2:
            raise ValueError("need at least two levels")
        if self.fiber_dim < 1:
            raise ValueError("fiber_dim must be positive")
        if not np.allclose(np.diff(lv), 1.0, atol=1e-12):
            raise ValueError("levels must be uniformly spaced with spacing 1")
        if not np.allclose(lv + lv[::-1], 0.0, atol=1e-12):
            raise ValueError("levels must be symmetric about 0")

    @classmethod
    def spinor(cls, nmax: int) -> "BasisDescriptor":
        """Half-integer levels n with |n| <= nmax - 1/2 and a 2-dim fiber."""
        if nmax < 1:
            raise ValueError("nmax must be a positive integer")
        lv = tuple(float(x) for x in np.arange(-nmax + 0.5, nmax + 0.5))
        return cls(levels=lv, fiber_dim=2)

    @classmethod
    def weight_lattice(cls, nmax: int, lattice: str = "half_integer") -> "BasisDescriptor":
        """Scalar (1-dim fiber) ladder on the integer or half-integer lattice."""
        if nmax < 1:
            raise ValueError("nmax must be a positive integer")
        if lattice == "half_integer":
            lv = tuple(float(x) for x in np.arange(-nmax + 0.5, nmax + 0.5))
        elif lattice == "integer":
            lv = tuple(float(x) for x in np.arange(-float(nmax), nmax + 1.0))
        else:
            raise ValueError(f"unknown lattice {lattice!r}")
        return cls(levels=lv, fiber_dim=1)

    @property
    def nlevels(self) -> int:
        return len(self.levels)

    @property
    def dim(self) -> int:
        return self.fiber_dim * len(self.levels)

    @property
    def nmax(self) -> int:
        """Number of positive levels (equals the spinor-basis cutoff); the
        levels are symmetric and unit spaced, so that is half of them."""
        return self.nlevels // 2

    @property
    def max_level(self) -> float:
        return self.levels[-1]

    def level_index(self, n: float) -> int:
        i = int(round(n - self.levels[0]))
        if not (0 <= i < len(self.levels)) or abs(self.levels[i] - n) > 1e-9:
            raise KeyError(f"level {n} not in basis")
        return i

    def index(self, n: float, sigma: int = 0) -> int:
        """Flat index of |n, sigma>; storage is level-major, fiber-minor."""
        if not (0 <= sigma < self.fiber_dim):
            raise KeyError(f"fiber index {sigma} out of range")
        return self.level_index(n) * self.fiber_dim + sigma


def _shifted(arr: np.ndarray, s: int) -> np.ndarray:
    """out[i] = arr[i + s] along the level axis, zero where i + s leaves it."""
    if s == 0:
        return arr
    out = np.zeros_like(arr)
    if s > 0:
        out[:-s] = arr[s:]
    else:
        out[-s:] = arr[:s]
    return out


def _dense_norm(mat: np.ndarray) -> float:
    """Spectral norm of a dense matrix by SVD."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


@dataclass(frozen=True)
class TruncatedOperator:
    """A complex operator on a :class:`BasisDescriptor`, stored as shift bands.

    ``bands[k]`` has shape (nlevels, d, d); entry i is the fiber block mapping
    level index i to level index i + k.  Blocks whose target leaves the
    window are zero and all-zero bands are not stored, so ``shift_degree``
    (the k of the single stored band) is exact, never advisory.
    """

    basis: BasisDescriptor
    bands: Mapping[int, np.ndarray]

    def __post_init__(self):
        nl, d = self.basis.nlevels, self.basis.fiber_dim
        bands = {}
        for k, arr in sorted(self.bands.items()):
            arr = np.array(arr, dtype=complex)
            if arr.shape != (nl, d, d):
                raise ValueError(f"band {k} has shape {arr.shape}, expected {(nl, d, d)}")
            lo, hi = max(0, -k), nl - max(0, k)
            arr[:lo] = 0.0
            arr[max(lo, hi):] = 0.0
            if arr.any():
                arr.setflags(write=False)
                bands[int(k)] = arr
        object.__setattr__(self, "bands", bands)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, basis: BasisDescriptor) -> "TruncatedOperator":
        return cls(basis, {})

    @classmethod
    def identity(cls, basis: BasisDescriptor) -> "TruncatedOperator":
        return cls.from_fiber(basis, np.eye(basis.fiber_dim))

    @classmethod
    def from_fiber(cls, basis: BasisDescriptor, fiber: np.ndarray) -> "TruncatedOperator":
        """Same fiber matrix at every level (level-scalar operator)."""
        d = basis.fiber_dim
        return cls(basis, {0: np.broadcast_to(np.asarray(fiber).reshape(d, d),
                                              (basis.nlevels, d, d))})

    @classmethod
    def from_level_diagonal(cls, basis: BasisDescriptor,
                            block: Callable[[float], np.ndarray]) -> "TruncatedOperator":
        """Level-diagonal operator with fiber block ``block(n)`` at level n."""
        return cls.from_shift(basis, 0, block)

    @classmethod
    def from_shift(cls, basis: BasisDescriptor, k: int,
                   block: Callable[[float], np.ndarray]) -> "TruncatedOperator":
        """Banded operator |n> -> |n+k> with fiber block ``block(n)``.

        Bands leaving the truncation window are dropped (the shift
        annihilates the outermost levels); ``block`` is only called on
        levels whose image stays inside.
        """
        d = basis.fiber_dim
        arr = np.zeros((basis.nlevels, d, d), dtype=complex)
        for i in range(max(0, -k), basis.nlevels - max(0, k)):
            arr[i] = np.asarray(block(basis.levels[i]), dtype=complex).reshape(d, d)
        return cls(basis, {k: arr})

    @classmethod
    def from_dense(cls, basis: BasisDescriptor, mat: np.ndarray,
                   shift_degree: int | None = None) -> "TruncatedOperator":
        """Split a dense level-major matrix into its bands.

        With ``shift_degree = k`` the matrix must lie in band k.
        """
        nl, d = basis.nlevels, basis.fiber_dim
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (basis.dim, basis.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match basis dim {basis.dim}")
        m4, i = mat.reshape(nl, d, nl, d), np.arange(nl)
        # wrapped-around blocks leave the window and are zeroed on construction
        op = cls(basis, {k: m4[(i + k) % nl, :, i, :] for k in range(1 - nl, nl)})
        if shift_degree is not None and set(op.bands) - {shift_degree}:
            raise ValueError(f"matrix has entries off the declared shift band k={shift_degree}")
        return op

    def to_dense(self) -> np.ndarray:
        """The dense level-major, fiber-minor matrix (a test oracle)."""
        nl, d = self.basis.nlevels, self.basis.fiber_dim
        m4, i = np.zeros((nl, d, nl, d), dtype=complex), np.arange(nl)
        for k, arr in self.bands.items():
            m4[(i + k) % nl, :, i, :] += arr  # the wrapped-around blocks are zero
        return m4.reshape(self.basis.dim, self.basis.dim)

    # -- band access -------------------------------------------------------

    @property
    def shift_degree(self) -> int | None:
        """k when the operator has the single band k; None when it is zero
        or spreads over several bands."""
        return next(iter(self.bands)) if len(self.bands) == 1 else None

    def band(self, k: int) -> np.ndarray:
        """The blocks of band k, shape (nlevels, d, d); zeros if not stored."""
        d = self.basis.fiber_dim
        return self.bands.get(k, np.zeros((self.basis.nlevels, d, d), dtype=complex))

    def band_block(self, n: float, k: int) -> np.ndarray:
        """The fiber block mapping level n to level n+k."""
        self.basis.level_index(n + k)
        return self.band(k)[self.basis.level_index(n)]

    # -- algebra -----------------------------------------------------------

    def _check(self, other: "TruncatedOperator"):
        if self.basis != other.basis:
            raise BasisMismatchError("operands live on different bases")

    def _merge(self, other: "TruncatedOperator", op) -> "TruncatedOperator":
        self._check(other)
        keys = set(self.bands) | set(other.bands)
        return TruncatedOperator(self.basis, {
            k: op(self.bands.get(k, 0.0), other.bands.get(k, 0.0)) for k in keys})

    def __add__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return self._merge(other, np.add)

    def __sub__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return self._merge(other, np.subtract)

    def __neg__(self) -> "TruncatedOperator":
        return TruncatedOperator(self.basis, {k: -a for k, a in self.bands.items()})

    def __mul__(self, scalar: complex) -> "TruncatedOperator":
        return TruncatedOperator(self.basis, {k: a * scalar for k, a in self.bands.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        # (AB) block i -> i + k1 + k2 is A_k1[i + k2] B_k2[i]
        self._check(other)
        out: dict[int, np.ndarray] = {}
        for k1, a in self.bands.items():
            for k2, b in other.bands.items():
                prod = _shifted(a, k2) @ b
                k = k1 + k2
                out[k] = out[k] + prod if k in out else prod
        return TruncatedOperator(self.basis, out)

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator(self.basis, {
            -k: _shifted(a, -k).conj().swapaxes(1, 2) for k, a in self.bands.items()})

    def conj(self) -> "TruncatedOperator":
        """Entrywise complex conjugate."""
        return TruncatedOperator(self.basis, {k: a.conj() for k, a in self.bands.items()})

    def power(self, p: int) -> "TruncatedOperator":
        """Integer power; negative p uses the adjoint (valid for unitaries)."""
        base = self if p >= 0 else self.adjoint()
        out = TruncatedOperator.identity(self.basis)
        for _ in range(abs(p)):
            out = out @ base
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        nl, d = self.basis.nlevels, self.basis.fiber_dim
        v = np.asarray(v, dtype=complex).reshape(nl, d, 1)
        out = np.zeros((nl, d, 1), dtype=complex)
        for k, a in self.bands.items():
            out += _shifted(a @ v, -k)
        return out.reshape(-1)


def _reflect(x: TruncatedOperator) -> TruncatedOperator:
    """R x R with R the level reflection n -> -n: band k becomes band -k
    with the level order reversed."""
    return TruncatedOperator(x.basis, {-k: a[::-1] for k, a in x.bands.items()})


def _reflect_rows(basis: BasisDescriptor, mat: np.ndarray) -> np.ndarray:
    """R mat for a dense matrix or vector."""
    mat = np.asarray(mat, dtype=complex)
    return mat.reshape(basis.nlevels, basis.fiber_dim, -1)[::-1].reshape(mat.shape)


def commutator(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    """AB - BA."""
    return a @ b - b @ a


def anticommutator(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    """AB + BA."""
    return a @ b + b @ a


def op_norm(a: TruncatedOperator | np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    if not isinstance(a, TruncatedOperator):
        return _dense_norm(a)
    return interior_residual(a, 0)


@dataclass(frozen=True)
class AntilinearOperator:
    """v -> R B conj(v) with R the level reflection n -> -n and B banded;
    represents charge conjugation C (R times a fiber flip).  Keeping the
    reflection out of B keeps every product with C banded."""

    linear: TruncatedOperator

    @property
    def basis(self) -> BasisDescriptor:
        return self.linear.basis

    @classmethod
    def from_dense(cls, basis: BasisDescriptor, mat: np.ndarray) -> "AntilinearOperator":
        """The map v -> mat @ conj(v)."""
        return cls(TruncatedOperator.from_dense(basis, _reflect_rows(basis, mat)))

    def to_dense(self) -> np.ndarray:
        """The matrix M of v -> M conj(v) (a test oracle)."""
        return _reflect_rows(self.basis, self.linear.to_dense())

    def apply(self, v: np.ndarray) -> np.ndarray:
        return _reflect_rows(self.basis, self.linear.apply(np.conj(np.asarray(v, dtype=complex))))

    def compose(self, other: "AntilinearOperator") -> TruncatedOperator:
        """self o other is linear: R B1 conj(R B2) = (R B1 R) conj(B2)."""
        return _reflect(self.linear) @ other.linear.conj()

    def squared(self) -> TruncatedOperator:
        return self.compose(self)

    def after(self, a: TruncatedOperator) -> "AntilinearOperator":
        """self o a (antilinear): R B conj(A)."""
        return AntilinearOperator(self.linear @ a.conj())

    def before(self, a: TruncatedOperator) -> "AntilinearOperator":
        """a o self (antilinear): A R B = R (R A R) B."""
        return AntilinearOperator(_reflect(a) @ self.linear)


def antilinear_conjugate(c: AntilinearOperator, a: TruncatedOperator) -> TruncatedOperator:
    """The opposite-algebra element C a* C (a* the adjoint), a linear map.

    With C = R B conj, composing the three maps gives R B a^T R conj(B),
    i.e. (R (B a^T) R) conj(B) with a^T = conj(a*).
    """
    return _reflect(c.linear @ a.adjoint().conj()) @ c.linear.conj()


@dataclass(frozen=True)
class InteriorProjector:
    """Orthogonal projector P onto levels with |n| <= max_level - margin."""

    basis: BasisDescriptor
    margin: int = 0

    def __post_init__(self):
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if self.margin >= self.basis.nmax:
            raise TruncationError(f"margin {self.margin} >= nmax {self.basis.nmax}")

    def _band_mask(self, k: int) -> np.ndarray:
        """Source levels i such that levels i and i + k are both kept."""
        cut = self.basis.max_level - self.margin
        keep = np.abs(np.asarray(self.basis.levels)) <= cut + 1e-9
        return keep & _shifted(keep, k)

    def band(self, a: TruncatedOperator, k: int) -> np.ndarray:
        """The kept blocks of band k (source and target kept), in level order."""
        return a.band(k)[self._band_mask(k)]

    def band_norms(self, a: TruncatedOperator, k: int) -> np.ndarray:
        """Spectral norms of the kept blocks of band k.

        For a 2-dim fiber the squared norm of a block B is the largest
        eigenvalue of B*B = [[p, r], [conj(r), q]], (p + q)/2 +
        hypot((p - q)/2, |r|): sums of squares and a hypot only, so it keeps
        full relative accuracy when the two singular values nearly coincide,
        where sqrt(f + sqrt(f^2 - |det B|^2)) cancels.  Entries beyond about
        1e+-154 over- or underflow when squared.  Other fibers use the SVD.
        """
        blocks = self.band(a, k)
        if blocks.shape[1:] != (2, 2):
            return np.linalg.norm(blocks, 2, axis=(1, 2))
        sq = blocks.real ** 2 + blocks.imag ** 2
        p, q = sq[:, 0, 0] + sq[:, 1, 0], sq[:, 0, 1] + sq[:, 1, 1]
        r = blocks[:, 0, 0].conj() * blocks[:, 0, 1] + blocks[:, 1, 0].conj() * blocks[:, 1, 1]
        return np.sqrt(0.5 * (p + q) + np.hypot(0.5 * (p - q), np.abs(r)))

    def project(self, a: TruncatedOperator) -> TruncatedOperator:
        """P A P, band by band."""
        return TruncatedOperator(a.basis, {
            k: arr * self._band_mask(k)[:, None, None] for k, arr in a.bands.items()})

    def compress(self, a: TruncatedOperator | np.ndarray) -> np.ndarray:
        """P A P restricted to the kept rows/columns, as a dense matrix."""
        mat = a.to_dense() if isinstance(a, TruncatedOperator) else np.asarray(a)
        keep = np.repeat(self._band_mask(0), self.basis.fiber_dim)
        return mat[np.ix_(keep, keep)]


def interior_residual(a: TruncatedOperator, margin: int) -> float:
    """Spectral norm of P A P; asserts "A = 0 away from the cutoff".

    A single-band operator is a direct sum of its blocks, so its norm is
    the largest block norm; several bands fall back to the dense SVD.
    """
    proj = InteriorProjector(a.basis, margin)
    if len(a.bands) > 1:
        return _dense_norm(proj.compress(a))
    return max((float(proj.band_norms(a, k).max(initial=0.0)) for k in a.bands), default=0.0)


def bch_terms(generator: TruncatedOperator, f: TruncatedOperator,
              kmax: int) -> list[TruncatedOperator]:
    """Terms ad_G^k(f) / k! for k = 0..kmax.

    Term k is the k-th Taylor coefficient of e^{tG} f e^{-tG} at t = 0; with
    G the stored antihermitian generator iH this is the expansion of the
    evolved algebra element.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    terms = [f]
    for k in range(1, kmax + 1):
        terms.append(commutator(generator, terms[-1]) * (1.0 / k))
    return terms
