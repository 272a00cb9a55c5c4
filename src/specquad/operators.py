"""Complex linear algebra on truncated level bases, stored band by band.

Operators live on a basis indexed by a uniformly spaced ladder of "levels"
(weights of the compact rotation generator) times a small fiber (the spinor
index).  Each quadruple operator maps level n to level n + k for one fixed
k, so operators are stored as shift bands of fiber blocks and multiply band
by band in O(nlevels).  Every stack of fiber blocks in the package, stored
band or closed-form block formula alike, has the one fiber-major layout
(d, d, *batch, nlevels) with the level axis last: entry [:, :, i] is the
block at level index i.  So the block product (``block_product``, an
explicit sum over the fiber index with no BLAS call per block), the block
norms and the shifts all run over contiguous level vectors, and
``block_stack`` builds a 2x2 stack from its entries.  Only
``to_dense``/``from_dense``, the dense oracle for tests at small sizes and
the fallback of several bands at a point, read the level-major,
fiber-minor flat order.  Truncation simply drops states beyond the cutoff,
so identities that hold on the infinite ladder are checked on interior
levels away from the contaminated boundary.  The levels are symmetric about
0 and unit spaced, so the interior levels |n| <= n_top - margin (n_top
the top level) are exactly the level indices [margin, nlevels - margin): ``InteriorProjector``
slices that index run and compares no float levels.

A basis carries a batch of parameter points (``BasisDescriptor.batch``):
one operator holds its value at every point, and one band-algebra call
serves them all.  A single point is the batch shape (), run by the same
code.  A band that differs between points has the batch axes in full,
(d, d, *batch, nlevels); a band shared by every point has size-1 batch
axes, (d, d, 1, ..., 1, nlevels), and broadcasts against the others.  The
constructors give shared operators the size-1 axes, so an unbatched
(d, d, nlevels) stack never meets a batched one.  ``interior_residual``
gives one norm per point, an array of the batch shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

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
    "block_product",
    "block_stack",
    "median",
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
    ``level_array`` holds the same levels as one read-only float array.
    ``batch`` is the shape of the parameter points an operator on this
    basis holds one value for; () is a single point.
    """

    levels: tuple[float, ...]
    fiber_dim: int = 2
    batch: tuple[int, ...] = ()
    level_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        if lv.size < 2:
            raise ValueError("need at least two levels")
        if self.fiber_dim < 1:
            raise ValueError("fiber_dim must be positive")
        if any(n < 1 for n in self.batch):
            raise ValueError("batch axes must be positive")
        # absolute tests: InteriorProjector reads levels by index, which
        # needs the spacing exactly 1, not 1 within a relative 1e-5
        if not np.all(np.abs(np.diff(lv) - 1.0) <= 1e-12):
            raise ValueError("levels must be uniformly spaced with spacing 1")
        if not np.all(np.abs(lv + lv[::-1]) <= 1e-12):
            raise ValueError("levels must be symmetric about 0")
        lv.setflags(write=False)
        object.__setattr__(self, "level_array", lv)

    @classmethod
    def spinor(cls, nmax: int, batch: tuple[int, ...] = ()) -> "BasisDescriptor":
        """Half-integer levels n with |n| <= nmax - 1/2 and a 2-dim fiber."""
        if nmax < 1:
            raise ValueError("nmax must be a positive integer")
        return cls(levels=tuple(np.arange(-nmax + 0.5, nmax + 0.5).tolist()), fiber_dim=2,
                   batch=tuple(batch))

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
    def shared(self) -> tuple[int, ...]:
        """The size-1 batch axes of a band shared by every point."""
        return (1,) * len(self.batch)


def _shifted(arr: np.ndarray, s: int) -> np.ndarray:
    """out[..., i] = arr[..., i + s] along the last (level) axis, zero where
    i + s leaves it."""
    if s == 0:
        return arr
    out = np.zeros(arr.shape, arr.dtype)
    if s > 0:
        out[..., :-s] = arr[..., s:]
    else:
        out[..., -s:] = arr[..., :s]
    return out


def block_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block products a[:, :, i] b[:, :, i] at every level i of two
    fiber-major stacks, shapes (d, d, ...) and (d, m, ...); the trailing
    (batch and level) shapes broadcast.

    The sum over the fiber index j of a[:, j] b[j] runs on the whole stack
    at once, each term a product of contiguous level vectors; numpy's ``@``
    on stacks makes one BLAS call per block, which costs more than the few
    flops of a 2x2 block.
    """
    out = a[:, :1] * b[:1]
    for j in range(1, a.shape[1]):
        out += a[:, j:j + 1] * b[j:j + 1]
    return out


def block_stack(b00, b01, b10, b11) -> np.ndarray:
    """The complex fiber-major stack of 2x2 blocks with the given entries,
    each a scalar or an array of levels: shape (2, 2) for scalars, (2, 2)
    plus the broadcast shape of the entries otherwise."""
    entries = np.broadcast_arrays(b00, b01, b10, b11)
    return np.array(entries, dtype=complex).reshape((2, 2) + entries[0].shape)


def _dense_norm(mat: np.ndarray) -> np.ndarray:
    """Spectral norms by SVD of a stack (*batch, n, n) of dense matrices,
    one norm per matrix."""
    return np.linalg.norm(mat, 2, axis=(-2, -1))


@dataclass(frozen=True)
class TruncatedOperator:
    """A complex operator on a :class:`BasisDescriptor`, stored as shift bands.

    ``bands[k]`` is a fiber-major (d, d, *batch, nlevels) stack: entry
    [:, :, ..., i] is the fiber block mapping level index i to level index
    i + k, at each point of the basis's batch; a band shared by every point
    has size-1 batch axes.  The constructor takes these two shapes and
    copies each band once into a read-only array, which ``band(k)`` returns
    as it is stored.  Blocks whose target leaves the window are zero and
    bands that are zero at every point are not stored, so on a single-point
    basis the keys of ``bands`` are exactly its nonzero bands.
    """

    basis: BasisDescriptor
    bands: Mapping[int, np.ndarray]

    def __post_init__(self):
        basis = self.basis
        nl, d = basis.nlevels, basis.fiber_dim
        full, shared = (d, d, *basis.batch, nl), (d, d, *basis.shared, nl)
        bands = {}
        for k, arr in self.bands.items():
            arr = np.asarray(arr)
            if arr.shape != full and arr.shape != shared:
                raise ValueError(f"band {k} has shape {arr.shape}, expected the "
                                 f"fiber-major {full}")
            lo = max(0, -k)
            hi = max(lo, nl - max(0, k))
            out = np.zeros(arr.shape, dtype=complex)
            out[..., lo:hi] = arr[..., lo:hi]
            bands[int(k)] = out
        self._store(bands)

    def _store(self, bands: Mapping[int, np.ndarray]):
        """Keep the bands that are nonzero at some point, in key order,
        read-only.

        A band is kept when it has an entry that is not zero.  Two entries
        of the first fiber row at the middle level are probed first, the
        first one at the first point and the last one at the last point,
        and the whole band is scanned only when both are zero:
        fiber-diagonal blocks have the first, fiber-off-diagonal 2x2 blocks
        the second, so most nonzero bands are decided by one or two reads.
        The test stays exact: a nonzero probe proves the band nonzero, and
        the scan decides every other band.  NaN counts as nonzero and -0.0
        as zero in the probe as in ``any()``."""
        kept = {}
        for k in sorted(bands):
            arr = bands[k]
            n = arr.shape[-1]
            # flat indices of [0, 0, first point, n // 2] and
            # [0, -1, last point, n // 2]
            if (arr.item(n // 2) != 0 or arr.item(arr.size // arr.shape[0] - n + n // 2) != 0
                    or arr.any()):
                arr.setflags(write=False)
                kept[k] = arr
        object.__setattr__(self, "bands", kept)

    @classmethod
    def _result(cls, basis: BasisDescriptor,
                bands: Mapping[int, np.ndarray]) -> "TruncatedOperator":
        """An algebra result from fresh fiber-major bands, without the copy,
        shape check and edge zeroing of the public constructor.  That relies
        on the invariant of the band algebra: every result of ``@``, ``+``,
        ``-``, scalar ``*``, ``adjoint``, ``conj``, ``_reflect`` and
        ``InteriorProjector.project`` built from stored bands vanishes
        outside the window, as its operands do, so there is nothing to zero.
        All-zero bands are dropped by the probe-then-scan test of
        ``_store``.  The arrays must belong to no one else: they are made
        read-only."""
        op = object.__new__(cls)
        object.__setattr__(op, "basis", basis)
        op._store(bands)
        return op

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, basis: BasisDescriptor) -> "TruncatedOperator":
        return cls.from_fiber(basis, np.eye(basis.fiber_dim))

    @classmethod
    def from_fiber(cls, basis: BasisDescriptor, fiber: np.ndarray) -> "TruncatedOperator":
        """Same fiber matrix at every level and point (level-scalar operator)."""
        d = basis.fiber_dim
        return cls(basis, {0: np.broadcast_to(np.asarray(fiber).reshape(d, d, *basis.shared, 1),
                                              (d, d, *basis.shared, basis.nlevels))})

    @classmethod
    def from_dense(cls, basis: BasisDescriptor, mat: np.ndarray,
                   shift_degree: int | None = None) -> "TruncatedOperator":
        """Split a dense level-major matrix into its bands; on a batched
        basis ``mat`` is the stack (*batch, dim, dim) of one matrix per point.

        With ``shift_degree = k`` the matrix must lie in band k.
        """
        nl, d, nb = basis.nlevels, basis.fiber_dim, len(basis.batch)
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (*basis.batch, basis.dim, basis.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match basis dim {basis.dim}"
                             f" and batch {basis.batch}")
        # m4[s, t, *p, j, i] is entry (s, t) of the block from level i to
        # level j at point p
        m4 = mat.reshape(*basis.batch, nl, d, nl, d).transpose(
            nb + 1, nb + 3, *range(nb), nb, nb + 2)
        i = np.arange(nl)
        # wrapped-around blocks leave the window and are zeroed on construction
        op = cls(basis, {k: m4[..., (i + k) % nl, i] for k in range(1 - nl, nl)})
        if shift_degree is not None and set(op.bands) - {shift_degree}:
            raise ValueError(f"matrix has entries off the declared shift band k={shift_degree}")
        return op

    def to_dense(self) -> np.ndarray:
        """The dense level-major, fiber-minor matrix (a test oracle); on a
        batched basis the stack (*batch, dim, dim) of one matrix per point."""
        basis = self.basis
        nl, d, nb = basis.nlevels, basis.fiber_dim, len(basis.batch)
        m4, i = np.zeros((d, d, *basis.batch, nl, nl), dtype=complex), np.arange(nl)
        for k, arr in self.bands.items():
            m4[..., (i + k) % nl, i] += arr  # wrapped-around blocks are zero
        return m4.transpose(*range(2, nb + 2), nb + 2, 0, nb + 3, 1).reshape(
            *basis.batch, basis.dim, basis.dim)

    # -- band access -------------------------------------------------------

    def band(self, k: int) -> np.ndarray:
        """The blocks of band k, fiber-major (d, d, *batch, nlevels): the
        stored read-only array, shared zeros if it is not stored."""
        if k in self.bands:
            return self.bands[k]
        d = self.basis.fiber_dim
        return np.zeros((d, d, *self.basis.shared, self.basis.nlevels), dtype=complex)

    # -- algebra -----------------------------------------------------------

    def _check(self, other: "TruncatedOperator"):
        if self.basis is not other.basis and self.basis != other.basis:
            raise BasisMismatchError("operands live on different bases")

    def _merge(self, other: "TruncatedOperator", op) -> "TruncatedOperator":
        self._check(other)
        keys = set(self.bands) | set(other.bands)
        return TruncatedOperator._result(self.basis, {
            k: op(self.bands.get(k, 0.0), other.bands.get(k, 0.0)) for k in keys})

    def __add__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return self._merge(other, np.add)

    def __sub__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return self._merge(other, np.subtract)

    def __neg__(self) -> "TruncatedOperator":
        return TruncatedOperator._result(self.basis, {k: -a for k, a in self.bands.items()})

    def __mul__(self, scalar: complex) -> "TruncatedOperator":
        return TruncatedOperator._result(self.basis,
                                         {k: a * scalar for k, a in self.bands.items()})

    __rmul__ = __mul__

    def _products(self, other: "TruncatedOperator") -> dict[int, np.ndarray]:
        """The fresh fiber-major bands of the product self @ other, all-zero
        ones included: the one band-product loop of ``@``, ``commutator``
        and ``anticommutator``."""
        # (AB) block i -> i + k1 + k2 is A_k1[i + k2] B_k2[i]
        self._check(other)
        out: dict[int, np.ndarray] = {}
        for k1, a in self.bands.items():
            for k2, b in other.bands.items():
                prod = block_product(_shifted(a, k2), b)
                k = k1 + k2
                out[k] = out[k] + prod if k in out else prod
        return out

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return TruncatedOperator._result(self.basis, self._products(other))

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator._result(self.basis, {
            -k: np.conjugate(_shifted(a, -k).swapaxes(0, 1), order="C")
            for k, a in self.bands.items()})

    def conj(self) -> "TruncatedOperator":
        """Entrywise complex conjugate."""
        return TruncatedOperator._result(self.basis,
                                         {k: a.conj() for k, a in self.bands.items()})

    def power(self, p: int) -> "TruncatedOperator":
        """Integer power; negative p uses the adjoint (valid for unitaries)."""
        if p == 0:
            return TruncatedOperator.identity(self.basis)
        base = self if p > 0 else self.adjoint()
        out = base
        for _ in range(abs(p) - 1):
            out = out @ base
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        nl, d = self.basis.nlevels, self.basis.fiber_dim
        v = np.asarray(v, dtype=complex).reshape(nl, d).T[:, None]
        out = np.zeros((d, 1, nl), dtype=complex)
        for k, a in self.bands.items():
            out += _shifted(block_product(a, v), -k)
        return out[:, 0].T.reshape(-1)


def _reflect(x: TruncatedOperator) -> TruncatedOperator:
    """R x R with R the level reflection n -> -n: band k becomes band -k
    with the level order reversed."""
    return TruncatedOperator._result(x.basis, {
        -k: np.ascontiguousarray(a[..., ::-1]) for k, a in x.bands.items()})


def _reflect_rows(basis: BasisDescriptor, mat: np.ndarray) -> np.ndarray:
    """R mat for a dense matrix or vector."""
    mat = np.asarray(mat, dtype=complex)
    return mat.reshape(basis.nlevels, basis.fiber_dim, -1)[::-1].reshape(mat.shape)


def _fused(a: TruncatedOperator, b: TruncatedOperator, op) -> TruncatedOperator:
    """op(AB, BA) from both products formed in one pass, as one result.

    Each band is op(ab.get(k, 0.0), ba.get(k, 0.0)), the order and the 0.0
    default of ``_merge``, so the floats equal those of ``a @ b - b @ a``
    (or ``+``) without building the two products as operators."""
    ab, ba = a._products(b), b._products(a)
    return TruncatedOperator._result(a.basis, {
        k: op(ab.get(k, 0.0), ba.get(k, 0.0)) for k in ab.keys() | ba.keys()})


def commutator(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    """AB - BA; both products are formed in one pass and one result built."""
    return _fused(a, b, np.subtract)


def anticommutator(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    """AB + BA; both products are formed in one pass and one result built."""
    return _fused(a, b, np.add)


def median(values: np.ndarray) -> float:
    """The median of an array, as ``np.median`` gives it: the middle element
    of a sorted copy, or the sum of the two middle ones over 2; a NaN or
    an empty array gives NaN.  ``np.median`` imports ``numpy.ma`` on its
    first call."""
    ordered = np.sort(values, axis=None)
    if not ordered.size or ordered[-1] != ordered[-1]:
        return math.nan
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def op_norm(a: TruncatedOperator) -> np.ndarray:
    """Spectral norm (largest singular value) at each point of the batch."""
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
    """Orthogonal projector P onto levels with |n| <= n_top - margin, n_top
    the top level."""

    basis: BasisDescriptor
    margin: int = 0

    def __post_init__(self):
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if self.margin >= self.basis.nmax:
            raise TruncationError(f"margin {self.margin} >= nmax {self.basis.nmax}")

    def _window(self, k: int) -> tuple[int, int]:
        """The kept source levels of band k, the index run [lo, hi): source
        i and target i + k both lie in [margin, nlevels - margin)."""
        m, nl = self.margin, self.basis.nlevels
        lo = max(m, m - k)
        return lo, max(lo, min(nl - m, nl - m - k))

    def band(self, a: TruncatedOperator, k: int) -> np.ndarray:
        """The kept blocks of band k (source and target kept), in level
        order, fiber-major (d, d, *batch, nkept): a view of the stored band."""
        lo, hi = self._window(k)
        if k not in a.bands:
            return np.zeros((self.basis.fiber_dim,) * 2 + self.basis.shared + (hi - lo,),
                            dtype=complex)
        return a.bands[k][..., lo:hi]

    def band_norms(self, a: TruncatedOperator, k: int) -> np.ndarray:
        """Spectral norms of the kept blocks of band k, shape (*batch, nkept).

        For a 2-dim fiber the squared norm of a block B is the largest
        eigenvalue of B*B = [[p, r], [conj(r), q]], (p + q)/2 +
        hypot((p - q)/2, |r|): sums of squares and a hypot only, so it keeps
        full relative accuracy when the two singular values nearly coincide,
        where sqrt(f + sqrt(f^2 - |det B|^2)) cancels.  Entries beyond about
        1e+-154 over- or underflow when squared.  Other fibers use the SVD.
        """
        blocks = self.band(a, k)
        if blocks.shape[:2] != (2, 2):
            return np.linalg.norm(blocks, 2, axis=(0, 1))
        sq = blocks.real ** 2 + blocks.imag ** 2
        p, q = sq[0, 0] + sq[1, 0], sq[0, 1] + sq[1, 1]
        r = blocks[0, 0].conj() * blocks[0, 1] + blocks[1, 0].conj() * blocks[1, 1]
        return np.sqrt(0.5 * (p + q) + np.hypot(0.5 * (p - q), np.abs(r)))

    def project(self, a: TruncatedOperator) -> TruncatedOperator:
        """P A P, band by band: each band zeroed outside its kept run."""
        out = {}
        for k, arr in a.bands.items():
            lo, hi = self._window(k)
            band = np.zeros(arr.shape, arr.dtype)
            band[..., lo:hi] = arr[..., lo:hi]
            out[k] = band
        return TruncatedOperator._result(a.basis, out)

    def compress(self, a: TruncatedOperator) -> np.ndarray:
        """P A P restricted to the kept rows/columns, as the stack
        (*batch, n, n) of one dense matrix per point."""
        lo, hi = self._window(0)
        d = self.basis.fiber_dim
        return a.to_dense()[..., lo * d:hi * d, lo * d:hi * d]


def interior_residual(a: TruncatedOperator, margin: int) -> np.ndarray:
    """Spectral norm of P A P at each point, an array of the batch shape;
    asserts "A = 0 away from the cutoff".

    At a point where one band is nonzero the operator is a direct sum of
    its blocks, so its norm is the largest block norm; a point where several
    bands are nonzero falls back to the dense SVD.  Each point is decided
    by its own bands, so the norms of a batch are those of its points taken
    one by one.
    """
    proj = InteriorProjector(a.basis, margin)
    out = np.zeros(a.basis.batch)
    for k in a.bands:
        out = np.maximum(out, proj.band_norms(a, k).max(axis=-1, initial=0.0))
    if len(a.bands) > 1:
        several = sum(arr.any(axis=(0, 1, -1)) for arr in a.bands.values()) > 1
        if several.any():
            out = np.where(several, _dense_norm(proj.compress(a)), out)
    # a ufunc gives a numpy scalar, not a 0-d array, at a single point
    return np.asarray(out)


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
