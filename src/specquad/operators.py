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
``block_stack`` builds a 2x2 stack from its entries.  No dense matrix is
formed: the level-major, fiber-minor dense order is read only by
``apply`` on a state vector and by the dense oracle of the tests.
Truncation simply drops states beyond the cutoff, so identities that hold
on the infinite ladder are checked on interior levels away from the
contaminated boundary.  The levels are symmetric about 0 and unit spaced,
so the interior levels |n| <= n_top - margin (n_top the top level) are
exactly the level indices [margin, nlevels - margin): ``InteriorProjector``
slices that index run and compares no float levels.

Norms come from the bands alone: ``interior_residual`` is the bound
sum_k max_i ||B_{k,i}|| >= ||P A P|| over the kept blocks B_{k,i} of band
k, the norm where one band is nonzero and zero exactly when P A P is.
``block_norms`` takes the norm of each block, in closed form for 2x2 blocks
and by a batched one-sided Jacobi iteration for any other size.

A basis carries a batch of parameter points (``BasisDescriptor.batch``):
one operator holds its value at every point, and one band-algebra call
serves them all.  A single point is the batch shape (), run by the same
code.  A band that differs between points has the batch axes in full,
(d, d, *batch, nlevels); a band shared by every point has size-1 batch
axes, (d, d, 1, ..., 1, nlevels), and broadcasts against the others.  The
constructors give shared operators the size-1 axes, so an unbatched
(d, d, nlevels) stack never meets a batched one.  ``interior_residual``
gives one value per point, an array of the batch shape.
"""

from __future__ import annotations

import itertools
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
    "block_norms",
    "power_of_two_below",
    "median",
]


class BasisMismatchError(ValueError):
    """Raised when two operands live on different bases."""


class TruncationError(ValueError):
    """Raised when a truncation window is too small for the requested margin."""


@dataclass(frozen=True)
class BasisDescriptor:
    """An ordered ladder of ``nlevels`` levels with a fiber attached to each.

    The levels are unit spaced and symmetric about zero (half-odd integers
    for an even count, as on the spinor basis, integers for an odd one);
    ``level_array`` holds them as one read-only float array.  ``batch`` is
    the shape of the parameter points an operator on this basis holds one
    value for; () is a single point.
    """

    nlevels: int
    fiber_dim: int = 2
    batch: tuple[int, ...] = ()
    level_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nlevels < 2:
            raise ValueError("need at least two levels")
        if self.fiber_dim < 1:
            raise ValueError("fiber_dim must be positive")
        if any(n < 1 for n in self.batch):
            raise ValueError("batch axes must be positive")
        lv = np.arange(self.nlevels) - (self.nlevels - 1) / 2
        lv.setflags(write=False)
        object.__setattr__(self, "level_array", lv)

    @classmethod
    def spinor(cls, nmax: int, batch: tuple[int, ...] = ()) -> "BasisDescriptor":
        """Half-integer levels n with |n| <= nmax - 1/2 and a 2-dim fiber."""
        if nmax < 1:
            raise ValueError("nmax must be a positive integer")
        return cls(2 * nmax, fiber_dim=2, batch=tuple(batch))

    @property
    def dim(self) -> int:
        return self.fiber_dim * self.nlevels

    @property
    def nmax(self) -> int:
        """Number of positive levels, half of them (the spinor-basis cutoff)."""
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


def block_norms(stack: np.ndarray) -> np.ndarray:
    """The spectral norm of each block of a fiber-major stack (d, d, ...),
    an array of the trailing shape.

    A 2x2 block B has the squared norm (p + q)/2 + hypot((p - q)/2, |r|),
    the largest eigenvalue of B*B = [[p, r], [conj(r), q]]: sums of squares
    and a hypot, so it keeps full relative accuracy when the two singular
    values nearly coincide; entries beyond about 1e+-154 over- or underflow
    when squared.  Other sizes take ``_jacobi_norms``, which keeps the
    whole float range.
    """
    if stack.shape[:2] != (2, 2):
        return _jacobi_norms(stack.reshape(stack.shape[:2] + (-1,))).reshape(stack.shape[2:])
    sq = stack.real ** 2 + stack.imag ** 2
    p, q = sq[0, 0] + sq[1, 0], sq[0, 1] + sq[1, 1]
    r = stack[0, 0].conj() * stack[0, 1] + stack[1, 0].conj() * stack[1, 1]
    return np.sqrt(0.5 * (p + q) + np.hypot(0.5 * (p - q), np.abs(r)))


_EPS = np.finfo(float).eps
# the one-sided Jacobi sweeps _jacobi_norms runs before it returns the
# Frobenius bound instead (random complex 3x3 matrices take 4 or 5, the
# last rotating nothing, and 9x9 take 7 or 8)
_JACOBI_SWEEPS = 30


def _jacobi_norms(stack: np.ndarray) -> np.ndarray:
    """The spectral norm of each matrix of a fiber-major stack (n, n, k).

    One-sided (Hestenes) Jacobi on the whole stack at once: a sweep visits,
    in cyclic order, the column pairs (p, q) with a Gram entry |a_p* a_q| >
    n eps ||a_p|| ||a_q|| (the rounding of a length-n sum) in some matrix,
    and rotates a pair in every matrix where its recomputed entry still
    exceeds that bound.  A matrix is done after a sweep that rotates none
    of its pairs.  Its columns are then orthogonal, and their norms are the
    singular values to high relative accuracy (Hestenes, J. SIAM 6, 1958;
    Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13, 1992).  Every sum
    is explicit, so no LAPACK or BLAS routine runs.  Each matrix is first
    divided by the power of two at or below its largest |entry|, an exact
    scaling, so entries near 1e+-308 neither overflow nor underflow.  Zero
    matrices skip the iteration, and so do matrices with a nan entry (nan)
    or an inf one (inf).  A partial iteration would under-report, so a
    matrix that still rotates in the last of ``_JACOBI_SWEEPS`` sweeps
    reports its Frobenius norm, an upper bound.
    """
    top = np.abs(stack).max(axis=(0, 1))
    # a matrix with a nan entry reads nan, one with an inf entry inf
    out = np.where(np.isfinite(top), 0.0, top)
    live = np.flatnonzero(np.isfinite(top) & (top != 0))
    if live.size == 0:
        return out
    # the power of two at or below the largest |entry|: dividing by it is
    # exact, and the entries keep |entry| < 2
    scale = power_of_two_below(top[live])
    a = stack[..., live] / scale
    n = a.shape[1]
    # the sums of the rotations, not the Gram sums (taken in another
    # order), end the iteration: a Gram test of the end can flag a pair
    # that the rotation then leaves as it is, every sweep
    rotated = np.ones(live.size, dtype=bool)
    for _ in range(_JACOBI_SWEEPS):
        rotated[:] = False
        gram = (a.conj()[:, :, None] * a[:, None]).sum(axis=0)
        cols = gram.diagonal().real.T
        flagged = np.abs(gram) > n * _EPS * np.sqrt(cols[:, None] * cols[None])
        for p, q in itertools.combinations(range(n), 2):
            if not flagged[p, q].any():
                continue
            ap, aq = a[:, p], a[:, q]
            alpha = (ap * ap.conj()).real.sum(axis=0)
            beta = (aq * aq.conj()).real.sum(axis=0)
            gamma = (ap.conj() * aq).sum(axis=0)
            g = np.abs(gamma)
            rotate = g > n * _EPS * np.sqrt(alpha * beta)
            if not rotate.any():
                continue
            rotated |= rotate
            # the real rotation (c, s) that diagonalizes [[alpha, g], [g,
            # beta]], taken with the phase of gamma; hypot keeps zeta^2 from
            # overflowing.  Column q is rescaled by a unit phase afterwards,
            # which leaves every singular value as it is.  A matrix left as
            # it is gets t = 0, its g shifted by 1 only to stay a divisor.
            g = g + ~rotate
            zeta = (beta - alpha) / (2 * g)
            t = np.copysign(1.0 / (np.abs(zeta) + np.hypot(1.0, zeta)), zeta) * rotate
            c = 1.0 / np.sqrt(1.0 + t * t)
            sp = c * t * gamma.conj() / g
            a[:, p], a[:, q] = c * ap - sp * aq, sp.conj() * ap + c * aq
        if not rotated.any():
            break
    cols = (a * a.conj()).real.sum(axis=0)
    out[live] = np.sqrt(np.where(rotated, cols.sum(axis=0), cols.max(axis=0))) * scale
    return out


def power_of_two_below(x: np.ndarray | float) -> np.ndarray:
    """The power of two at or below each positive finite x, but at least
    the least normal float (2**-1022), whose reciprocal is finite: numpy's
    complex division by a real y takes 1 / y.  A zero, inf or nan x
    gives 1/2."""
    return np.ldexp(1.0, np.maximum(np.frexp(x)[1] - 1, -1022))


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
    """``interior_residual`` at margin 0: the spectral norm at each point
    where one band is nonzero, the band bound where several are."""
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

    def apply(self, v: np.ndarray) -> np.ndarray:
        w = self.linear.apply(np.conj(np.asarray(v, dtype=complex)))
        return w.reshape(self.basis.nlevels, -1)[::-1].reshape(-1)

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
        """Spectral norms of the kept blocks of band k, shape (*batch, nkept)."""
        return block_norms(self.band(a, k))

    def project(self, a: TruncatedOperator) -> TruncatedOperator:
        """P A P, band by band: each band zeroed outside its kept run."""
        out = {}
        for k, arr in a.bands.items():
            lo, hi = self._window(k)
            band = np.zeros(arr.shape, arr.dtype)
            band[..., lo:hi] = arr[..., lo:hi]
            out[k] = band
        return TruncatedOperator._result(a.basis, out)


def interior_residual(a: TruncatedOperator, margin: int) -> np.ndarray:
    """The band bound on ||P A P|| at each point, an array of the batch
    shape; asserts "A = 0 away from the cutoff".

    The sum over the stored bands of the largest kept block norm: at a
    point where one band is nonzero the others add exact zeros, so it is
    the spectral norm; where several are, an upper bound by the triangle
    inequality, at most their number times the norm (no band of P A P has
    a larger norm than P A P) and zero exactly when P A P is.
    """
    proj = InteriorProjector(a.basis, margin)
    out = np.zeros(a.basis.batch)
    for k in a.bands:
        out = out + proj.band_norms(a, k).max(axis=-1, initial=0.0)
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
