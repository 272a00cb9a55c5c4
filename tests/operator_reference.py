"""Constructors and accessors of the band core that the library does not
call, the dense oracle and its SVD norm references, and the SL(2, R)
generator matrices on a scalar weight ladder.

The library builds its operators from whole fiber-major band stacks
(``TruncatedOperator``, ``from_fiber``, ``identity``) and forms no dense
matrix.  ``from_dense``, ``antilinear_from_dense`` and ``to_dense`` convert
between an operator and its dense level-major, fiber-minor matrix, the
oracle of the band algebra at small sizes.  The other helpers build an
operator from a block per level, give the zero operator and the scalar
weight lattices, index a level or a basis state, read one block and the
single band of an operator; ``compress``, ``dense_norm`` and ``band_bound``
read the interior of an operator from its dense matrix, the references of
``interior_residual``; ``build_generators`` is the truncated representation
whose ladder law and series ``sl2`` checks.
"""

from typing import Callable

import numpy as np

from specquad.operators import AntilinearOperator, BasisDescriptor, TruncatedOperator
from specquad.sl2 import RepParams, SeriesKind, classify, ladder_coefficient_sq


def from_dense(basis: BasisDescriptor, mat: np.ndarray,
               shift_degree: int | None = None) -> TruncatedOperator:
    """Split a dense level-major matrix into its bands; on a batched basis
    ``mat`` is the stack (*batch, dim, dim) of one matrix per point.

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
    op = TruncatedOperator(basis, {k: m4[..., (i + k) % nl, i] for k in range(1 - nl, nl)})
    if shift_degree is not None and set(op.bands) - {shift_degree}:
        raise ValueError(f"matrix has entries off the declared shift band k={shift_degree}")
    return op


def _reflect_rows(basis: BasisDescriptor, mat: np.ndarray) -> np.ndarray:
    """R mat, R the level reflection n -> -n, for a dense matrix."""
    mat = np.asarray(mat, dtype=complex)
    return mat.reshape(basis.nlevels, basis.fiber_dim, -1)[::-1].reshape(mat.shape)


def antilinear_from_dense(basis: BasisDescriptor, mat: np.ndarray) -> AntilinearOperator:
    """The map v -> mat @ conj(v)."""
    return AntilinearOperator(from_dense(basis, _reflect_rows(basis, mat)))


def to_dense(x: TruncatedOperator | AntilinearOperator) -> np.ndarray:
    """The dense level-major, fiber-minor matrix of a linear operator, on a
    batched basis the stack (*batch, dim, dim) of one matrix per point; the
    matrix M of v -> M conj(v) of a single-point antilinear one."""
    if isinstance(x, AntilinearOperator):
        return _reflect_rows(x.basis, to_dense(x.linear))
    basis = x.basis
    nl, d, nb = basis.nlevels, basis.fiber_dim, len(basis.batch)
    m4, i = np.zeros((d, d, *basis.batch, nl, nl), dtype=complex), np.arange(nl)
    for k, arr in x.bands.items():
        m4[..., (i + k) % nl, i] += arr  # wrapped-around blocks are zero
    return m4.transpose(*range(2, nb + 2), nb + 2, 0, nb + 3, 1).reshape(
        *basis.batch, basis.dim, basis.dim)


def weight_lattice(nmax: int, lattice: str = "half_integer") -> BasisDescriptor:
    """Scalar (1-dim fiber) ladder on the integer or half-integer lattice."""
    if nmax < 1:
        raise ValueError("nmax must be a positive integer")
    if lattice not in ("half_integer", "integer"):
        raise ValueError(f"unknown lattice {lattice!r}")
    return BasisDescriptor(2 * nmax + (lattice == "integer"), fiber_dim=1)


def zero(basis: BasisDescriptor) -> TruncatedOperator:
    return TruncatedOperator(basis, {})


def from_shift(basis: BasisDescriptor, k: int,
               block: Callable[[float], np.ndarray]) -> TruncatedOperator:
    """Banded operator |n> -> |n+k> with fiber block ``block(n)``.

    Bands leaving the truncation window are dropped (the shift annihilates
    the outermost levels); ``block`` is only called on levels whose image
    stays inside.
    """
    d = basis.fiber_dim
    arr = np.zeros((d, d, basis.nlevels), dtype=complex)
    for i in range(max(0, -k), basis.nlevels - max(0, k)):
        arr[..., i] = np.asarray(block(basis.level_array[i]), dtype=complex).reshape(d, d)
    return TruncatedOperator(basis, {k: arr})


def from_level_diagonal(basis: BasisDescriptor,
                        block: Callable[[float], np.ndarray]) -> TruncatedOperator:
    """Level-diagonal operator with fiber block ``block(n)`` at level n."""
    return from_shift(basis, 0, block)


def level_index(basis: BasisDescriptor, n: float) -> int:
    """Index of level n on the ladder of the basis."""
    levels = basis.level_array
    i = int(round(n - levels[0]))
    if not (0 <= i < basis.nlevels) or abs(levels[i] - n) > 1e-9:
        raise KeyError(f"level {n} not in basis")
    return i


def flat_index(basis: BasisDescriptor, n: float, sigma: int = 0) -> int:
    """Flat index of |n, sigma> in the level-major, fiber-minor dense order."""
    if not (0 <= sigma < basis.fiber_dim):
        raise KeyError(f"fiber index {sigma} out of range")
    return level_index(basis, n) * basis.fiber_dim + sigma


def shift_degree(x: TruncatedOperator) -> int | None:
    """k when x has the single band k; None when it is zero or spreads over
    several bands."""
    return next(iter(x.bands)) if len(x.bands) == 1 else None


def band_block(x: TruncatedOperator, n: float, k: int) -> np.ndarray:
    """The fiber block of x mapping level n to level n+k (at every point)."""
    level_index(x.basis, n + k)
    return x.band(k)[..., level_index(x.basis, n)]


def compress(x: TruncatedOperator, margin: int) -> np.ndarray:
    """P A P restricted to the kept rows and columns of the interior at
    ``margin``, as the stack (*batch, n, n) of one dense matrix per point."""
    d, lo, hi = x.basis.fiber_dim, margin, x.basis.nlevels - margin
    return to_dense(x)[..., lo * d:hi * d, lo * d:hi * d]


def dense_norm(x: TruncatedOperator, margin: int) -> np.ndarray:
    """||P A P|| by SVD of the dense matrix, one norm per point."""
    return np.linalg.norm(compress(x, margin), 2, axis=(-2, -1))


def band_bound(x: TruncatedOperator, margin: int) -> float:
    """The sum over bands k of the largest SVD norm of a kept band-k block
    of a single-point operator, read from its dense matrix."""
    d, n = x.basis.fiber_dim, x.basis.nlevels - 2 * margin
    blocks = compress(x, margin).reshape(n, d, n, d)
    total = 0.0
    for k in range(1 - n, n):
        i = np.arange(max(0, -k), n - max(0, k))
        total += np.linalg.norm(blocks[i + k, :, i, :], 2, axis=(-2, -1)).max()
    return total


def build_generators(
    rep: RepParams,
    basis: BasisDescriptor,
    phases: Callable[[float], complex] | None = None,
) -> tuple[TruncatedOperator, TruncatedOperator, TruncatedOperator]:
    """Truncated generator matrices (T21, T+, T-) on a 1-dim fiber.

    T21 |n> = i n |n>, T+ |n> = c_n |n+1>, T- |n+1> = -conj(c_n) |n>, with
    the default phase convention c_n = +sqrt(|c_n|^2).  Refuses the discrete
    series (a symmetric truncation window would cross the ladder break) and
    any window containing a negative |c_n|^2.
    """
    if basis.fiber_dim != 1:
        raise ValueError("generator construction expects a 1-dim fiber")
    kinds = {c.kind for c in classify(rep)}
    discrete = {SeriesKind.DISCRETE_BOUNDED_BELOW, SeriesKind.DISCRETE_BOUNDED_ABOVE}
    if (kinds & discrete) and rep.r2m2 < 0.0:
        # a symmetric window would cross the ladder break; r2m2 = 0 is the
        # benign boundary case where one coefficient vanishes exactly
        raise ValueError("discrete series cannot be truncated symmetrically")
    if SeriesKind.INVALID in kinds:
        raise ValueError("parameters do not label a unitary representation")

    def c_coeff(n: float) -> complex:
        csq = ladder_coefficient_sq(n, rep.r2m2)
        if csq < -1e-12:
            raise ValueError(f"|c_n|^2 < 0 at n={n}: weight excluded")
        c = np.sqrt(max(csq, 0.0))
        if phases is not None:
            ph = phases(n)
            if abs(abs(ph) - 1.0) > 1e-12:
                raise ValueError("phases must be unimodular")
            c = c * ph
        return c

    t21 = from_level_diagonal(basis, lambda n: np.array([[1j * n]]))
    tplus = from_shift(basis, +1, lambda n: np.array([[c_coeff(n)]]))
    tminus = from_shift(
        basis, -1, lambda n: np.array([[-np.conj(c_coeff(n - 1.0))]]))
    return t21, tplus, tminus
