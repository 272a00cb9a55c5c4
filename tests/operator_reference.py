"""Constructors and accessors of the band core that the library does not
call, and the SL(2, R) generator matrices on a scalar weight ladder.

The library builds its operators from whole fiber-major band stacks
(``TruncatedOperator``, ``from_fiber``, ``identity``).  These helpers build
one from a block per level, give the zero operator and the scalar weight
lattices, index a level or a basis state, read one block and the single
band of an operator;
``build_generators`` is the truncated representation whose ladder law and
series ``sl2`` checks.
"""

from typing import Callable

import numpy as np

from specquad.operators import BasisDescriptor, TruncatedOperator
from specquad.sl2 import RepParams, SeriesKind, classify, ladder_coefficient_sq


def weight_lattice(nmax: int, lattice: str = "half_integer") -> BasisDescriptor:
    """Scalar (1-dim fiber) ladder on the integer or half-integer lattice."""
    if nmax < 1:
        raise ValueError("nmax must be a positive integer")
    if lattice == "half_integer":
        lv = tuple(float(x) for x in np.arange(-nmax + 0.5, nmax + 0.5))
    elif lattice == "integer":
        lv = tuple(float(x) for x in np.arange(-float(nmax), nmax + 1.0))
    else:
        raise ValueError(f"unknown lattice {lattice!r}")
    return BasisDescriptor(levels=lv, fiber_dim=1)


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
        arr[..., i] = np.asarray(block(basis.levels[i]), dtype=complex).reshape(d, d)
    return TruncatedOperator(basis, {k: arr})


def from_level_diagonal(basis: BasisDescriptor,
                        block: Callable[[float], np.ndarray]) -> TruncatedOperator:
    """Level-diagonal operator with fiber block ``block(n)`` at level n."""
    return from_shift(basis, 0, block)


def level_index(basis: BasisDescriptor, n: float) -> int:
    """Index of level n on the ladder of the basis."""
    i = int(round(n - basis.levels[0]))
    if not (0 <= i < len(basis.levels)) or abs(basis.levels[i] - n) > 1e-9:
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
