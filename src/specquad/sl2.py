"""Unitary representation theory of SL(2,R) on truncated weight ladders.

The ladder coefficients obey |c_n|^2 - |c_{n-1}|^2 = 2n with closed form
|c_n|^2 = (n + 1/2)^2 + r2m2, where r2m2 is the real Casimir-type label
(written R^2 m^2 for later geometric use; it may be negative).  The sign
pattern of |c_n|^2 over the weight lattice classifies the representation
into the principal, complementary and discrete series.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .operators import BasisDescriptor, TruncatedOperator

__all__ = [
    "Lattice",
    "RepParams",
    "SeriesKind",
    "SeriesClass",
    "ladder_coefficient_sq",
    "verify_ladder_recursion",
    "classify",
    "build_generators",
]

_HALF_INT_TOL = 1e-9


class Lattice(Enum):
    INTEGER = "integer"
    HALF_INTEGER = "half_integer"


@dataclass(frozen=True)
class RepParams:
    """Label of a candidate unitary irrep: the real number r2m2 and the
    eigenvalue lattice of -i T21."""

    r2m2: float
    lattice: Lattice = Lattice.HALF_INTEGER

    def __post_init__(self):
        if not np.isfinite(self.r2m2):
            raise ValueError("r2m2 must be finite")


class SeriesKind(Enum):
    PRINCIPAL_INTEGER = "principal_integer"
    PRINCIPAL_HALF_INTEGER = "principal_half_integer"
    COMPLEMENTARY = "complementary"
    DISCRETE_BOUNDED_BELOW = "discrete_bounded_below"
    DISCRETE_BOUNDED_ABOVE = "discrete_bounded_above"
    INVALID = "invalid"


@dataclass(frozen=True)
class SeriesClass:
    kind: SeriesKind
    n0: float | None = None  # discrete series only: r2m2 = -(n0 + 1/2)^2

    def __str__(self) -> str:
        if self.n0 is None:
            return self.kind.value
        return f"{self.kind.value}(n0={self.n0})"


def ladder_coefficient_sq(n: float, r2m2: float) -> float:
    """|c_n|^2 = (n + 1/2)^2 + r2m2.

    May return a negative number; a negative value means the weight n cannot
    carry a raising matrix element and is excluded from a unitary irrep.
    """
    return (n + 0.5) ** 2 + r2m2


def verify_ladder_recursion(r2m2: float, nrange: Iterable[float]) -> float:
    """Max over n of ||c_n|^2 - |c_{n-1}|^2 - 2n| on a contiguous weight set."""
    ns = sorted(nrange)
    worst = 0.0
    for n in ns:
        lhs = ladder_coefficient_sq(n, r2m2) - ladder_coefficient_sq(n - 1.0, r2m2)
        worst = max(worst, abs(lhs - 2.0 * n))
    return worst


def _is_lattice_value(x: float, lattice: Lattice) -> bool:
    if lattice is Lattice.INTEGER:
        return abs(x - round(x)) < _HALF_INT_TOL
    return abs(x - (np.floor(x) + 0.5)) < _HALF_INT_TOL


def classify(rep: RepParams) -> tuple[SeriesClass, ...]:
    """Series classification of the candidate irrep.

    Positive r2m2 gives the principal series on either lattice.  For
    0 >= r2m2 > -1/4 on the integer lattice the coefficients never vanish
    (complementary series).  If |c_{n0}|^2 = 0 for a lattice point n0, the
    ladder breaks there and both one-sided (discrete) representations are
    reported.  Everything else cannot be unitary.
    """
    r = rep.r2m2
    if r > 0.0:
        if rep.lattice is Lattice.INTEGER:
            return (SeriesClass(SeriesKind.PRINCIPAL_INTEGER),)
        return (SeriesClass(SeriesKind.PRINCIPAL_HALF_INTEGER),)
    # discrete: r2m2 = -(n0+1/2)^2 with n0 on the lattice (take n0 >= -1/2)
    n0 = np.sqrt(-r) - 0.5
    if _is_lattice_value(n0, rep.lattice):
        n0 = float(round(n0 * 2.0) / 2.0)
        return (
            SeriesClass(SeriesKind.DISCRETE_BOUNDED_BELOW, n0),
            SeriesClass(SeriesKind.DISCRETE_BOUNDED_ABOVE, n0),
        )
    if r > -0.25 and rep.lattice is Lattice.INTEGER:
        return (SeriesClass(SeriesKind.COMPLEMENTARY),)
    return (SeriesClass(SeriesKind.INVALID),)


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

    t21 = TruncatedOperator.from_level_diagonal(basis, lambda n: np.array([[1j * n]]))
    tplus = TruncatedOperator.from_shift(basis, +1, lambda n: np.array([[c_coeff(n)]]))
    tminus = TruncatedOperator.from_shift(
        basis, -1, lambda n: np.array([[-np.conj(c_coeff(n - 1.0))]]))
    return t21, tplus, tminus
