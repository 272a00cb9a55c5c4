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
from typing import Iterable

import numpy as np

__all__ = [
    "Lattice",
    "RepParams",
    "SeriesKind",
    "SeriesClass",
    "ladder_coefficient_sq",
    "verify_ladder_recursion",
    "classify",
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
    """Max over n of ||c_n|^2 - |c_{n-1}|^2 - 2n| on a contiguous weight set,
    each level's defect relative to max(|c_n|^2, |c_{n-1}|^2, 1), the scale
    of its roundoff."""
    worst = 0.0
    for n in sorted(nrange):
        upper, lower = ladder_coefficient_sq(n, r2m2), ladder_coefficient_sq(n - 1.0, r2m2)
        worst = max(worst, abs(upper - lower - 2.0 * n) / max(abs(upper), abs(lower), 1.0))
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
