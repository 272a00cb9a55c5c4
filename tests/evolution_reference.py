"""Integrated reference for the slice product of Dirac solutions.

Solutions are propagated by integrating v' = M_n v (M_n =
``spinfields.level_block``) with DOP853, and their product is compared on
two slices.  The library checks conservation as the per-level identity
``spinfields.conservation_defect`` = 0; the tests use this module as the
independent, integrated side of that identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.integrate import solve_ivp

from specquad import spinfields


@dataclass(frozen=True)
class SolutionCoefficients:
    """T-basis coefficient data of a Dirac solution at one slice."""

    rm: float
    coeffs: Mapping[float, np.ndarray]

    def levels(self) -> list[float]:
        return sorted(self.coeffs)


def propagate(sol: SolutionCoefficients, theta_from: float,
              theta_to: float) -> SolutionCoefficients:
    """Propagate slice data by integrating the evolution ODE of all levels at
    once: the fiber-major (2, 2, N) stack of per-level blocks acts on the
    (2, N) array of level pairs, column i the pair of level i."""
    if theta_from == theta_to:
        return sol
    levels = sol.levels()
    nn = np.array(levels)
    y0 = np.array([sol.coeffs[n] for n in levels], dtype=complex).T.ravel()
    res = solve_ivp(
        lambda th, y: np.einsum("ijn,jn->in", spinfields.level_block(nn, sol.rm, th),
                                y.reshape(2, -1)).ravel(),
        (theta_from, theta_to), y0, method="DOP853", rtol=1e-12, atol=1e-14)
    if not res.success:
        raise RuntimeError(f"propagation failed: {res.message}")
    return SolutionCoefficients(rm=sol.rm,
                                coeffs=dict(zip(levels, res.y[:, -1].reshape(2, -1).T)))


def inner_product_slice(sol1: SolutionCoefficients, sol2: SolutionCoefficients,
                        theta: float) -> complex:
    """Conserved solution product at a slice: the flux integral
    int B(psi1, e0slash psi2) cosh(theta) dphi.

    The phi integral keeps the mode-0 part of the integrand, where each level
    pairs with itself through the fiber Gram matrix, so the product is
    2 pi cosh(theta) sum_n v1_n^* G v2_n over the levels both solutions
    carry.  The cosh factor is the slice volume element; without it the
    integral is not slice independent.
    """
    g = spinfields.fiber_gram(theta)
    total = sum((np.conj(sol1.coeffs[n]) @ g @ sol2.coeffs[n]
                 for n in sorted(sol1.coeffs.keys() & sol2.coeffs.keys())), 0.0j)
    return complex(2.0 * np.pi * np.cosh(theta) * total)


def slice_independence(sol1: SolutionCoefficients, sol2: SolutionCoefficients,
                       theta_a: float, theta_b: float) -> float:
    """|product at theta_a - product at theta_b| after propagating both
    solutions; zero for true solutions of the evolution ODE."""
    p_a = inner_product_slice(sol1, sol2, theta_a)
    p_b = inner_product_slice(propagate(sol1, theta_a, theta_b),
                              propagate(sol2, theta_a, theta_b), theta_b)
    return abs(p_a - p_b)
