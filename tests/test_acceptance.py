"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
All tolerances are fixed here; nothing is calibrated at run time.
"""

import json
import math

import numpy as np
import pytest

from specquad import desitter, finite, geometry, reconstruct, sl2, spinfields
from specquad.cli import run as cli_run
from specquad.desitter import DeSitterParams, assemble_quadruple
from specquad.operators import bch_terms, commutator, interior_residual
from specquad.quadruple import (
    check_charge_conjugation,
    check_first_order,
    check_orientability,
    check_symmetric_conditions,
    check_time_vector,
    check_volume_element,
)

from evolution_reference import SolutionCoefficients, slice_independence

GRID = [(rm, theta) for rm in (0.0, 0.5, 1.0, 2.0) for theta in (0.0, 0.3, 1.0)]


def report(name, worst, bound):
    status = "PASS" if worst <= bound else "FAIL"
    print(f"[{status}] {name}: max residual {worst:.3e} (bound {bound:.1e})")
    assert worst <= bound, f"{name}: {worst} > {bound}"


def test_acceptance_1_ladder_law():
    worst = 0.0
    ns = np.arange(-9.5, 10.5)
    for r2m2 in (-0.2, 0.0, 0.25, 1.0, 4.0):
        worst = max(worst, sl2.verify_ladder_recursion(r2m2, ns))
        for n in ns:
            closed = (n + 0.5) ** 2 + r2m2
            worst = max(worst, abs(sl2.ladder_coefficient_sq(n, r2m2) - closed))
    report("AC1 ladder law and closed form", worst, 1e-14)


def test_acceptance_2_series_classification():
    errors = []
    grid = list(np.linspace(-17.0, 3.0, 200))
    discrete_half = [-(n0 + 0.5) ** 2 for n0 in (0.5, 1.5, 2.5, 3.5)]
    discrete_int = [-(n0 + 0.5) ** 2 for n0 in (0, 1, 2, 3)]
    grid += discrete_half + discrete_int

    for r2m2 in grid:
        for lattice in (sl2.Lattice.INTEGER, sl2.Lattice.HALF_INTEGER):
            got = sl2.classify(sl2.RepParams(float(r2m2), lattice))
            kinds = {c.kind for c in got}
            n0 = np.sqrt(-r2m2) - 0.5 if r2m2 <= 0 else None
            if r2m2 > 0:
                expected_principal = (sl2.SeriesKind.PRINCIPAL_INTEGER
                                      if lattice is sl2.Lattice.INTEGER
                                      else sl2.SeriesKind.PRINCIPAL_HALF_INTEGER)
                ok = kinds == {expected_principal}
            elif n0 is not None and abs(n0 - round(n0 * 2) / 2) < 1e-9 and (
                    (lattice is sl2.Lattice.INTEGER and abs(n0 - round(n0)) < 1e-9)
                    or (lattice is sl2.Lattice.HALF_INTEGER
                        and abs(n0 - round(n0)) > 0.25)):
                ok = kinds == {sl2.SeriesKind.DISCRETE_BOUNDED_BELOW,
                               sl2.SeriesKind.DISCRETE_BOUNDED_ABOVE}
                ok = ok and all(c.n0 == pytest.approx(n0, abs=1e-9) for c in got)
            elif -0.25 < r2m2 <= 0 and lattice is sl2.Lattice.INTEGER:
                ok = kinds == {sl2.SeriesKind.COMPLEMENTARY}
            else:
                ok = kinds == {sl2.SeriesKind.INVALID}
            if not ok:
                errors.append((r2m2, lattice, got))
    status = "PASS" if not errors else "FAIL"
    print(f"[{status}] AC2 series classification: {len(errors)} mismatches "
          f"on {2 * len(grid)} grid evaluations")
    assert not errors, errors[:5]


def test_acceptance_3_sl2_relations_on_quadruple():
    worst = 0.0
    for rm, theta in GRID:
        q = assemble_quadruple(DeSitterParams(rm=rm, theta=theta, nmax=32))
        [rep] = check_symmetric_conditions(q, margin=2)
        worst = max(worst, max(e.residual for e in rep))
    report("AC3 sl2 relations at nmax 32, margin 2, full grid", worst, 1e-10)


def test_acceptance_4_crosscheck():
    worst_diff = 0.0
    worst_norm = 0.0
    for rm, theta in GRID:
        params = DeSitterParams(rm=rm, theta=theta, nmax=16)
        worst_diff = max(worst_diff,
                         desitter.crosscheck_construction_vs_appendix(params))
        for n in np.arange(-15.5, 16.5):
            blk = desitter.appendix_t_plus(n, rm, theta)
            target = ((n + 0.5) ** 2 + rm ** 2) * np.eye(2)
            worst_norm = max(worst_norm,
                             float(np.abs(blk @ blk.conj().T - target).max()))
            blk = desitter.appendix_t_minus(n, rm, theta)
            target = ((n - 0.5) ** 2 + rm ** 2) * np.eye(2)
            worst_norm = max(worst_norm,
                             float(np.abs(blk @ blk.conj().T - target).max()))
    report("AC4a recursion vs closed-form blocks", worst_diff, 1e-12)
    report("AC4b ladder norm law", worst_norm, 1e-12)


def test_acceptance_5_quadruple_axioms(q_standard):
    exact = 0.0
    for rep in check_time_vector(q_standard) + check_volume_element(q_standard):
        exact = max(exact, max(e.residual for e in rep))
    report("AC5a time vector and volume element (exact)", exact, 1e-14)

    worst_fo = max(check_first_order(q_standard, q_standard.u, q_standard.u, margin=2),
                   check_first_order(q_standard, q_standard.u,
                                     q_standard.u.adjoint(), margin=2))
    report("AC5b first-order condition", worst_fo, 1e-10)

    [rep] = check_charge_conjugation(q_standard, margin=2)
    cc = max(e.residual for e in rep)
    report("AC5c charge-conjugation intertwining", cc, 1e-10)

    orient = check_orientability(q_standard, 4)
    report("AC5d orientability membership (degree window 2)", orient, 1e-8)


def test_acceptance_6_reconstruction():
    worst_low = 0.0
    worst_fit = 0.0
    worst_rt = 0.0
    kappas = {}
    for rm, theta in GRID:
        q = assemble_quadruple(DeSitterParams(rm=rm, theta=theta, nmax=32))
        exp = reconstruct.commutator_expansion(q.ih, q.u, 3, 4)
        for k in (0, 1, 2):
            worst_low = max(worst_low, interior_residual(exp[k], 4))
        if rm > 0:
            kappa, fit = reconstruct.third_order_coefficient(q, 4)
            kappas[(rm, theta)] = kappa
            worst_fit = max(worst_fit, fit)
        recovered = reconstruct.extract_mass_scale(q, 4)
        worst_rt = max(worst_rt, abs(recovered - rm))
    report("AC6a expansion orders 0..2 vanish", worst_low, 1e-10)
    report("AC6b third-order fit against e_perp u^2", worst_fit, 1e-8)
    report("AC6c recovered rm across the grid", worst_rt, 1e-8)

    q0 = assemble_quadruple(DeSitterParams(rm=0.0, theta=0.3, nmax=32))
    massless = reconstruct.massless_degeneracy_check(q0, kmax=5, margin=6)
    report("AC6d massless degeneracy through order 5", massless, 1e-10)

    worst_lin = 0.0
    for theta in (0.0, 0.3, 1.0):
        worst_lin = max(worst_lin,
                        abs(kappas[(1.0, theta)] - 2 * kappas[(0.5, theta)])
                        / abs(kappas[(0.5, theta)]))
        worst_lin = max(worst_lin,
                        abs(kappas[(2.0, theta)] - 2 * kappas[(1.0, theta)])
                        / abs(kappas[(1.0, theta)]))
    report("AC6e linearity of the third-order coefficient in the mass",
           worst_lin, 1e-8)
    print(f"       measured prefactor at theta = 0: kappa/rm = "
          f"{kappas[(1.0, 0.0)]:.12g} (model: 2/3 under the 1/k! convention)")


def test_acceptance_7_finite_triples():
    worst_val = 0.0
    for m in (1.0, 1 + 2j, 0.3 - 0.7j):
        rep = finite.validate_finite_triple(finite.two_point_triple(m))
        worst_val = max(worst_val, max(e.residual for e in rep))
    report("AC7a two-point example validation", worst_val, 1e-12)

    worst_d = 0.0
    worst_oracle = 0.0
    from test_finite import grid_search_distance
    for m in (0.5, 1.0, 2.0, 5.0):
        t = finite.two_point_triple(m)
        d = finite.connes_distance(t, 0, 1)
        worst_d = max(worst_d, abs(d - 1.0 / m))
        oracle = grid_search_distance(t, 0, 1, cap=4.0 / m)
        worst_oracle = max(worst_oracle, abs(d - oracle))
    report("AC7b Connes distance vs 1/|m|", worst_d, 1e-6)
    report("AC7b' Connes distance vs grid-search oracle", worst_oracle, 2e-6)

    mismatches = 0
    for n in range(0, 9):
        table = finite.sign_table(n)
        j2 = (-1) ** (((n - 1) * n * (n + 1) * (n + 2) // 8) % 2)
        jd = (-1) ** ((n * (n + 1) * (n + 2) // 2) % 2)
        jg = (-1) ** ((n // 2) % 2) if n % 2 == 0 else None
        mismatches += int((table.j_squared, table.d_commutation,
                           table.gamma_commutation) != (j2, jd, jg))
    assert finite.sign_table(2).j_squared == -1
    status = "PASS" if mismatches == 0 else "FAIL"
    print(f"[{status}] AC7c sign table vs direct exponents (n in [0,8]): "
          f"{mismatches} mismatches")
    assert mismatches == 0


def test_acceptance_8_oracle_suite(rng):
    worst = 0.0
    for _ in range(50):
        p = geometry.ChartPoint(float(rng.uniform(-2, 2)),
                                float(rng.uniform(0, 2 * np.pi)),
                                radius=float(rng.uniform(0.5, 2.0)))
        g = geometry.geometry_at(p)
        emb = -g.embedding[0] ** 2 + g.embedding[1] ** 2 + g.embedding[2] ** 2
        worst = max(worst, abs(emb - p.radius ** 2))
    report("AC8a embedding constraint", worst, 1e-12)

    worst = 0.0
    for _ in range(50):
        r = float(rng.uniform(0.5, 2.0))
        p = geometry.ChartPoint(float(rng.uniform(-2, 2)),
                                float(rng.uniform(0, 6)), radius=r)
        worst = max(worst, abs(geometry.embedding_extrinsic_trace(p) - 2.0 / r))
    report("AC8b extrinsic-curvature trace (n-1)/R, n = 3", worst, 1e-9)

    pts = geometry.ChartPoint(rng.uniform(-1.5, 1.5, 10), rng.uniform(0, 6, 10))
    worst = max(geometry.symmetry_checks(pts).values())
    report("AC8c Killing brackets and Casimir (operator coefficients)", worst, 1e-9)

    pts = geometry.ChartPoint(rng.uniform(-1.2, 1.2, 20), rng.uniform(0.1, 6.1, 20),
                              radius=float(rng.uniform(0.5, 2.0)))
    intrinsic, transported = spinfields.dirac_pair(pts)
    worst = float(np.abs(intrinsic - transported).max())
    report("AC8d intrinsic vs extrinsic Dirac (operator coefficients)", worst, 1e-9)

    rm, theta = 1.0, 0.4
    levels = np.arange(-5.5, 6.5)
    ham = desitter.hamiltonian_theta(levels, rm, theta)
    bands = spinfields.t_bands(spinfields.d_theta_pair(rm), levels, theta)
    # band 0 against the blocks; any other band is action leaking out of its level
    worst = max([float(np.abs(bands.pop(0) - ham).max()),
                 *(float(np.abs(b).max()) for b in bands.values())])
    report("AC8e matrix Hamiltonian vs grid T-action, |n| <= 11/2", worst, 1e-9)

    sol1 = SolutionCoefficients(rm, {0.5: np.array([1.0, 0.2j]),
                                     2.5: np.array([-0.4j, 0.3])})
    sol2 = SolutionCoefficients(rm, {0.5: np.array([0.3, 1.0]),
                                     2.5: np.array([0.1, 0.6])})
    worst = slice_independence(sol1, sol2, 0.0, 0.7)
    report("AC8f inner-product slice independence (theta 0 -> 0.7)", worst, 1e-8)


def test_acceptance_9_determinism(tmp_path):
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path in paths:
        code = cli_run(["all", "--nmax", "32", "--margin", "4",
                        "-o", str(path)])
        assert code == 0
    a, b = (p.read_bytes() for p in paths)
    status = "PASS" if a == b else "FAIL"
    print(f"[{status}] AC9 bit-identical reports for identical configs "
          f"({len(a)} bytes)")
    assert a == b
    payload = json.loads(a)
    assert payload["passed"] is True
