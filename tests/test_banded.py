"""The band storage against its dense oracle, planted defects, and the
guarantee that the de Sitter checks never leave the banded fast path."""

import dataclasses
import itertools

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from specquad import operators, quadruple as quad
from specquad.desitter import DeSitterParams, assemble_quadruple, evolution_block
from specquad.operators import (
    AntilinearOperator,
    BasisDescriptor,
    InteriorProjector,
    TruncatedOperator,
    antilinear_conjugate,
    commutator,
    interior_residual,
)
from specquad.quadruple import (
    check_charge_conjugation,
    check_noncommutativity,
    check_orientability,
    check_symmetric_conditions,
    verify_quadruple,
)
from specquad.reconstruct import extract_adm, massless_degeneracy_check

LINEAR = ("u", "e_perp", "gamma", "t21", "t_plus", "t_minus", "ih")
POINTS = [(0.0, 0.0, 0.0, 0.0), (1.0, 0.3, 0.0, 0.0), (2.0, 1.0, 0.0, 0.0),
          (1.0, 0.3, 0.4, 0.9)]
CASES = [(nmax,) + p for nmax in (4, 8, 16) for p in POINTS]


def quadruple(nmax, rm, theta, rho, y):
    return assemble_quadruple(DeSitterParams(rm=rm, theta=theta, nmax=nmax, rho=rho, y=y))


def assert_matches(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= 1e-13 * scale


@pytest.mark.parametrize("nmax,rm,theta,rho,y", CASES)
def test_algebra_matches_dense(nmax, rm, theta, rho, y):
    q = quadruple(nmax, rm, theta, rho, y)
    dense = {name: getattr(q, name).to_dense() for name in LINEAR}
    c = q.cc.to_dense()
    for name in LINEAR:
        x, xd = getattr(q, name), dense[name]
        assert_matches(x.adjoint().to_dense(), xd.conj().T)
        assert_matches(antilinear_conjugate(q.cc, x).to_dense(), c @ xd.T @ np.conj(c))
        assert_matches(q.cc.after(x).to_dense(), c @ np.conj(xd))
        assert_matches(q.cc.before(x).to_dense(), xd @ c)
    for a, b in itertools.product(LINEAR, repeat=2):
        x, y_ = getattr(q, a), getattr(q, b)
        xd, yd = dense[a], dense[b]
        assert_matches((x @ y_).to_dense(), xd @ yd)
        assert_matches(commutator(x, y_).to_dense(), xd @ yd - yd @ xd)
    assert_matches(q.cc.compose(q.cc).to_dense(), c @ np.conj(c))
    other = AntilinearOperator.from_dense(q.basis, dense["t21"] @ c)
    assert_matches(q.cc.compose(other).to_dense(), c @ np.conj(dense["t21"] @ c))
    # a C whose banded part does not commute with the level reflection
    m = other.to_dense()
    for name in LINEAR:
        assert_matches(antilinear_conjugate(other, getattr(q, name)).to_dense(),
                       m @ dense[name].T @ np.conj(m))


@pytest.mark.parametrize("nmax,rm,theta,rho,y", CASES)
def test_interior_residual_matches_dense(nmax, rm, theta, rho, y):
    q = quadruple(nmax, rm, theta, rho, y)
    exprs = [commutator(q.t_plus, q.t_minus) + 2j * q.t21,
             q.t_plus.adjoint() + q.t_minus,
             commutator(q.ih, q.u),
             antilinear_conjugate(q.cc, q.t_plus) + q.t_plus,
             q.t_plus + q.t_minus,
             q.u @ q.u @ q.e_perp]
    for x, margin in itertools.product(exprs, range(nmax)):
        proj = InteriorProjector(q.basis, margin)
        want = np.linalg.norm(proj.compress(x.to_dense()), 2)
        assert abs(interior_residual(x, margin) - want) <= 1e-13 * max(want, 1e-300)


def test_from_dense_round_trip(rng):
    q = quadruple(4, 1.0, 0.3, 0.4, 0.9)
    mat = rng.normal(size=(q.basis.dim,) * 2) + 1j * rng.normal(size=(q.basis.dim,) * 2)
    assert np.array_equal(TruncatedOperator.from_dense(q.basis, mat).to_dense(), mat)
    assert np.array_equal(AntilinearOperator.from_dense(q.basis, mat).to_dense(), mat)
    assert q.t_plus.shift_degree == 1 and q.t_minus.shift_degree == -1
    assert TruncatedOperator.from_dense(q.basis, mat).shift_degree is None


def planted(q, level):
    """T+ with a 1e-6 defect in the block leaving ``level``."""
    blocks = np.array(q.t_plus.band(1))
    blocks[q.basis.level_index(level)] += 1e-6 * np.eye(2)
    return dataclasses.replace(q, t_plus=TruncatedOperator(q.basis, {1: blocks}))


DEFECT_CHECKS = ("symmetric.sl2_pair", "symmetric.tplus_adjoint",
                 "charge_conjugation.tplus")


def defect_report(q):
    return check_symmetric_conditions(q, 2).extend(check_charge_conjugation(q, 2))


def test_interior_defect_turns_checks_red(q_standard):
    rep = defect_report(planted(q_standard, 0.5))
    for cid in DEFECT_CHECKS:
        assert not rep[cid].passed, cid


def test_defect_inside_margin_stays_green(q_standard):
    # the block from the second-outermost level to the outermost one: both
    # lie inside the margin of 2, so no interior identity sees it
    rep = defect_report(planted(q_standard, q_standard.basis.max_level - 1))
    for cid in DEFECT_CHECKS:
        assert rep[cid].passed, cid


def test_desitter_checks_stay_banded(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense path reached")

    monkeypatch.setattr(TruncatedOperator, "to_dense", refuse)
    monkeypatch.setattr(AntilinearOperator, "to_dense", refuse)
    monkeypatch.setattr(operators, "_dense_norm", refuse)
    q = assemble_quadruple(DeSitterParams(rm=1.0, theta=0.3, nmax=64))
    assert verify_quadruple(q).passed
    adm = extract_adm(q)
    assert adm.mass_scale == pytest.approx(1.0, abs=1e-8)
    massless = assemble_quadruple(DeSitterParams(rm=0.0, theta=0.3, nmax=64))
    assert massless_degeneracy_check(massless) <= 1e-10


def test_verify_at_nmax_256():
    rep = verify_quadruple(assemble_quadruple(DeSitterParams(rm=1.0, theta=0.3, nmax=256)))
    assert [c.check_id for c in rep if not c.passed] == []


def test_noncommutativity_with_off_band_generator(rng):
    q = quadruple(4, 1.0, 0.3, 0.0, 0.0)
    g = rng.normal(size=(q.basis.dim,) * 2) + 1j * rng.normal(size=(q.basis.dim,) * 2)
    ih = 0.1 * (g - g.conj().T)
    ut, u = expm(ih), q.u.to_dense()
    evolved = ut @ u @ ut.conj().T
    want = np.linalg.norm(evolved @ u - u @ evolved, 2)
    got = check_noncommutativity(dataclasses.replace(q, ih=TruncatedOperator.from_dense(q.basis, ih)))
    assert got == pytest.approx(want, rel=1e-12)


EPS = np.finfo(float).eps


def random_blocks(rng, count, scale=1.0):
    return scale * (rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2)))


def test_closed_form_exponential_matches_expm(rng):
    levels = np.concatenate([np.arange(-10.5, 11.0), [-1e4 + 0.5, -777.5, 4321.5, 1e4 - 0.5]])
    nilpotent = np.array([[[0.0, 1.0], [0.0, 0.0]], [[0.3 + 2j, 5.0], [0.0, 0.3 + 2j]]])
    stacks = [random_blocks(rng, 200, scale) for scale in (1e-6, 0.1, 1.0, 3.0)]
    stacks += [nilpotent, evolution_block(levels, 1.0, 0.3), evolution_block(levels, 0.0, 1.0),
               evolution_block(levels, 2.0, 0.0)]
    for a in stacks:
        got, want = quad._expm2(a), expm(a)
        for g, w, blk in zip(got, want, a):
            # exp is conditioned like ||A||: at level 1e4 scipy's expm itself
            # is off by about eps ||A|| from the exact exponential
            tol = max(1e-12, 8 * EPS * np.linalg.norm(blk, 2)) * np.linalg.norm(w, 2)
            assert np.abs(g - w).max() <= tol


def test_block_norms_match_svd(rng):
    blocks = random_blocks(rng, 200) * np.exp(rng.uniform(-20, 20, size=(200, 1, 1)))
    # scaled unitaries perturbed by 1e-9: the two singular values nearly coincide
    unitaries = np.linalg.qr(random_blocks(rng, 200))[0] * rng.uniform(0.1, 10, size=(200, 1, 1))
    near = unitaries + 1e-9 * random_blocks(rng, 200)
    for stack in (blocks, near):
        basis = BasisDescriptor.spinor(len(stack) // 2)
        got = InteriorProjector(basis, 0).band_norms(TruncatedOperator(basis, {0: stack}), 0)
        want = np.linalg.norm(stack, 2, axis=(1, 2))
        assert np.abs(got / want - 1).max() <= 4 * EPS
        # the SVD carries most of that; against the exact norm the closed
        # form stays within one rounding
        with mpmath.workdps(40):
            for g, blk in zip(got[:20], stack[:20]):
                exact = max(mpmath.svd_c(mpmath.matrix(blk.tolist()), compute_uv=False))
                assert abs(g / exact - 1) <= EPS


def full_orientability(q, d, margin):
    """Every candidate e_perp u^p [D, u^q] in one least-squares fit."""
    dirac = quad._hochschild_dirac(q)
    proj = InteriorProjector(q.basis, margin)
    gamma = proj.project(q.gamma)
    cands = [proj.project(q.e_perp @ q.u.power(p) @ commutator(dirac, q.u.power(k)))
             for p in range(-d, d + 1) for k in range(-d, d + 1) if k != 0]
    a = np.array([c.to_dense().ravel() for c in cands]).T
    b = gamma.to_dense().ravel()
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    return np.linalg.norm(a @ coef - b) / np.linalg.norm(b)


def orientability_cases(rng):
    grid = [quadruple(16, rm, theta, 0.0, 0.0) for rm in (0.0, 0.5, 1.0, 2.0)
            for theta in (0.0, 0.3, 1.0)]
    q = quadruple(16, 1.0, 0.3, 0.0, 0.0)
    h = rng.normal(size=(q.basis.dim,) * 2)
    dense_gamma = TruncatedOperator.from_dense(q.basis, h + h.T)
    band2 = TruncatedOperator(q.basis, {2: 0.3 * random_blocks(rng, q.basis.nlevels)})
    off_band = np.zeros((q.basis.dim,) * 2, dtype=complex)
    off_band[34, 29] = 0.7
    # a whole extra band of iH links the candidate groups in a chain:
    # p + q = 0 and -1 share band 0 with gamma, the others only join
    # through them
    ih_band1 = TruncatedOperator(q.basis, {1: 0.3 * random_blocks(rng, q.basis.nlevels)})
    return grid + [
        quadruple(16, 1.0, 0.3, 0.4, 0.9),
        dataclasses.replace(q, gamma=dense_gamma),
        dataclasses.replace(q, gamma=q.gamma + band2),
        dataclasses.replace(q, ih=q.ih + TruncatedOperator.from_dense(q.basis, off_band)),
        dataclasses.replace(q, ih=q.ih + ih_band1),
    ]


def test_split_orientability_matches_full_fit(rng):
    for q in orientability_cases(rng):
        for d, margin in ((2, 4), (1, 2)):
            assert abs(check_orientability(q, d, margin) - full_orientability(q, d, margin)) <= 1e-14


def test_orientability_builds_each_power_once(monkeypatch):
    calls = []
    power = TruncatedOperator.power
    monkeypatch.setattr(TruncatedOperator, "power",
                        lambda self, p: calls.append(p) or power(self, p))
    check_orientability(quadruple(16, 1.0, 0.3, 0.0, 0.0), 2)
    assert sorted(calls) == [-2, -1, 0, 1, 2]
