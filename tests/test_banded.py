"""The band storage against its dense oracle, planted defects, and the
guarantee that the de Sitter checks never leave the banded fast path."""

import dataclasses
import itertools
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from specquad import operators, quadruple as quad, reconstruct, spinfields
from specquad.desitter import (
    DeSitterParams,
    appendix_t_minus,
    appendix_t_plus,
    assemble_quadruple,
    evolution_block,
)
from specquad.operators import (
    AntilinearOperator,
    BasisDescriptor,
    InteriorProjector,
    TruncatedOperator,
    anticommutator,
    antilinear_conjugate,
    commutator,
    interior_residual,
)
from specquad.quadruple import (
    AxiomCheck,
    check_charge_conjugation,
    check_noncommutativity,
    check_orientability,
    check_symmetric_conditions,
    verify_points,
    verify_quadruple,
)
from specquad.reconstruct import extract_adm, massless_degeneracy_check

from construction_reference import gauge_transform
from operator_reference import (antilinear_from_dense, band_block, band_bound, compress,
                                dense_norm, from_dense, level_index, shift_degree, to_dense,
                                zero)

LINEAR = ("u", "e_perp", "gamma", "t21", "t_plus", "t_minus", "ih")
POINTS = [(0.0, 0.0, 0.0, 0.0), (1.0, 0.3, 0.0, 0.0), (2.0, 1.0, 0.0, 0.0),
          (1.0, 0.3, 0.4, 0.9)]
CASES = [(nmax,) + p for nmax in (4, 8, 16) for p in POINTS]


def quadruple(nmax, rm, theta, rho, y):
    """The quadruple at (rm, theta), in the gauge of the phases rho and y."""
    q = assemble_quadruple(DeSitterParams(rm=rm, theta=theta, nmax=nmax))
    return gauge_transform(q, rho, y) if rho or y else q


def assert_matches(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= 1e-13 * scale


@pytest.mark.parametrize("nmax,rm,theta,rho,y", CASES)
def test_algebra_matches_dense(nmax, rm, theta, rho, y):
    q = quadruple(nmax, rm, theta, rho, y)
    dense = {name: to_dense(getattr(q, name)) for name in LINEAR}
    c = to_dense(q.cc)
    for name in LINEAR:
        x, xd = getattr(q, name), dense[name]
        assert_matches(to_dense(x.adjoint()), xd.conj().T)
        assert_matches(to_dense(antilinear_conjugate(q.cc, x)), c @ xd.T @ np.conj(c))
        assert_matches(to_dense(q.cc.after(x)), c @ np.conj(xd))
        assert_matches(to_dense(q.cc.before(x)), xd @ c)
    for a, b in itertools.product(LINEAR, repeat=2):
        x, y_ = getattr(q, a), getattr(q, b)
        xd, yd = dense[a], dense[b]
        assert_matches(to_dense(x @ y_), xd @ yd)
        assert_matches(to_dense(commutator(x, y_)), xd @ yd - yd @ xd)
    assert_matches(to_dense(q.cc.compose(q.cc)), c @ np.conj(c))
    other = antilinear_from_dense(q.basis, dense["t21"] @ c)
    assert_matches(to_dense(q.cc.compose(other)), c @ np.conj(dense["t21"] @ c))
    # a C whose banded part does not commute with the level reflection
    m = to_dense(other)
    for name in LINEAR:
        assert_matches(to_dense(antilinear_conjugate(other, getattr(q, name))),
                       m @ dense[name].T @ np.conj(m))


def random_bands(rng, basis, shifts):
    shape = (basis.fiber_dim, basis.fiber_dim, basis.nlevels)
    return TruncatedOperator(basis, {k: rng.normal(size=shape) + 1j * rng.normal(size=shape)
                                     for k in shifts})


def random_dense(rng, basis):
    return rng.normal(size=(basis.dim,) * 2) + 1j * rng.normal(size=(basis.dim,) * 2)


def assert_same_bands(got, want):
    assert list(got.bands) == list(want.bands)
    for k in want.bands:
        assert np.array_equal(got.bands[k], want.bands[k])


@pytest.mark.parametrize("fiber_dim", [1, 2, 3])
def test_random_bands_match_dense(rng, fiber_dim):
    # every band operation at every fiber size, with products whose band
    # leaves the window (7 + 5 and -7 - 4 on 8 levels) and the empty operator
    basis = BasisDescriptor(8, fiber_dim=fiber_dim)
    ops = [random_bands(rng, basis, (0,)), random_bands(rng, basis, (-2, 1, 3)),
           random_bands(rng, basis, (7, 5)), random_bands(rng, basis, (-7, -4, 2)),
           zero(basis)]
    for x, y in itertools.product(ops, repeat=2):
        xd, yd = to_dense(x), to_dense(y)
        assert_matches(to_dense(x @ y), xd @ yd)
        assert_matches(to_dense(commutator(x, y)), xd @ yd - yd @ xd)
        assert_matches(to_dense(anticommutator(x, y)), xd @ yd + yd @ xd)
        # the fused commutators give the floats of their definition
        assert_same_bands(commutator(x, y), x @ y - y @ x)
        assert_same_bands(anticommutator(x, y), x @ y + y @ x)
        assert_matches(to_dense(x + y), xd + yd)
        assert_matches(to_dense(x - y), xd - yd)
    # exact cancellations store no band: the level parity (-1)^i commutes
    # with the even bands and anticommutes with the odd ones, exactly
    signs = np.where(np.arange(basis.nlevels) % 2, -1.0, 1.0)
    parity = TruncatedOperator(basis, {0: signs * np.eye(fiber_dim)[..., None]})
    for x in ops:
        even, odd = ({k: x.band(k) for k in x.bands if k % 2 == r} for r in (0, 1))
        assert not commutator(x, x).bands
        assert not commutator(parity, TruncatedOperator(basis, even)).bands
        assert not anticommutator(parity, TruncatedOperator(basis, odd)).bands
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    for x in ops:
        xd = to_dense(x)
        assert_matches(x.apply(v), xd @ v)
        assert_matches(to_dense(-x), -xd)
        assert_matches(to_dense((0.5 - 2j) * x), (0.5 - 2j) * xd)
        assert_matches(to_dense(x * 3.0), 3.0 * xd)
        assert_matches(to_dense(x.adjoint()), xd.conj().T)
        assert_matches(to_dense(x.conj()), xd.conj())
    # antilinear maps v -> m conj(v) from dense matrices with every band
    maps = [antilinear_from_dense(basis, random_dense(rng, basis)) for _ in range(2)]
    for c1, c2 in itertools.product(maps, repeat=2):
        assert_matches(to_dense(c1.compose(c2)), to_dense(c1) @ np.conj(to_dense(c2)))
    for c, x in itertools.product(maps, ops):
        m, xd = to_dense(c), to_dense(x)
        assert_matches(to_dense(c.after(x)), m @ np.conj(xd))
        assert_matches(to_dense(c.before(x)), xd @ m)
        assert_matches(to_dense(antilinear_conjugate(c, x)), m @ xd.T @ np.conj(m))
    # interior windows on the half-integer lattice and on the integer one,
    # whose level count is odd
    assert_windows_match_levels(ops)
    lattice = BasisDescriptor(9, fiber_dim=fiber_dim)
    assert_windows_match_levels([random_bands(rng, lattice, shifts) for shifts in
                                 ((0,), (-2, 1, 3), (8, 5), (-8, -4, 2))]
                                + [zero(lattice)])


def assert_windows_match_levels(ops):
    """``project``, ``band`` and ``band_norms`` of every band, and the
    reference ``compress``, at every margin, against the kept levels
    |n| <= max_level - margin."""
    basis = ops[0].basis
    nl, d, levels = basis.nlevels, basis.fiber_dim, basis.level_array
    for x, margin in itertools.product(ops, range(basis.nmax)):
        proj = InteriorProjector(basis, margin)
        keep = np.abs(levels) <= levels[-1] - margin
        keep_d = np.repeat(keep, d)
        xd = to_dense(x)
        assert np.array_equal(to_dense(proj.project(x)),
                              np.where(np.outer(keep_d, keep_d), xd, 0.0))
        assert np.array_equal(compress(x, margin), xd[np.ix_(keep_d, keep_d)])
        blk4 = xd.reshape(nl, d, nl, d)
        for k in range(1 - nl, nl):
            src = [i for i in range(nl) if 0 <= i + k < nl and keep[i] and keep[i + k]]
            blocks = np.zeros((d, d, len(src)), dtype=complex)
            for j, i in enumerate(src):
                blocks[..., j] = blk4[i + k, :, i, :]
            assert np.array_equal(proj.band(x, k), blocks)
            got = proj.band_norms(x, k)
            assert got.shape == (len(src),)
            if src:
                assert_matches(got, np.linalg.norm(blocks, 2, axis=(0, 1)))


def algebra_results(x, y, c, margin=1):
    """One result of every band operation on x, y and the antilinear c."""
    return [x @ y, x + y, x - y, -x, (0.5 - 2j) * x, x.adjoint(), x.conj(),
            InteriorProjector(x.basis, margin).project(x), c.compose(c),
            c.after(x).linear, c.before(x).linear, antilinear_conjugate(c, x)]


def test_band_arrays_are_owned_and_read_only(rng):
    # the constructor copies its input, no algebra result can be written
    # through, and the band accessors give the fiber-major blocks
    for d in (1, 2, 3):
        basis = BasisDescriptor(8, fiber_dim=d)
        arr = rng.normal(size=(d, d, basis.nlevels)) + 0j
        orig = arr.copy()
        x = TruncatedOperator(basis, {1: arr})
        arr[:] = 7.0
        # the block leaving the window is dropped, every other one is kept
        assert np.array_equal(x.band(1)[..., :-1], orig[..., :-1])
        assert not x.band(1)[..., -1].any()
        y = random_bands(rng, basis, (-2, 0, 3))
        c = antilinear_from_dense(basis, random_dense(rng, basis))
        for op in [x, y, *algebra_results(x, y, c), *algebra_results(y, x, c, margin=2)]:
            for k, stored in op.bands.items():
                assert not stored.flags.writeable
                assert op.band(k) is stored
                with pytest.raises(ValueError):
                    op.band(k)[...] = 0.0
        assert x.band(5).shape == (d, d, basis.nlevels) and not x.band(5).any()
        assert band_block(x, 0.5, 1).shape == (d, d)
        assert np.array_equal(band_block(x, 0.5, 1), orig[..., level_index(basis, 0.5)])
        assert not (y - y).bands and not (0 * y).bands
        # the stored bands are those a full any() scan keeps, also where the
        # probed entries (first fiber row, middle level) are zero, or the
        # only nonzero entry is NaN, or the band holds only -0.0
        mid = basis.nlevels // 2
        cases = [np.zeros((d, d, basis.nlevels), dtype=complex) for _ in range(4)]
        cases[0][0, 0, 1] = 2.0
        cases[1][d - 1, 0, mid] = 1j
        cases[2][0, d - 1, mid + 1] = np.nan
        cases[3][...] = complex(-0.0, -0.0)
        for arr in cases:
            x = TruncatedOperator(basis, {0: arr})
            assert set(x.bands) == ({0} if arr.any() else set())
            b = x.band(0)
            for got, want in ((-x, -b), (x * 1.0, b * 1.0), (x * -0.0, b * -0.0),
                              (x.conj(), b.conj()), (x - x, b - b), (0 * x, 0 * b)):
                assert set(got.bands) == ({0} if want.any() else set())


# every closed-form block formula of the package, as a function of the
# level (fiber_gram of the slice)
STACK_FORMULAS = {
    "appendix_t_plus": lambda n: appendix_t_plus(n, 0.7, 0.3),
    "appendix_t_minus": lambda n: appendix_t_minus(n, 0.7, 0.3),
    "evolution_block": lambda n: evolution_block(n, 0.7, 0.3),
    "level_block": lambda n: spinfields.level_block(n, 0.7, 0.3),
    "fiber_gram": spinfields.fiber_gram,
    "conservation_defect": lambda n: spinfields.conservation_defect(n, 0.7, 0.3),
}


@pytest.mark.parametrize("name", STACK_FORMULAS)
def test_block_formulas_give_fiber_major_stacks(name):
    # N = 5 levels, so a level-major (5, 2, 2) stack cannot pass for the
    # (2, 2, 5) one; each entry [:, :, i] is the scalar call's block, bit for bit
    levels = np.array([-2.5, -0.5, 0.5, 1.5, 4.5])
    stack = STACK_FORMULAS[name](levels)
    assert stack.shape == (2, 2, levels.size)
    for i, n in enumerate(levels):
        assert np.array_equal(stack[..., i], STACK_FORMULAS[name](n))


def test_constructor_takes_only_fiber_major_bands():
    basis = BasisDescriptor.spinor(4)
    level_major = np.zeros((basis.nlevels, 2, 2))
    with pytest.raises(ValueError, match=r"fiber-major \(2, 2, 8\)"):
        TruncatedOperator(basis, {0: level_major})


@pytest.mark.parametrize("nmax,rm,theta,rho,y", CASES)
def test_interior_residual_matches_dense(nmax, rm, theta, rho, y):
    # one band: the norm of P A P, pinned to the SVD; several bands: the sum
    # of the per-band block maxima, between the SVD and nbands times it
    q = quadruple(nmax, rm, theta, rho, y)
    single = [commutator(q.t_plus, q.t_minus) + 2j * q.t21,
              q.t_plus.adjoint() + q.t_minus,
              commutator(q.ih, q.u),
              antilinear_conjugate(q.cc, q.t_plus) + q.t_plus,
              q.u @ q.u @ q.e_perp]
    several = [q.t_plus + q.t_minus,
               q.ih + q.u - 0.5j * q.t_minus,
               commutator(q.t_plus, q.t_minus) + 1e-3 * q.t_plus]
    cases = [(x, True) for x in single] + [(x, False) for x in several]
    for (x, one_band), margin in itertools.product(cases, range(nmax)):
        got, svd = interior_residual(x, margin), dense_norm(x, margin)
        if one_band:
            assert len(x.bands) <= 1
            assert abs(got - svd) <= 1e-13 * max(svd, 1e-300)
            continue
        assert len(x.bands) > 1
        want = band_bound(x, margin)
        assert abs(got - want) <= 1e-13 * want
        assert svd * (1 - 1e-13) <= got <= len(x.bands) * svd * (1 + 1e-13)


def test_from_dense_round_trip(rng):
    q = quadruple(4, 1.0, 0.3, 0.4, 0.9)
    mat = rng.normal(size=(q.basis.dim,) * 2) + 1j * rng.normal(size=(q.basis.dim,) * 2)
    assert np.array_equal(to_dense(from_dense(q.basis, mat)), mat)
    assert np.array_equal(to_dense(antilinear_from_dense(q.basis, mat)), mat)
    assert shift_degree(q.t_plus) == 1 and shift_degree(q.t_minus) == -1
    assert shift_degree(from_dense(q.basis, mat)) is None


def planted(q, level):
    """T+ with a 1e-6 defect in the block leaving ``level``."""
    blocks = np.array(q.t_plus.band(1))
    blocks[..., level_index(q.basis, level)] += 1e-6 * np.eye(2)
    return dataclasses.replace(q, t_plus=TruncatedOperator(q.basis, {1: blocks}))


DEFECT_CHECKS = ("symmetric.sl2_pair", "symmetric.tplus_adjoint",
                 "charge_conjugation.tplus")


def defect_report(q):
    [rep] = check_symmetric_conditions(q, 2)
    [cc] = check_charge_conjugation(q, 2)
    return rep.extend(cc)


def test_interior_defect_turns_checks_red(q_standard):
    rep = defect_report(planted(q_standard, 0.5))
    for cid in DEFECT_CHECKS:
        assert not rep[cid].passed, cid


def test_defect_inside_margin_stays_green(q_standard):
    # the block from the second-outermost level to the outermost one: both
    # lie inside the margin of 2, so no interior identity sees it
    rep = defect_report(planted(q_standard, q_standard.basis.level_array[-1] - 1))
    for cid in DEFECT_CHECKS:
        assert rep[cid].passed, cid


# the numpy.linalg calls the verify and extract path must not make
LINALG = ("lstsq", "svd", "solve", "qr", "norm", "eig", "eigh", "pinv", "det")


def test_desitter_checks_stay_banded(monkeypatch):
    # no LAPACK or linear-algebra call at all: the block norms and the
    # orientability fit are explicit sums
    def refuse(*args, **kwargs):
        raise AssertionError("linear-algebra routine called")

    for name in LINALG:
        monkeypatch.setattr(np.linalg, name, refuse)
    q = assemble_quadruple(DeSitterParams(rm=1.0, theta=0.3, nmax=64))
    assert verify_quadruple(q).passed
    adm = extract_adm(q)
    assert adm.mass_scale == pytest.approx(1.0, abs=1e-8)
    massless = assemble_quadruple(DeSitterParams(rm=0.0, theta=0.3, nmax=64))
    assert massless_degeneracy_check(massless) <= 1e-10
    # the 12-point sweep grid as one batch
    grid = assemble_quadruple(DeSitterParams(rm=np.repeat([0.0, 0.5, 1.0, 2.0], 3),
                                             theta=np.tile([0.0, 0.3, 1.0], 4), nmax=32))
    reps = verify_points(grid, include_noncommutativity=np.repeat([False, True, True, True], 3))
    assert len(reps) == 12 and all(rep.passed for rep in reps)


def test_multi_band_defect_at_nmax_512_stays_banded(monkeypatch):
    # a band-0 block planted in T- puts two bands into the T+- identities;
    # their band bounds turn the six ids that read T- red with no LAPACK
    # call
    def refuse(*args, **kwargs):
        raise AssertionError("linear-algebra routine called")

    q = assemble_quadruple(DeSitterParams(rm=1.0, theta=0.3, nmax=512))
    blocks = np.zeros((2, 2, q.basis.nlevels), dtype=complex)
    blocks[..., level_index(q.basis, 0.5)] = 1e-6 * np.eye(2)
    q = dataclasses.replace(q, t_minus=q.t_minus + TruncatedOperator(q.basis, {0: blocks}))
    for name in LINALG:
        monkeypatch.setattr(np.linalg, name, refuse)
    rep = verify_quadruple(q)
    assert sorted(c.check_id for c in rep if not c.passed) == [
        "charge_conjugation.tminus", "charge_conjugation.tplus", "symmetric.sl2_lower",
        "symmetric.sl2_pair", "symmetric.tminus_adjoint", "symmetric.tplus_adjoint"]


def test_verify_at_nmax_256():
    rep = verify_quadruple(assemble_quadruple(DeSitterParams(rm=1.0, theta=0.3, nmax=256)))
    assert [c.check_id for c in rep if not c.passed] == []


def test_noncommutativity_refuses_other_generators(monkeypatch):
    # only a level-diagonal iH on a 2-dim fiber has the closed-form
    # exponential; any other generator is refused, and so is a batch in
    # which one point's iH leaves band 0.  verify_* refuse it before any
    # check runs, and run the other checks when no evolution row is asked
    q = quadruple(4, 1.0, 0.3, 0.0, 0.0)
    band1 = np.zeros((2, 2, q.basis.nlevels), dtype=complex)
    band1[0, 1, 3] = 0.1
    off_band = dataclasses.replace(q, ih=q.ih + TruncatedOperator(q.basis, {1: band1}))
    basis3 = BasisDescriptor(q.basis.nlevels, fiber_dim=3)
    diag3 = np.zeros((3, 3, basis3.nlevels), dtype=complex)
    diag3[0, 0] = diag3[1, 1] = diag3[2, 2] = 1j * basis3.level_array
    one3 = TruncatedOperator.identity(basis3)
    fiber3 = dataclasses.replace(
        q, basis=basis3, u=one3, e_perp=1j * one3, gamma=one3, cc=AntilinearOperator(one3),
        t21=one3, t_plus=one3, t_minus=one3, ih=TruncatedOperator(basis3, {0: diag3}))
    batched = assemble_quadruple(DeSitterParams(rm=np.ones(2), theta=0.3, nmax=4))
    band1 = np.zeros((2, 2, 2, batched.basis.nlevels), dtype=complex)
    band1[0, 1, 1, 3] = 0.1
    mixed = dataclasses.replace(
        batched, ih=batched.ih + TruncatedOperator(batched.basis, {1: band1}))
    for bad, bands, dim in ((off_band, "[0, 1]", 2), (fiber3, "[0]", 3),
                            (mixed, "[0, 1]", 2)):
        message = f"not bands {bands} on a {dim}-dim fiber"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_noncommutativity(bad)
        verify = verify_points if bad.basis.batch else verify_quadruple
        with monkeypatch.context() as patch:
            patch.setattr(quad, "check_time_vector", refuse)
            with pytest.raises(ValueError, match=re.escape(message)):
                verify(bad, margin=1)
    ids = [c.check_id for c in verify_quadruple(off_band, margin=1,
                                                 include_noncommutativity=False)]
    assert "orientability.membership" in ids and "evolution.noncommutative" not in ids


def refuse(*args, **kwargs):
    raise AssertionError("a check ran")


EPS = np.finfo(float).eps


def per_level(stack):
    """The (N, d, d) sequence of the blocks of a fiber-major stack, for the
    per-block scipy and numpy references."""
    return np.moveaxis(stack, -1, 0)


def random_blocks(rng, count, scale=1.0):
    """``count`` random 2x2 blocks as a fiber-major (2, 2, count) stack."""
    draw = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    return scale * np.moveaxis(draw, 0, -1)


def test_closed_form_exponential_matches_expm(rng):
    levels = np.concatenate([np.arange(-10.5, 11.0), [-1e4 + 0.5, -777.5, 4321.5, 1e4 - 0.5]])
    nilpotent = np.moveaxis([[[0.0, 1.0], [0.0, 0.0]], [[0.3 + 2j, 5.0], [0.0, 0.3 + 2j]]], 0, -1)
    stacks = [random_blocks(rng, 200, scale) for scale in (1e-6, 0.1, 1.0, 3.0)]
    stacks += [nilpotent, evolution_block(levels, 1.0, 0.3), evolution_block(levels, 0.0, 1.0),
               evolution_block(levels, 2.0, 0.0)]
    for a in stacks:
        got, want = quad._expm2(a), expm(per_level(a))
        for g, w, blk in zip(per_level(got), want, per_level(a)):
            # exp is conditioned like ||A||: at level 1e4 scipy's expm itself
            # is off by about eps ||A|| from the exact exponential
            tol = max(1e-12, 8 * EPS * np.linalg.norm(blk, 2)) * np.linalg.norm(w, 2)
            assert np.abs(g - w).max() <= tol


def test_block_norms_match_svd(rng):
    blocks = random_blocks(rng, 200) * np.exp(rng.uniform(-20, 20, size=200))
    # scaled unitaries perturbed by 1e-9: the two singular values nearly coincide
    unitaries = (np.moveaxis(np.linalg.qr(per_level(random_blocks(rng, 200)))[0], 0, -1)
                 * rng.uniform(0.1, 10, size=200))
    near = unitaries + 1e-9 * random_blocks(rng, 200)
    for stack in (blocks, near):
        basis = BasisDescriptor.spinor(stack.shape[-1] // 2)
        got = InteriorProjector(basis, 0).band_norms(TruncatedOperator(basis, {0: stack}), 0)
        want = np.linalg.norm(stack, 2, axis=(0, 1))
        assert np.abs(got / want - 1).max() <= 4 * EPS
        # the SVD carries most of that; against the exact norm the closed
        # form stays within one rounding
        with mpmath.workdps(40):
            for g, blk in zip(got[:20], per_level(stack)[:20]):
                exact = max(mpmath.svd_c(mpmath.matrix(blk.tolist()), compute_uv=False))
                assert abs(g / exact - 1) <= EPS


def test_block_norms_route_by_block_size(rng, monkeypatch):
    # every block size but 2x2 takes the Jacobi iteration over the
    # flattened trailing axes, in the trailing shape; 2x2 blocks take the
    # closed form
    for d in (1, 3, 4):
        stack = rng.normal(size=(d, d, 2, 5)) + 1j * rng.normal(size=(d, d, 2, 5))
        got = operators.block_norms(stack)
        assert got.shape == (2, 5)
        assert np.array_equal(got.ravel(), operators._jacobi_norms(stack.reshape(d, d, 10)))
        want = np.linalg.norm(per_level(stack.reshape(d, d, 10)), 2, axis=(-2, -1))
        assert np.abs(got.ravel() / want - 1).max() <= 8 * d * EPS

    def refuse(stack):
        raise AssertionError("Jacobi iteration on 2x2 blocks")

    monkeypatch.setattr(operators, "_jacobi_norms", refuse)
    assert operators.block_norms(random_blocks(rng, 10).reshape(2, 2, 2, 5)).shape == (2, 5)


@pytest.mark.parametrize("fiber_dim", [1, 3])
@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_nonfinite_block_reads_red(fiber_dim, entry):
    # a nan or inf entry in a block of a fiber that is not 2-dimensional
    # reads nan or inf, a red check and not a crash
    basis = BasisDescriptor(8, fiber_dim=fiber_dim)
    blocks = np.zeros((fiber_dim, fiber_dim, basis.nlevels), dtype=complex)
    blocks[..., 3] = 0.5
    blocks[fiber_dim - 1, 0, 4] = entry
    resid = interior_residual(TruncatedOperator(basis, {0: blocks}), 1)
    assert np.isnan(resid) if np.isnan(entry) else resid == np.inf
    assert not AxiomCheck("algebra.u_unitary", float(resid), 1e-12).passed


def full_orientability(q, margin):
    """Every candidate e_perp u^p [D, u^q], |p|, |q| <= 2, in one
    least-squares fit."""
    d, dirac = 2, commutator(q.ih, q.e_perp)
    proj = InteriorProjector(q.basis, margin)
    gamma = proj.project(q.gamma)
    cands = [proj.project(q.e_perp @ q.u.power(p) @ commutator(dirac, q.u.power(k)))
             for p in range(-d, d + 1) for k in range(-d, d + 1) if k != 0]
    a = np.array([to_dense(c).ravel() for c in cands]).T
    b = to_dense(gamma).ravel()
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    return np.linalg.norm(a @ coef - b) / np.linalg.norm(b)


def orientability_cases(rng):
    grid = [quadruple(16, rm, theta, 0.0, 0.0) for rm in (0.0, 0.5, 1.0, 2.0)
            for theta in (0.0, 0.3, 1.0)]
    q = quadruple(16, 1.0, 0.3, 0.0, 0.0)
    h = rng.normal(size=(q.basis.dim,) * 2)
    dense_gamma = from_dense(q.basis, h + h.T)
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
        dataclasses.replace(q, ih=q.ih + from_dense(q.basis, off_band)),
        dataclasses.replace(q, ih=q.ih + ih_band1),
    ]


def test_split_orientability_matches_full_fit(rng):
    for q in orientability_cases(rng):
        for margin in (4, 2):
            assert abs(check_orientability(q, margin) - full_orientability(q, margin)) <= 1e-14


def test_orientability_builds_only_linked_candidates(monkeypatch):
    # e_perp u^p [D, u^q] is band p + q and gamma band 0, so de Sitter at
    # d = 2 builds the 4 candidates with p + q = 0; every built candidate is
    # projected once, and so is gamma
    q = quadruple(16, 1.0, 0.3, 0.0, 0.0)
    built = []
    project = InteriorProjector.project
    monkeypatch.setattr(InteriorProjector, "project",
                        lambda self, a: built.append(a is not q.gamma) or project(self, a))
    check_orientability(q, 4)
    assert sum(built) == 4


def test_verify_and_adm_operation_counts(monkeypatch):
    # the per-call work of the band algebra as counts that repeat exactly:
    # one fused commutator makes one result from its two products; the
    # checks and the extraction share the quadruple's derived operators
    # (u*, u^2, C u* C, [iH, u], [iH, e_perp], [[iH, e_perp], u]), so each
    # is built once
    counts = {"products": 0, "results": 0, "commutators": 0, "antilinear": 0}
    block_product, result = operators.block_product, TruncatedOperator._result.__func__

    def count(key, fn):
        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    q = quadruple(16, 1.0, 0.3, 0.0, 0.0)
    monkeypatch.setattr(operators, "block_product", count("products", block_product))
    monkeypatch.setattr(TruncatedOperator, "_result", classmethod(count("results", result)))
    for key, name in (("commutators", "commutator"), ("antilinear", "antilinear_conjugate")):
        counted = count(key, getattr(operators, name))
        for module in (operators, quad, reconstruct):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    verify_quadruple(q)
    extract_adm(q)
    assert counts["commutators"] <= 28 and counts["antilinear"] <= 2
    assert counts["products"] <= 93 and counts["results"] <= 133


def test_orientability_builds_each_power_once(monkeypatch):
    calls = []
    power = TruncatedOperator.power
    monkeypatch.setattr(TruncatedOperator, "power",
                        lambda self, p: calls.append(p) or power(self, p))
    check_orientability(quadruple(16, 1.0, 0.3, 0.0, 0.0), 4)
    assert sorted(calls) == [-2, -1, 0, 1, 2]


MIXED_RMS, MIXED_THETAS = [1.0, 1.0, 2.0, 0.5], [0.3, 0.0, 1.0, 0.3]


def mixed_batch(rng):
    """Four points whose nonzero bands differ: points 0 and 3 are plain de
    Sitter, iH vanishes at point 1 and gamma gains a band 2 at point 2."""
    q = assemble_quadruple(DeSitterParams(rm=np.array(MIXED_RMS), theta=np.array(MIXED_THETAS),
                                          nmax=16))
    nl = q.basis.nlevels
    ih = np.array(np.broadcast_to(q.ih.band(0), (2, 2, 4, nl)))
    ih[:, :, 1] = 0.0
    g2 = np.zeros((2, 2, 4, nl), dtype=complex)
    g2[:, :, 2] = 0.3 * random_blocks(rng, nl)
    return dataclasses.replace(q, ih=TruncatedOperator(q.basis, {0: ih}),
                               gamma=q.gamma + TruncatedOperator(q.basis, {2: g2}))


def test_orientability_fits_a_mixed_batch_per_point(monkeypatch, rng):
    # one fit serves the four points, although they link different
    # candidates (none at point 1, whose residual is 1), and each point's
    # residual is that of the point alone
    q = mixed_batch(rng)
    calls = []
    linked_group = quad._linked_group
    monkeypatch.setattr(quad, "_linked_group", lambda *a: calls.append(a) or linked_group(*a))
    got = check_orientability(q, 4)
    assert len(calls) == 1 and got[1] == 1.0
    monkeypatch.undo()
    for p in range(4):
        single = dataclasses.replace(
            assemble_quadruple(DeSitterParams(rm=MIXED_RMS[p], theta=MIXED_THETAS[p], nmax=16)),
            ih=at_point(q.ih, p), gamma=at_point(q.gamma, p))
        assert got[p].tobytes() == check_orientability(single, 4).tobytes(), p


def at_point(x, p):
    """The single-point operator of x at point p of its 1-d batch, built
    alone: its band p slices, with the bands zero there dropped."""
    basis = dataclasses.replace(x.basis, batch=())
    full = (x.basis.fiber_dim,) * 2 + x.basis.batch + (x.basis.nlevels,)
    return TruncatedOperator(basis, {k: np.broadcast_to(a, full)[:, :, p]
                                     for k, a in x.bands.items()})


def assert_bitwise(got, want):
    """The same stored bands with the same bits (up to the sign of zero:
    a band zero at one point adds exact zeros to the batched sums)."""
    assert list(got.bands) == list(want.bands)
    for k in want.bands:
        assert np.array_equal(got.bands[k], want.bands[k]), k


@st.composite
def batched_operands(draw):
    """A basis with a batch of P <= 4 points and three operators on it.
    Each band is shared (size-1 batch axis) or per point, and a per-point
    band may vanish at some points, so the points differ in their bands."""
    nmax, points = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    basis = BasisDescriptor.spinor(nmax, (points,))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ops = []
    for _ in range(3):
        bands = {}
        for k in draw(st.sets(st.integers(-3, 3), max_size=3)):
            shape = (2, 2, points if draw(st.booleans()) else 1, basis.nlevels)
            arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            if shape[2] > 1:
                arr[:, :, rng.random(points) < 0.3] = 0.0
            bands[k] = arr
        ops.append(TruncatedOperator(basis, bands))
    return basis, ops, draw(st.integers(0, nmax - 1))


@settings(max_examples=60, deadline=None)
@given(batched_operands())
def test_batched_algebra_equals_each_point(case):
    basis, (x, y, z), margin = case
    proj = InteriorProjector(basis, margin)
    # (the batched result, the same op on the operands of one point)
    results = [
        (x @ y, lambda a, b, c: a @ b),
        (x + y, lambda a, b, c: a + b),
        (x - y, lambda a, b, c: a - b),
        (x.adjoint(), lambda a, b, c: a.adjoint()),
        (commutator(x, y), lambda a, b, c: commutator(a, b)),
        (antilinear_conjugate(AntilinearOperator(z), x),
         lambda a, b, c: antilinear_conjugate(AntilinearOperator(c), a)),
        (proj.project(x), lambda a, b, c: InteriorProjector(a.basis, margin).project(a)),
    ]
    residuals = interior_residual(x + y, margin)
    assert residuals.shape == basis.batch
    # the dense oracle holds one matrix per point
    dense = to_dense(x)
    split = from_dense(basis, dense)
    for p in range(basis.batch[0]):
        xp, yp, zp = at_point(x, p), at_point(y, p), at_point(z, p)
        single = InteriorProjector(xp.basis, margin)
        for got, op in results:
            assert_bitwise(at_point(got, p), op(xp, yp, zp))
        assert np.array_equal(dense[p], to_dense(xp))
        assert_bitwise(at_point(split, p), xp)
        for k in range(-3, 4):
            norms = proj.band_norms(x, k)
            norms = np.broadcast_to(norms, basis.batch + norms.shape[-1:])
            assert np.array_equal(norms[p], single.band_norms(xp, k))
        # a point where several bands are nonzero takes the dense SVD, one
        # band or none the block norms, as at that point alone
        assert residuals[p] == interior_residual(xp + yp, margin)


def test_batched_verify_decides_each_point_alone(rng):
    # the points differ in what a check decides from their values: gamma
    # gains a band 2 at point 1, so its orientability fit links more
    # candidates, and becomes i gamma at point 2, so gamma^2 = -1 there and
    # volume.gamma_square reads red
    rms, thetas = [0.0, 1.0, 2.0], [0.3, 0.0, 1.0]
    batched = assemble_quadruple(DeSitterParams(rm=np.array(rms), theta=np.array(thetas), nmax=16))
    nl = batched.basis.nlevels
    g0 = np.array(np.broadcast_to(batched.gamma.band(0), (2, 2, 3, nl)))
    g0[:, :, 2] *= 1j
    g2 = np.zeros((2, 2, 3, nl), dtype=complex)
    g2[:, :, 1] = 0.3 * random_blocks(rng, nl)
    reps = verify_points(dataclasses.replace(
        batched, gamma=TruncatedOperator(batched.basis, {0: g0, 2: g2})))
    with pytest.raises(ValueError, match="verify_points"):
        verify_quadruple(batched)
    squares = [r["volume.gamma_square"] for r in reps]
    assert [c.notes for c in squares] == ["gamma^2 = +1"] * 3
    assert not squares[2].passed and squares[2].residual == pytest.approx(2.0)
    for p, (rm, theta) in enumerate(zip(rms, thetas)):
        single = assemble_quadruple(DeSitterParams(rm=rm, theta=theta, nmax=16))
        gamma = TruncatedOperator(single.basis, {0: g0[:, :, p], 2: g2[:, :, p]})
        want = verify_quadruple(dataclasses.replace(single, gamma=gamma))
        assert reps[p].as_dicts() == want.as_dicts(), p


# every check family and interior_residual, as (name, run on a quadruple)
ONE_PATH = [
    ("time_vector", quad.check_time_vector),
    ("volume_element", quad.check_volume_element),
    ("charge_conjugation", lambda q: check_charge_conjugation(q, 2)),
    ("spatial_triple", lambda q: quad.check_spatial_triple(q, 4)),
    ("symmetric_conditions", lambda q: check_symmetric_conditions(q, 2)),
    ("first_order", lambda q: quad.check_first_order(q, q.u_sq, q.u_adj, 3)),
    ("orientability", lambda q: check_orientability(q, 4)),
    ("noncommutativity", check_noncommutativity),
    # one band, the block norms; several bands at each point, the dense SVD
    ("interior_residual.one_band", lambda q: interior_residual(q.ih_u, 2)),
    ("interior_residual.several_bands",
     lambda q: interior_residual(q.t_plus + q.t_minus + q.ih, 2)),
]


def assert_each_point(got, alone):
    """``got``, one check run on a batch, has the type of each single-point
    run in ``alone`` and, point by point, its rows or value bit for bit."""

    def rows(rep):
        return [(e.check_id, e.residual.hex(), e.tolerance, e.margin, e.notes) for e in rep]

    for want in alone:
        assert type(want) is type(got)
    if isinstance(got, list):
        assert all(isinstance(rep, quad.AxiomReport) for rep in got)
        assert [len(want) for want in alone] == [1] * len(alone) and len(got) == len(alone)
        assert [rows(rep) for rep in got] == [rows(want[0]) for want in alone]
    else:
        assert got.shape == (len(alone),) and all(want.shape == () for want in alone)
        assert [got[p].tobytes() for p in range(len(alone))] == [want.tobytes()
                                                                 for want in alone]


@pytest.mark.parametrize("run", [run for _, run in ONE_PATH], ids=[n for n, _ in ONE_PATH])
def test_single_point_runs_the_batch_path(run):
    # a single point is the batch shape (): the same return type as a
    # batch, one report or value per point, and each point's rows or value
    # bit for bit those of the point assembled alone
    rms, thetas = [0.0, 1.0, 2.0], [0.3, 0.0, 1.0]
    got = run(assemble_quadruple(DeSitterParams(rm=np.array(rms), theta=np.array(thetas),
                                                nmax=16)))
    assert_each_point(got, [run(assemble_quadruple(DeSitterParams(rm=rm, theta=theta, nmax=16)))
                            for rm, theta in zip(rms, thetas)])


@pytest.mark.parametrize("run", [run for _, run in ONE_PATH], ids=[n for n, _ in ONE_PATH])
def test_mixed_batch_runs_each_point_alone(run, rng):
    # the points of a batch differ in their nonzero bands; each point's
    # rows or value are those of its quadruple with every operator sliced
    q = mixed_batch(rng)

    def sliced(p):
        return quad.SpectralQuadruple(dataclasses.replace(q.basis, batch=()),
                                      cc=AntilinearOperator(at_point(q.cc.linear, p)),
                                      **{name: at_point(getattr(q, name), p) for name in LINEAR})

    assert_each_point(run(q), [run(sliced(p)) for p in range(4)])
