import math

import numpy as np
import pytest

from specquad import finite, operators
from specquad.finite import (
    FiniteTriple,
    FiniteTripleSpec,
    build_finite_triple,
    connes_distance,
    quadruple_from_triple,
    sign_table,
    two_point_dirac,
    two_point_spec,
    two_point_triple,
    validate_finite_triple,
)

EPS = np.finfo(float).eps


def distance_trajectory(quad, i=0, j=1):
    """Equal-time Connes distance at every scheduled time; math.inf entries
    flag unbounded (zero-coupling) instants."""
    return [connes_distance(t, i, j) for t in quad.triples]


def grid_search_distance(triple, i, j, cap=64.0):
    """Independent brute-force oracle for a pair of characters: dense grid
    over the complex difference z = a_i - a_j (all other summands 0),
    refined around the incumbent."""
    def norm_of(z):
        a = [0.0] * len(triple.spec.dims)
        a[i] = z
        mat = triple.pi(a)
        comm = triple.dirac @ mat - mat @ triple.dirac
        return np.linalg.norm(comm, 2)

    best = 0.0
    center, width = 0.0 + 0.0j, cap
    for _ in range(8):
        xs = np.linspace(center.real - width, center.real + width, 21)
        ys = np.linspace(center.imag - width, center.imag + width, 21)
        for x in xs:
            for y in ys:
                z = complex(x, y)
                if norm_of(z) <= 1.0 and abs(z) > best:
                    best, center = abs(z), z
        width /= 8.0
    return best


class TestSpecValidation:
    def test_two_point_spec_valid(self):
        spec = two_point_spec()
        assert spec.blocks == ((0, 0), (0, 1), (1, 0))
        assert round(np.linalg.det(spec.q_matrix.astype(float))) == -1

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValueError):
            FiniteTripleSpec(dims=(1, 1), q=((1, 2), (3, 0)))

    def test_singular_q_rejected(self):
        with pytest.raises(ValueError):
            FiniteTripleSpec(dims=(1, 1), q=((1, 1), (1, 1)))

    def test_integer_det_is_exact(self, rng):
        import sympy

        for n in range(1, 7):
            for _ in range(5):
                q = rng.integers(-3, 4, size=(n, n))
                if n > 2:
                    q[-1] = q[0] - q[1]  # singular in half the cases
                assert finite._integer_det(q.tolist()) == int(sympy.Matrix(q.tolist()).det())
                q = rng.integers(-3, 4, size=(n, n))
                assert finite._integer_det(q.tolist()) == int(sympy.Matrix(q.tolist()).det())

    def test_invertibility_beyond_float_det(self):
        # q = (a, b)^T (a, b) is singular, but its entries exceed 2^53 and
        # a float determinant reads -3.6e16; the exact one reads 0
        a, b = 2 ** 27 + 1, 2 ** 26 + 3
        q = ((a * a, a * b), (a * b, b * b))
        assert round(abs(np.linalg.det(np.array(q, dtype=float)))) != 0
        assert finite._integer_det(q) == 0
        with pytest.raises(ValueError, match="invertible"):
            FiniteTripleSpec(dims=(1, 1), q=q)
        assert finite._integer_det(((a * a, a * b), (a * b, b * b + 1))) == a * a


def kron_actions(t, a):
    """pi(a) and pi_op(a) written block by block with np.kron, as the
    reference for the block writes of FiniteTriple."""
    left = np.zeros((t.hilbert_dim, t.hilbert_dim), dtype=complex)
    right = np.zeros_like(left)
    for (i, j), d in zip(t.blocks, t.block_dims):
        o = t.offsets[(i, j)]
        nq = abs(t.spec.q[i][j])
        left[o:o + d, o:o + d] = np.kron(a[i], np.eye(nq * t.spec.dims[j]))
        right[o:o + d, o:o + d] = np.kron(np.eye(t.spec.dims[i] * nq), a[j].T)
    return left, right


class TestAlgebraActions:
    SPECS = [two_point_spec(), FiniteTripleSpec(dims=(2, 1), q=((1, 2), (2, 1))),
             FiniteTripleSpec(dims=(1, 3), q=((0, -1), (-1, 2)))]

    @pytest.mark.parametrize("spec", SPECS, ids=["two-point", "dims-2-1", "dims-1-3"])
    def test_block_writes_equal_kron(self, rng, spec):
        n = sum(spec.dims[i] * abs(spec.q[i][j]) * spec.dims[j] for i, j in spec.blocks)
        t = FiniteTriple(spec, np.zeros((n, n)))
        for _ in range(3):
            a = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in spec.dims]
            left, right = kron_actions(t, a)
            assert np.array_equal(t.pi(a), left)
            assert np.array_equal(t.pi_op(a), right)

    @pytest.mark.parametrize("m", [1 + 2j, 0.0, 3 - 0.5j, 1e-300])
    def test_validation_equals_one_norm_per_matrix(self, m):
        # the Jacobi norms give the floats of np.linalg.norm(x, 2) here
        t = two_point_triple(m)
        d, g = t.dirac, np.diag(t.gamma)
        basis = t.algebra_basis()
        first_order = 0.0
        for a in basis:
            da = d @ t.pi(a) - t.pi(a) @ d
            for b in basis:
                bo = t.pi_op(b)
                first_order = max(first_order, float(np.linalg.norm(da @ bo - bo @ da, 2)))
        rep = validate_finite_triple(t)
        assert [c.residual for c in rep] == [
            float(np.linalg.norm(d - d.conj().T, 2)),
            float(np.linalg.norm(t.real_structure.after(d) - t.real_structure.before(d), 2)),
            float(np.linalg.norm(g @ d + d @ g, 2)), first_order]
        quad = quadruple_from_triple(t, [(0.0, m), (1.0, 2 * m)])
        e = 1j * g
        assert [c.residual for c in quad.validate()] == 2 * [
            float(np.linalg.norm(e @ e + np.eye(3), 2)), float(np.linalg.norm(e.conj().T + e, 2)),
            float(np.linalg.norm(e @ g - g @ e, 2))]


def fiber_major(mats):
    """A list or (k, n, n) array of matrices as one (n, n, k) stack."""
    return np.stack(list(mats), axis=-1)


@pytest.mark.filterwarnings("error")
class TestJacobiNorms:
    """``operators._jacobi_norms``, the branch of ``block_norms`` for every
    block size but 2x2, against the LAPACK SVD, which stays the reference
    here: agreement within 8 n eps relative, with no float warning (at
    scale 1e-310 every entry is subnormal)."""

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e300, 1e-300, 1e-310])
    def test_matches_svd(self, rng, n, scale):
        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        r = max(1, n // 2)
        mats = np.concatenate([
            cplx(6, n, n),
            cplx(3, n, r) @ cplx(3, r, n),          # rank n // 2
            cplx(2, n, 1) @ cplx(2, 1, n),          # rank 1
            rng.normal(size=(2, n, n)) + 0j,        # real entries
            np.zeros((2, n, n))]) * scale
        want = np.linalg.svd(mats, compute_uv=False)[:, 0]
        got = operators._jacobi_norms(fiber_major(mats))
        # a norm below 2**-1022 is subnormal: rounding it to that grid can
        # add one step of 2**-1074
        assert np.all(np.abs(got - want) <= 8 * n * EPS * want + 2.0 ** -1074)
        assert np.all(got[-2:] == 0.0)

    def test_rank_deficient_stack_settles(self):
        # two rank-4 8 x 8 matrices on which the iteration once ran into
        # its sweep cap: its end was decided by Gram sums taken in another
        # order than the sums of the rotations
        rng = np.random.default_rng(1010)
        mats = ((rng.normal(size=(2, 8, 4)) + 1j * rng.normal(size=(2, 8, 4)))
                @ (rng.normal(size=(2, 4, 8)) + 1j * rng.normal(size=(2, 4, 8))))
        want = np.linalg.svd(mats, compute_uv=False)[:, 0]
        got = operators._jacobi_norms(fiber_major(mats))
        assert np.all(np.abs(got - want) <= 8 * 8 * EPS * want)

    def test_nan_reads_nan(self):
        mats = np.zeros((3, 3, 4), dtype=complex)
        mats[1, 2, 0] = np.nan
        mats[0, 0, 1] = 2.0
        mats[2, 1, 3] = complex(np.inf, 1.0)
        mats[0, 0, 3] = np.nan
        got = operators._jacobi_norms(mats)
        assert math.isnan(got[0]) and got[1] == 2.0 and got[2] == 0.0 and math.isnan(got[3])
        mats[0, 0, 3] = 1.0
        assert operators._jacobi_norms(mats)[3] == math.inf

    def test_unconverged_sweeps_give_the_frobenius_bound(self, rng, monkeypatch):
        # a cut-off iteration would under-report; the Frobenius norm bounds
        # the spectral norm from above
        mats = rng.normal(size=(4, 9, 9)) + 1j * rng.normal(size=(4, 9, 9))
        want = np.linalg.svd(mats, compute_uv=False)[:, 0]
        monkeypatch.setattr(operators, "_JACOBI_SWEEPS", 1)
        got = operators._jacobi_norms(fiber_major(mats))
        np.testing.assert_allclose(got, np.sqrt((np.abs(mats) ** 2).sum(axis=(1, 2))),
                                   rtol=1e-14)
        assert np.all(got > want)
        # orthogonal columns take one sweep, which rotates nothing; with
        # no sweep even they are unchecked
        diag = fiber_major([np.diag([3.0, -4.0, 1j])])
        assert operators._jacobi_norms(diag).tolist() == [4.0]
        monkeypatch.setattr(operators, "_JACOBI_SWEEPS", 0)
        assert operators._jacobi_norms(diag).tolist() == [math.sqrt(26.0)]


class TestTwoPointExample:
    def test_structure(self):
        t = two_point_triple(1.0)
        assert t.hilbert_dim == 3
        np.testing.assert_array_equal(t.gamma, [1.0, -1.0, -1.0])
        np.testing.assert_array_equal(
            t.real_structure.mat, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        np.testing.assert_allclose(t.pi([2.0, 5.0]), np.diag([2.0, 2.0, 5.0]))
        # pi_op = J pi(.)* J gives diag(z1, z2, z1); the first-order
        # condition forces this block assignment
        np.testing.assert_allclose(t.pi_op([2.0, 5.0]), np.diag([2.0, 5.0, 2.0]))

    def test_pi_op_consistent_with_real_structure(self, rng):
        # pi_op(a) = J pi(a)* J, as a linear map mat a^T conj(mat)
        t = two_point_triple(0.7 + 0.2j)
        mat = t.real_structure.mat
        for _ in range(5):
            a = [complex(rng.normal(), rng.normal()) for _ in range(2)]
            via_j = mat @ t.pi(a).T @ np.conj(mat)
            np.testing.assert_allclose(via_j, t.pi_op(a), atol=1e-14)

    def test_dirac_display_real_mass(self):
        np.testing.assert_allclose(
            two_point_dirac(1.0),
            [[0, 1, 1], [1, 0, 0], [1, 0, 0]])

    def test_validation_passes(self):
        rep = validate_finite_triple(two_point_triple(1 + 2j))
        assert rep.passed
        assert all(e.residual <= 1e-14 for e in rep)

    def test_zero_dirac_trivially_valid(self):
        t = build_finite_triple(two_point_spec(), np.zeros((3, 3)))
        rep = validate_finite_triple(t)
        assert all(e.residual == 0.0 for e in rep)

    def test_extra_entry_breaks_first_order(self):
        d = two_point_dirac(1.0)
        d[1, 2] = d[2, 1] = 0.5  # couples the two right-action sectors
        t = build_finite_triple(two_point_spec(), d)
        rep = validate_finite_triple(t)
        assert rep["finite.first_order"].residual > 0.1
        assert rep["finite.gamma_anticommutes"].residual > 0.1

    def test_nonhermitian_dirac_rejected(self):
        d = two_point_dirac(1.0)
        d[0, 1] = 5.0
        with pytest.raises(ValueError, match="selfadjoint"):
            build_finite_triple(two_point_spec(), d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_dirac_rejected(self, bad):
        # D - D* is nan there, which no > comparison flags
        d = two_point_dirac(1.0)
        d[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite entry at block H_"):
            build_finite_triple(two_point_spec(), d)

    @pytest.mark.filterwarnings("error")
    def test_nan_residual_reads_red(self):
        # a triple assembled without the admission check: its nan reaches
        # the norms, which report nan instead of raising
        d = two_point_dirac(1.0)
        d[1, 0] = d[2, 0] = np.nan
        rep = validate_finite_triple(FiniteTriple(two_point_spec(), d))
        assert not rep.passed
        assert [math.isnan(c.residual) for c in rep] == [True, True, True, True]

    def test_j_violating_dirac_rejected(self):
        d = two_point_dirac(1.0)
        d[0, 1] = 2.0
        d[1, 0] = 2.0
        d[0, 2] = 1j
        d[2, 0] = -1j
        with pytest.raises(ValueError, match="JD = DJ"):
            build_finite_triple(two_point_spec(), d)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [1e200, 1e-200])
    def test_two_dim_space_keeps_extreme_masses(self, m):
        # 2x2 blocks take block_norms' closed form, whose squares would
        # over- or underflow here without the power-of-two scaling
        spec = FiniteTripleSpec(dims=(1, 1), q=((0, 1), (1, 0)))
        rep = validate_finite_triple(build_finite_triple(spec, np.array([[0, m], [m, 0]])))
        assert [c.residual for c in rep] == pytest.approx([0.0, 0.0, 2 * m, m],
                                                          rel=1e-15, abs=0)

    def test_single_block_degenerate_case(self):
        spec = FiniteTripleSpec(dims=(1,), q=((1,),))
        t = build_finite_triple(spec, np.zeros((1, 1)))
        assert t.hilbert_dim == 1
        assert validate_finite_triple(t).passed


class TestSignTable:
    @pytest.mark.parametrize("n, j2, jd, jg", [
        (0, 1, 1, 1),
        (2, -1, 1, -1),
        (4, -1, 1, 1),
        (1, 1, -1, None),
        (5, -1, -1, None),
    ])
    def test_values(self, n, j2, jd, jg):
        assert sign_table(n) == (j2, jd, jg)

    def test_eight_periodic(self):
        for n in range(0, 16):
            assert sign_table(n) == sign_table(n + 8)

    def test_direct_exponent_evaluation(self):
        for n in range(0, 9):
            t = sign_table(n)
            assert t.j_squared == (-1) ** (((n - 1) * n * (n + 1) * (n + 2) // 8) % 2)
            assert t.d_commutation == (-1) ** ((n * (n + 1) * (n + 2) // 2) % 2)


class TestConnesDistance:
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 5.0])
    def test_matches_inverse_mass(self, m):
        d = connes_distance(two_point_triple(m), 0, 1)
        assert d == pytest.approx(1.0 / m, abs=1e-6)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 5.0])
    def test_matches_grid_oracle(self, m):
        t = two_point_triple(m)
        d = connes_distance(t, 0, 1)
        oracle = grid_search_distance(t, 0, 1, cap=4.0 / m)
        assert d == pytest.approx(oracle, abs=1e-4)

    def test_complex_mass(self):
        d = connes_distance(two_point_triple(1 + 1j), 0, 1)
        assert d == pytest.approx(1.0 / abs(1 + 1j), abs=1e-6)

    def test_unbounded_for_zero_mass(self):
        assert math.isinf(connes_distance(two_point_triple(0.0), 0, 1))

    def test_same_point(self):
        assert connes_distance(two_point_triple(1.0), 0, 0) == 0.0

    def test_matrix_summand_has_no_character(self):
        spec = FiniteTripleSpec(dims=(2, 1), q=((1, -1), (-1, 0)))
        t = build_finite_triple(spec, np.zeros((spec.dims[0] ** 2 + 4,) * 2))
        with pytest.raises(ValueError, match="character"):
            connes_distance(t, 0, 1)

    def _three_point(self, couplings):
        # commutative three-summand triple with pairwise couplings; q has
        # nonzero off-diagonal cells for each coupled pair
        spec = FiniteTripleSpec(dims=(1, 1, 1),
                                q=((1, -1, -1), (-1, 0, 1), (-1, 1, 0)))
        blocks = spec.blocks
        dim = len(blocks)
        d = np.zeros((dim, dim), dtype=complex)

        def off(a, b):
            return blocks.index(a), blocks.index(b)

        # couple (i,j) sectors the way the two-point display does
        (m01, m02, m12) = couplings
        pairs = [((0, 1), (1, 0), m01), ((0, 2), (2, 0), m02),
                 ((1, 2), (2, 1), m12)]
        for left, right, m in pairs:
            i1, i2 = blocks.index(left), blocks.index(right)
            d[i1, i2] = m
            d[i2, i1] = np.conj(m)
        # symmetrize under J: J maps block (i,j) to (j,i)
        jm = np.zeros((dim, dim))
        for b, (i, j) in enumerate(blocks):
            jm[blocks.index((j, i)), b] = 1.0
        d = 0.5 * (d + jm @ np.conj(d) @ jm)
        return build_finite_triple(spec, d)

    def test_symmetry_on_random_triples(self, rng):
        for _ in range(3):
            couplings = tuple(complex(rng.normal(), rng.normal()) for _ in range(3))
            t = self._three_point(couplings)
            for i in range(3):
                for j in range(i + 1, 3):
                    dij = connes_distance(t, i, j)
                    dji = connes_distance(t, j, i)
                    if math.isinf(dij):
                        assert math.isinf(dji)
                    else:
                        assert dij == pytest.approx(dji, rel=1e-6)

    def test_triangle_inequality_reported(self, rng):
        # report-only in the spec; on these triples it holds comfortably
        t = self._three_point((1.0, 2.0, 1.5))
        d01 = connes_distance(t, 0, 1)
        d02 = connes_distance(t, 0, 2)
        d12 = connes_distance(t, 1, 2)
        slack = d01 - (d02 + d12)
        print(f"triangle slack d01 - (d02 + d12) = {slack:.3g}")
        assert all(map(math.isfinite, (d01, d02, d12)))


class TestFiniteQuadruple:
    def test_schedule_distances(self):
        quad = quadruple_from_triple(
            two_point_triple(1.0), [(t, 1.0 + t) for t in (0.0, 1.0, 3.0)])
        np.testing.assert_allclose(distance_trajectory(quad), [1.0, 0.5, 0.25],
                                   atol=1e-6)

    def test_time_vector_conditions(self):
        quad = quadruple_from_triple(two_point_triple(1.0),
                                     [(0.0, 2.0), (1.0, 0.5j)])
        rep = quad.validate()
        assert rep.passed
        assert all(e.residual == 0.0 for e in rep)

    def test_zero_mass_instant_flagged_not_error(self):
        quad = quadruple_from_triple(two_point_triple(1.0),
                                     [(0.0, 1.0), (1.0, 0.0)])
        traj = distance_trajectory(quad)
        assert traj[0] == pytest.approx(1.0, abs=1e-6)
        assert math.isinf(traj[1])

    def test_j_commutes_with_constant_evolution(self):
        # J is antilinear, so it commutes with the antihermitian generator
        # i H(t) (and hence with the unitary evolution it generates)
        quad = quadruple_from_triple(two_point_triple(1.5),
                                     [(0.0, 1.5), (2.0, 1.5)])
        for idx in range(2):
            t = quad.triples[idx]
            gen = 1j * quad.e_perp(idx) @ t.dirac
            j = t.real_structure
            assert np.abs(j.after(gen) - j.before(gen)).max() <= 1e-14

    def test_requires_dirac_map_for_custom_triples(self):
        spec = FiniteTripleSpec(dims=(1,), q=((1,),))
        t = build_finite_triple(spec, np.zeros((1, 1)))
        with pytest.raises(ValueError, match="only the two-point triple"):
            quadruple_from_triple(t, [(0.0, 1.0)])
