import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from specquad.operators import (
    BasisDescriptor,
    InteriorProjector,
    TruncatedOperator,
    anticommutator,
    antilinear_conjugate,
    bch_terms,
    commutator,
    interior_residual,
    median,
    op_norm,
)
from specquad.operators import BasisMismatchError

from operator_reference import (
    antilinear_from_dense,
    flat_index,
    from_dense,
    from_level_diagonal,
    from_shift,
    shift_degree,
    to_dense,
    weight_lattice,
    zero,
)


def two_dim_basis():
    # two levels, scalar fiber: plain 2x2 matrices
    return weight_lattice(1, "half_integer")


def op2(mat, basis=None):
    return from_dense(basis or two_dim_basis(), np.asarray(mat, dtype=complex))


class TestBasisDescriptor:
    def test_spinor_layout(self):
        b = BasisDescriptor.spinor(4)
        assert b.dim == 16 and b.nlevels == 8 and b.nmax == 4
        assert b.level_array[0] == -3.5 and b.level_array[-1] == 3.5
        assert flat_index(b, -3.5, 0) == 0
        assert flat_index(b, 3.5, 1) == 15

    def test_integer_lattice(self):
        b = weight_lattice(3, "integer")
        assert b.level_array.tolist() == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
        assert b.fiber_dim == 1

    @pytest.mark.parametrize("nmax", [1, 2, 64])
    def test_standard_bases_build(self, nmax):
        assert BasisDescriptor.spinor(nmax).nlevels == 2 * nmax
        assert weight_lattice(nmax, "half_integer").nlevels == 2 * nmax
        assert weight_lattice(nmax, "integer").nlevels == 2 * nmax + 1

    @pytest.mark.parametrize("nmax", [1, 5, 512])
    def test_levels_are_the_half_integers_of_the_count(self, nmax):
        # the floats arange(-nmax + 1/2, nmax + 1/2) gives, read-only; a
        # basis is its level count, so equal counts give equal bases
        b = BasisDescriptor(2 * nmax, fiber_dim=2)
        assert np.array_equal(b.level_array, np.arange(-nmax + 0.5, nmax + 0.5))
        assert not b.level_array.flags.writeable
        assert b == BasisDescriptor.spinor(nmax)
        assert b != BasisDescriptor(2 * nmax, fiber_dim=1)

    def test_fewer_than_two_levels_rejected(self):
        with pytest.raises(ValueError, match="two levels"):
            BasisDescriptor(1)


class TestCommutatorArithmetic:
    def test_commutator_2x2(self):
        a = op2(np.diag([1j, -1j]))
        b = op2([[0, 1], [1, 0]])
        expected = np.array([[0, 2j], [-2j, 0]])
        np.testing.assert_allclose(to_dense(commutator(a, b)), expected)

    def test_anticommutator(self):
        a = op2(np.diag([1j, -1j]))
        b = op2([[0, 1], [1, 0]])
        np.testing.assert_allclose(to_dense(anticommutator(a, b)), np.zeros((2, 2)))

    def test_adjoint_of_antihermitian(self):
        a = 1j * TruncatedOperator.identity(two_dim_basis())
        np.testing.assert_allclose(to_dense(a.adjoint()), -1j * np.eye(2))

    def test_op_norm_diagonal(self):
        assert op_norm(op2(np.diag([3.0, 4j]))) == pytest.approx(4.0)

    def test_basis_mismatch(self):
        a = op2(np.eye(2))
        b = from_dense(weight_lattice(1, "integer"), np.eye(3))
        with pytest.raises(BasisMismatchError):
            commutator(a, b)

    def test_shift_degree_of_product(self):
        b = BasisDescriptor.spinor(4)
        u = from_shift(b, 1, lambda n: np.eye(2))
        d = from_level_diagonal(b, lambda n: n * np.eye(2))
        assert shift_degree(u @ u) == 2
        assert shift_degree(u @ d) == 1
        assert shift_degree(u.adjoint()) == -1
        assert shift_degree(commutator(d, u)) == 1

    def test_declared_band_enforced(self):
        b = BasisDescriptor.spinor(2)
        mat = np.zeros((8, 8))
        mat[0, 0] = 1.0
        with pytest.raises(ValueError):
            from_dense(b, mat, shift_degree=1)


class TestInteriorResidual:
    def test_shift_unitary_off_boundary(self):
        b = BasisDescriptor.spinor(6)
        u = from_shift(b, 1, lambda n: np.eye(2))
        defect = u.adjoint() @ u - TruncatedOperator.identity(b)
        assert interior_residual(defect, 1) == 0.0
        assert interior_residual(defect, 0) == pytest.approx(1.0)

    def test_zero_matrix(self):
        b = BasisDescriptor.spinor(4)
        assert interior_residual(zero(b), 0) == 0.0

    def test_single_boundary_entry(self):
        b = BasisDescriptor.spinor(4)
        mat = np.zeros((b.dim, b.dim), dtype=complex)
        mat[flat_index(b, 3.5, 0), flat_index(b, 3.5, 0)] = 0.7
        a = from_dense(b, mat)
        assert interior_residual(a, 1) == 0.0
        assert interior_residual(a, 0) == pytest.approx(0.7)

    def test_margin_out_of_range(self):
        b = BasisDescriptor.spinor(4)
        with pytest.raises(ValueError):
            InteriorProjector(b, 4)
        with pytest.raises(ValueError):
            InteriorProjector(b, -1)

    def test_monotone_in_margin(self, rng):
        b = BasisDescriptor.spinor(8)
        a = from_dense(b, rng.normal(size=(b.dim, b.dim))
                                         + 1j * rng.normal(size=(b.dim, b.dim)))
        values = [interior_residual(a, m) for m in range(8)]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))


class TestBchTerms:
    def test_zero_generator(self):
        b = BasisDescriptor.spinor(4)
        f = from_level_diagonal(b, lambda n: n * np.eye(2))
        terms = bch_terms(zero(b), f, 3)
        assert len(terms) == 4
        np.testing.assert_allclose(to_dense(terms[0]), to_dense(f))
        for t in terms[1:]:
            assert op_norm(t) == 0.0

    def test_commuting_diagonals(self):
        b = BasisDescriptor.spinor(4)
        h = from_level_diagonal(b, lambda n: 1j * n * np.eye(2))
        f = from_level_diagonal(b, lambda n: (n ** 2) * np.eye(2))
        terms = bch_terms(h, f, 2)
        assert op_norm(terms[1]) == 0.0 and op_norm(terms[2]) == 0.0

    def test_shift_structure_of_first_term(self, q_standard):
        terms = bch_terms(q_standard.ih, q_standard.u, 1)
        assert shift_degree(terms[1]) == 1

    def test_matches_exponential_derivatives(self, rng):
        # term j equals the j-th t-derivative of e^{tG} f e^{-tG} / j!
        b = BasisDescriptor.spinor(3)
        gm = rng.normal(size=(b.dim, b.dim)) + 1j * rng.normal(size=(b.dim, b.dim))
        gm = gm - gm.conj().T
        gen = from_dense(b, 0.4 * gm / np.linalg.norm(gm, 2))
        fm = rng.normal(size=(b.dim, b.dim)) + 1j * rng.normal(size=(b.dim, b.dim))
        f = from_dense(b, fm / np.linalg.norm(fm, 2))
        terms = bch_terms(gen, f, 2)

        h = 1e-3

        def evolved(t):
            e = expm(t * to_dense(gen))
            return e @ to_dense(f) @ np.linalg.inv(e)

        d1 = (evolved(h) - evolved(-h)) / (2 * h)
        d2 = (evolved(h) - 2 * evolved(0.0) + evolved(-h)) / h ** 2
        assert np.abs(d1 - to_dense(terms[1])).max() < 1e-6
        assert np.abs(d2 / 2.0 - to_dense(terms[2])).max() < 1e-6

    def test_negative_kmax_rejected(self):
        b = BasisDescriptor.spinor(2)
        with pytest.raises(ValueError):
            bch_terms(zero(b), TruncatedOperator.identity(b), -1)


class TestAntilinear:
    def test_pure_conjugation_case(self):
        b = two_dim_basis()
        c = antilinear_from_dense(b, np.eye(2))
        a = op2(np.diag([1j, -1j]))
        # C A* C with M = 1 is the entrywise conjugate of the adjoint
        np.testing.assert_allclose(to_dense(antilinear_conjugate(c, a)), np.diag([1j, -1j]))

    def test_composition_is_linear(self, rng):
        b = two_dim_basis()
        m1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c1, c2 = antilinear_from_dense(b, m1), antilinear_from_dense(b, m2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        np.testing.assert_allclose(c1.apply(c2.apply(v)), c1.compose(c2).apply(v))

    def test_unitary_stays_unitary(self):
        b = two_dim_basis()
        c = antilinear_from_dense(b, np.array([[0, 1], [1, 0]], dtype=complex))
        theta = 0.37
        a = op2([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        out = antilinear_conjugate(c, a)
        np.testing.assert_allclose(to_dense(out) @ to_dense(out).conj().T, np.eye(2), atol=1e-14)

    def test_desitter_u_opposite_is_u(self, q_standard):
        u_op = antilinear_conjugate(q_standard.cc, q_standard.u)
        assert interior_residual(u_op - q_standard.u, 1) == 0.0

    def test_involutive_on_interior(self, q_standard):
        # (g^op)^op = g when C^2 = 1
        g = q_standard.t_plus
        g_opop = antilinear_conjugate(q_standard.cc,
                                      antilinear_conjugate(q_standard.cc, g))
        assert interior_residual(g_opop - g, 1) < 1e-13


@st.composite
def small_operators(draw):
    b = BasisDescriptor.spinor(2)
    entries = draw(st.lists(
        st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        min_size=b.dim * b.dim, max_size=b.dim * b.dim))
    return from_dense(b, np.array(entries).reshape(b.dim, b.dim))


class TestAlgebraicProperties:
    @settings(max_examples=25, deadline=None)
    @given(small_operators(), small_operators())
    def test_antisymmetry(self, a, b):
        lhs = to_dense(commutator(a, b))
        np.testing.assert_allclose(lhs, -to_dense(commutator(b, a)), atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(small_operators(), small_operators(), small_operators())
    def test_jacobi(self, a, b, c):
        total = (commutator(a, commutator(b, c))
                 + commutator(b, commutator(c, a))
                 + commutator(c, commutator(a, b)))
        scale = max(op_norm(a) * op_norm(b) * op_norm(c), 1.0)
        assert op_norm(total) <= 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 1.0]),
                min_size=1, max_size=12))
def test_median_matches_numpy(values):
    with np.errstate(all="ignore"):
        want = float(np.median(np.array(values)))
        got = median(np.array(values))
    assert got == want or (np.isnan(got) and np.isnan(want))

