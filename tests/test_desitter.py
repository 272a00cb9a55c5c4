import numpy as np
import pytest

from specquad.desitter import (
    DeSitterParams,
    appendix_t_minus,
    appendix_t_plus,
    assemble_quadruple,
    charge_conjugation,
    crosscheck_construction_vs_appendix,
    evolution_block,
    hamiltonian_theta,
    seed_operators,
)
from specquad.operators import (
    BasisDescriptor,
    bch_terms,
    commutator,
    interior_residual,
)
from specquad.quadruple import verify_quadruple

from operator_reference import band_block, to_dense

from construction_reference import (
    U2Params,
    apply_cc_constraints,
    cc_constrained_pair,
    eigenframe,
    gauge_transform,
    solve_order_one_recursion,
    u2_from_params,
)


def _eigenframe_derivative(theta: float) -> np.ndarray:
    ch, sh = np.cosh(theta / 2.0), np.sinh(theta / 2.0)
    return 0.5 * np.array([[sh, ch], [ch, sh]], dtype=complex)


def _evolution_block_transport(n: float, rm: float, theta: float) -> np.ndarray:
    # V~ = V / sqrt(cosh th); iH = V~^{-1} (M V~ - dV~/dth)
    v = eigenframe(theta)
    vinv = np.linalg.inv(v)
    m = np.array([
        [(n - 0.5) * np.tanh(theta) + 1j * rm * np.cosh(theta),
         (0.5 - n) - 1j * rm * np.sinh(theta)],
        [(n + 0.5) + 1j * rm * np.sinh(theta),
         -(n + 0.5) * np.tanh(theta) - 1j * rm * np.cosh(theta)],
    ], dtype=complex)
    connection = vinv @ _eigenframe_derivative(theta) - 0.5 * np.tanh(theta) * np.eye(2)
    return vinv @ m @ v - connection

class TestU2Parametrization:
    def test_origin(self):
        got = u2_from_params(U2Params(0.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(got, [[0, 1], [-1, 0]], atol=1e-15)

    def test_x_one(self):
        got = u2_from_params(U2Params(0.0, 1.0, 0.0, 0.0))
        expected = np.array([[-1j, 1], [-1, 1j]]) / np.sqrt(2)
        np.testing.assert_allclose(got, expected, atol=1e-15)
        np.testing.assert_allclose(got @ got.conj().T, np.eye(2), atol=1e-15)

    def test_unitary_and_unimodular_everywhere(self, rng):
        for _ in range(25):
            p = U2Params(*(float(x) for x in rng.uniform(-2, 2, 4)))
            u = u2_from_params(p)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
            assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-14


class TestCcConstraints:
    def test_satisfying_pair(self):
        assert apply_cc_constraints(U2Params(0.0, 1.0, 0.0, 0.3),
                                    U2Params(np.pi, -1.0, 0.0, 0.3))

    def test_phase_violation(self):
        assert not apply_cc_constraints(U2Params(0.0, 1.0, 0.0, 0.3),
                                        U2Params(0.0, -1.0, 0.0, 0.3))

    def test_all_zero_fails_phase(self):
        zero = U2Params(0.0, 0.0, 0.0, 0.0)
        assert not apply_cc_constraints(zero, zero)

    def test_generator_form(self):
        p_plus, p_minus = cc_constrained_pair(0.2, 1.5, 0.7, -0.1)
        assert apply_cc_constraints(p_plus, p_minus)
        # gauge fixing rho = y = 0 leaves (x, theta)
        p_plus, _ = cc_constrained_pair(0.0, 1.5, 0.7, 0.0)
        assert (p_plus.x, p_plus.theta) == (1.5, 0.7)


class TestSeeds:
    def test_flat_massless(self):
        up, um = seed_operators(0.0, 0.0)
        np.testing.assert_allclose(up, [[0, 1], [-1, 0]], atol=1e-15)
        np.testing.assert_allclose(um, [[0, -1], [1, 0]], atol=1e-15)

    def test_unit_mass(self):
        up, _ = seed_operators(1.0, 0.0)
        np.testing.assert_allclose(up, [[-1j, 1], [-1, 1j]], atol=1e-15)
        np.testing.assert_allclose(up @ up.conj().T, 2 * np.eye(2), atol=1e-15)

    def test_norm_squared_law(self, rng):
        for _ in range(10):
            rm, th = rng.uniform(-2, 2), rng.uniform(-1.5, 1.5)
            up, um = seed_operators(rm, th)
            np.testing.assert_allclose(up @ up.conj().T, (1 + rm ** 2) * np.eye(2),
                                       atol=1e-13)
            np.testing.assert_allclose(um @ um.conj().T, (1 + rm ** 2) * np.eye(2),
                                       atol=1e-13)

    def test_adjoint_sum_identity(self, rng):
        for _ in range(10):
            rm, th = rng.uniform(-2, 2), rng.uniform(-1.5, 1.5)
            up, um = seed_operators(rm, th)
            t, c = np.tanh(th), np.cosh(th)
            expected = np.array([[2 * t, 2 / c], [-2 / c, 2 * t]])
            np.testing.assert_allclose(up + um.conj().T, expected, atol=1e-14)


class TestRecursion:
    def test_seed_recovery(self):
        up, um = seed_operators(1.3, 0.4)
        tp, tm = solve_order_one_recursion(up, um, [0.5, -0.5])
        np.testing.assert_allclose(tp[0.5], up, atol=1e-15)
        np.testing.assert_allclose(tm[-0.5], um, atol=1e-15)

    def test_flat_value(self):
        up, um = seed_operators(0.0, 0.0)
        tp, _ = solve_order_one_recursion(up, um, [1.5])
        np.testing.assert_allclose(tp[1.5], [[0, 2], [-2, 0]], atol=1e-15)

    def test_affinity_exact(self):
        # dyadic inputs make the second difference bit-exact zero
        up, um = seed_operators(0.75, 0.0)
        ns = np.arange(-5.5, 6.5)
        tp, tm = solve_order_one_recursion(up, um, ns)
        for n in ns[1:-1]:
            assert np.all(tp[n + 1] - 2 * tp[n] + tp[n - 1] == 0)
            assert np.all(tm[n + 1] - 2 * tm[n] + tm[n - 1] == 0)

    def test_norm_law_links_ladder_formula(self, rng):
        for _ in range(5):
            rm, th = rng.uniform(-2, 2), rng.uniform(-1, 1)
            up, um = seed_operators(rm, th)
            tp, _ = solve_order_one_recursion(up, um, np.arange(-7.5, 8.5))
            for n, blk in tp.items():
                target = ((n + 0.5) ** 2 + rm ** 2) * np.eye(2)
                np.testing.assert_allclose(blk @ blk.conj().T, target, atol=1e-12)

    def test_crosscheck_passes(self):
        assert crosscheck_construction_vs_appendix(
            DeSitterParams(rm=1.0, theta=0.5, nmax=8)) <= 1e-12

    def test_crosscheck_exact_flat(self):
        assert crosscheck_construction_vs_appendix(
            DeSitterParams(rm=0.0, theta=0.0, nmax=8)) == 0.0

    def test_perturbed_seeds_detected(self):
        up, um = seed_operators(1.0, 0.5)
        up = up + 1e-6
        tp, tm = solve_order_one_recursion(up, um, np.arange(-7.5, 8.5))
        worst = max(np.abs(tp[n] - appendix_t_plus(n, 1.0, 0.5)).max() for n in tp)
        assert worst > 1e-9  # affine error propagation amplifies with |n|


class TestHamiltonianTheta:
    def test_block_at_origin(self):
        blk = hamiltonian_theta(0.5, 1.0, 0.0)
        # '+' column: diagonal coefficient i rm, off coefficient n + 1/2 = 1
        assert blk[0, 0] == pytest.approx(1j)
        assert blk[1, 0] == pytest.approx(1.0)

    def test_massless_origin_offdiagonals(self):
        blk = hamiltonian_theta(0.5, 0.0, 0.0)
        assert blk[1, 0] == pytest.approx(1.0)   # (+n + 1/2) on the '+' column
        assert blk[0, 1] == pytest.approx(0.0)   # (-n + 1/2) on the '-' column

    def test_block_trace(self, rng):
        levels = np.array([0.5, 1.5, -2.5])
        for _ in range(5):
            rm, th = rng.uniform(-2, 2), rng.uniform(-1.5, 1.5)
            stack = hamiltonian_theta(levels, rm, th)
            assert stack.shape == (2, 2, 3)
            np.testing.assert_allclose(stack[0, 0] + stack[1, 1], -np.tanh(th),
                                       rtol=0, atol=1e-14)
            for i, n in enumerate(levels):
                np.testing.assert_array_equal(stack[..., i], hamiltonian_theta(n, rm, th))


class TestEvolutionBlock:
    def test_transport_equals_closed_form(self, rng):
        for _ in range(20):
            n = float(rng.choice(np.arange(-9.5, 10.5)))
            rm, th = rng.uniform(-3, 3), rng.uniform(-2, 2)
            np.testing.assert_allclose(_evolution_block_transport(n, rm, th),
                                       evolution_block(n, rm, th), atol=1e-12)

    def test_antihermitian(self, rng):
        for _ in range(10):
            blk = evolution_block(float(rng.choice(np.arange(-5.5, 6.5))),
                                  rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
            np.testing.assert_allclose(blk + blk.conj().T, np.zeros((2, 2)),
                                       atol=1e-15)

    def test_eigenframe_columns_match_displayed_formula(self):
        for th in (0.2, 0.9, 1.7):
            v = eigenframe(th)
            c, s = np.cosh(th), np.sinh(th)
            plus = np.array([c + 1, s]) / np.sqrt(2 * c + 2)
            minus = np.array([c - 1, s]) / np.sqrt(2 * c - 2)
            np.testing.assert_allclose(v[:, 0], plus, atol=1e-14)
            np.testing.assert_allclose(v[:, 1], minus, atol=1e-14)

    def test_eigenframe_at_origin(self):
        np.testing.assert_allclose(eigenframe(0.0), np.eye(2), atol=1e-15)


class TestChargeConjugationOperator:
    def test_square_is_identity(self):
        basis = BasisDescriptor.spinor(6)
        cc = charge_conjugation(basis)
        np.testing.assert_allclose(to_dense(cc.squared()), np.eye(basis.dim), atol=0)

    def test_intertwines_ladder(self, q_standard):
        cc = q_standard.cc
        r_plus = np.linalg.norm(to_dense(cc) @ np.conj(to_dense(q_standard.t_plus))
                                - to_dense(q_standard.t_minus) @ to_dense(cc), 2)
        assert r_plus <= 1e-10

    def test_conjugates_algebra_generator(self, q_standard):
        cc = q_standard.cc
        resid = np.linalg.norm(to_dense(cc) @ np.conj(to_dense(q_standard.u))
                               - to_dense(q_standard.u.adjoint()) @ to_dense(cc), 2)
        assert resid == 0.0


class TestAssembledQuadruple:
    def test_central_verification(self, q_standard):
        rep = verify_quadruple(q_standard, margin=4)
        assert rep.passed

    def test_flat_blocks_are_rotations(self):
        q = assemble_quadruple(DeSitterParams(rm=0.0, theta=0.4, nmax=8))
        for n in (0.5, 1.5, -2.5):
            blk = band_block(q.t_plus, n, 1)
            assert np.abs(blk.imag).max() == 0.0
            s = np.sqrt((n + 0.5) ** 2)
            np.testing.assert_allclose(blk @ blk.T, s ** 2 * np.eye(2), atol=1e-13)

    def test_theta_is_isospectral_deformation(self):
        # singular values of the ladder blocks are theta-independent
        for th1, th2 in ((0.0, 0.7), (0.3, 1.5)):
            qa = assemble_quadruple(DeSitterParams(rm=1.2, theta=th1, nmax=8))
            qb = assemble_quadruple(DeSitterParams(rm=1.2, theta=th2, nmax=8))
            for n in (0.5, 2.5):
                sa = np.linalg.svd(band_block(qa.t_plus, n, 1), compute_uv=False)
                sb = np.linalg.svd(band_block(qb.t_plus, n, 1), compute_uv=False)
                np.testing.assert_allclose(sa, sb, atol=1e-12)
                expected = np.sqrt((n + 0.5) ** 2 + 1.2 ** 2)
                np.testing.assert_allclose(sa, [expected, expected], atol=1e-12)

    def test_gauge_invariance(self):
        base = assemble_quadruple(DeSitterParams(rm=1.0, theta=0.3, nmax=16))
        gauged = gauge_transform(base, 0.8, -1.1)
        rep0 = verify_quadruple(base, margin=4)
        rep1 = verify_quadruple(gauged, margin=4)
        assert rep1.passed
        for e0, e1 in zip(rep0, rep1):
            assert e0.check_id == e1.check_id
            assert abs(e0.residual - e1.residual) <= 1e-10

    def test_massless_flatness_through_order_five(self, q_massless):
        terms = bch_terms(q_massless.ih, q_massless.u, 5)
        worst = max(interior_residual(commutator(t, q_massless.u), 6)
                    for t in terms)
        assert worst <= 1e-10

    def test_nmax_lower_bound(self):
        with pytest.raises(ValueError):
            DeSitterParams(rm=1.0, theta=0.0, nmax=3)

    @pytest.mark.parametrize("field,value", [
        ("nmax", 16.5), ("rm", 1j), ("theta", 0.3 + 0j), ("rm", np.array([1.0, 2j]))],
        ids=["float-nmax", "complex-rm", "complex-theta", "complex-rm-array"])
    def test_non_integer_nmax_and_complex_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            DeSitterParams(**{"rm": 1.0, "theta": 0.3, "nmax": 16, field: value})

    def test_numpy_integer_nmax_and_real_arrays_accepted(self):
        q = assemble_quadruple(DeSitterParams(rm=np.array([1.0, 2.0]), theta=np.float64(0.3),
                                              nmax=np.int64(16)))
        assert q.basis.nmax == 16 and q.basis.batch == (2,)

    def test_appendix_blocks_adjoint_pairing(self, rng):
        # T+(n)* = -T-(n+1): the unitarity relation behind the recursion
        for _ in range(10):
            rm, th = rng.uniform(-2, 2), rng.uniform(-1, 1)
            n = float(rng.choice(np.arange(-4.5, 5.5)))
            lhs = appendix_t_plus(n, rm, th).conj().T
            np.testing.assert_allclose(lhs, -appendix_t_minus(n + 1, rm, th),
                                       atol=1e-14)
