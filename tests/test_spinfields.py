import numpy as np
import pytest

from specquad.desitter import hamiltonian_theta
from specquad.geometry import GAMMA1, ChartPoint, HypFn, frame_intertwiner_inverse, frame_vectors, slash
from specquad.operators import block_stack
from specquad.spinfields import (
    _E0_MAT,
    _N_MAT,
    conservation_defect,
    dirac_pair,
    fiber_gram,
    level_block,
    minkowski_commutation_residual,
    t_bands,
)

import evolution_reference
from construction_reference import eigenframe
from evolution_reference import (
    SolutionCoefficients,
    inner_product_slice,
    propagate,
    slice_independence,
)
from oracle_reference import (
    SpinorField,
    apply_coefficients,
    dirac_agreement_residual,
    field_dirac_pair,
    random_spinor_field,
    symmetry_pairs,
    t_basis_field,
)

LEVELS = np.arange(-5.5, 6.5)


def action(gen_id, rm, theta, levels=LEVELS):
    """The T-basis bands of a generator or Clifford element at the slice
    theta: band d maps |T: n, s> to the pair at level n + d."""
    return t_bands(symmetry_pairs(rm)[gen_id], np.atleast_1d(levels), theta)


def ladder_block(gen_id, n, rm, theta):
    """The 2x2 block of T+ (T-) from level n to n + 1 (n - 1)."""
    return action(gen_id, rm, theta, n)[1 if gen_id == "Tplus" else -1][..., 0]


def grid_product(sol1, sol2, theta, npts=1024):
    """The flux integral int B(psi1, e0slash psi2) cosh(theta) dphi of two
    solutions on the uniform phi grid, where the trapezoid rule is exact for
    the trigonometric degrees of a few levels."""
    phi = np.arange(npts) * 2.0 * np.pi / npts

    def on_grid(sol):
        up = sum(v[0] * np.exp(-1j * (n - 0.5) * phi) for n, v in sol.coeffs.items())
        down = sum(v[1] * np.exp(-1j * (n + 0.5) * phi) for n, v in sol.coeffs.items())
        return up, down

    (u1, d1), (u2, d2) = on_grid(sol1), on_grid(sol2)
    s, c = np.sinh(theta), np.cosh(theta)
    # e0slash on the grid: [[i c, -i s e^{i phi}], [i s e^{-i phi}, -i c]],
    # and B = diag(-i, i)
    eip = np.exp(1j * phi)
    e0_up = 1j * c * u2 - 1j * s * eip * d2
    e0_down = 1j * s * np.conj(eip) * u2 - 1j * c * d2
    integrand = np.conj(u1) * -1j * e0_up + np.conj(d1) * 1j * e0_down
    return complex(np.sum(integrand) * (2.0 * np.pi / npts) * c)


def random_solution(rng, rm, levels):
    return SolutionCoefficients(rm, {float(n): rng.normal(size=2) + 1j * rng.normal(size=2)
                                     for n in levels})


def tplus_display(n, sign, rm, theta):
    """Displayed matrix elements of the raising operator on |T:n,sign>."""
    t, c, s = np.tanh(theta), np.cosh(theta), np.sinh(theta)
    same = (n + 0.5) * t * (1 - sign) - sign * 1j * rm * c
    flip = -sign * (n + 0.5 + 1j * rm * s)
    return same, flip


def tminus_display(n, sign, rm, theta):
    t, c, s = np.tanh(theta), np.cosh(theta), np.sinh(theta)
    same = -(n - 0.5) * t * (1 + sign) - sign * 1j * rm * c
    flip = -sign * (n - 0.5 + 1j * rm * s)
    return same, flip


class TestTBasisActions:
    def test_each_generator_lands_in_one_band(self):
        for gen_id, shift in (("d_theta", 0), ("T21", 0), ("Tplus", 1), ("Tminus", -1),
                              ("e0", 0), ("n_slash", 0), ("r_slash", 0)):
            for th in (0.0, 0.4, 1.1):
                assert action(gen_id, 1.0, th).keys() == {shift}

    def test_compact_generator_eigenvalue(self):
        levels = np.array([0.5, -1.5, 2.5])
        band = action("T21", 0.0, 0.4, levels)[0]
        np.testing.assert_allclose(band, block_stack(1j * levels, 0.0, 0.0, 1j * levels),
                                   rtol=0, atol=1e-12)

    def test_radial_clifford(self):
        # rslash flips the sign: |T: n, s> -> s i |T: n, -s>
        band = action("r_slash", 0.0, 0.8, 1.5)[0][..., 0]
        np.testing.assert_allclose(band, [[0.0, -1j], [1j, 0.0]], rtol=0, atol=1e-12)

    def test_time_vector_action(self):
        th = 0.6
        band = action("e0", 0.0, th, -0.5)[0][..., 0]
        c, s = np.cosh(th), np.sinh(th)
        np.testing.assert_allclose(band, [[1j * c, -1j * s], [1j * s, -1j * c]],
                                   rtol=0, atol=1e-12)

    def test_normal_clifford_action(self):
        th = -0.9
        band = action("n_slash", 0.0, th, 2.5)[0][..., 0]
        c, s = np.cosh(th), np.sinh(th)
        np.testing.assert_allclose(band, [[1j * s, -1j * c], [1j * c, -1j * s]],
                                   rtol=0, atol=1e-12)

    def test_raising_at_reference_point(self):
        # T+ on |T:1/2,+> at (rm, theta) = (1, 0): coefficients (-i, -1)
        blk = ladder_block("Tplus", 0.5, 1.0, 0.0)
        assert blk[0, 0] == pytest.approx(-1j, abs=1e-12)
        assert blk[1, 0] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [-2.5, -0.5, 0.5, 1.5])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_ladder_matches_displays(self, n, sign):
        rm, th = 1.3, 0.45
        col = 0 if sign > 0 else 1
        for gen_id, display in (("Tplus", tplus_display), ("Tminus", tminus_display)):
            blk = ladder_block(gen_id, n, rm, th)
            same, flip = display(n, sign, rm, th)
            assert blk[col, col] == pytest.approx(same, abs=1e-11)
            assert blk[1 - col, col] == pytest.approx(flip, abs=1e-11)

    def test_ladder_respects_norm_law(self):
        # the raising operator scales Gram norms by |c_n|^2 = (n+1/2)^2 + r2m2;
        # the T basis is not orthonormal, so measure through the fiber Gram
        rm, th, n = 0.8, 0.7, 1.5
        g = fiber_gram(th)
        blk = ladder_block("Tplus", n, rm, th)
        for basis_vec in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                          np.array([0.6, -0.8j])):
            image = blk @ basis_vec
            got = complex(image.conj() @ g @ image).real
            ref = complex(basis_vec.conj() @ g @ basis_vec).real
            assert got == pytest.approx(((n + 0.5) ** 2 + rm ** 2) * ref, abs=1e-9)

    @pytest.mark.parametrize("gen_id", ["d_theta", "Tplus", "Tminus", "T21", "e0"])
    def test_exact_modes_match_fft(self, gen_id):
        # the bands read the exact phi modes of the pair; the FFT of the pair
        # applied to the basis field e^{ik phi} e_s, evaluated on the
        # 1024-point grid, is the independent oracle
        rm, th, npts = 1.0, 0.4, 1024
        phi = np.arange(npts) * 2.0 * np.pi / npts
        a, b = symmetry_pairs(rm)[gen_id]
        bands = action(gen_id, rm, th)
        for i, n in enumerate(LEVELS):
            for s, sign in ((0, +1), (1, -1)):
                k = -n + sign / 2
                for r, rsign in ((0, +1), (1, -1)):
                    comp = (1j * k * a[r][s](th, phi) + b[r][s](th, phi)) * np.exp(1j * k * phi)
                    # band d puts |T: n + d, r> = e^{i(-(n + d) + r/2) phi} e_r
                    exact = np.zeros(npts, dtype=complex)
                    for d, band in bands.items():
                        exact[int(round(-(n + d) + rsign / 2)) % npts] += band[r, s, i]
                    np.testing.assert_allclose(exact, np.fft.fft(comp) / npts,
                                               rtol=0, atol=1e-13)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            t_basis_field(1.0, +1)


class TestHamiltonianCrossCheck:
    def test_matrix_blocks_match_grid_action(self):
        # the central cross-module oracle: the constructed theta-derivative
        # blocks reproduce the grid T-action for |n| <= 11/2
        rm, th = 1.0, 0.4
        stack = hamiltonian_theta(LEVELS, rm, th)
        assert stack.shape == (2, 2, LEVELS.size)
        bands = action("d_theta", rm, th)
        assert bands.keys() == {0}
        assert np.abs(bands[0] - stack).max() <= 1e-9

    def test_level_block_composition_matches(self):
        for rm, th, n in ((0.0, 0.0, 0.5), (1.5, 0.8, -2.5), (0.7, -1.1, 3.5)):
            np.testing.assert_allclose(level_block(n, rm, th), hamiltonian_theta(n, rm, th),
                                       atol=1e-13)

    def test_orthonormal_transport_reproduces_ladder_blocks(self):
        # conjugating the displayed T-basis ladder action by the eigenframe
        # gives the closed-form blocks used in the construction
        from specquad.desitter import appendix_t_plus
        rm, th = 1.2, 0.6
        v = eigenframe(th)
        vinv = np.linalg.inv(v)
        for n in (-1.5, 0.5, 2.5):
            np.testing.assert_allclose(vinv @ ladder_block("Tplus", n, rm, th) @ v,
                                       appendix_t_plus(n, rm, th), atol=1e-11)


class TestInnerProduct:
    def test_conserved_for_solutions(self):
        sol1 = SolutionCoefficients(1.0, {0.5: np.array([1.0, 0.2j]),
                                          1.5: np.array([0.1, 0.0])})
        sol2 = SolutionCoefficients(1.0, {0.5: np.array([0.3, 1.0]),
                                          1.5: np.array([0.0, 0.5j])})
        assert slice_independence(sol1, sol2, 0.0, 0.7) <= 1e-8

    def test_orthogonality_preserved(self):
        g = fiber_gram(0.0)  # identity at theta = 0
        v1 = np.array([1.0, 0.0])
        v2 = np.array([0.0, 1.0])  # orthogonal at theta = 0
        sol1 = SolutionCoefficients(0.7, {0.5: v1})
        sol2 = SolutionCoefficients(0.7, {0.5: v2})
        assert abs(inner_product_slice(sol1, sol2, 0.0)) <= 1e-10
        p1 = propagate(sol1, 0.0, 0.9)
        p2 = propagate(sol2, 0.0, 0.9)
        assert abs(inner_product_slice(p1, p2, 0.9)) <= 1e-8

    def test_zero_field(self):
        zero = SolutionCoefficients(1.0, {0.5: np.zeros(2)})
        other = SolutionCoefficients(1.0, {0.5: np.array([1.0, 1.0])})
        assert inner_product_slice(zero, other, 0.3) == 0.0

    def test_hermiticity(self):
        sol1 = SolutionCoefficients(0.5, {0.5: np.array([1.0, 0.4j])})
        sol2 = SolutionCoefficients(0.5, {0.5: np.array([0.2, 1.0])})
        a = inner_product_slice(sol1, sol2, 0.4)
        b = inner_product_slice(sol2, sol1, 0.4)
        assert a == pytest.approx(np.conj(b), abs=1e-14)

    @pytest.mark.parametrize("theta", [-1.3, 0.0, 0.4, 0.7])
    def test_per_level_product_matches_grid(self, rng, theta):
        # the per-level product against the flux integral on the phi grid,
        # for solutions that share some levels and not others
        for _ in range(5):
            sol1 = random_solution(rng, 1.0, (-1.5, -0.5, 0.5, 1.5, 3.5))
            sol2 = random_solution(rng, 1.0, (-2.5, -0.5, 0.5, 1.5))
            exact = inner_product_slice(sol1, sol2, theta)
            grid = grid_product(sol1, sol2, theta)
            assert abs(exact - grid) <= 1e-13 * abs(grid)

    @pytest.mark.parametrize("theta", [-1.3, 0.0, 0.4, 0.7])
    def test_fiber_gram_matches_grid(self, theta):
        basis = [SolutionCoefficients(0.0, {0.5: np.array([1.0, 0.0])}),
                 SolutionCoefficients(0.0, {0.5: np.array([0.0, 1.0])})]
        grid = np.array([[grid_product(a, b, theta) for b in basis] for a in basis])
        grid /= 2.0 * np.pi * np.cosh(theta)
        np.testing.assert_allclose(fiber_gram(theta), grid, rtol=1e-13)

    def test_propagation_is_one_integration(self, monkeypatch):
        calls = []
        real = evolution_reference.solve_ivp

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(evolution_reference, "solve_ivp", counting)
        sol = SolutionCoefficients(1.0, {0.5: np.array([1.0, 0.2j]),
                                         1.5: np.array([0.1, 0.0])})
        out = propagate(sol, 0.0, 0.7)
        assert len(calls) == 1
        assert out.levels() == [0.5, 1.5]

    def test_stacked_level_blocks(self):
        levels = np.array([-2.5, 0.5, 3.5])
        # fiber-major stacks: entry [:, :, i] is the block of level i
        stack = level_block(levels, 0.8, 0.3)
        assert stack.shape == (2, 2, 3)
        for i, n in enumerate(levels):
            np.testing.assert_allclose(stack[..., i], level_block(n, 0.8, 0.3),
                                       rtol=0, atol=1e-15)
        # levels against slices, as the conservation check evaluates them
        thetas = np.array([-0.9, 0.0, 0.7])
        grid = level_block(levels[:, None], 0.8, thetas)
        grams = fiber_gram(thetas)
        assert grid.shape == (2, 2, 3, 3) and grams.shape == (2, 2, 3)
        for j, th in enumerate(thetas):
            np.testing.assert_allclose(grams[..., j], fiber_gram(th), rtol=0, atol=1e-15)
            for i, n in enumerate(levels):
                np.testing.assert_allclose(grid[..., i, j], level_block(n, 0.8, th),
                                           rtol=0, atol=1e-15)

    def test_different_levels_orthogonal(self):
        sol1 = SolutionCoefficients(1.0, {0.5: np.array([1.0, 0.0])})
        sol2 = SolutionCoefficients(1.0, {1.5: np.array([1.0, 0.0])})
        assert abs(inner_product_slice(sol1, sol2, 0.6)) <= 1e-12


class TestConservation:
    """The slice product is conserved because K_n = (cosh G)' + M_n^* cosh G
    + cosh G M_n vanishes at every level: proved symbolically, and checked
    against the integrated reference."""

    def test_identity_holds_symbolically(self):
        import sympy as sp
        n, th, rm = sp.symbols("n theta rm", real=True)
        s, c = sp.sinh(th), sp.cosh(th)
        # level_block's composition n_t (dphi_t / cosh - e0_t) + rm e0_t
        n_t = sp.I * sp.Matrix([[s, -c], [c, -s]])
        e0_t = sp.I * sp.Matrix([[c, -s], [s, -c]])
        dphi_t = -sp.I * sp.diag(n - sp.Rational(1, 2), n + sp.Rational(1, 2))
        m = n_t * (dphi_t / c - e0_t) + rm * e0_t
        g = sp.Matrix([[c, -s], [-s, c]])
        k = (c * g).diff(th) + m.H * c * g + c * g * m
        assert k.applyfunc(sp.simplify) == sp.zeros(2, 2)
        # the symbolic blocks are the ones the library evaluates
        for nv, rv, tv in ((0.5, 1.0, 0.3), (-3.5, 0.4, -1.1), (7.5, 2.0, 0.8)):
            at = {n: nv, rm: rv, th: tv}
            np.testing.assert_allclose(level_block(nv, rv, tv),
                                       np.array(m.subs(at).evalf(), dtype=complex),
                                       rtol=0, atol=1e-13)
            np.testing.assert_allclose(fiber_gram(tv),
                                       np.array(g.subs(at).evalf(), dtype=complex),
                                       rtol=0, atol=1e-15)
            assert np.abs(conservation_defect(nv, rv, tv)).max() <= 1e-13

    def test_product_conserved_along_propagation(self, rng):
        # random solutions on several levels keep their product when the
        # integrated reference carries them between slices
        levels = (-4.5, -1.5, -0.5, 0.5, 2.5, 5.5)
        for theta_a, theta_b in ((0.0, 0.7), (-1.0, 0.4), (0.9, -0.3)):
            for rm in (0.0, 1.0, 2.3):
                sol1 = random_solution(rng, rm, levels)
                sol2 = random_solution(rng, rm, levels)
                assert slice_independence(sol1, sol2, theta_a, theta_b) <= 1e-8


class TestFrameChange:
    def test_identity_at_origin(self):
        np.testing.assert_allclose(eigenframe(0.0), np.eye(2),
                                   atol=1e-15)

    def test_diagonalizes_time_vector(self):
        for th in (0.3, 1.0, -0.8):
            v = eigenframe(th)
            # T-basis matrix of the time vector from the grid action
            m = action("e0", 0.0, th, 0.5)[0][..., 0]
            got = np.linalg.inv(v) @ m @ v
            np.testing.assert_allclose(got, np.diag([1j, -1j]), atol=1e-12)

    def test_b_orthonormal_columns(self):
        for th in (0.2, 0.9, -1.3):
            v = eigenframe(th)
            g = fiber_gram(th)
            np.testing.assert_allclose(v.conj().T @ g @ v, np.eye(2), atol=1e-10)

    def test_matches_displayed_normalization(self):
        th = 0.8
        v = eigenframe(th)
        c, s = np.cosh(th), np.sinh(th)
        np.testing.assert_allclose(v[:, 0], np.array([c + 1, s]) / np.sqrt(2 * c + 2),
                                   atol=1e-14)
        np.testing.assert_allclose(v[:, 1], np.array([c - 1, s]) / np.sqrt(2 * c - 2),
                                   atol=1e-14)


class TestDiracPair:
    """``dirac_pair`` gives coefficient stacks; the field-based pair of
    ``oracle_reference`` is the reference they must reproduce."""

    def test_t_basis_spinor_agreement(self):
        psi, p = t_basis_field(0.5, +1), ChartPoint(0.3, 1.2)
        intrinsic, transported = dirac_pair(p)
        ref_int, ref_ext = field_dirac_pair(psi, p)
        sinv = frame_intertwiner_inverse(p.theta, p.phi)
        np.testing.assert_allclose(apply_coefficients(intrinsic, psi, p.theta, p.phi),
                                   ref_int, rtol=0, atol=1e-12)
        np.testing.assert_allclose(apply_coefficients(transported, psi, p.theta, p.phi),
                                   sinv @ ref_ext, rtol=0, atol=1e-12)
        assert np.abs(intrinsic - transported).max() <= 1e-9
        assert dirac_agreement_residual(psi, p) <= 1e-9

    def test_random_fields_agree(self, rng):
        # applied to random fields at random points, the stacks of one
        # batched call reproduce the reference values of each field
        for radius in (1.0, 1.7):
            fields = [random_spinor_field(rng) for _ in range(20)]
            theta, phi = rng.uniform(-1.2, 1.2, 20), rng.uniform(0.1, 6.1, 20)
            intrinsic, transported = dirac_pair(ChartPoint(theta, phi, radius))
            assert intrinsic.shape == transported.shape == (3, 2, 2, 20)
            assert np.abs(intrinsic - transported).max() <= 1e-14
            for i, psi in enumerate(fields):
                p = ChartPoint(theta[i], phi[i], radius)
                ref_int, ref_ext = field_dirac_pair(psi, p)
                sinv = frame_intertwiner_inverse(theta[i], phi[i])
                np.testing.assert_allclose(
                    apply_coefficients(intrinsic[..., i], psi, theta[i], phi[i]), ref_int,
                    rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    apply_coefficients(transported[..., i], psi, theta[i], phi[i]),
                    sinv @ ref_ext, rtol=0, atol=1e-12)
                assert dirac_agreement_residual(psi, p) <= 1e-9

    def test_constant_spinor_at_origin(self):
        # S is the identity at the origin and only the curvature term acts
        # on a constant field: the zero-order extrinsic coefficient is -g1
        intrinsic, transported = dirac_pair(ChartPoint(0.0, 0.0))
        np.testing.assert_allclose(transported[2], -GAMMA1, rtol=0, atol=1e-15)
        np.testing.assert_allclose(intrinsic, transported, rtol=0, atol=1e-15)
        psi = SpinorField(HypFn.constant(1.0), HypFn.constant(0.5j))
        _, extrinsic = field_dirac_pair(psi, ChartPoint(0.0, 0.0))
        np.testing.assert_allclose(extrinsic, -GAMMA1 @ np.array([1.0, 0.5j]), atol=1e-14)

    def test_linearity(self):
        # the reference pair is linear in the field, and the stacks act on
        # a sum as on its parts
        psi, chi = t_basis_field(1.5, -1), t_basis_field(-0.5, +1)
        p = ChartPoint(0.4, 2.0)
        i1, e1 = field_dirac_pair(psi, p)
        i2, e2 = field_dirac_pair(psi.scale(2.0) + chi, p)
        i3, e3 = field_dirac_pair(chi, p)
        np.testing.assert_allclose(i2, 2.0 * i1 + i3, atol=1e-13)
        np.testing.assert_allclose(e2, 2.0 * e1 + e3, atol=1e-13)
        intrinsic, _ = dirac_pair(p)
        np.testing.assert_allclose(apply_coefficients(intrinsic, psi.scale(2.0) + chi,
                                                      p.theta, p.phi), i2, atol=1e-13)

    def test_radius_scaling(self):
        i1, e1 = dirac_pair(ChartPoint(0.3, 1.0, radius=1.0))
        i2, e2 = dirac_pair(ChartPoint(0.3, 1.0, radius=2.0))
        np.testing.assert_allclose(i2, 0.5 * i1, atol=1e-15)
        np.testing.assert_allclose(e2, 0.5 * e1, atol=1e-15)

    def test_batch_matches_single_points(self):
        theta, phi = np.linspace(-1.2, 1.2, 5), np.linspace(0.1, 6.1, 5)
        batch = dirac_pair(ChartPoint(theta, phi))
        for i in range(5):
            for stack, single in zip(batch, dirac_pair(ChartPoint(theta[i], phi[i]))):
                np.testing.assert_allclose(stack[..., i], single, rtol=0, atol=1e-15)


class TestSpinorField:
    def test_mat_matches_pointwise_matrix(self, rng):
        # HypFn entries (the Clifford elements e0slash and nslash) on HypFn
        # components
        psi = random_spinor_field(rng)
        p = ChartPoint(0.7, 2.1)
        e0, e1, _ = frame_vectors(p)
        for mat, vec in ((_E0_MAT, e0), (_N_MAT, e1)):
            np.testing.assert_allclose(psi.mat(mat)(p.theta, p.phi),
                                       slash(vec) @ psi(p.theta, p.phi), atol=1e-12)


class TestMinkowskiCommutation:
    def test_random_fields(self):
        # the commutator's coefficient matrices vanish exactly, so it
        # vanishes on every field
        assert minkowski_commutation_residual() == 0.0
