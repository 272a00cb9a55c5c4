import json
from dataclasses import replace

import numpy as np
import pytest

from specquad import cli, desitter
from specquad.desitter import DeSitterParams, assemble_quadruple
from specquad.operators import (
    AntilinearOperator,
    TruncatedOperator,
    antilinear_conjugate,
    commutator,
    interior_residual,
    op_norm,
)
from specquad.quadruple import (
    check_charge_conjugation,
    check_first_order,
    check_noncommutativity,
    check_orientability,
    check_spatial_triple,
    check_symmetric_conditions,
    check_time_vector,
    check_volume_element,
    verify_quadruple,
)

from construction_reference import spatial_dirac
from operator_reference import (band_block, from_dense, from_level_diagonal,
                                level_index, to_dense, zero)


def with_operator(q, **kwargs):
    return replace(q, **kwargs)


def fiber_op(basis, fib):
    return TruncatedOperator.from_fiber(basis, np.asarray(fib, dtype=complex))


class TestTimeVector:
    def test_desitter_passes(self, q_standard):
        [rep] = check_time_vector(q_standard)
        assert rep.passed and all(e.residual == 0.0 for e in rep)

    def test_scalar_i_passes_square_but_not_braiding(self, q_standard):
        q = with_operator(q_standard,
                          e_perp=1j * TruncatedOperator.identity(q_standard.basis))
        [rep] = check_time_vector(q)
        assert rep.passed
        # the volume-element braiding then fails: i1 commutes with gamma
        [rep] = check_volume_element(q)
        assert not rep["volume.braiding"].passed

    def test_hermitian_candidate_fails(self, q_standard):
        q = with_operator(q_standard,
                          e_perp=fiber_op(q_standard.basis, np.diag([1.0, -1.0])))
        [rep] = check_time_vector(q)
        assert rep["time_vector.antihermitian"].residual == pytest.approx(2.0)


class TestVolumeElement:
    def test_desitter_exact(self, q_standard):
        [rep] = check_volume_element(q_standard)
        assert all(e.residual == 0.0 for e in rep)
        assert "gamma^2 = +1" in rep["volume.gamma_square"].notes

    def test_identity_gamma_negative_control(self, q_standard):
        q = with_operator(q_standard,
                          gamma=TruncatedOperator.identity(q_standard.basis))
        [rep] = check_volume_element(q)
        assert rep["volume.braiding"].residual == pytest.approx(
            2.0 * op_norm(q_standard.e_perp))


class TestFirstOrder:
    def test_desitter(self, q_standard):
        assert check_first_order(q_standard, q_standard.u, q_standard.u, margin=2) <= 1e-10

    def test_identity_elements(self, q_standard):
        one = TruncatedOperator.identity(q_standard.basis)
        assert check_first_order(q_standard, one, one, margin=2) == 0.0

    def test_quadratic_corruption_detected(self, q_standard):
        # corrupting iH by anything affine in the level drops out of the
        # double commutator; a quadratic survives and is detected
        bad_ih = q_standard.ih + q_standard.t21 @ q_standard.t21
        q = with_operator(q_standard, ih=bad_ih)
        assert check_first_order(q, q.u, q.u, margin=2) > 0.1

    def test_symmetric_in_arguments(self, q_standard):
        # commutative algebra with u^op = u
        u, usq = q_standard.u, q_standard.u @ q_standard.u
        r1 = check_first_order(q_standard, u, usq, margin=3)
        r2 = check_first_order(q_standard, usq, u, margin=3)
        assert abs(r1 - r2) <= 1e-12


class TestChargeConjugation:
    def test_desitter_intertwining(self, q_standard):
        [rep] = check_charge_conjugation(q_standard, margin=2)
        assert rep.passed
        assert rep["charge_conjugation.tplus"].residual <= 1e-10


class TestSpatialDirac:
    def test_even_branch_is_mass_term(self, q_standard):
        # gamma [iH, gamma] picks out (-2x) the gamma-anticommuting part of
        # iH, which is the mass term -2 rm e_perp: fiberwise, level-diagonal
        d = spatial_dirac(q_standard)
        expected = -2.0 * q_standard.e_perp  # rm = 1
        assert op_norm(d - expected) <= 1e-13

    def test_commuting_generator_gives_zero(self, q_standard):
        q = with_operator(q_standard, ih=q_standard.gamma @ q_standard.t21)
        assert op_norm(spatial_dirac(q)) <= 1e-13


class TestOrientability:
    def test_desitter_membership(self, q_standard):
        assert check_orientability(q_standard, 4) <= 1e-8

    def test_random_hermitian_gamma_not_member(self, q_standard, rng):
        h = rng.normal(size=(q_standard.basis.dim,) * 2)
        q = with_operator(q_standard,
                          gamma=from_dense(q_standard.basis, h + h.T))
        # report-only: typically far from the span
        assert check_orientability(q, 4) > 0.1

    def test_zero_dynamics_gives_unit_residual(self, q_standard):
        q = with_operator(q_standard, ih=zero(q_standard.basis))
        assert check_orientability(q, 4) == 1.0

    @pytest.mark.parametrize("theta", [372.0, 400.0, 710.0])
    def test_membership_at_large_theta(self, theta):
        # the candidates' entries are about 2n / cosh theta, whose squares
        # underflow unless the fit scales each column first
        q = assemble_quadruple(DeSitterParams(rm=1.0, theta=theta, nmax=16))
        assert check_orientability(q, 4) <= 1e-15

    def test_volume_element_vanishing_at_a_point_rejected(self):
        q = assemble_quadruple(DeSitterParams(rm=1.0, theta=np.array([0.3, 1.0]), nmax=8))
        g0 = np.array(np.broadcast_to(q.gamma.band(0), (2, 2, 2, q.basis.nlevels)))
        g0[:, :, 1] = 0.0
        with pytest.raises(ValueError, match="vanishes"):
            check_orientability(with_operator(q, gamma=TruncatedOperator(q.basis, {0: g0})), 4)


class TestSpatialTriple:
    def test_desitter_all_pass(self, q_standard):
        [rep] = check_spatial_triple(q_standard, margin=4)
        assert rep.passed
        for cid in ("spatial.selfadjoint", "spatial.bounded_uniform",
                    "spatial.first_order"):
            assert rep[cid].residual <= 1e-8

    def test_zero_generator_degenerate(self, q_standard):
        q = with_operator(q_standard, ih=zero(q_standard.basis))
        [rep] = check_spatial_triple(q, margin=4)
        assert rep.passed
        assert "degenerate" in rep["spatial.bounded_uniform"].notes

    @pytest.mark.parametrize("theta", [40.0, 700.0])
    def test_large_theta_reads_its_median(self, theta):
        # the block norms of [D_s, u] are 2/cosh theta, 1.7e-17 at theta 40
        # and 3.9e-304 at 700: small, but no degenerate generator
        q = assemble_quadruple(DeSitterParams(rm=1.0, theta=theta, nmax=32))
        [rep] = check_spatial_triple(q, margin=4)
        check = rep["spatial.bounded_uniform"]
        assert check.notes == f"median fiber-block norm {2 / np.cosh(theta):.6g}"
        assert check.residual <= 1e-14

    def test_non_fiberwise_time_vector_still_reports(self, q_standard):
        # eigenprojections stay defined for a level-dependent antihermitian
        # e_perp; the residuals are reported rather than erroring out
        basis = q_standard.basis
        blocks = {n: np.diag([1j, -1j]) if n > 0 else
                  np.array([[0, 1], [-1, 0]]) for n in basis.level_array}
        e_perp = from_level_diagonal(basis, blocks.__getitem__)
        q = with_operator(q_standard, e_perp=e_perp)
        [rep] = check_spatial_triple(q, margin=4)
        assert len(rep) == 4 and all(np.isfinite(e.residual) for e in rep)

    def test_spectrum_matches_circle_dirac(self, q_standard):
        # D_s = e_perp[H, e_perp] has fiber (2n/cosh th) gamma at level n:
        # the circle Dirac spectrum up to the factor 2
        d_s = q_standard.e_perp @ commutator(-1j * q_standard.ih, q_standard.e_perp)
        blk = band_block(d_s, 2.5, 0)
        expected = (2 * 2.5 / np.cosh(0.3)) * np.array([[0, 1j], [-1j, 0]])
        np.testing.assert_allclose(blk, expected, atol=1e-13)


class TestSymmetricConditions:
    def test_desitter(self, q_standard):
        [rep] = check_symmetric_conditions(q_standard, margin=2)
        assert rep.passed

    def test_identity_u_negative_control(self, q_standard):
        q = with_operator(q_standard, u=TruncatedOperator.identity(q_standard.basis))
        [rep] = check_symmetric_conditions(q, margin=2)
        assert rep["symmetric.t21_u"].residual == pytest.approx(1.0)

    def test_rescaled_ladder_negative_control(self, q_standard):
        q = with_operator(q_standard, t_plus=2.0 * q_standard.t_plus,
                          t_minus=2.0 * q_standard.t_minus)
        [rep] = check_symmetric_conditions(q, margin=2)
        assert rep["symmetric.sl2_pair"].residual > 1.0


class TestNoncommutativity:
    def test_massive_family_does_not_commute(self, q_standard):
        assert check_noncommutativity(q_standard) > 1e-4

    def test_massless_family_commutes(self, q_massless):
        assert check_noncommutativity(q_massless) <= 1e-10


class TestMarginMonotonicity:
    def test_residuals_nonincreasing(self, q_standard):
        # a generic non-vanishing expression: the order-3 expansion term
        from specquad.operators import bch_terms
        term = commutator(bch_terms(q_standard.ih, q_standard.u, 3)[3], q_standard.u)
        values = [interior_residual(term, m) for m in range(2, 10)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestVerifyAll:
    def test_full_report_passes(self, q_standard):
        rep = verify_quadruple(q_standard, margin=4)
        assert rep.passed and len(rep) >= 25

    def test_tolerance_override(self, q_standard):
        rep = verify_quadruple(q_standard, margin=4).override({"first_order.u_u": -1.0})
        assert not rep["first_order.u_u"].passed
        assert rep["first_order.u_u"].tolerance == -1.0

    def test_massless_report(self, q_massless):
        rep = verify_quadruple(q_massless, margin=4,
                               include_noncommutativity=False)
        assert rep.passed


class TestDerivedOperators:
    @staticmethod
    def direct(q):
        """Each derived operator built from the data of q."""
        ih_e_perp = commutator(q.ih, q.e_perp)
        return {"one": TruncatedOperator.identity(q.basis), "u_adj": q.u.adjoint(),
                "u_sq": q.u @ q.u, "u_op": antilinear_conjugate(q.cc, q.u),
                "ih_u": commutator(q.ih, q.u), "ih_e_perp": ih_e_perp,
                "adm_commutator": commutator(ih_e_perp, q.u)}

    @pytest.mark.parametrize("field", ["u", "ih", "e_perp"])
    def test_replaced_data_rebuilds_them(self, field):
        q = assemble_quadruple(DeSitterParams(rm=1.0, theta=0.3, nmax=8))
        built = {name: getattr(q, name) for name in self.direct(q)}
        new = replace(q, **{field: {"u": 1j * q.u, "ih": 2 * q.ih, "e_perp": -q.e_perp}[field]})
        for name, want in self.direct(new).items():
            assert np.array_equal(to_dense(getattr(new, name)), to_dense(want)), name
            # the parent's operator stays as it was built
            assert getattr(q, name) is built[name]


SIGMA_Z = np.diag([1.0, -1.0])


def planted_block(name, k, block):
    """The quadruple with 1e-6 * block added to the band-k block of its
    operator ``name`` that leaves level 1/2, a mid level of the interior."""
    def plant(q):
        x = getattr(q, name)
        arr = np.array(x.band(k))
        arr[..., level_index(q.basis, 0.5)] += 1e-6 * np.asarray(block)
        return replace(q, **{name: TruncatedOperator(q.basis, {**x.bands, k: arr})})
    return plant


def fiber_flip_defect(q):
    """C with 1e-6 * 1 added to its fiber flip F at level 1/2, a mid level of
    the interior: C^2 at the levels +-1/2 is 1 + 1e-6 F."""
    flip = np.array(q.cc.linear.band(0))
    flip[..., level_index(q.basis, 0.5)] += 1e-6 * np.eye(2)
    return replace(q, cc=AntilinearOperator(TruncatedOperator(q.basis, {0: flip})))


def gamma_plus_sigma_z(q):
    """gamma + 1e-6 sigma_z on band 0 at every level: sigma_z anticommutes
    with the fiber of gamma, so it lies outside the span of the candidates,
    which are multiples of gamma."""
    return replace(q, gamma=q.gamma + 1e-6 * TruncatedOperator.from_fiber(q.basis, SIGMA_Z))


# verify_quadruple id -> a planted defect that turns it red.  A T21 of
# i n 1 commutes with every fiber block, so [T21, X] = i k X for X in band
# k: a band-1 block in e_perp or gamma breaks their commutation with T21,
# and a band-0 block in T+- breaks the raise and lower relations, which a
# band +-1 defect keeps
VERIFY_DEFECTS = {
    "algebra.u_unitary": planted_block("u", 1, np.eye(2)),
    "charge_conjugation.square": fiber_flip_defect,
    "charge_conjugation.u": planted_block("u", 1, SIGMA_Z),
    "charge_conjugation.t21": planted_block("t21", 0, np.eye(2)),
    "charge_conjugation.generator": planted_block("ih", 0, np.eye(2)),
    "first_order.u_uadj": planted_block("ih", 0, SIGMA_Z),
    "orientability.membership": gamma_plus_sigma_z,
    "spatial.eigenspace_algebra": planted_block("e_perp", 0, np.eye(2)),
    "symmetric.sl2_raise": planted_block("t_plus", 0, np.eye(2)),
    "symmetric.sl2_lower": planted_block("t_minus", 0, np.eye(2)),
    "symmetric.t21_e_perp": planted_block("e_perp", 1, np.eye(2)),
    "symmetric.t21_gamma": planted_block("gamma", 1, np.eye(2)),
    # i gamma squares to -1, the grading sign of dimension 4 mod 8
    "volume.gamma_square": lambda q: replace(q, gamma=1j * q.gamma),
}


@pytest.mark.parametrize("check_id", VERIFY_DEFECTS)
def test_planted_defect_turns_its_check_red(q_standard, check_id):
    assert verify_quadruple(q_standard)[check_id].passed
    rep = verify_quadruple(VERIFY_DEFECTS[check_id](q_standard))
    assert not rep[check_id].passed


def test_membership_defect_fails_quadruple_verify(tmp_path, monkeypatch):
    real = desitter.assemble_quadruple
    monkeypatch.setattr(desitter, "assemble_quadruple", lambda p: gamma_plus_sigma_z(real(p)))
    out = tmp_path / "r.json"
    assert cli.run(["quadruple-verify", "-o", str(out)]) == 1
    [check] = [c for c in json.loads(out.read_text())["checks"]
               if c["id"] == "orientability.membership"]
    assert check["pass"] is False
