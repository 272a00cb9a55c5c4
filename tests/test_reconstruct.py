import numpy as np
import pytest
from dataclasses import replace

from specquad.desitter import DeSitterParams, assemble_quadruple
from specquad.operators import interior_residual, op_norm
from specquad.reconstruct import (
    commutator_expansion,
    extract_adm,
    extract_mass_scale,
    fit_third_order,
    massless_degeneracy_check,
    third_order_coefficient,
)

from construction_reference import gauge_transform


class TestExpansion:
    def test_low_orders_vanish(self, q_standard):
        exp = commutator_expansion(q_standard.ih, q_standard.u, 3, 4)
        assert interior_residual(exp[0], 4) == 0.0
        assert interior_residual(exp[1], 4) <= 1e-10
        assert interior_residual(exp[2], 4) <= 1e-10
        assert interior_residual(exp[3], 4) > 0.1  # massive: third order lives

    def test_margin_guard(self, q_standard):
        with pytest.raises(ValueError):
            commutator_expansion(q_standard.ih, q_standard.u, 5, 4)

    def test_order_scaling_under_generator_rescale(self, q_standard):
        # iH -> 2 iH multiplies term k by exactly 2^k
        exp1 = commutator_expansion(q_standard.ih, q_standard.u, 3, 4)
        exp2 = commutator_expansion(2.0 * q_standard.ih, q_standard.u, 3, 4)
        for k in (1, 2, 3):
            assert op_norm(exp2[k] - (2.0 ** k) * exp1[k]) <= 1e-12 * 2 ** k \
                * max(op_norm(exp1[k]), 1.0)


class TestMassScale:
    def test_roundtrip_standard(self, q_standard):
        assert extract_mass_scale(q_standard, 4) == pytest.approx(1.0, abs=1e-8)

    def test_roundtrip_across_parameters(self):
        for rm in (0.1, 0.7, 2.0, 4.0):
            for theta in (0.0, 0.6, 1.0):
                q = assemble_quadruple(DeSitterParams(rm=rm, theta=theta, nmax=20))
                assert extract_mass_scale(q, 4) == pytest.approx(rm, abs=1e-8)

    def test_theta_independence(self):
        qa = assemble_quadruple(DeSitterParams(rm=2.0, theta=1.0, nmax=20))
        assert extract_mass_scale(qa, 4) == pytest.approx(2.0, abs=1e-8)

    def test_massless_returns_zero(self, q_massless):
        assert extract_mass_scale(q_massless, 4) == 0.0

    # the vanishing cut scales like ||iH|| (about nmax), as the massless
    # roundoff does, so a small mass stays visible at large nmax
    @pytest.mark.parametrize("rm,nmax", [(1e-6, 128), (3e-8, 128), (1e-6, 512)])
    def test_small_mass_recovered_at_large_nmax(self, rm, nmax):
        q = assemble_quadruple(DeSitterParams(rm=rm, theta=0.3, nmax=nmax))
        assert extract_mass_scale(q, 4) == pytest.approx(rm, rel=1e-6)

    # nmax 32 is test_massless_returns_zero
    @pytest.mark.parametrize("nmax", [128, 512])
    def test_massless_roundoff_stays_below_cut(self, nmax):
        q = assemble_quadruple(DeSitterParams(rm=0.0, theta=0.3, nmax=nmax))
        assert extract_mass_scale(q, 4) == 0.0

    def test_linearity_in_mass(self):
        theta = 0.4
        qa = assemble_quadruple(DeSitterParams(rm=0.8, theta=theta, nmax=20))
        qb = assemble_quadruple(DeSitterParams(rm=1.6, theta=theta, nmax=20))
        ka, _ = third_order_coefficient(qa, 4)
        kb, _ = third_order_coefficient(qb, 4)
        assert abs(kb - 2.0 * ka) <= 1e-8 * abs(ka)

    def test_measured_constant_matches_model(self, q_standard):
        # kappa = (2/3) rm / cosh^2 under the 1/k! convention
        kappa, fit = third_order_coefficient(q_standard, 4)
        assert fit <= 1e-12
        assert kappa == pytest.approx((2.0 / 3.0) / np.cosh(0.3) ** 2, rel=1e-10)

    @pytest.mark.parametrize("rm,theta", [(1.0, 0.0), (0.5, 0.7), (2.0, 1.2)])
    def test_third_order_closed_form(self, rm, theta):
        # kappa cosh^2(theta) / rm = 2/3, the constant extract_mass_scale divides by
        q = assemble_quadruple(DeSitterParams(rm=rm, theta=theta, nmax=12))
        kappa, _ = third_order_coefficient(q, 4)
        assert abs(kappa * np.cosh(theta) ** 2 / rm - 2.0 / 3.0) <= 1e-14

    def test_wrong_shape_rejected(self, q_standard):
        # replacing iH with a generator whose third order is not e_perp u^2
        bad = replace(q_standard, ih=q_standard.ih @ q_standard.ih @ q_standard.ih)
        with pytest.raises(ValueError):
            extract_mass_scale(bad, 4)

    def test_gauge_invariance(self):
        plain = assemble_quadruple(DeSitterParams(rm=1.3, theta=0.5, nmax=16))
        gauged = gauge_transform(plain, 0.4, 0.9)
        assert extract_mass_scale(gauged, 4) == pytest.approx(
            extract_mass_scale(plain, 4), abs=1e-10)

    def test_truncation_refinement_stability(self):
        vals = [extract_mass_scale(
            assemble_quadruple(DeSitterParams(rm=1.5, theta=0.7, nmax=nmax)),
            nmax // 4) for nmax in (16, 32)]
        assert abs(vals[0] - vals[1]) <= 1e-8


class TestAdm:
    def test_shift_vanishes(self, q_standard):
        adm = extract_adm(q_standard, margin=4)
        assert adm.shift <= 1e-10

    def test_lapse_mass(self, q_standard):
        adm = extract_adm(q_standard, margin=4)
        assert adm.lapse_mass == pytest.approx(1.0, abs=1e-8)

    def test_shape_check(self, q_standard):
        adm = extract_adm(q_standard, margin=4)
        assert adm.shape_residual <= 1e-10

    def test_order_residuals_reported(self, q_standard):
        adm = extract_adm(q_standard, margin=4)
        assert len(adm.order_residuals) == 4
        assert adm.order_residuals[0] == 0.0


class TestMasslessDegeneracy:
    def test_all_orders_vanish(self, q_massless):
        assert massless_degeneracy_check(q_massless, kmax=5, margin=6) <= 1e-10

    def test_small_mass_control(self):
        q = assemble_quadruple(DeSitterParams(rm=1e-3, theta=0.0, nmax=32))
        # the third order is linear in the mass: ~ (2/3) * 1e-3
        assert massless_degeneracy_check(q, kmax=5, margin=6) > 1e-5

    def test_order_zero_trivial(self, q_massless):
        assert massless_degeneracy_check(q_massless, kmax=0, margin=2) == 0.0


class TestSharedExpansion:
    @pytest.mark.parametrize("rm,theta,nmax", [(1.0, 0.3, 32), (0.5, 1.0, 32), (2.0, 0.0, 16)])
    def test_adm_carries_the_third_order_fit(self, rm, theta, nmax):
        # extract_adm reuses its one order-3 expansion for kappa and the low
        # orders; the values must be those of the standalone paths, bit for bit
        q = assemble_quadruple(DeSitterParams(rm=rm, theta=theta, nmax=nmax))
        adm = extract_adm(q, margin=4)
        assert (adm.kappa, adm.third_order_fit) == third_order_coefficient(q, 4)
        for orders in range(4):
            exp = commutator_expansion(q.ih, q.u, orders, 4)
            assert adm.order_residuals[:orders + 1] == tuple(
                interior_residual(t, 4) for t in exp)

    def test_massless_runs_no_fit(self, q_massless):
        # a vanishing third order reports kappa = fit = 0, also when the
        # interior is too small for any shift-2 level pair to fit
        for q, margin in ((q_massless, 4),
                          (assemble_quadruple(DeSitterParams(rm=0.0, theta=0.3, nmax=4)), 3)):
            adm = extract_adm(q, margin=margin)
            assert (adm.mass_scale, adm.kappa, adm.third_order_fit) == (0.0, 0.0, 0.0)

    def test_cli_builds_one_expansion_per_quadruple(self, tmp_path, monkeypatch):
        from specquad import cli, reconstruct

        calls = []
        original = reconstruct.commutator_expansion

        def counted(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(reconstruct, "commutator_expansion", counted)
        out = str(tmp_path / "r.json")
        for argv, orders in [
                # one for q inside extract_adm, one for the 2 rm quadruple
                ([], [3, 3]),
                # rm = 0: the order rows, the degeneracy and the mass share
                # one expansion of order min(5, margin)
                (["--rm", "0"], [4]),
                (["--rm", "0", "--margin", "3"], [3]),
                (["--rm", "0", "--margin", "6"], [5])]:
            calls.clear()
            assert cli.run(["reconstruct", "--nmax", "16", *argv, "-o", out]) == 0
            assert calls == orders, argv

    def test_adm_builds_each_commutator_once(self, monkeypatch):
        # one order-3 expansion (14 products), one [[iH, e_perp], u] for the
        # shape fit and cosh(theta) (4), [iH, u] (2), iH e_perp, gamma e_perp u
        # and e_perp u^2 (5)
        from specquad.operators import TruncatedOperator

        q = assemble_quadruple(DeSitterParams(rm=1.0, theta=0.3, nmax=128))
        calls = []
        original = TruncatedOperator.__matmul__

        def counted(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(TruncatedOperator, "__matmul__", counted)
        extract_adm(q)
        assert len(calls) <= 25


# every scalar extraction, as name -> run on a quadruple
EXTRACTIONS = {
    "extract_adm": extract_adm,
    "third_order_coefficient": third_order_coefficient,
    "fit_third_order": lambda q: fit_third_order(q, q.u, 4),
    "extract_mass_scale": extract_mass_scale,
    "massless_degeneracy_check": massless_degeneracy_check,
}


@pytest.mark.parametrize("name", EXTRACTIONS)
def test_scalar_extractions_refuse_a_batch(name):
    q = assemble_quadruple(DeSitterParams(rm=np.array([1.0, 2.0]), theta=np.array([0.1, 0.2]),
                                          nmax=16))
    with pytest.raises(ValueError, match=rf"^{name} checks a single point"):
        EXTRACTIONS[name](q)
