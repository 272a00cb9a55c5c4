import json

import numpy as np
import pytest

from specquad import cli, sl2
from specquad.operators import commutator, interior_residual
from specquad.sl2 import (
    Lattice,
    RepParams,
    SeriesKind,
    classify,
    ladder_coefficient_sq,
    verify_ladder_recursion,
)

from operator_reference import build_generators, compress, flat_index, to_dense, weight_lattice


def casimir_candidate(t21, tplus, tminus):
    """T21^2 - (T+T- + T-T+)/2; scalar = r2m2 + 1/4 on the interior."""
    return t21 @ t21 - 0.5 * (tplus @ tminus + tminus @ tplus)


class TestLadderCoefficients:
    @pytest.mark.parametrize("n, r2m2, expected", [
        (0.5, 1.0, 2.0),
        (-0.5, 0.0, 0.0),
        (1.5, 0.25, 4.25),
    ])
    def test_closed_form(self, n, r2m2, expected):
        assert ladder_coefficient_sq(n, r2m2) == pytest.approx(expected, abs=1e-15)

    def test_recursion_half_integer(self):
        assert verify_ladder_recursion(1.0, np.arange(-4.5, 5.5)) == 0.0

    def test_recursion_integer_negative_label(self):
        assert verify_ladder_recursion(-0.2, np.arange(-5, 6)) <= 1e-15

    def test_perturbed_closed_form_detected(self):
        # negative control: a 1e-3 bump at one weight breaks the recursion
        ns = np.arange(-4.5, 5.5)

        def bad(n):
            return ladder_coefficient_sq(n, 1.0) + (1e-3 if n == 0.5 else 0.0)

        worst = max(abs(bad(n) - bad(n - 1.0) - 2.0 * n) for n in ns)
        assert worst == pytest.approx(1e-3, rel=1e-9)

    def test_bump_turns_both_ladder_checks_red(self, tmp_path, monkeypatch):
        # the same bump in the library's closed form, through the CLI: the
        # recursion breaks at n = 0.5 and 1.5, the closed form at n = 0.5
        real = sl2.ladder_coefficient_sq
        monkeypatch.setattr(sl2, "ladder_coefficient_sq",
                            lambda n, r2m2: real(n, r2m2) + (1e-3 if n == 0.5 else 0.0))
        out = tmp_path / "r.json"
        assert cli.run(["sl2-classify", "--r2m2", "1", "-o", str(out)]) == 1
        red = {c["id"]: c["residual"] for c in json.loads(out.read_text())["checks"]
               if not c["pass"]}
        assert red.keys() == {"sl2.ladder_recursion", "sl2.ladder_closed_form"}
        assert red["sl2.ladder_closed_form"] == pytest.approx(1e-3, rel=1e-9)


class TestClassification:
    def test_principal_half_integer(self):
        (c,) = classify(RepParams(1.0, Lattice.HALF_INTEGER))
        assert c.kind is SeriesKind.PRINCIPAL_HALF_INTEGER

    def test_principal_integer(self):
        (c,) = classify(RepParams(2.5, Lattice.INTEGER))
        assert c.kind is SeriesKind.PRINCIPAL_INTEGER

    def test_complementary(self):
        (c,) = classify(RepParams(-0.1, Lattice.INTEGER))
        assert c.kind is SeriesKind.COMPLEMENTARY

    def test_complementary_needs_integer_lattice(self):
        (c,) = classify(RepParams(-0.1, Lattice.HALF_INTEGER))
        assert c.kind is SeriesKind.INVALID

    def test_discrete_half_integer(self):
        below, above = classify(RepParams(-1.0, Lattice.HALF_INTEGER))
        assert below.kind is SeriesKind.DISCRETE_BOUNDED_BELOW and below.n0 == 0.5
        assert above.kind is SeriesKind.DISCRETE_BOUNDED_ABOVE and above.n0 == 0.5

    def test_discrete_boundary_point_integer(self):
        # r2m2 = -1/4 sits at the (open) complementary boundary and is the
        # n0 = 0 discrete point of the integer lattice
        below, above = classify(RepParams(-0.25, Lattice.INTEGER))
        assert below.n0 == 0.0 and above.n0 == 0.0

    def test_zero_is_complementary_on_integers(self):
        (c,) = classify(RepParams(0.0, Lattice.INTEGER))
        assert c.kind is SeriesKind.COMPLEMENTARY

    def test_zero_is_discrete_on_half_integers(self):
        below, _ = classify(RepParams(0.0, Lattice.HALF_INTEGER))
        assert below.kind is SeriesKind.DISCRETE_BOUNDED_BELOW and below.n0 == -0.5

    def test_locally_constant_between_special_points(self):
        # classification only changes at 0, -1/4 and the discrete points
        for lattice in Lattice:
            base = classify(RepParams(0.63, lattice))
            for eps in (1e-6, -1e-6):
                assert classify(RepParams(0.63 + eps, lattice)) == base
        base = classify(RepParams(-0.13, Lattice.INTEGER))
        assert classify(RepParams(-0.13 + 1e-6, Lattice.INTEGER)) == base


class TestGenerators:
    def build(self, r2m2=1.0, nmax=8, lattice="half_integer"):
        basis = weight_lattice(nmax, lattice)
        lat = Lattice.INTEGER if lattice == "integer" else Lattice.HALF_INTEGER
        return basis, build_generators(RepParams(r2m2, lat), basis)

    def test_pair_commutator(self):
        _, (t21, tp, tm) = self.build(r2m2=1.0, nmax=8)
        assert interior_residual(commutator(tp, tm) + 2j * t21, 1) <= 1e-12

    def test_raising_lowering_relations(self):
        _, (t21, tp, tm) = self.build(r2m2=0.7, nmax=6)
        assert interior_residual(commutator(t21, tp) - 1j * tp, 1) <= 1e-12
        assert interior_residual(commutator(t21, tm) + 1j * tm, 1) <= 1e-12

    def test_unitarity_relations(self):
        for r2m2 in (0.5, 2.0):
            _, (t21, tp, tm) = self.build(r2m2=r2m2, nmax=5)
            assert interior_residual(t21.adjoint() + t21, 1) == 0.0
            assert interior_residual(tp.adjoint() + tm, 1) <= 1e-12
            assert interior_residual(tm.adjoint() + tp, 1) <= 1e-12

    def test_t21_entry(self):
        basis, (t21, _, _) = self.build()
        idx = flat_index(basis, 1.5)
        assert to_dense(t21)[idx, idx] == pytest.approx(1.5j)

    def test_vanishing_coefficient_at_massless_weight(self):
        basis, (_, tp, _) = self.build(r2m2=0.0)
        assert abs(to_dense(tp)[flat_index(basis, 0.5), flat_index(basis, -0.5)]) == 0.0

    def test_discrete_series_refused(self):
        basis = weight_lattice(6, "half_integer")
        with pytest.raises(ValueError):
            build_generators(RepParams(-1.0, Lattice.HALF_INTEGER), basis)

    def test_invalid_rep_refused(self):
        basis = weight_lattice(6, "half_integer")
        with pytest.raises(ValueError):
            build_generators(RepParams(-0.7, Lattice.HALF_INTEGER), basis)

    def test_casimir_scalar_on_interior(self):
        # eigenvalues equal within 1e-10; the value (r2m2 + 1/4) is not asserted
        for r2m2 in (1.0, 0.3, -0.2):
            lattice = "integer" if r2m2 < 0 else "half_integer"
            basis, (t21, tp, tm) = self.build(r2m2=r2m2, nmax=8, lattice=lattice)
            cas = casimir_candidate(t21, tp, tm)
            inner = compress(cas, 1)
            eig = np.linalg.eigvals(inner)
            assert np.abs(eig - eig[0]).max() <= 1e-10

    def test_custom_phases(self):
        basis = weight_lattice(6, "half_integer")
        t21, tp, tm = build_generators(
            RepParams(1.0, Lattice.HALF_INTEGER), basis,
            phases=lambda n: np.exp(0.3j * n))
        assert interior_residual(commutator(tp, tm) + 2j * t21, 1) <= 1e-12
        assert interior_residual(tp.adjoint() + tm, 1) <= 1e-12
