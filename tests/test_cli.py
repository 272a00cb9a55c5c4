import functools
import json
import math
import os
import stat
import warnings
from dataclasses import replace

import numpy as np
import pytest

from specquad import cli, desitter, finite, geometry, reconstruct, spinfields
from specquad import quadruple as quad
from specquad.cli import run
from specquad.operators import BasisDescriptor, TruncatedOperator
from specquad.quadruple import DEFAULT_TOLERANCES, registry_key

from operator_reference import from_level_diagonal, from_shift, level_index


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["quadruple-verify", "--rm", "1", "--theta", "0.3",
                    "--nmax", "16", "--margin", "4", "-o", str(out)]) == 0

    def test_failed_check_is_one(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["quadruple-verify", "--rm", "1", "--nmax", "16",
                    "--tol", "first_order.u_u=-1", "-o", str(out)])
        assert code == 1
        report = json.loads(read(out))
        assert report["passed"] is False

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["quadruple-verify", "--bogus"])
        assert exc.value.code == 2

    def test_bad_tolerance_is_two(self):
        assert run(["quadruple-verify", "--nmax", "16", "--tol", "nonsense"]) == 2

    def test_bad_complex_is_two(self):
        assert run(["finite-distance", "--m", "zzz"]) == 2

    @pytest.mark.parametrize("sc", ["finite-distance", "finite-verify"])
    @pytest.mark.parametrize("m", ["nan", "inf", "1+nanj"])
    def test_non_finite_mass_is_two(self, capsys, sc, m):
        # a nan or inf part is a usage error named by its flag, caught
        # before any numpy call can warn or fail to converge
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([sc, "--m", m]) == 2
        assert "--m" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_r2m2_is_usage_error(self, tmp_path, monkeypatch, capsys, value):
        # rejected by its flag before the ladder is computed, so no numpy
        # call warns on the value
        def refuse(*args):
            raise AssertionError("the ladder was computed")

        monkeypatch.setattr(cli, "_section_sl2", refuse)
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sl2-classify", f"--r2m2={value}", "-o", str(out)]) == 2
        assert "--r2m2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sc", ["reconstruct", "all"])
    @pytest.mark.parametrize("argv,flag", [
        (["--margin", "2"], "--margin"),
    ], ids=["margin-below-3"])
    def test_reconstruct_usage_is_two(self, capsys, sc, argv, flag):
        # the section reads the order-3 term, so margin >= 3; the message
        # names the flag, not an internal kmax
        assert run([sc, "--nmax", "8", *argv]) == 2
        err = capsys.readouterr().err
        assert flag in err and "kmax" not in err

    @pytest.mark.parametrize("argv", [
        ["reconstruct", "--nmax", "5", "--margin", "4"],
        ["all", "--nmax", "5"],
        ["reconstruct", "--rm", "0", "--nmax", "5", "--margin", "4"],
        ["reconstruct", "--nmax", "4", "--margin", "4"],
    ])
    def test_reconstruct_needs_three_interior_levels(self, tmp_path, monkeypatch, capsys, argv):
        # the expansion terms and the kappa fit are band 2, and nmax =
        # margin + 1 leaves two interior levels: no block to read, so a
        # usage error before any quadruple is assembled, not a recovered
        # rm of 0 (exit 1) or a vacuous pass (exit 0)
        def refuse(*args):
            raise AssertionError("a quadruple was assembled")

        monkeypatch.setattr(desitter, "assemble_quadruple", refuse)
        out = tmp_path / "r.json"
        assert run([*argv, "-o", str(out)]) == 2
        nmax = argv[argv.index("--nmax") + 1]
        assert capsys.readouterr().err == (
            f"specquad: error: margin 4 needs nmax >= 6, not {nmax}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["quadruple-verify", "--nmax", "3"], "--nmax"), (["reconstruct", "--nmax", "2"], "--nmax"),
        (["all", "--nmax", "3"], "--nmax"), (["sweep", "--nmax", "3"], "--nmax"),
        (["quadruple-verify", "--margin=-1"], "--margin"), (["sweep", "--margin=-1"], "--margin"),
        (["desitter-crosscheck", "--nmax", "3"], "--nmax"),
    ])
    def test_small_nmax_and_negative_margin_name_their_flag(self, capsys, argv, flag):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"specquad: error: {flag} ")

    @pytest.mark.parametrize("sc", ["quadruple-verify", "sweep"])
    def test_margin_zero_is_usage_error(self, tmp_path, capsys, sc):
        # margin 0 reads the truncation cutoff, where symmetric.sl2_pair and
        # first_order.u_uadj break on correct data; margin 1 is roundoff only
        out = tmp_path / "r.json"
        assert run([sc, "--margin", "0", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("specquad: error: --margin 0: ")
        assert not out.exists()
        assert run([sc, "--margin", "1", "-o", str(out)]) == 0

    @pytest.mark.parametrize("argv", [["quadruple-verify", "--m", "1"], ["all", "--th", "1"]])
    def test_abbreviated_flag_is_usage_error(self, argv):
        # --m is the finite subcommands' Dirac parameter, not a prefix of --margin
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_nan_tolerance_is_usage_error(self, tmp_path, capsys):
        # residual <= nan is false, so a nan bound would turn the check red
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol.symmetric.t21_u = nan\n")
        for argv in (["--tol", "symmetric.t21_u=nan"], ["--config", str(cfg)]):
            out = tmp_path / "r.json"
            assert run(["quadruple-verify", "--nmax", "16", *argv, "-o", str(out)]) == 2
            assert "'symmetric.t21_u'" in capsys.readouterr().err
            assert not out.exists()

    def test_crosscheck_checks_its_own_small_nmax(self, tmp_path, monkeypatch):
        # --nmax 4 is checked at 4, not raised to a larger truncation
        seen = []
        real = desitter.crosscheck_construction_vs_appendix
        monkeypatch.setattr(desitter, "crosscheck_construction_vs_appendix",
                            lambda p: seen.append(p.nmax) or real(p))
        out = tmp_path / "r.json"
        assert run(["desitter-crosscheck", "--nmax", "4", "-o", str(out)]) == 0
        assert seen == [4] and json.loads(read(out))["params"]["nmax"] == 4

    @pytest.mark.parametrize("nmax", [4, 64])
    def test_norm_law_reads_the_levels_of_nmax(self, tmp_path, monkeypatch, nmax):
        # a T+ defect at the top level of --nmax 4 (3.5) and one beyond it
        # (5.5), and the same at --nmax 64 (63.5, 65.5): the law sees the
        # defect exactly when the truncation holds its level
        argv = ["desitter-crosscheck", "--nmax", str(nmax)]
        assert norm_law_passes(tmp_path, monkeypatch, argv, nmax - 0.5) is False
        assert norm_law_passes(tmp_path, monkeypatch, argv, nmax + 1.5) is True

    @pytest.mark.parametrize("nmax", [8, 64])
    def test_all_reads_the_norm_law_at_its_nmax(self, tmp_path, monkeypatch, nmax):
        # `all --nmax N` runs its crosscheck at N, not at a fixed 16: the
        # top-level T+ defect reads red and the one beyond it green
        argv = ["all", "--nmax", str(nmax)]
        assert norm_law_passes(tmp_path, monkeypatch, argv, nmax - 0.5) is False
        assert norm_law_passes(tmp_path, monkeypatch, argv, nmax + 1.5) is True

    def test_crash_is_three(self, tmp_path, monkeypatch, capsys):
        # an exception from a section propagates out of run; main prints
        # its traceback, writes no report and exits 3, not the 1 of a red
        # report
        def boom(seed):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "_section_oracle", boom)
        out = tmp_path / "r.json"
        monkeypatch.setattr("sys.argv", ["specquad", "oracle-check", "-o", str(out)])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "ValueError: boom" in err

    @pytest.mark.parametrize("argv,flag,value", [
        (["quadruple-verify", "--nmax", "8"], "--rm", "-1e-3"),
        (["quadruple-verify", "--nmax", "8"], "--theta", "-.5e0"),
        (["sl2-classify"], "--r2m2", "-1e-3"),
        (["sweep", "--nmax", "8"], "--rm", "-1,2"),
        (["finite-verify"], "--m", "-1+2j"),
    ])
    def test_negative_value_runs_as_its_equals_spelling(self, tmp_path, argv, flag, value):
        # a value that starts like a negative number, after a space, is the
        # flag's value and not an unknown option
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        code = run([*argv, flag, value, "-o", str(spaced)])
        assert code == run([*argv, f"{flag}={value}", "-o", str(joined)])
        assert read(spaced) == read(joined)

    def test_usage_errors_exit_two(self, capsys):
        assert run(["quadruple-verify", "--nmax", "8", "--tol", "nope=1"]) == 2
        assert "unknown tolerance id 'nope'" in capsys.readouterr().err
        # a truncation too small for the margin: the message names the
        # margin given and the least nmax it needs (the orientability fit
        # reads margin + 2, up to 4)
        assert run(["quadruple-verify", "--nmax", "5", "--margin", "5"]) == 2
        assert "margin 5 needs nmax >= 6, not 5" in capsys.readouterr().err
        for margin in ("3", "2"):
            assert run(["quadruple-verify", "--nmax", "4", "--margin", margin]) == 2
            assert f"margin {margin} needs nmax >= 5, not 4" in capsys.readouterr().err

    def test_wrong_shape_third_order_is_a_failed_check(self, tmp_path, monkeypatch):
        # iH^3 in place of iH: the third order is not kappa e_perp u^2, which
        # is a numerical failure (exit 1, a named red check), not a usage error
        real = desitter.assemble_quadruple

        def cubed(params):
            q = real(params)
            return replace(q, ih=q.ih @ q.ih @ q.ih)

        monkeypatch.setattr(desitter, "assemble_quadruple", cubed)
        out = tmp_path / "r.json"
        assert run(["reconstruct", "-o", str(out)]) == 1
        checks = {c["id"]: c for c in json.loads(read(out))["checks"]}
        fit = checks["reconstruct.third_order_fit"]
        assert fit["pass"] is False and fit["residual"] > 0.1


def unit(i, j, n=3):
    """The n x n matrix unit E_ij."""
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def planted_dirac(defect, admission_tol=None):
    """two_point_dirac(m) + defect(m); with ``admission_tol`` the admission
    check of build_finite_triple reads that bound."""
    def patch(monkeypatch):
        real = finite.two_point_dirac
        monkeypatch.setattr(finite, "two_point_dirac", lambda m: real(m) + defect(m))
        if admission_tol is not None:
            monkeypatch.setattr(finite, "_ADMISSION_TOL", admission_tol)
    return patch


def planted_e_perp(defect):
    """e_perp = i gamma + defect at every scheduled time."""
    def patch(monkeypatch):
        monkeypatch.setattr(finite.FiniteQuadruple, "e_perp",
                            lambda self, idx: 1j * np.diag(self.triples[idx].gamma) + defect)
    return patch


# (name, defect, argv, red ids in report order): one row per finite id that
# no other test turns red.  gamma = diag(1, -1, -1) and J swaps the basis
# vectors 1 and 2 of the two-point triple.
FINITE_DEFECTS = [
    # a selfadjoint coupling of the + sector to vector 1 only, admitted
    # under a looser bound: it anticommutes with gamma and keeps the
    # first-order pattern, so only JD = DJ breaks
    ("J-odd coupling", planted_dirac(lambda m: 1e-6 * (unit(0, 1) + unit(1, 0)), 1e-3),
     ["finite-verify"], ["finite.j_commutes"]),
    # a hermitian part of e_perp; e_perp^2 = -1 breaks with it
    ("hermitian e_perp entry", planted_e_perp(1e-6 * unit(0, 0)), ["finite-verify"],
     ["finite.e_perp_square@0", "finite.e_perp_antihermitian@0",
      "finite.e_perp_square@1", "finite.e_perp_antihermitian@1"]),
    # an antihermitian part that anticommutes with gamma: e_perp^2 + 1 is
    # 1e-14, inside its bound, and e_perp* = -e_perp still holds
    ("gamma-odd e_perp entry", planted_e_perp(1e-7j * (unit(0, 1) + unit(1, 0))),
     ["finite-verify"], ["finite.volume_braiding@0", "finite.volume_braiding@1"]),
    # a 1e-6 coupling left at m = 0: the points are 1e6 apart, not infinitely
    ("residual coupling at m = 0",
     planted_dirac(lambda m: finite.two_point_dirac(1e-6) if m == 0 else 0),
     ["finite-distance", "--m", "0"], ["finite.distance_unbounded"]),
]


@pytest.mark.parametrize("defect,argv,red", [row[1:] for row in FINITE_DEFECTS],
                         ids=[row[0] for row in FINITE_DEFECTS])
def test_finite_defect_reads_red(tmp_path, monkeypatch, defect, argv, red):
    # the residuals are Jacobi norms: the SVD is not called
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("svd", "norm"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    defect(monkeypatch)
    out = tmp_path / "r.json"
    assert run([*argv, "-o", str(out)]) == 1
    assert [c["id"] for c in json.loads(read(out))["checks"] if not c["pass"]] == red


class TestOraclePlantedDefects:
    """A planted defect turns exactly its own oracle check red."""

    def red_ids(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["oracle-check", "-o", str(out)]) == 1
        return [c["id"] for c in json.loads(read(out))["checks"] if not c["pass"]]

    def test_flipped_spin_generator(self, tmp_path, monkeypatch):
        monkeypatch.setitem(spinfields._OMEGA, (0, 1), -0.5 * geometry.GAMMA2)
        assert self.red_ids(tmp_path) == ["oracle.minkowski_commutation"]

    def test_shifted_level_block(self, tmp_path, monkeypatch):
        real = spinfields.level_block

        def shifted(n, rm, theta):
            blk = real(n, rm, theta)
            blk[0, 0] += 1e-6
            return blk

        monkeypatch.setattr(spinfields, "level_block", shifted)
        assert self.red_ids(tmp_path) == ["oracle.hamiltonian_vs_grid",
                                          "oracle.slice_independence"]

    def test_flipped_level_block_mass(self, tmp_path, monkeypatch):
        # the block is affine in rm, so 2 M(0) - M(rm) flips the mass term;
        # the conservation defect does not depend on rm and stays green
        real = spinfields.level_block
        monkeypatch.setattr(spinfields, "level_block",
                            lambda n, rm, theta: 2 * real(n, 0.0, theta) - real(n, rm, theta))
        assert self.red_ids(tmp_path) == ["oracle.hamiltonian_vs_grid"]

    def test_d_theta_entry_moved_to_another_phi_mode(self, tmp_path, monkeypatch):
        # the field-side action then leaks out of its level, which is a red
        # check (exit 1), not a usage error; level_block is untouched, so
        # the conservation check stays green
        real = spinfields.d_theta_pair

        def moved(rm):
            a, b = real(rm)
            entry = geometry.HypFn({(p, q, k + 1): c for (p, q, k), c in a[0][1].terms.items()})
            return ((a[0][0], entry), a[1]), b

        monkeypatch.setattr(spinfields, "d_theta_pair", moved)
        assert self.red_ids(tmp_path) == ["oracle.hamiltonian_vs_grid"]

    def test_d_theta_leak_beside_the_level_blocks(self, tmp_path, monkeypatch):
        # a 1e-6 e^{2 i phi} term leaves band 0 as it is: only the off-level
        # band it adds turns the check red
        real = spinfields.d_theta_pair

        def leaking(rm):
            a, b = real(rm)
            entry = b[1][0] + geometry.HypFn({(0, 0, 2): 1e-6})
            return a, (b[0], (entry, b[1][1]))

        monkeypatch.setattr(spinfields, "d_theta_pair", leaking)
        assert self.red_ids(tmp_path) == ["oracle.hamiltonian_vs_grid"]

    def test_flipped_gram_off_diagonal(self, tmp_path, monkeypatch):
        real = spinfields.fiber_gram

        def flipped(theta):
            g = real(theta)
            g[0, 1] *= -1
            g[1, 0] *= -1
            return g

        monkeypatch.setattr(spinfields, "fiber_gram", flipped)
        assert self.red_ids(tmp_path) == ["oracle.slice_independence"]

    def test_wrong_sign_normal(self, tmp_path, monkeypatch):
        real = geometry.frame_vectors

        def flipped(p):
            e0, e1, e2 = real(p)
            return e0, -e1, e2

        monkeypatch.setattr(geometry, "frame_vectors", flipped)
        assert self.red_ids(tmp_path) == ["oracle.extrinsic_trace"]

    def test_perturbed_embedding_component(self, tmp_path, monkeypatch):
        # the batched embedding check reads geometry_at; the extrinsic trace
        # reads the embedding's HypFn derivatives and stays green
        real = geometry.geometry_at

        def perturbed(p):
            g = real(p)
            emb = g.embedding.copy()
            emb[0] *= 1 + 1e-6
            return replace(g, embedding=emb)

        monkeypatch.setattr(geometry, "geometry_at", perturbed)
        assert self.red_ids(tmp_path) == ["oracle.embedding"]

    @staticmethod
    def scaled_slash(real):
        """slash with the x1 component of its vector scaled by 1 + 1e-6."""
        def scaled(v):
            v = np.array(v, dtype=float)
            v[1] *= 1 + 1e-6
            return real(v)
        return scaled

    def test_scaled_slash_component(self, tmp_path, monkeypatch):
        # the Clifford triads are slashed through geometry.slash; spinfields
        # binds its own name, so the Dirac pair stays green
        monkeypatch.setattr(geometry, "slash", self.scaled_slash(geometry.slash))
        assert self.red_ids(tmp_path) == ["oracle.clifford"]

    def test_scaled_slash_in_dirac_pair(self, tmp_path, monkeypatch):
        # the extrinsic Dirac value slashes the moving frame, the intrinsic
        # one does not
        monkeypatch.setattr(spinfields, "slash", self.scaled_slash(spinfields.slash))
        assert self.red_ids(tmp_path) == ["oracle.dirac_pair"]

    def test_scaled_killing_l02_phi_coefficient(self, tmp_path, monkeypatch):
        # the bracket and Casimir defects are built from the Killing fields
        # on each call, so a wrong coefficient reaches both identities
        theta_part, phi_part = geometry.KILLING_L02
        monkeypatch.setattr(geometry, "KILLING_L02", (theta_part, (1 + 1e-6) * phi_part))
        assert self.red_ids(tmp_path) == ["oracle.killing_brackets", "oracle.casimir"]

    def test_scaled_laplacian_first_order_coefficient(self, tmp_path, monkeypatch):
        # the first-order part of the Laplacian enters the Casimir only
        coefs = list(geometry.WAVE_OPERATOR)
        coefs[3] = (1 + 1e-6) * coefs[3]
        monkeypatch.setattr(geometry, "WAVE_OPERATOR", tuple(coefs))
        assert self.red_ids(tmp_path) == ["oracle.casimir"]

    def test_perturbed_b_intertwiner(self, tmp_path, monkeypatch):
        # every diagonal B intertwines gamma0, and gamma1 needs B_00 = -B_11
        monkeypatch.setattr(geometry, "B_INTERTWINER", np.diag([-1j, 1j * (1 + 1e-6)]))
        assert self.red_ids(tmp_path) == ["oracle.b_intertwiner"]


def norm_law_passes(tmp_path, monkeypatch, argv, level):
    """Whether crosscheck.norm_law passes in the report of ``argv`` with a
    T+ defect planted at ``level``."""
    with monkeypatch.context() as mp:
        plant_level("appendix_t_plus", (0, 0), level)(mp)
        out = tmp_path / "r.json"
        run([*argv, "-o", str(out)])
    [check] = [c for c in json.loads(read(out))["checks"] if c["id"] == "crosscheck.norm_law"]
    return check["pass"]


def plant_level(name, entry, level=1.5):
    """desitter.<name> with 1e-6 added to one fiber entry of the block at
    ``level``, for scalar levels and fiber-major stacks alike."""
    def patch(monkeypatch):
        real = getattr(desitter, name)

        def planted(n, rm, theta):
            blk = real(n, rm, theta).copy()
            blk[entry] += 1e-6 * (np.asarray(n) == level)
            return blk

        monkeypatch.setattr(desitter, name, planted)
    return patch


def scaled_seed(monkeypatch):
    real = desitter.seed_operators
    monkeypatch.setattr(desitter, "seed_operators",
                        lambda rm, theta: (real(rm, theta)[0] * (1 + 1e-6), real(rm, theta)[1]))


# the quadruple is assembled from the same closed-form ladder blocks, so in
# `all` a defect there also reaches the quadruple's ladder checks
LADDER_REDS = ["symmetric.sl2_pair", "symmetric.tplus_adjoint", "symmetric.tminus_adjoint",
               "charge_conjugation.tplus", "charge_conjugation.tminus"]
BOTH = ["crosscheck.recursion_vs_closed_form", "crosscheck.norm_law"]
RECURSION = ["crosscheck.recursion_vs_closed_form"]

# (name, defect, red ids of `desitter-crosscheck`, red ids of `all`, in
# report order); the norm law reads T+ only, and only the recursion reads
# the seeds
CROSSCHECK_DEFECTS = [
    ("shifted T+ block", plant_level("appendix_t_plus", (0, 0)), BOTH, LADDER_REDS + BOTH),
    ("scaled seed U+", scaled_seed, RECURSION, RECURSION),
    ("shifted T- block", plant_level("appendix_t_minus", (0, 1)), RECURSION,
     LADDER_REDS + RECURSION),
]


class TestCrosscheckPlantedDefects:
    @pytest.mark.parametrize("argv", [["desitter-crosscheck"], ["all"]], ids=["crosscheck", "all"])
    @pytest.mark.parametrize("defect,red_crosscheck,red_all",
                             [row[1:] for row in CROSSCHECK_DEFECTS],
                             ids=[row[0] for row in CROSSCHECK_DEFECTS])
    def test_defect(self, tmp_path, monkeypatch, argv, defect, red_crosscheck, red_all):
        defect(monkeypatch)
        out = tmp_path / "r.json"
        assert run([*argv, "-o", str(out)]) == 1
        checks = json.loads(read(out))["checks"]
        red = red_crosscheck if argv[0] == "desitter-crosscheck" else red_all
        assert [c["id"] for c in checks if not c["pass"]] == red


SX = np.array([[0, 1], [1, 0]], dtype=complex)
E11 = np.diag([1.0, 0.0]).astype(complex)
E_PERP = np.diag([1j, -1j])


def at_mid_level(q, block, band=0):
    """``block`` on the band-``band`` entry of level 1/2 only."""
    return from_shift(q.basis, band,
                                        lambda n: block if n == 0.5 else 0 * block)


def plant(field, defect, when=lambda params: True):
    """assemble_quadruple with q.field replaced by defect(q) when ``when`` holds."""
    def patch(monkeypatch):
        real = desitter.assemble_quadruple

        def planted(params):
            q = real(params)
            return replace(q, **{field: defect(q)}) if when(params) else q

        monkeypatch.setattr(desitter, "assemble_quadruple", planted)
    return patch


# ids that no planted defect can turn red
CANNOT_FAIL: set[str] = set()

# (id, extra argv, defect, the ids it turns red, in report order); every
# case runs `reconstruct --nmax 16` (rm 1, theta 0.3 unless argv says)
RECONSTRUCT_DEFECTS = [
    # for a perturbed iH, T_1 is the second level difference of iH times
    # u^2, so it vanishes only for iH affine in n, which keeps T_2 at 0 as
    # well: orders 1 and 2 turn red together
    ("reconstruct.order_1", [], plant("ih", lambda q: q.ih + at_mid_level(q, 1e-6 * E11)),
     ["reconstruct.order_1", "reconstruct.order_2", "reconstruct.third_order_fit"]),
    ("reconstruct.order_2", [], plant("u", lambda q: q.u + at_mid_level(q, 1e-6 * SX, 1)),
     ["reconstruct.order_1", "reconstruct.order_2", "reconstruct.third_order_fit"]),
    # a level-constant i sigma_x tilts the third order off e_perp u^2 and
    # leaves every other datum alone
    ("reconstruct.third_order_fit", [],
     plant("ih", lambda q: q.ih + TruncatedOperator.from_fiber(q.basis, 1e-6j * SX)),
     ["reconstruct.third_order_fit"]),
    ("reconstruct.mass_roundtrip", [],
     lambda mp: mp.setattr(reconstruct, "_THIRD_ORDER_C0", (2.0 / 3.0) * (1 + 1e-6)),
     ["reconstruct.mass_roundtrip"]),
    ("reconstruct.mass_roundtrip", ["--rm", "0"], plant("ih", lambda q: q.ih + 1e-6 * q.e_perp),
     ["reconstruct.massless_degeneracy", "reconstruct.mass_roundtrip"]),
    # a mass below the third-order vanishing cut still shows in the orders
    ("reconstruct.massless_degeneracy", ["--rm", "0"],
     plant("ih", lambda q: q.ih + 1e-9 * q.e_perp), ["reconstruct.massless_degeneracy"]),
    # only the 2 rm quadruple gets the extra mass
    ("reconstruct.linearity_in_mass", [],
     plant("ih", lambda q: q.ih + 1e-6 * q.e_perp, when=lambda params: params.rm == 2.0),
     ["reconstruct.linearity_in_mass"]),
    # e_perp scaled by 1 + 1e-6 on one level: the per-level fits absorb it
    ("reconstruct.lapse_mass", [],
     plant("e_perp", lambda q: q.e_perp + at_mid_level(q, 1e-6 * E_PERP)),
     ["reconstruct.lapse_mass"]),
    # a level-scalar i n commutes with every fiber and moves [iH, u] along u
    ("reconstruct.shift", [],
     plant("ih", lambda q: q.ih + from_level_diagonal(
         q.basis, lambda n: 1e-6j * n * np.eye(2))),
     ["reconstruct.shift"]),
    ("reconstruct.adm_shape", [],
     plant("gamma", lambda q: q.gamma + at_mid_level(q, 1e-6 * E_PERP)),
     ["reconstruct.adm_shape"]),
]


class TestReconstructPlantedDefects:
    """Each planted defect turns exactly the reconstruct ids listed red."""

    def test_table_covers_the_registry(self):
        ids = {key for key in DEFAULT_TOLERANCES if key.startswith("reconstruct.")}
        assert {row[0] for row in RECONSTRUCT_DEFECTS} | CANNOT_FAIL == ids
        assert all(CANNOT_FAIL.isdisjoint(row[3]) for row in RECONSTRUCT_DEFECTS)

    @pytest.mark.parametrize("cid,argv,defect,red", RECONSTRUCT_DEFECTS,
                             ids=[" ".join([row[0], *row[1]]) for row in RECONSTRUCT_DEFECTS])
    def test_defect(self, tmp_path, monkeypatch, cid, argv, defect, red):
        defect(monkeypatch)
        out = tmp_path / "r.json"
        assert run(["reconstruct", "--nmax", "16", *argv, "-o", str(out)]) == 1
        checks = json.loads(read(out))["checks"]
        assert cid in red
        assert [c["id"] for c in checks if not c["pass"]] == red


class TestReconstructResolutionLimit:
    """Outcomes where the third-order term falls under its vanishing cut.

    kappa(rm) comes from ``fit_third_order`` and kappa(2 rm) from
    ``third_order_coefficient``, through the same cut, so below it both
    read 0 and linearity holds; the mass itself is then not recovered,
    which only the roundtrip shows once rm is above its bound."""

    @pytest.mark.parametrize("argv,red", [
        (["--rm", "1e-11"], []),
        (["--rm", "1e-13"], []),
        # rm under the cut and 2 rm over it: the two sides disagree; item 9
        # (a "below resolution" note) should turn it green
        (["--rm", "3e-11"], ["reconstruct.linearity_in_mass"]),
        # cosh^2(30) pushes kappa under the cut at rm = 1; item 9 (which
        # datum the round trip reads at large theta) should turn it green
        (["--theta", "30"], ["reconstruct.mass_roundtrip"]),
        # the fit residual's roundoff is fixed while kappa ~ rm, so it reads
        # about 1.2e-15 / rm against the fixed 1e-8; item 3's derived
        # bound should turn both green
        (["--rm", "1e-7"], ["reconstruct.third_order_fit"]),
        (["--rm", "1e-8"], ["reconstruct.third_order_fit"]),
    ], ids=["rm-1e-11", "rm-1e-13", "rm-3e-11", "theta-30", "rm-1e-7", "rm-1e-8"])
    def test_red_ids(self, tmp_path, argv, red):
        out = tmp_path / "r.json"
        assert run(["reconstruct", *argv, "-o", str(out)]) == (1 if red else 0)
        checks = json.loads(read(out))["checks"]
        assert [c["id"] for c in checks if not c["pass"]] == red

    def test_kappa_of_2rm_builds_no_adm_commutator(self, tmp_path, monkeypatch):
        # only the rm side reads a mass scale, so only it needs [[iH, e_perp], u]
        calls = []
        real = quad.SpectralQuadruple.adm_commutator.func
        adm = functools.cached_property(lambda q: calls.append(q) or real(q))
        adm.__set_name__(quad.SpectralQuadruple, "adm_commutator")
        monkeypatch.setattr(quad.SpectralQuadruple, "adm_commutator", adm)
        assert run(["reconstruct", "--nmax", "16", "-o", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 1


class TestVerifyOutsideTheGrid:
    def test_theta_700_reads_red_on_noncommutative_only(self, tmp_path):
        # n / cosh(700) is about 1e-304, so e^{iH} is the level-independent
        # phase diag(e^{i rm}, e^{-i rm}) to the last bit, which commutes
        # with u: ||[u(1), u]|| reads 0 against the fixed 1e-4, and every
        # other id stays green.  Item 11's declared envelope should settle
        # it: a theta outside the box runs as now and its notes say so
        out = tmp_path / "r.json"
        assert run(["quadruple-verify", "--theta", "700", "-o", str(out)]) == 1
        checks = json.loads(read(out))["checks"]
        assert [c["id"] for c in checks if not c["pass"]] == ["evolution.noncommutative"]


class TestReportFormat:
    def test_json_schema(self, tmp_path):
        out = tmp_path / "r.json"
        run(["sl2-classify", "--r2m2", "-1", "-o", str(out)])
        report = json.loads(read(out))
        assert report["version"] == 1
        assert report["subcommand"] == "sl2-classify"
        assert {"id", "residual", "tolerance", "pass", "margin", "notes"} \
            <= set(report["checks"][0])
        classification = [c for c in report["checks"]
                          if c["id"] == "sl2.classification"][0]
        assert "discrete_bounded_below(n0=0.5)" in classification["notes"]

    def test_csv_projection(self, tmp_path):
        out = tmp_path / "r.csv"
        run(["desitter-crosscheck", "--format", "csv", "-o", str(out)])
        lines = read(out).splitlines()
        assert lines[0] == "id,residual,tolerance,pass,margin,notes"
        assert len(lines) >= 3

    def test_finite_distance_value(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["finite-distance", "--m", "2", "-o", str(out)]) == 0
        report = json.loads(read(out))
        assert "d = 0.5" in report["checks"][0]["notes"]

    @pytest.mark.parametrize("m,code,residual,d", [
        ("1e308", 0, 0.0, "1e-308"), ("1e200", 0, 0.0, "1e-200"), ("3+4j", 0, 0.0, "0.2"),
        # ||D|| = sqrt(2) |m| is above the largest float here
        ("1.3e308", 0, 0.0, "7.69230769e-309"), ("1.7976931348623157e308", 0, 0.0, "5.56268465e-309"),
        # a tiny mass is a large finite distance: the zero test is relative
        # to ||D||, with no absolute floor
        ("1e-12", 0, 0.0, "1e+12"), ("1e-12+2e-12j", 0, 0.0, "4.47213595e+11"),
        ("3e-150j", 0, 0.0, "3.33333333e+149"), ("1e-300", 0, 0.0, "1e+300"),
        ("2e-308", 0, 0.0, "5e+307")])
    def test_finite_distance_at_extreme_masses(self, tmp_path, m, code, residual, d):
        # the norms are taken in units of a power of two, so entries near
        # the float limits neither overflow nor underflow
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["finite-distance", "--m", m, "-o", str(out)]) == code
        [check] = json.loads(read(out))["checks"]
        assert check["residual"] == residual
        assert check["notes"].startswith(f"d = {d}, ")

    def test_finite_distance_bound_widens_below_float_spacing(self, tmp_path):
        # 1e-6 down to |m| = 1.8e-9, then 8 float spacings of d = 1 / |m|
        for m, bound in (("2", 1e-6), ("1.8e-9", 1e-6), ("1e-12", 8 * 2.0 ** -52 * 1e12)):
            out = tmp_path / "r.json"
            run(["finite-distance", "--m", m, "-o", str(out)])
            [check] = json.loads(read(out))["checks"]
            assert check["tolerance"] == bound, m

    def test_finite_distance_overflowing_inverse_mass_is_usage_error(self, tmp_path, capsys):
        # 1 / 1e-310 is above the largest double
        out = tmp_path / "r.json"
        assert run(["finite-distance", "--m", "1e-310", "-o", str(out)]) == 2
        assert "--m" in capsys.readouterr().err
        assert not out.exists()

    def test_stdout_when_no_output(self, capsys):
        assert run(["desitter-crosscheck", "--nmax", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True


class TestRenderJson:
    """A JSON report is json.dumps(payload, separators=(",\\n", ": ")) + "\\n"."""

    def test_report_rows_take_the_template(self):
        rep = quad.AxiomReport()
        rep.add("sl2.classification", 0.0, notes="n")
        assert tuple(rep.as_dicts()[0]) == ("id", "residual", "tolerance", "pass", "margin",
                                            "notes")

    @pytest.mark.parametrize("argv", [["all", "--nmax", "8"], ["sweep", "--nmax", "8"]])
    def test_reports_match_json_dumps(self, tmp_path, argv):
        out = tmp_path / "r.json"
        assert run([*argv, "-o", str(out)]) == 0
        text = read(out)
        assert text == json.dumps(json.loads(text), separators=(",\n", ": ")) + "\n"

    def test_nan_and_infinity_spelling(self, tmp_path, monkeypatch):
        # json's spelling of the non-finite floats, which json.loads reads back
        monkeypatch.setattr(cli.sl2, "verify_ladder_recursion", lambda r2m2, ns: math.nan)
        out = tmp_path / "r.json"
        assert run(["sl2-classify", "--r2m2", "1", "--tol", "sl2.ladder_recursion=inf",
                    "--tol", "sl2.ladder_closed_form=-inf", "-o", str(out)]) == 1
        text = read(out)
        assert '"residual": NaN,\n"tolerance": Infinity,\n"pass": false,\n' in text
        assert '"tolerance": -Infinity,\n' in text
        recursion, closed = json.loads(text)["checks"][:2]
        assert math.isnan(recursion["residual"]) and recursion["tolerance"] == math.inf
        assert closed["tolerance"] == -math.inf


class TestConfigFile:
    def test_values_and_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rm = 2.0\ntheta = 0.3\nnmax = 16\n# comment\n"
                       "tol.first_order.u_u = 1e-6\n")
        out = tmp_path / "r.json"
        assert run(["quadruple-verify", "--config", str(cfg), "-o", str(out)]) == 0
        report = json.loads(read(out))
        assert report["params"]["rm"] == 2.0
        fo = [c for c in report["checks"] if c["id"] == "first_order.u_u"][0]
        assert fo["tolerance"] == 1e-6

    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rm = 2.0\nnmax = 16\n")
        out = tmp_path / "r.json"
        run(["quadruple-verify", "--config", str(cfg), "--rm", "0.5",
             "-o", str(out)])
        assert json.loads(read(out))["params"]["rm"] == 0.5

    def test_flag_at_its_default_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nmax = 16\ntol.first_order.u_u = 1e-6\n")
        out = tmp_path / "r.json"
        assert run(["quadruple-verify", "--nmax", "32", "--config", str(cfg),
                    "--tol", "first_order.u_u=1e-9", "-o", str(out)]) == 0
        report = json.loads(read(out))
        assert report["params"]["nmax"] == 32
        fo = [c for c in report["checks"] if c["id"] == "first_order.u_u"][0]
        assert fo["tolerance"] == 1e-9

    @pytest.mark.parametrize("line", ["format = xml", "nmax = 16.5", "rm = heavy"])
    def test_config_values_get_the_flag_checks(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run(["quadruple-verify", "--nmax", "8", "--config", str(cfg), "-o", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert run(["quadruple-verify", "--config", str(cfg)]) == 2

    def test_missing_config_rejected(self, tmp_path):
        assert run(["quadruple-verify", "--config", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize("key", ["subcommand", "run"])
    def test_key_that_is_no_flag_rejected(self, tmp_path, capsys, key):
        # the namespace holds the subcommand and its dispatch too; only the
        # subcommand's flags are config keys
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = sweep\n")
        out = tmp_path / "r.json"
        assert run(["quadruple-verify", "--nmax", "8", "--config", str(cfg), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"specquad: error: unknown config key {key!r}\n"
        assert not out.exists()


# the params echo of each run, key order included: the subcommand's own
# flags in declaration order, --m as str(m)
PARAMS_ECHO = [
    (["sl2-classify", "--r2m2", "-0.25"], [("r2m2", -0.25), ("lattice", "half_integer")]),
    (["quadruple-verify"], [("rm", 1.0), ("theta", 0.3), ("nmax", 32), ("margin", 4)]),
    (["reconstruct"], [("rm", 1.0), ("theta", 0.3), ("nmax", 32), ("margin", 4)]),
    (["desitter-crosscheck"], [("rm", 1.0), ("theta", 0.5), ("nmax", 16)]),
    (["finite-verify"], [("m", "(1+0j)")]),
    (["finite-distance"], [("m", "(1+0j)")]),
    (["oracle-check"], [("seed", 20201121)]),
    (["all"], [("rm", 1.0), ("theta", 0.3), ("nmax", 32), ("margin", 4), ("seed", 20201121)]),
    (["sweep"], [("rm", [0.0, 0.5, 1.0, 2.0]), ("theta", [0.0, 0.3, 1.0]), ("nmax", 32),
                 ("margin", 4)]),
    (["sweep", "--rm", "0,1", "--theta", "0.2"],
     [("rm", [0.0, 1.0]), ("theta", [0.2]), ("nmax", 32), ("margin", 4)]),
    (["finite-verify", "--m", "1-2j"], [("m", "(1-2j)")]),
]


@pytest.mark.parametrize("argv,echo", PARAMS_ECHO, ids=[" ".join(a) for a, _ in PARAMS_ECHO])
def test_params_echo(tmp_path, argv, echo):
    out = tmp_path / "r.json"
    assert run([*argv, "-o", str(out)]) == 0
    assert list(json.loads(read(out))["params"].items()) == echo


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_overrides_do_not_reach_the_next_run(self, tmp_path):
        # the parser is shared by every run of a process, so a --tol list or
        # a config file must leave nothing behind in it
        base = ["quadruple-verify", "--nmax", "8"]
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rm = 2.0\ntol.first_order.u_u = -1\n")
        assert run([*base, "-o", str(before)]) == 0
        assert run([*base, "--tol", "first_order.u_u=-1", "--tol", "first_order.usq_u=1e-3",
                    "-o", str(tmp_path / "tol.json")]) == 1
        assert run([*base, "--config", str(cfg), "-o", str(tmp_path / "cfg.json")]) == 1
        assert run([*base, "-o", str(after)]) == 0
        assert read(after) == read(before)
        checks = json.loads(read(after))["checks"]
        assert all(c["tolerance"] == DEFAULT_TOLERANCES[registry_key(c["id"])] for c in checks)


def test_oracle_and_crosscheck_operation_counts(tmp_path, monkeypatch):
    # the oracle and crosscheck sections evaluate each formula once per batch
    # of points or levels, not once per point or level
    counts = {"frame_vectors": 0, "hypfn": 0, "ladder": 0}

    def count(key, fn):
        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(geometry, "frame_vectors", count("frame_vectors", geometry.frame_vectors))
    monkeypatch.setattr(geometry.HypFn, "__call__", count("hypfn", geometry.HypFn.__call__))
    for name in ("appendix_t_plus", "appendix_t_minus"):
        monkeypatch.setattr(desitter, name, count("ladder", getattr(desitter, name)))
    assert run(["oracle-check", "-o", str(tmp_path / "oracle.json")]) == 0
    # the Killing and Casimir defects are 11 coefficient functions read at
    # the 50 points at once, and the Dirac pair reads no field
    assert counts["frame_vectors"] <= 2 and counts["hypfn"] <= 40
    assert counts["ladder"] == 0
    assert run(["desitter-crosscheck", "-o", str(tmp_path / "crosscheck.json")]) == 0
    assert counts["ladder"] <= 4


def test_all_and_finite_verify_build_each_object_once(tmp_path, monkeypatch):
    # `all` assembles the (rm, theta) quadruple once for its quadruple and
    # reconstruct sections, and the 2 rm one for linearity; the finite
    # sections build the two-point triple once each, plus the two triples
    # of its schedule, and write the algebra into blocks without np.kron
    counts = {"assemble": 0, "kron": 0, "triples": 0}

    def count(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(desitter, "assemble_quadruple",
                        count("assemble", desitter.assemble_quadruple))
    monkeypatch.setattr(np, "kron", count("kron", np.kron))
    monkeypatch.setattr(finite.FiniteTriple, "__init__",
                        count("triples", finite.FiniteTriple.__init__))
    assert run(["all", "-o", str(tmp_path / "all.json")]) == 0
    assert counts == {"assemble": 2, "kron": 0, "triples": 4}
    counts.update(assemble=0, triples=0)
    assert run(["finite-verify", "-o", str(tmp_path / "finite.json")]) == 0
    assert counts == {"assemble": 0, "kron": 0, "triples": 3}


@pytest.mark.parametrize("seed", [cli.DEFAULT_SEED, 1, 2])
def test_batched_sections_match_per_point_loops(seed):
    # the loops the oracle and crosscheck sections ran before they were
    # batched, as the reference: the same floats where the arithmetic is the
    # same, within 1e-14 where a 2x2 matmul or a scalar power became an
    # explicit fiber sum or an array square
    rng = np.random.default_rng(seed)
    pts = [geometry.ChartPoint(float(th), float(ph))
           for th, ph in zip(rng.uniform(-1.5, 1.5, 50), rng.uniform(0, 2 * np.pi, 50))]
    triads = [(geometry.GAMMA0, geometry.GAMMA1, geometry.GAMMA2)] + [
        tuple(map(geometry.slash, geometry.frame_vectors(p))) for p in pts[:20]]
    levels = BasisDescriptor.spinor(16).level_array
    ladder = [desitter.appendix_t_plus(n, 1.0, 0.3) for n in levels]
    close = {
        "oracle.embedding": max(abs(-e[0] ** 2 + e[1] ** 2 + e[2] ** 2 - 1.0)
                                for e in (geometry.geometry_at(p).embedding for p in pts)),
        "oracle.clifford": max(float(np.abs(s[i] @ s[j] + s[j] @ s[i]
                                            - 2 * geometry.ETA[i, j] * np.eye(2)).max())
                               for s in triads for i in range(3) for j in range(3)),
        "crosscheck.norm_law": max(
            float(np.abs(b @ b.conj().T - ((n + 0.5) ** 2 + 1.0) * np.eye(2)).max())
            / ((n + 0.5) ** 2 + 1.0) for n, b in zip(levels, ladder)),
    }
    checks = {c.check_id: c.residual
              for c in [*cli._section_oracle(seed), *cli._section_crosscheck(1.0, 0.3, 16)]}
    assert checks["oracle.extrinsic_trace"] == max(
        abs(geometry.embedding_extrinsic_trace(p) - 2.0) for p in pts)
    for cid, ref in close.items():
        assert abs(checks[cid] - ref) <= 1e-14, cid


class TestSweep:
    def test_grid_shape_and_pass(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run(["sweep", "--rm", "0,1", "--theta", "0,0.3", "--nmax", "16",
                    "--margin", "4", "-o", str(out)])
        assert code == 0
        report = json.loads(read(out))
        assert len(report["grid"]) == 4
        assert report["aggregate"]["passed"] is True
        assert report["aggregate"]["pass_matrix"] == [[True, True], [True, True]]

    def test_too_small_truncation_annotated(self, tmp_path, capsys):
        # every point shares nmax and the margin: a usage error, no report
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--nmax", "4", "-o", str(out)]) == 2
        assert "margin 4 needs nmax >= 5, not 4" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_error_is_not_a_skipped_point(self, tmp_path, monkeypatch):
        # an error raised by a check propagates: no point is skipped
        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "verify_points", boom)
        out = tmp_path / "sweep.json"
        with pytest.raises(ValueError, match="boom"):
            run(["sweep", "--rm", "1", "--theta", "0", "--nmax", "8", "-o", str(out)])
        assert not out.exists()

    def test_empty_grid_is_usage_error(self):
        assert run(["sweep", "--rm", "", "--theta", "1"]) == 2

    @pytest.mark.parametrize("argv,flag", [
        (["sweep", "--rm", "1,nan"], "--rm"), (["sweep", "--theta", "0.3,inf"], "--theta"),
        (["sweep", "--rm=-inf"], "--rm"), (["quadruple-verify", "--rm", "nan"], "--rm"),
        (["all", "--theta", "inf"], "--theta"), (["reconstruct", "--rm", "inf"], "--rm"),
        (["desitter-crosscheck", "--theta", "nan"], "--theta"),
        # finite, but cosh(theta) overflows a double
        (["quadruple-verify", "--theta", "711"], "--theta"),
        (["desitter-crosscheck", "--theta", "711"], "--theta"),
        (["all", "--theta", "711"], "--theta"), (["reconstruct", "--theta=-711"], "--theta"),
        (["sweep", "--theta", "0,711"], "--theta"),
        # finite, but the squares the checks form of (2 rm)^2 overflow
        (["all", "--rm", "1e200"], "--rm"), (["desitter-crosscheck", "--rm", "1e200"], "--rm"),
        (["sweep", "--rm", "0,1e200"], "--rm"),
    ])
    def test_non_finite_parameter_is_usage_error(self, tmp_path, monkeypatch, capsys, argv, flag):
        # rejected by its flag before any quadruple is built, so no numpy
        # call warns on the value
        def refuse(params):
            raise AssertionError("a quadruple was built")

        monkeypatch.setattr(desitter, "assemble_quadruple", refuse)
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*argv, "--nmax", "8", "-o", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sc", ["quadruple-verify", "desitter-crosscheck", "all"])
    def test_theta_at_the_edge_of_cosh_range_runs(self, tmp_path, sc):
        # cosh(710) is still a double: the run checks it, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([sc, "--theta", "710", "--nmax", "8", "-o", str(tmp_path / "r.json")]) != 2

    @pytest.mark.parametrize("sc", ["quadruple-verify", "desitter-crosscheck", "all",
                                    "reconstruct", "sweep"])
    def test_rm_at_the_edge_of_its_range_runs(self, tmp_path, capsys, sc):
        # the largest accepted |rm| runs with no warning, the next double is
        # a usage error
        edge = cli.RM_MAX
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rm in (edge, -edge):
                assert run([sc, f"--rm={rm!r}", "--nmax", "8", "-o", str(tmp_path / "r.json")]) != 2
        above = math.nextafter(edge, math.inf)
        assert run([sc, f"--rm={above!r}", "--nmax", "8", "-o", str(tmp_path / "r.json")]) == 2
        assert "--rm" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["oracle-check", "--seed", "-1"], ["all", "--seed=-1"],
                                      ["oracle-check", "--config", "{cfg}"]],
                             ids=["oracle-check", "all", "config"])
    def test_negative_seed_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        def refuse(seed):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(cli, "_section_oracle", refuse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        out = tmp_path / "r.json"
        assert run([a.format(cfg=cfg) for a in argv] + ["-o", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def sweep_cells(tmp_path, nmax=16):
        out = tmp_path / "sweep.json"
        run(["sweep", "--nmax", str(nmax), "-o", str(out)])
        return json.loads(read(out))["grid"]

    def test_single_point_grid_equals_run(self, tmp_path):
        # a 1 x 1 grid: a batch of one point
        sweep_out = tmp_path / "sweep.json"
        run_out = tmp_path / "run.json"
        run(["sweep", "--rm", "1.0", "--theta", "0.3", "--nmax", "16",
             "--margin", "4", "-o", str(sweep_out)])
        run(["quadruple-verify", "--rm", "1.0", "--theta", "0.3",
             "--nmax", "16", "--margin", "4", "-o", str(run_out)])
        cell = json.loads(read(sweep_out))["grid"][0]
        assert cell["checks"] == json.loads(read(run_out))["checks"]
        assert cell["passed"] and not cell["skipped"]

    def test_grid_cells_equal_run(self, tmp_path):
        # every cell of the batched sweep is the report of its point checked
        # alone, rm = 0 cells (no evolution row) included
        cells = self.sweep_cells(tmp_path)
        assert len(cells) == 12
        for cell in cells:
            p = cell["params"]
            out = tmp_path / "run.json"
            run(["quadruple-verify", "--rm", repr(p["rm"]), "--theta", repr(p["theta"]),
                 "--nmax", "16", "--margin", str(p["margin"]), "-o", str(out)])
            assert cell["checks"] == json.loads(read(out))["checks"], p
            assert cell["passed"] and not cell["skipped"]

    def test_grid_split_into_batches_equals_one_batch(self, tmp_path, monkeypatch):
        # batches of 5, 5 and 2 points give the cells of one 12-point batch
        whole = self.sweep_cells(tmp_path)
        monkeypatch.setattr(cli, "SWEEP_BATCH", 5)
        assert self.sweep_cells(tmp_path) == whole

    # the grid point a defect is planted at: rm 1, theta 0.3 of the
    # default 4 x 3 grid
    POINT = 7

    def assert_only_point_red(self, tmp_path, monkeypatch, plant, red):
        """Planting the defect turns exactly the ``red`` ids of the cell at
        POINT red and leaves every other cell as it was."""
        clean = self.sweep_cells(tmp_path)
        plant(monkeypatch)
        cells = self.sweep_cells(tmp_path)
        assert (cells[self.POINT]["params"]["rm"], cells[self.POINT]["params"]["theta"]) == (1, 0.3)
        for k, (cell, ref) in enumerate(zip(cells, clean)):
            if k == self.POINT:
                assert [c["id"] for c in cell["checks"] if not c["pass"]] == red
            else:
                assert cell == ref, cell["params"]

    def test_defect_at_one_point_reddens_its_cell_only(self, tmp_path, monkeypatch):
        def plant(mp):
            # 1e-6 on the T+ block leaving level 1/2 at one grid point
            real = desitter.assemble_quadruple

            def planted(params):
                q = real(params)
                blocks = np.array(q.t_plus.band(1))
                blocks[:, :, self.POINT, level_index(q.basis, 0.5)] += 1e-6 * np.eye(2)
                return replace(q, t_plus=TruncatedOperator(q.basis, {1: blocks}))

            mp.setattr(desitter, "assemble_quadruple", planted)

        self.assert_only_point_red(tmp_path, monkeypatch, plant, LADDER_REDS)

    def test_frozen_evolution_at_one_point_reddens_noncommutative(self, tmp_path, monkeypatch):
        def plant(mp):
            # e^{iH} = 1 at one grid point: u(1) = u commutes with u there
            real = quad._expm2

            def frozen(a):
                out = np.array(real(a))
                out[:, :, self.POINT] = np.eye(2)[..., None]
                return out

            mp.setattr(quad, "_expm2", frozen)

        self.assert_only_point_red(tmp_path, monkeypatch, plant, ["evolution.noncommutative"])


class TestDeterminism:
    def test_repeat_runs_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(["quadruple-verify", "--rm", "1", "--theta", "0.3",
                        "--nmax", "16", "--margin", "4", "-o", str(path)]) == 0
        assert read(a) == read(b)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        out = tmp_path / "r.json"
        run(["desitter-crosscheck", "--nmax", "8", "-o", str(out)])
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".specquad")]
        assert leftovers == []


class TestOutputPath:
    def test_directory_output_is_usage_error(self, tmp_path, capsys):
        # the report cannot replace a directory: exit 2, as for an unreadable
        # config, not a traceback
        assert run(["desitter-crosscheck", "--nmax", "8", "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"specquad: error: cannot write report {tmp_path}: Is a directory\n"
        assert os.listdir(tmp_path) == []

    def test_output_in_missing_directory_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert run(["desitter-crosscheck", "--nmax", "8", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"specquad: error: cannot write report {out}: No such file or directory\n"
        assert os.listdir(tmp_path) == []

    def test_symlinked_output_writes_the_target(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old", encoding="utf-8")
        link.symlink_to(target)
        run(["desitter-crosscheck", "--nmax", "8", "-o", str(link)])
        assert link.is_symlink()
        assert json.loads(read(target))["subcommand"] == "desitter-crosscheck"

    def test_new_report_gets_the_umask_mode(self, tmp_path):
        out = tmp_path / "r.json"
        old = os.umask(0o022)
        try:
            run(["desitter-crosscheck", "--nmax", "8", "-o", str(out)])
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o644

    def test_existing_report_keeps_its_mode(self, tmp_path):
        out = tmp_path / "r.json"
        out.write_text("old", encoding="utf-8")
        out.chmod(0o640)
        run(["desitter-crosscheck", "--nmax", "8", "-o", str(out)])
        assert out.stat().st_mode & 0o777 == 0o640
        assert json.loads(read(out))["subcommand"] == "desitter-crosscheck"

    def test_fifo_output_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "r.fifo"
        os.mkfifo(fifo)
        # a reader must hold the FIFO open before a writer can open it
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            run(["desitter-crosscheck", "--nmax", "8", "-o", str(fifo)])
            data = os.read(fd, 1 << 16)
        finally:
            os.close(fd)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert json.loads(data)["subcommand"] == "desitter-crosscheck"


# (id, tolerance, margin, notes) of every row of a default report, in order;
# a notes entry of None is computed from the run (a median, a measured
# value), and so is the tolerance None of reconstruct.linearity_in_mass,
# which scales with kappa.  No residual is compared.
VERIFY_ROWS = [
    ('time_vector.square', 1e-14, 0, ''),
    ('time_vector.antihermitian', 1e-14, 0, ''),
    ('volume.gamma_square', 1e-14, 0, 'gamma^2 = +1'),
    ('volume.braiding', 1e-14, 0, '{e_perp, gamma}, even dim'),
    ('symmetric.t21_u', 1e-10, 2, ''),
    ('symmetric.t21_e_perp', 1e-10, 2, ''),
    ('symmetric.t21_gamma', 1e-10, 2, ''),
    ('symmetric.sl2_raise', 1e-10, 2, ''),
    ('symmetric.sl2_lower', 1e-10, 2, ''),
    ('symmetric.sl2_pair', 1e-10, 2, ''),
    ('symmetric.tplus_adjoint', 1e-10, 2, ''),
    ('symmetric.tminus_adjoint', 1e-10, 2, ''),
    ('charge_conjugation.square', 1e-12, 2, 'C^2 = +1 for n = 2'),
    ('charge_conjugation.t21', 1e-10, 2, ''),
    ('charge_conjugation.tplus', 1e-10, 2, ''),
    ('charge_conjugation.tminus', 1e-10, 2, ''),
    ('charge_conjugation.u', 1e-10, 2, 'C u = u* C'),
    ('charge_conjugation.generator', 1e-10, 2, 'C iH = iH C'),
    ('algebra.u_unitary', 1e-12, 1, ''),
    ('first_order.u_u', 1e-10, 2, ''),
    ('first_order.usq_u', 1e-10, 3, ''),
    ('first_order.u_uadj', 1e-10, 2, ''),
    ('orientability.membership', 1e-08, 4, ''),
    ('spatial.selfadjoint', 1e-08, 4, ''),
    ('spatial.bounded_uniform', 1e-08, 4, None),
    ('spatial.first_order', 1e-08, 4, ''),
    ('spatial.eigenspace_algebra', 1e-12, 4, ''),
]
ALL_ROWS = [
    ('sl2.ladder_recursion', 1e-14, 0, ''),
    ('sl2.ladder_closed_form', 0.0, 0, ''),
    ('sl2.classification', 0.0, 0,
     'principal_half_integer [complementary bound read as 0 >= r2m2 > -1/4]'),
    *VERIFY_ROWS,
    ('evolution.noncommutative', 0.0, 0, None),
    ('crosscheck.recursion_vs_closed_form', 1e-12, 0, ''),
    ('crosscheck.norm_law', 1e-12, 0,
     'T+(n) T+(n)* = ((n+1/2)^2 + rm^2) 1, relative to (n+1/2)^2 + rm^2'),
    ('reconstruct.order_1', 1e-10, 0, ''),
    ('reconstruct.order_2', 1e-10, 0, ''),
    ('reconstruct.third_order_fit', 1e-08, 0, None),
    ('reconstruct.mass_roundtrip', 1e-08, 0, None),
    ('reconstruct.linearity_in_mass', None, 0, 'kappa(2 rm) vs 2 kappa(rm)'),
    ('reconstruct.lapse_mass', 1e-08, 0, 'fiber trace of iH e_perp'),
    ('reconstruct.shift', 1e-10, 0, ''),
    ('reconstruct.adm_shape', 1e-10, 0, ''),
    ('finite.selfadjoint', 1e-12, 0, ''),
    ('finite.j_commutes', 1e-12, 0, ''),
    ('finite.gamma_anticommutes', 1e-12, 0, ''),
    ('finite.first_order', 1e-12, 0, ''),
    ('finite.sign_table', 0.0, 0, 'mismatches against the KO-dimension sign table of Connes '
     '(J. Math. Phys. 36, 1995), n in [0, 15]'),
    ('finite.e_perp_square@0', 1e-12, 0, 't = 0'),
    ('finite.e_perp_antihermitian@0', 1e-12, 0, 't = 0'),
    ('finite.volume_braiding@0', 1e-12, 0, 't = 0'),
    ('finite.e_perp_square@1', 1e-12, 0, 't = 1'),
    ('finite.e_perp_antihermitian@1', 1e-12, 0, 't = 1'),
    ('finite.volume_braiding@1', 1e-12, 0, 't = 1'),
    ('finite.distance', 1e-06, 0, None),
    ('oracle.embedding', 1e-12, 0, ''),
    ('oracle.extrinsic_trace', 1e-09, 0, 'K_A^A = (n-1)/R with n = 3 the embedding dimension'),
    ('oracle.killing_brackets', 1e-09, 0, ''),
    ('oracle.casimir', 1e-09, 0, ''),
    ('oracle.clifford', 1e-12, 0, ''),
    ('oracle.b_intertwiner', 1e-14, 0, ''),
    ('oracle.dirac_pair', 1e-09, 0, ''),
    ('oracle.hamiltonian_vs_grid', 1e-09, 0, 'hamiltonian_theta and level_block theta-derivative '
     'blocks vs grid T-action, |n| <= 11/2'),
    ('oracle.slice_independence', 1e-08, 0,
     "(cosh G)' + M_n^* cosh G + cosh G M_n, |n| <= 11/2, theta in {0, 0.35, 0.7}"),
    ('oracle.minkowski_commutation', 1e-08, 0, ''),
]


def report_rows(checks, pinned):
    """(id, tolerance, margin, notes) of each report row, the parts that its
    row of ``pinned`` leaves open set to None; a report with more or fewer
    rows than ``pinned`` raises."""
    return [(c["id"], None if want[1] is None else c["tolerance"], c["margin"],
             None if want[3] is None else c["notes"])
            for c, want in zip(checks, pinned, strict=True)]


class TestReportStructure:
    def test_all_rows_and_fixed_notes(self, tmp_path):
        out = tmp_path / "all.json"
        assert run(["all", "-o", str(out)]) == 0
        assert report_rows(json.loads(read(out))["checks"], ALL_ROWS) == ALL_ROWS

    def test_sweep_cell_rows_and_fixed_notes(self, tmp_path):
        # the default grid's first cell, rm = 0: no evolution row
        out = tmp_path / "sweep.json"
        assert run(["sweep", "-o", str(out)]) == 0
        cell = json.loads(read(out))["grid"][0]
        assert cell["params"] == {"rm": 0.0, "theta": 0.0, "nmax": 32, "margin": 4}
        assert cell["skipped"] is False and cell["notes"] == ""
        assert report_rows(cell["checks"], VERIFY_ROWS) == VERIFY_ROWS
