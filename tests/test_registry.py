"""The tolerance registry: one table of default bounds, overrides applied by
report id on finished reports, unknown ids rejected."""

import json
import re
from pathlib import Path

import pytest

from specquad import cli, finite, quadruple
from specquad.cli import run
from specquad.quadruple import DEFAULT_TOLERANCES, registry_key


def report(tmp_path, argv):
    out = tmp_path / "r.json"
    code = run(argv + ["-o", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def checks_of(payload):
    if "checks" in payload:
        return payload["checks"]
    return [c for entry in payload["grid"] for c in entry["checks"]]


def by_id(payload):
    return {c["id"]: c for c in checks_of(payload)}


class TestUnknownIds:
    def test_flag_typo_exits_two_and_names_the_id(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["quadruple-verify", "--nmax", "16",
                    "--tol", "symmetric.sl2_pai=1", "-o", str(out)]) == 2
        assert "symmetric.sl2_pai" in capsys.readouterr().err
        assert not out.exists()

    def test_config_typo_exits_two_and_names_the_id(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nmax = 16\ntol.bogus = 1\n")
        assert run(["quadruple-verify", "--config", str(cfg)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_suffixed_id_is_not_a_key(self):
        assert run(["finite-verify", "--tol", "finite.e_perp_square@0=1"]) == 2

    def test_removed_aliases_are_rejected(self):
        assert run(["finite-verify", "--tol", "finite.validation=1"]) == 2
        assert run(["finite-verify", "--tol", "finite.quadruple=1"]) == 2

    def test_api_raises_before_any_check_runs(self, monkeypatch, capsys):
        # overrides apply to finished reports only; the ids are validated
        # before a section runs, and AxiomReport.override is the one place
        # that applies them
        def reached(*args, **kwargs):
            raise AssertionError("a check ran with an unknown override id")

        monkeypatch.setattr(quadruple, "check_time_vector", reached)
        assert run(["quadruple-verify", "--nmax", "8", "--tol", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err
        with pytest.raises(ValueError, match="bogus"):
            quadruple.validate_overrides({"bogus": 1.0})

    def test_report_override_rejects_unknown_ids(self):
        rep = quadruple.AxiomReport()
        rep.add("time_vector.square", 0.0)
        with pytest.raises(ValueError):
            rep.override({"time_vector.squares": 1.0})


class TestOverrides:
    def test_finite_checks_listen_to_their_report_ids(self, tmp_path):
        code, payload = report(tmp_path, ["finite-verify",
                                          "--tol", "finite.selfadjoint=-1"])
        assert code == 1
        checks = by_id(payload)
        assert checks["finite.selfadjoint"]["tolerance"] == -1.0
        assert not checks["finite.selfadjoint"]["pass"]
        assert all(c["pass"] for cid, c in checks.items() if cid != "finite.selfadjoint")

    def test_suffixed_ids_share_the_entry(self, tmp_path):
        code, payload = report(tmp_path, ["finite-verify",
                                          "--tol", "finite.e_perp_square=-1"])
        assert code == 1
        red = sorted(c["id"] for c in checks_of(payload) if not c["pass"])
        assert red == ["finite.e_perp_square@0", "finite.e_perp_square@1"]

    def test_every_sweep_point_gets_the_override(self, tmp_path):
        code, payload = report(tmp_path, ["sweep", "--rm", "1", "--theta", "0,0.3",
                                          "--nmax", "16", "--tol", "first_order.u_u=-1"])
        assert code == 1
        assert payload["aggregate"]["pass_matrix"] == [[False, False]]
        for entry in payload["grid"]:
            assert by_id(entry)["first_order.u_u"]["tolerance"] == -1.0

    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nmax = 16\ntol.first_order.u_u = -1\n")
        code, payload = report(tmp_path, ["quadruple-verify", "--config", str(cfg),
                                          "--tol", "first_order.u_u=1e-6"])
        assert code == 0
        assert by_id(payload)["first_order.u_u"]["tolerance"] == 1e-6

    def test_defaults_come_from_the_table(self, tmp_path):
        _, payload = report(tmp_path, ["all", "--nmax", "16"])
        for c in payload["checks"]:
            if c["id"] != "reconstruct.linearity_in_mass":
                assert c["tolerance"] == DEFAULT_TOLERANCES[registry_key(c["id"])], c["id"]


# every subcommand and every branch that reports its own ids
COVERAGE_RUNS = [
    ["sl2-classify", "--r2m2", "-1"],
    ["quadruple-verify", "--nmax", "16"],
    ["desitter-crosscheck", "--nmax", "8"],
    ["reconstruct", "--nmax", "16"],
    ["reconstruct", "--rm", "0", "--nmax", "16"],
    ["finite-verify"],
    ["finite-distance", "--m", "2"],
    ["finite-distance", "--m", "0"],
    ["oracle-check"],
    ["all", "--nmax", "16"],
    ["sweep", "--rm", "0,1", "--theta", "0.3", "--nmax", "16"],
]


def test_table_and_reported_ids_coincide(tmp_path):
    reported = set()
    for argv in COVERAGE_RUNS:
        code, payload = report(tmp_path, argv)
        assert code == 0, argv
        reported |= {registry_key(c["id"]) for c in checks_of(payload)}
    assert reported - DEFAULT_TOLERANCES.keys() == set()
    assert DEFAULT_TOLERANCES.keys() - reported == set()


def test_every_registry_id_is_named_in_a_test():
    # a full-id search of the test and benchmark sources: an id that none
    # of them names has no test that turns it red or pins its value
    root = Path(__file__).resolve().parents[1]
    text = "\n".join(path.read_text(encoding="utf-8") for folder in ("tests", "bench")
                     for path in sorted((root / folder).glob("*.py")))
    unnamed = [key for key in DEFAULT_TOLERANCES
               if not re.search(rf"(?<!\w){re.escape(key)}(?!\w)", text)]
    assert unnamed == []


class TestSignTable:
    def test_literal_table_has_eight_rows(self):
        assert len(cli.KO_SIGNS) == 8
        assert all(row[2] is None for row in cli.KO_SIGNS[1::2])

    def test_wrong_sign_formula_is_caught(self, tmp_path, monkeypatch):
        original = finite.sign_table

        def flipped(n):
            row = original(n)
            return row._replace(d_commutation=-row.d_commutation) if n == 5 else row

        monkeypatch.setattr(finite, "sign_table", flipped)
        code, payload = report(tmp_path, ["finite-verify"])
        assert code == 1
        check = by_id(payload)["finite.sign_table"]
        assert check["residual"] == 1.0 and not check["pass"]
