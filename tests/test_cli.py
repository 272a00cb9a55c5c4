import json
import os
import stat

import pytest

from specquad import cli
from specquad.cli import run


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

    def test_stdout_when_no_output(self, capsys):
        assert run(["desitter-crosscheck", "--nmax", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True


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

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert run(["quadruple-verify", "--config", str(cfg)]) == 2

    def test_missing_config_rejected(self, tmp_path):
        assert run(["quadruple-verify", "--config", str(tmp_path / "nope")]) == 2


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

    def test_too_small_truncation_annotated(self, tmp_path):
        out = tmp_path / "sweep.json"
        run(["sweep", "--rm", "1", "--theta", "0", "--nmax", "4",
             "--margin", "6", "-o", str(out)])
        report = json.loads(read(out))
        entry = report["grid"][0]
        assert entry["skipped"] is True
        assert "truncation too small" in entry["notes"]

    def test_numerical_error_is_not_a_skipped_point(self, tmp_path, monkeypatch):
        # only a too-small truncation may be reported as a skipped point
        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "verify_quadruple", boom)
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--rm", "1", "--theta", "0", "--nmax", "8",
                    "-o", str(out)]) == 2
        assert not out.exists()

    def test_empty_grid_is_usage_error(self):
        assert run(["sweep", "--rm", "", "--theta", "1"]) == 2

    def test_single_point_grid_equals_run(self, tmp_path):
        sweep_out = tmp_path / "sweep.json"
        run_out = tmp_path / "run.json"
        run(["sweep", "--rm", "1.0", "--theta", "0.3", "--nmax", "16",
             "--margin", "4", "-o", str(sweep_out)])
        run(["quadruple-verify", "--rm", "1.0", "--theta", "0.3",
             "--nmax", "16", "--margin", "4", "-o", str(run_out)])
        sweep_checks = json.loads(read(sweep_out))["grid"][0]["checks"]
        run_checks = json.loads(read(run_out))["checks"]
        assert sweep_checks == run_checks


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
