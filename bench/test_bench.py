"""Smoke and fault-planting tests of the benchmark itself.

    python3 -m pytest bench

The smoke tests run every workload at tiny size through ``run.py``; the
planting tests run one tiny batch in-process with a wrong expected value
and require the failure to be counted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import worker  # noqa: E402
import workloads  # noqa: E402
from specquad import quadruple  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny_run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_print_with_units(workload):
    lines, result = tiny_run(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"# {name} = ") and f" {unit} (n=" in line
                   for line in lines), name
        assert result["metrics"][name]["value"] > 0
    assert any(line.startswith("# fail_frac = 0 ratio") for line in lines)
    provenance = json.loads(lines[0].removeprefix("# provenance "))
    for key in ("python", "numpy", "scipy", "blas", "blas_threads", "nproc",
                "git_commit", "source_sha256", "seed", "samples"):
        assert key in provenance, key


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_emits_every_per_layer_metric(workload):
    _, result = tiny_run(workload, 1)
    assert result["correct"] is True
    wanted = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == wanted
    assert (workloads.OUT / f"spans-{workload}-seed7.jsonl").is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "finite_distance", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def one_batch(name: str) -> dict:
    workload = workloads.WORKLOADS[name](7, tiny=True)
    try:
        return worker.run_batches(workload, 0.0)
    finally:
        workload.close()


def test_clean_batches_have_no_failures():
    for name in NAMES:
        run = one_batch(name)
        assert run["attempted"] >= 1 and run["failed"] == 0, name


def test_wrong_two_point_distance_is_caught(monkeypatch):
    monkeypatch.setattr(workloads, "two_point_expected", lambda m: 1.1 / abs(m))
    assert one_batch("finite_distance")["failed"] > 0


def test_flipped_report_byte_is_caught(monkeypatch):
    reads = []
    real = workloads.read_report

    def flip_third(path):
        data = bytearray(real(path))
        reads.append(path)
        if len(reads) == 3:      # the second `all --seed a` of the batch
            # one digit of a residual: the report stays valid and passed, so
            # only the comparison with the previous report can catch it
            at = data.index(b'"residual": ') + len(b'"residual": ')
            data[at] ^= 1
        return bytes(data)

    monkeypatch.setattr(workloads, "read_report", flip_third)
    assert one_batch("cli_batch")["failed"] > 0


def test_injected_failing_check_is_caught(monkeypatch):
    real = quadruple.verify_quadruple

    def with_failure(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.add("planted.failure", 1.0, 0.0)
        return rep

    monkeypatch.setattr(quadruple, "verify_quadruple", with_failure)
    run = one_batch("verify_large")
    assert run["failed"] == run["attempted"] > 0


def test_raising_op_is_a_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(workloads.finite, "connes_distance", broken)
    run = one_batch("finite_distance")
    assert run["failed"] == run["attempted"] > 0
