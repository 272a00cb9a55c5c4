"""Every function in ``src/specquad`` is entered by some CLI run, or the
allowlist below names it with a test that reaches it.

One subprocess sets a call-event ``sys.settrace`` before ``import specquad``
and runs each subcommand once, through ``--config``, ``-o``, ``--format csv``
and one usage error of each kind, so a helper that no entry point
calls any more shows up here."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "specquad"

# module.qualname -> a test (path::class::name) that reaches it
NOT_REACHED_BY_THE_CLI = {
    "finite._offending_block":
        "tests/test_finite.py::TestTwoPointExample::test_nonhermitian_dirac_rejected",
    "finite.connes_distance.<locals>.objective":
        "tests/test_finite.py::TestConnesDistance::test_symmetry_on_random_triples",
    "operators.TruncatedOperator.apply": "tests/test_banded.py::test_random_bands_match_dense",
    "operators.AntilinearOperator.apply":
        "tests/test_operators.py::TestAntilinear::test_composition_is_linear",
    "operators.BasisDescriptor.dim": "tests/test_banded.py::test_algebra_matches_dense",
    "quadruple.AxiomReport.__iter__":
        "tests/test_acceptance.py::test_acceptance_5_quadruple_axioms",
    "quadruple.AxiomReport.__len__":
        "tests/test_quadruple.py::TestSpatialTriple::test_non_fiberwise_time_vector_still_reports",
    "quadruple.AxiomReport.__getitem__":
        "tests/test_banded.py::test_interior_defect_turns_checks_red",
    # also the bench spans reconstruct.mass_scale and reconstruct.massless
    "reconstruct.extract_mass_scale":
        "tests/test_reconstruct.py::TestMassScale::test_roundtrip_standard",
    "reconstruct.massless_degeneracy_check":
        "tests/test_reconstruct.py::TestMasslessDegeneracy::test_all_orders_vanish",
}

# the runs, each an argv of cli.run; the usage errors exit 2 or raise
# argparse's SystemExit
RUNS = r"""
import json, os, sys
package, workdir, result = sys.argv[1:]
reached = set()

def trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(package):
        reached.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_qualname))

sys.settrace(trace)
from specquad import cli

os.chdir(workdir)
with open("run.cfg", "w") as fh:
    fh.write("rm = 1.0\ntol.first_order.u_u = 1e-9\n")
with open("bad.cfg", "w") as fh:
    fh.write("subcommand = sweep\n")
os.mkdir("a-directory")
out = ["-o", "r.out"]
runs = [
    ["sl2-classify", "--r2m2", "-0.25", *out],
    ["quadruple-verify", "--nmax", "8", "--margin", "3", "--format", "csv", *out],
    ["reconstruct", "--nmax", "8", *out],
    ["desitter-crosscheck", "--nmax", "8", *out],
    ["finite-verify", "--m", "1-2j", *out],
    ["finite-distance", "--m", "2", *out],
    ["oracle-check", "--seed", "7", *out],
    ["all", "--nmax", "8", "--config", "run.cfg", *out],
    ["sweep", "--nmax", "8", "--format", "csv", *out],
    # usage errors: argparse's own, a flag type, a config file, a
    # tolerance, a truncation and the output path
    ["quadruple-verify", "--bogus"],
    ["quadruple-verify", "--rm", "nan"],
    ["quadruple-verify", "--config", "bad.cfg"],
    ["quadruple-verify", "--config", "missing.cfg"],
    ["quadruple-verify", "--nmax", "8", "--tol", "nope=1"],
    ["reconstruct", "--nmax", "5"],
    ["desitter-crosscheck", "--nmax", "8", "-o", "a-directory"],
]
codes = []
for argv in runs:
    try:
        codes.append(cli.run(argv))
    except SystemExit as exc:
        codes.append(exc.code)
sys.argv = ["specquad", "finite-distance", "--m", "0", *out]
try:
    cli.main()
except SystemExit as exc:
    codes.append(exc.code)
sys.settrace(None)
with open(result, "w") as fh:
    json.dump({"codes": codes, "reached": sorted(reached)}, fh)
"""

COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"}


def defined_functions():
    """(file, first line, qualname) of every function and lambda in the
    package; comprehensions run with the function that holds them."""
    out = set()

    def walk(code, name):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_name not in COMPREHENSIONS:
                    out.add((name, const.co_firstlineno, const.co_qualname))
                walk(const, name)

    for path in PACKAGE.glob("*.py"):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.name)
    return out


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects name their qualname "
                    "from Python 3.11 on")
def test_every_function_is_reached(tmp_path):
    result = tmp_path / "reached.json"
    subprocess.run([sys.executable, "-c", RUNS, str(PACKAGE), str(tmp_path), str(result)],
                   check=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    data = json.loads(result.read_text())
    assert data["codes"] == [0] * 9 + [2] * 7 + [0]
    reached = {tuple(key) for key in data["reached"]}
    missed = sorted((f"{file[:-3]}.{qualname}", line)
                    for file, line, qualname in defined_functions() - reached)
    assert [f"{name}, line {line}" for name, line in missed
            if name not in NOT_REACHED_BY_THE_CLI] == []
    # an entry the runs do reach leaves the allowlist
    assert sorted(NOT_REACHED_BY_THE_CLI) == [name for name, _ in missed]


def test_allowlisted_tests_exist():
    for test in NOT_REACHED_BY_THE_CLI.values():
        path, *names = test.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert all(f"def {n}(" in source or f"class {n}" in source for n in names), test
