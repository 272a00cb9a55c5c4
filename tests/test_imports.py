"""Import budget: the default paths load numpy, no scipy submodule and no
``numpy.ma``, and call no ``numpy.linalg`` routine.

scipy is imported only inside the multi-start descent of
``connes_distance``, so a CLI process does not pay its 0.6 s import;
medians come from ``operators.median``, since ``np.median`` imports
``numpy.ma`` on its first call.  No default subcommand starts LAPACK:
their norms, fits and determinants are explicit sums.  Neither does the
check of a quadruple that no subcommand builds: a perturbed level-diagonal
iH keeps the closed-form exponential, and the blocks of a fiber that is not
2-dimensional take the Jacobi norms.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FORBIDDEN = ("scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.special", "numpy.ma")

SCRIPT = """
import sys
import specquad.cli as cli
from specquad.desitter import DeSitterParams, assemble_quadruple
from specquad.quadruple import verify_quadruple
from specquad.reconstruct import extract_adm

assert cli.run(["all", "--nmax", "8", "--output", sys.argv[1]]) == 0
q = assemble_quadruple(DeSitterParams(rm=1.0, theta=0.3, nmax=8))
assert verify_quadruple(q).passed
extract_adm(q)
print(" ".join(m for m in {forbidden!r} if m in sys.modules))
"""


def run_fresh(script, tmp_path):
    """Run ``script`` in a fresh interpreter on this checkout's package,
    with a report path as its argument."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "report.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_default_paths_load_no_scipy_submodule(tmp_path):
    proc = run_fresh(SCRIPT.format(forbidden=FORBIDDEN), tmp_path)
    assert proc.stdout.split() == []


# the numpy.linalg routines no default subcommand may call
LINALG = ("svd", "norm", "det", "eig", "eigh", "eigvals", "eigvalsh", "solve",
          "lstsq", "qr", "pinv", "inv")

NO_LINALG_SCRIPT = """
import sys
import numpy.linalg

def forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError("numpy.linalg." + name + " called")
    return call

for name in {linalg!r}:
    setattr(numpy.linalg, name, forbidden(name))

import specquad.cli as cli

for argv in (["all"], ["sweep"], ["finite-verify"], ["finite-distance"], ["oracle-check"]):
    assert cli.run(argv + ["--output", sys.argv[1]]) == 0, argv

import dataclasses
import numpy as np
from specquad.desitter import DeSitterParams, assemble_quadruple
from specquad.operators import BasisDescriptor, TruncatedOperator, interior_residual
from specquad.quadruple import verify_quadruple

# a non-de-Sitter quadruple: iH plus a level-diagonal perturbation
q = assemble_quadruple(DeSitterParams(rm=1.0, theta=0.3, nmax=8))
kick = TruncatedOperator.from_fiber(q.basis, np.array([[0.1j, 0.2], [-0.2, -0.3j]]))
rep = verify_quadruple(dataclasses.replace(q, ih=q.ih + kick))
assert rep["evolution.noncommutative"].passed
# blocks of a 3-dim fiber
basis = BasisDescriptor(8, fiber_dim=3)
blocks = np.arange(9 * 8).reshape(3, 3, 8) + 1j
assert interior_residual(TruncatedOperator(basis, {{0: blocks}}), 1) > 0
assert "scipy.linalg" not in sys.modules
"""


def test_default_subcommands_call_no_linalg_routine(tmp_path):
    run_fresh(NO_LINALG_SCRIPT.format(linalg=LINALG), tmp_path)
