"""Import budget: the default paths load numpy, no scipy submodule and no
``numpy.ma``.

scipy is imported only inside the two branches that call it (the dense
``expm`` fallback of ``check_noncommutativity`` and the multi-start descent
of ``connes_distance``), so a CLI process does not pay its 0.6 s import;
medians come from ``operators.median``, since ``np.median`` imports
``numpy.ma`` on its first call.
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


def test_default_paths_load_no_scipy_submodule(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(forbidden=FORBIDDEN),
         str(tmp_path / "report.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
