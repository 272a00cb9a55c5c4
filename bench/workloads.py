"""The benchmark's workloads: seeded inputs, a warm-up op, and a fixed batch
of ops whose outputs the benchmark checks.

Every call into specquad goes through a module attribute looked up at call
time (``quadruple.verify_quadruple``, not an imported name), so the span
wrappers of ``spans.instrument`` see it.  An op fails if it raises, returns
a report with a failed check, skips a sweep point, or fails one of the
checks below; a failure never stops the batch.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from specquad import cli, desitter, finite, quadruple, reconstruct

# scratch space inside the checkout: spans and the CLI's reports
OUT = Path(__file__).resolve().parent.parent / ".bench_out"

# nonzero-mass acceptance grid of the de Sitter quadruple
GRID = [(rm, theta) for rm in (0.5, 1.0, 2.0) for theta in (0.0, 0.3, 1.0)]

# tolerances of the reconstruction checks, as the CLI's reconstruct section
ADM_TOL = {"lapse_mass": 1e-8, "mass_scale": 1e-8, "shift": 1e-10,
           "shape": 1e-10, "order": 1e-10}
DISTANCE_TOL = 1e-6


class CheckFailed(Exception):
    """An op returned a wrong output."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


class Tally:
    """Op times and failures of one batch."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_times: list[float] = []
        self.attempted = 0
        self.failed = 0

    def timed(self, fn, *args):
        """Call one op into specquad and record its wall time."""
        if self.tracer is not None:
            self.tracer.next_op()
        t0 = time.perf_counter()
        out = fn(*args)
        self.op_times.append(time.perf_counter() - t0)
        return out

    def fail(self, label: str, reason: str, count: int = 1):
        self.failed += count
        print(f"bench: op failed: {label}: {reason}", file=sys.stderr)

    def attempt(self, label: str, body):
        """Run one op and its checks; any exception is a failed op."""
        self.attempted += 1
        try:
            body()
        except CheckFailed as exc:
            self.fail(label, str(exc))
        except Exception:
            self.fail(label, traceback.format_exc(limit=3))


class VerifyLarge:
    """assemble_quadruple + verify_quadruple + extract_adm at nmax = 128."""

    name = "verify_large"
    OPS = 3

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(GRID), size=self.OPS, replace=False)
        self.points = [GRID[k] for k in picks]
        self.nmax = 16 if tiny else 128

    @staticmethod
    def compute(rm: float, theta: float, nmax: int):
        q = desitter.assemble_quadruple(
            desitter.DeSitterParams(rm=rm, theta=theta, nmax=nmax))
        return quadruple.verify_quadruple(q), reconstruct.extract_adm(q)

    def warm_up(self):
        self.compute(1.0, 0.3, 8)

    def run_batch(self, tally: Tally):
        for rm, theta in self.points:
            tally.attempt(f"verify rm={rm} theta={theta}",
                          lambda: self._op(tally, rm, theta))

    def _op(self, tally: Tally, rm: float, theta: float):
        rep, adm = tally.timed(self.compute, rm, theta, self.nmax)
        failed = [c.check_id for c in rep if not c.passed]
        require(not failed, f"failed checks {failed}")
        require(abs(adm.lapse_mass - rm) <= ADM_TOL["lapse_mass"],
                f"lapse_mass {adm.lapse_mass!r} != rm {rm}")
        require(abs(adm.mass_scale - rm) <= ADM_TOL["mass_scale"],
                f"mass_scale {adm.mass_scale!r} != rm {rm}")
        require(adm.shift <= ADM_TOL["shift"], f"shift {adm.shift!r}")
        require(adm.shape_residual <= ADM_TOL["shape"],
                f"shape residual {adm.shape_residual!r}")
        require(max(adm.order_residuals[:3]) <= ADM_TOL["order"],
                f"orders 0..2 do not vanish: {adm.order_residuals[:3]}")

    def close(self):
        pass


def read_report(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class CliBatch:
    """In-process ``specquad all --seed s`` and ``specquad sweep`` runs."""

    name = "cli_batch"

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        a, b = (str(s) for s in rng.choice(2 ** 31, size=2, replace=False))
        size = ["--nmax", "12"] if tiny else []
        sweep = ["sweep", "--rm", "0,1", "--theta", "0.3"] if tiny else ["sweep"]
        # the repeated `all --seed a` makes every batch check determinism
        self.argvs = [["all", "--seed", a] + size, ["all", "--seed", b] + size,
                      ["all", "--seed", a] + size, sweep + size]
        self.previous: dict[tuple[str, ...], bytes] = {}
        OUT.mkdir(exist_ok=True)
        self.outdir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
        self.report = os.path.join(self.outdir, "report.json")

    def warm_up(self):
        cli.run(["all", "--nmax", "8", "--output", self.report])

    def run_batch(self, tally: Tally):
        for argv in self.argvs:
            tally.attempt(" ".join(argv), lambda: self._op(tally, argv))

    def _op(self, tally: Tally, argv: list[str]):
        if os.path.exists(self.report):
            os.unlink(self.report)
        rc = tally.timed(cli.run, argv + ["--output", self.report])
        data = read_report(self.report)
        previous = self.previous.get(tuple(argv))
        self.previous[tuple(argv)] = data
        require(rc == 0, f"exit code {rc}")
        require(previous is None or data == previous,
                "report differs from the previous report of the same argv")
        report = json.loads(data)
        require(report.get("passed") is True, "report not passed")
        if argv[0] == "sweep":
            skipped = [e["params"] for e in report["grid"] if e["skipped"]]
            require(not skipped, f"skipped sweep points {skipped}")
            require(all(e["passed"] for e in report["grid"]), "failed sweep point")
        else:
            failed = [c["id"] for c in report["checks"] if not c["pass"]]
            require(not failed, f"failed checks {failed}")

    def close(self):
        shutil.rmtree(self.outdir, ignore_errors=True)


def two_point_expected(m: complex) -> float:
    """Connes distance of the two-point triple with Dirac parameter m."""
    return 1.0 / abs(m)


def random_three_point(rng: np.random.Generator, dim: int):
    """A random admissible commutative triple on three points with a
    ``dim``-dimensional Hilbert space.

    The intersection form has entries in {-1, 0, 1}.  D couples two basis
    vectors only where the grading flips and the first-order condition
    allows it (same left or same right summand), carries the J-image of each
    coupling, and links all three points, so every distance is finite.
    Couplings have modulus in [0.5, 2] and a random phase.
    """
    while True:
        upper = np.triu(rng.integers(-1, 2, size=(3, 3)))
        q = upper + np.triu(upper, 1).T
        if int(np.abs(q).sum()) != dim or round(abs(np.linalg.det(q))) == 0:
            continue
        spec = finite.FiniteTripleSpec(dims=(1, 1, 1), q=tuple(map(tuple, q.tolist())))
        layout = finite.FiniteTriple(spec, np.zeros((dim, dim)))
        owner = _owners(layout)
        jmap = np.argmax(layout.real_structure.mat, axis=0)
        pairs = [(x, y) for x, y in itertools.combinations(range(dim), 2)
                 if layout.gamma[x] * layout.gamma[y] < 0
                 and (owner[x][0] == owner[y][0] or owner[x][1] == owner[y][1])]
        links = {frozenset((owner[x][0], owner[y][0])) for x, y in pairs} | \
                {frozenset((owner[x][1], owner[y][1])) for x, y in pairs}
        if not _connected(links, 3):
            continue
        dirac = np.zeros((dim, dim), dtype=complex)
        for x, y in pairs:
            if dirac[x, y] != 0:
                continue
            c = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            dirac[x, y], dirac[y, x] = c, np.conj(c)
            dirac[jmap[x], jmap[y]], dirac[jmap[y], jmap[x]] = np.conj(c), c
        return spec, dirac


def _owners(t) -> list[tuple[int, int]]:
    """The summand pair (i, j) of each basis vector of the Hilbert space."""
    return [blk for blk, d in zip(t.blocks, t.block_dims) for _ in range(d)]


def _connected(links, npoints: int) -> bool:
    seen, todo = {0}, [0]
    while todo:
        p = todo.pop()
        for link in links:
            if p in link:
                for other in link - seen:
                    seen.add(other)
                    todo.append(other)
    return len(seen) == npoints


def commutator_norm_lower_bound(t, i: int) -> float:
    """1 / ||[D, e_i]||: e_i is feasible, so it bounds d(i, j) from below."""
    e_i = np.diag([1.0 if blk[0] == i else 0.0 for blk in _owners(t)])
    return 1.0 / float(np.linalg.norm(t.dirac @ e_i - e_i @ t.dirac, 2))


class FiniteDistance:
    """connes_distance over every ordered pair of seeded finite triples."""

    name = "finite_distance"
    # one three-point triple per Hilbert dimension: the cost of a distance
    # grows with the dimension, so fixing the mix keeps batches of different
    # seeds the same size
    DIMS = (6, 7, 8, 9)
    TWO_POINT = 4

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        dims, n2 = ((6,), 1) if tiny else (self.DIMS, self.TWO_POINT)
        self.triples = [random_three_point(rng, dim) for dim in dims]
        self.masses = [complex(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
                       for _ in range(n2)]

    def warm_up(self):
        finite.connes_distance(finite.two_point_triple(1.0), 0, 1)

    def run_batch(self, tally: Tally):
        for k, (spec, dirac) in enumerate(self.triples):
            self._triple(tally, f"triple {k}", 3,
                         lambda: finite.build_finite_triple(spec, dirac), None)
        for m in self.masses:
            self._triple(tally, f"two-point m={m:.6g}", 2,
                         lambda: finite.two_point_triple(m), two_point_expected(m))

    def _triple(self, tally: Tally, label: str, npoints: int, build,
                expected: float | None):
        """Admit one triple, then one op per ordered pair of its points."""
        try:
            t = build()
            rep = finite.validate_finite_triple(t)
            failed = [c.check_id for c in rep if not c.passed]
            require(not failed, f"failed checks {failed}")
            points = t.characters()
        except Exception:
            npairs = npoints * (npoints - 1)
            tally.attempted += npairs
            tally.fail(label, traceback.format_exc(limit=3), npairs)
            return
        found: dict[tuple[int, int], float] = {}
        for i, j in itertools.permutations(points, 2):
            tally.attempt(f"{label} d({i},{j})",
                          lambda: self._pair(tally, t, i, j, found, expected))

    @staticmethod
    def _pair(tally: Tally, t, i: int, j: int, found: dict, expected: float | None):
        d = tally.timed(finite.connes_distance, t, i, j)
        found[(i, j)] = d
        require(math.isfinite(d) and d > 0.0, f"distance {d!r} not finite and positive")
        bound = commutator_norm_lower_bound(t, i)
        require(d >= bound * (1.0 - 1e-9), f"distance {d!r} below the bound {bound!r}")
        if (j, i) in found:
            require(abs(d - found[(j, i)]) <= DISTANCE_TOL,
                    f"d({i},{j}) = {d!r} but d({j},{i}) = {found[(j, i)]!r}")
        if expected is not None:
            require(abs(d - expected) <= DISTANCE_TOL,
                    f"two-point distance {d!r} != 1/|m| = {expected!r}")

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (VerifyLarge, CliBatch, FiniteDistance)}
