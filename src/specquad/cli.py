"""Batch verification front end.

Subcommands rebuild the operator data at the requested parameters, run the
named checks and write one machine-readable report (schema version 1).
Reports carry no timestamps and all random draws are seeded from the
config, so identical configurations produce bit-identical files.  Each
flag is declared once, in ``_build_parser``: its type checks a command-line
or config value, and the subcommand's own flags are the params echo.

A JSON report is ``json.dumps(payload, separators=(",\\n", ": "))`` and a
newline: json's C encoder, its float spelling (``float.__repr__``, ``NaN``,
``Infinity``) and ASCII escapes, with a line break after every item's
comma and no indentation, so two reports compare line by line under
``diff`` or ``grep``.

Exit codes of ``main``:

- 0: every check passed;
- 1: at least one check failed (the report names it);
- 2: a usage or configuration error (no report);
- 3: a crash, an exception raised while running the checks (traceback on
  stderr, no report).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import stat
import sys
import tempfile
import traceback
from dataclasses import replace
from typing import Sequence

import numpy as np

from . import desitter, finite, geometry, reconstruct, sl2, spinfields
from .operators import BasisDescriptor, TruncationError, block_product, interior_residual
from .quadruple import (
    DEFAULT_TOLERANCES,
    AxiomReport,
    SpectralQuadruple,
    validate_overrides,
    verify_points,
    verify_quadruple,
)

REPORT_VERSION = 1
DEFAULT_SEED = 20201121


@functools.cache
def _shared_flags() -> argparse.ArgumentParser:
    """The flags every subcommand shares; the params echo leaves them out."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value file; flags take precedence")
    common.add_argument("--output", "-o", help="report path (default: stdout)")
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--tol", action="append", type=_tolerance, default=None, metavar="ID=VALUE",
                        help="tolerance override per report check id (repeatable); "
                             "name@k shares the entry of name; unknown ids exit 2")
    return common


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``run`` of a process and
    reused: parsing keeps no state in it, since every ``--tol`` list and
    every config token lands in the fresh namespace of one parse.

    Each flag is declared once, here: its ``type`` converts and range-checks
    the value for the command line and config lines alike, its subcommand's
    ``set_defaults(run=...)`` runs the sections (looked up by name at call
    time), and the subcommand's own flags, in declaration order, are the
    report's params echo."""
    parser = argparse.ArgumentParser(
        prog="specquad",
        description="verification suite for truncated spectral quadruples")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, run, **kwargs):
        # no prefix matching: --m is finite-verify's Dirac parameter, not
        # quadruple-verify's --margin
        p = sub.add_parser(name, parents=[_shared_flags()], allow_abbrev=False, **kwargs)
        # a token that starts like a negative number (-1e-3, -.5e0, -1,2,
        # -1+2j) is a flag's value; argparse's own pattern takes only -1 and
        # -.5 and reads the others as unknown options
        p._negative_number_matcher = re.compile(r"-\.?\d")
        p.set_defaults(run=run)
        return p

    finite = (math.isfinite, "must be finite")
    rm = _flag("rm", float, finite, (lambda v: abs(v) <= RM_MAX, f"|rm| above {RM_MAX!r} "
                                     "overflows the squares the checks form"))
    theta = _flag("theta", float, finite, (lambda v: abs(v) <= THETA_MAX, "cosh(theta) overflows "
                                           "a double (|theta| above about 710.48)"))
    nmax = _flag("nmax", int, (lambda n: n >= desitter.MIN_NMAX,
                               f"must be at least {desitter.MIN_NMAX}"))
    seed = _flag("seed", int, (lambda n: n >= 0, "must be non-negative"))

    def margin(name, least):
        # margin 0 reads the truncation cutoff, where [T+, T-] = -2i T21 and
        # the first-order identity break; reconstruct reads the third order
        return _flag("margin", int, (lambda k: k >= least,
                                     f"{name} needs a margin of at least {least}"))

    p = add("sl2-classify", lambda a: _section_sl2(a.r2m2, a.lattice),
            help="series classification and ladder law")
    p.add_argument("--r2m2", type=_flag("r2m2", float, finite), required=True)
    p.add_argument("--lattice", choices=("integer", "half_integer"), default="half_integer")

    for name, run, least in (
            ("quadruple-verify", lambda a: _section_quadruple(*_assemble(a), a.margin), 1),
            ("reconstruct",
             lambda a: _section_reconstruct(*_assemble_three_interior_levels(a), a.margin), 3)):
        p = add(name, run)
        p.add_argument("--rm", type=rm, default=1.0)
        p.add_argument("--theta", type=theta, default=0.3)
        p.add_argument("--nmax", type=nmax, default=32)
        p.add_argument("--margin", type=margin(name, least), default=4)

    p = add("desitter-crosscheck", lambda a: _section_crosscheck(a.rm, a.theta, a.nmax),
            help="recursion vs closed-form ladder blocks")
    p.add_argument("--rm", type=rm, default=1.0)
    p.add_argument("--theta", type=theta, default=0.5)
    p.add_argument("--nmax", type=nmax, default=16)

    mass = "Dirac parameter, a Python complex literal"
    p = add("finite-verify", lambda a: _section_finite_verify(a.m))
    p.add_argument("--m", type=_flag("m", _parse_complex), default="1", help=mass)
    p = add("finite-distance", lambda a: _section_finite_distance(a.m))
    inverse = (lambda m: not m or math.isfinite(1.0 / abs(m)), "1/|m| overflows a double")
    p.add_argument("--m", type=_flag("m", _parse_complex, inverse), default="1", help=mass)

    p = add("oracle-check", lambda a: _section_oracle(a.seed),
            help="independent geometry and symmetry-action suite")
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED)

    p = add("all", _run_all, help="every section at the default parameters")
    p.add_argument("--rm", type=rm, default=1.0)
    p.add_argument("--theta", type=theta, default=0.3)
    p.add_argument("--nmax", type=nmax, default=32)
    p.add_argument("--margin", type=margin("all", 3), default=4)
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED)

    p = add("sweep", _run_sweep, help="quadruple-verify at every point of an rm x theta grid")
    p.add_argument("--rm", type=_grid("rm", rm), default="0,0.5,1,2",
                   help="comma-separated rm grid")
    p.add_argument("--theta", type=_grid("theta", theta), default="0,0.3,1.0",
                   help="comma-separated theta grid")
    p.add_argument("--nmax", type=nmax, default=32)
    p.add_argument("--margin", type=margin("sweep", 1), default=4)
    return parser


class ConfigError(Exception):
    pass


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse the command line.  The key = value lines of --config enter as
    flags placed before it, so each passes the one declaration of its flag,
    type and range checks included, and an explicit flag wins; a key names
    a flag of the subcommand, and a tol.ID line becomes --tol ID=VALUE."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    flags = {a.dest for a in _subcommand_flags(parser, args.subcommand)}
    tokens = []
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{args.config}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if key.startswith("tol."):
                    key, value = "tol", f"{key[4:]}={value}"
                elif key not in flags:
                    raise ConfigError(f"unknown config key {key!r}")
                tokens.append(f"--{key}={value}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    # argv[0] is the subcommand: the top-level parser has no options
    return parser.parse_args([argv[0], *tokens, *argv[1:]])


def _subcommand_flags(parser: argparse.ArgumentParser, name: str) -> list[argparse.Action]:
    """The flags of subcommand ``name``, in declaration order."""
    [sub] = [a for a in parser._actions if a.dest == "subcommand"]
    return [a for a in sub.choices[name]._actions if a.dest != "help"]


def _flag(flag: str, convert, *rules):
    """The argparse type of ``--flag``: ``convert`` the text, then test the value
    with each (predicate, rule) pair; a broken rule is a ConfigError, which
    argparse lets through, and an unreadable text argparse's own error."""
    def parse(text: str):
        value = convert(text)
        for ok, rule in rules:
            if not ok(value):
                raise ConfigError(f"--{flag} {value!r}: {rule}")
        return value
    parse.__name__ = convert.__name__
    return parse


def _grid(flag: str, element):
    """The argparse type of a sweep grid: comma-separated values of type ``element``."""
    def parse(text: str) -> list[float]:
        try:
            values = [element(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"--{flag}: bad grid {text!r}") from exc
        if not values:
            raise ConfigError(f"--{flag}: empty grid")
        return values
    return parse


def _parse_complex(text: str) -> complex:
    """The --m literal; a nan or inf part is rejected here as a usage error
    (``build_finite_triple`` would refuse it with a crash exit)."""
    try:
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"--m: bad complex literal {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConfigError(f"--m {text!r}: real and imaginary parts must be finite")
    return value


# the largest |rm| a run accepts: the checks multiply two mass or ladder
# entries, up to (2 rm)^2 at the doubled mass of the linearity check, and
# the block norms and band fits square entries, so (2 rm)^4 must stay a
# double
RM_MAX = float(np.finfo(float).max) ** 0.25 / 2
# the largest |theta| whose cosh is a double
THETA_MAX = math.acosh(sys.float_info.max)


def _tolerance(pair: str) -> tuple[str, float]:
    """The type of --tol: ID=VALUE, a registry key and a float other than nan."""
    if "=" not in pair:
        raise ConfigError(f"bad tolerance override {pair!r}, expected ID=VALUE")
    key, value = pair.split("=", 1)
    try:
        value = float(value)
    except ValueError as exc:
        raise ConfigError(f"bad tolerance value in {pair!r}") from exc
    try:
        return validate_overrides({key.strip(): value}).popitem()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# -- sections ----------------------------------------------------------------

# KO-dimension signs (J^2, JD = +-DJ, J gamma = +-gamma J) for n mod 8, from
# Connes, "Noncommutative geometry and reality", J. Math. Phys. 36 (1995);
# None: odd n has no grading
KO_SIGNS = ((1, 1, 1), (1, -1, None), (-1, 1, -1), (-1, 1, None),
            (-1, 1, 1), (-1, -1, None), (1, 1, -1), (1, 1, None))


def _section_sl2(r2m2: float, lattice: str) -> AxiomReport:
    rep = AxiomReport()
    ns = np.arange(-9.5, 10.5) if lattice == "half_integer" else np.arange(-9, 10)
    rep.add("sl2.ladder_recursion", sl2.verify_ladder_recursion(r2m2, ns))
    closed = max(abs(sl2.ladder_coefficient_sq(n, r2m2)
                     - ((n + 0.5) ** 2 + r2m2)) for n in ns)
    rep.add("sl2.ladder_closed_form", closed)
    lat = sl2.Lattice.INTEGER if lattice == "integer" else sl2.Lattice.HALF_INTEGER
    classes = sl2.classify(sl2.RepParams(r2m2=r2m2, lattice=lat))
    rep.add("sl2.classification", 0.0,
            notes="; ".join(str(c) for c in classes)
                  + " [complementary bound read as 0 >= r2m2 > -1/4]")
    return rep


def _section_quadruple(p: desitter.DeSitterParams, q: SpectralQuadruple,
                       margin: int) -> AxiomReport:
    """The axioms of q, the quadruple assembled at p."""
    return verify_quadruple(q, margin=margin, include_noncommutativity=(p.rm != 0.0))


def _section_crosscheck(rm: float, theta: float, nmax: int) -> AxiomReport:
    rep = AxiomReport()
    params = desitter.DeSitterParams(rm=rm, theta=theta, nmax=nmax)
    rep.add("crosscheck.recursion_vs_closed_form",
            desitter.crosscheck_construction_vs_appendix(params))
    # the law on the levels of the truncation, each level's defect relative
    # to its scale; the one zero scale (n = -1/2 at rm = 0) compares absolutely
    levels = BasisDescriptor.spinor(nmax).level_array
    blk = desitter.appendix_t_plus(levels, rm, theta)
    scale = (levels + 0.5) ** 2 + rm ** 2
    defect = np.abs(block_product(blk, blk.conj().swapaxes(0, 1))
                    - scale * np.eye(2)[..., None]).max(axis=(0, 1))
    rep.add("crosscheck.norm_law", (defect / np.where(scale > 0, scale, 1.0)).max(),
            notes="T+(n) T+(n)* = ((n+1/2)^2 + rm^2) 1, relative to (n+1/2)^2 + rm^2")
    return rep


def _section_reconstruct(p: desitter.DeSitterParams, q: SpectralQuadruple,
                         margin: int) -> AxiomReport:
    """The reconstruction from q, the quadruple assembled at p; needs
    margin >= 3.  At rm = 0 the order rows, the degeneracy and the mass
    read one expansion of order min(5, margin); otherwise they come from
    ``extract_adm``, and linearity compares its kappa with the one
    ``fit_third_order`` reads from the order-3 term of the 2 rm quadruple,
    so both sides share the vanishing cut."""
    rep = AxiomReport()
    rm = p.rm
    if rm == 0.0:
        terms = reconstruct.commutator_expansion(q.ih, q.u, min(5, margin), margin)
        residuals = [interior_residual(t, margin) for t in terms]
        mass_scale = reconstruct.fit_third_order(q, terms[3], margin)[0]
    else:
        adm = reconstruct.extract_adm(q, margin=margin)
        residuals, mass_scale = adm.order_residuals, adm.mass_scale
    # order 0 is [u, u], zero by construction
    for k in (1, 2):
        rep.add(f"reconstruct.order_{k}", residuals[k])
    if rm == 0.0:
        rep.add("reconstruct.massless_degeneracy", max(residuals),
                notes="all orders vanish for rm = 0")
        rep.add("reconstruct.mass_roundtrip", abs(mass_scale), notes="recovered rm vs 0")
        return rep
    rep.add("reconstruct.third_order_fit", adm.third_order_fit,
            notes=f"measured coefficient kappa = {adm.kappa:.12g}")
    rep.add("reconstruct.mass_roundtrip", abs(mass_scale - rm),
            notes=f"recovered rm = {mass_scale:.12g}")
    q2 = desitter.assemble_quadruple(replace(p, rm=2 * rm))
    kappa2 = reconstruct.third_order_coefficient(q2, margin)[0]
    rep.add("reconstruct.linearity_in_mass", abs(kappa2 - 2 * adm.kappa),
            DEFAULT_TOLERANCES["reconstruct.linearity_in_mass"] * abs(adm.kappa),
            notes="kappa(2 rm) vs 2 kappa(rm)")
    rep.add("reconstruct.lapse_mass", abs(adm.lapse_mass - rm),
            notes="fiber trace of iH e_perp")
    rep.add("reconstruct.shift", adm.shift)
    rep.add("reconstruct.adm_shape", adm.shape_residual)
    return rep


def _section_finite_verify(m: complex) -> AxiomReport:
    t = finite.two_point_triple(m)
    rep = finite.validate_finite_triple(t)
    mism = sum(tuple(finite.sign_table(n)) != KO_SIGNS[n % 8] for n in range(16))
    rep.add("finite.sign_table", float(mism),
            notes="mismatches against the KO-dimension sign table of Connes "
                  "(J. Math. Phys. 36, 1995), n in [0, 15]")
    quad = finite.quadruple_from_triple(t, [(0.0, m), (1.0, m)])
    return rep.extend(quad.validate())


def _section_finite_distance(m: complex) -> AxiomReport:
    rep = AxiomReport()
    d = finite.connes_distance(finite.two_point_triple(m), 0, 1)
    if abs(m) == 0.0:
        rep.add("finite.distance_unbounded", 0.0 if math.isinf(d) else 1.0,
                notes="m = 0: distance must be flagged unbounded")
    else:
        # the table's bound, widened to 8 float spacings of d where it is
        # below them (|m| < 1.8e-9)
        rep.add("finite.distance", abs(d - 1.0 / abs(m)),
                max(DEFAULT_TOLERANCES["finite.distance"], 8 * sys.float_info.epsilon / abs(m)),
                notes=f"d = {d:.9g}, analytic 1/|m| = {1.0 / abs(m):.9g}")
    return rep


def _section_oracle(seed: int) -> AxiomReport:
    rep = AxiomReport()
    rng = np.random.default_rng(seed)

    # the 50 sample points as one batch; the moving frames use the first 20
    th = rng.uniform(-1.5, 1.5, 50)
    ph = rng.uniform(0, 2 * np.pi, 50)
    pts = geometry.ChartPoint(th, ph)
    x = geometry.geometry_at(pts).embedding
    rep.add("oracle.embedding", np.abs(-x[0] ** 2 + x[1] ** 2 + x[2] ** 2 - 1.0).max())
    ktrace = np.abs(geometry.embedding_extrinsic_trace(pts) - 2.0 / pts.radius).max()
    rep.add("oracle.extrinsic_trace", ktrace,
            notes="K_A^A = (n-1)/R with n = 3 the embedding dimension")

    sym = geometry.symmetry_checks(pts)
    rep.add("oracle.killing_brackets",
            max(sym["bracket_l01_l21"], sym["bracket_l02_l21"], sym["bracket_l01_l02"]))
    rep.add("oracle.casimir", sym["casimir"])

    gammas = (geometry.GAMMA0, geometry.GAMMA1, geometry.GAMMA2)
    # the 21 triads as fiber-major (2, 2, 21) stacks, one per Clifford index:
    # the constant gammas, then the slashed moving frame at 20 points
    frames = geometry.frame_vectors(geometry.ChartPoint(th[:20], ph[:20]))
    triad = [np.concatenate([g[..., None], geometry.slash(e)], axis=-1)
             for g, e in zip(gammas, frames)]
    eye = np.eye(2)[..., None]
    cliff = max(float(np.abs(block_product(triad[i], triad[j])
                             + block_product(triad[j], triad[i])
                             - 2 * geometry.ETA[i, j] * eye).max())
                for i in range(3) for j in range(3))
    rep.add("oracle.clifford", cliff)

    # the three gammas as one fiber-major (2, 2, 3) stack
    gamma = np.stack(gammas, axis=-1)
    b = geometry.B_INTERTWINER[..., None]
    btw = float(np.abs(block_product(gamma.conj().swapaxes(0, 1), b)
                       + block_product(b, gamma)).max())
    rep.add("oracle.b_intertwiner", btw)

    intrinsic, transported = spinfields.dirac_pair(pts)
    rep.add("oracle.dirac_pair", float(np.abs(intrinsic - transported).max()))

    rm, theta = 1.0, 0.4
    levels = np.arange(-5.5, 6.5)
    # the field-side T-action of d_theta: band 0 holds the level blocks, and
    # any other band is action leaking out of its level
    bands = spinfields.t_bands(spinfields.d_theta_pair(rm), levels, theta)
    grid = bands.pop(0, 0.0)
    blocks = np.stack([desitter.hamiltonian_theta(levels, rm, theta),
                       spinfields.level_block(levels, rm, theta)])
    leak = max((float(np.abs(b).max()) for b in bands.values()), default=0.0)
    rep.add("oracle.hamiltonian_vs_grid", max(float(np.abs(blocks - grid).max()), leak),
            notes="hamiltonian_theta and level_block theta-derivative blocks "
                  "vs grid T-action, |n| <= 11/2")

    defect = spinfields.conservation_defect(levels[:, None], rm, np.array([0.0, 0.35, 0.7]))
    rep.add("oracle.slice_independence", float(np.abs(defect).max()),
            notes="(cosh G)' + M_n^* cosh G + cosh G M_n, |n| <= 11/2, theta in {0, 0.35, 0.7}")

    rep.add("oracle.minkowski_commutation", spinfields.minkowski_commutation_residual())
    return rep


def _assemble(args: argparse.Namespace) -> tuple[desitter.DeSitterParams, SpectralQuadruple]:
    """The --rm, --theta, --nmax point and the quadruple assembled there."""
    p = desitter.DeSitterParams(rm=args.rm, theta=args.theta, nmax=args.nmax)
    return p, desitter.assemble_quadruple(p)


def _assemble_three_interior_levels(args: argparse.Namespace):
    """``_assemble``, but first refuse fewer than three interior levels: the
    reconstruct section reads the third-order term, band 2."""
    if args.nmax < args.margin + 2:
        raise TruncationError(f"margin {args.margin} needs nmax >= {args.margin + 2}, "
                              f"not {args.nmax}")
    return _assemble(args)


def _run_all(args: argparse.Namespace) -> AxiomReport:
    rep = AxiomReport()
    rep.extend(_section_sl2(args.rm ** 2, "half_integer"))
    p, q = _assemble_three_interior_levels(args)
    rep.extend(_section_quadruple(p, q, args.margin))
    rep.extend(_section_crosscheck(args.rm, args.theta, args.nmax))
    rep.extend(_section_reconstruct(p, q, args.margin))
    rep.extend(_section_finite_verify(1 + 2j))
    rep.extend(_section_finite_distance(2.0))
    rep.extend(_section_oracle(args.seed))
    return rep


# grid points per batched quadruple: the default 4 x 3 grid is one batch,
# and a large grid's memory stays that of a few points
SWEEP_BATCH = 16


def _run_sweep(args: argparse.Namespace) -> list[AxiomReport]:
    """The reports of the rm x theta grid points, in C order, checked as
    batched quadruples of up to ``SWEEP_BATCH`` points.  Every point shares
    nmax and the margin, so a truncation too small for the margin is a
    ``TruncationError`` of the whole grid, a usage error."""
    rm, theta = np.repeat(args.rm, len(args.theta)), np.tile(args.theta, len(args.rm))
    reports = []
    for i in range(0, rm.size, SWEEP_BATCH):
        part = slice(i, i + SWEEP_BATCH)
        q = desitter.assemble_quadruple(desitter.DeSitterParams(
            rm=rm[part], theta=theta[part], nmax=args.nmax))
        reports += verify_points(q, args.margin, include_noncommutativity=rm[part] != 0.0)
    return reports


def _sweep_payload(params: dict, reports: list[AxiomReport], tol: dict) -> dict:
    """Grid entries, aggregate and verdict of a sweep, overrides applied per
    point; each entry echoes the params at its own rm and theta.  No point is
    skipped: ``skipped`` and ``notes`` of schema version 1 are false and
    empty in every entry."""
    for rep in reports:
        rep.override(tol)
    points = [{**params, "rm": rm, "theta": theta}
              for rm in params["rm"] for theta in params["theta"]]
    grid = [{"params": point, "checks": rep.as_dicts(), "passed": rep.passed,
             "skipped": False, "notes": ""} for point, rep in zip(points, reports)]
    passed, n = [rep.passed for rep in reports], len(params["theta"])
    aggregate = {"passed": all(passed),
                 "pass_matrix": [passed[i:i + n] for i in range(0, len(passed), n)],
                 "rm_values": params["rm"], "theta_values": params["theta"]}
    return {"grid": grid, "aggregate": aggregate, "passed": aggregate["passed"]}


def _render_csv(payload: dict) -> str:
    sections = ([("", payload["checks"])] if "checks" in payload else
                [(f"rm={e['params']['rm']},theta={e['params']['theta']}:", e["checks"])
                 for e in payload["grid"]])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "residual", "tolerance", "pass", "margin", "notes"])
    for prefix, checks in sections:
        for row in checks:
            writer.writerow([prefix + row["id"], repr(row["residual"]), repr(row["tolerance"]),
                             row["pass"], row["margin"], row["notes"]])
    return buf.getvalue()


def _write_atomic(path: str, text: str):
    """Write the report through a temporary file renamed over the path, so a
    reader never sees half of it.  A symlink is followed and its target gets
    the report; an existing file that is not a regular file (a device or a
    FIFO) is written in place.  The file keeps the mode an ordinary open
    would give it."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".specquad-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit code, 0, 1 or 2; an exception
    raised by a section propagates."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(parser, argv)
        tol = dict(args.tol or ())  # a later override wins
        # the params echo; json writes no complex, so --m echoes str(m)
        params = {a.dest: str(v) if isinstance(v := getattr(args, a.dest), complex) else v
                  for a in _subcommand_flags(parser, args.subcommand)
                  if a not in _shared_flags()._actions}

        result = args.run(args)
        payload: dict = {"version": REPORT_VERSION, "subcommand": args.subcommand,
                         "params": params}
        if isinstance(result, AxiomReport):
            result.override(tol)
            payload.update(checks=result.as_dicts(), passed=result.passed)
        else:
            payload.update(_sweep_payload(params, result, tol))

        text = (_render_csv(payload) if args.format == "csv"
                else json.dumps(payload, separators=(",\n", ": ")) + "\n")
        if args.output:
            try:
                _write_atomic(args.output, text)
            except OSError as exc:
                raise ConfigError(f"cannot write report {args.output}: "
                                  f"{exc.strerror or exc}") from exc
        else:
            sys.stdout.write(text)
    except (ConfigError, TruncationError) as exc:
        print(f"specquad: error: {exc}", file=sys.stderr)
        return 2
    return 0 if payload["passed"] else 1


def main() -> None:
    """The command-line entry: ``run``, with a crash reported as exit 3."""
    try:
        code = run()
    except Exception:
        traceback.print_exc()
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
