"""Batch verification front end.

Subcommands rebuild the operator data at the requested parameters, run the
named checks and write one machine-readable report (schema version 1).
Reports carry no timestamps and all random draws are seeded from the
config, so identical configurations produce bit-identical files.

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
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``run`` of a process and
    reused: parsing keeps no state in it, since every ``--tol`` list and
    every config token lands in the fresh namespace of one parse."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value file; flags take precedence")
    common.add_argument("--output", "-o", help="report path (default: stdout)")
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--tol", action="append", default=None, metavar="ID=VALUE",
                        help="tolerance override per report check id (repeatable); "
                             "name@k shares the entry of name; unknown ids exit 2")

    parser = argparse.ArgumentParser(
        prog="specquad",
        description="verification suite for truncated spectral quadruples")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        # a token that starts like a negative number (-1e-3, -.5e0, -1,2,
        # -1+2j) is a flag's value; argparse's own pattern takes only -1 and
        # -.5 and reads the others as unknown options
        p._negative_number_matcher = re.compile(r"-\.?\d")
        return p

    p = add("sl2-classify", help="series classification and ladder law")
    p.add_argument("--r2m2", type=float, required=True)
    p.add_argument("--lattice", choices=("integer", "half_integer"),
                   default="half_integer")

    for name in ("quadruple-verify", "reconstruct"):
        p = add(name)
        p.add_argument("--rm", type=float, default=1.0)
        p.add_argument("--theta", type=float, default=0.3)
        p.add_argument("--nmax", type=int, default=32)
        p.add_argument("--margin", type=int, default=4)

    p = add("desitter-crosscheck", help="recursion vs closed-form ladder blocks")
    p.add_argument("--rm", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--nmax", type=int, default=16)

    for name in ("finite-verify", "finite-distance"):
        p = add(name)
        p.add_argument("--m", type=str, default="1",
                       help="Dirac parameter, a Python complex literal")

    p = add("oracle-check", help="independent geometry and symmetry-action suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("all", help="every section at the default parameters")
    p.add_argument("--rm", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.3)
    p.add_argument("--nmax", type=int, default=32)
    p.add_argument("--margin", type=int, default=4)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("sweep", help="quadruple-verify at every point of an rm x theta grid")
    p.add_argument("--rm", type=str, default="0,0.5,1,2",
                   help="comma-separated rm grid")
    p.add_argument("--theta", type=str, default="0,0.3,1.0",
                   help="comma-separated theta grid")
    p.add_argument("--nmax", type=int, default=32)
    p.add_argument("--margin", type=int, default=4)
    return parser


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict[str, str]:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                out[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return out


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse the command line; config lines enter as flags placed before
    it, so they get the flags' type and choice checks and an explicit flag
    wins.  A tol.ID line becomes --tol ID=VALUE."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    tokens = []
    for key, value in _load_config(args.config).items():
        if key.startswith("tol."):
            key, value = "tol", f"{key[4:]}={value}"
        elif not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r}")
        tokens.append(f"--{key}={value}")
    # argv[0] is the subcommand: the top-level parser has no options
    return parser.parse_args([argv[0], *tokens, *argv[1:]])


# the largest |rm| a run accepts: the checks multiply two mass or ladder
# entries, up to (2 rm)^2 at the doubled mass of the linearity check, and
# the block norms and band fits square entries, so (2 rm)^4 must stay a
# double
RM_MAX = float(np.finfo(float).max) ** 0.25 / 2


def _check_parameters(args: argparse.Namespace):
    """Check the --rm, --theta, --r2m2, --seed, --nmax and --margin values
    before any section runs: a nan or inf, an |rm| above ``RM_MAX``, a theta
    whose cosh overflows a double, a negative seed or margin, or an --nmax
    below ``desitter.MIN_NMAX`` is a usage error named by its flag, and a
    sweep's grids become their lists of floats."""
    for flag in ("rm", "theta", "r2m2"):
        value = getattr(args, flag, None)
        if value is None:
            continue
        if args.subcommand == "sweep":
            values = _parse_grid(value, flag)
            setattr(args, flag, values)
        elif math.isfinite(value):
            values = [value]
        else:
            raise ConfigError(f"--{flag} {value!r}: must be finite")
        if flag == "theta":
            for theta in values:
                try:
                    math.cosh(theta)
                except OverflowError:
                    raise ConfigError(f"--theta {theta!r}: cosh(theta) overflows a double "
                                      f"(|theta| above about 710.48)") from None
        if flag == "rm":
            for rm in values:
                if abs(rm) > RM_MAX:
                    raise ConfigError(f"--rm {rm!r}: |rm| above {RM_MAX!r} overflows "
                                      f"the squares the checks form")
    if getattr(args, "seed", 0) < 0:
        raise ConfigError(f"--seed {args.seed}: must be non-negative")
    if getattr(args, "nmax", math.inf) < desitter.MIN_NMAX:
        raise ConfigError(f"--nmax {args.nmax}: must be at least {desitter.MIN_NMAX}")
    if getattr(args, "margin", 0) < 0:
        raise ConfigError(f"--margin {args.margin}: must be non-negative")


def _parse_tolerances(pairs: Sequence[str] | None) -> dict[str, float]:
    """ID=VALUE overrides, later ones winning; an id that is not a
    registry key is a usage error."""
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"bad tolerance override {pair!r}, expected ID=VALUE")
        key, value = pair.split("=", 1)
        try:
            out[key.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {pair!r}") from exc
    try:
        return validate_overrides(out)
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
        terms = reconstruct.commutator_expansion(q.ih, q.u, q.u, min(5, margin), margin)
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
        rep.add("finite.distance", abs(d - 1.0 / abs(m)),
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


# one sweep point: (params echo, report or None when skipped, skip note)
SweepCell = tuple[dict, AxiomReport | None, str]


def _run_subcommand(args: argparse.Namespace) -> tuple[dict, AxiomReport | list[list[SweepCell]]]:
    """Returns (params echo, flat report), or for sweep (params echo, grid rows)."""
    sc = args.subcommand
    if sc == "sl2-classify":
        return ({"r2m2": args.r2m2, "lattice": args.lattice},
                _section_sl2(args.r2m2, args.lattice))
    if sc == "quadruple-verify":
        params = {"rm": args.rm, "theta": args.theta, "nmax": args.nmax,
                  "margin": args.margin}
        return params, _section_quadruple(*_assemble(args), args.margin)
    if sc == "desitter-crosscheck":
        params = {"rm": args.rm, "theta": args.theta, "nmax": args.nmax}
        return params, _section_crosscheck(args.rm, args.theta, args.nmax)
    if sc in ("reconstruct", "all"):
        # the reconstruct section reads the third-order term
        if args.margin < 3:
            raise ConfigError(f"--margin {args.margin}: reconstruct needs a margin of at least 3")
    if sc == "reconstruct":
        params = {"rm": args.rm, "theta": args.theta, "nmax": args.nmax,
                  "margin": args.margin}
        return params, _section_reconstruct(*_assemble(args), args.margin)
    if sc == "finite-verify":
        m = _parse_complex(args.m)
        return {"m": str(m)}, _section_finite_verify(m)
    if sc == "finite-distance":
        m = _parse_complex(args.m)
        return {"m": str(m)}, _section_finite_distance(m)
    if sc == "oracle-check":
        return {"seed": args.seed}, _section_oracle(args.seed)
    if sc == "all":
        params = {"rm": args.rm, "theta": args.theta, "nmax": args.nmax,
                  "margin": args.margin, "seed": args.seed}
        rep = AxiomReport()
        rep.extend(_section_sl2(args.rm ** 2, "half_integer"))
        p, q = _assemble(args)
        rep.extend(_section_quadruple(p, q, args.margin))
        rep.extend(_section_crosscheck(args.rm, args.theta, args.nmax))
        rep.extend(_section_reconstruct(p, q, args.margin))
        rep.extend(_section_finite_verify(1 + 2j))
        rep.extend(_section_finite_distance(2.0))
        rep.extend(_section_oracle(args.seed))
        return params, rep
    if sc == "sweep":
        return _run_sweep(args)
    raise ConfigError(f"unknown subcommand {sc}")


def _parse_complex(text: str) -> complex:
    """The --m value; a nan or inf part is rejected here as a usage error
    (``build_finite_triple`` would refuse it with a crash exit)."""
    try:
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"--m: bad complex literal {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConfigError(f"--m {text!r}: real and imaginary parts must be finite")
    return value


def _parse_grid(text: str, flag: str) -> list[float]:
    """A comma-separated --rm or --theta grid of finite floats."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--{flag}: bad grid {text!r}") from exc
    if not values:
        raise ConfigError(f"--{flag}: empty grid")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"--{flag} {text!r}: grid values must be finite")
    return values


# grid points per batched quadruple: the default 4 x 3 grid is one batch,
# and a large grid's memory stays that of a few points
SWEEP_BATCH = 16


def _run_sweep(args: argparse.Namespace) -> tuple[dict, list[list[SweepCell]]]:
    """The rm x theta grid points checked as batched quadruples of up to
    ``SWEEP_BATCH`` points; a truncation too small for the margin skips
    every point with its note."""
    rms, thetas = args.rm, args.theta
    params = {"rm": rms, "theta": thetas, "nmax": args.nmax, "margin": args.margin}
    points = [{"rm": rm, "theta": theta, "nmax": args.nmax, "margin": args.margin}
              for rm in rms for theta in thetas]
    rm, theta = np.repeat(rms, len(thetas)), np.tile(thetas, len(rms))
    try:
        reports, note = [], ""
        for i in range(0, len(points), SWEEP_BATCH):
            part = slice(i, i + SWEEP_BATCH)
            q = desitter.assemble_quadruple(desitter.DeSitterParams(
                rm=rm[part], theta=theta[part], nmax=args.nmax))
            reports += verify_points(q, args.margin, include_noncommutativity=rm[part] != 0.0)
    except TruncationError as exc:
        reports, note = [None] * len(points), f"truncation too small: {exc}"
    cells = [(point, rep, note) for point, rep in zip(points, reports)]
    return params, [cells[i:i + len(thetas)] for i in range(0, len(cells), len(thetas))]


def _sweep_payload(params: dict, rows: list[list[SweepCell]], tol: dict) -> dict:
    """Grid entries and aggregate of a sweep, overrides applied per point."""
    cells = [cell for row in rows for cell in row]
    for _, rep, _ in cells:
        if rep is not None:
            rep.override(tol)
    grid = [{"params": point, "checks": [] if rep is None else rep.as_dicts(),
             "passed": rep is not None and rep.passed, "skipped": rep is None,
             "notes": note} for point, rep, note in cells]
    matrix = [[None if rep is None else rep.passed for _, rep, _ in row] for row in rows]
    effective = [rep.passed for _, rep, _ in cells if rep is not None]
    aggregate = {"passed": bool(effective) and all(effective), "pass_matrix": matrix,
                 "rm_values": params["rm"], "theta_values": params["theta"]}
    return {"grid": grid, "aggregate": aggregate}


def _render_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2) + "\\n"``, byte for byte, without
    json's pure-Python encoder, which ``indent`` forces on CPython.  A list
    under a ``checks`` key is written one row per template."""
    out: list[str] = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii

# the keys of AxiomReport.as_dicts, in its order
CHECK_KEYS = ("id", "residual", "tolerance", "pass", "margin", "notes")


def _encode_float(x: float) -> str:
    """json's spelling of a float."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _write_json(value, newline: str, out: list[str]):
    """Append the indent-2 JSON of value to out; newline is a line break
    plus the indent of the line value starts on."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_encode_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out.append(sep + _encode_str(key) + ": ")
            if key == "checks" and isinstance(item, list):
                _write_checks(item, inner, out)
            else:
                _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"cannot write {type(value).__name__} to a report")


def _write_checks(rows: list, newline: str, out: list[str]):
    """A ``checks`` list, as ``_write_json`` writes it: every row with the
    keys of ``CHECK_KEYS`` in that order comes from one template, any other
    row from ``_write_json``."""
    if not rows:
        out.append("[]")
        return
    row_line = newline + "  "
    key_line = row_line + "  "
    template = ("{" + key_line + '"id": %s,' + key_line + '"residual": %s,'
                + key_line + '"tolerance": %s,' + key_line + '"pass": %s,'
                + key_line + '"margin": %s,' + key_line + '"notes": %s' + row_line + "}")
    sep = "[" + row_line
    for row in rows:
        out.append(sep)
        if isinstance(row, dict) and tuple(row) == CHECK_KEYS:
            out.append(template % (
                _encode_str(row["id"]), _encode_float(row["residual"]),
                _encode_float(row["tolerance"]), "true" if row["pass"] else "false",
                int.__repr__(row["margin"]), _encode_str(row["notes"])))
        else:
            _write_json(row, row_line, out)
        sep = "," + row_line
    out.append(newline + "]")


def _render_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "residual", "tolerance", "pass", "margin", "notes"])
    if "checks" in payload:
        for row in payload["checks"]:
            writer.writerow([row["id"], repr(row["residual"]), repr(row["tolerance"]),
                             row["pass"], row["margin"], row["notes"]])
    else:
        for entry in payload.get("grid", []):
            prefix = f"rm={entry['params']['rm']},theta={entry['params']['theta']}:"
            if entry["skipped"]:
                writer.writerow([prefix + "skipped", "", "", "", "", entry["notes"]])
            for row in entry["checks"]:
                writer.writerow([prefix + row["id"], repr(row["residual"]),
                                 repr(row["tolerance"]), row["pass"], row["margin"],
                                 row["notes"]])
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
        _check_parameters(args)
        tol = _parse_tolerances(args.tol)

        params, result = _run_subcommand(args)
        payload: dict = {"version": REPORT_VERSION, "subcommand": args.subcommand,
                         "params": params}
        if isinstance(result, AxiomReport):
            result.override(tol)
            payload["checks"] = result.as_dicts()
            payload["passed"] = result.passed
        else:
            payload.update(_sweep_payload(params, result, tol))
            payload["passed"] = payload["aggregate"]["passed"]
    except (ConfigError, TruncationError) as exc:
        print(f"specquad: error: {exc}", file=sys.stderr)
        return 2

    fmt = args.format or "json"
    text = _render_json(payload) if fmt == "json" else _render_csv(payload)
    if args.output:
        _write_atomic(args.output, text)
    else:
        sys.stdout.write(text)
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
