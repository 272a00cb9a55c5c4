"""Batch verification front end.

Subcommands rebuild the operator data at the requested parameters, run the
named checks and write one machine-readable report (schema version 1).
Exit code 0 means every check passed, 1 flags at least one failure, 2 a
usage or configuration error.  Reports carry no timestamps and all random
draws are seeded from the config, so identical configurations produce
bit-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import stat
import sys
import tempfile
from typing import Sequence

import numpy as np

from . import desitter, finite, geometry, reconstruct, sl2, spinfields
from .operators import TruncationError
from .quadruple import DEFAULT_TOLERANCES, AxiomReport, validate_overrides, verify_quadruple

REPORT_VERSION = 1
DEFAULT_SEED = 20201121


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
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
    subparsers: dict[str, argparse.ArgumentParser] = {}

    def add(name, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        subparsers[name] = p
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
        if name == "reconstruct":
            p.add_argument("--orders", type=int, default=3)

    p = add("desitter-crosscheck", help="recursion vs closed-form ladder blocks")
    p.add_argument("--rm", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--nmax", type=int, default=16)

    for name in ("finite-verify", "finite-distance"):
        p = add(name)
        p.add_argument("--m", type=str, default="1",
                       help="Dirac parameter, a Python complex literal")

    p = add("oracle-check", help="independent geometry and spinor-field suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("all", help="every section at the default parameters")
    p.add_argument("--rm", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.3)
    p.add_argument("--nmax", type=int, default=32)
    p.add_argument("--margin", type=int, default=4)
    p.add_argument("--orders", type=int, default=3)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("sweep", help="grid of quadruple-verify + reconstruct runs")
    p.add_argument("--rm", type=str, default="0,0.5,1,2",
                   help="comma-separated rm grid")
    p.add_argument("--theta", type=str, default="0,0.3,1.0",
                   help="comma-separated theta grid")
    p.add_argument("--nmax", type=int, default=32)
    p.add_argument("--margin", type=int, default=4)
    return parser, subparsers


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


def _apply_config(args: argparse.Namespace, parser_defaults: dict, cfg: dict[str, str]):
    tol_overrides = {}
    for key, value in cfg.items():
        if key.startswith("tol."):
            tol_overrides[key[4:]] = value
            continue
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigError(f"unknown config key {key!r}")
        current = getattr(args, attr)
        default = parser_defaults.get(attr)
        if current == default or current is None:
            kind = type(default) if default is not None else str
            try:
                setattr(args, attr, kind(value) if kind is not bool else value == "true")
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {value!r}") from exc
    # config entries go first, so a --tol flag for the same id wins
    args.tol = [f"{k}={v}" for k, v in tol_overrides.items()] + list(args.tol or [])


def _parse_tolerances(pairs: Sequence[str] | None) -> dict[str, float]:
    """ID=VALUE overrides, later ones winning; ids must be registry keys."""
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"bad tolerance override {pair!r}, expected ID=VALUE")
        key, value = pair.split("=", 1)
        try:
            out[key.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {pair!r}") from exc
    return validate_overrides(out)


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


def _section_quadruple(rm: float, theta: float, nmax: int, margin: int) -> AxiomReport:
    q = desitter.assemble_quadruple(desitter.DeSitterParams(rm=rm, theta=theta, nmax=nmax))
    return verify_quadruple(q, margin=margin, include_noncommutativity=(rm != 0.0))


def _section_crosscheck(rm: float, theta: float, nmax: int) -> AxiomReport:
    rep = AxiomReport()
    params = desitter.DeSitterParams(rm=rm, theta=theta, nmax=max(nmax, 8))
    rep.add("crosscheck.recursion_vs_closed_form",
            desitter.crosscheck_construction_vs_appendix(params))
    worst = 0.0
    for n in np.arange(-7.5, 8.5):
        blk = desitter.appendix_t_plus(n, rm, theta)
        target = ((n + 0.5) ** 2 + rm ** 2) * np.eye(2)
        worst = max(worst, float(np.abs(blk @ blk.conj().T - target).max()))
    rep.add("crosscheck.norm_law", worst, notes="T+(n) T+(n)* = ((n+1/2)^2 + rm^2) 1")
    return rep


def _section_reconstruct(rm: float, theta: float, nmax: int, margin: int,
                         orders: int) -> AxiomReport:
    rep = AxiomReport()
    q = desitter.assemble_quadruple(desitter.DeSitterParams(rm=rm, theta=theta, nmax=nmax))
    adm = reconstruct.extract_adm(q, margin=margin)
    for k in range(min(3, orders + 1)):
        rep.add(f"reconstruct.order_{k}", adm.order_residuals[k])
    if rm == 0.0:
        rep.add("reconstruct.massless_degeneracy",
                reconstruct.massless_degeneracy_check(q, kmax=min(5, margin), margin=margin),
                notes="all orders vanish for rm = 0")
        rep.add("reconstruct.mass_roundtrip", abs(adm.mass_scale), notes="recovered rm vs 0")
        return rep
    rep.add("reconstruct.third_order_fit", adm.third_order_fit,
            notes=f"measured coefficient kappa = {adm.kappa:.12g}")
    rep.add("reconstruct.mass_roundtrip", abs(adm.mass_scale - rm),
            notes=f"recovered rm = {adm.mass_scale:.12g}")
    q2 = desitter.assemble_quadruple(
        desitter.DeSitterParams(rm=2 * rm, theta=theta, nmax=nmax))
    kappa2, _ = reconstruct.third_order_coefficient(q2, margin)
    rep.add("reconstruct.linearity_in_mass", abs(kappa2 - 2 * adm.kappa),
            DEFAULT_TOLERANCES["reconstruct.linearity_in_mass"] * abs(adm.kappa),
            notes="kappa(2 rm) vs 2 kappa(rm)")
    rep.add("reconstruct.lapse_mass", abs(adm.lapse_mass - rm),
            notes="fiber trace of iH e_perp")
    rep.add("reconstruct.shift", adm.shift)
    rep.add("reconstruct.adm_shape", adm.shape_residual)
    return rep


def _section_finite_verify(m: complex) -> AxiomReport:
    rep = finite.validate_finite_triple(finite.two_point_triple(m))
    mism = sum(tuple(finite.sign_table(n)) != KO_SIGNS[n % 8] for n in range(16))
    rep.add("finite.sign_table", float(mism),
            notes="mismatches against the KO-dimension sign table of Connes "
                  "(J. Math. Phys. 36, 1995), n in [0, 15]")
    quad = finite.quadruple_from_triple(
        finite.two_point_triple(m), [(0.0, m), (1.0, m)])
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

    pts = [geometry.ChartPoint(float(th), float(ph))
           for th, ph in zip(rng.uniform(-1.5, 1.5, 50), rng.uniform(0, 2 * np.pi, 50))]
    emb = max(abs(-g.embedding[0] ** 2 + g.embedding[1] ** 2 + g.embedding[2] ** 2 - 1.0)
              for g in map(geometry.geometry_at, pts))
    rep.add("oracle.embedding", emb)
    ktrace = max(abs(geometry.geometry_at(p).extrinsic_trace - 2.0 / p.radius)
                 for p in pts)
    rep.add("oracle.extrinsic_trace", ktrace,
            notes="K_A^A = (n-1)/R with n = 3 the embedding dimension")

    sym = geometry.symmetry_checks(geometry.ChartPoint(0.5, 1.0))
    rep.add("oracle.killing_brackets",
            max(sym["bracket_l01_l21"], sym["bracket_l02_l21"], sym["bracket_l01_l02"]))
    rep.add("oracle.casimir", sym["casimir"])

    cliff = 0.0
    gammas = (geometry.GAMMA0, geometry.GAMMA1, geometry.GAMMA2)
    for p in pts[:20]:
        frames = geometry.frame_vectors(p)
        for i in range(3):
            for j in range(3):
                got = (geometry.slash(frames[i]) @ geometry.slash(frames[j])
                       + geometry.slash(frames[j]) @ geometry.slash(frames[i]))
                cliff = max(cliff, float(np.abs(got - 2 * geometry.ETA[i, j] * np.eye(2)).max()))
                flat = gammas[i] @ gammas[j] + gammas[j] @ gammas[i]
                cliff = max(cliff, float(np.abs(flat - 2 * geometry.ETA[i, j] * np.eye(2)).max()))
    rep.add("oracle.clifford", cliff)

    btw = max(float(np.abs(g.conj().T @ geometry.B_INTERTWINER
                           + geometry.B_INTERTWINER @ g).max()) for g in gammas)
    rep.add("oracle.b_intertwiner", btw)

    dirac_worst = 0.0
    for _ in range(20):
        psi = spinfields.random_spinor_field(rng)
        p = geometry.ChartPoint(float(rng.uniform(-1.2, 1.2)),
                                float(rng.uniform(0.1, 6.1)))
        dirac_worst = max(dirac_worst, spinfields.dirac_agreement_residual(psi, p))
    rep.add("oracle.dirac_pair", dirac_worst)

    rm, theta = 1.0, 0.4
    basis = desitter.assemble_quadruple(
        desitter.DeSitterParams(rm=rm, theta=theta, nmax=8)).basis
    ham = desitter.hamiltonian_theta(rm, theta, basis)
    worst = 0.0
    for n in np.arange(-5.5, 6.5):
        blk = ham.band_block(n, 0)
        for col, sign in ((0, +1), (1, -1)):
            coefs = spinfields.apply_T_grid("d_theta", n, sign, rm, theta)
            worst = max(worst, abs(coefs[(n, +1)] - blk[0, col]))
            worst = max(worst, abs(coefs[(n, -1)] - blk[1, col]))
    rep.add("oracle.hamiltonian_vs_grid", worst,
            notes="matrix theta-derivative blocks vs grid T-action, |n| <= 11/2")

    sol1 = spinfields.SolutionCoefficients(rm, {0.5: np.array([1.0, 0.2j]),
                                                1.5: np.array([0.1, 0.0])})
    sol2 = spinfields.SolutionCoefficients(rm, {0.5: np.array([0.3, 1.0]),
                                                1.5: np.array([0.0, 0.5j])})
    rep.add("oracle.slice_independence", spinfields.slice_independence(sol1, sol2, 0.0, 0.7))

    mink = 0.0
    for _ in range(5):
        field = spinfields.random_poly_spinor(rng)
        sample = [rng.uniform(-1.0, 1.0, 3) for _ in range(4)]
        mink = max(mink, spinfields.minkowski_commutation_residual(field, sample))
    rep.add("oracle.minkowski_commutation", mink)
    return rep


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
        return params, _section_quadruple(args.rm, args.theta, args.nmax, args.margin)
    if sc == "desitter-crosscheck":
        params = {"rm": args.rm, "theta": args.theta, "nmax": args.nmax}
        return params, _section_crosscheck(args.rm, args.theta, args.nmax)
    if sc == "reconstruct":
        params = {"rm": args.rm, "theta": args.theta, "nmax": args.nmax,
                  "margin": args.margin, "orders": args.orders}
        if args.orders > args.margin:
            raise ConfigError("orders must not exceed margin")
        return params, _section_reconstruct(args.rm, args.theta, args.nmax,
                                            args.margin, args.orders)
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
                  "margin": args.margin, "orders": args.orders, "seed": args.seed}
        rep = AxiomReport()
        rep.extend(_section_sl2(args.rm ** 2, "half_integer"))
        rep.extend(_section_quadruple(args.rm, args.theta, args.nmax, args.margin))
        rep.extend(_section_crosscheck(args.rm, args.theta, 16))
        rep.extend(_section_reconstruct(args.rm, args.theta, args.nmax,
                                        args.margin, args.orders))
        rep.extend(_section_finite_verify(1 + 2j))
        rep.extend(_section_finite_distance(2.0))
        rep.extend(_section_oracle(args.seed))
        return params, rep
    if sc == "sweep":
        return _run_sweep(args)
    raise ConfigError(f"unknown subcommand {sc}")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"bad complex literal {text!r}") from exc


def _parse_grid(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}") from exc
    if not values:
        raise ConfigError("empty grid")
    return values


def _run_sweep(args: argparse.Namespace) -> tuple[dict, list[list[SweepCell]]]:
    rms = _parse_grid(args.rm)
    thetas = _parse_grid(args.theta)
    params = {"rm": rms, "theta": thetas, "nmax": args.nmax, "margin": args.margin}
    rows = []
    for rm in rms:
        row = []
        for theta in thetas:
            point = {"rm": rm, "theta": theta, "nmax": args.nmax,
                     "margin": args.margin}
            try:
                row.append((point, _section_quadruple(rm, theta, args.nmax, args.margin), ""))
            except TruncationError as exc:
                row.append((point, None, f"truncation too small: {exc}"))
        rows.append(row)
    return params, rows


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
    return json.dumps(payload, indent=2) + "\n"


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
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            defaults = {action.dest: action.default
                        for action in subparsers[args.subcommand]._actions
                        if action.dest != "help"}
            _apply_config(args, defaults, _load_config(args.config))
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
    except ConfigError as exc:
        print(f"specquad: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
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
    sys.exit(run())


if __name__ == "__main__":
    main()
