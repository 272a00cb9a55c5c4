"""Spectral-quadruple data structure and matrix-level axiom verification.

A quadruple bundles the algebra generator u, the time vector e_perp, the
volume element gamma, the antilinear charge conjugation C, the rotation and
ladder generators of the symmetry Lie algebra and the stored evolution
generator iH (the antihermitian generator is kept directly, so no i-vs-H
sign convention leaks downstream).  Every check returns named residuals that
are compared against tolerances.  Fiberwise identities are checked on the
whole window; identities that the truncation breaks at the cutoff are
checked on the interior levels only, by level masks on the operator bands.

``DEFAULT_TOLERANCES`` bounds every check id that a specquad module reports;
a report id ``name@k`` shares the entry of ``name``.  Overrides are keyed by
report ids, replace bounds on a finished report and reject unknown ids.

A quadruple holds the batch of parameter points of its basis, and one run
of a check serves all of them.  A single point is the batch shape (), run
by the same code.  The results are per point: a residual is an array of
the batch shape, and a report family gives a list of one ``AxiomReport``
per point in the C order of the batch (a list of one at a single point).
``verify_points`` gives the per-point reports of the whole suite;
``verify_quadruple`` is its single-point case.  Whatever is decided from
the values of a point (a sign, a median, whether a row is reported) is
decided at each point on its own, and the orientability fit, one for the
whole batch, links the bands stored at any point, which leaves each
point's floats exact (see ``check_orientability``).  So every point's
report equals the report of that point checked alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from .operators import (
    AntilinearOperator,
    BasisDescriptor,
    InteriorProjector,
    TruncatedOperator,
    TruncationError,
    antilinear_conjugate,
    anticommutator,
    block_stack,
    commutator,
    interior_residual,
    median,
    op_norm,
)

__all__ = [
    "SpectralQuadruple",
    "AxiomCheck",
    "AxiomReport",
    "DEFAULT_TOLERANCES",
    "registry_key",
    "validate_overrides",
    "s_exponent",
    "check_time_vector",
    "check_volume_element",
    "check_first_order",
    "check_charge_conjugation",
    "check_orientability",
    "check_spatial_triple",
    "check_symmetric_conditions",
    "check_noncommutativity",
    "verify_points",
    "verify_quadruple",
]


@dataclass(frozen=True)
class SpectralQuadruple:
    """Operator data of a truncated spectral quadruple.

    ``ih`` stores the antihermitian evolution generator iH itself.  The
    operators derived from the data (``one``, ``u_adj``, ``u_sq``,
    ``u_op``, ``ih_u``, ``ih_e_perp`` and ``adm_commutator``) are built on first use
    and shared by every check and by the reconstruction; a quadruple made
    by ``dataclasses.replace`` starts with none of them built.
    """

    basis: BasisDescriptor
    u: TruncatedOperator
    e_perp: TruncatedOperator
    gamma: TruncatedOperator
    cc: AntilinearOperator
    t21: TruncatedOperator
    t_plus: TruncatedOperator
    t_minus: TruncatedOperator
    ih: TruncatedOperator
    spacetime_dim: int = 2

    def __post_init__(self):
        ops = [self.u, self.e_perp, self.gamma, self.t21, self.t_plus,
               self.t_minus, self.ih]
        if any(op.basis != self.basis for op in ops) or self.cc.basis != self.basis:
            raise ValueError("all operators must share the quadruple's basis")
        if self.spacetime_dim < 1:
            raise ValueError("spacetime_dim must be >= 1")

    @property
    def even_dim(self) -> bool:
        return self.spacetime_dim % 2 == 0

    @cached_property
    def one(self) -> TruncatedOperator:
        """The identity."""
        return TruncatedOperator.identity(self.basis)

    @cached_property
    def u_adj(self) -> TruncatedOperator:
        """u*."""
        return self.u.adjoint()

    @cached_property
    def u_sq(self) -> TruncatedOperator:
        """u^2."""
        return self.u.power(2)

    @cached_property
    def u_op(self) -> TruncatedOperator:
        """The opposite-algebra element C u* C."""
        return antilinear_conjugate(self.cc, self.u)

    @cached_property
    def ih_u(self) -> TruncatedOperator:
        """[iH, u]."""
        return commutator(self.ih, self.u)

    @cached_property
    def ih_e_perp(self) -> TruncatedOperator:
        """[iH, e_perp], the Dirac operator of the Hochschild cycle and of
        the spatial triple: it carries the spatial Clifford content
        (N g^{ij} e_j d_j)."""
        return commutator(self.ih, self.e_perp)

    @cached_property
    def adm_commutator(self) -> TruncatedOperator:
        """The ADM commutator [[iH, e_perp], u]; for de Sitter its shift-1
        band has fiber (2/cosh theta) i e2."""
        return commutator(self.ih_e_perp, self.u)


@dataclass(frozen=True)
class AxiomCheck:
    check_id: str
    residual: float
    tolerance: float
    margin: int = 0
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class AxiomReport:
    entries: list[AxiomCheck] = field(default_factory=list)

    def add(self, check_id: str, residual: float, tolerance: float | None = None,
            margin: int = 0, notes: str = "") -> AxiomCheck:
        """Append a check; without a tolerance its bound is the table's."""
        if tolerance is None:
            tolerance = DEFAULT_TOLERANCES[registry_key(check_id)]
        entry = AxiomCheck(check_id, float(residual), float(tolerance), margin, notes)
        self.entries.append(entry)
        return entry

    def override(self, tolerances: Mapping[str, float] | None) -> "AxiomReport":
        """Replace, in place, the tolerance of every entry whose registry key
        is overridden; raises ValueError for an id not in the table."""
        tolerances = validate_overrides(tolerances)
        if not tolerances:
            return self
        self.entries = [replace(e, tolerance=tolerances.get(registry_key(e.check_id), e.tolerance))
                        for e in self.entries]
        return self

    def extend(self, other: "AxiomReport") -> "AxiomReport":
        self.entries.extend(other.entries)
        return self

    def __iter__(self) -> Iterator[AxiomCheck]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, check_id: str) -> AxiomCheck:
        for e in self.entries:
            if e.check_id == check_id:
                return e
        raise KeyError(check_id)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def as_dicts(self) -> list[dict]:
        return [
            {
                "id": e.check_id,
                "residual": e.residual,
                "tolerance": e.tolerance,
                "pass": e.passed,
                "margin": e.margin,
                "notes": e.notes,
            }
            for e in self.entries
        ]


DEFAULT_TOLERANCES = {
    "time_vector.square": 1e-14, "time_vector.antihermitian": 1e-14,
    "volume.gamma_square": 1e-14, "volume.braiding": 1e-14,
    "first_order.u_u": 1e-10, "first_order.usq_u": 1e-10, "first_order.u_uadj": 1e-10,
    "charge_conjugation.square": 1e-12, "charge_conjugation.t21": 1e-10,
    "charge_conjugation.tplus": 1e-10, "charge_conjugation.tminus": 1e-10,
    "charge_conjugation.u": 1e-10, "charge_conjugation.generator": 1e-10,
    "orientability.membership": 1e-8,
    "spatial.selfadjoint": 1e-8, "spatial.bounded_uniform": 1e-8,
    "spatial.first_order": 1e-8, "spatial.eigenspace_algebra": 1e-12,
    "symmetric.t21_u": 1e-10, "symmetric.t21_e_perp": 1e-10, "symmetric.t21_gamma": 1e-10,
    "symmetric.sl2_raise": 1e-10, "symmetric.sl2_lower": 1e-10, "symmetric.sl2_pair": 1e-10,
    "symmetric.tplus_adjoint": 1e-10, "symmetric.tminus_adjoint": 1e-10,
    "algebra.u_unitary": 1e-12,
    "evolution.noncommutative": 0.0,
    "sl2.ladder_recursion": 1e-14, "sl2.ladder_closed_form": 0.0, "sl2.classification": 0.0,
    "crosscheck.recursion_vs_closed_form": 1e-12, "crosscheck.norm_law": 1e-12,
    "reconstruct.order_1": 1e-10, "reconstruct.order_2": 1e-10,
    "reconstruct.massless_degeneracy": 1e-10, "reconstruct.mass_roundtrip": 1e-8,
    "reconstruct.third_order_fit": 1e-8, "reconstruct.lapse_mass": 1e-8,
    "reconstruct.shift": 1e-10, "reconstruct.adm_shape": 1e-10,
    # relative: the reconstruct section multiplies it by |kappa|
    "reconstruct.linearity_in_mass": 1e-8,
    "finite.selfadjoint": 1e-12, "finite.j_commutes": 1e-12,
    "finite.gamma_anticommutes": 1e-12, "finite.first_order": 1e-12,
    "finite.sign_table": 0.0, "finite.e_perp_square": 1e-12,
    "finite.e_perp_antihermitian": 1e-12, "finite.volume_braiding": 1e-12,
    "finite.distance": 1e-6, "finite.distance_unbounded": 0.0,
    "oracle.embedding": 1e-12, "oracle.extrinsic_trace": 1e-9,
    "oracle.killing_brackets": 1e-9, "oracle.casimir": 1e-9, "oracle.clifford": 1e-12,
    "oracle.b_intertwiner": 1e-14, "oracle.dirac_pair": 1e-9,
    "oracle.hamiltonian_vs_grid": 1e-9, "oracle.slice_independence": 1e-8,
    "oracle.minkowski_commutation": 1e-8,
}


class _PointReports:
    """The reports of one check, one per point of the quadruple's batch in
    the C order of its shape.  ``add`` takes a residual per point (an array
    of the batch shape or a list in its C order) and notes shared by every
    point or one per point."""

    def __init__(self, q: SpectralQuadruple):
        self.reports = [AxiomReport() for _ in range(math.prod(q.basis.batch))]

    def add(self, check_id: str, residual, tolerance: float | None = None,
            margin: int = 0, notes: str | list[str] = ""):
        values = np.asarray(residual).ravel().tolist()
        if isinstance(notes, str):
            notes = [notes] * len(values)
        if tolerance is None:
            tolerance = DEFAULT_TOLERANCES[registry_key(check_id)]
        for rep, value, note in zip(self.reports, values, notes, strict=True):
            rep.add(check_id, value, tolerance, margin, note)

    def extend(self, part: list[AxiomReport]):
        for rep, other in zip(self.reports, part, strict=True):
            rep.extend(other)


def registry_key(check_id: str) -> str:
    """Table key of a report id: ``name@k`` shares the entry of ``name``."""
    return check_id.split("@", 1)[0]


def validate_overrides(tolerances: Mapping[str, float] | None) -> dict[str, float]:
    """Tolerance overrides as floats; raises ValueError for any id that is
    not a key of DEFAULT_TOLERANCES."""
    tolerances = dict(tolerances or {})
    unknown = sorted(set(tolerances) - DEFAULT_TOLERANCES.keys())
    if unknown:
        raise ValueError("unknown tolerance id " + ", ".join(map(repr, unknown)))
    return {k: float(v) for k, v in tolerances.items()}


def s_exponent(n: int) -> int:
    """Exponent in C^2 = (-1)^{s(n)} for spacetime dimension n."""
    return (n - 1) * (n - 2) * (n - 3) * (n - 4) // 8


def check_time_vector(q: SpectralQuadruple) -> list[AxiomReport]:
    """e_perp^2 = -1 and e_perp* = -e_perp (fiberwise, no edge effects)."""
    rep = _PointReports(q)
    rep.add("time_vector.square", op_norm(q.e_perp @ q.e_perp + q.one))
    rep.add("time_vector.antihermitian", op_norm(q.e_perp.adjoint() + q.e_perp))
    return rep.reports


def check_volume_element(q: SpectralQuadruple) -> list[AxiomReport]:
    """gamma^2 = +-1 (sign recorded per point) and the braiding with the
    time vector: anticommutator for even spacetime dimension, commutator
    for odd."""
    rep = _PointReports(q)
    square = q.gamma @ q.gamma
    r_plus = op_norm(square - q.one)
    r_minus = op_norm(square + q.one)
    plus = r_plus <= r_minus
    rep.add("volume.gamma_square", np.where(plus, r_plus, r_minus),
            notes=["gamma^2 = +1" if p else "gamma^2 = -1" for p in np.ravel(plus)])
    if q.even_dim:
        rep.add("volume.braiding", op_norm(anticommutator(q.e_perp, q.gamma)),
                notes="{e_perp, gamma}, even dim")
    else:
        rep.add("volume.braiding", op_norm(commutator(q.e_perp, q.gamma)),
                notes="[e_perp, gamma], odd dim")
    return rep.reports


def check_first_order(q: SpectralQuadruple, f: TruncatedOperator, g: TruncatedOperator,
                      margin: int) -> np.ndarray:
    """Interior residual of the dynamical first-order condition
    [[f, iH], g^op] with g^op = C g* C; f = u reads [u, iH] = -[iH, u] and
    g = u reads C u* C from the quadruple."""
    f_ih = -q.ih_u if f is q.u else commutator(f, q.ih)
    g_op = q.u_op if g is q.u else antilinear_conjugate(q.cc, g)
    return interior_residual(commutator(f_ih, g_op), margin)


def _antilinear_intertwine_residual(c: AntilinearOperator, x: TruncatedOperator,
                                    y: TruncatedOperator, margin: int) -> np.ndarray:
    """Interior residual of C x - y C as antilinear maps: ||M conj(X) - Y M||;
    both are R times a banded map, and the reflection R commutes with P."""
    return interior_residual(c.after(x).linear - c.before(y).linear, margin)


def check_charge_conjugation(q: SpectralQuadruple, margin: int) -> list[AxiomReport]:
    """C^2 = (-1)^{s(n)} and the intertwining of C with the symmetry
    generators: C T21 = T21 C, C T+ = T- C, C T- = T+ C, C iH = iH C, and
    the algebra conjugation C u = u* C."""
    rep = _PointReports(q)
    sign = (-1.0) ** s_exponent(q.spacetime_dim)
    target = sign * q.one
    rep.add("charge_conjugation.square",
            interior_residual(q.cc.squared() - target, margin), margin=margin,
            notes=f"C^2 = {'+1' if sign > 0 else '-1'} for n = {q.spacetime_dim}")
    rep.add("charge_conjugation.t21",
            _antilinear_intertwine_residual(q.cc, q.t21, q.t21, margin), margin=margin)
    rep.add("charge_conjugation.tplus",
            _antilinear_intertwine_residual(q.cc, q.t_plus, q.t_minus, margin),
            margin=margin)
    rep.add("charge_conjugation.tminus",
            _antilinear_intertwine_residual(q.cc, q.t_minus, q.t_plus, margin),
            margin=margin)
    # conjugation acts on the commutative algebra as pointwise complex
    # conjugation, so the unitary generator intertwines with its adjoint
    rep.add("charge_conjugation.u",
            _antilinear_intertwine_residual(q.cc, q.u, q.u_adj, margin),
            margin=margin, notes="C u = u* C")
    rep.add("charge_conjugation.generator",
            _antilinear_intertwine_residual(q.cc, q.ih, q.ih, margin),
            margin=margin, notes="C iH = iH C")
    return rep.reports


def check_orientability(q: SpectralQuadruple, monomial_degree_bound: int,
                        margin: int) -> np.ndarray:
    """Membership of the volume element in the span of the Hochschild-cycle
    candidates e_perp u^p [D, u^q] (even spacetime dimension; the e_perp
    prefix is dropped for odd), as the projection residual
    ||b - P b|| / ||b|| of the interior entries b of gamma, P the orthogonal
    projector onto the span of the candidates' interior entries.  A small
    residual certifies membership up to scale.

    The fit is split by band, which is exact: entries of different bands
    are different rows, so a group of candidates that shares no band,
    directly or through other candidates, with gamma has a zero right-hand
    side, fits 0 and adds nothing to the residual.  Only the group linked
    to the stored bands of gamma is built and fitted (4 of the 20
    candidates for de Sitter, where e_perp u^p [D, u^q] is band p + q and
    gamma band 0; the four are (2iq / cosh theta) gamma, of rank 1).  The
    links are read once for the batch from the bands a candidate can have,
    the sums of its factors' stored bands.  A band is stored when it is
    nonzero at some point, so the group holds the one each point links
    alone, and a candidate not linked at a point has entries there only on
    rows where b and the candidates linked there are zero: its inner
    products with them are exact zeros, and each point's residual is that
    of the point fitted alone.
    """
    d = monomial_degree_bound
    if d < 1:
        raise ValueError("empty candidate span: degree bound must be >= 1")
    # D = [iH, e_perp] for even dimension, iH for odd; the even-dim formula
    # gamma [iH, gamma] reduces to the mass term here and commutes with the
    # algebra, so it cannot represent the cycle
    dirac = q.ih_e_perp if q.even_dim else q.ih
    proj = InteriorProjector(q.basis, margin)
    gamma = proj.project(q.gamma)
    powers = {p: q.u_sq if p == 2 else q.u.power(p) for p in range(-d, d + 1)}
    comms = [q.adm_commutator if deg == 1 and q.even_dim else commutator(dirac, up)
             for deg, up in powers.items() if deg != 0]
    factors = [(up, comm) for up in powers.values() for comm in comms]
    linked, bands = _linked_group(gamma, q.e_perp if q.even_dim else q.one, factors)
    cols = _entries([proj.project(q.e_perp @ (up @ comm) if q.even_dim else up @ comm)
                     for up, comm in (factors[i] for i in linked)] + [gamma], bands)
    if not cols[-1].any(axis=(0, 2)).all():
        raise ValueError("volume element vanishes on the interior")
    # every other entry of the linked bands vanishes in all operands, so
    # fitting the stored entries is the Frobenius fit
    return _projection_residual(cols, q.basis.fiber_dim ** 2 * q.basis.nlevels).reshape(
        q.basis.batch)


def _linked_group(gamma: TruncatedOperator, prefix: TruncatedOperator,
                  factors: list) -> tuple[list[int], list[int]]:
    """The indices of the candidates prefix u^p [D, u^q], one per factor
    pair (u^p, [D, u^q]), linked to the stored bands of gamma, and the
    sorted bands they reach."""
    reach = [{e + a + b for e in prefix.bands for a in up.bands for b in comm.bands}
             for up, comm in factors]
    bands = set(gamma.bands)
    while True:
        linked = [i for i, r in enumerate(reach) if bands & r]
        grown = bands.union(*(reach[i] for i in linked))
        if grown == bands:
            return linked, sorted(bands)
        bands = grown


def _entries(ops: list[TruncatedOperator], bands: list[int]) -> np.ndarray:
    """The stored entries of the given bands of each operator at every point
    of the flattened batch, as one fresh (len(ops), rows, points, nlevels)
    stack, a row being one fiber entry of one band; a band shared by every
    point broadcasts over the point axis.  A row zero in every operator at
    every point adds exact zeros to every sum, so it is left out."""
    basis = ops[0].basis
    d, nl = basis.fiber_dim, basis.nlevels
    stacks = [[x.band(k).reshape(d * d, -1, nl) for k in bands] for x in ops]
    live = [np.flatnonzero(np.logical_or.reduce([row[j].any(axis=(1, 2)) for row in stacks]))
            for j in range(len(bands))]
    out = np.empty((len(ops), sum(map(len, live)), math.prod(basis.batch), nl), dtype=complex)
    for row, dest in zip(stacks, out):
        start = 0
        for arr, rows in zip(row, live):
            dest[start:start + len(rows)] = arr[rows]
            start += len(rows)
    return out


def _norm(x: np.ndarray) -> np.ndarray:
    """||x|| at each point of a complex (..., rows, points, nlevels) stack:
    the squares summed over the rows first, then over the contiguous level
    axis (real and imaginary parts side by side)."""
    re_im = x.view(float)
    return np.sqrt(np.add.reduce(re_im * re_im, axis=-3).sum(axis=-1))


def _projection_residual(cols: np.ndarray, size: int) -> np.ndarray:
    """||b - P b|| / ||b|| at each point, b = cols[-1] and P the orthogonal
    projector onto the span of cols[:-1]; ``cols`` is a fresh (ncols + 1,
    rows, points, nlevels) stack, which is overwritten, and ``size`` the
    number of entries of one band.

    Each column is first divided, at each point, by the power of two at or
    below its largest real or imaginary part: an exact scaling, under which
    the residual is unchanged and no square of an entry underflows.  Then
    modified Gram-Schmidt with one reorthogonalization, right-looking: each
    basis vector, once formed, is removed twice from every later column and
    from b.  A column whose remainder falls to eps * size times its norm is
    dropped at that point: its basis vector is zero there.  Every inner
    product is an explicit sum, over the rows first and then over the
    contiguous level axis, so each point's floats are those of that point
    alone, and no BLAS or LAPACK call is made on these tall, narrow
    operands.
    """
    re_im = cols.view(float)
    re_im /= np.ldexp(1.0, np.frexp(np.abs(re_im).max(axis=(1, 3)))[1] - 1)[:, None, :, None]
    norms = _norm(cols)
    # the norm of each column's remainder, updated after each projection
    left = norms.copy()
    cutoff = np.finfo(float).eps * size
    for j in range(len(cols) - 1):
        keep = left[j] > cutoff * norms[j]
        if not keep.any():
            continue
        vec = cols[j] * (np.where(keep, 1.0, 0.0) / np.where(keep, left[j], 1.0))[:, None]
        vec_conj, rest = vec.conj(), cols[j + 1:]
        for _ in range(2):
            rest -= np.add.reduce(vec_conj * rest, axis=1).sum(axis=-1)[:, None, :, None] * vec
        left[j + 1:] = _norm(rest)
    return left[-1] / norms[-1]


def check_spatial_triple(q: SpectralQuadruple, margin: int) -> list[AxiomReport]:
    """Spectral-triple conditions for the spatial slice operator
    D_s = e_perp [H, e_perp] (built from the stored iH as e_perp [-i iH, e_perp]).

    Checks selfadjointness, a truncation-compatible boundedness proxy (the
    fiber-block norms of [D_s, u] are level-uniform on the interior), the
    first-order condition with D_s in place of iH, and that the algebra
    restricts to the two e_perp eigenspaces.
    """
    if not q.even_dim:
        raise ValueError("spatial-triple restriction applies to even spacetime "
                         "dimension; the odd case checks the unrestricted triple")
    rep = _PointReports(q)
    d_s = q.e_perp @ (-1j * q.ih_e_perp)
    rep.add("spatial.selfadjoint",
            interior_residual(d_s - d_s.adjoint(), margin), margin=margin)

    comm_ds_u = commutator(d_s, q.u)
    all_norms = InteriorProjector(q.basis, margin).band_norms(comm_ds_u, 1)
    uniform, notes = [], []
    # one median per point
    for norms in np.broadcast_to(all_norms, q.basis.batch + all_norms.shape[-1:]).reshape(
            math.prod(q.basis.batch), -1):
        med = median(norms) if norms.size else 0.0
        if med <= 1e-14:
            uniform.append(0.0)
            notes.append("degenerate: [D_s, u] vanishes (no spatial dynamics)")
        else:
            uniform.append(float(np.max(np.abs(norms - med)) / med))
            notes.append(f"median fiber-block norm {med:.6g}")
    rep.add("spatial.bounded_uniform", uniform, margin=margin, notes=notes)

    rep.add("spatial.first_order",
            interior_residual(commutator(commutator(q.u, d_s), q.u_op), margin),
            margin=margin)

    # eigenspace restriction: P+- = (1 -+ i e_perp)/2 must commute with the algebra
    p_plus = 0.5 * (q.one + (-1j) * q.e_perp)
    rep.add("spatial.eigenspace_algebra",
            interior_residual(commutator(p_plus, q.u), margin), margin=margin)
    return rep.reports


def check_symmetric_conditions(q: SpectralQuadruple, margin: int) -> list[AxiomReport]:
    """The de Sitter quadruple postulates and the sl2 structure relations:
    [T21, u] = iu, [T21, e_perp] = 0, [T21, gamma] = 0, [T21, T+-] = +-iT+-,
    [T+, T-] = -2iT21, T+-* = -T-+."""
    rep = _PointReports(q)

    def add(cid, resid):
        rep.add(cid, resid, margin=margin)

    add("symmetric.t21_u", interior_residual(commutator(q.t21, q.u) - 1j * q.u, margin))
    add("symmetric.t21_e_perp", interior_residual(commutator(q.t21, q.e_perp), margin))
    add("symmetric.t21_gamma", interior_residual(commutator(q.t21, q.gamma), margin))
    add("symmetric.sl2_raise",
        interior_residual(commutator(q.t21, q.t_plus) - 1j * q.t_plus, margin))
    add("symmetric.sl2_lower",
        interior_residual(commutator(q.t21, q.t_minus) + 1j * q.t_minus, margin))
    add("symmetric.sl2_pair",
        interior_residual(commutator(q.t_plus, q.t_minus) + 2j * q.t21, margin))
    add("symmetric.tplus_adjoint",
        interior_residual(q.t_plus.adjoint() + q.t_minus, margin))
    add("symmetric.tminus_adjoint",
        interior_residual(q.t_minus.adjoint() + q.t_plus, margin))
    return rep.reports


def _expm2(a: np.ndarray) -> np.ndarray:
    """exp of a fiber-major stack of 2x2 blocks, shape (2, 2, ...), by the
    closed form in ``check_noncommutativity``.  Both coefficients are even
    in s, so either square root serves; sinh s / s is its series
    1 + s^2/6 for |s| < 1e-4, where the next term is below the roundoff."""
    tau = 0.5 * (a[0, 0] + a[1, 1])
    half = 0.5 * (a[0, 0] - a[1, 1])
    s2 = half * half + a[0, 1] * a[1, 0]
    s = np.sqrt(s2)
    small = np.abs(s) < 1e-4
    sinhc = np.where(small, 1.0 + s2 / 6.0, np.sinh(s) / np.where(small, 1.0, s))
    cosh = np.cosh(s)
    return np.exp(tau) * block_stack(cosh + sinhc * half, sinhc * a[0, 1],
                                     sinhc * a[1, 0], cosh - sinhc * half)


def _require_level_diagonal_ih(q: SpectralQuadruple) -> None:
    """Raise ``ValueError`` unless iH is level-diagonal on a 2-dim fiber."""
    if set(q.ih.bands) - {0} or q.basis.fiber_dim != 2:
        raise ValueError(f"check_noncommutativity needs a level-diagonal iH on a 2-dim fiber, "
                         f"not bands {sorted(q.ih.bands)} on a {q.basis.fiber_dim}-dim fiber")


def check_noncommutativity(q: SpectralQuadruple) -> np.ndarray:
    """Norm of [e^{iH} u e^{-iH}, u]: the evolved algebra must not
    commute with the original one (vanishes identically in the massless
    degenerate case).

    iH must be level-diagonal on a 2-dim fiber, as in every quadruple the
    package builds; any other generator raises ``ValueError``.  With tau =
    tr A / 2, the traceless B = A - tau 1 squares to s^2 1, s^2 = -det B, so
    exp(A) = e^tau (cosh s 1 + (sinh s / s) B) block by block.  The
    commutator is then band 2 and its band bound exact, as it must be to
    show a value above a threshold.
    """
    _require_level_diagonal_ih(q)
    ut = TruncatedOperator(q.basis, {0: _expm2(q.ih.band(0))})
    return op_norm(commutator(ut @ q.u @ ut.adjoint(), q.u))


# degree bound of the orientability candidates verify_quadruple fits, and
# the least ||[u(1), u]|| it accepts as a noncommutative evolution
_DEGREE_BOUND = 2
_NONCOMMUTATIVITY_THRESHOLD = 1e-4


def verify_points(q: SpectralQuadruple, margin: int = 4,
                  include_noncommutativity: bool | np.ndarray = True) -> list[AxiomReport]:
    """Run the full axiom suite on every point of q and return one combined
    report per point, in the C order of the batch (a list of one at a single
    point), at the table's bounds; ``AxiomReport.override`` replaces them by
    report id.  ``include_noncommutativity`` is one flag or one per point:
    the evolution row is reported at the points it marks.  A truncation too
    small for the largest margin a check reads raises ``TruncationError``,
    naming ``margin``, and an evolution row asked of an iH that
    ``check_noncommutativity`` refuses raises its ``ValueError``, both
    before any check runs."""
    orient_margin = min(2 * _DEGREE_BOUND, margin + 2)
    least = max(margin, orient_margin) + 1
    if q.basis.nmax < least:
        raise TruncationError(f"margin {margin} needs nmax >= {least}, "
                              f"not {q.basis.nmax}")
    include = np.broadcast_to(include_noncommutativity, q.basis.batch).ravel()
    if include.any():
        _require_level_diagonal_ih(q)
    rep = _PointReports(q)
    rep.extend(check_time_vector(q))
    rep.extend(check_volume_element(q))
    rep.extend(check_symmetric_conditions(q, min(margin, 2)))
    rep.extend(check_charge_conjugation(q, min(margin, 2)))

    rep.add("algebra.u_unitary", interior_residual(q.u_adj @ q.u - q.one, 1), margin=1)

    fo_margin = min(margin, 2)
    rep.add("first_order.u_u", check_first_order(q, q.u, q.u, fo_margin), margin=fo_margin)
    rep.add("first_order.usq_u", check_first_order(q, q.u_sq, q.u, margin=min(margin + 1, 3)),
            margin=min(margin + 1, 3))
    rep.add("first_order.u_uadj", check_first_order(q, q.u, q.u_adj, fo_margin),
            margin=fo_margin)

    rep.add("orientability.membership",
            check_orientability(q, _DEGREE_BOUND, orient_margin), margin=orient_margin)

    if q.even_dim:
        rep.extend(check_spatial_triple(q, margin))

    if include.any():
        values = np.ravel(check_noncommutativity(q)).tolist()
        for point, value, wanted in zip(rep.reports, values, include):
            if wanted:
                point.add("evolution.noncommutative",
                          max(0.0, _NONCOMMUTATIVITY_THRESHOLD - value),
                          notes=f"||[u(1), u]|| = {value:.6g}, "
                                f"required > {_NONCOMMUTATIVITY_THRESHOLD:g}")
    return rep.reports


def verify_quadruple(q: SpectralQuadruple, margin: int = 4,
                     include_noncommutativity: bool = True) -> AxiomReport:
    """Run the full axiom suite on a single-point quadruple and return one
    combined report: ``verify_points`` at its one point."""
    if q.basis.batch:
        raise ValueError("verify_quadruple checks a single point; "
                         "verify_points checks a batch")
    return verify_points(q, margin, include_noncommutativity)[0]
