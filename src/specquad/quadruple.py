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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping

import numpy as np
from scipy.linalg import expm

from .operators import (
    AntilinearOperator,
    BasisDescriptor,
    InteriorProjector,
    TruncatedOperator,
    antilinear_conjugate,
    anticommutator,
    commutator,
    interior_residual,
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
    "spatial_dirac",
    "check_orientability",
    "check_spatial_triple",
    "check_symmetric_conditions",
    "check_noncommutativity",
    "verify_quadruple",
]


@dataclass(frozen=True)
class SpectralQuadruple:
    """Operator data of a truncated spectral quadruple.

    ``ih`` stores the antihermitian evolution generator iH itself.
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
    "reconstruct.order_0": 1e-10, "reconstruct.order_1": 1e-10, "reconstruct.order_2": 1e-10,
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


def check_time_vector(q: SpectralQuadruple) -> AxiomReport:
    """e_perp^2 = -1 and e_perp* = -e_perp (fiberwise, no edge effects)."""
    rep = AxiomReport()
    one = TruncatedOperator.identity(q.basis)
    rep.add("time_vector.square", op_norm(q.e_perp @ q.e_perp + one))
    rep.add("time_vector.antihermitian", op_norm(q.e_perp.adjoint() + q.e_perp))
    return rep


def check_volume_element(q: SpectralQuadruple) -> AxiomReport:
    """gamma^2 = +-1 (sign recorded) and the braiding with the time vector:
    anticommutator for even spacetime dimension, commutator for odd."""
    rep = AxiomReport()
    one = TruncatedOperator.identity(q.basis)
    r_plus = op_norm(q.gamma @ q.gamma - one)
    r_minus = op_norm(q.gamma @ q.gamma + one)
    if r_plus <= r_minus:
        rep.add("volume.gamma_square", r_plus, notes="gamma^2 = +1")
    else:
        rep.add("volume.gamma_square", r_minus, notes="gamma^2 = -1")
    if q.even_dim:
        rep.add("volume.braiding", op_norm(anticommutator(q.e_perp, q.gamma)),
                notes="{e_perp, gamma}, even dim")
    else:
        rep.add("volume.braiding", op_norm(commutator(q.e_perp, q.gamma)),
                notes="[e_perp, gamma], odd dim")
    return rep


def check_first_order(q: SpectralQuadruple, f: TruncatedOperator | None = None,
                      g: TruncatedOperator | None = None, margin: int = 2) -> float:
    """Interior residual of the dynamical first-order condition
    [[f, iH], g^op] with g^op = C g* C."""
    f = q.u if f is None else f
    g = q.u if g is None else g
    g_op = antilinear_conjugate(q.cc, g)
    return interior_residual(commutator(commutator(f, q.ih), g_op), margin)


def _antilinear_intertwine_residual(c: AntilinearOperator, x: TruncatedOperator,
                                    y: TruncatedOperator, margin: int) -> float:
    """Interior residual of C x - y C as antilinear maps: ||M conj(X) - Y M||;
    both are R times a banded map, and the reflection R commutes with P."""
    return interior_residual(c.after(x).linear - c.before(y).linear, margin)


def check_charge_conjugation(q: SpectralQuadruple, margin: int = 2) -> AxiomReport:
    """C^2 = (-1)^{s(n)} and the intertwining of C with the symmetry
    generators: C T21 = T21 C, C T+ = T- C, C T- = T+ C, C iH = iH C, and
    the algebra conjugation C u = u* C."""
    rep = AxiomReport()
    sign = (-1.0) ** s_exponent(q.spacetime_dim)
    target = sign * TruncatedOperator.identity(q.basis)
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
            _antilinear_intertwine_residual(q.cc, q.u, q.u.adjoint(), margin),
            margin=margin, notes="C u = u* C")
    rep.add("charge_conjugation.generator",
            _antilinear_intertwine_residual(q.cc, q.ih, q.ih, margin),
            margin=margin, notes="C iH = iH C")
    return rep


def spatial_dirac(q: SpectralQuadruple) -> TruncatedOperator:
    """The Dirac-type operator of the volume-element condition:
    gamma [iH, gamma] for even spacetime dimension, iH for odd."""
    if q.even_dim:
        return q.gamma @ commutator(q.ih, q.gamma)
    return q.ih


def _hochschild_dirac(q: SpectralQuadruple) -> TruncatedOperator:
    # [iH, e_perp] carries the spatial Clifford content (N g^{ij} e_j d_j);
    # the even-dim formula gamma[iH,gamma] reduces to the mass term here and
    # commutes with the algebra, so it cannot represent the cycle.
    if q.even_dim:
        return commutator(q.ih, q.e_perp)
    return q.ih


def check_orientability(q: SpectralQuadruple, monomial_degree_bound: int = 2,
                        margin: int | None = None) -> float:
    """Least-squares membership of the volume element in the span of
    Hochschild-cycle candidates e_perp u^p [D, u^q] (even spacetime
    dimension; the e_perp prefix is dropped for odd).

    Returns the interior-Frobenius residual normalized by ||gamma||; small
    residual certifies membership up to scale.

    The fit is split by band, which is exact: entries of different bands
    are different rows, so a group of candidates that shares no band,
    directly or through other candidates, with gamma has a zero right-hand
    side, fits 0 and adds nothing to the residual.  Only the group linked
    to the bands of gamma is fitted (4 of the 20 candidates for de Sitter,
    where e_perp u^p [D, u^q] is band p + q and gamma band 0).
    """
    d = monomial_degree_bound
    if d < 1:
        raise ValueError("empty candidate span: degree bound must be >= 1")
    if margin is None:
        margin = 2 * d
    dirac = _hochschild_dirac(q)
    proj = InteriorProjector(q.basis, margin)
    gamma = proj.project(q.gamma)
    if not gamma.bands:
        raise ValueError("volume element vanishes on the interior")
    powers = {p: q.u.power(p) for p in range(-d, d + 1)}
    comms = [commutator(dirac, powers[deg]) for deg in powers if deg != 0]
    cands = []
    for up in powers.values():
        for comm in comms:
            cand = up @ comm
            if q.even_dim:
                cand = q.e_perp @ cand
            cands.append(proj.project(cand))
    bands = set(gamma.bands)
    while True:
        linked = [c for c in cands if bands & c.bands.keys()]
        grown = bands.union(*(c.bands for c in linked))
        if grown == bands:
            break
        bands = grown
    if not linked:
        return 1.0
    # every other entry of the linked bands vanishes in all operands, so
    # fitting the stored entries is the Frobenius fit
    bands = sorted(bands)
    a = np.array([np.concatenate([c.band(k).ravel() for k in bands]) for c in linked]).T
    b = np.concatenate([gamma.band(k).ravel() for k in bands])
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(np.linalg.norm(a @ coef - b) / np.linalg.norm(b))


def check_spatial_triple(q: SpectralQuadruple, margin: int = 4) -> AxiomReport:
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
    rep = AxiomReport()
    d_s = q.e_perp @ commutator(-1j * q.ih, q.e_perp)
    rep.add("spatial.selfadjoint",
            interior_residual(d_s - d_s.adjoint(), margin), margin=margin)

    comm_ds_u = commutator(d_s, q.u)
    norms = InteriorProjector(q.basis, margin).band_norms(comm_ds_u, 1)
    med = float(np.median(norms)) if norms.size else 0.0
    if med <= 1e-14:
        rep.add("spatial.bounded_uniform", 0.0, margin=margin,
                notes="degenerate: [D_s, u] vanishes (no spatial dynamics)")
    else:
        rel = float(np.max(np.abs(norms - med)) / med)
        rep.add("spatial.bounded_uniform", rel, margin=margin,
                notes=f"median fiber-block norm {med:.6g}")

    u_op = antilinear_conjugate(q.cc, q.u)
    rep.add("spatial.first_order",
            interior_residual(commutator(commutator(q.u, d_s), u_op), margin),
            margin=margin)

    # eigenspace restriction: P+- = (1 -+ i e_perp)/2 must commute with the algebra
    one = TruncatedOperator.identity(q.basis)
    p_plus = 0.5 * (one + (-1j) * q.e_perp)
    rep.add("spatial.eigenspace_algebra",
            interior_residual(commutator(p_plus, q.u), margin), margin=margin)
    return rep


def check_symmetric_conditions(q: SpectralQuadruple, margin: int = 2) -> AxiomReport:
    """The de Sitter quadruple postulates and the sl2 structure relations:
    [T21, u] = iu, [T21, e_perp] = 0, [T21, gamma] = 0, [T21, T+-] = +-iT+-,
    [T+, T-] = -2iT21, T+-* = -T-+."""
    rep = AxiomReport()

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
    return rep


def _expm2(a: np.ndarray) -> np.ndarray:
    """exp of a stack of 2x2 blocks, shape (N, 2, 2), by the closed form in
    ``check_noncommutativity``.  Both coefficients are even in s, so either
    square root serves; sinh s / s is its series 1 + s^2/6 for |s| < 1e-4,
    where the next term is below the roundoff."""
    tau = 0.5 * (a[:, 0, 0] + a[:, 1, 1])
    half = 0.5 * (a[:, 0, 0] - a[:, 1, 1])
    b = np.array(a, dtype=complex)
    b[:, 0, 0], b[:, 1, 1] = half, -half
    s2 = half * half + a[:, 0, 1] * a[:, 1, 0]
    s = np.sqrt(s2)
    small = np.abs(s) < 1e-4
    sinhc = np.where(small, 1.0 + s2 / 6.0, np.sinh(s) / np.where(small, 1.0, s))
    out = np.cosh(s)[:, None, None] * np.eye(2) + sinhc[:, None, None] * b
    return np.exp(tau)[:, None, None] * out


def check_noncommutativity(q: SpectralQuadruple, t: float = 1.0) -> float:
    """Norm of [e^{t iH} u e^{-t iH}, u]: the evolved algebra must not
    commute with the original one (vanishes identically in the massless
    degenerate case).

    A level-diagonal iH on a 2-dim fiber is exponentiated block by block in
    closed form: with tau = tr A / 2, the traceless B = A - tau 1 squares to
    s^2 1, s^2 = -det B, so exp(A) = e^tau (cosh s 1 + (sinh s / s) B).
    Any other generator takes the dense ``expm``.
    """
    if set(q.ih.bands) <= {0} and q.basis.fiber_dim == 2:
        ut = TruncatedOperator(q.basis, {0: _expm2(t * q.ih.band(0))})
    else:
        ut = TruncatedOperator.from_dense(q.basis, expm(t * q.ih.to_dense()))
    evolved = ut @ q.u @ ut.adjoint()
    return op_norm(commutator(evolved, q.u))


def verify_quadruple(q: SpectralQuadruple, margin: int = 4,
                     monomial_degree_bound: int = 2,
                     include_noncommutativity: bool = True,
                     noncommutativity_threshold: float = 1e-4,
                     tolerances: Mapping[str, float] | None = None) -> AxiomReport:
    """Run the full axiom suite and return one combined report; the
    ``tolerances`` overrides replace the table's bounds by report id."""
    tolerances = validate_overrides(tolerances)
    rep = AxiomReport()
    rep.extend(check_time_vector(q))
    rep.extend(check_volume_element(q))
    rep.extend(check_symmetric_conditions(q, min(margin, 2)))
    rep.extend(check_charge_conjugation(q, min(margin, 2)))

    one = TruncatedOperator.identity(q.basis)
    rep.add("algebra.u_unitary", interior_residual(q.u.adjoint() @ q.u - one, 1), margin=1)

    fo_margin = min(margin, 2)
    rep.add("first_order.u_u", check_first_order(q, q.u, q.u, fo_margin), margin=fo_margin)
    rep.add("first_order.usq_u", check_first_order(q, q.u @ q.u, q.u, margin=min(margin + 1, 3)),
            margin=min(margin + 1, 3))
    rep.add("first_order.u_uadj", check_first_order(q, q.u, q.u.adjoint(), fo_margin),
            margin=fo_margin)

    orient_margin = min(2 * monomial_degree_bound, margin + 2)
    rep.add("orientability.membership",
            check_orientability(q, monomial_degree_bound, orient_margin), margin=orient_margin)

    if q.even_dim:
        rep.extend(check_spatial_triple(q, margin))

    if include_noncommutativity:
        value = check_noncommutativity(q)
        rep.add("evolution.noncommutative",
                max(0.0, noncommutativity_threshold - value),
                notes=f"||[u(1), u]|| = {value:.6g}, required > {noncommutativity_threshold:g}")
    return rep.override(tolerances)
