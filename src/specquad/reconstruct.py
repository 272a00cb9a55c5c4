"""Recovery of geometric data from commutators of evolved algebra elements.

The commutator [u(t), u] of the algebra element u taken at two evolution
parameters expands in the parameter separation; term k is
[ad_{iH}^k(u)/k!, u].  For the de Sitter quadruple the orders 0..2 vanish
identically, the massless case vanishes at all orders, and the third order
is kappa * e_perp u^2 with kappa linear in the mass.  Fitting that term and
the first-order ADM commutator [[iH, e_perp], u] recovers the mass scale and
the slice metric factor without using any construction metadata.

Each extraction builds one expansion and reads the quadruple's ADM
commutator, [iH, u] and u^2, which the axiom checks share; a caller that
already holds the expansion (the CLI's massless branch reads its order
rows, the degeneracy and the mass from one expansion) passes its
third-order term to ``fit_third_order``.  A caller that needs kappa alone
(the CLI's 2 rm quadruple) reads it from ``third_order_coefficient``,
through the same vanishing cut and without the ADM commutator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    InteriorProjector,
    TruncatedOperator,
    bch_terms,
    commutator,
    interior_residual,
    median,
)
from .quadruple import SpectralQuadruple

__all__ = [
    "ADMExtract",
    "commutator_expansion",
    "extract_mass_scale",
    "extract_adm",
    "fit_third_order",
    "massless_degeneracy_check",
    "third_order_coefficient",
]

# kappa * cosh^2(theta) / rm of the third-order term under the 1/k!
# convention of the expansion
_THIRD_ORDER_C0 = 2.0 / 3.0

# largest third-order fit residual extract_mass_scale accepts
_FIT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ADMExtract:
    """Scalar data recovered from the slicing: the lapse-mass product, the
    fiber-traced shift magnitude, the recovered mass scale, the third-order
    coefficient kappa and the residual diagnostics of the fits."""

    lapse_mass: float
    shift: float
    mass_scale: float
    kappa: float
    third_order_fit: float
    order_residuals: tuple[float, ...]
    shape_residual: float


def commutator_expansion(ih: TruncatedOperator, u: TruncatedOperator, kmax: int,
                         margin: int) -> tuple[TruncatedOperator, ...]:
    """Expansion terms [ad_{iH}^k(u)/k!, u], k = 0..kmax, interior projected
    at the given margin.  Requires kmax <= margin: each order widens the
    band by the shift degree of u, so smaller margins would let boundary
    contamination leak in.
    """
    if kmax > margin:
        raise ValueError(f"kmax {kmax} exceeds margin {margin}: edge contamination")
    proj = InteriorProjector(ih.basis, margin)
    return tuple(proj.project(commutator(term, u)) for term in bch_terms(ih, u, kmax))


def _fiber_traces(blocks: np.ndarray) -> np.ndarray:
    # normalized so that tr(e_perp e_perp) -> 1
    return -0.5 * np.trace(blocks)


def _band_fit(term: TruncatedOperator, k: int, reference: TruncatedOperator,
              margin: int) -> tuple[float, float]:
    """Least-squares fit of the shift-k band of ``term`` to coef times the
    same band of ``reference``, per level; returns (median coefficient,
    relative fit residual).  Fitting against the quadruple's own operators
    keeps the extraction covariant under basis-phase gauge changes."""
    proj = InteriorProjector(term.basis, margin)
    blk, ref = proj.band(term, k), proj.band(reference, k)
    ref_sq = (np.abs(ref) ** 2).sum(axis=(0, 1))
    used = ref_sq != 0.0
    if not used.any():
        raise ValueError("no interior levels left at this margin")
    blk, ref, ref_sq = blk[..., used], ref[..., used], ref_sq[used]
    coefs = (ref.conj() * blk).sum(axis=(0, 1)) / ref_sq
    den = float((np.abs(blk) ** 2).sum())
    if den == 0.0:
        return 0.0, 0.0
    num = float((np.abs(blk - coefs * ref) ** 2).sum())
    return median(coefs.real), float(np.sqrt(num / den))


def _require_single_point(q: SpectralQuadruple, name: str) -> None:
    """Raise ``ValueError`` unless q holds a single parameter point."""
    if q.basis.batch:
        raise ValueError(f"{name} checks a single point, not the batch {q.basis.batch}")


def _vanishes(q: SpectralQuadruple, t3: TruncatedOperator, margin: int) -> bool:
    """Whether the third-order term t3 is massless roundoff: the roundoff
    grows about linearly with ||iH||, so the cut does too."""
    scale = max(interior_residual(q.ih, margin), 1.0)
    return bool(interior_residual(t3, margin) <= 1e-12 * scale)


def third_order_coefficient(q: SpectralQuadruple, margin: int = 4) -> tuple[float, float]:
    """(kappa, fit residual) of the third-order term against e_perp u^2;
    both 0 when the term vanishes (the cut of ``fit_third_order``)."""
    _require_single_point(q, "third_order_coefficient")
    t3 = commutator_expansion(q.ih, q.u, 3, margin)[3]
    if _vanishes(q, t3, margin):
        return 0.0, 0.0
    return _band_fit(t3, 2, q.e_perp @ q.u_sq, margin)


def fit_third_order(q: SpectralQuadruple, t3: TruncatedOperator,
                    margin: int) -> tuple[float, float, float]:
    """(mass scale, kappa, fit residual) from the third-order term t3.

    All three are 0 when t3 vanishes (massless degeneracy), and no fit is
    run.  Otherwise kappa is inverted through kappa = (2/3) rm / cosh^2,
    with cosh(theta) read from the ADM commutator ``q.adm_commutator``.  The mass
    scale only means something when the fit residual is small.
    """
    _require_single_point(q, "fit_third_order")
    if _vanishes(q, t3, margin):
        return 0.0, 0.0, 0.0
    kappa, resid = _band_fit(t3, 2, q.e_perp @ q.u_sq, margin)
    med = median(InteriorProjector(q.basis, margin).band_norms(q.adm_commutator, 1))
    if med <= 0.0:
        raise ValueError("spatial Clifford datum vanishes: no metric scale")
    return kappa * (2.0 / med) ** 2 / _THIRD_ORDER_C0, kappa, resid


def extract_mass_scale(q: SpectralQuadruple, margin: int = 4) -> float:
    """Recover rm from the third-order commutator term (``fit_third_order``).
    A vanishing third order returns 0 (massless degeneracy); a fit residual
    above 1e-6 raises ValueError.
    """
    _require_single_point(q, "extract_mass_scale")
    mass_scale, _, resid = fit_third_order(
        q, commutator_expansion(q.ih, q.u, 3, margin)[3], margin)
    if resid > _FIT_TOLERANCE:
        raise ValueError(
            f"third-order term not of the predicted shape (fit residual {resid:.3g})")
    return mass_scale


def extract_adm(q: SpectralQuadruple, margin: int = 4) -> ADMExtract:
    """ADM-style scalars from fiber traces, one order-3 expansion and one
    ADM commutator [[iH, e_perp], u].

    lapse_mass is the interior average of the fiber trace of iH e_perp;
    shift is the median fiber-traced magnitude of the shift-1 band of
    [iH, u] (u raises the level by one); the shape residual measures
    [[iH, e_perp], u] against the span of gamma e_perp u per level, and the
    same commutator gives cosh(theta) to the mass scale.  A third order not
    of the predicted shape does not raise: its fit residual is returned as
    third_order_fit.
    """
    _require_single_point(q, "extract_adm")
    proj = InteriorProjector(q.basis, margin)
    lapse_mass = float(np.mean(_fiber_traces(proj.band(q.ih @ q.e_perp, 0)).real))
    shift = median(np.abs(_fiber_traces(proj.band(q.ih_u, 1))))
    _, shape_residual = _band_fit(q.adm_commutator, 1, q.gamma @ q.e_perp @ q.u, margin)
    terms = commutator_expansion(q.ih, q.u, 3, margin)
    mass_scale, kappa, fit = fit_third_order(q, terms[3], margin)
    return ADMExtract(
        lapse_mass=lapse_mass,
        shift=shift,
        mass_scale=mass_scale,
        kappa=kappa,
        third_order_fit=fit,
        order_residuals=tuple(float(interior_residual(t, margin)) for t in terms),
        shape_residual=shape_residual,
    )


def massless_degeneracy_check(q: SpectralQuadruple, kmax: int = 5,
                              margin: int = 6) -> float:
    """Max interior residual of all expansion orders k <= kmax; for a
    massless quadruple the commutator vanishes at all times, so every
    order must vanish."""
    _require_single_point(q, "massless_degeneracy_check")
    return float(max(interior_residual(t, margin)
                     for t in commutator_expansion(q.ih, q.u, kmax, margin)))
