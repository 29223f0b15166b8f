"""Growth classification of dimension sequences.

Polynomial growth comes from the difference tower (exactnum), or else from
the quasi-polynomial branches of poincare.rational_analysis; exponential
growth from a denominator root strictly inside the unit disk. A fitted
series with a non-integral denominator generates no natural-number sequence
(Fatou), so it leaves the verdict inconclusive. The gamma diagnostic, the
one floating-point value, goes only on inconclusive reports.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .exactnum import HilbertSamuelPolynomial, detect_polynomial, sequence_values
from .poincare import (DenominatorAnalysis, QuasiPolynomial, RationalSeries,
                       Recurrence, rational_analysis)


def gk_dimension(h: HilbertSamuelPolynomial) -> int:
    """Growth dimension: the degree of the fitted polynomial (0 for the zero form)."""
    return max(h.form.degree, 0)


def multiplicity(h: HilbertSamuelPolynomial) -> Fraction:
    """Bernstein number: the top binomial coefficient a_d, i.e. d! times the
    leading monomial coefficient (0 for the zero form)."""
    return h.form.leading_coefficient()


# ---------------------------------------------------------------------------
# floating-point growth diagnostic


class GammaEstimate(NamedTuple):
    """Diagnostic log-growth estimate; the only non-exact value in the library."""

    value: float
    trend: str  # "converging" | "diverging" | "oscillating"


def gamma_estimate(s) -> GammaEstimate:
    """log_n f(n) at the last sample plus a trend flag from the last few points.

    Purely a diagnostic: exponents are floats and the trend is a heuristic on
    the last five estimates. Never used to make exact claims.
    """
    vals = sequence_values(s)
    if len(vals) < 8:
        raise ValueError("gamma estimate needs at least 8 samples")
    usable = [(n, v) for n, v in enumerate(vals) if n >= 2 and v >= 1]
    if len(usable) < 2:
        raise ValueError("gamma estimate needs positive entries at index 2 or later")
    pts = usable[-5:]
    estimates = [math.log(v) / math.log(n) for n, v in pts]
    diffs = [b - a for a, b in zip(estimates, estimates[1:])]
    if max(abs(d) for d in diffs) <= 0.02:
        trend = "converging"
    elif all(d > 0 for d in diffs) and sum(diffs) > 0.05:
        trend = "diverging"
    elif all(d <= 0 for d in diffs) and abs(diffs[-1]) <= abs(diffs[0]):
        trend = "converging"
    else:
        trend = "oscillating"
    return GammaEstimate(estimates[-1], trend)


# ---------------------------------------------------------------------------
# growth classification


class GrowthReport(NamedTuple):
    """Outcome of growth classification on a dimension sequence.

    classification is one of "finite_dimensional", "polynomial",
    "exponential", "inconclusive". gk and multiplicity are present for the
    polynomial classifications; flags carry symbolic warning keys.
    """

    classification: str
    gk: Optional[int] = None
    multiplicity: Optional[Fraction] = None
    gamma: Optional[GammaEstimate] = None
    evidence: str = ""
    hilbert_samuel: Optional[HilbertSamuelPolynomial] = None
    recurrence: Optional[Recurrence] = None
    series: Optional[RationalSeries] = None
    denominator: Optional[DenominatorAnalysis] = None
    quasi: Optional[QuasiPolynomial] = None
    flags: tuple = ()


def classify_growth(s, window: int = 6, confirm: int = 8) -> GrowthReport:
    """Classify growth as finite-dimensional, polynomial, exponential, or
    inconclusive, with exact evidence for every non-inconclusive verdict.

    Polynomial growth is established by the exact difference-tower fit (with
    quasi-polynomial branches when the generating function forces a period);
    exponential growth requires an exact minimal recurrence whose denominator
    has a root strictly inside the unit disk. The floating gamma estimate is
    attached to inconclusive reports as a diagnostic only.
    """
    seq = s if not hasattr(s, "cumulative") else s.cumulative()
    vals = sequence_values(seq)
    if len(vals) < 12:
        raise ValueError("growth classification needs at least 12 samples")
    eff_window = max(2, min(window, (len(vals) - 4) // 2))

    fit = detect_polynomial(vals, eff_window)
    if fit is not None:
        d = gk_dimension(fit)
        e = multiplicity(fit)
        if fit.form.degree <= 0:
            return GrowthReport(
                "finite_dimensional", gk=0, multiplicity=e, hilbert_samuel=fit,
                evidence=(f"cumulative dimensions constant at {e} from index "
                          f"{fit.stabilization_index}"),
                flags=("sampled_agreement",))
        return GrowthReport(
            "polynomial", gk=d, multiplicity=e, hilbert_samuel=fit,
            evidence=(f"difference tower stabilizes at level {d} from index "
                      f"{fit.stabilization_index}"),
            flags=("sampled_agreement",))

    eff_confirm = min(confirm, len(vals) - 2)
    max_order = (len(vals) - eff_confirm) // 2
    ra = rational_analysis(vals, eff_confirm)
    if ra is None:
        gamma = _gamma_or_none(vals)
        note = f"{gamma.value:.4f} ({gamma.trend})" if gamma else "unavailable"
        return GrowthReport(
            "inconclusive", gamma=gamma,
            evidence=(f"no polynomial fit and no linear recurrence of order <= "
                      f"{max_order}; gamma estimate {note}"),
            flags=("gamma_diagnostic_only",))

    rec, qp = ra.recurrence, ra.quasi
    exact = dict(recurrence=rec, series=ra.series, denominator=ra.denominator)
    if ra.denominator is None:
        coeffs = ", ".join(map(str, ra.series.denominator.coeffs))
        return GrowthReport(
            "inconclusive", gamma=_gamma_or_none(vals), **exact,
            evidence=(f"minimal recurrence of order {rec.order} gives the "
                      f"non-integral denominator [{coeffs}]; a natural-number "
                      f"sequence has an integral one (Fatou)"),
            flags=("non_integral_series", "gamma_diagnostic_only"))
    if ra.denominator.radius_class == "inside_unit_disk":
        return GrowthReport(
            "exponential", **exact,
            evidence=(f"minimal recurrence of order {rec.order} whose denominator "
                      f"has a root strictly inside the unit disk"))
    if qp is not None:
        flags = ("mixed_cyclotomic",) if ra.mixed_cyclotomic else ()
        top = max(b.degree for b in qp.branches)  # -1 when every branch is zero
        leads = [b.leading_coefficient() for b in qp.branches if b.degree == top]
        e = max(leads) * math.factorial(max(top, 0))
        if any(l != leads[0] for l in leads):
            flags = flags + ("branch_multiplicity_disagreement",)
        return GrowthReport(
            "polynomial", gk=max(top, 0), multiplicity=e, quasi=qp, **exact,
            evidence=(f"recurrence of order {rec.order}; cyclotomic denominator "
                      f"with period {ra.period}; quasi-polynomial branches of "
                      f"degree <= {top}"),
            flags=("sampled_agreement",) + flags)
    return GrowthReport(
        "inconclusive", gamma=_gamma_or_none(vals), **exact,
        evidence="cyclotomic denominator but no quasi-polynomial fit on the samples",
        flags=("gamma_diagnostic_only",))


def _gamma_or_none(vals) -> Optional[GammaEstimate]:
    try:
        return gamma_estimate(vals)
    except ValueError:
        return None
