"""Growth classification of dimension sequences and of module presentations.

On a sampled sequence (classify_growth), polynomial growth comes from the
difference tower (exactnum), or else from the quasi-polynomial branches of
poincare.rational_analysis; exponential growth from a denominator root
strictly inside the unit disk. A fitted series with a non-integral
denominator generates no natural-number sequence (Fatou), so it leaves the
verdict inconclusive. Every value a report holds is exact.

A module presentation fixes its Hilbert series exactly (Hilbert-Serre), so
certified_growth reads its verdict from that series and samples nothing.
It reads the series through hilbert.presented_series, the head the hilbert
and poincare commands read, and takes the cumulative series' reduction from
the graded one. Of poincare's two routines it uses the exact one,
_reduced_analysis and _exact_quasi_polynomial, which the poincare command
shares; the sampled head, rational_analysis, serves classify_growth and the
poincare command on raw sequences and catalog entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import sub
from typing import NamedTuple, Optional

from .exactnum import (BinomialForm, HilbertSamuelPolynomial, _samuel_fit, _taylor_at_one,
                       detect_polynomial, sequence_values)
from .hilbert import SERIES_DEGREE_BOUND, _at_one, growth_certificate, presented_series
from .poincare import (BRANCH_WORK_BOUND, CANCEL_STEP_BOUND, DenominatorAnalysis,
                       QuasiPolynomial, RationalSeries, Recurrence, _branch_work,
                       _exact_quasi_polynomial, _reduced_analysis, rational_analysis)
from .presentations import AlgebraSpec, ModuleSpec, validate_module


def gk_dimension(h: HilbertSamuelPolynomial) -> int:
    """Growth dimension: the degree of the fitted polynomial (0 for the zero form)."""
    return max(h.form.degree, 0)


def multiplicity(h: HilbertSamuelPolynomial) -> Fraction:
    """Bernstein number: the top binomial coefficient a_d, i.e. d! times the
    leading monomial coefficient (0 for the zero form)."""
    return h.form.leading_coefficient()


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
    has a root strictly inside the unit disk.
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
        return GrowthReport(
            "inconclusive",
            evidence=(f"no polynomial fit and no linear recurrence of order <= "
                      f"{max_order}"))

    rec, qp = ra.recurrence, ra.quasi
    exact = dict(recurrence=rec, series=ra.series, denominator=ra.denominator)
    if ra.denominator is None:
        coeffs = ", ".join(map(str, ra.series.denominator.coeffs))
        return GrowthReport(
            "inconclusive", **exact,
            evidence=(f"minimal recurrence of order {rec.order} gives the "
                      f"non-integral denominator [{coeffs}]; a natural-number "
                      f"sequence has an integral one (Fatou)"),
            flags=("non_integral_series",))
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
        "inconclusive", **exact,
        evidence="cyclotomic denominator but no quasi-polynomial fit on the samples")


# ---------------------------------------------------------------------------
# certified growth of a presentation


_CERTIFIED = "exact Hilbert series (Hilbert-Serre)"


def certified_growth(a: AlgebraSpec, m: ModuleSpec, top: int, *,
                     validated: bool = False) -> tuple:
    """(graded, cumulative, report) for a module presentation: its
    dimensions in degrees 0..top as int lists, and a GrowthReport read from
    its exact series (hilbert.presented_series), not fitted to them.

    The numerator's terms give the dimensions, gk and e (growth_certificate)
    and, on an unweighted ring, the Hilbert-Samuel polynomial (_samuel_fit),
    so an exponent of 10^9 costs what 1 does. On a weighted ring the graded
    series p / q is reduced and expanded as for hilbert, and the cumulative
    one reduces to p / (q (1 - t)): by Pringsheim's theorem a series with
    nonnegative coefficients has a pole at t = 1 or is a polynomial positive
    there, so 1 - t divides no reduced graded p of a nonzero module. A
    reduced denominator (1 - t)^k gives the polynomial the same way, any
    other its recurrence, root report and branches (_reduced_analysis,
    _exact_quasi_polynomial), checked against the cumulative dimensions. A
    weighted series past SERIES_DEGREE_BOUND in degree or sum(w), or whose
    reduction passes CANCEL_STEP_BOUND, keeps gk and e only; with len(p) +
    P (2m + 6) past SERIES_DEGREE_BOUND (P the period, m the top
    multiplicity in q) or m (len(p) + P m) + 16 P m^2 past BRANCH_WORK_BOUND
    it gets no branches; its evidence names the bound. validated=True skips
    validate_module (the CLI's parser checked m)."""
    if not validated:
        validate_module(a, m)
    weights = a.scalar_weights()
    weighted = set(weights) != {1}
    series = presented_series(a, m, dense=weighted, reduce=weighted, refuse=False)
    graded = series.expansion(top)
    cumulative = list(accumulate(graded))
    coefficients = _at_one(series.terms, len(weights) + 1)
    cert = growth_certificate(a, coefficients)
    if cert is None:  # the zero module
        return graded, cumulative, _polynomial_growth(0, Fraction(0), ([], 0))
    gk, e = cert
    if not weighted:
        fit = _samuel_fit(coefficients, max(series.terms))
        return graded, cumulative, _polynomial_growth(gk, e, fit)
    pole = f"{_CERTIFIED}: pole of order {gk} at t = 1"
    kind = "finite_dimensional" if gk == 0 else "polynomial"
    if series.p is None:
        return graded, cumulative, GrowthReport(
            kind, gk, e, evidence=(f"{pole}; the series passes degree "
                                   f"{SERIES_DEGREE_BOUND} and is not expanded"))
    if series.reduced is None:
        return graded, cumulative, GrowthReport(
            kind, gk, e, evidence=(f"{pole}; reducing the series could take more "
                                   f"than {CANCEL_STEP_BOUND} steps and is not done"))
    p, q, mults = series.reduced
    q, mults = list(map(sub, q + [0], [0] + q)), {1: 0, **mults}  # times 1 - t
    mults[1] += 1
    if set(mults) == {1}:  # q = (1 - t)^k
        fit = _samuel_fit(_taylor_at_one(p, mults[1]), len(p) - 1)
        return graded, cumulative, _polynomial_growth(gk, e, fit)
    ra = _reduced_analysis(p, q, mults)
    # branches are read while len(p) + P (2m + 6) stays within
    # SERIES_DEGREE_BOUND, P the period and m the top multiplicity in q: it
    # bounds the len(p) + P m terms of c = p (1 - t^P)^m they are read from
    period, top_mult = ra.period, max(mults.values())
    count = len(p) + period * (2 * top_mult + 6)
    quasi = (_exact_quasi_polynomial(p, q, mults, cumulative)
             if count <= SERIES_DEGREE_BOUND else None)
    if quasi is not None:
        branches = f"quasi-polynomial branches from index {quasi.onset}"
    elif count > SERIES_DEGREE_BOUND:
        branches = (f"branches not read: numerator length plus period times (2m + 6), m "
                    f"the top multiplicity, is {count}, above {SERIES_DEGREE_BOUND}")
    else:
        branches = (f"branches not read: m (numerator length + period m) + 16 period m^2, "
                    f"m the top multiplicity, is {_branch_work(len(p), period, top_mult)}, "
                    f"above {BRANCH_WORK_BOUND}")
    return graded, cumulative, GrowthReport(
        kind, gk, e, recurrence=ra.recurrence, series=ra.series,
        denominator=ra.denominator, quasi=quasi,
        evidence=(f"{pole}; reduced denominator of degree {len(q) - 1} with "
                  f"period {period}; {branches}"),
        flags=("mixed_cyclotomic",) if ra.mixed_cyclotomic else ())


def _polynomial_growth(gk: int, e: Fraction, fit: tuple) -> GrowthReport:
    """The certified report whose Hilbert-Samuel polynomial is _samuel_fit's (form, least)."""
    fit = HilbertSamuelPolynomial(BinomialForm(fit[0]), fit[1])
    if gk == 0:
        return GrowthReport(
            "finite_dimensional", gk=0, multiplicity=e, hilbert_samuel=fit,
            evidence=(f"{_CERTIFIED}: cumulative dimensions constant at {e} from "
                      f"index {fit.stabilization_index}"))
    return GrowthReport(
        "polynomial", gk=gk, multiplicity=e, hilbert_samuel=fit,
        evidence=(f"{_CERTIFIED}: pole of order {gk} at t = 1; Hilbert-Samuel "
                  f"polynomial from index {fit.stabilization_index}"))
