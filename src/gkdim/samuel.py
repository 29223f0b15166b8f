"""Detection of eventually-polynomial dimension growth.

A cumulative dimension sequence that is eventually a polynomial f(n) =
sum a_i C(n, i) is recovered exactly from its finite-difference tower: the
degree d is the first level whose tail is constant. The column of
differences at the start of that constant window determines f; running it
backwards to n = 0 with exact subtraction gives Delta^i f(0), which are the
coefficients a_i. Running the same tower forwards from n = 0 with exact
addition gives f at every sample, and every sample is checked against it
before the fit is reported. All of this is int (or, for rational samples,
Fraction) addition: no polynomial is built. The degree is the growth
dimension of the module and the top coefficient a_d is its multiplicity
(Bernstein number).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactnum import BinomialForm, sequence_values


@dataclass(frozen=True)
class HilbertSamuelPolynomial:
    """An exact eventual-polynomial fit in the binomial basis.

    form holds (a_0, ..., a_d) with f(n) = sum a_i C(n, i) for every sampled
    n >= stabilization_index; for genuine dimension sequences the leading
    coefficient is positive (the zero module yields the zero form).
    """

    form: BinomialForm
    stabilization_index: int


def detect_polynomial(s, window: int = 6) -> Optional[HilbertSamuelPolynomial]:
    """Exact eventual-polynomial fit of a cumulative sequence, or None.

    Differences are taken until some level d is constant on its final
    `window` entries, which start at index `anchor`. The column
    Delta^0 f(anchor), ..., Delta^d f(anchor) is run backwards to n = 0 by
    Delta^i f(n - 1) = Delta^i f(n) - Delta^(i+1) f(n - 1), for i = d - 1
    down to 0, since Delta^d f is constant; the column at n = 0 is the form's
    (a_0, ..., a_d). Running it forwards from n = 0 gives the fitted value at
    every sample. The samples are compared with these from the last one
    backwards, and stabilization_index is one past the last disagreement.
    Returns None when no level stabilizes within the data.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    vals = sequence_values(s, require_cumulative=True)
    if len(vals) < 2 * window + 4:
        raise ValueError("need at least 2*window + 4 samples")
    levels = [vals]
    degree = None
    while True:
        cur = levels[-1]
        if len(cur) >= window and all(v == cur[-1] for v in cur[-window:]):
            degree = len(levels) - 1
            break
        if len(cur) <= window:
            return None
        levels.append([cur[i + 1] - cur[i] for i in range(len(cur) - 1)])

    anchor = len(levels[degree]) - window
    tower = [levels[i][anchor] for i in range(degree + 1)]
    for _ in range(anchor):
        for i in range(degree - 1, -1, -1):
            tower[i] -= tower[i + 1]
    form = BinomialForm(tower)

    fitted = []
    for _ in vals:
        fitted.append(tower[0])
        for i in range(degree):
            tower[i] += tower[i + 1]
    stabilization = 0
    for n in range(len(vals) - 1, -1, -1):
        if fitted[n] != vals[n]:
            stabilization = n + 1
            break
    if stabilization > anchor:
        raise RuntimeError("internal error: reconstructed polynomial misses its anchor window")
    return HilbertSamuelPolynomial(form, stabilization)


def gk_dimension(h: HilbertSamuelPolynomial) -> int:
    """Growth dimension: the degree of the fitted polynomial (0 for the zero form)."""
    return max(h.form.degree, 0)


def multiplicity(h: HilbertSamuelPolynomial) -> Fraction:
    """Bernstein number: the top binomial coefficient a_d, i.e. d! times the
    leading monomial coefficient (0 for the zero form)."""
    return h.form.leading_coefficient()


# ---------------------------------------------------------------------------
# floating-point growth diagnostic


@dataclass(frozen=True)
class GammaEstimate:
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


@dataclass(frozen=True)
class GrowthReport:
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
    recurrence: Optional[object] = None
    series: Optional[object] = None
    denominator: Optional[object] = None
    quasi: Optional[object] = None
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
    from . import poincare  # local import; poincare uses this module's detector

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
    rec = poincare.minimal_recurrence(vals, confirm=eff_confirm)
    if rec is None:
        gamma = _gamma_or_none(vals)
        note = f"{gamma.value:.4f} ({gamma.trend})" if gamma else "unavailable"
        return GrowthReport(
            "inconclusive", gamma=gamma,
            evidence=(f"no polynomial fit and no linear recurrence of order <= "
                      f"{max_order}; gamma estimate {note}"),
            flags=("gamma_diagnostic_only",))

    series = poincare.series_from_recurrence(vals, rec)
    analysis = poincare.denominator_analysis(series.denominator)
    if analysis.radius_class == "inside_unit_disk":
        return GrowthReport(
            "exponential", recurrence=rec, series=series, denominator=analysis,
            evidence=(f"minimal recurrence of order {rec.order} whose denominator "
                      f"has a root strictly inside the unit disk"))
    if analysis.radius_class == "all_roots_on_unit_circle":
        if analysis.s is not None:
            period, flags = analysis.s, ()
        else:
            orders = analysis.cyclotomic_multiplicities
            period = math.lcm(*orders) if orders else 1
            flags = ("mixed_cyclotomic",)
        qp = poincare.fit_quasi_polynomial(vals, period, window=4)
        if qp is not None:
            top = max((b.degree for b in qp.branches), default=-1)
            gk = max(top, 0)
            if top >= 0:
                leads = [b.coeffs[top] for b in qp.branches if b.degree == top]
                e = max(leads) * math.factorial(top)
                if any(l != leads[0] for l in leads):
                    flags = flags + ("branch_multiplicity_disagreement",)
            else:
                e = Fraction(0)
            return GrowthReport(
                "polynomial", gk=gk, multiplicity=e, recurrence=rec, series=series,
                denominator=analysis, quasi=qp,
                evidence=(f"recurrence of order {rec.order}; cyclotomic denominator "
                          f"with period {period}; quasi-polynomial branches of "
                          f"degree <= {top}"),
                flags=("sampled_agreement",) + flags)
        gamma = _gamma_or_none(vals)
        return GrowthReport(
            "inconclusive", gamma=gamma, recurrence=rec, series=series,
            denominator=analysis,
            evidence="cyclotomic denominator but no quasi-polynomial fit on the samples",
            flags=("gamma_diagnostic_only",))
    gamma = _gamma_or_none(vals)
    return GrowthReport(
        "inconclusive", gamma=gamma, recurrence=rec, series=series,
        denominator=analysis,
        evidence="denominator root locations not certified (mixed radius class)",
        flags=("residual_not_certified", "gamma_diagnostic_only"))


def _gamma_or_none(vals) -> Optional[GammaEstimate]:
    try:
        return gamma_estimate(vals)
    except ValueError:
        return None
