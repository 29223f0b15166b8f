"""Eventual-polynomial detection and growth classification.

detect_polynomial is checked by round trip: build a polynomial with known
binomial-basis coefficients, sample it, and require the exact coefficients
back with stabilization index 0. Head-corrupted samples must move only the
stabilization index. Its differential tests against the reconstructions it
replaced live in test_exactnum, beside the function. The classifier's
verdicts are frozen on sequences whose growth is known in closed form
(binomial layer counts, geometric growth, periodic slopes, partition-sum
growth), and the catalog's values on sympy's partition counts.
"""

from fractions import Fraction
import itertools
import math
import time

import pytest
import sympy

from gkdim.catalog import cumulative_sequence, graded_values
from gkdim.exactnum import BinomialForm, Polynomial, from_binomial_basis
from gkdim.hilbert import DimensionSequence
from gkdim.samuel import classify_growth, detect_polynomial, gk_dimension, multiplicity

# ---------------------------------------------------------------------------
# exact polynomial detection


def test_detect_binomial_layer_counts():
    vals = [math.comb(n + 2, 2) for n in range(20)]
    fit = detect_polynomial(vals)
    assert fit is not None
    assert fit.form.coeffs == (1, 2, 1)
    assert fit.stabilization_index == 0
    assert gk_dimension(fit) == 2
    assert multiplicity(fit) == 1


def test_detect_linear_counts():
    fit = detect_polynomial([n + 1 for n in range(18)])
    assert fit.form.coeffs == (1, 1)
    assert gk_dimension(fit) == 1
    assert multiplicity(fit) == 1


def test_detect_constant_sequence():
    fit = detect_polynomial([5] * 16)
    assert fit.form.coeffs == (5,)
    assert gk_dimension(fit) == 0
    assert multiplicity(fit) == 5


def test_detect_zero_sequence():
    fit = detect_polynomial([0] * 16)
    assert fit.form.is_zero()
    assert gk_dimension(fit) == 0
    assert multiplicity(fit) == 0


def test_corrupted_head_moves_only_the_stabilization_index():
    vals = [7, 7] + [n + 1 for n in range(2, 26)]
    fit = detect_polynomial(vals)
    assert fit.form.coeffs == (1, 1)
    assert fit.stabilization_index == 2


def test_geometric_growth_is_not_polynomial():
    vals = [2 ** (n + 1) - 1 for n in range(24)]
    assert detect_polynomial(vals) is None


def test_periodic_slope_is_not_polynomial():
    vals = [n // 2 + 1 for n in range(24)]
    assert detect_polynomial(vals) is None


def test_detect_round_trip_exhaustive():
    span = [-2, -1, 0, 1, 2]
    for lower in itertools.product(span, repeat=3):
        for lead in (-2, -1, 1, 2):
            form = BinomialForm(lower + (lead,))
            poly = from_binomial_basis(form)
            vals = [poly.evaluate(n) for n in range(18)]
            fit = detect_polynomial(vals, window=3)
            assert fit is not None
            assert fit.form == form, form
            assert fit.stabilization_index == 0


def test_detect_accepts_fraction_values():
    form = BinomialForm((0, Fraction(1, 2), Fraction(3, 2)))
    poly = from_binomial_basis(form)
    vals = [poly.evaluate(n) for n in range(16)]
    fit = detect_polynomial(vals)
    assert fit.form == form


def test_detect_input_requirements():
    with pytest.raises(ValueError):
        detect_polynomial([1] * 10)  # fewer than 2*window + 4 samples
    with pytest.raises(ValueError):
        detect_polynomial([1] * 30, window=1)
    with pytest.raises(ValueError):
        detect_polynomial(DimensionSequence((1, 1, 1), "graded_piece"))


# ---------------------------------------------------------------------------
# growth classification


def test_classify_constant_as_finite_dimensional():
    report = classify_growth([5] * 15)
    assert report.classification == "finite_dimensional"
    assert report.gk == 0
    assert report.multiplicity == 5
    assert "sampled_agreement" in report.flags


def test_classify_binomial_counts_as_polynomial():
    vals = [math.comb(n + 2, 2) for n in range(25)]
    report = classify_growth(vals)
    assert report.classification == "polynomial"
    assert report.gk == 2
    assert report.multiplicity == 1
    assert report.hilbert_samuel.form.coeffs == (1, 2, 1)
    assert "sampled_agreement" in report.flags


def test_classify_geometric_as_exponential():
    vals = [2 ** (n + 1) - 1 for n in range(25)]
    report = classify_growth(vals)
    assert report.classification == "exponential"
    assert report.gk is None
    assert report.recurrence.order == 2
    assert report.recurrence.coefficients == (3, -2)
    assert report.denominator.radius_class == "inside_unit_disk"


def test_classify_geometric_with_a_large_prime_ratio():
    # the rational-root split enumerates the divisors of the ratio; trial
    # division up to the ratio itself would take about a minute here
    ratio = 10 ** 9 + 7
    vals = [(ratio ** (n + 1) - 1) // (ratio - 1) for n in range(20)]
    report = classify_growth(vals)
    assert report.classification == "exponential"
    assert report.recurrence.coefficients == (ratio + 1, -ratio)
    assert report.denominator.linear_factors == (Polynomial([1, -ratio]),)


def test_classify_geometric_with_a_ratio_near_ten_to_the_eighteen():
    # the residual 1 - ratio t has degree 1: its root is read off, with no
    # divisor scan, which would take minutes at this size
    ratio = 10 ** 18 + 9
    vals = [(ratio ** (n + 1) - 1) // (ratio - 1) for n in range(20)]
    start = time.perf_counter()
    report = classify_growth(vals)
    assert time.perf_counter() - start < 0.5
    assert report.classification == "exponential"
    assert report.denominator.linear_factors == (Polynomial([1, -ratio]),)


def test_classify_periodic_slope_via_quasi_branches():
    # cumulative counts with slope 1/2: a line of weight-2 monomials
    vals = [n // 2 + 1 for n in range(26)]
    report = classify_growth(vals)
    assert report.classification == "polynomial"
    assert report.gk == 1
    assert report.multiplicity == Fraction(1, 2)
    assert report.quasi is not None
    assert report.quasi.period == 2
    assert "sampled_agreement" in report.flags


def test_classify_reports_the_largest_of_disagreeing_branch_leads():
    # leads 1 and 2 on the two residue classes, then 3 against 1 and 1
    for vals, period, e in (([n if n % 2 == 0 else 2 * n for n in range(40)], 2, 2),
                            ([3 * n if n % 3 == 0 else n for n in range(40)], 3, 3)):
        report = classify_growth(vals)
        assert (report.classification, report.gk, report.multiplicity) == ("polynomial", 1, e)
        assert report.quasi.period == period
        assert report.flags == ("sampled_agreement", "branch_multiplicity_disagreement")
    # a lower-degree branch has no lead to disagree with
    report = classify_growth([n if n % 2 == 0 else 7 for n in range(40)])
    assert (report.gk, report.multiplicity, report.flags) == (1, 1, ("sampled_agreement",))


def test_classify_partition_sums_as_inconclusive():
    # intermediate growth: cumulative sums of partition numbers
    partitions = [1]
    for n in range(1, 30):
        total, k = 0, 1
        while True:
            pent1 = k * (3 * k - 1) // 2
            pent2 = k * (3 * k + 1) // 2
            if pent1 > n and pent2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if pent1 <= n:
                total += sign * partitions[n - pent1]
            if pent2 <= n:
                total += sign * partitions[n - pent2]
            k += 1
        partitions.append(total)
    vals = list(itertools.accumulate(itertools.accumulate(partitions)))
    report = classify_growth(vals)
    assert report.classification == "inconclusive"
    assert report.gk is None
    assert report.flags == ()


def test_classify_normalizes_graded_input():
    graded = DimensionSequence(tuple([1] * 20), "graded_piece")
    report = classify_growth(graded)
    assert report.classification == "polynomial"
    assert report.gk == 1
    assert report.multiplicity == 1


def test_classify_needs_twelve_samples():
    with pytest.raises(ValueError):
        classify_growth([1] * 11)


def test_classify_adapts_window_to_short_input():
    vals = [n + 1 for n in range(12)]
    report = classify_growth(vals, window=6)
    assert report.classification == "polynomial"
    assert report.gk == 1


def test_catalog_values_match_partition_counts():
    # smith_lie's degree-n piece counts the partitions of every w <= n
    # (sympy's partition), free_algebra_2's is 2^n; the cumulative sequence
    # sums them
    partition_sums = list(itertools.accumulate(int(sympy.partition(w)) for w in range(60)))
    for top in range(60):
        smith = partition_sums[:top + 1]
        free = [2 ** n for n in range(top + 1)]
        for entry, graded in (("smith_lie", smith), ("free_algebra_2", free)):
            assert graded_values(entry, top) == graded, (entry, top)
            cum = cumulative_sequence(entry, top)
            assert cum.meaning == "cumulative"
            assert list(cum) == list(itertools.accumulate(graded)), (entry, top)
