"""Rational generating functions: minimal recurrences, denominator root
analysis, and quasi-polynomial coefficient branches.

Oracles:

* Minimal recurrence order -- the exact rank of the Hankel matrix of the
  sequence (computed here by independent fraction-exact elimination), which
  equals the least recurrence order for sequences recurrent from the start.
* Minimal recurrence search -- an exact Gauss-Jordan solve per candidate
  order over the tail must give the same order, coefficients and onset as
  the Berlekamp-Massey search, on a seeded family of sequences.
* Integer onset scan -- the Fraction walk it replaced (_holds_at, kept
  here) must give the same onset on seeded recurrences behind transients,
  runs of agreeing samples that end at a break, order 1 with integer,
  Fraction and zero ratios, zero tails and Fraction samples.
* Integer series numerator -- the Fraction convolution, RationalSeries.reduced
  and Fraction check it replaced must give the same series.
* Round trips -- expand a known reduced series, recover the recurrence, and
  require the identical reduced series back.
* Reduction -- sympy.cancel, normalised to denominator(0) = 1, must give the
  same coprime pair as RationalSeries.reduced on seeded integer and rational
  series, Hilbert-type denominators prod(1 - t^w), zero numerators and
  coprime pairs.
* Series expansion -- the dense Fraction recurrence, over every denominator
  coefficient, must give the same values, and the same types, as expand's
  int path on a seeded family of integral series, and as its steps over the
  nonzero terms only on sparse rational denominators.
* The rational-analysis pipeline -- its recurrence, series, denominator and
  branches must equal those of the four stages run one by one.
* Cyclotomic polynomials -- the integer kernel against frozen low-order
  values, sympy's cyclotomic_poly and the Fraction recursion it replaced
  (kept here as the reference), plus the product identity
  prod_{d | n} Phi_d(t) = +-(t^n - 1).
* Cyclotomic orders -- exactly the k with phi(k) <= n, against a scan of
  every k up to 2 n^2 + 16 with the reference's Euler phi.
* Cyclotomic trial division -- the Fraction division it replaced must strip
  the same multiplicities, in the same key order, and leave the same
  residual, and sympy's
  factor_list and cyclotomic_poly must give denominator_analysis's
  multiplicities and residual (times its split-off linear factors) on seeded
  cyclotomic products times integer residuals of degree <= 30.
* Exact reduction -- on Hilbert series p / prod(1 - t^w) of seeded monomial
  ideals with weights 1..12 and 1000, _reduce (division by the known Phi_d
  alone) and _reduced_analysis must give the recurrence, series, root
  report and period of the walk it replaced on presentations:
  _lowest_terms, then denominator_analysis over every order with phi(k) <=
  deg q. Its division by Phi_1 = 1 - t, one prefix sum, must give
  int_divmod's quotient and remainder.
* Weights denominator -- the product prod(1 - t^w) multiplied out one
  factor at a time (kept here) must equal _weights_denominator's binomial
  rows on seeded weight multisets.
* Root-location certificates -- frozen on denominators whose roots are known
  in closed form; non-integral denominators, which no series with integer
  coefficients has (Fatou), are refused.
* Shift registers -- the generator-expression form of the Berlekamp-Massey
  discrepancy, which divided every update by its content (kept here), must
  give the same register after every sample of seeded integer sequences.
* Cumulative reduction -- on 320 seeded weighted presentations (weights
  1..6, 1-3 summands, Laurent parts, zero modules), _reduce of the
  cumulative series must be the head's graded reduction times 1 - t.
* Exact branches -- on 120 seeded weighted presentations (weights 1..6 on
  1-4 generators; shifted summands, Laurent parts, finite and zero
  modules), _exact_quasi_polynomial must give the period, branches and
  onset that fit_quasi_polynomial fits on the series' long expansion;
  sympy's truncated series inversion must give the coefficients the
  branches predict from the onset on; on a prefix of the expansion, the
  branches must be the fit on it wherever that fit is true; and past
  BRANCH_WORK_BOUND nothing is divided.
* Branch reader -- the column reader it replaced (falling-binomial columns
  per class and a head/miss search for the onset, kept here) must give the
  same period, branches and onset on 320 seeded weighted presentations,
  graded and cumulative (weights 1..6, 1-3 summands at shifts 0..6, Laurent
  parts, zero modules), and on an empty residue class and a constant q.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
import itertools
import math
import random
import time

import pytest
import sympy
from sympy.polys import ring_series

import gkdim.poincare
from gkdim.exactnum import Polynomial, falling_binom, int_divmod
from gkdim.hilbert import minimalize_ideal, numerator_terms, presented_series
from gkdim.poincare import (BRANCH_WORK_BOUND, ROOT_SPLIT_SKIPPED, DenominatorAnalysis,
                            QuasiPolynomial, RationalSeries, Recurrence, _branch_ints,
                            _branch_work, _cyclotomic_ints, _cyclotomic_orders, _divisors,
                            _divmod_one_minus_t, _exact_quasi_polynomial,
                            _exact_recurrence, _expansion, _form_values, _lowest_terms,
                            _normalised_series, _reduce, _reduced_analysis,
                            _shift_registers, _strip_cyclotomic, _weights_denominator,
                            denominator_analysis, fit_quasi_polynomial,
                            minimal_recurrence, quasi_polynomial,
                            rational_analysis, series_from_recurrence)
from gkdim.presentations import AlgebraSpec, ModuleSpec, Summand

# ---------------------------------------------------------------------------
# rational series basics


def test_series_expansion_frozen():
    geom = RationalSeries(Polynomial([1]), Polynomial([1, -2]))
    assert geom.expand(6) == [1, 2, 4, 8, 16, 32]
    line = RationalSeries(Polynomial([1]), Polynomial([1, -1]) ** 2)
    assert line.expand(5) == [1, 2, 3, 4, 5]


def _expand_in_fractions(series, count):
    """The power-series recurrence run in Fraction throughout."""
    p, q = series.numerator.coeffs, series.denominator.coeffs
    out = []
    for n in range(count):
        acc = Fraction(p[n]) if n < len(p) else Fraction(0)
        for k in range(1, min(n, len(q) - 1) + 1):
            acc -= q[k] * out[n - k]
        out.append(acc)
    return [int(v) if v.denominator == 1 else v for v in out]


def test_integer_expansion_matches_fraction_expansion():
    rng = random.Random(77)
    for _ in range(200):
        numerator = Polynomial([rng.randint(-9, 9) for _ in range(rng.randrange(7))])
        denominator = Polynomial([1])
        for _ in range(rng.randrange(5)):
            w, c = rng.randint(1, 4), rng.choice((-1, -2, 1))
            denominator = denominator * Polynomial([1] + [0] * (w - 1) + [c])
        series = RationalSeries(numerator, denominator)
        got = series.expand(30)
        assert got == _expand_in_fractions(series, 30)
        assert all(type(v) is int for v in got)


def test_rational_coefficients_still_expand_to_fractions():
    half = RationalSeries(Polynomial([1, Fraction(1, 2)]), Polynomial([1, -1]))
    got = half.expand(5)
    assert got == [1, Fraction(3, 2), Fraction(3, 2), Fraction(3, 2), Fraction(3, 2)]
    assert [type(v) for v in got] == [int] + [Fraction] * 4
    assert got == _expand_in_fractions(half, 5)
    damped = RationalSeries(Polynomial([1]), Polynomial([1, Fraction(-1, 2)]))
    assert damped.expand(4) == [1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def test_sparse_rational_denominator_expands_like_the_dense_recurrence():
    # zero denominator terms are skipped; the values and types are unchanged
    for q in ([1, 0, 0, Fraction(-1, 2)], [1, 0, Fraction(1, 3), 0, 0, -1]):
        series = RationalSeries(Polynomial([1, Fraction(1, 2)]), Polynomial(q))
        got = series.expand(25)
        assert got == _expand_in_fractions(series, 25)
        assert [type(v) for v in got] == [type(v) for v in _expand_in_fractions(series, 25)]


def test_series_requires_unit_constant_term():
    with pytest.raises(ValueError):
        RationalSeries(Polynomial([1]), Polynomial([2, 1]))


def test_series_reduction_cancels_common_factor():
    p = Polynomial([1, 0, -1])                    # 1 - t^2
    q = Polynomial([1, -1]) * Polynomial([1, 0, -1])  # (1 - t)(1 - t^2)
    reduced = RationalSeries(p, q).reduced()
    assert reduced.numerator == Polynomial([1])
    assert reduced.denominator == Polynomial([1, -1])


def _cancel_reference(series: RationalSeries) -> tuple:
    """sympy.cancel of p/q as (numerator, denominator) coefficient tuples,
    normalised to denominator(0) = 1."""
    t = sympy.Symbol("t")
    p, q = (sum(sympy.Rational(c.numerator, c.denominator) * t ** i
                for i, c in enumerate(poly.coeffs)) for poly in
            (series.numerator, series.denominator))
    num, den = sympy.fraction(sympy.cancel(p / q))
    num, den = sympy.Poly(num, t, domain="QQ"), sympy.Poly(den, t, domain="QQ")
    unit = den.eval(0)

    def coeffs(poly):
        return tuple(Fraction(int(c.p), int(c.q)) / Fraction(int(unit.p), int(unit.q))
                     for c in reversed(poly.all_coeffs()) if not poly.is_zero)

    return coeffs(num), coeffs(den)


def _reduction_cases():
    """Seeded series: integer and rational numerators times a shared factor
    over a denominator with constant term 1, Hilbert-type denominators
    prod(1 - t^w) over numerators sharing some of their factors, zero
    numerators, and coprime pairs."""
    rng = random.Random(1967)

    def poly(degree, rational, unit_constant=False):
        cs = [rng.randint(-6, 6) for _ in range(degree + 1)]
        cs = [Fraction(c, rng.randint(1, 9)) if rational else c for c in cs]
        return Polynomial([1] + cs[1:] if unit_constant else cs)

    def hilbert_denominator(weights):
        q = Polynomial([1])
        for w in weights:
            q = q * Polynomial([1] + [0] * (w - 1) + [-1])
        return q

    cases = []
    for _ in range(25):
        rational = rng.random() < 0.5
        common = poly(rng.randint(0, 2), rational, unit_constant=True)
        den = poly(rng.randint(0, 3), rational, unit_constant=True)
        cases.append(RationalSeries(common * poly(rng.randint(0, 4), rational), common * den))
    for _ in range(20):
        weights = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        shared = hilbert_denominator(rng.sample(weights, rng.randint(0, len(weights))))
        cases.append(RationalSeries(shared * poly(rng.randint(0, 5), False),
                                    hilbert_denominator(weights)))
    cases += [RationalSeries(Polynomial(), hilbert_denominator([1, 2])),
              RationalSeries(Polynomial(), Polynomial([1])),
              RationalSeries(Polynomial([2, 1]), Polynomial([1, -3])),
              RationalSeries(Polynomial([Fraction(1, 2)]), hilbert_denominator([2, 3]))]
    return cases


def test_reduction_matches_sympy_cancel():
    for series in _reduction_cases():
        reduced = series.reduced()
        assert reduced.denominator.constant_term() == 1
        assert (reduced.numerator.coeffs, reduced.denominator.coeffs) == \
            _cancel_reference(series), series


# ---------------------------------------------------------------------------
# minimal recurrences: frozen examples


def _holds_at(rec: Recurrence, vals, n: int) -> bool:
    """The Fraction reference for the onset scan: the recurrence, with its
    coefficients as given, reproduces vals[n + order] from the samples
    before it."""
    r = rec.order
    return vals[n + r] == sum(c * vals[n + r - 1 - i] for i, c in enumerate(rec.coefficients))


def test_recurrence_of_geometric_minus_one():
    vals = [2 ** (n + 1) - 1 for n in range(24)]
    rec = minimal_recurrence(vals)
    assert rec == Recurrence(2, (Fraction(3), Fraction(-2)), 0)
    assert _holds_at(rec, vals, 5)


def test_recurrence_of_linear_counts():
    rec = minimal_recurrence([n + 1 for n in range(24)])
    assert rec.order == 2
    assert rec.coefficients == (2, -1)
    assert rec.onset == 0


def test_recurrence_of_binomial_counts():
    rec = minimal_recurrence([math.comb(n + 2, 2) for n in range(24)])
    assert rec.order == 3
    assert rec.coefficients == (3, -3, 1)


def test_recurrence_of_constant_sequence_has_order_one():
    rec = minimal_recurrence([5] * 20)
    assert rec == Recurrence(1, (Fraction(1),), 0)


def test_recurrence_of_fibonacci():
    vals = [1, 1]
    while len(vals) < 24:
        vals.append(vals[-1] + vals[-2])
    rec = minimal_recurrence(vals)
    assert rec.order == 2
    assert rec.coefficients == (1, 1)
    assert rec.onset == 0


def test_corrupted_head_moves_the_onset():
    vals = [5] + [2 ** n for n in range(23)]
    rec = minimal_recurrence(vals)
    assert rec.order == 1
    assert rec.coefficients == (2,)
    assert rec.onset == 1
    series = series_from_recurrence(vals, rec)
    assert series.numerator == Polynomial([5, -9])
    assert series.denominator == Polynomial([1, -2])


def test_factorials_admit_no_low_order_recurrence():
    assert minimal_recurrence([math.factorial(n) for n in range(20)]) is None


def test_recurrence_input_requirements():
    with pytest.raises(ValueError):
        minimal_recurrence([1, 2])
    with pytest.raises(ValueError):
        minimal_recurrence([1] * 20, confirm=0)


# ---------------------------------------------------------------------------
# minimal order equals Hankel rank; series round trip


def _hankel_rank(vals, size):
    """Exact rank of the size x size Hankel matrix H[i][j] = vals[i + j]."""
    rows = [[Fraction(vals[i + j]) for j in range(size)] for i in range(size)]
    rank = 0
    for col in range(size):
        pivot = next((r for r in range(rank, size) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(size):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# reduced series with deg(numerator) < deg(denominator): recurrent from n = 0
SERIES_CATALOG = [
    (Polynomial([1]), Polynomial([1, -2])),
    (Polynomial([1]), Polynomial([1, -1]) ** 2),
    (Polynomial([1]), Polynomial([1, -1]) ** 5),
    (Polynomial([1]), Polynomial([1, -1, -1])),                  # Fibonacci
    (Polynomial([1]), Polynomial([1, -1]) * Polynomial([1, 0, -1])),
    (Polynomial([1, 1]), Polynomial([1, 0, 0, -1])),
    (Polynomial([1, 2, 3]), Polynomial([1, 0, 0, 0, -1])),
    (Polynomial([1, -1]), Polynomial([1, -2, 1, -1])),
    (Polynomial([1]), Polynomial([1, 1])),                       # alternating
    (Polynomial([1, 0, 1]), Polynomial([1, -1, 0, -1])),
    (Polynomial([1]), Polynomial([1, -3, 2]) * Polynomial([1, 0, -1])),
    (Polynomial([1, Fraction(1, 4)]),
     Polynomial([1, Fraction(-1, 2), Fraction(1, 4)])),          # rational coeffs
]


def test_series_round_trip_through_minimal_recurrence():
    for p, q in SERIES_CATALOG:
        original = RationalSeries(p, q).reduced()
        vals = original.expand(40)
        rec = minimal_recurrence(vals)
        assert rec is not None, (p.coeffs, q.coeffs)
        assert rec.order == original.denominator.degree
        assert rec.onset == 0
        back = series_from_recurrence(vals, rec)
        assert back == original


def test_minimal_order_equals_hankel_rank():
    for p, q in SERIES_CATALOG:
        series = RationalSeries(p, q).reduced()
        vals = series.expand(40)
        rec = minimal_recurrence(vals)
        assert rec.order == _hankel_rank(vals, 12), (p.coeffs, q.coeffs)


# ---------------------------------------------------------------------------
# Berlekamp-Massey search against the per-order Gauss-Jordan search


def _solve_exact(rows, rhs):
    """One exact solution of a rational system (free variables zero), or None."""
    ncols = len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    if any(aug[i][ncols] != 0 for i in range(r, len(aug))):
        return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][ncols]
    return sol


def _reference_recurrence(vals, confirm):
    """Least order r whose coefficients solve the last r + confirm equations,
    one exact solve per order, with the onset scanned backwards."""
    length = len(vals)
    for r in range(1, (length - confirm) // 2 + 1):
        first_eq = length - 2 * r - confirm
        rows = [[vals[n + r - 1 - i] for i in range(r)] for n in range(first_eq, length - r)]
        coeffs = _solve_exact(rows, [vals[n + r] for n in range(first_eq, length - r)])
        if coeffs is None:
            continue
        rec = Recurrence(r, tuple(coeffs), first_eq)
        onset = first_eq
        while onset > 0 and _holds_at(rec, vals, onset - 1):
            onset -= 1
        return Recurrence(r, tuple(coeffs), onset)
    return None


def _recurrent(coeffs, start, length):
    vals = list(start)
    while len(vals) < length:
        vals.append(sum(c * vals[-1 - i] for i, c in enumerate(coeffs)))
    return vals[:length]


def _differential_family(rng, confirm):
    """(kind, values) pairs of at most 30 samples each."""
    out = []
    for _ in range(30):
        length = rng.randint(confirm + 4, 30)
        r = rng.randint(1, 6)
        body = _recurrent([rng.randint(-3, 3) for _ in range(r)],
                          [rng.randint(-5, 5) for _ in range(r)], length)
        transient = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
        out.append(("transient", (transient + body)[:length]))
    for _ in range(30):
        period = rng.randint(1, 12)
        pattern = [rng.choice((0, 0, 0, 1)) for _ in range(period)]
        pattern[rng.randrange(period)] = 1
        out.append(("zero runs", [pattern[i % period]
                                  for i in range(rng.randint(confirm + 4, 30))]))
    for _ in range(18):
        zeros = rng.randint(0, 12)
        head = [rng.randint(-4, 4) for _ in range(rng.randint(confirm + 4, 24) - zeros)]
        out.append(("zero tail", head + [0] * zeros))
    for _ in range(24):
        r = rng.randint(1, 4)
        out.append(("fractions", _recurrent(
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(r)],
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(r)],
            rng.randint(confirm + 4, 26))))
    for _ in range(12):
        out.append(("noise", [rng.randint(-1000, 1000)
                              for _ in range(rng.randint(confirm + 4, 26))]))
    return out


@pytest.mark.parametrize("confirm", [1, 2, 3, 8])
def test_search_matches_per_order_solves(confirm):
    rng = random.Random(1969 + confirm)
    for name, vals in _differential_family(rng, confirm):
        got = minimal_recurrence(vals, confirm=confirm)
        want = _reference_recurrence(vals, confirm)
        assert got == want, (name, vals)
        if got is not None:
            assert all(type(c) is Fraction for c in got.coefficients), (name, vals)


def _shift_registers_reference(seq):
    """_shift_registers with each discrepancy as a generator over the
    register and every update divided by its content: the form it replaced."""
    conn, prev = [1], [1]
    length, gap, prev_disc = 0, 1, 1
    for n in range(len(seq)):
        disc = sum(c * seq[n - i] for i, c in enumerate(conn[:length + 1]))
        if disc == 0:
            gap += 1
        else:
            update = [prev_disc * c for c in conn] + [0] * (len(prev) + gap - len(conn))
            for i, c in enumerate(prev):
                update[i + gap] -= disc * c
            content = math.gcd(*update)
            update = [c // content for c in update]
            if 2 * length <= n:
                prev, prev_disc = conn, disc
                length, gap = n + 1 - length, 1
            else:
                gap += 1
            conn = update
        yield length, conn


def test_shift_registers_match_the_generator_form():
    rng = random.Random(1969)
    for confirm in (1, 8):
        family = _differential_family(rng, confirm)
        for name, vals in family:
            if any(type(v) is not int for v in vals):
                continue
            for seq in (vals, vals[::-1], [7 * v for v in vals]):
                got = [(length, list(conn)) for length, conn in _shift_registers(seq)]
                want = [(length, list(conn))
                        for length, conn in _shift_registers_reference(seq)]
                assert got == want, (name, seq)


def test_long_transient_moves_the_onset_not_the_order():
    # 21 unrelated samples, then Fibonacci: the tail has order 2 although the
    # linear complexity of the whole sequence is far above the admissible orders
    fib = _recurrent([1, 1], [1, 1], 12)
    vals = [7, -3, 11, 0, 5, 2, -8, 13, 1, 9, -4, 6, 0, 3, 17, -2, 8, 5, -6, 10, 4] + fib
    rec = minimal_recurrence(vals)
    assert rec == Recurrence(2, (Fraction(1), Fraction(1)), 21)
    assert rec == _reference_recurrence(vals, 8)


# ---------------------------------------------------------------------------
# the integer onset scan and series numerator against the Fraction code they
# replaced


def _fraction_onset(vals, rec, confirm):
    """The onset scan in Fraction: from the first equation of the fitted tail
    (the last 1 + confirm for order 1, the last r + confirm for order r >= 2)
    step back while _holds_at does."""
    r = rec.order
    onset = len(vals) - (2 + confirm if r == 1 else 2 * r + confirm)
    while onset > 0 and _holds_at(rec, vals, onset - 1):
        onset -= 1
    return onset


def _series_from_recurrence_reference(vals, rec):
    """series_from_recurrence in Fraction: the numerator convolution over the
    denominator's Fraction coefficients, RationalSeries.reduced, and the
    samples as Fractions for the check."""
    r = rec.order
    q = Polynomial([1] + [-c for c in rec.coefficients])
    p = Polynomial([
        sum(q.coeffs[j] * vals[k - j] for j in range(min(k, r) + 1) if j < len(q.coeffs))
        for k in range(min(rec.onset + r, len(vals)))
    ])
    series = RationalSeries(p, q).reduced()
    if series.expand(len(vals)) != [Fraction(v) for v in vals]:
        raise RuntimeError("internal error: series expansion disagrees with the samples")
    return series


def _backward_run(coeffs, body, steps, rng):
    """body extended backwards by `steps` samples that the recurrence with
    these coefficients (a_r != 0) reproduces, then by one that it does not,
    then by a random head: the onset is the start of the backward run."""
    r, vals = len(coeffs), list(body)
    for step in range(steps + 1):
        # f(n + r) = sum_i a_i f(n + r - i), solved for f(n)
        x = Fraction(vals[r - 1] - sum(coeffs[i - 1] * vals[r - 1 - i]
                                       for i in range(1, r)), coeffs[r - 1])
        if step == steps:
            x += rng.choice((-2, -1, 1, 3))
        vals.insert(0, int(x) if x.denominator == 1 else x)
    return [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + vals


def _onset_family(rng, confirm):
    """(kind, values): recurrent tails whose onset scan walks back through
    a run of agreeing samples and stops at a break, with integer and Fraction
    coefficients; order 1 with integer, Fraction, negative and zero ratios;
    zero tails behind nonzero heads."""
    out = []
    for _ in range(40):
        r = rng.randint(2, 5)
        coeffs = [rng.randint(-3, 3) for _ in range(r - 1)] + [rng.choice((-2, -1, 1, 2, 3))]
        if rng.random() < 0.3:
            coeffs[-1] = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(2, 4))
        body = _recurrent(coeffs, [rng.randint(-5, 5) for _ in range(r)],
                          2 * r + confirm + rng.randint(0, 6))
        out.append(("backward run", _backward_run(coeffs, body, rng.randint(0, 12), rng)))
    for _ in range(20):
        ratio = rng.choice((2, -3, 1, -1, Fraction(3, 2), Fraction(-1, 4), 0))
        body = _recurrent([ratio], [rng.choice((1, -2, Fraction(5, 3)))],
                          confirm + 2 + rng.randint(0, 10))
        head = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
        out.append(("order one", head + body))
    for _ in range(10):
        head = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        out.append(("zero tail", head + [0] * (confirm + 2 + rng.randint(0, 8))))
    return out


@pytest.mark.parametrize("confirm", [1, 3, 8])
def test_onset_scan_matches_the_fraction_walk(confirm):
    rng = random.Random(1978 + confirm)
    walked = 0
    for name, vals in _onset_family(rng, confirm) + _differential_family(rng, confirm):
        rec = minimal_recurrence(vals, confirm=confirm)
        if rec is None:
            continue
        assert rec.onset == _fraction_onset(vals, rec, confirm), (name, vals)
        start = len(vals) - (2 + confirm if rec.order == 1 else 2 * rec.order + confirm)
        walked += 0 < rec.onset < start
        if name != "noise":
            assert rec == _reference_recurrence(vals, confirm), (name, vals)
    assert walked >= 30  # the walk stops inside the samples, not only at 0


@pytest.mark.parametrize("confirm", [1, 8])
def test_series_from_recurrence_matches_the_fraction_convolution(confirm):
    rng = random.Random(1990 + confirm)
    cases = _onset_family(rng, confirm) + _differential_family(rng, confirm)
    cases += [("catalog", RationalSeries(p, q).expand(40)) for p, q in SERIES_CATALOG]
    checked = 0
    for name, vals in cases:
        rec = minimal_recurrence(vals, confirm=confirm)
        if rec is None:
            continue
        got = series_from_recurrence(vals, rec)
        assert got == _series_from_recurrence_reference(vals, rec), (name, vals)
        checked += 1
    assert checked >= 100
    # a recurrence given with int coefficients, and one the samples break
    vals = [5] + [2 ** n for n in range(23)]
    assert (series_from_recurrence(vals, Recurrence(1, (2,), 1))
            == _series_from_recurrence_reference(vals, Recurrence(1, (2,), 1)))
    for func in (series_from_recurrence, _series_from_recurrence_reference):
        with pytest.raises(RuntimeError, match="internal error"):
            func(vals, Recurrence(1, (3,), 1))


# ---------------------------------------------------------------------------
# cyclotomic polynomials: the integer kernel against the Fraction recursion
# it replaced (cyclotomic_polynomial, unit_cyclotomic and _euler_phi, kept
# here verbatim as the reference) and against sympy


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> Polynomial:
    """The k-th cyclotomic polynomial (monic, integer coefficients)."""
    num = Polynomial([-1] + [0] * (k - 1) + [1])
    for d in range(1, k):
        if k % d == 0:
            num, rem = divmod(num, cyclotomic_polynomial(d))
            if not rem.is_zero():
                raise RuntimeError("internal error: cyclotomic recursion broke")
    return num


@lru_cache(maxsize=None)
def unit_cyclotomic(k: int) -> Polynomial:
    """The k-th cyclotomic polynomial rescaled to constant term 1 (same roots)."""
    f = cyclotomic_polynomial(k)
    return f * (1 / f.constant_term())


def _euler_phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


CYCLOTOMIC_FROZEN = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    8: [1, 0, 0, 0, 1],
    9: [1, 0, 0, 1, 0, 0, 1],
    10: [1, -1, 1, -1, 1],
    12: [1, 0, -1, 0, 1],
}


def test_cyclotomic_polynomials_frozen():
    orders = {o[0]: o for o in _cyclotomic_orders(12)}
    for k, coeffs in CYCLOTOMIC_FROZEN.items():
        assert cyclotomic_polynomial(k) == Polynomial(coeffs), k
        # the kernel scales Phi_k to constant term 1, which negates Phi_1 only
        sign = -1 if k == 1 else 1
        assert list(_cyclotomic_ints(*orders[k])) == [sign * c for c in coeffs], k


def test_cyclotomic_product_identity():
    for n in range(1, 21):
        product = Polynomial([1])
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic_polynomial(d)
        assert product == Polynomial([-1] + [0] * (n - 1) + [1]), n
    # the kernel's Phi_d have constant term 1, so their product is 1 - t^n
    orders = {k: _cyclotomic_ints(k, phi, primes)
              for k, phi, primes in _cyclotomic_orders(300) if k <= 300}
    for n in range(1, 301):
        product = [1]
        for d in _divisors(n):
            product = _int_product(product, orders[d])
        assert product == [1] + [0] * (n - 1) + [-1], n


def _int_product(a: list, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def test_cyclotomic_kernel_matches_sympy_and_the_recursion():
    t = sympy.Symbol("t")
    orders = [o for o in _cyclotomic_orders(300) if o[0] <= 300]
    assert [k for k, _, _ in orders] == list(range(1, 301))
    for k, phi, primes in orders:
        coeffs = _cyclotomic_ints(k, phi, primes)
        monic = sympy.cyclotomic_poly(k, t, polys=True).all_coeffs()[::-1]
        reference = [int(c) for c in monic]
        assert list(coeffs) == [c * reference[0] for c in reference], k
        assert len(coeffs) == phi + 1 and coeffs[0] == 1, k
        if k <= 60:
            assert Polynomial(coeffs) == unit_cyclotomic(k), k


def test_unit_cyclotomic_has_constant_term_one():
    for k in range(1, 13):
        f = unit_cyclotomic(k)
        assert f.constant_term() == 1
        assert f.degree == cyclotomic_polynomial(k).degree
    # the kernel's leading coefficient is +-1, so int_divmod by it is exact
    for k, phi, primes in _cyclotomic_orders(200):
        coeffs = _cyclotomic_ints(k, phi, primes)
        assert coeffs[0] == 1 and coeffs[-1] == (-1 if k == 1 else 1), k


def test_euler_phi_matches_gcd_count():
    for n in range(1, 60):
        brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert _euler_phi(n) == brute


def test_cyclotomic_orders_are_exactly_the_small_totients():
    # phi(k) >= sqrt(k / 2), so phi(k) <= n forces k <= 2 n^2 + 16; every k
    # with phi(k) <= 200 is therefore found below 2 * 200^2 + 17
    small = [(k, phi) for k in range(1, 2 * 200 ** 2 + 17)
             if (phi := _euler_phi(k)) <= 200]
    for n in range(0, 201):
        orders = _cyclotomic_orders(n)
        assert [k for k, _, _ in orders] == [k for k, phi in small if phi <= n], n
        assert all(phi == _euler_phi(k) for k, phi, _ in orders), n
    for k, _, primes in _cyclotomic_orders(200):
        assert primes == tuple(sympy.primefactors(k)), k


def test_divisors_match_brute_force():
    for n in range(1, 2001):
        brute = [d for d in range(1, n + 1) if n % d == 0]
        assert _divisors(n) == brute, n
        assert _divisors(-n) == brute, -n
    assert _divisors(0) == [1]


# ---------------------------------------------------------------------------
# denominator root analysis


def test_pure_power_denominators_recovered_exactly():
    for s in range(1, 7):
        base = [1] + [0] * (s - 1) + [-1]
        for d in range(1, 5):
            q = Polynomial(base) ** d
            analysis = denominator_analysis(q)
            assert analysis.radius_class == "all_roots_on_unit_circle"
            assert (analysis.s, analysis.d) == (s, d), (s, d)
            divisors = {k for k in range(1, s + 1) if s % k == 0}
            assert analysis.cyclotomic_multiplicities == {k: d for k in divisors}


def test_constant_denominator():
    analysis = denominator_analysis(Polynomial([1]))
    assert analysis.radius_class == "all_roots_on_unit_circle"
    assert (analysis.s, analysis.d) == (1, 0)


def test_impure_cyclotomic_mix_is_flagged():
    q = Polynomial([1, -1]) * Polynomial([1, 0, 0, -1])  # (1-t)(1-t^3)
    analysis = denominator_analysis(q)
    assert analysis.radius_class == "all_roots_on_unit_circle"
    assert analysis.s is None and analysis.d is None
    assert analysis.cyclotomic_multiplicities == {1: 2, 3: 1}
    assert analysis.notes  # the impure pattern is called out


def test_integer_residual_certifies_exponential_growth():
    q = Polynomial([1, -3, 2])  # (1-t)(1-2t)
    analysis = denominator_analysis(q)
    assert analysis.radius_class == "inside_unit_disk"
    assert analysis.cyclotomic_multiplicities == {1: 1}
    assert analysis.linear_factors == (Polynomial([1, -2]),)
    assert "integer non-cyclotomic factor" in analysis.notes[0]

    fib = denominator_analysis(Polynomial([1, -1, -1]))
    assert fib.radius_class == "inside_unit_disk"


def test_large_end_coefficients_skip_the_root_split():
    p, q = 10 ** 9 + 7, 10 ** 9 + 9  # both prime
    denominator = Polynomial([1, -p]) * Polynomial([1, -q])
    analysis = denominator_analysis(denominator)
    assert analysis.radius_class == "inside_unit_disk"
    assert analysis.linear_factors == ()
    assert analysis.residual == denominator
    assert analysis.notes == (
        "integer non-cyclotomic factor certifies a root inside the unit disk",
        ROOT_SPLIT_SKIPPED)


def test_a_degree_one_residual_is_its_own_root_factor():
    # a residual 1 + c t is split off whole, with nothing left, and its root
    # is sympy's
    rng = random.Random(2206)
    t = sympy.Symbol("t")
    for c in [-2, 2, -7, 10 ** 15 + 37] + [rng.choice([-1, 1]) * rng.randint(2, 10 ** 6)
                                            for _ in range(20)]:
        residual = Polynomial([1, c])
        analysis = denominator_analysis(Polynomial([1, -1]) * Polynomial([1, 1]) * residual)
        assert analysis.cyclotomic_multiplicities == {1: 1, 2: 1}, c
        assert (analysis.linear_factors, analysis.residual) == ((residual,), Polynomial.one()), c
        assert analysis.notes == (
            "integer non-cyclotomic factor certifies a root inside the unit disk",), c
        (factor,) = analysis.linear_factors
        (root,) = sympy.solve(sum(int(k) * t ** i for i, k in enumerate(factor.coeffs)), t)
        assert root == sympy.Rational(-1, c), c


def _assert_refused_at_once(den):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="integer coefficients"):
        denominator_analysis(den)
    assert time.perf_counter() - start < 0.1


def test_non_integral_denominators_are_refused():
    # no series with integer coefficients has a reduced denominator outside
    # Z[t] (Fatou), so each is refused at once: a product with a huge
    # rational root, and a degree-80 q with coefficients c / 97 on which the
    # former Sturm chain took seconds
    p, q = 10 ** 9 + 7, 10 ** 9 + 9
    rng = random.Random(97)
    for den in (Polynomial([1, -p]) * Polynomial([1, Fraction(-1, q)]),
                Polynomial([1] + [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), 97)
                                  for _ in range(80)])):
        _assert_refused_at_once(den)


def test_split_rational_root_inside_the_disk_certifies():
    # rational residuals with roots 2/3 and 3, and 3 and 5: the split-off
    # root inside the disk is now never reached, the non-integral q is refused
    _assert_refused_at_once(Polynomial([1, Fraction(-3, 2)])
                            * Polynomial([1, Fraction(-1, 3)]))
    _assert_refused_at_once(Polynomial([1, Fraction(-1, 3)])
                            * Polynomial([1, Fraction(-1, 5)]))


def test_sturm_chain_certifies_irrational_inside_root():
    # roots (-1 +- sqrt(37)) / 6, one near 0.847: the Sturm chain that
    # certified it is gone, the non-integral q is refused
    _assert_refused_at_once(Polynomial([1, Fraction(-1, 3), -1]))


def test_all_roots_outside_is_reported_uncertified():
    # single root at 2: the uncertified "mixed" class is gone, the
    # non-integral q is refused
    _assert_refused_at_once(Polynomial([1, Fraction(-1, 2)]))


def test_denominator_analysis_requires_unit_constant():
    with pytest.raises(ValueError):
        denominator_analysis(Polynomial([2, 1]))


def test_cyclotomic_stage_on_a_degree_320_denominator_is_fast():
    # 1 - t - 2 t^320 = (1 + t) r(t) with r integral of degree 319, so trial
    # division tries every order k with phi(k) <= 320 against r; the Fraction
    # recursion over every k up to 2 * 320^2 + 16 took seconds here
    _cyclotomic_orders.cache_clear()
    _cyclotomic_ints.cache_clear()
    start = time.perf_counter()
    analysis = denominator_analysis(Polynomial([1, -1] + [0] * 318 + [-2]))
    assert time.perf_counter() - start < 1.0
    assert analysis.radius_class == "inside_unit_disk"
    assert analysis.cyclotomic_multiplicities == {2: 1}


# ---------------------------------------------------------------------------
# the integer trial division against the Fraction one it replaced, and
# denominator_analysis against sympy's factorization


def _strip_cyclotomic_reference(q: Polynomial) -> tuple:
    """_strip_cyclotomic as the Fraction trial division it replaced: divmod
    by unit_cyclotomic(k) on Polynomials, up to order 2 deg(q)^2 + 16."""
    mults, rem = {}, q
    for k in range(1, 2 * q.degree ** 2 + 17):
        if _euler_phi(k) > rem.degree:
            continue
        psi = unit_cyclotomic(k)
        while True:
            quo, r = divmod(rem, psi)
            if not r.is_zero():
                break
            rem = quo
            mults[k] = mults.get(k, 0) + 1
        if rem.degree == 0:
            break
    return mults, rem


def _cyclotomic_denominators(rng, count, max_residual_degree, rational):
    """Seeded denominators with q(0) = 1: products of unit cyclotomic factors
    (orders 1..12, multiplicities 1..3) times a residual with constant term 1
    and small integer (or, with `rational`, Fraction) coefficients, of
    degree at most max_residual_degree, sometimes 0 and sometimes with a
    rational root."""
    out = []
    for _ in range(count):
        q = Polynomial([1])
        for k in rng.sample(range(1, 13), rng.randint(0, 3)):
            q = q * unit_cyclotomic(k) ** rng.randint(1, 3)
        degree = 0 if rng.random() < 0.2 else rng.randint(1, max_residual_degree)
        coeffs = [1] + [rng.randint(-3, 3) for _ in range(degree)]
        if degree:
            coeffs[-1] = coeffs[-1] or 1
        if rational:
            coeffs = [1] + [Fraction(c, rng.randint(1, 4)) for c in coeffs[1:]]
        if degree and degree < max_residual_degree and rng.random() < 0.3:
            coeffs = (Polynomial(coeffs) * Polynomial([1, rng.choice((-2, 3))])).coeffs
        out.append(q * Polynomial(coeffs))
    return out


def test_trial_division_matches_the_fraction_division():
    rng = random.Random(2024)
    cases = (_cyclotomic_denominators(rng, 40, 8, rational=False)
             + _cyclotomic_denominators(rng, 25, 6, rational=True))
    for ws in ((1,), (2, 3), (1, 1, 4), (2, 3, 5, 7), (6, 10, 15)):
        q = Polynomial([1])
        for w in ws:
            q = q * Polynomial([1] + [0] * (w - 1) + [-1])
        cases.append(q)
    # orders 13..30 too, beyond the first twelve
    for _ in range(40):
        q = Polynomial([1])
        for k in rng.sample(range(1, 31), rng.randint(1, 2)):
            q = q * unit_cyclotomic(k)
        cases.append(q * Polynomial([1] + [rng.randint(-2, 2) for _ in range(rng.randint(0, 4))]))
    for q in cases:
        if q.degree >= 1:
            mults, rem = _strip_cyclotomic(q)
            ref_mults, ref_rem = _strip_cyclotomic_reference(q)
            assert list(mults.items()) == list(ref_mults.items()), q
            # rem is the residual's primitive integer form, constant term > 0
            assert rem[0] > 0 and math.gcd(*rem) == 1, q
            assert Polynomial(Fraction(c, rem[0]) for c in rem) == ref_rem, q


def _sympy_cyclotomic_split(q: Polynomial) -> tuple:
    """(multiplicities, residual) from sympy.factor_list: each irreducible
    factor equal to +-cyclotomic_poly(k) counts toward order k, and the
    product of the others, scaled to constant term 1, is the residual."""
    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t ** i
               for i, c in enumerate(q.coeffs))
    _, factors = sympy.factor_list(expr, t)
    mults, residual = {}, sympy.Integer(1)
    for f, m in factors:
        f = sympy.Poly(f, t)
        k = next((k for k in range(1, 2 * f.degree() ** 2 + 17)
                  if sympy.totient(k) == f.degree()
                  and sympy.Poly(sympy.cyclotomic_poly(k, t), t) in (f, -f)), None)
        if k is None:
            residual *= f.as_expr() ** m
        else:
            mults[k] = mults.get(k, 0) + m
    residual = sympy.Poly(sympy.expand(residual / residual.subs(t, 0)), t, domain="QQ")
    return mults, Polynomial(Fraction(int(c.p), int(c.q))
                             for c in reversed(residual.all_coeffs()))


def test_denominator_analysis_matches_sympy_factor_list():
    rng = random.Random(1876)
    for q in _cyclotomic_denominators(rng, 40, 30, rational=False):
        if q.degree < 1:
            continue
        mults, residual = _sympy_cyclotomic_split(q)
        analysis = denominator_analysis(q)
        assert analysis.cyclotomic_multiplicities == mults, q
        split = analysis.residual
        for f in analysis.linear_factors:
            split = split * f
        assert split == residual, q
        # Kronecker: an integer residual with constant term 1 that is not a
        # constant has a root strictly inside the unit disk; an integral q
        # has no third class
        assert analysis.radius_class in ("all_roots_on_unit_circle", "inside_unit_disk"), q
        assert (analysis.radius_class == "inside_unit_disk") == (residual.degree >= 1), q


def _walk_analysis(p: list, weights) -> tuple:
    """Recurrence, series, root report and period of p / prod(1 - t^w) by the
    walk: the primitive-gcd reduction, then every order with phi(k) <= deg q."""
    p, q = _lowest_terms(p, _weights_denominator(weights))
    series = _normalised_series(p, q)
    analysis = denominator_analysis(series.denominator)
    mults = analysis.cyclotomic_multiplicities
    period = analysis.s if analysis.s is not None else math.lcm(*mults)
    return _exact_recurrence(p, q), series, analysis, period


def test_exact_analysis_matches_the_walk():
    rng = random.Random(2110)
    cases = [((1000, 1), [(1, 1)]), ((1000, 3, 1), [(1, 0, 2), (0, 4, 0)])]
    for w in range(1, 13):
        for _ in range(12):
            weights = (w,) + tuple(rng.randint(1, 12) for _ in range(rng.randint(0, 2)))
            gens = [tuple(rng.randint(0, 3) for _ in weights)
                    for _ in range(rng.randint(0, 3))]
            cases.append((weights, gens))
    for weights, gens in cases:
        terms = numerator_terms(minimalize_ideal(gens), weights)
        p = [terms.get(d, 0) for d in range(max(terms, default=-1) + 1)]
        while p and p[-1] == 0:
            p.pop()
        low, q, mults = _reduce(p, weights)
        ra = _reduced_analysis(low, q, mults)
        assert (ra.recurrence, ra.series, ra.denominator, ra.period) == \
            _walk_analysis(p, weights), (weights, gens)
        assert mults == ra.denominator.cyclotomic_multiplicities, (weights, gens)
        assert ra.mixed_cyclotomic == (ra.denominator.s is None)
        assert ra.quasi is None
        assert _normalised_series(low, q) == ra.series


def _weights_denominator_reference(weights) -> list:
    """prod(1 - t^w) multiplied out one factor at a time, from the top index
    down: the product _weights_denominator replaced."""
    q = [1] + [0] * sum(weights)
    for w in weights:
        for i in range(len(q) - 1, w - 1, -1):
            q[i] -= q[i - w]
    return q


def test_weights_denominator_matches_the_factor_by_factor_product():
    rng = random.Random(2020)
    cases = [(), (1,), (1,) * 40, (7, 7, 7)]
    cases += [tuple(rng.choice(pool) for _ in range(rng.randint(1, 12)))
              for pool in ([1], [1, 2], [2, 3, 5], list(range(1, 13)), [4, 4, 9, 30])
              for _ in range(40)]
    for weights in cases:
        assert _weights_denominator(weights) == _weights_denominator_reference(weights), weights


def test_division_by_one_minus_t_is_int_divmod():
    rng = random.Random(2121)
    for _ in range(300):
        u = [rng.randint(-9, 9) for _ in range(rng.randint(0, 12))]
        if rng.random() < 0.5 and u:
            u[-1] -= sum(u)  # u(1) = 0
        quo, rem = _divmod_one_minus_t(u)
        ref_quo, ref_rem = int_divmod(u, [1, -1])
        assert rem == ref_rem, u
        if not rem:
            assert quo == ref_quo, u


# ---------------------------------------------------------------------------
# quasi-polynomial branches


def test_periodic_slope_branches_frozen():
    vals = [n // 2 + 1 for n in range(26)]
    qp = fit_quasi_polynomial(vals, 2)
    assert qp is not None
    assert qp.period == 2 and qp.onset == 0
    assert qp.branches[0] == Polynomial([1, Fraction(1, 2)])
    assert qp.branches[1] == Polynomial([Fraction(1, 2), Fraction(1, 2)])
    for n in range(26):
        assert qp.branches[n % 2].evaluate(n) == vals[n]


def test_period_one_fit_is_a_plain_polynomial():
    vals = [math.comb(n + 2, 2) for n in range(20)]
    qp = fit_quasi_polynomial(vals, 1)
    assert qp.period == 1
    assert qp.branches[0] == Polynomial([1, Fraction(3, 2), Fraction(1, 2)])


def test_quasi_polynomial_of_pure_cube_series():
    series = RationalSeries(Polynomial([1]), Polynomial([1, 0, 0, -1]) ** 2)
    samples = series.expand(36)
    qp = quasi_polynomial(series, samples)
    assert qp.period == 3
    assert qp.branches[0] == Polynomial([1, Fraction(1, 3)])
    assert qp.branches[1] == Polynomial([])
    assert qp.branches[2] == Polynomial([])


def test_quasi_polynomial_rejects_impure_denominator():
    series = RationalSeries(Polynomial([1]),
                            Polynomial([1, -1]) * Polynomial([1, 0, 0, -1]))
    with pytest.raises(ValueError):
        quasi_polynomial(series, series.expand(40))


def test_fit_returns_none_for_non_polynomial_branches():
    vals = [2 ** n for n in range(30)]
    assert fit_quasi_polynomial(vals, 2) is None


def test_fit_sizes_its_window_by_the_shortest_residue_class():
    # 23 samples mod 2: classes of 12 and 11, so the window is 3, not 4
    qp = fit_quasi_polynomial([n // 2 + 1 for n in range(23)], 2)
    assert qp.branches == (Polynomial([1, Fraction(1, 2)]),
                           Polynomial([Fraction(1, 2), Fraction(1, 2)]))


def test_fit_with_a_period_beyond_the_samples_returns_at_once():
    # a period of 10^8 leaves no residue class enough samples; deciding that
    # must not walk the classes one by one
    start = time.perf_counter()
    assert fit_quasi_polynomial(list(range(40)), 10 ** 8) is None
    assert time.perf_counter() - start < 0.5


def test_fit_rejects_bad_period():
    with pytest.raises(ValueError):
        fit_quasi_polynomial([1] * 20, 0)


# ---------------------------------------------------------------------------
# quasi-polynomial branches read off an exact series


def _random_monomial(rng, n):
    return tuple(rng.randint(0, 3) for _ in range(n))


def _weighted_presentations(rng, count):
    """(weights, module) pairs: weights 1..6 on 1-4 generators, and in turn
    shifted summands of monomial quotients, a Laurent part with or without
    summands, a finite module (a power of every generator in the ideal) and
    a module with a zero summand (the unit ideal)."""
    out = []
    for k in range(count):
        n = rng.randint(1, 4)
        weights = tuple(rng.randint(1, 6) for _ in range(n))
        summands = [Summand(rng.randint(0, 5),
                            tuple(_random_monomial(rng, n) for _ in range(rng.randint(0, 3))))
                    for _ in range(rng.randint(1, 2))]
        kind = k % 4
        if kind == 1:
            module = ModuleSpec(tuple(summands[:rng.randint(0, 1)]),
                                negative_shift=rng.randint(1, 3))
        elif kind == 2:
            powers = tuple(tuple(rng.randint(1, 3) if j == i else 0 for j in range(n))
                           for i in range(n))
            module = ModuleSpec((Summand(rng.randint(0, 5), powers),))
        elif kind == 3:
            unit = Summand(rng.randint(0, 5), ((0,) * n,))
            module = ModuleSpec((unit,) if rng.random() < 0.5 else (unit, summands[0]))
        else:
            module = ModuleSpec(tuple(summands))
        out.append((weights, module))
    return out


def _exact_series(weights, module):
    """The graded and the cumulative series of the presentation, each as
    (p, q, mults, period, top multiplicity) from _reduce."""
    a = AlgebraSpec.polynomial(len(weights), degrees=[(w,) for w in weights])
    p = presented_series(a, module).p
    for ws in (weights, weights + (1,)):
        low, q, mults = _reduce(p, ws)
        yield low, q, mults, math.lcm(*mults), max(mults.values(), default=0)


def test_the_cumulative_reduction_is_the_graded_one_times_one_minus_t():
    # analyze takes the cumulative series' reduction from the graded one the
    # head gives. Pringsheim: counts >= 0 give a pole at t = 1 or a
    # polynomial positive there, so 1 - t divides no reduced graded p of a
    # nonzero module, and p / ((1 - t) prod(1 - t^w)) reduces to p over
    # q (1 - t), the multiplicity of 1 - t one more. A zero module is 0 / 1
    # either way.
    rng = random.Random(3131)
    seen = Counter()
    for k in range(320):
        n = rng.randint(1, 4)
        weights = tuple(rng.randint(1, 6) for _ in range(n))
        a = AlgebraSpec.polynomial(n, degrees=[(w,) for w in weights])
        summands = tuple(
            Summand(rng.randint(0, 6), ((0,) * n,) if k % 10 == 0 else
                    tuple(_random_monomial(rng, n) for _ in range(rng.randint(0, 3))))
            for _ in range(rng.randint(1, 3)))
        laurent = k % 10 and rng.random() < 1 / 3
        module = ModuleSpec(summands, negative_shift=rng.randint(1, 3) if laurent else None)
        series = presented_series(a, module, reduce=True)
        p, q, mults = series.reduced
        cumulative = _reduce(series.p, weights + (1,))
        if not p:
            assert (p, q, mults) == cumulative == ([], [1], {}), (weights, module)
            seen["zero"] += 1
            continue
        times = [a - b for a, b in zip(q + [0], [0] + q)]
        assert cumulative == (p, times, {1: mults.get(1, 0) + 1, **{
            d: m for d, m in mults.items() if d > 1}}), (weights, module)
        seen["laurent" if laurent else "finite" if 1 not in mults else "pole"] += 1
    assert sum(seen.values()) == 320 and min(seen.values()) >= 20, seen


def test_exact_branches_match_the_fit_on_the_long_expansion():
    # len(p) + P (2M + 6) coefficients put 2M + 6 of each class on its
    # branch, enough for the fit's window of M + 1 (and 8 per class for a
    # constant q, the fit's least)
    rng = random.Random(2024)
    seen = Counter()
    for weights, module in _weighted_presentations(rng, 120):
        for p, q, mults, period, top in _exact_series(weights, module):
            vals = _expansion(p, q, len(p) + period * max(2 * top + 6, 8))
            want = fit_quasi_polynomial(vals, period, window=top + 1)
            got = _exact_quasi_polynomial(p, q, mults, vals)
            assert got == want, (weights, module)
            seen["zero" if not p else "finite" if top == 0 else "periodic"
                 if period > 1 else "polynomial"] += 1
            seen["late onset"] += got.onset > 0
    assert min(seen.values()) >= 10, seen


def _sympy_coefficients(p, weights, count):
    """The first `count` coefficients of p / prod(1 - t^w), by sympy's
    truncated power-series inversion over QQ."""
    ring, t = sympy.polys.rings.ring("t", sympy.QQ)
    q = math.prod([1 - t ** w for w in weights], start=ring.one)
    series = ring_series.rs_mul(ring.from_list(p[::-1]) if p else ring.zero,
                                ring_series.rs_series_inversion(q, t, count), t, count)
    return [int(series.coeff(t ** n)) for n in range(count)]


@pytest.mark.parametrize("weights", [(2, 3), (3, 4), (1, 2, 3, 4), (2, 2, 3, 3)])
def test_exact_branches_match_sympy_series_coefficients(weights):
    # the ring, and its quotient by the square of its first generator at
    # shift 2, whose numerator t^2 (1 - t^(2 w_1)) moves the onset
    for numerator in ([1], [0, 0, 1] + [0] * (2 * weights[0] - 1) + [-1]):
        p, q, mults = _reduce(numerator, weights)
        qp = _exact_quasi_polynomial(p, q, mults, [])
        period = qp.period
        assert period == _reduced_analysis(p, q, mults).period
        want = _sympy_coefficients(numerator, weights, qp.onset + 3 * period)
        for n in range(qp.onset, len(want)):
            assert qp.branches[n % period].evaluate(n) == want[n], (weights, n)
        if qp.onset:  # the class that sets the onset misses its branch one period before
            n = qp.onset - period
            assert qp.branches[n % period].evaluate(n) != want[n]


def test_a_constant_denominator_gives_one_zero_branch_from_the_numerator_end():
    # t (1 - t^3)(1 - t^4) over (1 - t^3)(1 - t^4): the numerator is all
    p, q, mults = _reduce([0, 1, 0, 0, -1, -1, 0, 0, 1], (3, 4))
    assert (p, q, mults) == ([0, 1], [1], {})
    assert _exact_quasi_polynomial(p, q, mults, [0, 1, 0, 0]) == \
        QuasiPolynomial(1, (Polynomial([]),), 2)
    assert _exact_quasi_polynomial([], [1], {}, [0] * 5) == \
        QuasiPolynomial(1, (Polynomial([]),), 0)


def test_exact_branches_check_every_held_coefficient_from_the_onset():
    # 1/((1 - t^2)(1 - t^3)): period 6, onset 0
    p, q, mults = _reduce([1], (2, 3))
    vals = _expansion(p, q, 40)
    assert _exact_quasi_polynomial(p, q, mults, vals).onset == 0
    for n in (0, 17, 39):
        bad = vals[:n] + [vals[n] + 1] + vals[n + 1:]
        with pytest.raises(RuntimeError, match="misses a coefficient"):
            _exact_quasi_polynomial(p, q, mults, bad)


def test_the_exact_branches_are_the_fit_on_the_held_coefficients_where_it_is_true():
    # the reference is fit_quasi_polynomial(held, P, 4): wherever its
    # branches hold on the long expansion, the exact ones read off the
    # series are the same; where they miss it, or it finds none, the exact
    # branches still hold on every coefficient from their onset
    rng = random.Random(23)
    agreed = false_fits = no_fits = 0
    for weights, module in _weighted_presentations(rng, 60):
        p, q, mults, period, top = next(_exact_series(weights, module))
        vals = _expansion(p, q, len(p) + 14 * period + 40)
        # 8 per class and up: the fit's adapted window grows from 2 to 4 by 12
        for depth in (*range(8 * period - 1, 8 * period + 6), 10 * period, 12 * period + 3):
            held = vals[:depth + 1]
            assert period * top <= len(held)  # poincare's size rule admits them
            got = _exact_quasi_polynomial(p, q, mults, held)
            assert got == _exact_quasi_polynomial(p, q, mults, vals), (weights, module, depth)
            assert all(got.branches[n % period].evaluate(n) == vals[n]
                       for n in range(got.onset, len(vals))), (weights, module, depth)
            fit = fit_quasi_polynomial(held, period, window=4)
            if fit is None:
                no_fits += 1
            elif all(fit.branches[n % period].evaluate(n) == vals[n]
                     for n in range(fit.onset, len(vals))):
                assert got == fit, (weights, module, depth)
                agreed += 1
            else:
                false_fits += 1
    assert agreed > 300 and false_fits > 10, (agreed, false_fits, no_fits)


def test_a_short_class_gets_its_high_degree_branch_off_the_series():
    # weights 1 (seven times) and 2: branches of degree 7 in both classes
    # mod 2; on 17 coefficients class 1 has 8, one too few for the tower's
    # window of 2 at level 7, so the fit finds nothing below 18, while P M =
    # 16 coefficients already give the branches read off the series
    weights = (1,) * 7 + (2,)
    p, q, mults = _reduce([1], weights)
    assert mults == {1: 8, 2: 1}
    vals = _expansion(p, q, 40)
    want = _exact_quasi_polynomial(p, q, mults, vals)
    for length in range(16, 41):
        assert _exact_quasi_polynomial(p, q, mults, vals[:length]) == want, length
        fit = fit_quasi_polynomial(vals[:length], 2, window=4)
        assert (fit is None) == (length < 18), length
        assert fit is None or fit == want, length


def test_the_work_bound_is_decided_before_the_series_is_divided(monkeypatch):
    # M (len(p) + P M) + 16 P M^2 past BRANCH_WORK_BOUND: (1 - t^P)^M is
    # never built. A pole of order 500 at t = 1 is just past it, 499 just
    # within; a numerator of 40000 terms puts a pole of order 120 past it
    assert _branch_work(1, 1, 499) <= BRANCH_WORK_BOUND < _branch_work(1, 1, 500)
    monkeypatch.setattr(gkdim.poincare, "int_divmod", None)
    assert _exact_quasi_polynomial([1], [1], {1: 500}, [1] * 31) is None
    assert _exact_quasi_polynomial([1] * 40000, [1], {1: 120}, [1] * 31) is None
    with pytest.raises(TypeError):  # within the bound the series is divided
        _exact_quasi_polynomial([1], [1], {1: 499}, [1] * 31)


def _column_reader_reference(p, q, mults, held):
    """_exact_quasi_polynomial as it was before the Taylor kernel: class i's
    form a_j = sum_r c_(i + rP) C(M - 1 - r, M - 1 - j), and the onset from
    the last miss of the head of c / (1 - t^P)^M below len(p) - deg q."""
    period = math.lcm(*mults)
    top = max(mults.values(), default=0)
    c = [0] * (len(p) + top * period)
    for j in range(top + 1):
        b, lo = (-1) ** j * math.comb(top, j), j * period
        c[lo:lo + len(p)] = [a + b * x for a, x in zip(c[lo:lo + len(p)], p)]
    c, rem = int_divmod(c, q)
    assert not rem
    depth = -(-len(c) // period)
    columns = [[falling_binom(top - 1 - r, top - 1 - j) for r in range(depth)]
               for j in range(top)]
    forms = []
    for i in range(period):
        form = [sum(map(lambda x, y: x * y, c[i::period], column)) for column in columns]
        while form and not form[-1]:
            form.pop()
        forms.append(form)
    held_counts = [len(range(i, len(held), period)) for i in range(period)]
    head = c[:max(0, len(p) - len(q) + 1)]
    for _ in range(top):
        for i in range(period):
            head[i::period] = itertools.accumulate(head[i::period])
    onset, values = 0, []
    for i, form in enumerate(forms):
        known = head[i::period]
        values.append(_form_values(form, max(len(known), held_counts[i], 1)))
        miss = next((x for x in reversed(range(len(known))) if known[x] != values[i][x]), None)
        if miss is not None:
            onset = max(onset, i + (miss + 1) * period)
    for i, count in enumerate(held_counts):
        first = max(0, -(-(onset - i) // period))
        assert held[i + first * period::period] == values[i][first:count]
    branches = tuple(Polynomial([Fraction(c, den) for c in ints]) for ints, den in
                     (_branch_ints(form, 1, period, i) for i, form in enumerate(forms)))
    return QuasiPolynomial(period, branches, onset)


def test_the_taylor_reader_matches_the_column_reader():
    rng = random.Random(3232)
    seen = Counter()
    for k in range(320):
        n = rng.randint(1, 4)
        weights = tuple(rng.randint(1, 6) for _ in range(n))
        a = AlgebraSpec.polynomial(n, degrees=[(w,) for w in weights])
        summands = tuple(
            Summand(rng.randint(0, 6), ((0,) * n,) if k % 10 == 0 else
                    tuple(_random_monomial(rng, n) for _ in range(rng.randint(0, 3))))
            for _ in range(rng.randint(1, 3)))
        laurent = k % 10 and rng.random() < 1 / 3
        module = ModuleSpec(summands, negative_shift=rng.randint(1, 3) if laurent else None)
        numerator = presented_series(a, module).p
        for ws in (weights, weights + (1,)):
            p, q, mults = _reduce(numerator, ws)
            period, top = math.lcm(*mults), max(mults.values(), default=0)
            held = _expansion(p, q, len(p) + period * (top + 2))
            got = _exact_quasi_polynomial(p, q, mults, held)
            assert got == _column_reader_reference(p, q, mults, held), (ws, module)
            seen["zero" if not p else "laurent" if laurent else "constant q"
                 if top == 0 else "late onset" if got.onset else "onset 0"] += 1
    # an empty residue class: 1 / (1 - t^2) has c = 1, nothing in class 1
    for p, q, mults in (([1], [1, 0, -1], {1: 1, 2: 1}), ([0, 1], [1], {})):
        held = _expansion(p, q, 9)
        got = _exact_quasi_polynomial(p, q, mults, held)
        assert got == _column_reader_reference(p, q, mults, held), (p, q)
    assert got == QuasiPolynomial(1, (Polynomial([]),), 2)
    assert sum(seen.values()) == 640 and min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# the rational-analysis pipeline


def _pipeline_parts(vals, confirm=8):
    rec = minimal_recurrence(vals, confirm=confirm)
    series = series_from_recurrence(vals, rec)
    return rec, series, denominator_analysis(series.denominator)


def test_rational_analysis_without_a_recurrence_is_none():
    assert rational_analysis([math.factorial(n) for n in range(20)], 8) is None


def test_rational_analysis_off_the_unit_circle_has_no_period():
    vals = [2 ** n for n in range(20)]
    ra = rational_analysis(vals, 8)
    assert (ra.recurrence, ra.series, ra.denominator) == _pipeline_parts(vals)
    assert ra.denominator.radius_class == "inside_unit_disk"
    assert (ra.period, ra.mixed_cyclotomic, ra.quasi) == (None, False, None)


def test_rational_analysis_stops_at_a_non_integral_denominator():
    # 2^(11 - i) 3^i fits 2048 / (1 - (3/2) t), which leaves the integers
    # at the next index: no root analysis, no period, no branches
    vals = [2 ** (11 - i) * 3 ** i for i in range(12)]
    ra = rational_analysis(vals, 8)
    assert ra.recurrence == minimal_recurrence(vals, confirm=8)
    assert ra.series.denominator == Polynomial([1, Fraction(-3, 2)])
    assert (ra.denominator, ra.period, ra.quasi) == (None, None, None)


def test_rational_analysis_takes_the_pure_period():
    vals = RationalSeries(Polynomial([1]), Polynomial([1, 0, -1]) ** 2).expand(40)
    ra = rational_analysis(vals, 8)
    assert (ra.recurrence, ra.series, ra.denominator) == _pipeline_parts(vals)
    assert (ra.period, ra.mixed_cyclotomic) == (2, False)
    assert ra.quasi == fit_quasi_polynomial(vals, 2, window=4)


def test_rational_analysis_takes_the_lcm_of_mixed_orders():
    # 1/((1 - t^2)(1 - t^3)): orders 1, 2, 3, no pure (1 - t^s)^d
    q = Polynomial([1, 0, -1]) * Polynomial([1, 0, 0, -1])
    vals = RationalSeries(Polynomial([1]), q).expand(60)
    ra = rational_analysis(vals, 8)
    assert ra.denominator.s is None
    assert (ra.period, ra.mixed_cyclotomic) == (6, True)
    assert ra.quasi == fit_quasi_polynomial(vals, 6, window=4)
    assert rational_analysis(vals[:30], 8).quasi is None


# ---------------------------------------------------------------------------
# coherence between the polynomial fit and the denominator


def test_polynomial_sequences_have_unit_circle_denominators():
    from gkdim.samuel import detect_polynomial, gk_dimension

    for vals in ([n + 1 for n in range(30)],
                 [math.comb(n + 2, 2) for n in range(30)],
                 [math.comb(n + 3, 3) for n in range(30)]):
        fit = detect_polynomial(vals)
        d = gk_dimension(fit)
        rec = minimal_recurrence(vals)
        series = series_from_recurrence(vals, rec)
        pure = Polynomial([1, -1]) ** (d + 1)
        assert series.denominator.divides(pure)
