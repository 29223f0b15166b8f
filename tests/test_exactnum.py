"""Exact numeric layer: generalized binomial coefficients, dense rational
polynomials, and the Newton-difference conversion between the power basis
and the binomial basis.

Oracles: math.comb for ordinary binomials, hand-expanded falling factorials
for negative upper arguments (frozen below), round-trip/evaluation
identities for the basis conversions, and differential references: the
integer kernels (primitive remainder sequence gcd, int division, Stirling
basis conversions, int Horner evaluation and affine substitution) are
compared with the Fraction implementations they replaced, kept below as
references, and the gcd also
with sympy.gcd. The int Horner affine substitution is itself kept here as
the reference of poincare's integer quasi-polynomial branch kernel, which
replaced it and from_binomial_basis in the branch fit. detect_polynomial's closed-form back step and level-d scan
are compared with the step-by-step integer tower and with the Fraction
polynomial round trip, both kept below. The running-sum Taylor
coefficients at t = 1 are compared with sum_d C(d, j) p_d, on empty and
constant polynomials and for count 0 and past the degree too.
"""

from fractions import Fraction
import itertools
import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdim.exactnum import (BinomialForm, Polynomial, _taylor_at_one, detect_polynomial,
                            falling_binom, finite_difference,
                            from_binomial_basis, int_divmod,
                            integer_coefficients, primitive_gcd,
                            sequence_values, to_binomial_basis)
from gkdim.poincare import _branch_ints


# ---------------------------------------------------------------------------
# binomial coefficients


def test_falling_binom_agrees_with_comb_for_naturals():
    for m in range(0, 15):
        for i in range(0, 10):
            assert falling_binom(m, i) == math.comb(m, i)


# frozen values: falling_binom(m, i) = m(m-1)...(m-i+1)/i!, expanded by hand
NEGATIVE_BINOMIALS = [
    (-1, 0, 1),
    (-1, 1, -1),
    (-1, 2, 1),
    (-1, 3, -1),
    (-2, 1, -2),
    (-2, 2, 3),     # (-2)(-3)/2
    (-2, 3, -4),    # (-2)(-3)(-4)/6
    (-3, 2, 6),     # (-3)(-4)/2
    (-5, 3, -35),   # (-5)(-6)(-7)/6
]


def test_falling_binom_negative_upper_argument_frozen():
    for m, i, expected in NEGATIVE_BINOMIALS:
        assert falling_binom(m, i) == expected


def test_falling_binom_pascal_identity_everywhere():
    # C(m, i) = C(m-1, i) + C(m-1, i-1) holds for every integer m
    for m in range(-6, 7):
        assert falling_binom(m, 0) == 1
        for i in range(1, 7):
            assert falling_binom(m, i) == (
                falling_binom(m - 1, i) + falling_binom(m - 1, i - 1))


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_polynomial_normalizes_trailing_zeros():
    assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial([0, 0]).coeffs == ()
    assert Polynomial().degree == -1
    assert Polynomial([5]).degree == 0


def test_polynomial_product_frozen():
    one_plus = Polynomial([1, 1])
    one_minus = Polynomial([1, -1])
    assert (one_plus * one_minus) == Polynomial([1, 0, -1])
    assert (one_plus * 3) == Polynomial([3, 3])
    assert (2 * one_minus) == Polynomial([2, -2])


def test_polynomial_addition_subtraction_negation():
    p = Polynomial([1, 2, 3])
    q = Polynomial([4, 5])
    assert p + q == Polynomial([5, 7, 3])
    assert p - q == Polynomial([-3, -3, 3])
    assert -p == Polynomial([-1, -2, -3])
    assert p - p == Polynomial()


def test_polynomial_power():
    p = Polynomial([1, 1])
    assert p ** 0 == Polynomial([1])
    assert p ** 3 == Polynomial([1, 3, 3, 1])


def test_evaluate_frozen():
    p = Polynomial([5, -1, 0, 2])  # 2x^3 - x + 5
    assert p.evaluate(3) == 56
    assert p.evaluate(0) == 5
    assert p.evaluate(Fraction(1, 2)) == Fraction(5 * 4 - 2 + 1, 4)


def _compose_affine(p: Polynomial, a, b) -> Polynomial:
    """The polynomial p(a*x + b), the quasi-polynomial branch rescaling that
    poincare._branch_ints replaced, kept as its reference.

    With a*x + b = (u*x + v) / w over ints (w the lcm of the denominators of
    a and b) and the coefficients scaled to ints c_k over their common
    denominator s, int Horner over u*x + v gives sum_k c_k w^(n-k)
    (u*x + v)^k; each coefficient of p(a*x + b) is one of those over
    s w^n, one Fraction apiece.
    """
    if not p.coeffs:
        return Polynomial()
    a, b = Fraction(a), Fraction(b)
    ints, scale = integer_coefficients(p.coeffs)
    w = math.lcm(a.denominator, b.denominator)
    u, v = a.numerator * (w // a.denominator), b.numerator * (w // b.denominator)
    acc, wpow = [], 1
    for c in reversed(ints):  # acc = acc * (v + u x) + c * w^(n-k)
        acc = [v * lo + u * hi for lo, hi in zip(acc + [0], [0] + acc)]
        acc[0] += c * wpow
        wpow *= w
    den = scale * wpow // w
    return Polynomial([Fraction(c, den) for c in acc])


def test_compose_affine_frozen_and_pointwise():
    square = Polynomial([0, 0, 1])
    assert _compose_affine(square, 2, 1) == Polynomial([1, 4, 4])
    p = Polynomial([3, -2, 0, 1])
    a, b = Fraction(1, 3), Fraction(-2)
    comp = _compose_affine(p, a, b)
    for x in range(-4, 5):
        assert comp.evaluate(x) == p.evaluate(a * x + b)


def test_divmod_exact():
    product = Polynomial([2, 3, 1])  # (x + 1)(x + 2)
    q, r = divmod(product, Polynomial([1, 1]))
    assert q == Polynomial([2, 1])
    assert r == Polynomial()
    q, r = divmod(product, Polynomial([0, 1]))  # divide by x
    assert q == Polynomial([3, 1])
    assert r == Polynomial([2])
    assert Polynomial([1, 1]).divides(product)
    assert not Polynomial([5, 1]).divides(product)


def _monic(p: Polynomial) -> Polynomial:
    """p scaled to leading coefficient 1; the zero polynomial stays zero."""
    if p.is_zero():
        return p
    return p * (1 / p.leading_coefficient())


def test_gcd_is_monic_common_factor():
    a = Polynomial([2, -3, 1])   # (x - 1)(x - 2)
    b = Polynomial([3, -4, 1])   # (x - 1)(x - 3)
    assert Polynomial.gcd(a, b) == Polynomial([-1, 1])
    assert Polynomial.gcd(a, Polynomial()) == _monic(a)


# ---------------------------------------------------------------------------
# binomial forms and finite differences


def test_binomial_form_evaluate_frozen():
    form = BinomialForm([1, 2, 3])  # 1 + 2 C(n,1) + 3 C(n,2)
    assert form.evaluate(0) == 1
    assert form.evaluate(1) == 3
    assert form.evaluate(4) == 1 + 8 + 18
    assert form.leading_coefficient() == 3
    assert form.degree == 2


def test_binomial_form_difference_matches_forward_difference():
    form = BinomialForm([1, 2, 3, Fraction(1, 2)])
    diff = form.difference()
    assert diff.coeffs == (2, 3, Fraction(1, 2))
    for n in range(0, 12):
        assert diff.evaluate(n) == form.evaluate(n + 1) - form.evaluate(n)


def test_finite_difference_frozen():
    assert finite_difference([1, 4, 9, 16]) == [3, 5, 7]
    assert finite_difference([2, 2]) == [0]
    with pytest.raises(ValueError):
        finite_difference([5])


def test_square_in_binomial_basis():
    # n^2 = C(n,1) + 2 C(n,2): differences of 0,1,4 are 1,3 then 2
    square = Polynomial([0, 0, 1])
    assert to_binomial_basis(square).coeffs == (0, 1, 2)


def test_basis_round_trip_exhaustive_small():
    values = [-2, -1, 0, 1, 2]
    for coeffs in itertools.product(values, repeat=4):
        p = Polynomial(coeffs)
        form = to_binomial_basis(p)
        assert from_binomial_basis(form) == p
        back = to_binomial_basis(from_binomial_basis(BinomialForm(coeffs)))
        assert back == BinomialForm(coeffs)
        # both representations evaluate identically
        for n in range(0, 8):
            assert form.evaluate(n) == p.evaluate(n)


def test_integer_binomial_coefficients_give_integer_values():
    for coeffs in itertools.product([-2, 0, 1, 3], repeat=4):
        form = BinomialForm(coeffs)
        assert form.is_integral()
        for n in range(0, 10):
            assert from_binomial_basis(form).evaluate(n).denominator == 1


def test_non_integer_valued_polynomial_has_non_integral_form():
    half_square = Polynomial([0, 0, Fraction(1, 2)])  # value 1/2 at n = 1
    form = to_binomial_basis(half_square)
    assert form.coeffs == (0, Fraction(1, 2), 1)
    assert not form.is_integral()


# ---------------------------------------------------------------------------
# integer kernels against the Fraction implementations they replaced


def _gcd_reference(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over Q by the Euclidean algorithm in Fraction."""
    while not b.is_zero():
        _, r = _divmod_reference(a, b)
        a, b = b, r
    return _monic(a)


def _divmod_reference(num: Polynomial, den: Polynomial):
    """Schoolbook division over Q in Fraction."""
    rem = list(num.coeffs)
    den = den.coeffs
    qdeg = len(rem) - len(den)
    if qdeg < 0:
        return Polynomial(), Polynomial(rem)
    quo = [Fraction(0)] * (qdeg + 1)
    inv_lead = 1 / den[-1]
    for i in range(qdeg, -1, -1):
        c = rem[i + len(den) - 1] * inv_lead
        quo[i] = c
        if c:
            for j, d in enumerate(den):
                rem[i + j] -= c * d
    return Polynomial(quo), Polynomial(rem)


def _to_binomial_basis_reference(p: Polynomial) -> BinomialForm:
    """Newton forward differences of p's values at 0, 1, ..., deg p."""
    d = p.degree
    if d < 0:
        return BinomialForm()
    row = [p.evaluate(n) for n in range(d + 1)]
    coeffs = [row[0]]
    for _ in range(d):
        row = finite_difference(row)
        coeffs.append(row[0])
    return BinomialForm(coeffs)


def _from_binomial_basis_reference(b: BinomialForm) -> Polynomial:
    """sum a_i * C(n, i) with C(n, i) built as a Fraction polynomial."""
    total = Polynomial()
    cpoly = Polynomial([1])
    for i, a in enumerate(b.coeffs):
        if i > 0:
            cpoly = cpoly * Polynomial([-(i - 1), 1]) * Fraction(1, i)
        if a:
            total = total + a * cpoly
    return total


def _hilbert_denominator(weights) -> Polynomial:
    q = Polynomial([1])
    for w in weights:
        q = q * Polynomial([1] + [0] * (w - 1) + [-1])
    return q


def _random_poly(rng, degree, rational):
    coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
    if rational:
        coeffs = [Fraction(c, rng.randint(1, 12)) for c in coeffs]
    return Polynomial(coeffs)


def _gcd_pairs():
    """Seeded pairs: products with a shared factor (integer or rational),
    Hilbert-type denominators prod(1 - t^w) against numerators that share
    some of their cyclotomic factors, coprime pairs, and zero operands."""
    rng = random.Random(20240721)
    pairs = []
    for _ in range(60):
        rational = rng.random() < 0.4
        common = _random_poly(rng, rng.randint(0, 3), rational)
        a = common * _random_poly(rng, rng.randint(0, 4), rational)
        b = common * _random_poly(rng, rng.randint(0, 4), rational)
        pairs.append((a, b))
    for _ in range(30):
        weights = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
        q = _hilbert_denominator(weights)
        shared = _hilbert_denominator(rng.sample(weights, rng.randint(0, len(weights))))
        pairs.append((shared * _random_poly(rng, rng.randint(0, 6), False), q))
    for _ in range(10):
        pairs.append((Polynomial([1, rng.randint(2, 9)]), Polynomial([1, -rng.randint(2, 9)])))
    zero, unit = Polynomial(), Polynomial([Fraction(3, 7), 0, 2])
    pairs += [(zero, zero), (zero, unit), (unit, zero), (Polynomial([5]), unit)]
    return pairs


def _sympy_monic_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    t = sympy.Symbol("t")
    pa, pb = (sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                          for c in reversed(p.coeffs)] or [0], t, domain="QQ")
              for p in (a, b))
    g = sympy.gcd(pa, pb)
    return _monic(Polynomial([Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())]))


def test_gcd_matches_euclid_and_sympy():
    for a, b in _gcd_pairs():
        g = Polynomial.gcd(a, b)
        assert g == _gcd_reference(a, b), (a, b)
        assert g == _sympy_monic_gcd(a, b), (a, b)
        assert Polynomial.gcd(b, a) == g
        assert g.is_zero() or g.leading_coefficient() == 1


def test_primitive_gcd_is_primitive_with_positive_lead():
    assert primitive_gcd([], []) == []
    assert primitive_gcd([-4, 0, 6], []) == [-2, 0, 3]
    # 6(t - 1)(t + 2) and -10(t - 1)(t - 3)
    assert primitive_gcd([-12, 6, 6], [-30, 40, -10]) == [-1, 1]


def test_integer_division_matches_fraction_division():
    rng = random.Random(7)
    for _ in range(200):
        num = _random_poly(rng, rng.randint(0, 8), False)
        den = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(0, 4))]
                         + [rng.choice((1, -1))])
        assert divmod(num, den) == _divmod_reference(num, den)
        quo, rem = divmod(num, den)
        assert all(type(c) is Fraction for c in quo.coeffs + rem.coeffs)
    # a primitive divisor that divides exactly: integral quotient, no remainder
    assert int_divmod([-2, -1, 3, 2], [-2, 1, 2]) == ([1, 1], [])
    with pytest.raises(RuntimeError, match="internal error"):
        int_divmod([1, 0, 1], [1, 2])


def test_stirling_conversions_match_the_fraction_references():
    rng = random.Random(12)
    for degree in range(-1, 13):
        for _ in range(4):
            coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 20))
                      for _ in range(degree + 1)]
            p = Polynomial(coeffs)
            form = BinomialForm(coeffs)
            assert to_binomial_basis(p) == _to_binomial_basis_reference(p)
            assert from_binomial_basis(form) == _from_binomial_basis_reference(form)


# ---------------------------------------------------------------------------
# int Horner evaluation against the Fraction Horner it replaced


def _evaluate_reference(p: Polynomial, x):
    """Polynomial.evaluate as Horner's rule in Fraction."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def test_evaluate_matches_the_fraction_horner():
    rng = random.Random(8)
    points = [0, 1, -1, 2, -3, 7, 10 ** 6, Fraction(1, 2), Fraction(-2, 3),
              Fraction(5, 7), Fraction(-11, 4)]
    assert all(Polynomial().evaluate(x) == 0 for x in points)
    for _ in range(150):
        p = _random_poly(rng, rng.randrange(8), rational=rng.random() < 0.5)
        extra = [rng.randint(-20, 20), Fraction(rng.randint(-20, 20), rng.randint(1, 9))]
        for x in points + extra:
            value = p.evaluate(x)
            assert type(value) is Fraction
            assert value == _evaluate_reference(p, x), (p, x)
        assert p.evaluate(3) == _evaluate_reference(p, 3)  # the cached scaling is reused


# ---------------------------------------------------------------------------
# int Horner affine substitution against the Fraction Horner it replaced


def _compose_affine_reference(p: Polynomial, a, b) -> Polynomial:
    """_compose_affine as Horner's rule over Polynomial([b, a]) in Fraction."""
    arg = Polynomial([b, a])
    acc = Polynomial()
    for c in reversed(p.coeffs):
        acc = acc * arg + Polynomial([c])
    return acc


def test_compose_affine_matches_the_fraction_horner():
    rng = random.Random(2310)
    pairs = [(1, 0), (0, 5), (-1, 0), (2, -3), (Fraction(1, 6), Fraction(-5, 6)),
             (Fraction(-2, 3), Fraction(7, 4)), (Fraction(1, 2310), Fraction(-2309, 2310)),
             (Fraction(3, 5), 0), (-7, Fraction(1, 9)), (0, Fraction(-4, 3))]
    for a, b in pairs:
        assert _compose_affine(Polynomial(), a, b) == Polynomial()
    for _ in range(150):
        p = _random_poly(rng, rng.randrange(9), rational=rng.random() < 0.5)
        extra = (Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
        for a, b in pairs + [extra]:
            got = _compose_affine(p, a, b)
            assert got == _compose_affine_reference(p, a, b), (p, a, b)
            assert all(type(c) is Fraction for c in got.coeffs)


# ---------------------------------------------------------------------------
# the int branch kernel against from_binomial_basis and _compose_affine


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)), max_size=7),
       st.integers(1, 12), st.data())
def test_integer_branch_matches_the_composed_binomial_form(coeffs, period, data):
    residue = data.draw(st.integers(0, period - 1))
    form = BinomialForm(coeffs)
    ints, den = _branch_ints(*integer_coefficients(form.coeffs), period, residue)
    got = Polynomial([Fraction(c, den) for c in ints])
    expected = _compose_affine(from_binomial_basis(form), Fraction(1, period),
                               Fraction(-residue, period))
    assert got == expected
    # and pointwise: the branch at n = residue + k * period is the form at k
    for k in range(4):
        n = residue + k * period
        acc = 0
        for c in reversed(ints):
            acc = acc * n + c
        assert Fraction(acc, den) == form.evaluate(k)


# ---------------------------------------------------------------------------
# difference tower: detect_polynomial against the reconstructions it replaced


def _detect_polynomial_tower(s, window=6):
    """detect_polynomial as the integer tower it replaced, as (form,
    stabilization) or None: the anchor column is stepped back to n = 0 one n
    at a time, run forwards again to give every fitted value, and the
    samples are compared with these from the last one down."""
    vals = sequence_values(s, require_cumulative=True)
    levels = [vals]
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
    return form, stabilization


def _detect_polynomial_reference(s, window=6):
    """detect_polynomial as a Fraction polynomial round trip: the Newton form
    at the anchor is evaluated at every sample for the stabilization scan,
    expanded into a Polynomial, and converted back by to_binomial_basis."""
    vals = sequence_values(s, require_cumulative=True)
    levels = [vals]
    while True:
        cur = levels[-1]
        if len(cur) >= window and all(v == cur[-1] for v in cur[-window:]):
            degree = len(levels) - 1
            break
        if len(cur) <= window:
            return None
        levels.append([cur[i + 1] - cur[i] for i in range(len(cur) - 1)])
    anchor = len(levels[degree]) - window
    newton = [levels[i][anchor] for i in range(degree + 1)]

    def predicted(n):
        return sum(c * falling_binom(n - anchor, i) for i, c in enumerate(newton))

    stabilization = 0
    for n in range(len(vals) - 1, -1, -1):
        if predicted(n) != vals[n]:
            stabilization = n + 1
            break
    poly = Polynomial()
    cpoly = Polynomial([1])
    for i, c in enumerate(newton):
        if i > 0:
            cpoly = cpoly * Polynomial([-(anchor + i - 1), 1]) * Fraction(1, i)
        if c:
            poly = poly + c * cpoly
    return to_binomial_basis(poly), stabilization


def _fit_family(rng):
    """(samples, window) pairs: binomial-form polynomials of degree 0-6 with
    int or Fraction coefficients, with transient heads ending at 0, midway or
    at the anchor window, plus constant, zero and non-polynomial sequences."""
    for window in range(2, 7):
        for _ in range(40):
            length = 2 * window + 4 + rng.randrange(12)
            degree = rng.randrange(7)
            if rng.random() < 0.25:
                coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                          for _ in range(degree + 1)]
            else:
                coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
            coeffs[-1] = coeffs[-1] or 1
            vals = [sum(c * math.comb(n, i) for i, c in enumerate(coeffs))
                    for n in range(length)]
            anchor = max(length - degree - window, 0)
            for head in (0, anchor // 2, anchor):
                noisy = [rng.randint(-50, 50) for _ in range(head)] + vals[head:]
                yield noisy, window
        length = 2 * window + 4
        yield [rng.randint(0, 9)] * length, window
        yield [0] * length, window
        yield [2 ** n for n in range(length)], window
        yield [n // 2 for n in range(length)], window
        yield [rng.randint(-50, 50) for _ in range(length + 5)], window


def test_fit_matches_the_fraction_round_trip():
    rng = random.Random(20240607)
    cases = list(_fit_family(rng))
    nones = 0
    for vals, window in cases:
        fit = detect_polynomial(vals, window)
        reference = _detect_polynomial_reference(vals, window)
        assert (fit is None) == (reference is None), (vals, window)
        if fit is None:
            nones += 1
            continue
        form, stabilization = reference
        assert fit.form.coeffs == form.coeffs, (vals, window)
        assert [type(c) for c in fit.form.coeffs] == [type(c) for c in form.coeffs]
        assert fit.stabilization_index == stabilization, (vals, window)
    assert 0 < nones < len(cases) // 4


def _isolated_agreements(rng):
    """(samples, window, stabilization) triples: polynomial samples whose
    head is corrupted below a chosen stabilization index s, always at s - 1
    and at about half of the indices below it, so that the samples agree
    with the fit at isolated n just below s."""
    for window in range(2, 7):
        for _ in range(30):
            degree = rng.randrange(6)
            length = 2 * window + 4 + rng.randrange(10)
            coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
            coeffs[-1] = coeffs[-1] or 1
            vals = [sum(c * math.comb(n, i) for i, c in enumerate(coeffs))
                    for n in range(length)]
            if _detect_polynomial_tower(vals, window) != (BinomialForm(coeffs), 0):
                continue  # a lower level happens to be constant on its final window
            anchor = length - degree - window
            stabilization = rng.randint(1, anchor)
            for n in range(stabilization):
                if n == stabilization - 1 or rng.random() < 0.5:
                    vals[n] += rng.choice((-3, -2, -1, 1, 2, 3))
            yield vals, window, stabilization


def test_fit_matches_the_integer_tower():
    rng = random.Random(20240607)
    cases = [(vals, window, None) for vals, window in _fit_family(rng)]
    assert len(cases) == 625
    cases += list(_isolated_agreements(random.Random(88)))
    assert len(cases) > 625 + 140
    for vals, window, stabilization in cases:
        fit = detect_polynomial(vals, window)
        tower = _detect_polynomial_tower(vals, window)
        assert (fit is None) == (tower is None), (vals, window)
        if fit is None:
            continue
        assert (fit.form, fit.stabilization_index) == tower, (vals, window)
        if stabilization is not None:
            form, reference = _detect_polynomial_reference(vals, window)
            assert fit.form == form
            assert fit.stabilization_index == reference == stabilization, (vals, window)


def test_fit_at_anchor_zero():
    # degree 6 on 8 samples with window 2: level 6 is its own final window
    form = BinomialForm((3, -1, 0, 2, -5, 1, 4))
    vals = [form.evaluate(n) for n in range(8)]
    fit = detect_polynomial(vals, window=2)
    assert (fit.form, fit.stabilization_index) == (form, 0)
    assert _detect_polynomial_tower(vals, window=2) == (form, 0)


def test_taylor_coefficients_at_one_match_the_binomial_sums():
    rng = random.Random(32)
    cases = [([], 3), ([7], 0), ([7], 4), ([0, 0, 5], 2)]
    cases += [([rng.randint(-10 ** 9, 10 ** 9) for _ in range(rng.randint(1, 40))],
                rng.randint(0, 45)) for _ in range(200)]
    for coeffs, count in cases:
        want = [sum(math.comb(d, j) * c for d, c in enumerate(coeffs)) for j in range(count)]
        assert _taylor_at_one(coeffs, count) == want, (coeffs, count)
