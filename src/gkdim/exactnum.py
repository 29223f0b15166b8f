"""Exact rational arithmetic, dense univariate polynomials over Q, and the
binomial-coefficient basis C(n,0), C(n,1), ... used for integer-valued
polynomials.

Everything in this module is exact: values are Python ints and
fractions.Fraction, never floats. Polynomials store Fraction coefficients,
but the costly kernels run on plain int coefficient lists and build
Fractions once, at the end:
- gcd is a primitive polynomial remainder sequence over Z (G. E. Collins,
  "Subresultants and reduced polynomial remainder sequences", J. ACM 14,
  1967; Knuth, TAOCP vol. 2, 4.6.1): both inputs are scaled to primitive
  integer lists, which clears any denominators, and each pseudo-remainder
  is reduced to its primitive part, so the coefficients stay small;
- int_divmod divides integer coefficient lists exactly: by a divisor with
  leading coefficient +-1 (cyclotomic trial division), or by a primitive
  divisor of the dividend (Gauss's lemma makes the quotient integral);
- the binomial-basis conversions use cached integer Stirling numbers over one
  common denominator;
- evaluation is int Horner over the coefficients' common denominator, with
  one Fraction built at the end;
- the difference tower (detect_polynomial) fits an eventual polynomial
  f(n) = sum a_i C(n, i) by exact subtraction: its column at the first
  constant window, moved back to n = 0 in one closed-form step, is
  (a_0, ..., a_d), and one scan of the constant level finds where the
  samples start to agree. d is the growth dimension, a_d the multiplicity;
- an exact series p / (1 - t)^(n + 1) has its form from p's Taylor
  coefficients at t = 1, one running sum each, by Vandermonde's identity
  (_samuel_fit): analyze's Hilbert-Samuel polynomial and poincare's branches.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, takewhile
from operator import eq, mul, sub
from typing import Iterable, NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction]


def falling_binom(m: int, i: int) -> int:
    """C(m, i) = m(m-1)...(m-i+1)/i! for any integer m and i >= 0, exactly:
    (-1)^i C(i - m - 1, i) for m < 0."""
    return math.comb(m, i) if m >= 0 else (-1) ** i * math.comb(i - m - 1, i)


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored ascending with no trailing zeros; the zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs", "_scaled")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self._scaled = None  # integer_coefficients(coeffs), once a kernel needs it

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Polynomial([0])"
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return Polynomial(out)
        return Polynomial([c * Fraction(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        out = Polynomial([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def evaluate(self, x: Scalar) -> Fraction:
        """The exact value at an int or Fraction x = p/q.

        With the coefficients scaled to ints c_k over one common denominator
        s (cached), int Horner gives sum_k c_k p^k q^(n-k), and the value is
        that over s q^n: one Fraction, built at the end.
        """
        if not self.coeffs:
            return Fraction(0)
        if self._scaled is None:
            self._scaled = integer_coefficients(self.coeffs)
        ints, scale = self._scaled
        p, q = x.numerator, x.denominator
        acc, qpow = 0, 1
        for c in reversed(ints):
            acc = acc * p + c * qpow
            qpow *= q
        return Fraction(acc, scale * qpow // q)

    # -- division ---------------------------------------------------------

    def __divmod__(self, other: "Polynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
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

    def divides(self, other: "Polynomial") -> bool:
        """True when self divides other exactly over Q."""
        if self.is_zero():
            return other.is_zero()
        _, r = divmod(other, self)
        return r.is_zero()

    @staticmethod
    def gcd(a: "Polynomial", b: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor over Q; zero when both are zero.

        Both inputs are scaled to integer coefficient lists, which clears
        their denominators; a primitive remainder sequence over Z
        (primitive_gcd: pseudo-remainder, then primitive part) gives their
        primitive gcd, which is made monic once, at the end.
        """
        g = primitive_gcd(integer_coefficients(a.coeffs)[0],
                          integer_coefficients(b.coeffs)[0])
        return Polynomial([Fraction(c, g[-1]) for c in g])

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial([1])


# ---------------------------------------------------------------------------
# integer coefficient-list kernels (ascending ints, no trailing zeros)


def integer_coefficients(coeffs: Sequence[Fraction]) -> tuple:
    """(ints, scale): exact coefficients times scale, the lcm of their
    denominators, as a list of ints."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (scale // c.denominator) for c in coeffs], scale


def _primitive_part(cs: list) -> list:
    """cs divided by its content, with a positive leading coefficient."""
    if not cs:
        return []
    content = math.gcd(*cs)
    if cs[-1] < 0:
        content = -content
    return [c // content for c in cs]


def _pseudo_remainder(u: list, v: list) -> list:
    """A nonzero integer multiple of the remainder of u by v (len(u) >= len(v)).

    Each step scales the running remainder by lead(v) / g and subtracts
    c / g times the shifted v, where c is its top coefficient and
    g = gcd(c, lead(v)); no step is skipped, so the result is u mod v up to
    a nonzero integer factor.
    """
    rem = list(u)
    n = len(v) - 1
    lead = v[-1]
    for top in range(len(rem) - 1, n - 1, -1):
        c = rem.pop()
        if c:
            g = math.gcd(c, lead)
            scale, c = lead // g, c // g
            if scale != 1:
                rem = [scale * x for x in rem]
            shift = top - n
            for j in range(n):
                rem[shift + j] -= c * v[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def primitive_gcd(u: list, v: list) -> list:
    """The primitive gcd, with positive leading coefficient, of two integer
    coefficient lists; [] when both are zero.

    Primitive remainder sequence: keep the longer list first, then replace
    (u, v) by (v, primitive part of the pseudo-remainder of u by v) until v
    is zero. By Gauss's lemma, the gcd over Z of primitive polynomials is the
    gcd over Q scaled to be primitive.
    """
    u, v = _primitive_part(u), _primitive_part(v)
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _primitive_part(_pseudo_remainder(u, v))
    return u


def int_divmod(u: list, v: list) -> tuple:
    """Quotient and remainder of integer coefficient lists, in int.

    Requires every step's division by v's leading coefficient to be exact:
    always when it is +-1, and when v is primitive and divides u (Gauss's
    lemma). An inexact step raises RuntimeError.
    """
    n = len(v) - 1
    lead = v[-1]
    terms = [(j, x) for j, x in enumerate(v[:n]) if x]  # cyclotomic v are often sparse
    rem = list(u)
    quo = [0] * max(len(u) - n, 0)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[i + n], lead)
        if r:
            raise RuntimeError("internal error: inexact integer polynomial division")
        quo[i] = c
        if c:  # rem[i + n] is not read again, so it is left as it is
            for j, x in terms:
                rem[i + j] -= c * x
    if quo:
        del rem[n:]
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


class BinomialForm:
    """Coefficients (a_0, ..., a_d) of f(n) = sum_i a_i * C(n, i).

    Integer-valued polynomials have all a_i integers; the coefficients are
    stored exactly as rationals with no trailing zeros.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def evaluate(self, n: int) -> Fraction:
        """The value sum_i a_i * C(n, i); exact for any integer n."""
        return sum((c * falling_binom(n, i) for i, c in enumerate(self.coeffs)),
                   Fraction(0))

    def difference(self) -> "BinomialForm":
        """The form of the finite difference Delta f: drops a_0, shifts the rest."""
        return BinomialForm(self.coeffs[1:])

    def __eq__(self, other) -> bool:
        if isinstance(other, BinomialForm):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(("BinomialForm", self.coeffs))

    def __repr__(self):
        return f"BinomialForm({[str(c) for c in self.coeffs]})"


def sequence_values(s, require_cumulative: bool = False) -> list:
    """The values of a DimensionSequence, or of any sequence of exact numbers,
    as a new list. With require_cumulative, a sequence whose meaning is
    "graded_piece" raises ValueError."""
    if require_cumulative and getattr(s, "meaning", None) == "graded_piece":
        raise ValueError("a cumulative dimension sequence is required")
    return list(getattr(s, "values", s))


class HilbertSamuelPolynomial(NamedTuple):
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
    `window` entries, which start at index `anchor`. The fit P is the
    polynomial with the column c_k = Delta^k f(anchor), k = 0..d; its form is
    (a_0, ..., a_d) with a_i = Delta^i P(0). Newton's forward formula with
    E^-anchor = (1 + Delta)^-anchor gives a_i = sum_j C(-anchor, j) c_(i+j),
    where C(-m, j) = (-1)^j C(m + j - 1, j); the form is checked by mapping it
    forward onto the whole column again. The samples agree with P from
    anchor on. Below it, Delta^d f(n) depends on f(n..n+d) alone, so
    stabilization_index is one past the last n < anchor where level d differs
    from its constant. Returns None when no level stabilizes within the data.
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
        if len(cur) >= window and cur[-window:].count(cur[-1]) == window:
            degree = len(levels) - 1
            break
        if len(cur) <= window:
            return None
        levels.append(list(map(sub, cur[1:], cur)))

    anchor = len(levels[degree]) - window
    column = [levels[i][anchor] for i in range(degree + 1)]
    # a_i = sum_j C(-anchor, j) Delta^(i+j) f(anchor): E^-anchor = (1 + Delta)^-anchor
    back = [1] + [(-1) ** j * math.comb(anchor + j - 1, j) for j in range(1, degree + 1)]
    tower = [sum(map(mul, back, column[i:])) for i in range(degree + 1)]
    # and forwards again, E^anchor = (1 + Delta)^anchor, onto the whole column
    ahead = [math.comb(anchor, j) for j in range(degree + 1)]
    if any(sum(map(mul, ahead, tower[k:])) != column[k] for k in range(degree + 1)):
        raise RuntimeError("internal error: reconstructed polynomial misses its anchor window")

    # f agrees with the fit from anchor on; below, Delta^d f(n) depends on
    # f(n..n+d) alone, so once f(n+1..n+d) agree it equals the constant
    # exactly when f(n) agrees too
    agreeing = takewhile(partial(eq, column[degree]), reversed(levels[degree][:anchor]))
    stabilization = anchor - len(list(agreeing))
    return HilbertSamuelPolynomial(BinomialForm(tower), stabilization)


def _taylor_at_one(coeffs: Sequence[int], count: int) -> list:
    """The Taylor coefficients c_j, j < count, of p = sum_j c_j (t - 1)^j,
    p's ascending int coefficients `coeffs`: each is the remainder of one
    synthetic division by t - 1, a running sum from the top."""
    rest, out = coeffs[::-1], []
    for _ in range(count):
        *rest, remainder = accumulate(rest or [0])
        out.append(remainder)
    return out


def _samuel_fit(coefficients: Sequence[int], degree: int) -> tuple:
    """(form, least index) of the Hilbert-Samuel polynomial of the cumulative
    counts of the series p / (1 - t)^(n + 1), the form an int list, from the
    Taylor coefficients c_0..c_n of p at t = 1 and the degree of p (-1 for 0).

    p = sum_j (-1)^j c_j (1 - t)^j, and for j <= n the coefficients of
    (1 - t)^(j - n - 1) are C(m + n - j, n - j) = sum_i C(n - j, i) C(m, i)
    (Vandermonde), so the form is a_i = sum_(j >= r) (-1)^j c_j C(n - j, i)
    for i = 0..n - r, r the first index with c_r != 0 (the zero form when
    they all vanish). The sum runs over the nonzero c_j only, each walking
    its row C(n - j, i) by C(k, i + 1) = C(k, i) (k - i) / (i + 1): at most
    (deg p + 1)(n + 1) integer steps, where binomials of every c_j would
    cost (n + 1)^2 / 2 of them. The counts exceed the form by the
    coefficients of the quotient of p by (1 - t)^(n + 1), a polynomial of
    degree deg p - n - 1 whose top coefficient is +-lead(p), never 0: they
    agree from deg p - n on and differ just below, so that is the least
    index.
    """
    n, form = len(coefficients) - 1, [0] * len(coefficients)
    for j, c in enumerate(coefficients):
        if c:
            term, k = -c if j % 2 else c, n - j
            for i in range(k + 1):
                form[i] += term
                term = term * (k - i) // (i + 1)
    while form and not form[-1]:  # a_(n - r) = +-c_r is the top
        form.pop()
    return form, max(0, degree - n)


def finite_difference(values: Sequence[Scalar]) -> list:
    """First difference of a sample sequence: [f(1)-f(0), f(2)-f(1), ...].

    Requires at least two samples.
    """
    if len(values) < 2:
        raise ValueError("finite_difference needs at least two samples")
    return [values[i + 1] - values[i] for i in range(len(values) - 1)]


@lru_cache(maxsize=None)
def _stirling_rows(d: int) -> tuple:
    """Rows 0..d of the Stirling numbers, as (first, second) tuples of int tuples.

    first[i][k] = s(i, k), signed, of the first kind:
    n(n-1)...(n-i+1) = sum_k s(i, k) n^k; second[k][i] = S(k, i), of the
    second kind: n^k = sum_i S(k, i) n(n-1)...(n-i+1).
    """
    first, second = [(1,)], [(1,)]
    for m in range(1, d + 1):
        row = [0] * (m + 1)
        for k, c in enumerate(first[-1]):  # times (n - (m - 1))
            row[k + 1] += c
            row[k] -= (m - 1) * c
        first.append(tuple(row))
        prev = second[-1] + (0,)
        second.append((0,) + tuple(i * prev[i] + prev[i - 1] for i in range(1, m + 1)))
    return tuple(first), tuple(second)


def to_binomial_basis(p: Polynomial) -> BinomialForm:
    """Coefficients a_i with p(n) = sum a_i * C(n, i); exact and a bijection.

    With p = sum_k c_k n^k and n^k = sum_i S(k, i) i! C(n, i), the
    coefficient a_i is i! sum_k c_k S(k, i): integer sums over the common
    denominator of the c_k, one Fraction per coefficient.
    """
    d = p.degree
    if d < 0:
        return BinomialForm()
    cs, scale = integer_coefficients(p.coeffs)
    _, second = _stirling_rows(d)
    coeffs, fact = [], 1
    for i in range(d + 1):
        fact *= i or 1
        coeffs.append(Fraction(fact * sum(cs[k] * second[k][i] for k in range(i, d + 1)),
                               scale))
    return BinomialForm(coeffs)


def from_binomial_basis(b: BinomialForm) -> Polynomial:
    """Expand sum a_i * C(n, i) into a dense polynomial in n (exact inverse).

    C(n, i) = sum_k s(i, k) n^k / i!, so the n^k coefficient is
    sum_i a_i s(i, k) (d! / i!) over the common denominator (lcm of the a_i's
    denominators) * d!: integer sums, one Fraction per coefficient.
    """
    d = b.degree
    if d < 0:
        return Polynomial()
    cs, scale = integer_coefficients(b.coeffs)
    first, _ = _stirling_rows(d)
    weights = [1] * (d + 1)  # d! / i!
    for i in range(d - 1, -1, -1):
        weights[i] = weights[i + 1] * (i + 1)
    return Polynomial(
        Fraction(sum(cs[i] * weights[i] * first[i][k] for i in range(k, d + 1)),
                 scale * weights[0])
        for k in range(d + 1))
