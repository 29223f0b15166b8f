"""Exact rational arithmetic, dense univariate polynomials over Q, and the
binomial-coefficient basis C(n,0), C(n,1), ... used for integer-valued
polynomials.

Everything in this module is exact: values are Python ints and
fractions.Fraction, never floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

#: Exact rational number with normalized sign and lowest terms.
Rational = Fraction

Scalar = Union[int, Fraction]


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for naturals; 0 when k > n."""
    return math.comb(n, k)


def falling_binom(m: int, i: int) -> int:
    """C(m, i) = m(m-1)...(m-i+1)/i! for any integer m (exact, possibly negative m)."""
    if m >= 0:
        return math.comb(m, i)
    num = 1
    for j in range(i):
        num *= m - j
    return num // math.factorial(i)


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored ascending with no trailing zeros; the zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

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

    def is_integer(self) -> bool:
        """True when every coefficient is an integer."""
        return all(c.denominator == 1 for c in self.coeffs)

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
        """Evaluate by Horner's rule; exact for int/Fraction arguments."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_affine(self, a: Scalar, b: Scalar) -> "Polynomial":
        """The polynomial p(a*x + b)."""
        arg = Polynomial([b, a])
        acc = Polynomial()
        for c in reversed(self.coeffs):
            acc = acc * arg + Polynomial([c])
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

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

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self * (1 / self.leading_coefficient())

    @staticmethod
    def gcd(a: "Polynomial", b: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor over Q (Euclidean algorithm)."""
        while not b.is_zero():
            _, r = divmod(a, b)
            a, b = b, r
        return a.monic()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial([1])


class BinomialForm:
    """Coefficients (a_0, ..., a_d) of f(n) = sum_i a_i * C(n, i).

    Integer-valued polynomials have all a_i integers; the coefficients are
    stored exactly as rationals with no trailing zeros.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
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


def finite_difference(values: Sequence[Scalar]) -> list:
    """First difference of a sample sequence: [f(1)-f(0), f(2)-f(1), ...].

    Requires at least two samples.
    """
    if len(values) < 2:
        raise ValueError("finite_difference needs at least two samples")
    return [values[i + 1] - values[i] for i in range(len(values) - 1)]


def to_binomial_basis(p: Polynomial) -> BinomialForm:
    """Coefficients a_i with p(n) = sum a_i * C(n, i), via differences at 0.

    a_i is the i-th finite difference of p evaluated at 0 (Newton forward
    differences); the conversion is exact and a bijection on polynomials.
    """
    d = p.degree
    if d < 0:
        return BinomialForm()
    row = [p.evaluate(n) for n in range(d + 1)]
    coeffs = [row[0]]
    for _ in range(d):
        row = finite_difference(row)
        coeffs.append(row[0])
    return BinomialForm(coeffs)


def from_binomial_basis(b: BinomialForm) -> Polynomial:
    """Expand sum a_i * C(n, i) into a dense polynomial in n (exact inverse)."""
    total = Polynomial()
    # C(n, i) as a polynomial: prod_{j<i} (n - j) / i!
    cpoly = Polynomial([1])
    for i, a in enumerate(b.coeffs):
        if i > 0:
            cpoly = cpoly * Polynomial([-(i - 1), 1]) * Fraction(1, i)
        if a:
            total = total + a * cpoly
    return total
