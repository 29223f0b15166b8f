"""Exact linear recurrences and rational generating series.

A dimension sequence has a rational generating function p(t)/q(t) with
q(0) = 1 exactly when its tail satisfies a linear recurrence with constant
coefficients. The minimal recurrence is found by exact linear algebra over Q
(no floating point), the denominator's root locations are settled by trial
division with cyclotomic polynomials — an integer polynomial with constant
term 1 and no cyclotomic part must have a root strictly inside the unit disk
(Kronecker) — and pure denominators (1 - t^s)^d yield quasi-polynomial
coefficient branches, one per residue class mod s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .exactnum import Polynomial, from_binomial_basis, sequence_values


@dataclass(frozen=True)
class RationalSeries:
    """A generating function numerator/denominator with denominator(0) = 1.

    The pair is stored as given (a structured denominator like
    prod(1 - t^w_i) is preserved); call reduced() for the coprime form.
    """

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self):
        if self.denominator.constant_term() != 1:
            raise ValueError("series denominator must have constant term 1")

    def expand(self, count: int) -> list:
        """First `count` power-series coefficients, exactly."""
        p, q = self.numerator.coeffs, self.denominator.coeffs
        out = []
        for n in range(count):
            acc = Fraction(p[n]) if n < len(p) else Fraction(0)
            for k in range(1, min(n, len(q) - 1) + 1):
                acc -= q[k] * out[n - k]
            out.append(acc)
        return [int(v) if v.denominator == 1 else v for v in out]

    def reduced(self) -> "RationalSeries":
        """The equivalent series with coprime numerator and denominator."""
        g = Polynomial.gcd(self.numerator, self.denominator)
        if g.degree < 1:
            return self
        p, _ = divmod(self.numerator, g)
        q, _ = divmod(self.denominator, g)
        scale = 1 / q.constant_term()
        return RationalSeries(p * scale, q * scale)


@dataclass(frozen=True)
class Recurrence:
    """f(n + order) = sum_i coefficients[i-1] * f(n + order - i), for n >= onset."""

    order: int
    coefficients: tuple  # tuple[Fraction, ...]
    onset: int

    def holds_at(self, vals: Sequence, n: int) -> bool:
        r = self.order
        return vals[n + r] == sum(c * vals[n + r - 1 - i]
                                  for i, c in enumerate(self.coefficients))


def _solve_exact(rows: list, rhs: list) -> Optional[list]:
    """One exact solution of a (possibly overdetermined) rational system, or
    None when inconsistent; free variables are set to zero."""
    if not rows:
        return None
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
    for i in range(r, len(aug)):
        if aug[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][ncols]
    return sol


def minimal_recurrence(s, confirm: int = 8) -> Optional[Recurrence]:
    """Least-order exact linear recurrence satisfied by the sequence tail.

    For each order r the coefficients are solved exactly from the final
    r + confirm recurrence equations; a consistent solution is then scanned
    backwards for its onset. Orders up to (length - confirm) // 2 are tried;
    None means no recurrence of admissible order fits the tail.
    """
    vals = sequence_values(s)
    length = len(vals)
    max_order = (length - confirm) // 2
    if confirm < 1 or max_order < 1:
        raise ValueError("need at least 2 + confirm samples")
    for r in range(1, max_order + 1):
        first_eq = length - 2 * r - confirm
        rows = [[vals[n + r - 1 - i] for i in range(r)]
                for n in range(first_eq, length - r)]
        rhs = [vals[n + r] for n in range(first_eq, length - r)]
        coeffs = _solve_exact(rows, rhs)
        if coeffs is None:
            continue
        rec = Recurrence(r, tuple(coeffs), first_eq)
        onset = first_eq
        while onset > 0 and rec.holds_at(vals, onset - 1):
            onset -= 1
        return Recurrence(r, tuple(coeffs), onset)
    return None


def series_from_recurrence(s, rec: Recurrence) -> RationalSeries:
    """The reduced rational series whose expansion reproduces every sample.

    The denominator is 1 - a_1 t - ... - a_r t^r; the numerator is the
    convolution of the samples with it, truncated at the onset correction
    degree onset + r - 1. The expansion is re-verified exactly.
    """
    vals = sequence_values(s)
    r = rec.order
    q = Polynomial([1] + [-c for c in rec.coefficients])
    top = rec.onset + r
    p = Polynomial([
        sum(q.coeffs[j] * vals[k - j] for j in range(min(k, r) + 1) if j < len(q.coeffs))
        for k in range(min(top, len(vals)))
    ])
    series = RationalSeries(p, q).reduced()
    if series.expand(len(vals)) != [Fraction(v) for v in vals]:
        raise RuntimeError("internal error: series expansion disagrees with the samples")
    return series


# ---------------------------------------------------------------------------
# denominator root analysis


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


def _divisors(n: int) -> set:
    return {d for d in range(1, n + 1) if n % d == 0}


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


@dataclass
class DenominatorAnalysis:
    """Root-location report for a series denominator q with q(0) = 1.

    radius_class: "inside_unit_disk" (some root strictly inside, so the
    coefficients grow exponentially), "all_roots_on_unit_circle", or "mixed"
    (not certified / roots both on and off the circle). For the pure form
    q = (1 - t^s)^d the pair (s, d) is reported; otherwise s = d = None.
    cyclotomic_multiplicities maps each cyclotomic order to its multiplicity
    in q, residual is the non-cyclotomic factor, and linear_factors lists
    split-off rational-root factors (1 - c t) of the residual.
    """

    radius_class: str
    s: Optional[int] = None
    d: Optional[int] = None
    cyclotomic_multiplicities: dict = field(default_factory=dict)
    residual: Polynomial = field(default_factory=Polynomial.one)
    linear_factors: tuple = ()
    notes: tuple = ()


def denominator_analysis(q: Polynomial) -> DenominatorAnalysis:
    """Classify the roots of q exactly.

    Cyclotomic factors are stripped by trial division up to order
    2 deg(q)^2 + 16 (complete: any cyclotomic factor of a degree-D polynomial
    has order at most 2 D^2 + 16 since phi(k) >= sqrt(k/2)). If nothing is
    left, all roots lie on the unit circle and the pure (1 - t^s)^d shape is
    recognized from the multiplicities. An integer residual with constant
    term 1 certifies a root strictly inside the unit disk (Kronecker's
    theorem); for non-integer rational residuals a Sturm-chain count of real
    roots in (0, 1) is the certified fallback, and failing that the class is
    reported as "mixed" with a caveat.
    """
    if q.constant_term() != 1:
        raise ValueError("denominator must have constant term 1")
    if q.degree <= 0:
        return DenominatorAnalysis("all_roots_on_unit_circle", s=1, d=0)
    bound = 2 * q.degree ** 2 + 16
    mults: dict = {}
    rem = q
    for k in range(1, bound + 1):
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

    if rem.degree == 0:
        s = max(mults) if mults else 1
        d = mults.get(s, 0)
        if mults and set(mults) == _divisors(s) and all(m == d for m in mults.values()):
            return DenominatorAnalysis("all_roots_on_unit_circle", s=s, d=d,
                                       cyclotomic_multiplicities=mults)
        return DenominatorAnalysis(
            "all_roots_on_unit_circle", cyclotomic_multiplicities=mults,
            notes=("cyclotomic orders do not form a pure (1-t^s)^d pattern",))

    linear, residual = _split_rational_roots(rem)
    if rem.is_integer():
        return DenominatorAnalysis(
            "inside_unit_disk", cyclotomic_multiplicities=mults, residual=residual,
            linear_factors=linear,
            notes=("integer non-cyclotomic factor certifies a root inside the unit disk",))
    if any(abs(c) < 1 for _, c in _linear_roots(linear)):
        return DenominatorAnalysis(
            "inside_unit_disk", cyclotomic_multiplicities=mults, residual=residual,
            linear_factors=linear,
            notes=("rational root of modulus < 1",))
    scaled = _clear_denominators(rem)
    if abs(scaled.constant_term()) < abs(scaled.leading_coefficient()):
        return DenominatorAnalysis(
            "inside_unit_disk", cyclotomic_multiplicities=mults, residual=residual,
            linear_factors=linear,
            notes=("product of root moduli below 1 certifies a root inside the unit disk",))
    if _sturm_roots_in_unit_interval(rem) > 0:
        return DenominatorAnalysis(
            "inside_unit_disk", cyclotomic_multiplicities=mults, residual=residual,
            linear_factors=linear,
            notes=("real root in (0, 1) certified by a Sturm chain",))
    return DenominatorAnalysis(
        "mixed", cyclotomic_multiplicities=mults, residual=residual, linear_factors=linear,
        notes=("root locations of the non-cyclotomic factor not certified",))


def _linear_roots(linear_factors):
    """(factor 1 - c t, root 1/c) pairs as (factor index, root) with rational roots."""
    out = []
    for f in linear_factors:
        c = -f.coeffs[1]  # factor is 1 - c t, root at 1/c
        out.append((f, Fraction(1, 1) / c))
    return out


def _split_rational_roots(p: Polynomial):
    """Split off factors (1 - c t) for each rational root 1/c of p.

    Returns (tuple of linear factors, remaining polynomial). Candidate roots
    come from the rational-root theorem on the integer-scaled polynomial.
    """
    linear = []
    rest = p
    scaled = _clear_denominators(rest)
    num0 = int(scaled.constant_term())
    lead = int(scaled.leading_coefficient())
    candidates = set()
    for a in _int_divisors(num0):
        for b in _int_divisors(lead):
            candidates.add(Fraction(a, b))
            candidates.add(Fraction(-a, b))
    for root in sorted(candidates):
        if root == 0:
            continue
        while rest.degree >= 1 and rest.evaluate(root) == 0:
            factor = Polynomial([1, -1 / root])  # 1 - t/root, constant term 1
            quo, r = divmod(rest, factor)
            if not r.is_zero():
                raise RuntimeError("internal error: root division left a remainder")
            rest = quo
            linear.append(factor)
    return tuple(linear), rest


def _int_divisors(n: int) -> list:
    n = abs(n)
    if n == 0:
        return [1]
    return [d for d in range(1, n + 1) if n % d == 0]


def _clear_denominators(p: Polynomial) -> Polynomial:
    mult = math.lcm(*(c.denominator for c in p.coeffs)) if p.coeffs else 1
    return p * mult


def _sturm_roots_in_unit_interval(p: Polynomial) -> int:
    """Exact count of distinct real roots of p in the open interval (0, 1)."""
    base = p
    g = Polynomial.gcd(base, base.derivative())
    if g.degree >= 1:
        base, _ = divmod(base, g)
    chain = [base, base.derivative()]
    while chain[-1].degree >= 1:
        _, r = divmod(chain[-2], chain[-1])
        if r.is_zero():
            break
        chain.append(-r)

    def sign_changes(x):
        signs = [f.evaluate(x) for f in chain]
        signs = [v for v in signs if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if (a < 0) != (b < 0))

    return sign_changes(Fraction(0)) - sign_changes(Fraction(1))


# ---------------------------------------------------------------------------
# quasi-polynomial extraction


@dataclass(frozen=True)
class QuasiPolynomial:
    """Periodic polynomial branches: f(n) = branches[n % period](n) for n >= onset."""

    period: int
    branches: tuple  # tuple[Polynomial, ...]
    onset: int


def fit_quasi_polynomial(s, period: int, window: int = 4) -> Optional[QuasiPolynomial]:
    """Fit one exact polynomial branch per residue class mod `period`.

    The window adapts to the number of samples available in each class; None
    is returned when any branch fails to stabilize. Every sample at or beyond
    the reported onset is re-verified against its branch.
    """
    from .samuel import detect_polynomial  # shared exact fitting

    vals = sequence_values(s)
    if period < 1:
        raise ValueError("period must be positive")
    min_len = min(len(vals[i::period]) for i in range(period))
    eff_window = max(2, min(window, (min_len - 4) // 2))
    if min_len < 2 * eff_window + 4:
        return None
    branches = []
    onset = 0
    for i in range(period):
        sub = vals[i::period]
        fit = detect_polynomial(sub, eff_window)
        if fit is None:
            return None
        poly_k = from_binomial_basis(fit.form)
        branches.append(poly_k.compose_affine(Fraction(1, period), Fraction(-i, period)))
        # a branch valid on its whole residue class constrains nothing below it
        if fit.stabilization_index > 0:
            onset = max(onset, i + period * fit.stabilization_index)
    for n in range(onset, len(vals)):
        if branches[n % period].evaluate(n) != vals[n]:
            raise RuntimeError("internal error: quasi-polynomial branch misses a sample")
    return QuasiPolynomial(period, tuple(branches), onset)


def quasi_polynomial(series: RationalSeries, samples, window: int = 4) -> QuasiPolynomial:
    """Quasi-polynomial coefficient branches of a pure-denominator series.

    Requires denominator_analysis to report the pure form (1 - t^s)^d; the
    branch polynomials then have degree at most d - 1, which is asserted.
    """
    analysis = denominator_analysis(series.reduced().denominator)
    if analysis.s is None:
        raise ValueError("denominator is not of the pure (1 - t^s)^d form")
    vals = sequence_values(samples)
    min_len = min(len(vals[i::analysis.s]) for i in range(analysis.s))
    if min_len < 8:
        raise ValueError("too few samples in a residue class for branch fitting")
    qp = fit_quasi_polynomial(vals, analysis.s, window)
    if qp is None:
        raise ValueError("samples do not stabilize to quasi-polynomial branches")
    top = max((b.degree for b in qp.branches), default=-1)
    if top > analysis.d - 1:
        raise RuntimeError("internal error: branch degree exceeds d - 1")
    return qp
