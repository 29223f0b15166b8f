"""Exact linear recurrences and rational generating series.

A dimension sequence has a rational generating function p(t)/q(t) with
q(0) = 1 exactly when its tail satisfies a linear recurrence with constant
coefficients. A recurrence of order r must hold on the last 2r + confirm
samples, which, read backwards, a shift register of length r generates: one
exact Berlekamp-Massey run over them settles every order r >= 2 at once
(order 1 is solved directly, minimal_recurrence). An exact series, such as a
presentation's (Hilbert-Serre), needs no search: its reduced denominator is
the recurrence. No floating point is used anywhere. A series with integer
coefficients has an integral reduced denominator with constant term 1
(Fatou), so only integral denominators get a root analysis. Trial division
with cyclotomic polynomials settles their roots (Kronecker: an integer
polynomial with constant term 1 and no cyclotomic part has a root strictly
inside the unit disk), and a denominator of cyclotomic factors gives
quasi-polynomial branches, one per residue class mod the lcm P of their orders.

The chain recurrence, series, denominator, period, branches has two heads
and one branch reader. rational_analysis searches the samples, builds the
series (coprime with no gcd: the recurrence found is minimal) and walks
every cyclotomic order of its denominator. A presentation's series p /
prod(1 - t^w) (Hilbert-Serre) is reduced by the Phi_d its denominator is
known to have (_reduce), and _reduced_analysis reads the recurrence and root
report off it. Either series' branches, p / q = c / (1 - t^P)^M, are read
off it through exactnum's Taylor and Vandermonde kernels (_branch_forms) and
checked (_held_branches) by _read_branches, where the rules on their work
and on the coefficients held admit them (_branch_refusal), before anything
is expanded. Every stage runs on int lists and builds one Fraction per
output coefficient: the samples are scaled to ints, the series numerator is
an int convolution, trial division uses cached int Phi_k, and each branch
is built in int from its binomial form (_branch_ints).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, combinations, islice
from operator import mul
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .exactnum import (Polynomial, _samuel_fit, _taylor_at_one, detect_polynomial,
                       int_divmod, integer_coefficients, primitive_gcd, sequence_values)


class _SeriesFields(NamedTuple):
    numerator: Polynomial
    denominator: Polynomial


class RationalSeries(_SeriesFields):
    """A generating function numerator/denominator with denominator(0) = 1.

    The pair is stored as given (a structured denominator like
    prod(1 - t^w_i) is preserved); call reduced() for the coprime form.
    """

    __slots__ = ()

    def __new__(cls, numerator: Polynomial, denominator: Polynomial):
        if denominator.constant_term() != 1:
            raise ValueError("series denominator must have constant term 1")
        return super().__new__(cls, numerator, denominator)

    # _replace builds through _make; route it through the check above
    _make = classmethod(lambda cls, fields: cls(*fields))

    def expand(self, count: int) -> list:
        """First `count` power-series coefficients, exactly: int where
        integral, Fraction otherwise. An integral numerator and denominator
        (every Hilbert series) are expanded in int (_expansion)."""
        p, q = self.numerator.coeffs, self.denominator.coeffs
        if all(c.denominator == 1 for c in p + q):
            return _expansion([int(c) for c in p], [int(c) for c in q], count)
        return [int(v) if v.denominator == 1 else v for v in _expansion(p, q, count)]

    def reduced(self) -> "RationalSeries":
        """The equivalent series with coprime numerator and denominator.

        p and q are scaled by one common denominator, which keeps p/q, and
        divided in int by their primitive gcd g, exactly, since g is
        primitive and divides both over Q (Gauss's lemma). The pair is
        normalised to q(0) = 1 once, at the end; the result is the unique
        coprime form with that normalisation, and an already coprime series
        is returned as it is.
        """
        cut = len(self.numerator.coeffs)
        ints, _ = integer_coefficients(self.numerator.coeffs + self.denominator.coeffs)
        g = primitive_gcd(ints[:cut], ints[cut:])
        if len(g) < 2:
            return self
        (p, p_rem), (q, q_rem) = int_divmod(ints[:cut], g), int_divmod(ints[cut:], g)
        if p_rem or q_rem:
            raise RuntimeError("internal error: the gcd leaves a remainder")
        return _normalised_series(p, q)


def _expansion(p: Sequence, q: Sequence, count: int) -> list:
    """The first `count` power-series coefficients of p/q, q[0] = 1, in their
    own arithmetic: each steps over q's nonzero terms, not over its degree."""
    terms = [(k, c) for k, c in enumerate(q) if k and c]
    out = []
    for n in range(count):
        acc = p[n] if n < len(p) else 0
        for k, c in terms:
            if k > n:
                break
            acc -= c * out[n - k]
        out.append(acc)
    return out


def _normalised_series(p: list, q: list) -> RationalSeries:
    """The series p/q of integer coefficient lists, scaled to q(0) = 1: one
    Fraction per coefficient."""
    return RationalSeries(Polynomial([Fraction(c, q[0]) for c in p]),
                          Polynomial([Fraction(c, q[0]) for c in q]))


class Recurrence(NamedTuple):
    """f(n + order) = sum_i coefficients[i-1] * f(n + order - i), for n >= onset."""

    order: int
    coefficients: tuple  # tuple[Fraction, ...]
    onset: int


def _shift_registers(seq):
    """Yield (L(N), C) after each of the first N = 1, 2, ... integer samples.

    Berlekamp-Massey over Q, exact and online (J. L. Massey, "Shift-register
    synthesis and BCH decoding", 1969): L(N) is the length of the shortest
    linear shift register that generates seq[:N], and C its connection
    polynomial: sum_i C[i] * seq[m - i] = 0 for L(N) <= m < N, with
    C[0] != 0 and C[i] = 0 for every i >= len(C). The samples come scaled
    to integers, and C is kept as integers with unit content, which avoids a
    gcd per Fraction operation.
    """
    conn, prev = [1], [1]
    length, gap, prev_disc = 0, 1, 1
    for n in range(len(seq)):
        disc = sum(map(mul, conn[:length + 1], seq[n::-1]))
        if disc == 0:
            gap += 1
        else:
            update = [prev_disc * c for c in conn] + [0] * (len(prev) + gap - len(conn))
            for i, c in enumerate(prev):
                update[i + gap] -= disc * c
            content = math.gcd(*update)
            if content != 1:
                update = [c // content for c in update]
            if 2 * length <= n:
                prev, prev_disc = conn, disc
                length, gap = n + 1 - length, 1
            else:
                gap += 1
            conn = update
        yield length, conn


def _integer_samples(vals: Sequence) -> tuple:
    """(ints, scale): the exact samples times scale, the lcm of their
    denominators, as a list of ints; int samples are read as they are."""
    return integer_coefficients([v if isinstance(v, int) else Fraction(v) for v in vals])


def minimal_recurrence(s, confirm: int = 8) -> Optional[Recurrence]:
    """Least-order exact linear recurrence satisfied by the sequence tail.

    Order r must hold on the final r + confirm recurrence equations, which use
    the last 2r + confirm samples; the recurrence found is then scanned
    backwards for its onset. Orders up to (length - confirm) // 2 are tried;
    None means no recurrence of admissible order fits the tail.

    Order 1 is solved directly. For r >= 2, Berlekamp-Massey runs once, and
    lazily, over the samples read backwards: after N of them it holds their
    linear complexity L = L(N) and a shortest shift register C. With
    N = 2r + confirm and no lower order fitting, order r fits exactly when
    L = r and C[r] != 0, and a_i = -C[r - i] / C[r] is then its only solution:
    - a solution with a_r = 0 is an order r - 1 recurrence on a longer tail,
      found first; one with a_r != 0 is, read backwards, a register of
      length r, and N >= 2r samples leave one register of length L = r;
    - a register of length r > L has C[L] as a factor of its last
      coefficient (its characteristic polynomial is a multiple of C's), and
      C[L] != 0 makes C itself an order L recurrence, found first.
    Order 1 is the exception: a zero tail has the solution a_1 = 0, which no
    backward register of length 1 matches.
    """
    vals = sequence_values(s)
    length = len(vals)
    max_order = (length - confirm) // 2
    if confirm < 1 or max_order < 1:
        raise ValueError("need at least 2 + confirm samples")
    ints, _ = _integer_samples(vals)
    start = length - 2 - confirm
    tail = ints[start:]
    pivot = next((i for i, v in enumerate(tail[:-1]) if v != 0), None)
    ratio = Fraction(0) if pivot is None else Fraction(tail[pivot + 1], tail[pivot])
    num, den = ratio.numerator, ratio.denominator
    if all(den * b == num * a for a, b in zip(tail, tail[1:])):
        order, coefficients, row = 1, (ratio,), [-num, den]
    else:
        registers = islice(_shift_registers(ints[::-1]), 2 * max_order + confirm)
        for n, (complexity, conn) in enumerate(registers, 1):
            r, odd = divmod(n - confirm, 2)
            if not odd and r >= 2 and complexity == r and len(conn) > r and conn[r] != 0:
                order, row, start = r, conn[:r + 1], length - n
                coefficients = tuple(Fraction(-c, conn[r]) for c in conn[r - 1::-1])
                break
        else:
            return None
    # the characteristic row: sum_j row[j] f(n + j) = 0 exactly where the
    # recurrence holds at n, checked on the integer samples
    onset = start
    while onset > 0 and sum(map(mul, row, ints[onset - 1:onset + order])) == 0:
        onset -= 1
    return Recurrence(order, coefficients, onset)


def series_from_recurrence(s, rec: Recurrence) -> RationalSeries:
    """The reduced rational series whose expansion reproduces every sample.

    The denominator is q = 1 - a_1 t - ... - a_r t^r; the numerator is the
    convolution of the samples with it, truncated at the onset correction
    degree onset + r - 1. Both are built as integer coefficient lists: q
    scaled by the a_i's common denominator, the samples by theirs, which the
    denominator takes on as well, and the expansion is re-verified exactly.
    For minimal_recurrence's rec they are coprime with no gcd taken: a common
    factor g would give a recurrence of order r - deg g from an onset no
    later, which the search finds first (another rec may need reduced()).
    """
    vals = sequence_values(s)
    ints, sample_scale = _integer_samples(vals)
    coeff_ints, coeff_scale = integer_coefficients(rec.coefficients)
    q = [coeff_scale] + [-c for c in coeff_ints]
    while q[-1] == 0:
        q.pop()
    width = len(q)  # p_k = sum_j q_j f(k - j), over the last `width` samples up to k
    p = [sum(map(mul, q, ints[k:k - width if k >= width else None:-1]))
         for k in range(min(rec.onset + rec.order, len(ints)))]
    while p and p[-1] == 0:
        p.pop()
    series = _normalised_series(p, [sample_scale * c for c in q])
    if series.expand(len(vals)) != vals:
        raise RuntimeError("internal error: series expansion disagrees with the samples")
    return series


# ---------------------------------------------------------------------------
# denominator root analysis


def _divisors(n: int) -> list:
    """The positive divisors of |n| in increasing order; [1] for n = 0.

    Each pair (d, |n| // d) is found from its smaller member d <= isqrt(|n|).
    """
    n = abs(n)
    if n == 0:
        return [1]
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


@lru_cache(maxsize=None)
def _cyclotomic_orders(n: int) -> tuple:
    """(k, phi(k), primes of k) for exactly the k with phi(k) <= n, in
    ascending order of k.

    The walk extends k by a power p^a of a prime p above k's largest prime,
    with phi(k p^a) = phi(k) (p - 1) p^(a - 1); every p - 1 <= n is a
    candidate, and the primes are tried in ascending order, so a branch ends
    at the first p with phi(k) (p - 1) > n. There are about 2n such k.
    """
    primes = [p for p in range(2, n + 2) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    found = []

    def walk(k, phi, ps, start):
        found.append((k, phi, ps))
        for i, p in enumerate(primes[start:], start):
            f, pa = phi * (p - 1), p
            if f > n:
                break
            while f <= n:
                walk(k * pa, f, ps + (p,), i + 1)
                f, pa = f * p, pa * p

    if n >= 1:
        walk(1, 1, (), 0)
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def _cyclotomic_ints(k: int, phi: int, primes: tuple) -> tuple:
    """Phi_k scaled to constant term 1 (1 - t for k = 1), as ascending ints.

    Phi_k is prod_{e | rad k} (1 - t^(k/e))^mu(e), a polynomial of degree
    phi(k), so the product is computed as a power series cut after that
    degree: multiplying by 1 - t^d is one top-down pass c[i] -= c[i - d],
    dividing by it one bottom-up running sum c[i] += c[i - d].
    """
    c = [1] + [0] * phi
    for r in range(len(primes) + 1):
        for e in combinations(primes, r):
            d = k // math.prod(e)
            if r % 2:
                for i in range(d, phi + 1):
                    c[i] += c[i - d]
            else:
                for i in range(phi, d - 1, -1):
                    c[i] -= c[i - d]
    return tuple(c)


def _weights_denominator(weights: Sequence[int]) -> list:
    """prod(1 - t^w) over the weights, as an int coefficient list."""
    q = [1]
    for w in set(weights):  # times one binomial row (1 - t^w)^k
        k = weights.count(w)
        out, c = q + [0] * (k * w), 1
        for j in range(1, k + 1):  # c = (-1)^j C(k, j) = -C(k, j - 1) (k - j + 1) / j
            c = -c * (k - j + 1) // j
            for i, x in enumerate(q, j * w):
                out[i] += c * x
        q = out
    return q


@lru_cache(maxsize=None)
def _cyclotomic(k: int) -> tuple:
    """_cyclotomic_ints for the order k alone."""
    primes = tuple(d for d in _divisors(k)[1:]
                   if all(d % e for e in range(2, math.isqrt(d) + 1)))
    return _cyclotomic_ints(k, k * math.prod(d - 1 for d in primes) // math.prod(primes),
                            primes)


def _strip_cyclotomic(q: Polynomial) -> tuple:
    """(multiplicities, residual) for q with q(0) = 1: the orders k of q's
    cyclotomic factors, ascending, with their multiplicities, and what is
    left of q as a primitive int list with a positive constant term.

    Trial division walks the orders with phi(k) <= deg q on q scaled to ints,
    skips any Phi_k above the residual's degree and stops at a constant
    residual. Each Phi_k has leading coefficient +-1, so int_divmod is exact.
    q(0) = 1 makes the scaled q primitive with a positive constant term, and
    Gauss's lemma and Phi_k(0) = 1 keep both through every division.
    """
    rem, _ = integer_coefficients(q.coeffs)
    mults: dict = {}
    for k, phi, primes in _cyclotomic_orders(q.degree):
        if len(rem) == 1:
            break
        if phi >= len(rem):
            continue
        cyc = _cyclotomic_ints(k, phi, primes)
        quo, r = int_divmod(rem, cyc)
        while not r:
            rem, mults[k] = quo, mults.get(k, 0) + 1
            quo, r = int_divmod(rem, cyc)
    return mults, rem


class DenominatorAnalysis(NamedTuple):
    """Root-location report for an integral series denominator q with
    q(0) = 1.

    radius_class is one of two: "all_roots_on_unit_circle" (q is a product
    of cyclotomic factors) or "inside_unit_disk" (some root strictly inside,
    so the coefficients grow exponentially; Kronecker's theorem). For the
    pure form q = (1 - t^s)^d the pair (s, d) is reported; otherwise
    s = d = None.
    cyclotomic_multiplicities maps each cyclotomic order to its multiplicity
    in q, residual is the non-cyclotomic factor, and linear_factors lists
    split-off rational-root factors (1 - c t) of the residual.
    """

    radius_class: str
    s: Optional[int] = None
    d: Optional[int] = None
    cyclotomic_multiplicities: Mapping = MappingProxyType({})
    residual: Polynomial = Polynomial.one()
    linear_factors: tuple = ()
    notes: tuple = ()

    def __reduce__(self):
        # the read-only default map cannot be pickled; copies carry a dict
        return DenominatorAnalysis, (*self[:3], dict(self[3]), *self[4:])


def denominator_analysis(q: Polynomial) -> DenominatorAnalysis:
    """Classify the roots of an integral q with q(0) = 1 exactly.

    q must lie in Z[t], as every dimension series' reduced denominator does
    (P. Fatou, Acta Math. 30, 1906); any other q raises ValueError, as does
    q(0) != 1.

    Cyclotomic factors are stripped by trial division with Phi_k for exactly
    the orders k with phi(k) <= deg q (_strip_cyclotomic), which is complete,
    since Phi_k has degree phi(k). If nothing is left, all roots lie on the
    unit circle and the pure (1 - t^s)^d shape is recognized from the
    multiplicities. Otherwise the residual, integral with constant term 1 and
    not constant, has a root strictly inside the unit disk (Kronecker).

    Rational roots of the residual are split off as linear_factors, a
    degree-1 residual as its own; for higher degrees the split scans the
    divisors of its end coefficients c_0 = 1 and c_D, and is skipped, with the
    note ROOT_SPLIT_SKIPPED, when |c_0 * c_D| > ROOT_SPLIT_BOUND = 10^12. The
    radius class does not depend on the split.
    """
    if q.constant_term() != 1:
        raise ValueError("denominator must have constant term 1")
    if any(c.denominator != 1 for c in q.coeffs):
        raise ValueError("denominator must have integer coefficients")
    mults, rem = _strip_cyclotomic(q)
    if len(rem) == 1:
        return _unit_circle_analysis(mults)

    linear, residual, split_notes = _split_rational_roots(rem)
    return DenominatorAnalysis(
        "inside_unit_disk", cyclotomic_multiplicities=mults, residual=residual,
        linear_factors=linear,
        notes=("integer non-cyclotomic factor certifies a root inside the unit disk",)
        + split_notes)


def _unit_circle_analysis(mults: dict) -> DenominatorAnalysis:
    """The report on a product of cyclotomic factors, from the
    multiplicities of their orders: the pure (1 - t^s)^d shape is the one
    whose orders are exactly the divisors of the largest, s, all d times,
    and the empty product is (1 - t)^0."""
    s = max(mults, default=1)
    d = mults.get(s, 0)
    if not mults or set(mults) == set(_divisors(s)) and all(m == d for m in mults.values()):
        return DenominatorAnalysis("all_roots_on_unit_circle", s=s, d=d,
                                   cyclotomic_multiplicities=mults)
    return DenominatorAnalysis(
        "all_roots_on_unit_circle", cyclotomic_multiplicities=mults,
        notes=("cyclotomic orders do not form a pure (1-t^s)^d pattern",))


#: Past this value of |c_0 * c_D| (the end coefficients of the integer-scaled
#: polynomial) the rational-root split is skipped: the divisor scan costs
#: sqrt|c_0| + sqrt|c_D| trial divisions, at most 2 * 10^6 here.
ROOT_SPLIT_BOUND = 10 ** 12

ROOT_SPLIT_SKIPPED = ("rational-root split skipped: the residual's end coefficients "
                      "have a product above 10^12")


def _split_rational_roots(ints: list):
    """Split off factors (1 - c t) for each rational root 1/c of the
    polynomial with primitive integer coefficients `ints` (ints[0] > 0).

    Returns (tuple of linear factors, the remaining polynomial scaled to
    constant term 1, notes). A degree-1 polynomial is its own factor.
    Otherwise candidate roots come from the rational-root theorem on `ints`,
    unless its end coefficients pass ROOT_SPLIT_BOUND: then nothing is split
    and the notes say so.
    """
    linear = []
    rest = Polynomial([Fraction(c, ints[0]) for c in ints])
    num0, lead = ints[0], ints[-1]
    if len(ints) == 2:
        return (rest,), Polynomial.one(), ()
    if abs(num0 * lead) > ROOT_SPLIT_BOUND:
        return (), rest, (ROOT_SPLIT_SKIPPED,)
    candidates = {Fraction(sign * a, b) for a in _divisors(num0)
                  for b in _divisors(lead) for sign in (1, -1)}
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
    return tuple(linear), rest, ()


# ---------------------------------------------------------------------------
# quasi-polynomial extraction


class QuasiPolynomial(NamedTuple):
    """Periodic polynomial branches: f(n) = branches[n % period](n) for n >= onset."""

    period: int
    branches: tuple  # tuple[Polynomial, ...]
    onset: int


def _branch_ints(cs: list, scale: int, period: int, residue: int) -> tuple:
    """(ints, den) with sum_k ints[k] n^k / den = sum_j a_j C((n - residue) /
    period, j) for the form (a_0, ..., a_d) = cs / scale, cs ints without
    trailing zeros: C((n - i)/P, j) is prod_(m < j) (n - i - mP) / (j! P^j),
    so over den = scale d! P^d term j is cs[j] (d! / j!) P^(d - j) times that
    product.
    """
    d = len(cs) - 1
    if d < 0:
        return [], 1
    ints, falling = [0] * (d + 1), [1]
    for j, a in enumerate(cs):
        weight = a * (math.factorial(d) // math.factorial(j)) * period ** (d - j)
        for k, c in enumerate(falling):
            ints[k] += weight * c
        root = residue + j * period  # times (n - root)
        falling = [hi - root * lo for lo, hi in zip(falling + [0], [0] + falling)]
    return ints, scale * math.factorial(d) * period ** d


def _form_values(form: list, start: int, count: int) -> list:
    """sum_j form[j] C(x, j) for x = start..start + count - 1, count >= 1, in
    int: h_j = sum_(k >= j) form[k] C(x, k - j) has Delta h_j = h_(j + 1), so
    each h_j is one running sum of the next, from the top, from h_j(start)."""
    row = [math.comb(start, r) for r in range(len(form))]
    heads = [sum(map(mul, form[j:], row)) for j in range(len(form))]
    values = [heads[-1] if form else 0] * count
    for a in reversed(heads[:-1]):
        values = list(accumulate(values[:-1], initial=a))
    return values


def _onset(fits: list) -> int:
    """The latest index from which a class of one (form, least index, scale)
    per residue class mod len(fits) agrees with its form; 0 if all do."""
    return max((i + len(fits) * least for i, (_, least, _) in enumerate(fits) if least),
               default=0)


def _held_branches(fits: list, onset: int, held: Sequence) -> QuasiPolynomial:
    """The branches of one (int form, least index, scale) per residue class
    mod P = len(fits), form / scale in (n - i)/P, from `onset` on, where
    `held` is checked against them by running sums (a miss: RuntimeError)."""
    period, branches = len(fits), []
    for i, (form, _, scale) in enumerate(fits):
        first = max(0, -(-(onset - i) // period))
        mine = held[i + first * period::period]
        if [scale * v for v in mine] != _form_values(form, first, len(mine) + 1)[:-1]:
            raise RuntimeError("internal error: quasi-polynomial branch misses a coefficient")
        ints, den = _branch_ints(form, scale, period, i)
        branches.append(Polynomial([Fraction(c, den) for c in ints]))
    return QuasiPolynomial(period, tuple(branches), onset)


def fit_quasi_polynomial(s, period: int, window: int = 4) -> Optional[QuasiPolynomial]:
    """Fit one exact polynomial branch per residue class mod `period` by a
    difference tower each: the tests' reference, which no command runs. The
    window adapts to the samples in each class; None when any branch fails to
    stabilize. Every sample from the onset is re-verified (_held_branches)."""
    vals = sequence_values(s)
    if period < 1:
        raise ValueError("period must be positive")
    min_len = len(vals) // period  # the shortest residue class
    eff_window = max(2, min(window, (min_len - 4) // 2))
    if min_len < 2 * eff_window + 4:
        return None
    fits = []
    for i in range(period):
        fit = detect_polynomial(vals[i::period], eff_window)
        if fit is None:
            return None
        form, scale = integer_coefficients(fit.form.coeffs)
        fits.append((form, fit.stabilization_index, scale))
    return _held_branches(fits, _onset(fits), vals)


def quasi_polynomial(series: RationalSeries, samples) -> QuasiPolynomial:
    """Quasi-polynomial coefficient branches of a pure-denominator series,
    (1 - t^s)^d by denominator_analysis, of degree at most d - 1: read off
    its reduced form and checked on the samples (_read_branches). Another
    denominator, samples that are not its first coefficients, or a rule's
    refusal of the branches for that many, raise ValueError."""
    low = series.reduced()
    analysis = denominator_analysis(low.denominator)
    if analysis.s is None:
        raise ValueError("denominator is not of the pure (1 - t^s)^d form")
    vals = sequence_values(samples)
    if low.expand(len(vals)) != vals:
        raise ValueError("the samples are not the series' coefficients")
    quasi, refusal = _read_branches(low.numerator.coeffs, low.denominator.coeffs,
                                    analysis.cyclotomic_multiplicities, lambda _: vals, len(vals))
    if refusal:
        raise ValueError(refusal)
    return quasi


class RationalAnalysis(NamedTuple):
    """The rational analysis of a sequence. With every denominator root on
    the unit circle, period is the lcm of the cyclotomic orders (the pure
    form's s unless mixed_cyclotomic), and quasi holds the branches or refusal
    why none were read; otherwise all three are None. denominator is None when
    the reduced denominator is not integral: by Fatou's lemma the series then
    generates no natural-number sequence, and no root analysis runs."""

    recurrence: Recurrence
    series: RationalSeries
    denominator: Optional[DenominatorAnalysis]
    period: Optional[int] = None
    mixed_cyclotomic: bool = False
    quasi: Optional[QuasiPolynomial] = None
    refusal: Optional[str] = None


def rational_analysis(vals, confirm: int) -> Optional[RationalAnalysis]:
    """Recurrence, series, denominator analysis and, on the unit circle, the
    period and its quasi-polynomial branches, read off the series where both
    rules admit them for the samples held and checked on every sample from
    their onset (_read_branches); None when no recurrence of admissible
    order fits (minimal_recurrence with `confirm`). A series whose reduced
    denominator is not integral gets no denominator analysis."""
    vals = sequence_values(vals)
    rec = minimal_recurrence(vals, confirm=confirm)
    if rec is None:
        return None
    series = series_from_recurrence(vals, rec)
    if any(c.denominator != 1 for c in series.denominator.coeffs):
        return RationalAnalysis(rec, series, None)
    analysis = denominator_analysis(series.denominator)
    if analysis.radius_class != "all_roots_on_unit_circle":
        return RationalAnalysis(rec, series, analysis)
    mults = analysis.cyclotomic_multiplicities
    return RationalAnalysis(rec, series, analysis, math.lcm(*mults), analysis.s is None,
                            *_read_branches(series.numerator.coeffs, series.denominator.coeffs,
                                            mults, lambda _: vals, len(vals)))


#: The most int_divmod steps _reduce may need before it refuses:
#: dividing a list of length L by Phi_k costs up to (L - phi(k)) steps over
#: Phi_k's nonzero terms, and a weight with several large prime factors
#: (30030) gives a Phi_k of high degree with thousands of them. 10^8 steps
#: take a few seconds.
CANCEL_STEP_BOUND = 10 ** 8


def _reduce(p: list, weights, q: Optional[list] = None) -> Optional[tuple]:
    """(p, q, mults): p / prod(1 - t^w), p an int list, in lowest terms as
    int lists with q(0) = 1, and q's cyclotomic multiplicities, ascending
    and nonzero; None past CANCEL_STEP_BOUND steps. q is prod(1 - t^w) if
    the caller built it. Its factors are the Phi_d over the divisors d of
    the weights, so trial division by those alone, each at most that often,
    finds the gcd with p: no gcd and no walk (_strip_cyclotomic)."""
    mults: dict = {}
    for w in set(weights):  # the orders once per distinct weight
        mults.update({d: mults.get(d, 0) + weights.count(w) for d in _divisors(w)})
    factors = {k: _cyclotomic(k) for k in sorted(mults)}
    if q is None:
        q = _weights_denominator(weights)
    steps = 0  # q is divided only while p is, and Phi_k^j divides p != 0 only if j phi(k) <= deg p
    for k, c in factors.items():
        times = min(mults[k], (len(p) - 1) // (len(c) - 1)) if p else mults[k]
        steps += sum(map(bool, c)) * (min(mults[k], times + 1) * max(0, len(p) - len(c) + 1)
                                      + times * max(0, len(q) - len(c) + 1))
    if steps > CANCEL_STEP_BOUND:
        return None
    for k, cyc in factors.items():
        divide = _divmod_one_minus_t if k == 1 else partial(int_divmod, v=cyc)
        while mults[k]:
            quo, rem = divide(p)
            if rem:
                break
            p, q, mults[k] = quo, divide(q)[0], mults[k] - 1
    return p, q, {k: mults[k] for k in factors if mults[k]}


def _divmod_one_minus_t(u: list) -> tuple:
    """int_divmod(u, [1, -1]) by one prefix sum, exact when u(1), the last sum, is 0."""
    *quo, last = accumulate(u or [0])
    return quo, [last] if last else []


def _reduced_analysis(p: list, q: list, mults: dict) -> RationalAnalysis:
    """The RationalAnalysis, without branches, of _reduce's p/q: the period
    is the lcm of q's orders, the recurrence read off q (_exact_recurrence)."""
    analysis = _unit_circle_analysis(mults)
    return RationalAnalysis(_exact_recurrence(p, q), _normalised_series(p, q), analysis,
                            math.lcm(*mults), analysis.s is None)


def _exact_recurrence(p: list, q: list) -> Recurrence:
    """The recurrence of the series p/q, int lists in lowest terms with
    q(0) = +-1: q, of degree r, gives a_i = -q_i / q_0, which holds at n
    exactly when p_(n + r) = 0, so from onset max(0, len(p) - r). A constant
    q keeps the search's order-1 convention, a_1 = 0."""
    order = max(len(q) - 1, 1)
    coefficients = tuple(Fraction(-c, q[0]) for c in q[1:]) or (Fraction(0),)
    return Recurrence(order, coefficients, max(0, len(p) - order))


#: The most branch work, _branch_work, for which a reduced series'
#: branches are read: building c = p (1 - t^P)^M / q, at most len(p) + P M
#: terms, and M running sums of it cost M steps a term, the P forms and
#: branches P M^2 products of ints growing with M, about 16 steps each, and
#: each residue class BRANCH_CLASS_WORK steps of slices, kernel calls and
#: Fractions. The slowest shapes it admits take about 0.5 s on a 2-vCPU VM.
BRANCH_WORK_BOUND = 4_250_000
BRANCH_CLASS_WORK = 128


def _branch_work(length: int, period: int, top: int) -> int:
    """The branch work of a numerator of `length` terms, P = period, M = top."""
    return top * (length + period * top) + 16 * period * top ** 2 + BRANCH_CLASS_WORK * period


def _branch_refusal(length: int, mults: Mapping, count: Optional[int] = None) -> Optional[str]:
    """Why no branches are read of a reduced series of a `length`-term
    numerator and cyclotomic multiplicities `mults`: work past BRANCH_WORK_BOUND
    or, for `count` coefficients held (poincare's and classify's output rule),
    P M, the period times the top multiplicity, past count; else None."""
    period, top = math.lcm(*mults), max(mults.values(), default=0)
    work = _branch_work(length, period, top)
    if work > BRANCH_WORK_BOUND:
        return (f"branches not read: m (numerator length + period m) + 16 period m^2 + "
                f"{BRANCH_CLASS_WORK} period, m the top multiplicity, is {work}, "
                f"above {BRANCH_WORK_BOUND}")
    if count is not None and period * top > count:
        return (f"branches not read: period m, m the top multiplicity, is {period * top}, "
                f"above the {count} coefficients held")
    return None


def _read_branches(p, q, mults: Mapping, held: Callable, count: Optional[int] = None) -> tuple:
    """(quasi, None) for every command's branches of p/q, where
    _branch_refusal admits them for `count` coefficients, else (None, its
    reason): read off the series (_branch_forms) and checked on held(reach),
    the coefficients to reach = onset + P (M + 1) - 1 (M + 1 in each class
    pin a wrong form) or all there are."""
    refusal = _branch_refusal(len(p), mults, count)
    if refusal:
        return None, refusal
    fits, onset = _branch_forms(p, q, mults)
    reach = onset + len(fits) * (max(mults.values(), default=0) + 1) - 1
    return _held_branches(fits, onset, held(reach)), None


def _branch_forms(p: Sequence, q: Sequence, mults: Mapping) -> tuple:
    """(fits, onset) of a series _branch_refusal admits, p/q in lowest terms,
    p exact, q integral with q(0) = 1 and cyclotomic multiplicities `mults`:
    one (int form, least index, scale) per residue class, read off the series
    with p scaled to ints, and their _onset, which _read_branches checks.

    With P the lcm of the orders and M the top multiplicity, p/q = c / (1 -
    t^P)^M with c = p (1 - t^P)^M / q (exact int_divmod). Residue class i is
    c_i(s) / (1 - s)^M in s = t^P, c_i(s) = sum_k c_(i + kP) s^k, so its
    branch is the form _samuel_fit reads off c_i's first M Taylor coefficients
    at s = 1, from the kernel's least index len(c_i) - M on (len(p) for a
    constant q, whose one branch is 0)."""
    period, top = math.lcm(*mults), max(mults.values(), default=0)
    p, scale = integer_coefficients(p)
    c = [0] * (len(p) + top * period)  # p (1 - t^P)^M, then over q
    for j in range(top + 1):
        b, lo = (-1) ** j * math.comb(top, j), j * period
        c[lo:lo + len(p)] = [a + b * x for a, x in zip(c[lo:lo + len(p)], p)]
    c, rem = int_divmod(c, [int(x) for x in q])
    if rem:
        raise RuntimeError("internal error: the reduced denominator does not divide (1 - t^P)^M")
    fits = []
    for i in range(period):
        ci = c[i::period]
        while ci and not ci[-1]:
            ci.pop()
        fits.append((*_samuel_fit(_taylor_at_one(ci, top), len(ci) - 1), scale))
    return fits, _onset(fits)
