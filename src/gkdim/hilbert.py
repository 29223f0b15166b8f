"""Dimension sequences of monomial modules and their Hilbert series.

A module presented as a direct sum of shifted quotients A/I_k has one
series (Hilbert-Serre): the summands' numerators, shifted and summed, over
one prod(1 - t^w). _module_numerator applies each summand's shift to the
dense numerator; dimension counts and Hilbert series are both read from it.
Counts divide the numerator by prod(1 - t^w) as integer running sums, one
per factor (presentations.divide_by_weights), with one more factor (1 - t)
for cumulative counts.

Standard monomials of a monomial ideal are counted exactly from the
numerator of the quotient's Hilbert series. One pivot recursion in the style
of A. M. Bigatti ("Computation of Hilbert-Poincare series", JPAA 119, 1997)
computes it: split on the variable x shared by the most minimal generators
until the generators are pairwise coprime. Both ideals of the split get
their minimal generators without a general re-minimalisation: I + (x) keeps
the x-free generators and adds x, and the colon I : x keeps every lowered
generator g / x and drops an x-free generator only when a lowered generator
that lost its last x divides it. Weighted degrees come from the ambient
algebra's generator weights. The recursion runs on dense int lists cut
after a degree top, so memory follows the degree asked for, not the input's
exponents, weights or shifts: the pivot comes from per-variable column
counts, the coprime base case multiplies by each (1 - t^d) in place, and the
colon's numerator is added at the pivot's weight in one slice, or not at all
above top. The hilbert command's graded dimensions are the one expansion
the series self-check verifies (_checked_series).

The growth certificate (numerator_at_one, growth_certificate) reads gk and
the multiplicity off the numerator's Taylor coefficients at t = 1 alone. It
runs the same recursion in powers of t - 1, cut after order n, where every
shift t^s is a product with the binomials C(s, j); so it depends on no
degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb, prod
from operator import add, le, mul, sub
from typing import Sequence

from .exactnum import Polynomial
from .poincare import RationalSeries
from .presentations import (AlgebraSpec, ModuleSpec, Monomial, SpecError,
                            divide_by_weights, monomial_divides,
                            validate_module)

MEANINGS = ("graded_piece", "cumulative")

#: The largest degree module_hilbert_series builds densely: the degree its
#: expansion self-check reaches (_module_numerator) and the degree sum(w) of
#: the denominator prod(1 - t^w). Both are set by single integers of the
#: input (a summand's shift, a generator weight), and time and output grow
#: linearly with them, so past this bound the series is refused as bad input.
SERIES_DEGREE_BOUND = 10 ** 5


class DimensionSequence:
    """Natural-number dimensions indexed by filtration degree 0..N.

    meaning is "graded_piece" (dimensions of the graded layers) or
    "cumulative" (dimensions of the filtration steps, nondecreasing).
    Immutable: equal and hashed by (values, meaning).
    """

    __slots__ = ("values", "meaning")

    def __init__(self, values: tuple, meaning: str = "cumulative"):
        if meaning not in MEANINGS:
            raise ValueError(f"unknown sequence meaning {meaning!r}")
        vals = tuple(values)
        if not all(map(isinstance, vals, repeat(int))) or (vals and min(vals) < 0):
            raise ValueError("dimension sequences hold natural numbers")
        if meaning == "cumulative" and not all(map(le, vals, vals[1:])):
            raise ValueError("cumulative dimension sequences must be nondecreasing")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "meaning", meaning)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"DimensionSequence is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.values, self.meaning) == (other.values, other.meaning)

    def __hash__(self):
        return hash((self.values, self.meaning))

    def __repr__(self):
        return f"DimensionSequence(values={self.values!r}, meaning={self.meaning!r})"

    def __reduce__(self):
        return DimensionSequence, (self.values, self.meaning)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def cumulative(self) -> "DimensionSequence":
        """This sequence with cumulative meaning (prefix sums if graded)."""
        if self.meaning == "cumulative":
            return self
        acc, out = 0, []
        for v in self.values:
            acc += v
            out.append(acc)
        return DimensionSequence(tuple(out), "cumulative")

    def graded(self) -> "DimensionSequence":
        """This sequence with graded meaning (first differences if cumulative)."""
        if self.meaning == "graded_piece":
            return self
        vals = self.values
        return DimensionSequence(vals[:1] + tuple(map(sub, vals[1:], vals)), "graded_piece")


# ---------------------------------------------------------------------------
# monomial-ideal counting


def minimalize_ideal(gens: Sequence[Monomial]) -> tuple:
    """Minimal generating antichain: drop duplicates and multiples."""
    uniq = sorted(set(tuple(g) for g in gens), key=lambda g: (sum(g), g))
    kept = []
    for g in uniq:
        if not any(monomial_divides(h, g) for h in kept):
            kept.append(g)
    return tuple(kept)


def _wdeg(mono: Monomial, weights: Sequence[int]) -> int:
    return sum(map(mul, mono, weights))


def numerator_terms(gens: Sequence[Monomial], weights: Sequence[int]) -> dict:
    """Numerator of the Hilbert series of the quotient, over prod(1 - t^w).

    Returns a map degree -> coefficient. For a pivot variable x shared by
    two or more minimal generators, H(S/I) = H(S/(I + x)) + t^w(x) H(S/(I : x));
    pairwise coprime generators (at most one generator included) give the
    product of their factors (1 - t^deg g). A weighted degree sum of the
    minimal generators above SERIES_DEGREE_BOUND raises ValueError.
    """
    gens, weights = minimalize_ideal(gens), tuple(weights)
    top = sum(_wdeg(g, weights) for g in gens)
    if top > SERIES_DEGREE_BOUND:
        raise ValueError(f"numerator degree bound {top} above {SERIES_DEGREE_BOUND}")
    return {d: c for d, c in enumerate(_numerator(gens, weights, top)) if c}


def _numerator(gens: tuple, weights: tuple, top: int) -> list:
    """The numerator of numerator_terms for minimal generators `gens`, cut
    after degree `top`: a dense int list by ascending degree, at most
    top + 1 long, possibly with trailing zeros."""
    # the pivot: the first variable shared by the most generators
    counts = [len(col) - col.count(0) for col in zip(*gens)]
    most = max(counts, default=0)
    if most < 2:
        # pairwise coprime generators: times (1 - t^d) per generator, in place
        # from the top index down; a factor of degree above top is 1
        degrees = [_wdeg(g, weights) for g in gens]
        c = [1] + [0] * min(sum(degrees), top)
        filled = 0
        for d in degrees:
            filled = min(filled + d, top)
            for i in range(filled, d - 1, -1):
                c[i] -= c[i - d]
        return c
    pivot = counts.index(most)
    var_mono = tuple(1 if i == pivot else 0 for i in range(len(weights)))
    # x absorbs the generators it divides; the rest stay minimal
    out = _numerator(tuple(g for g in gens if not g[pivot]) + (var_mono,), weights, top)
    shift = weights[pivot]
    if shift <= top:
        low = _numerator(_colon(gens, pivot), weights, top - shift)
        end = shift + len(low)
        out.extend([0] * (end - len(out)))
        out[shift:end] = map(add, out[shift:end], low)
    return out


def _colon(gens: tuple, pivot: int, power: int = 1) -> tuple:
    """Minimal generators of (I : x^power) for minimal generators `gens` of
    I, x the pivot variable and power at most the least positive exponent
    of x among them.

    The colon is generated by the x-free generators and the lowered ones
    g / x^power. Lowered generators stay an antichain, and none is divisible
    by an x-free generator a (a | g / x^power would give a | g). An x-free
    generator is dropped exactly when a lowered generator divides it, which
    needs one that has lost its last x.
    """
    lowered, free = [], []
    for g in gens:
        if g[pivot]:
            lowered.append(g[:pivot] + (g[pivot] - power,) + g[pivot + 1:])
        else:
            free.append(g)
    emptied = [h for h in lowered if not h[pivot]]
    return tuple(lowered) + tuple(
        a for a in free if not any(monomial_divides(h, a) for h in emptied))


def _taylor_numerator(gens: tuple, weights: tuple, order: int) -> list:
    """The numerator of _numerator in powers of u = t - 1: its coefficients
    c_j = sum_i C(i, j) p_i for j = 0..order.

    The same pivot recursion, read at t = 1, where t^d = (1 + u)^d: a
    pivot's shift is a product with the binomials C(d, j), j <= order
    (_times_t_power), and a coprime factor 1 - t^d = -u (d + C(d, 2) u + ...)
    raises the order of vanishing by one. The pivot variable x is split off
    as x^m, m its least positive exponent, so every colon step takes x out
    of some generator: neither the lists nor the depth of the recursion
    depend on a degree or an exponent.
    """
    counts = [len(col) - col.count(0) for col in zip(*gens)]
    most = max(counts, default=0)
    if most < 2:
        rest = order - len(gens)
        if rest < 0:
            return [0] * (order + 1)
        q = [1] + [0] * rest
        for g in gens:
            d = _wdeg(g, weights)
            factor = [comb(d, j) for j in range(1, rest + 2)]
            q = [sum(map(mul, factor, q[k::-1])) for k in range(rest + 1)]
        return [0] * len(gens) + ([-c for c in q] if len(gens) % 2 else q)
    pivot = counts.index(most)
    power = min(g[pivot] for g in gens if g[pivot])
    var_mono = tuple(power if i == pivot else 0 for i in range(len(weights)))
    # x^power divides every generator x divides, and absorbs them
    out = _taylor_numerator(tuple(g for g in gens if not g[pivot]) + (var_mono,),
                            weights, order)
    low = _taylor_numerator(_colon(gens, pivot, power), weights, order)
    return list(map(add, out, _times_t_power(low, power * weights[pivot])))


def _times_t_power(c: list, d: int) -> list:
    """t^d times the series c in powers of u = t - 1, cut after len(c)
    terms: t^d = sum_j C(d, j) u^j."""
    if not d:
        return c
    binomials = [comb(d, j) for j in range(len(c))]
    return [sum(map(mul, binomials, c[k::-1])) for k in range(len(c))]


def _module_numerator(a: AlgebraSpec, m: ModuleSpec, top=None) -> tuple:
    """The module's Hilbert-series numerator over prod(1 - t^w) as a dense
    int list, degrees 0..top, and the degree its expansion self-check reaches.

    Each summand's ideal is minimalised once; its numerator is shifted by the
    summand's shift and added in. The self-check reaches, for every summand,
    its shift plus twice the weight of its minimal generators plus ten, past
    the numerator's degree. top=None asks for the numerator to that reach,
    after refusing a reach or a sum(w) above SERIES_DEGREE_BOUND (SpecError).
    """
    validate_module(a, m)
    weights = a.scalar_weights()
    minimal = [(s.shift, minimalize_ideal(s.ideal)) for s in m.summands]
    reach = max([10] + [shift + 2 * sum(_wdeg(g, weights) for g in gens) + 10
                        for shift, gens in minimal])
    if top is None:
        if reach > SERIES_DEGREE_BOUND:
            raise SpecError("module", f"the series self-check would reach degree {reach}, "
                                      f"above the bound {SERIES_DEGREE_BOUND}")
        if sum(weights) > SERIES_DEGREE_BOUND:
            raise SpecError("algebra", f"the generator weights sum to {sum(weights)}, "
                                       f"above the series degree bound {SERIES_DEGREE_BOUND}")
        top = reach
    dense = [0] * (top + 1)
    for shift, gens in minimal:
        if shift <= top:
            low = _numerator(gens, weights, top - shift)
            end = shift + len(low)
            dense[shift:end] = map(add, dense[shift:end], low)
    return dense, reach


def _counts(a: AlgebraSpec, dense: list, cumulative: bool) -> list:
    """Coefficients 0..len(dense) - 1 of the numerator `dense` over
    prod(1 - t^w), or their prefix sums when cumulative: one
    divide_by_weights call over the ring's (1 - t^w) factors, with one more
    factor (1 - t) for the prefix sums."""
    weights = a.scalar_weights()
    return divide_by_weights(dense, weights + (1,) if cumulative else weights)


def standard_monomial_counts(a: AlgebraSpec, ideal: Sequence[Monomial], top: int,
                             cumulative: bool = False) -> list:
    """Counts of standard monomials (not in the ideal) by weighted degree 0..top."""
    dense, _ = _module_numerator(a, ModuleSpec.cyclic(ideal), top)
    return _counts(a, dense, cumulative)


def graded_piece_dim(a: AlgebraSpec, ideal: Sequence[Monomial], n: int) -> int:
    """Dimension of the degree-n graded piece of the monomial quotient."""
    if n < 0:
        raise ValueError("degree must be a natural number")
    return standard_monomial_counts(a, ideal, n)[n]


def module_dim_sequence(a: AlgebraSpec, m: ModuleSpec, top: int) -> DimensionSequence:
    """Cumulative dimensions of a module presentation, degrees 0..top, read
    from the module's Hilbert-series numerator."""
    dense, _ = _module_numerator(a, m, top)
    values = _counts(a, dense, cumulative=True)
    if m.negative_shift is not None:
        # rank-one module stretching in two directions: 2j + 1 states at level j
        for n in range(top + 1):
            values[n] += 2 * n + 1
    return DimensionSequence(tuple(values), "cumulative")


def algebra_dim_sequence(a: AlgebraSpec, top: int) -> DimensionSequence:
    """Cumulative dimensions of the algebra as a module over itself."""
    return module_dim_sequence(a, ModuleSpec.regular(), top)


def numerator_at_one(a: AlgebraSpec, m: ModuleSpec) -> tuple:
    """The module's Hilbert numerator p in powers of (t - 1): the Taylor
    coefficients c_j = sum_i C(i, j) p_i at t = 1 for j = 0..n, n the
    number of generators, which is all growth_certificate reads.

    Each summand's numerator comes from its own pivot recursion, and its
    shift s multiplies by t^s, whose coefficients are C(s, j); so the work
    depends on neither the shifts nor the degrees of the generators.
    Raises ValueError for a negative_shift module, which has no summand
    series.
    """
    validate_module(a, m)
    if m.negative_shift is not None:
        raise ValueError("a Hilbert numerator needs a summand presentation")
    weights = a.scalar_weights()
    order = len(weights)
    total = [0] * (order + 1)
    for s in m.summands:
        c = _taylor_numerator(minimalize_ideal(s.ideal), weights, order)
        total = list(map(add, total, _times_t_power(c, s.shift)))
    return tuple(total)


def growth_certificate(a: AlgebraSpec, coefficients: Sequence[int]):
    """(gk, e) of a module whose Hilbert numerator has the coefficients
    numerator_at_one gives, or None when they all vanish (the zero module).

    Hilbert-Serre (Bruns-Herzog, Cohen-Macaulay Rings, ch. 4): with r the
    index of the first nonzero c_r, p = (1 - t)^r q and q(1) = (-1)^r c_r,
    so the series p / prod(1 - t^w), n factors, has a pole of order
    gk = n - r at t = 1 with leading coefficient e = q(1) / prod(w). The
    counts are nonnegative, so no other root of unity is a pole of higher
    order, and the cumulative counts grow like e n^gk / gk!. A nonzero
    module has r <= n: its series has a pole at t = 1 or is a nonzero
    polynomial, positive there. Differences of coefficients certify
    differences of modules, such as the sub-piece of a short exact
    sequence.
    """
    r = next((j for j, c in enumerate(coefficients) if c), None)
    if r is None:
        return None
    weights = a.scalar_weights()
    return len(weights) - r, Fraction((-1) ** r * coefficients[r], prod(weights))


def module_hilbert_series(a: AlgebraSpec, m: ModuleSpec) -> RationalSeries:
    """Hilbert series of a summand presentation as p(t) / prod_i (1 - t^w_i).

    p(t) is the sum of the summands' numerators, each shifted by its
    summand's shift; the denominator is the structured product over the
    generator weights, built as an int coefficient list. The power-series
    expansion (a recurrence over the denominator's nonzero terms) is verified
    once, out to the reach of _module_numerator, against the running sums of
    _counts. A reach or a sum(w) above SERIES_DEGREE_BOUND raises SpecError
    (path "module" or "algebra") before any dense work.
    """
    return _checked_series(a, m, 0)[0]


def _checked_series(a: AlgebraSpec, m: ModuleSpec, top: int) -> tuple:
    """(module_hilbert_series(a, m), its expansion to degree max(reach, top)),
    from one expansion whose first reach + 1 terms the self-check verifies."""
    if m.negative_shift is not None:
        raise ValueError("a Hilbert series needs a summand presentation")
    dense, reach = _module_numerator(a, m)
    end = next((n for n in range(len(dense), 0, -1) if dense[n - 1]), 0)  # p's length
    weights = a.scalar_weights()
    q = [1] + [0] * sum(weights)
    for w in weights:  # times (1 - t^w), from the top index down
        for i in range(len(q) - 1, w - 1, -1):
            q[i] -= q[i - w]
    series = RationalSeries(Polynomial(dense[:end]), Polynomial(q))
    expansion = series.expand(max(reach, top) + 1)
    if expansion[:reach + 1] != _counts(a, dense, cumulative=False):
        raise RuntimeError("internal error: series expansion disagrees with direct counts")
    return series, expansion


def hilbert_series_monomial_quotient(a: AlgebraSpec, ideal: Sequence[Monomial]) -> RationalSeries:
    """Hilbert series of the monomial quotient A/I: the cyclic case of
    module_hilbert_series."""
    return module_hilbert_series(a, ModuleSpec.cyclic(ideal))
