"""Dimension sequences of monomial modules and their Hilbert series.

A module presented as a direct sum of shifted quotients A/I_k has one
series (Hilbert-Serre): the summands' numerators, shifted and summed, over
one prod(1 - t^w), and a Laurent part's, (1 + t) prod(1 - t^w) / (1 - t)
(_laurent_numerator). Every count, series and certificate is read from those
numerators, and one routine computes the summands': numerator_terms, a pivot
recursion in the style of A. M. Bigatti ("Computation of Hilbert-Poincare
series", JPAA 119, 1997) that returns {degree: coefficient}. It splits on
the variable x shared by the most generators until they are pairwise
coprime, taking x^m with m the least positive exponent of x among them, so
every colon step takes x out of some generator and the depth follows no
exponent. Both ideals of the split get their minimal generators without a
general re-minimalisation: x^m is coprime to the x-free generators J, so
I + (x^m) is J with the factor 1 - t^(m w(x)), and the colon I : x^m
(_colon) keeps every lowered generator g / x^m and drops an x-free
generator only when a lowered generator that lost its last x divides it.
Each node carries the {degree: coefficient} factor its numerator is still
to be multiplied by, so no node pays again for a pivot power an ancestor
split off. Weighted degrees come from the ambient algebra's generator
weights.

The recursion can drop the terms above a degree top: factors keep only
their terms of degree at most top and a colon branch whose factor has none
left is skipped, so the cut path builds nothing past top, whatever the
input's exponents, weights or shifts. Uncut, its size is the number of
distinct degrees its leaves reach, never an exponent or a shift; past
SERIES_DEGREE_BOUND of them it refuses, and past PIVOT_NODE_BOUND nodes in
one call, cut or not. Callers report either refusal as a SpecError at the
input field that presented the ideal: "module", "ses.sub_ideals" or
"chain[i]".

One reader, _module_terms, lays the numerator out: the Laurent part's and
one numerator_terms walk per distinct minimal ideal, added in at each of
that ideal's shifts. Cut after a degree, it gives module_dim_sequence's
counts: integer running sums over prod(1 - t^w), and (1 - t) for cumulative
ones (presentations.divide_by_weights). Uncut, it is the exact series the
hilbert, poincare and analyze commands read through one head,
presented_series: the walk once, and on request p and q = prod(1 - t^w) as
int lists within SERIES_DEGREE_BOUND, their reduction by poincare._reduce
(no presentation takes a gcd), and the running sums to a degree, the first
min(top, deg p + 10) + 1 checked against poincare._expansion of p / q.
analyze (samuel.certified_growth) reads gk and e off the Taylor coefficients
at t = 1 (_at_one, growth_certificate), and on an unweighted ring its
Hilbert-Samuel polynomial (exactnum._samuel_fit), building nothing dense.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, prod
from operator import add, le, mul, sub
from typing import NamedTuple, Optional, Sequence

from .exactnum import Polynomial
from .poincare import RationalSeries, _expansion, _reduce, _weights_denominator
from .presentations import (AlgebraSpec, ModuleSpec, Monomial, SpecError,
                            divide_by_weights, monomial_divides,
                            validate_module)

MEANINGS = ("graded_piece", "cumulative")

#: The largest degree presented_series builds densely: the degree of the
#: numerator p and the degree sum(w) of the denominator prod(1 - t^w). Both
#: are set by single integers of the input (a summand's shift, an exponent,
#: a generator weight), and time and output grow linearly with them, so past
#: this bound hilbert and poincare refuse the series as bad input and analyze
#: keeps gk and e alone. It also bounds the distinct degrees an uncut
#: numerator_terms collects.
SERIES_DEGREE_BOUND = 10 ** 5

#: The most nodes one numerator_terms call visits, cut or uncut. The tree can
#: grow exponentially with the number of variables: 143 generators in 18
#: variables (a 7 KB spec) need 1.3 million nodes. A node costs 10 to 20 us
#: on a shared 2-vCPU VM, so a call stops after about 5 s there. It bounds
#: one walk: a module walks each distinct ideal once, so k distinct ideals
#: (or a check-ses, or a chain of k members) still cost up to k walks.
PIVOT_NODE_BOUND = 3 * 10 ** 5


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


def numerator_terms(gens: Sequence[Monomial], weights: Sequence[int], top=None) -> dict:
    """Numerator of the Hilbert series of the quotient by the monomial ideal
    generated by `gens`, over prod(1 - t^w): a map degree -> coefficient,
    without the terms above degree `top` when one is given.

    For a pivot variable x shared by two or more generators, m its least
    positive exponent among them and J the x-free generators, to which x^m
    is coprime, H(S/I) = (1 - t^(m w(x))) H(S/J) + t^(m w(x)) H(S/(I : x^m));
    pairwise coprime generators (at most one generator included) give the
    product of their factors (1 - t^deg g). The split runs on a stack of
    (generators, factor) nodes, the factor the {degree: coefficient}
    polynomial, cut after top, that the node's numerator is still to be
    multiplied by; each leaf adds factor times its product. Every
    generating set gives the same numerator; minimal generators give the
    fewest nodes. More than
    PIVOT_NODE_BOUND nodes, or uncut more than SERIES_DEGREE_BOUND distinct
    degrees, raise ValueError; no term lies above the degree of the
    generators' lcm.
    """
    weights = tuple(weights)
    gens = tuple(map(tuple, gens))
    uncut = top is None
    if uncut:
        top = sum(map(mul, map(max, zip(*gens)), weights))
    out = {}
    stack = [(gens, {0: 1})]
    nodes = 0
    while stack:
        gens, factor = stack.pop()
        nodes += 1
        if nodes > PIVOT_NODE_BOUND:
            raise ValueError(f"the pivot recursion needs more than {PIVOT_NODE_BOUND} nodes")
        # the pivot: the first variable shared by the most generators
        zeros = list(map(tuple.count, zip(*gens), repeat(0)))
        fewest = min(zeros, default=len(gens))
        if len(gens) - fewest < 2:
            # pairwise coprime generators: the factor times each (1 - t^d),
            # one at a time with equal degrees merged, so a leaf holds its
            # distinct degrees, not 2^len(gens) products
            for g in gens:
                factor = _times_binomial(factor, _wdeg(g, weights), top)
                if uncut:
                    _check_term_count(factor)
            for k, c in factor.items():
                out[k] = out.get(k, 0) + c
            if uncut:
                _check_term_count(out)
            continue
        pivot = zeros.index(fewest)
        power = min([g[pivot] for g in gens if g[pivot]])
        step = power * weights[pivot]
        # x^power divides every generator x divides, and absorbs them; it is
        # coprime to the rest, which stay minimal, so it joins the factor
        plus = _times_binomial(factor, step, top)
        if uncut:
            _check_term_count(plus)
        stack.append((tuple(g for g in gens if not g[pivot]), plus))
        lifted = {k + step: c for k, c in factor.items() if k + step <= top}
        if lifted:
            stack.append((_colon(gens, pivot, power), lifted))
    return {d: c for d, c in out.items() if c}


def _times_binomial(terms: dict, d: int, top: int) -> dict:
    """terms times (1 - t^d), without the terms above degree top."""
    out = dict(terms)
    for k, c in terms.items():
        if k + d <= top:
            out[k + d] = out.get(k + d, 0) - c
    return out


def _check_term_count(terms: dict) -> None:
    if len(terms) > SERIES_DEGREE_BOUND:
        raise ValueError(f"the numerator has more than {SERIES_DEGREE_BOUND} "
                         f"distinct degrees")


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


def _check_weight_sum(weights: tuple) -> None:
    if sum(weights) > SERIES_DEGREE_BOUND:
        raise SpecError("algebra", f"the generator weights sum to {sum(weights)}, "
                                   f"above the series degree bound {SERIES_DEGREE_BOUND}")


def _laurent_numerator(weights: tuple) -> list:
    """(1 + t) prod(1 - t^w) / (1 - t) as an int list: the numerator of a
    Laurent part, whose 2j + 1 states up to degree j give the series
    (1 + t) / (1 - t). With a weight (validate_module asks for one)
    prod(1 - t^w) vanishes at t = 1, so its prefix sums end in 0 and are
    its quotient by 1 - t. A sum(w) above SERIES_DEGREE_BOUND raises
    SpecError."""
    _check_weight_sum(weights)
    sums = list(accumulate(_weights_denominator(weights)))
    return list(map(add, sums, [0] + sums[:-1]))


def _module_terms(a: AlgebraSpec, m: ModuleSpec, path: str, top=None) -> dict:
    """The Hilbert numerator of a module already validated, over
    prod(1 - t^w), as {degree: coefficient} without zero terms or terms past
    top: a Laurent part's _laurent_numerator and one numerator_terms walk
    per distinct minimal ideal, each ideal minimalised once, cut after top
    less its least shift and added in at each of its shifts. A walk past
    PIVOT_NODE_BOUND nodes, or uncut past SERIES_DEGREE_BOUND distinct
    degrees, raises SpecError at `path`."""
    weights = a.scalar_weights()
    terms = {}
    if m.negative_shift is not None:
        terms = dict(enumerate(_laurent_numerator(weights)))
    ideals = {}
    for s in m.summands:
        ideals.setdefault(minimalize_ideal(s.ideal), []).append(s.shift)
    for gens, shifts in ideals.items():
        low = min(shifts)
        if top is not None and low > top:
            continue
        try:
            walk = numerator_terms(gens, weights, None if top is None else top - low)
        except ValueError as err:
            raise SpecError(path, str(err)) from None
        for shift in shifts:
            for d, c in walk.items():
                terms[shift + d] = terms.get(shift + d, 0) + c
    if top is None:
        return {d: c for d, c in terms.items() if c}
    return {d: c for d, c in terms.items() if c and d <= top}


def _dense(terms: dict, length: int) -> list:
    """The coefficients 0..length - 1 of the polynomial with the terms {d: p_d}."""
    out = [0] * length
    for d, c in terms.items():
        if d < length:
            out[d] = c
    return out


def standard_monomial_counts(a: AlgebraSpec, ideal: Sequence[Monomial], top: int,
                             cumulative: bool = False) -> list:
    """Counts of standard monomials (not in the ideal) by weighted degree 0..top."""
    m = ModuleSpec.cyclic(ideal)
    validate_module(a, m)
    weights = a.scalar_weights()
    dense = _dense(_module_terms(a, m, "module", top), top + 1)
    return divide_by_weights(dense, weights + (1,) if cumulative else weights)


def module_dim_sequence(a: AlgebraSpec, m: ModuleSpec, top: int, *,
                        validated: bool = False, path: str = "module") -> DimensionSequence:
    """Cumulative dimensions of a module presentation, degrees 0..top: its
    Hilbert numerator cut after top, over prod(1 - t^w) and (1 - t) as
    integer running sums (one divide_by_weights call). validated=True skips
    validate_module, for a caller that has checked m (the CLI's parser).
    numerator_terms' refusals are a SpecError at `path`, the input field
    that presented m."""
    if not validated:
        validate_module(a, m)
    dense = _dense(_module_terms(a, m, path, top), top + 1)
    return DimensionSequence(tuple(divide_by_weights(dense, a.scalar_weights() + (1,))),
                             "cumulative")


def algebra_dim_sequence(a: AlgebraSpec, top: int) -> DimensionSequence:
    """Cumulative dimensions of the algebra as a module over itself."""
    return module_dim_sequence(a, ModuleSpec.regular(), top)


def _numerator_at_one(a: AlgebraSpec, m: ModuleSpec, path: str) -> tuple:
    """The Hilbert numerator p of a module already validated, in powers of
    (t - 1): the Taylor coefficients c_j = sum_i C(i, j) p_i at t = 1 for
    j = 0..n, n the number of generators, which is all growth_certificate
    reads. The numerator is read uncut, so the work follows its number of
    terms, not a shift or a degree; its refusals are a SpecError at `path`,
    the input field that presented the module."""
    return _at_one(_module_terms(a, m, path), a.num_generators + 1)


def _at_one(terms: dict, count: int) -> tuple:
    """The Taylor coefficients c_j = sum_d C(d, j) p_d, j < count, at t = 1
    of the polynomial with the terms {d: p_d}: p = sum_j c_j (t - 1)^j."""
    return tuple(sum(comb(d, j) * c for d, c in terms.items()) for j in range(count))


def growth_certificate(a: AlgebraSpec, coefficients: Sequence[int]):
    """(gk, e) of a module whose Hilbert numerator has the coefficients
    _numerator_at_one gives, or None when they all vanish (the zero module).

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
    """Hilbert series of a module presentation as p(t) / prod_i (1 - t^w_i):
    presented_series, its self-check covering degree 0. A sum(w) above
    SERIES_DEGREE_BOUND raises SpecError at "algebra" before any walk, and a
    numerator whose degree passes it, or a walk past PIVOT_NODE_BOUND pivot
    nodes, at "module"."""
    validate_module(a, m)
    series = presented_series(a, m)
    series.expansion(0)
    return RationalSeries(Polynomial(series.p), Polynomial(series.q))


class PresentedSeries(NamedTuple):
    """A presentation's exact Hilbert series: the uncut numerator
    {degree: coefficient} over prod(1 - t^w), the weights and, where built,
    p and q = prod(1 - t^w) as int lists and poincare._reduce(p, weights, q)."""

    terms: dict
    weights: tuple
    p: Optional[list] = None
    q: Optional[list] = None
    reduced: Optional[tuple] = None

    def expansion(self, top: int, whole: bool = True) -> list:
        """The coefficients in degrees 0..top, as running sums over the
        numerator cut after top. With p built, the first min(top, deg p + 10)
        + 1 are checked against poincare._expansion of p / q, whose products
        cost more; whole=False stops after them."""
        checked = 0 if self.p is None else min(top, len(self.p) + 9) + 1
        length = top + 1 if whole else checked
        expansion = divide_by_weights(_dense(self.terms, length), self.weights)
        if checked and expansion[:checked] != _expansion(self.p, self.q, checked):
            raise RuntimeError("internal error: series expansion disagrees with direct counts")
        return expansion


def presented_series(a: AlgebraSpec, m: ModuleSpec, *, dense: bool = True,
                     reduce: bool = False, refuse: bool = True) -> PresentedSeries:
    """The exact series of a module already validated: its uncut numerator
    (_module_terms) and, with dense, p and q, with reduce their _reduce (None
    past CANCEL_STEP_BOUND). A dense series' degree and sum(w) must stay
    within SERIES_DEGREE_BOUND: with refuse, a sum(w) past it is a SpecError
    at "algebra" before any walk and a degree past it one at "module";
    without, the series keeps its terms alone."""
    weights = a.scalar_weights()
    if dense and refuse:
        _check_weight_sum(weights)
    terms = _module_terms(a, m, "module")
    degree = max(terms, default=-1)
    if dense and refuse and degree > SERIES_DEGREE_BOUND:
        raise SpecError("module", f"the series numerator has degree {degree}, "
                                  f"above the bound {SERIES_DEGREE_BOUND}")
    if not dense or max(degree, sum(weights)) > SERIES_DEGREE_BOUND:
        return PresentedSeries(terms, weights)
    p, q = _dense(terms, degree + 1), _weights_denominator(weights)
    return PresentedSeries(terms, weights, p, q, _reduce(p, weights, q) if reduce else None)


def hilbert_series_monomial_quotient(a: AlgebraSpec, ideal: Sequence[Monomial]) -> RationalSeries:
    """Hilbert series of the monomial quotient A/I: the cyclic case of
    module_hilbert_series."""
    return module_hilbert_series(a, ModuleSpec.cyclic(ideal))
