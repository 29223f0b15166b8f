"""Dimension counting for monomial quotients and module presentations.

The central oracle is brute-force monomial enumeration: list every exponent
vector up to the degree cap, drop the ones divisible by an ideal generator,
and tally by weighted degree. Numerators from the pivot recursion (on fixed
and on seeded random ideals of up to 24 minimal generators), Hilbert series
expansions, and module shift bookkeeping are all checked against it or
against closed binomial formulas. The colon step of the recursion, which
skips a general re-minimalisation, is checked against minimalize_ideal of
the lowered generators on seeded ideals. Module counts and module Hilbert
series are checked against the brute-force counts of their shifted summands
on seeded weighted modules, and call counters pin that each command counts
every module once: one divide_by_weights call per module, one
minimalisation per summand and one expansion self-check per series. The
kernel-based counts are compared with the free count and convolution they
replaced, the dense-list numerator with the dict recursion it replaced, and
graded() with its index loop, all kept below as references, and the
DimensionSequence validators by the messages they raise.

The growth certificate (gk and e from the numerator at t = 1) is checked
against three oracles: the difference tower on unweighted modules, sympy's
pole order and leading Laurent coefficient at t = 1 on weighted modules
with shifts up to 5000, and tower fits along the residue classes of the
period on weighted modules whose counts the brute-force oracle vouches for.
"""

from fractions import Fraction
import itertools
import json
import math
import random

import pytest
import sympy

from gkdim.exactnum import Polynomial
from gkdim.poincare import RationalSeries
import gkdim.hilbert
from gkdim.cli import main
from gkdim.hilbert import (MEANINGS, SERIES_DEGREE_BOUND, DimensionSequence,
                           _colon, _counts, _numerator,
                           _module_numerator, algebra_dim_sequence,
                           graded_piece_dim, growth_certificate,
                           hilbert_series_monomial_quotient,
                           minimalize_ideal, module_dim_sequence,
                           module_hilbert_series,
                           numerator_at_one, numerator_terms,
                           standard_monomial_counts)
from gkdim.presentations import AlgebraSpec, ModuleSpec, SpecError, Summand
from gkdim.samuel import detect_polynomial, gk_dimension, multiplicity

# ---------------------------------------------------------------------------
# dimension sequences


def test_dimension_sequence_round_trip():
    cum = DimensionSequence((1, 3, 6, 10), "cumulative")
    graded = cum.graded()
    assert graded.values == (1, 2, 3, 4)
    assert graded.meaning == "graded_piece"
    assert graded.cumulative().values == cum.values
    assert cum.cumulative() is cum
    assert graded.graded() is graded


def test_dimension_sequence_validation():
    natural = "dimension sequences hold natural numbers"
    for values in [(1, -1), (0, Fraction(1, 2)), (1, 2.0), (Fraction(3),),
                   (3, -1, 2), (Fraction(-1, 2),)]:
        for meaning in MEANINGS:
            with pytest.raises(ValueError, match=f"^{natural}$"):
                DimensionSequence(values, meaning)
    for values in [(2, 1), (0, 1, 1, 0), (5, 6, 4, 7)]:
        with pytest.raises(ValueError,
                           match="^cumulative dimension sequences must be nondecreasing$"):
            DimensionSequence(values, "cumulative")
        # graded values may decrease
        assert DimensionSequence(values, "graded_piece").values == values
    with pytest.raises(ValueError, match="^unknown sequence meaning 'nonsense'$"):
        DimensionSequence((-1,), "nonsense")  # the meaning is checked first
    # bool is an int subclass and stays accepted; the empty sequence too
    assert DimensionSequence((False, True, 2)).values == (False, True, 2)
    assert DimensionSequence(iter([0, 1, 1])).values == (0, 1, 1)
    assert DimensionSequence(()).values == ()


def test_dimension_sequence_container_protocol():
    s = DimensionSequence((1, 2, 4))
    assert len(s) == 3
    assert s[1] == 2
    assert list(s) == [1, 2, 4]


# ---------------------------------------------------------------------------
# ideal normalization and numerators


def test_minimalize_ideal_drops_multiples():
    gens = [(2, 0), (3, 0), (1, 1)]
    assert set(minimalize_ideal(gens)) == {(2, 0), (1, 1)}
    assert minimalize_ideal([]) == ()
    # a unit generator swallows everything
    assert minimalize_ideal([(0, 0), (1, 2)]) == ((0, 0),)


def test_numerator_terms_frozen():
    # single generator: 1 - t^w
    assert numerator_terms([(1,)], (1,)) == {0: 1, 1: -1}
    assert numerator_terms([(1, 1)], (1, 1)) == {0: 1, 2: -1}
    # coprime pair x^2, y^3: (1 - t^2)(1 - t^3)
    assert numerator_terms([(2, 0), (0, 3)], (1, 1)) == {0: 1, 2: -1, 3: -1, 5: 1}
    # overlapping pair xy, xz in three variables
    assert numerator_terms([(1, 1, 0), (1, 0, 1)], (1, 1, 1)) == {0: 1, 2: -2, 3: 1}
    assert numerator_terms([], (1, 2)) == {0: 1}


# ---------------------------------------------------------------------------
# standard monomial counts: brute-force oracle


def _brute_counts(weights, ideal, top):
    counts = [0] * (top + 1)
    ranges = [range(top // w + 1) for w in weights]
    for exps in itertools.product(*ranges):
        wdeg = sum(e * w for e, w in zip(exps, weights))
        if wdeg > top:
            continue
        if any(all(e >= g for e, g in zip(exps, gen)) for gen in ideal):
            continue
        counts[wdeg] += 1
    return counts


IDEAL_FAMILY = [
    # (num vars, degrees or None, ideal generators)
    (1, None, []),
    (1, None, [(3,)]),
    (1, [(2,)], [(4,)]),
    (2, None, []),
    (2, None, [(1, 1)]),
    (2, None, [(2, 0), (0, 3)]),
    (2, None, [(2, 1), (1, 3)]),
    (2, [(1,), (3,)], [(1, 1)]),
    (3, None, [(1, 1, 0), (1, 0, 1)]),
    (3, None, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
    (3, None, [(1, 1, 1)]),
    (3, [(1,), (2,), (3,)], [(1, 1, 0)]),
]


def _random_antichain(rng, k):
    """k pairwise non-dividing monomials in 4 variables of total degree 2..6."""
    candidates = [e for e in itertools.product(range(5), repeat=4) if 2 <= sum(e) <= 6]
    while True:
        chosen = []
        for g in rng.sample(candidates, len(candidates)):
            if len(chosen) < k and not any(all(x <= y for x, y in zip(h, g)) or
                                           all(y <= x for x, y in zip(h, g))
                                           for h in chosen):
                chosen.append(g)
        if len(chosen) == k:
            return chosen


def _random_family(seed):
    """Seeded ideals with 0..24 minimal generators, unweighted and weighted."""
    rng = random.Random(seed)
    out = []
    for k in range(25):
        gens = _random_antichain(rng, k)
        weights = [(w,) for w in rng.sample([1, 1, 2, 3], 4)]
        out += [(4, None, gens), (4, weights, gens)]
    return out


IDEAL_FAMILY += _random_family(1997)


def test_colon_matches_minimalize_ideal():
    rng = random.Random(1992)
    for _ in range(300):
        nvars = rng.randint(1, 5)
        gens = minimalize_ideal([tuple(rng.randint(0, 3) for _ in range(nvars))
                                 for _ in range(rng.randint(0, 12))])
        for pivot in range(nvars):
            lowered = [tuple(e - 1 if i == pivot and e > 0 else e for i, e in enumerate(g))
                       for g in gens]
            colon = _colon(gens, pivot)
            assert len(colon) == len(set(colon)), (gens, pivot)
            assert set(colon) == set(minimalize_ideal(lowered)), (gens, pivot)


def test_colon_by_a_pivot_power_matches_minimalize_ideal():
    rng = random.Random(1993)
    for _ in range(300):
        nvars = rng.randint(1, 5)
        gens = minimalize_ideal([tuple(rng.randint(0, 5) for _ in range(nvars))
                                 for _ in range(rng.randint(1, 12))])
        for pivot in range(nvars):
            exponents = [g[pivot] for g in gens if g[pivot]]
            if not exponents:
                continue
            power = rng.randint(1, min(exponents))
            lowered = [tuple(max(e - power, 0) if i == pivot else e
                             for i, e in enumerate(g)) for g in gens]
            colon = _colon(gens, pivot, power)
            assert len(colon) == len(set(colon)), (gens, pivot, power)
            assert set(colon) == set(minimalize_ideal(lowered)), (gens, pivot, power)


def test_standard_monomial_counts_match_brute_force():
    for nvars, degrees, ideal in IDEAL_FAMILY:
        a = AlgebraSpec.polynomial(nvars, degrees=degrees)
        weights = a.scalar_weights()
        top = 12
        expected = _brute_counts(weights, ideal, top)
        assert standard_monomial_counts(a, ideal, top) == expected, (nvars, ideal)
        acc, cum = 0, []
        for v in expected:
            acc += v
            cum.append(acc)
        assert standard_monomial_counts(a, ideal, top, cumulative=True) == cum


def test_large_ideal_uses_same_counts():
    # the whole degree-5 slice of k[x,y,z] dies, so the quotient is finite
    # dimensional
    a = AlgebraSpec.polynomial(3)
    ideal = [e for e in itertools.product(range(6), repeat=3) if sum(e) == 5]
    assert len(ideal) == 21
    top = 10
    got = standard_monomial_counts(a, ideal, top)
    assert got == _brute_counts((1, 1, 1), ideal, top)
    assert got[5:] == [0] * 6


def test_graded_piece_dim_frozen():
    a = AlgebraSpec.polynomial(2)
    assert graded_piece_dim(a, [(1, 1)], 0) == 1
    for n in range(1, 8):
        assert graded_piece_dim(a, [(1, 1)], n) == 2
    with pytest.raises(ValueError):
        graded_piece_dim(a, [], -1)


# ---------------------------------------------------------------------------
# module dimension sequences


def test_regular_module_of_polynomial_ring_is_binomial():
    for d in (1, 2, 3, 4):
        a = AlgebraSpec.polynomial(d)
        dims = algebra_dim_sequence(a, 15)
        assert dims.meaning == "cumulative"
        for n in range(16):
            assert dims[n] == math.comb(n + d, d)
        for n in range(16):
            assert dims.graded()[n] == math.comb(n + d - 1, d - 1)


def test_summand_shift_delays_the_counts():
    a = AlgebraSpec.polynomial(1)
    shifted = ModuleSpec((Summand(2, ()),))
    dims = module_dim_sequence(a, shifted, 8)
    assert dims.values == (0, 0, 1, 2, 3, 4, 5, 6, 7)


def test_summands_add():
    a = AlgebraSpec.polynomial(2)
    double = ModuleSpec((Summand(0, ()), Summand(0, ())))
    single = module_dim_sequence(a, ModuleSpec.regular(), 10)
    dims = module_dim_sequence(a, double, 10)
    assert dims.values == tuple(2 * v for v in single.values)


def test_laurent_module_counts_two_directions():
    a = AlgebraSpec.weyl(1)
    dims = module_dim_sequence(a, ModuleSpec.laurent(), 9)
    assert dims.values == tuple(2 * n + 1 for n in range(10))


def test_weighted_regular_module_counts():
    a = AlgebraSpec.polynomial(1, degrees=[(2,)])
    dims = algebra_dim_sequence(a, 9)
    assert dims.values == tuple(n // 2 + 1 for n in range(10))


def test_cyclic_quotient_dims():
    a = AlgebraSpec.polynomial(2)
    dims = module_dim_sequence(a, ModuleSpec.cyclic([(1, 0)]), 8)
    # killing x leaves k[y]: cumulative n + 1
    assert dims.values == tuple(n + 1 for n in range(9))


# ---------------------------------------------------------------------------
# Hilbert series


def test_series_of_plane_curve_quotient():
    a = AlgebraSpec.polynomial(2)
    series = hilbert_series_monomial_quotient(a, [(1, 1)])
    assert series.numerator == Polynomial([1, 0, -1])
    assert series.denominator == Polynomial([1, -2, 1])
    assert list(series.expand(8)) == [1, 2, 2, 2, 2, 2, 2, 2]


def test_series_of_free_weighted_line():
    a = AlgebraSpec.polynomial(1, degrees=[(2,)])
    series = hilbert_series_monomial_quotient(a, [])
    assert series.numerator == Polynomial([1])
    assert series.denominator == Polynomial([1, 0, -1])


def test_series_of_two_overlapping_generators():
    a = AlgebraSpec.polynomial(3)
    series = hilbert_series_monomial_quotient(a, [(1, 1, 0), (1, 0, 1)])
    assert series.numerator == Polynomial([1, 0, -2, 1])
    assert series.denominator == Polynomial([1, -1]) ** 3
    got = list(series.expand(12))
    assert got == _brute_counts((1, 1, 1), [(1, 1, 0), (1, 0, 1)], 11)


def test_series_expansion_matches_brute_force_everywhere():
    for nvars, degrees, ideal in IDEAL_FAMILY:
        a = AlgebraSpec.polynomial(nvars, degrees=degrees)
        series = hilbert_series_monomial_quotient(a, ideal)
        top = 14
        assert list(series.expand(top + 1)) == _brute_counts(
            a.scalar_weights(), ideal, top), (nvars, ideal)


def test_series_ignores_redundant_generators():
    a = AlgebraSpec.polynomial(2)
    minimal = hilbert_series_monomial_quotient(a, [(2, 0)])
    redundant = hilbert_series_monomial_quotient(a, [(2, 0), (3, 0), (2, 2)])
    assert minimal.numerator == redundant.numerator
    assert minimal.denominator == redundant.denominator


# ---------------------------------------------------------------------------
# one counting path per module


def _random_module(rng):
    """A weighted ring in 1..3 variables and 1..3 summands with shifts 0..3."""
    nvars = rng.randint(1, 3)
    a = AlgebraSpec.polynomial(nvars, degrees=[(rng.randint(1, 3),) for _ in range(nvars)])
    summands = tuple(
        Summand(rng.randint(0, 3),
                tuple(tuple(rng.randint(0, 3) for _ in range(nvars))
                      for _ in range(rng.randint(0, 3))))
        for _ in range(rng.randint(1, 3)))
    return a, ModuleSpec(summands)


def test_module_counts_series_and_brute_force_agree():
    rng = random.Random(2024)
    top = 12
    for _ in range(60):
        a, m = _random_module(rng)
        brute = [0] * (top + 1)
        for s in m.summands:
            for n, c in enumerate(_brute_counts(a.scalar_weights(), s.ideal, top - s.shift)):
                brute[n + s.shift] += c
        dims = module_dim_sequence(a, m, top)
        assert list(dims.graded()) == brute, m
        assert list(module_hilbert_series(a, m).expand(top + 1)) == brute, m


def test_module_hilbert_series_rejects_two_directional_modules():
    with pytest.raises(ValueError):
        module_hilbert_series(AlgebraSpec.weyl(1), ModuleSpec.laurent())


def test_series_degree_bound_is_inclusive_and_names_its_path():
    # the self-check reaches shift + 2 * (weight of the minimal generators) + 10
    plane = AlgebraSpec.polynomial(2)
    at_bound = ModuleSpec((Summand(SERIES_DEGREE_BOUND - 14, ((1, 1),)),))
    series = module_hilbert_series(plane, at_bound)
    assert series.numerator.degree == SERIES_DEGREE_BOUND - 12
    past = ModuleSpec((Summand(SERIES_DEGREE_BOUND - 13, ((1, 1),)),))
    with pytest.raises(SpecError) as err:
        module_hilbert_series(plane, past)
    assert err.value.path == "module"
    assert str(SERIES_DEGREE_BOUND + 1) in err.value.message
    # the denominator prod(1 - t^w) has degree sum(w); no summand is needed
    heavy = AlgebraSpec.polynomial(2, degrees=[(SERIES_DEGREE_BOUND,), (1,)])
    with pytest.raises(SpecError) as err:
        module_hilbert_series(heavy, ModuleSpec.regular())
    assert err.value.path == "algebra"
    assert str(SERIES_DEGREE_BOUND + 1) in err.value.message
    # counting is not bounded by it: dimensions are read up to the asked degree
    assert list(module_dim_sequence(heavy, ModuleSpec.regular(), 4)) == [1, 2, 3, 4, 5]


def test_each_module_is_counted_once_per_command(tmp_path, monkeypatch):
    free_tops, minimalised = [], []
    divide, minimalize = gkdim.hilbert.divide_by_weights, minimalize_ideal

    def counting(coeffs, weights):
        free_tops.append(len(coeffs) - 1)
        return divide(coeffs, weights)

    def minimalizing(gens):
        minimalised.append(gens)
        return minimalize(gens)

    monkeypatch.setattr(gkdim.hilbert, "divide_by_weights", counting)
    monkeypatch.setattr(gkdim.hilbert, "minimalize_ideal", minimalizing)
    ideals = (["x^2"], ["x*y", "y^3"], ["y^2"])
    summands = [{"shift": k, "ideal": ideal} for k, ideal in enumerate(ideals)]
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x"}, {"name": "y"}]},
           "module": {"summands": summands},
           "ses": {"sub_ideals": [["x"], ["y"], ["y"]]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    k = len(ideals)

    a, m = AlgebraSpec.polynomial(2), ModuleSpec((Summand(0, ()),) * k)
    module_dim_sequence(a, m, 10)
    assert len(free_tops) == 1  # one count for the module, not one per summand

    minimalised.clear()
    assert main(["check-ses", str(path)]) == 0
    assert len(minimalised) == 2 * k  # M and M'', each summand once

    free_tops.clear()
    assert main(["hilbert", str(path)]) == 0
    assert len(free_tops) == 1  # one expansion self-check for the whole module
    # it reaches shift + 2 * (weight of the minimal generators) + 10 for
    # every summand: x^2 weighs 2, xy and y^3 weigh 5, y^2 weighs 2
    assert free_tops[0] >= max(0 + 4, 1 + 10, 2 + 4) + 10


def _counts_reference(a, terms, top, cumulative):
    """_counts as one free count (unbounded-knapsack dynamic programming) and
    one convolution with the numerator, as it was before the kernel."""
    free = [1] + [0] * top
    for w in a.scalar_weights():
        for d in range(w, top + 1):
            free[d] += free[d - w]
    if cumulative:
        acc = 0
        free = [(acc := acc + v) for v in free]
    out = [0] * (top + 1)
    for d, c in terms.items():
        if d <= top:
            for n in range(d, top + 1):
                out[n] += c * free[n - d]
    return out


def test_counts_match_the_free_count_convolution():
    rng = random.Random(77)
    high = 0
    for _ in range(80):
        a, m = _random_module(rng)
        full, _ = _module_numerator(a, m)
        terms = {d: c for d, c in enumerate(full) if c}
        for top in (0, 1, 3, 6, 11):
            high += max(terms, default=0) > top
            dense, _ = _module_numerator(a, m, top)
            for cumulative in (False, True):
                assert _counts(a, dense, cumulative) == \
                    _counts_reference(a, terms, top, cumulative), (m, top)
    assert high > 100  # numerator degrees above top are cut off


# ---------------------------------------------------------------------------
# the dense numerator and graded() against the code they replaced


def _numerator_reference(gens: tuple, weights: tuple) -> dict:
    """The pivot recursion on degree -> coefficient dicts, as it was before
    the dense int lists: the pivot from a per-exponent count, the coprime
    base case by one dict per factor, the colon branch added term by term."""
    counts = [0] * (len(gens[0]) if gens else 0)
    for g in gens:
        for i, e in enumerate(g):
            if e > 0:
                counts[i] += 1
    pivot = max(range(len(counts)), key=counts.__getitem__, default=None)
    if pivot is None or counts[pivot] < 2:
        terms = {0: 1}
        for g in gens:
            d = sum(e * w for e, w in zip(g, weights))
            nxt = {}
            for k, c in terms.items():
                nxt[k] = nxt.get(k, 0) + c
                nxt[k + d] = nxt.get(k + d, 0) - c
            terms = nxt
        return {d: c for d, c in terms.items() if c}
    var_mono = tuple(1 if i == pivot else 0 for i in range(len(weights)))
    plus = tuple(g for g in gens if not g[pivot]) + (var_mono,)
    out = dict(_numerator_reference(plus, weights))
    shift = weights[pivot]
    for d, c in _numerator_reference(_colon(gens, pivot), weights).items():
        out[d + shift] = out.get(d + shift, 0) + c
    return {d: c for d, c in out.items() if c}


def test_dense_numerator_matches_the_dict_recursion():
    rng = random.Random(4242)
    cases = [(tuple(w for (w,) in degrees) if degrees else (1,) * nvars, ideal)
             for nvars, degrees, ideal in IDEAL_FAMILY]
    for _ in range(200):
        nvars = rng.randint(1, 5)
        weights = tuple(rng.choice((1, 1, 2, 3, 5)) for _ in range(nvars))
        if rng.random() < 0.5:
            weights = (1,) * nvars
        cases.append((weights, [tuple(rng.randint(0, 3) for _ in range(nvars))
                                for _ in range(rng.randint(0, 14))]))
    weighted = 0
    for weights, ideal in cases:
        weighted += set(weights) != {1}
        expected = _numerator_reference(minimalize_ideal(ideal), weights)
        assert numerator_terms(ideal, weights) == expected, (weights, ideal)
    assert weighted > 100 and len(cases) - weighted > 100
    # the unit ideal kills everything; the zero ideal keeps the constant 1
    assert numerator_terms([(0, 0), (1, 2)], (1, 1)) == {}
    assert numerator_terms([], (2, 3)) == {0: 1}


def test_module_numerator_matches_the_dict_recursion():
    rng = random.Random(5151)
    for _ in range(80):
        a, m = _random_module(rng)
        weights = a.scalar_weights()
        expected = {}
        for s in m.summands:
            for d, c in _numerator_reference(minimalize_ideal(s.ideal), weights).items():
                expected[d + s.shift] = expected.get(d + s.shift, 0) + c
        dense, reach = _module_numerator(a, m)
        assert len(dense) == reach + 1
        assert {d: c for d, c in enumerate(dense) if c} == \
            {d: c for d, c in expected.items() if c}, m
        # cut after degree top: the reference's coefficients 0..top
        for top in (0, 2, 5, 9):
            dense, _ = _module_numerator(a, m, top)
            assert dense == [expected.get(d, 0) for d in range(top + 1)], (m, top)


def test_numerator_memory_follows_the_degree_asked_for():
    # exponents, weights and shifts of 10^9: counts to degree 30 build lists
    # of at most 31 entries, where a whole numerator would need 10^9
    big = 10 ** 9
    assert _numerator(((big, 0), (0, 2)), (1, 1), 30) == [1, 0, -1] + [0] * 28
    assert _numerator(((1, 1), (2, 0)), (big, 1), 30) == [1] + [0] * 30
    heavy = AlgebraSpec.polynomial(2, degrees=[(big,), (1,)])
    assert standard_monomial_counts(heavy, [(1, 0)], 30) == [1] * 31
    assert standard_monomial_counts(heavy, [(1, 1), (2, 0)], 30) == [1] * 31
    plane = AlgebraSpec.polynomial(2)
    assert standard_monomial_counts(plane, [(big, 0)], 30) == list(range(1, 32))
    far = ModuleSpec((Summand(0, ((1, 1),)), Summand(big, ())))
    assert list(module_dim_sequence(plane, far, 30)) == [2 * n + 1 for n in range(31)]
    with pytest.raises(ValueError):
        numerator_terms([(big, 0)], (1, 1))
    with pytest.raises(SpecError) as err:
        module_hilbert_series(plane, ModuleSpec.cyclic([(big, 0)]))
    assert err.value.path == "module"


def _graded_reference(values: tuple) -> tuple:
    out = [values[0]] if values else []
    out.extend(values[i + 1] - values[i] for i in range(len(values) - 1))
    return tuple(out)


def test_graded_matches_the_index_loop():
    rng = random.Random(6060)
    for length in list(range(6)) + [rng.randint(6, 300) for _ in range(40)]:
        acc, values = 0, []
        for _ in range(length):
            acc += rng.randint(0, 10 ** rng.randint(0, 30))
            values.append(acc)
        graded = DimensionSequence(tuple(values)).graded()
        assert graded.values == _graded_reference(tuple(values))
        assert graded.meaning == "graded_piece"
        assert graded.cumulative().values == tuple(values)


def test_hilbert_reads_graded_dimensions_from_the_self_check(tmp_path, monkeypatch):
    # k[x, y] / (x*y): the self-check reaches 2 * 2 + 10 = 14
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x"}, {"name": "y"}]},
           "module": {"summands": [{"ideal": ["x*y"]}]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    expand, lengths = RationalSeries.expand, []

    def counting(self, n):
        lengths.append(n)
        return expand(self, n)

    monkeypatch.setattr(RationalSeries, "expand", counting)
    for top, expansions in ((3, [15]), (14, [15]), (15, [16]), (40, [41])):
        lengths.clear()
        out = tmp_path / f"{top}.json"
        assert main(["hilbert", str(path), "--max-degree", str(top),
                     "--output", str(out)]) == 0
        assert lengths == expansions, top
        graded = json.loads(out.read_text())["report"]["graded_dimensions"]
        assert graded == [1] + [2] * top, top


# ---------------------------------------------------------------------------
# the growth certificate: gk and e from the numerator at t = 1


def _certificate(a, m):
    return growth_certificate(a, numerator_at_one(a, m))


def _random_unweighted_module(rng):
    """k[x_1..x_n], n in 1..4, with 1..3 summands: shifts 0..3, ideals of up
    to 4 generators with exponents 0..2 (the unit ideal included)."""
    nvars = rng.randint(1, 4)
    summands = tuple(
        Summand(rng.randint(0, 3),
                tuple(tuple(rng.randint(0, 2) for _ in range(nvars))
                      for _ in range(rng.randint(0, 4))))
        for _ in range(rng.randint(1, 3)))
    return AlgebraSpec.polynomial(nvars), ModuleSpec(summands)


def test_certificate_matches_the_difference_tower():
    # on unweighted modules the counts are polynomial past a degree below
    # 40 here, so the tower's fit at depth 80 is the Hilbert-Samuel
    # polynomial: its degree and top binomial coefficient are gk and e
    rng = random.Random(1414)
    zero = 0
    for _ in range(300):
        a, m = _random_unweighted_module(rng)
        fit = detect_polynomial(module_dim_sequence(a, m, 80))
        assert fit is not None, m
        if fit.form.is_zero():
            zero += 1
            assert _certificate(a, m) is None, m
        else:
            assert _certificate(a, m) == (gk_dimension(fit), multiplicity(fit)), m
    assert 0 < zero < 300


def _sympy_growth(weights, m):
    """(gk, e) from the pole of C(t) = p(t) / ((1 - t) prod(1 - t^w)) at
    t = 1, by sympy: C has a pole of order gk + 1 there, and its leading
    Laurent coefficient lim (1 - t)^(gk + 1) C(t) is e. None when p = 0."""
    t = sympy.symbols("t")
    p = sum(t ** (s.shift + d) * c for s in m.summands
            for d, c in numerator_terms(s.ideal, weights).items())
    num = sympy.Poly(p, t)
    den = sympy.Poly((1 - t) * sympy.prod([1 - t ** w for w in weights]), t)
    if num.is_zero:
        return None
    line = sympy.Poly(t - 1, t)
    orders = []
    for poly in (num, den):
        k = 0
        while poly.eval(1) == 0:
            poly, rest = poly.div(line)
            assert rest.is_zero
            k += 1
        orders.append((k, poly.eval(1)))
    (kn, vn), (kd, vd) = orders
    pole = kd - kn
    # (t - 1)^kn / (t - 1)^kd = (-1)^pole (1 - t)^(-pole)
    lead = (-1) ** pole * sympy.Rational(vn) / sympy.Rational(vd)
    return pole - 1, Fraction(int(lead.p), int(lead.q))


def test_certificate_matches_sympy_at_t_equals_one():
    rng = random.Random(5000)
    seen_zero = False
    for _ in range(60):
        nvars = rng.randint(1, 4)
        weights = tuple(rng.randint(1, 5) for _ in range(nvars))
        a = AlgebraSpec.polynomial(nvars, degrees=[(w,) for w in weights])
        summands = tuple(
            Summand(rng.choice((0, rng.randint(0, 40), rng.randint(0, 5000))),
                    tuple(tuple(rng.randint(0, 3) for _ in range(nvars))
                          for _ in range(rng.randint(0, 4))))
            for _ in range(rng.randint(1, 3)))
        m = ModuleSpec(summands)
        want = _sympy_growth(weights, m)
        seen_zero |= want is None
        assert _certificate(a, m) == want, m
    assert seen_zero


def test_counts_and_numerator_at_one_match_brute_force_on_weighted_rings():
    # the chain check compares module_dim_sequence's counts and reads
    # numerator_at_one's coefficients; both against standard monomials
    # enumerated one by one. The numerator is the graded counts times
    # prod(1 - t^w), whole below each shift plus generator weight.
    rng = random.Random(2025)
    for _ in range(80):
        a, m = _random_module(rng)
        weights = a.scalar_weights()
        end = max(s.shift + sum(sum(map(math.prod, zip(g, weights))) for g in s.ideal)
                  for s in m.summands)
        top = rng.randint(0, 30)
        deep = max(top, end)
        brute = [0] * (deep + 1)
        for s in m.summands:
            if s.shift <= deep:
                for n, c in enumerate(_brute_counts(weights, s.ideal, deep - s.shift)):
                    brute[n + s.shift] += c
        assert list(module_dim_sequence(a, m, top).graded()) == brute[:top + 1], (m, top)
        p = brute[:end + 1]
        for w in weights:
            p = [c - (p[i - w] if i >= w else 0) for i, c in enumerate(p)]
        want = tuple(sum(math.comb(i, j) * c for i, c in enumerate(p))
                     for j in range(len(weights) + 1))
        assert numerator_at_one(a, m) == want, m


def test_certificate_on_weighted_rings_matches_progression_fits():
    # on a weighted ring the cumulative counts are a quasi-polynomial of
    # period L = lcm(w); along each progression n = L k + r they are a
    # polynomial in k whose top binomial coefficient is e L^gk
    rng = random.Random(77)
    for _ in range(40):
        a, m = _random_module(rng)
        weights = a.scalar_weights()
        period = math.lcm(*weights)
        counts = module_dim_sequence(a, m, 40 * period).values
        cert = _certificate(a, m)
        for r in range(period):
            fit = detect_polynomial(DimensionSequence(counts[period * 20 + r::period]))
            assert fit is not None, (m, r)
            if cert is None:
                assert fit.form.is_zero(), m
            else:
                gk, e = cert
                assert gk_dimension(fit) == gk, (m, r)
                assert multiplicity(fit) == e * period ** gk, (m, r)


def test_certificate_work_depends_on_no_exponent_or_shift():
    a = AlgebraSpec.polynomial(1)
    assert _certificate(a, ModuleSpec.cyclic([(10 ** 9,)])) == (0, Fraction(10 ** 9))
    shifted = ModuleSpec((Summand(10 ** 12, ()),))
    assert numerator_at_one(a, shifted) == (1, 10 ** 12)
    assert _certificate(a, shifted) == (1, Fraction(1))
    # a colon by x alone would recurse 3000 levels deep here: x^3000 y^b and
    # x^3000 z^c for b, c >= 1 lie outside the ideal only below x^3000, and
    # the x-axis is free, so e = 3000 + 3000 + 1
    a = AlgebraSpec.polynomial(3)
    m = ModuleSpec.cyclic([(3000, 1, 0), (3000, 0, 1), (0, 1, 1)])
    assert _certificate(a, m) == (1, Fraction(6001))


def test_certificate_refuses_a_laurent_module():
    with pytest.raises(ValueError):
        numerator_at_one(AlgebraSpec.weyl(1), ModuleSpec.laurent())
