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
minimalisation per summand, one numerator_terms walk per distinct minimal
ideal and one expansion per series, to the degree asked for, whose self-check
covers min(top, deg p + 10) + 1 coefficients and fires on a wrong running
sum; a weight sum past the series degree bound is refused before any walk. The kernel-based counts are compared with the free count and
convolution they replaced, the one numerator recursion with the dict
recursion that split off x alone (also on seeded ideals in up to 12
variables, where pending factors pile up), with the dense-list recursion
cut after a degree and with the recursion in powers of t - 1 that it
replaced (also by a hypothesis property test on exponents up to 10^6 and
shifts up to 10^12), and graded() with its index loop, all kept below as
references, and the DimensionSequence validators by the messages they
raise. The module reader is checked against the dict recursion also on
modules presenting one ideal at several shifts on both sides of a cut.

The growth certificate (gk and e from the numerator at t = 1) is checked
against three oracles: the difference tower on unweighted modules, sympy's
pole order and leading Laurent coefficient at t = 1 on weighted modules
with shifts up to 5000, and tower fits along the residue classes of the
period on weighted modules whose counts the brute-force oracle vouches for.
The growth analyze certifies from the exact series (samuel.certified_growth)
is checked against counts from the dense numerator reference: its
Hilbert-Samuel polynomial and least stabilization index on unweighted
presentations, where the difference tower must fit the same polynomial once
its window lies past that index (a derandomized hypothesis test), and its
polynomial or quasi-polynomial branches on weighted rings.
"""

from fractions import Fraction
import itertools
import json
import math
import operator
import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkdim.exactnum import Polynomial
from gkdim.poincare import RationalSeries
import gkdim.hilbert
import gkdim.poincare
import gkdim.samuel
from gkdim import cli
from gkdim.cli import main
from gkdim.exactnum import _samuel_fit
from gkdim.hilbert import (MEANINGS, SERIES_DEGREE_BOUND, DimensionSequence,
                           _colon, _dense, _module_terms, _numerator_at_one,
                           algebra_dim_sequence, growth_certificate,
                           hilbert_series_monomial_quotient,
                           minimalize_ideal, module_dim_sequence,
                           module_hilbert_series, numerator_terms,
                           presented_series, standard_monomial_counts)
from gkdim.presentations import (AlgebraSpec, ModuleSpec, SpecError, Summand,
                                 divide_by_weights, validate_module)
from gkdim.samuel import (certified_growth, detect_polynomial, gk_dimension,
                          multiplicity)

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


def test_counts_with_exponents_up_to_nine_match_brute_force():
    # the recursion splits off x^m, m the pivot's least positive exponent,
    # so both branches see powers above 1
    rng = random.Random(909)
    top = 20
    for _ in range(30):
        nvars = rng.randint(1, 3)
        weights = tuple(rng.choice((1, 1, 2, 3)) for _ in range(nvars))
        a = AlgebraSpec.polynomial(nvars, degrees=[(w,) for w in weights])
        ideal = [tuple(rng.randint(0, 9) for _ in range(nvars))
                 for _ in range(rng.randint(1, 6))]
        assert standard_monomial_counts(a, ideal, top) == _brute_counts(weights, ideal, top), (
            weights, ideal)


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
    # (1 + t) / (1 - t) is no polynomial over the empty prod(1 - t^w)
    with pytest.raises(SpecError) as err:
        module_hilbert_series(AlgebraSpec.polynomial(0), ModuleSpec.laurent())
    assert err.value.path == "module.negative_shift"


def test_series_degree_bound_is_inclusive_and_names_its_path():
    # the bound is on the numerator's degree: t^s (1 - t^2) has degree s + 2
    plane = AlgebraSpec.polynomial(2)
    for shift in (SERIES_DEGREE_BOUND - 14, SERIES_DEGREE_BOUND - 13, SERIES_DEGREE_BOUND - 2):
        series = module_hilbert_series(plane, ModuleSpec((Summand(shift, ((1, 1),)),)))
        assert series.numerator.degree == shift + 2
    past = ModuleSpec((Summand(SERIES_DEGREE_BOUND - 1, ((1, 1),)),))
    with pytest.raises(SpecError) as err:
        module_hilbert_series(plane, past)
    assert err.value.path == "module"
    assert err.value.message == (f"the series numerator has degree {SERIES_DEGREE_BOUND + 1}, "
                                 f"above the bound {SERIES_DEGREE_BOUND}")
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
    # one expansion for the whole module, to the printed degree 30 alone
    assert free_tops == [30]


def test_each_distinct_ideal_is_walked_once_per_module(tmp_path, monkeypatch):
    walks = []
    walk = gkdim.hilbert.numerator_terms

    def counting(gens, weights, top=None):
        walks.append(gens)
        return walk(gens, weights, top)

    monkeypatch.setattr(gkdim.hilbert, "numerator_terms", counting)
    # summands share a walk when their minimal ideals agree, whatever the
    # shifts or the generators listed; M'' presents one sub-ideal, x
    for ideals, distinct in (([["x*y", "x^3"]] * 3, 1),
                             ([["x*y", "x^3"], ["x^3", "x*y", "x^4"], ["x*y", "x^3"]], 1),
                             ([["x*y", "x^3"], ["x^2"], ["x*y", "x^3"]], 2)):
        doc = {"spec_version": 1,
               "algebra": {"kind": "polynomial",
                           "generators": [{"name": "x"}, {"name": "y"}]},
               "module": {"summands": [{"shift": k, "ideal": ideal}
                                       for k, ideal in enumerate(ideals)]},
               "ses": {"sub_ideals": [["x"]] * len(ideals)}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        for command, walked in (("hilbert", distinct), ("poincare", distinct),
                                ("analyze", distinct), ("classify", distinct),
                                ("check-ses", distinct + 1)):
            walks.clear()
            assert main([command, str(path)]) == 0, command
            assert len(walks) == walked, (command, ideals)


def test_each_presentation_command_walks_once_and_reduces_at_most_once(
        tmp_path, monkeypatch):
    # hilbert, poincare and analyze read one head (presented_series): a
    # 3-summand module with 2 distinct ideals is walked twice and reduced at
    # most once per report; analyze on an unweighted ring reduces nothing,
    # its Hilbert-Samuel polynomial coming from the Taylor coefficients
    walks, reductions = [], []
    walk, reduce = gkdim.hilbert.numerator_terms, gkdim.poincare._reduce

    def counting(gens, weights, top=None):
        walks.append(gens)
        return walk(gens, weights, top)

    def reducing(*args):
        reductions.append(args)
        return reduce(*args)

    monkeypatch.setattr(gkdim.hilbert, "numerator_terms", counting)
    for module in (gkdim.hilbert, gkdim.samuel, cli):
        if hasattr(module, "_reduce"):
            monkeypatch.setattr(module, "_reduce", reducing)
    ideals = (["x*y", "x^3"], ["x^2"], ["x^3", "x*y"])
    for weights, analyzed in (((1, 1), 0), ((2, 3), 1)):
        doc = {"spec_version": 1,
               "algebra": {"kind": "polynomial",
                           "generators": [{"name": name, "degree": [w]}
                                          for name, w in zip("xy", weights)]},
               "module": {"summands": [{"shift": k, "ideal": ideal}
                                       for k, ideal in enumerate(ideals)]}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        for command, reduced in (("hilbert", 1), ("poincare", 1), ("analyze", analyzed)):
            walks.clear()
            reductions.clear()
            assert main([command, str(path)]) == 0, command
            assert (len(walks), len(reductions)) == (2, reduced), (command, weights)


def test_the_weight_sum_is_refused_before_any_walk(tmp_path, monkeypatch, capsys):
    # the walk is bounded by its nodes whatever the shift: with a node bound
    # the staircase x^2, xy, y^2 passes, hilbert names the walk's refusal at
    # shift 0 and at shift 10^6 alike; a weight sum past SERIES_DEGREE_BOUND
    # is read off the input and refused before any walk
    monkeypatch.setattr(gkdim.hilbert, "PIVOT_NODE_BOUND", 2)
    walks = []
    walk = gkdim.hilbert.numerator_terms

    def counting(gens, weights, top=None):
        walks.append(gens)
        return walk(gens, weights, top)

    monkeypatch.setattr(gkdim.hilbert, "numerator_terms", counting)
    heavy = [{"name": "x", "degree": [SERIES_DEGREE_BOUND]}, {"name": "y"}]
    plane = [{"name": "x"}, {"name": "y"}]
    for generators, shift, message in (
            (plane, 0, "module: the pivot recursion needs more than 2 nodes"),
            (plane, 10 ** 6, "module: the pivot recursion needs more than 2 nodes"),
            (heavy, 0, f"algebra: the generator weights sum to {SERIES_DEGREE_BOUND + 1}")):
        doc = {"spec_version": 1,
               "algebra": {"kind": "polynomial", "generators": generators},
               "module": {"summands": [{"shift": shift, "ideal": ["x^2", "x*y", "y^2"]}]}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        walks.clear()
        assert main(["hilbert", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {message}"), shift
        assert len(walks) == (generators is plane), shift


def _counts_reference(a, terms, top, cumulative):
    """The counts of a numerator as one free count (unbounded-knapsack
    dynamic programming) and one convolution with the numerator, as it was
    before the kernel."""
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
        weights = a.scalar_weights()
        terms = _module_terms(a, m, "module")
        for top in (0, 1, 3, 6, 11):
            high += max(terms, default=0) > top
            dense = _dense(_module_terms(a, m, "module", top), top + 1)
            for cumulative in (False, True):
                assert divide_by_weights(dense, weights + (1,) if cumulative else weights) \
                    == _counts_reference(a, terms, top, cumulative), (m, top)
            assert list(module_dim_sequence(a, m, top)) == \
                _counts_reference(a, terms, top, True), (m, top)
    assert high > 100  # numerator degrees above top are cut off


# ---------------------------------------------------------------------------
# the numerator recursion and graded() against the code they replaced


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


def _dense_reference(gens: tuple, weights: tuple, top: int) -> list:
    """numerator_terms cut after degree top, as it was computed on dense int
    lists before the one recursion: at most top + 1 entries, possibly with
    trailing zeros, for minimal generators `gens`."""
    counts = [len(col) - col.count(0) for col in zip(*gens)]
    most = max(counts, default=0)
    if most < 2:
        # pairwise coprime generators: times (1 - t^d) per generator, in place
        # from the top index down; a factor of degree above top is 1
        degrees = [sum(map(operator.mul, g, weights)) for g in gens]
        c = [1] + [0] * min(sum(degrees), top)
        filled = 0
        for d in degrees:
            filled = min(filled + d, top)
            for i in range(filled, d - 1, -1):
                c[i] -= c[i - d]
        return c
    pivot = counts.index(most)
    power = min([g[pivot] for g in gens if g[pivot]])
    var_mono = tuple(power if i == pivot else 0 for i in range(len(weights)))
    out = _dense_reference(tuple(g for g in gens if not g[pivot]) + (var_mono,), weights, top)
    shift = power * weights[pivot]
    if shift <= top:
        low = _dense_reference(_colon(gens, pivot, power), weights, top - shift)
        end = shift + len(low)
        out.extend([0] * (end - len(out)))
        out[shift:end] = map(operator.add, out[shift:end], low)
    return out


def _taylor_reference(gens: tuple, weights: tuple, order: int) -> list:
    """The numerator in powers of u = t - 1, c_j = sum_i C(i, j) p_i for
    j = 0..order, as it was computed before the one recursion: the same
    pivot split read at t = 1, where a shift t^d is a product with the
    binomials C(d, j) and a coprime factor 1 - t^d = -u (d + C(d, 2) u + ...)
    raises the order of vanishing by one."""
    counts = [len(col) - col.count(0) for col in zip(*gens)]
    most = max(counts, default=0)
    if most < 2:
        rest = order - len(gens)
        if rest < 0:
            return [0] * (order + 1)
        q = [1] + [0] * rest
        for g in gens:
            d = sum(map(operator.mul, g, weights))
            factor = [math.comb(d, j) for j in range(1, rest + 2)]
            q = [sum(map(operator.mul, factor, q[k::-1])) for k in range(rest + 1)]
        return [0] * len(gens) + ([-c for c in q] if len(gens) % 2 else q)
    pivot = counts.index(most)
    power = min(g[pivot] for g in gens if g[pivot])
    var_mono = tuple(power if i == pivot else 0 for i in range(len(weights)))
    out = _taylor_reference(tuple(g for g in gens if not g[pivot]) + (var_mono,),
                            weights, order)
    low = _taylor_reference(_colon(gens, pivot, power), weights, order)
    return list(map(operator.add, out, _times_t_power_reference(low, power * weights[pivot])))


def _times_t_power_reference(c: list, d: int) -> list:
    """t^d times the series c in powers of u = t - 1, cut after len(c)
    terms: t^d = sum_j C(d, j) u^j."""
    if not d:
        return c
    binomials = [math.comb(d, j) for j in range(len(c))]
    return [sum(map(operator.mul, binomials, c[k::-1])) for k in range(len(c))]


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
        minimal = minimalize_ideal(ideal)
        expected = _numerator_reference(minimal, weights)
        assert numerator_terms(ideal, weights) == expected, (weights, ideal)
        assert numerator_terms(minimal, weights) == expected, (weights, ideal)
        # cut after top: the dense reference's coefficients 0..top
        for top in (0, 2, 5, 9):
            dense = _dense_reference(minimal, weights, top)
            assert numerator_terms(minimal, weights, top) == \
                {d: c for d, c in enumerate(dense) if c}, (weights, ideal, top)
    assert weighted > 100 and len(cases) - weighted > 100
    # deep trees: 20 to 40 generators (not the unit) in 8 to 12 variables of
    # weights 1 to 3, where the pending factors of several pivot powers pile
    # up under a node
    for _ in range(16):
        nvars = rng.randint(8, 12)
        weights = tuple(rng.randint(1, 3) for _ in range(nvars))
        gens = [tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(nvars))
                for _ in range(rng.randint(20, 40))]
        minimal = minimalize_ideal([g for g in gens if any(g)])
        assert numerator_terms(minimal, weights) == _numerator_reference(minimal, weights), \
            (weights, minimal)
        for top in range(0, 31, 3):
            dense = _dense_reference(minimal, weights, top)
            assert numerator_terms(minimal, weights, top) == \
                {d: c for d, c in enumerate(dense) if c}, (weights, minimal, top)
    # the unit ideal kills everything; the zero ideal keeps the constant 1
    assert numerator_terms([(0, 0), (1, 2)], (1, 1)) == {}
    assert numerator_terms([], (2, 3)) == {0: 1}


def _repeated_module(rng):
    """A weighted ring in 1..3 variables and one ideal presented by 2 or 3
    summands at shifts 0..12, beside 0..1 other summands."""
    a, m = _random_module(rng)
    ideal = m.summands[0].ideal
    repeated = tuple(Summand(rng.randint(0, 12), ideal) for _ in range(rng.randint(2, 3)))
    return a, ModuleSpec(repeated + m.summands[1:2])


def test_module_numerator_matches_the_dict_recursion():
    rng = random.Random(5151)
    above = 0
    for k in range(160):
        a, m = (_random_module if k % 2 else _repeated_module)(rng)
        weights = a.scalar_weights()
        expected = {}
        for s in m.summands:
            for d, c in _numerator_reference(minimalize_ideal(s.ideal), weights).items():
                expected[d + s.shift] = expected.get(d + s.shift, 0) + c
        expected = {d: c for d, c in expected.items() if c}
        assert _module_terms(a, m, "module") == expected, m
        p = presented_series(a, m).p
        assert {d: c for d, c in enumerate(p) if c} == expected, m
        # cut after degree top: the reference's terms of degree 0..top, also
        # where a repeated ideal has shifts on both sides of top
        for top in (0, 2, 5, 9):
            shifts = [s.shift for s in m.summands]
            above += min(shifts) <= top < max(shifts)
            assert _module_terms(a, m, "module", top) == \
                {d: c for d, c in expected.items() if d <= top}, (m, top)
    assert above > 50


def test_numerator_memory_follows_the_degree_asked_for(monkeypatch):
    # exponents, weights and shifts of 10^9: counts to degree 30 build lists
    # of at most 31 entries, where a whole numerator would need 10^9
    big = 10 ** 9
    assert numerator_terms(((big, 0), (0, 2)), (1, 1), 30) == {0: 1, 2: -1}
    assert numerator_terms(((1, 1), (2, 0)), (big, 1), 30) == {0: 1}
    heavy = AlgebraSpec.polynomial(2, degrees=[(big,), (1,)])
    assert standard_monomial_counts(heavy, [(1, 0)], 30) == [1] * 31
    assert standard_monomial_counts(heavy, [(1, 1), (2, 0)], 30) == [1] * 31
    plane = AlgebraSpec.polynomial(2)
    assert standard_monomial_counts(plane, [(big, 0)], 30) == list(range(1, 32))
    far = ModuleSpec((Summand(0, ((1, 1),)), Summand(big, ())))
    assert list(module_dim_sequence(plane, far, 30)) == [2 * n + 1 for n in range(31)]
    # uncut, the size follows the distinct degrees, not an exponent
    assert numerator_terms([(big, 0)], (1, 1)) == {0: 1, big: -1}
    with pytest.raises(SpecError) as err:
        module_hilbert_series(plane, ModuleSpec.cyclic([(big, 0)]))
    assert err.value.path == "module"
    # past SERIES_DEGREE_BOUND distinct degrees an uncut numerator is refused;
    # x^2, xy, y^2 collects the degrees 0..3 on its way to 1 - 3t^2 + 2t^3
    staircase = [(2, 0), (1, 1), (0, 2)]
    monkeypatch.setattr(gkdim.hilbert, "SERIES_DEGREE_BOUND", 3)
    with pytest.raises(ValueError, match="more than 3 distinct degrees"):
        numerator_terms(staircase, (1, 1))
    assert numerator_terms(staircase, (1, 1), 2) == {0: 1, 2: -3}
    with pytest.raises(SpecError) as err:
        _at_one_of(plane, ModuleSpec.cyclic(staircase))
    assert err.value.path == "module"
    assert "more than 3 distinct degrees" in err.value.message
    monkeypatch.setattr(gkdim.hilbert, "SERIES_DEGREE_BOUND", 4)
    assert numerator_terms(staircase, (1, 1)) == {0: 1, 2: -3, 3: 2}


def test_a_coprime_leaf_grows_with_its_distinct_degrees():
    # the maximal ideal of 30 variables is one pairwise coprime leaf: its
    # numerator (1 - t)^30 has 31 terms, not the 2^30 products of its factors
    n = 30
    maximal = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    space = AlgebraSpec.polynomial(n)
    assert numerator_terms(maximal, (1,) * n) == \
        {d: (-1) ** d * math.comb(n, d) for d in range(n + 1)}
    assert _at_one_of(space, ModuleSpec.cyclic(maximal)) == (0,) * n + (1,)
    assert standard_monomial_counts(space, maximal, 5) == [1, 0, 0, 0, 0, 0]
    # with weights 1, 2, 4, ... every product has its own degree: cut, the
    # leaf keeps degrees 0..top; uncut, it is refused once it passes the bound
    doubling = tuple(2 ** i for i in range(n))
    assert len(numerator_terms(maximal, doubling, 1000)) == 1001
    with pytest.raises(ValueError, match="distinct degrees"):
        numerator_terms(maximal, doubling)


@st.composite
def _wide_modules(draw):
    """(weights, summands, top): 1..4 variables of weight 1..5, and 1..3
    summands with shifts up to 10^12 and up to 5 generators whose exponents
    are mostly 0..3, some up to 10^6; top is 0..20, so that cuts
    often fall inside the numerators."""
    nvars = draw(st.integers(1, 4))
    weights = tuple(draw(st.lists(st.integers(1, 5), min_size=nvars, max_size=nvars)))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 3), st.integers(0, 10 ** 6))
    ideal = st.lists(st.tuples(*[exponent] * nvars), max_size=5)
    shift = st.one_of(st.integers(0, 5), st.integers(0, 10 ** 12))
    summands = draw(st.lists(st.tuples(shift, ideal), min_size=1, max_size=3))
    return weights, summands, draw(st.integers(0, 20))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_wide_modules())
def test_the_one_recursion_matches_the_dense_and_taylor_references(case):
    weights, summands, top = case
    a = AlgebraSpec.polynomial(len(weights), degrees=[(w,) for w in weights])
    m = ModuleSpec(tuple(Summand(shift, tuple(ideal)) for shift, ideal in summands))
    dense = [0] * (top + 1)
    taylor = [0] * (len(weights) + 1)
    for shift, ideal in summands:
        minimal = minimalize_ideal(ideal)
        cut = _dense_reference(minimal, weights, top)
        assert numerator_terms(minimal, weights, top) == \
            {d: c for d, c in enumerate(cut) if c}, (weights, ideal, top)
        for d, c in enumerate(cut[:max(top + 1 - shift, 0)]):
            dense[shift + d] += c
        low = _taylor_reference(minimal, weights, len(weights))
        taylor = list(map(operator.add, taylor, _times_t_power_reference(low, shift)))
    assert _module_terms(a, m, "module", top) == \
        {d: c for d, c in enumerate(dense) if c}, (m, top)
    assert _at_one_of(a, m) == tuple(taylor), m


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
    # k[x, y] / (x*y): the numerator 1 - t^2 has degree 2, so the self-check
    # covers degrees 0..min(top, 2 + 10)
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x"}, {"name": "y"}]},
           "module": {"summands": [{"ideal": ["x*y"]}]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    # the shared kernel of RationalSeries.expand, which hilbert calls on int
    # lists to degree 12 at most: the graded dimensions are the running sums
    # it checks, and those past it
    expand, lengths = gkdim.hilbert._expansion, []

    def counting(p, q, n):
        lengths.append(n)
        return expand(p, q, n)

    monkeypatch.setattr(gkdim.hilbert, "_expansion", counting)
    for top, expansions in ((3, [4]), (14, [13]), (15, [13]), (40, [13])):
        lengths.clear()
        out = tmp_path / f"{top}.json"
        assert main(["hilbert", str(path), "--max-degree", str(top),
                     "--output", str(out)]) == 0
        assert lengths == expansions, top
        graded = json.loads(out.read_text())["report"]["graded_dimensions"]
        assert graded == [1] + [2] * top, top


def test_the_self_check_catches_a_wrong_running_sum(tmp_path, monkeypatch, capsys):
    # k[x, y] / (x*y) to degree 30: one running sum off by one at degree 12,
    # the last the self-check covers (deg p + 10), is an internal error of
    # hilbert and poincare alike; at degree 13 it is past the check, and
    # hilbert prints it
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x"}, {"name": "y"}]},
           "module": {"summands": [{"ideal": ["x*y"]}]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    divide = gkdim.hilbert.divide_by_weights

    def off_by_one_at(degree):
        def wrong(coeffs, weights):
            out = divide(coeffs, weights)
            out[degree] += 1
            return out
        monkeypatch.setattr(gkdim.hilbert, "divide_by_weights", wrong)

    off_by_one_at(12)
    for command in ("hilbert", "poincare"):
        capsys.readouterr()
        assert main([command, str(path)]) == 4, command
        assert capsys.readouterr().err == (
            "error: internal: RuntimeError: internal error: series expansion "
            "disagrees with direct counts\n"), command
    off_by_one_at(13)
    capsys.readouterr()
    assert main(["hilbert", str(path)]) == 0
    graded = json.loads(capsys.readouterr().out)["report"]["graded_dimensions"]
    assert graded == [1] + [2] * 12 + [3] + [2] * 17
    # poincare without branches to check (the Weyl algebra of rank 250, which
    # the one branch rule refuses) expands only the checked prefix, 0..deg p
    # + 10, and the check still covers it; analyze on a weighted ring builds
    # p and q, so its counts are checked too
    weyl = tmp_path / "weyl.json"
    weyl.write_text(json.dumps({"spec_version": 1,
                                "algebra": {"kind": "weyl", "weyl_rank": 250}}))
    weighted = tmp_path / "weighted.json"
    weighted.write_text(json.dumps(dict(doc, algebra={
        "kind": "polynomial", "generators": [{"name": "x", "degree": [2]}, {"name": "y"}]})))
    off_by_one_at(10)
    for command, spec in (("poincare", weyl), ("analyze", weighted)):
        capsys.readouterr()
        assert main([command, str(spec), "--max-degree", "5000"]) == 4, command
        assert "series expansion disagrees with direct counts" in capsys.readouterr().err


@st.composite
def _weighted_presentations(draw):
    """(weights, summands): k[x_1..x_n], n in 1..3, weights 1..3, and 1..3
    summands with shifts 0..4 and ideals of up to 3 monomials, exponents
    0..2, the unit ideal (a zero summand) included."""
    nvars = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars))
    monomial = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars)
    summand = st.tuples(st.integers(0, 4), st.lists(monomial, max_size=3))
    return weights, draw(st.lists(summand, min_size=1, max_size=3))


def _hilbert_doc(weights, summands) -> dict:
    names = [f"x{i + 1}" for i in range(len(weights))]

    def text(g):
        return "*".join(f"{n}^{e}" for n, e in zip(names, g) if e) or "1"

    return {"spec_version": 1,
            "algebra": {"kind": "polynomial",
                        "generators": [{"name": n, "degree": [w]}
                                       for n, w in zip(names, weights)]},
            "module": {"summands": [{"shift": shift, "ideal": [text(g) for g in ideal]}
                                    for shift, ideal in summands]}}


@settings(derandomize=True, max_examples=80, deadline=None)
@example(([1, 1], [(0, [[1, 1]])]))  # k[x, y]/(xy): p and q share 1 - t
@example(([2, 3], [(0, [])]))  # the regular module: 1 / q, coprime
@example(([1, 2], [(3, [[0, 0]])]))  # the zero module: p = 0
@given(_weighted_presentations())
def test_hilbert_report_series_are_the_library_series(tmp_path_factory, case):
    # the hilbert command keeps its series in int lists; they render as the
    # library's RationalSeries and its reduced() form do
    doc = _hilbert_doc(*case)
    tmp = tmp_path_factory.mktemp("series")
    path, out = tmp / "spec.json", tmp / "report.json"
    path.write_text(json.dumps(doc))
    assert main(["hilbert", str(path), "--output", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    parsed = cli.parse_spec(doc)
    series = module_hilbert_series(parsed.algebra, parsed.module)
    assert report["series"] == cli._series_payload(series)
    assert report["reduced"] == cli._series_payload(series.reduced())
    if all([0] * len(case[0]) in ideal for _, ideal in case[1]):
        assert report["reduced"] == {"numerator": [], "denominator": [[1, 1]]}


# ---------------------------------------------------------------------------
# the growth certificate: gk and e from the numerator at t = 1


def _at_one_of(a, m):
    """The Taylor coefficients at t = 1 of a module's Hilbert numerator, as
    every certificate path reads them: validated, then read uncut."""
    validate_module(a, m)
    return _numerator_at_one(a, m, "module")


def _certificate(a, m):
    return growth_certificate(a, _at_one_of(a, m))


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
            for d, c in _numerator_reference(minimalize_ideal(s.ideal), weights).items())
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
    # _numerator_at_one's coefficients; both against standard monomials
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
        assert _at_one_of(a, m) == want, m


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
    assert _at_one_of(a, shifted) == (1, 10 ** 12)
    assert _certificate(a, shifted) == (1, Fraction(1))
    # a colon by x alone would recurse 3000 levels deep here: x^3000 y^b and
    # x^3000 z^c for b, c >= 1 lie outside the ideal only below x^3000, and
    # the x-axis is free, so e = 3000 + 3000 + 1
    a = AlgebraSpec.polynomial(3)
    m = ModuleSpec.cyclic([(3000, 1, 0), (3000, 0, 1), (0, 1, 1)])
    assert _certificate(a, m) == (1, Fraction(6001))


def test_certificate_refuses_a_laurent_module():
    # only over a ring without generators: elsewhere the Laurent part has
    # the numerator (1 + t) prod(1 - t^w) / (1 - t)
    bare, laurent = AlgebraSpec.polynomial(0), ModuleSpec.laurent()
    with pytest.raises(SpecError) as err:
        validate_module(bare, laurent)
    assert err.value.path == "module.negative_shift"
    with pytest.raises(SpecError) as err:
        certified_growth(bare, laurent, 5)
    assert err.value.path == "module.negative_shift"


# ---------------------------------------------------------------------------
# certified growth: the Hilbert-Samuel polynomial from the exact series


def _samuel_form_reference(coefficients) -> list:
    """a_i = sum_(j >= r) (-1)^j c_j C(n - j, i) for i = 0..n - r, as the
    double sum over every Taylor coefficient c_r..c_n, zero or not, with
    math.comb for each binomial."""
    n = len(coefficients) - 1
    r = next(j for j, c in enumerate(coefficients) if c)
    return [sum((-1) ** j * coefficients[j] * math.comb(n - j, i) for j in range(r, n + 1))
            for i in range(n - r + 1)]


def test_samuel_fit_matches_the_double_sum():
    rng = random.Random(1729)
    for _ in range(400):
        n = rng.randint(0, 14)
        coefficients = [rng.choice((0, 0, rng.randint(-10 ** 6, 10 ** 6)))
                        for _ in range(n + 1)]
        coefficients[rng.randint(0, n)] = rng.choice((-1, 1)) * rng.randint(1, 10 ** 30)
        degree = rng.randint(0, 30)
        form, least = _samuel_fit(coefficients, degree)
        assert form == _samuel_form_reference(coefficients)
        assert least == max(0, degree - n)



def _reference_cumulative(weights, summands, top: int) -> list:
    """Cumulative counts 0..top of a sum of shifted monomial quotients, from
    the dense numerator reference cut at top, divided by prod(1 - t^w) and
    by (1 - t) with index loops."""
    c = [0] * (top + 1)
    for shift, ideal in summands:
        if shift <= top:
            for d, v in enumerate(_dense_reference(minimalize_ideal(ideal), weights,
                                                   top - shift)):
                c[shift + d] += v
    for w in weights + (1,):
        for i in range(w, top + 1):
            c[i] += c[i - w]
    return c


@st.composite
def _unweighted_presentations(draw):
    """(number of variables, summands): 2..4 variables of weight 1, 1..3
    summands with shifts 0..3 and up to 4 generators with exponents 0..3."""
    nvars = draw(st.integers(2, 4))
    ideal = st.lists(st.tuples(*[st.integers(0, 3)] * nvars), max_size=4)
    return nvars, draw(st.lists(st.tuples(st.integers(0, 3), ideal), min_size=1, max_size=3))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_unweighted_presentations())
def test_certified_growth_matches_the_counts_and_the_tower(case):
    # a numerator here has degree at most 3 + 3 * 4, so the counts are
    # polynomial from index 11 on at the latest, and 40 degrees pin it
    nvars, summands = case
    weights = (1,) * nvars
    a = AlgebraSpec.polynomial(nvars)
    m = ModuleSpec(tuple(Summand(shift, tuple(ideal)) for shift, ideal in summands))
    deep = _reference_cumulative(weights, summands, 40)
    graded, cumulative, growth = certified_growth(a, m, 16)
    assert cumulative == deep[:17], case
    assert graded == deep[:1] + [y - x for x, y in zip(deep[:16], deep[1:17])], case
    fit = growth.hilbert_samuel
    start = fit.stabilization_index
    values = [fit.form.evaluate(n) for n in range(41)]
    assert values[start:] == deep[start:], case
    assert start == 0 or values[start - 1] != deep[start - 1], case
    assert (growth.gk, growth.multiplicity) == (gk_dimension(fit), multiplicity(fit)), case
    assert growth.classification == ("polynomial" if growth.gk else "finite_dimensional")
    assert growth.flags == () and growth.quasi is None, case
    # the tower fits the same polynomial wherever its window, the last
    # gk + 6 samples, lies past the stabilization index
    for depth in range(16, 41):
        if depth + 1 - gk_dimension(fit) - 6 >= start:
            assert detect_polynomial(DimensionSequence(tuple(deep[:depth + 1]))) == fit, \
                (case, depth)


def test_certified_growth_on_weighted_rings_matches_the_counts():
    # the reduced cumulative series gives a Hilbert-Samuel polynomial when
    # its denominator is a power of 1 - t, and certified branches otherwise;
    # both agree with the dense counts from their index on, far past the
    # fitted length, and say nothing about the depth asked for
    rng = random.Random(2020)
    kinds = set()
    for _ in range(60):
        a, m = _random_module(rng)
        weights = a.scalar_weights()
        summands = [(s.shift, s.ideal) for s in m.summands]
        deep = _reference_cumulative(weights, summands, 300)
        graded, cumulative, growth = certified_growth(a, m, 20)
        assert cumulative == deep[:21], m
        assert certified_growth(a, m, 40)[2] == growth, m
        cert = _certificate(a, m)
        assert (growth.gk, growth.multiplicity) == (cert or (0, Fraction(0))), m
        if growth.hilbert_samuel is not None:
            kinds.add("polynomial")
            fit = growth.hilbert_samuel
            start = fit.stabilization_index
            values = [fit.form.evaluate(n) for n in range(301)]
            assert values[start:] == deep[start:], m
            assert start == 0 or values[start - 1] != deep[start - 1], m
            assert growth.quasi is None, m
        else:
            kinds.add("quasi")
            qp = growth.quasi
            for n in range(qp.onset, 301):
                assert qp.branches[n % qp.period].evaluate(n) == deep[n], (m, n)
            assert max(b.degree for b in qp.branches) == growth.gk, m
            # in lowest terms: a series whose counts are one polynomial
            # from some index on reduces to a power of 1 - t
            assert growth.series.reduced() is growth.series, m
            assert any(b != qp.branches[0] for b in qp.branches), m
    assert kinds == {"polynomial", "quasi"}
