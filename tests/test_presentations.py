"""Algebra and module presentations.

What is verified, and against what:

* Weyl normal ordering -- against an independent differential-operator
  oracle (x_i acts as multiplication by x_i, y_i as d/dx_i on polynomials),
  plus the multiplicativity of normal ordering over word concatenation.
* The quantum-affine inversion scalar -- against a bubble-sort oracle that
  rewrites one adjacent inversion at a time.
* Weighted monomial counting and the divide_by_weights kernel -- against
  brute-force enumeration.
* Admissible orders, weight re-filtering, and the presentation validators --
  frozen examples and error paths.
"""

from fractions import Fraction
import itertools
import math
import random

import pytest

from gkdim.presentations import (AdmissibleOrder, AlgebraSpec, ModuleSpec,
                                 RefilterError, Relation, SpecError, Summand,
                                 check_admissibility,
                                 check_semicommutative_leading,
                                 count_monomials_by_weight, defining_relations,
                                 divide_by_weights, filtration_layer_dim, monomial_divides,
                                 normal_order_weyl, quantum_inversion_scalar, refilter,
                                 validate_algebra, validate_module, zero_module)

# ---------------------------------------------------------------------------
# monomial helpers


def test_monomial_helpers():
    assert monomial_divides((1, 0), (2, 1))
    assert not monomial_divides((1, 2), (2, 1))


# ---------------------------------------------------------------------------
# Weyl normal ordering: differential-operator oracle
#
# The rank-n algebra acts faithfully on polynomials k[t_1..t_n]: generator
# i < n multiplies by t_{i+1}, generator n + i differentiates in t_{i+1}.
# Two normal-ordered expansions agreeing on enough monomials t^e are equal,
# because the matrix of falling factorials e(e-1)...(e-b+1) over e = 0..B,
# b = 0..B is invertible.


def _act_word(word, rank, poly):
    """Apply the generator word to poly (a dict exponent-tuple -> Fraction).

    The rightmost letter acts first, matching the product convention.
    """
    out = dict(poly)
    for g in reversed(word):
        nxt = {}
        for expo, coeff in out.items():
            if g < rank:
                key = list(expo)
                key[g] += 1
                key = tuple(key)
                nxt[key] = nxt.get(key, Fraction(0)) + coeff
            else:
                v = g - rank
                if expo[v]:
                    key = list(expo)
                    key[v] -= 1
                    key = tuple(key)
                    nxt[key] = nxt.get(key, Fraction(0)) + coeff * expo[v]
        out = {k: c for k, c in nxt.items() if c}
    return out


def _act_combo(combo, rank, poly):
    """Apply a normal-ordered expansion (x^a y^b acts as multiply-then-... )."""
    total = {}
    for mono, coeff in combo.items():
        word = []
        for g in range(2 * rank):
            word.extend([g] * mono[g])
        for expo, c in _act_word(word, rank, poly).items():
            total[expo] = total.get(expo, Fraction(0)) + coeff * c
    return {k: c for k, c in total.items() if c}


def _all_words(rank, max_len):
    letters = range(2 * rank)
    for length in range(max_len + 1):
        yield from itertools.product(letters, repeat=length)


def test_normal_order_weyl_matches_operator_action_rank_one():
    for word in _all_words(1, 6):
        combo = normal_order_weyl(list(word), 1)
        for e in range(0, 7):
            basis = {(e,): Fraction(1)}
            assert _act_word(list(word), 1, basis) == _act_combo(combo, 1, basis), word


def test_normal_order_weyl_matches_operator_action_rank_two():
    for word in _all_words(2, 4):
        combo = normal_order_weyl(list(word), 2)
        for e in itertools.product(range(5), repeat=2):
            basis = {e: Fraction(1)}
            assert _act_word(list(word), 2, basis) == _act_combo(combo, 2, basis), word


WEYL_FROZEN = [
    # (word, rank, expected normal-ordered expansion)
    ([], 1, {(0, 0): 1}),
    ([0], 1, {(1, 0): 1}),
    ([1], 1, {(0, 1): 1}),
    ([0, 1], 1, {(1, 1): 1}),            # x y is already ordered
    ([1, 0], 1, {(1, 1): 1, (0, 0): 1}),  # y x = x y + 1
    ([1, 1, 0], 1, {(1, 2): 1, (0, 1): 2}),  # y^2 x = x y^2 + 2 y
    ([1, 0, 0], 1, {(2, 1): 1, (1, 0): 2}),  # y x^2 = x^2 y + 2 x
    ([1, 0, 1, 0], 1, {(2, 2): 1, (1, 1): 3, (0, 0): 1}),  # (yx)^2
    ([3, 0], 2, {(1, 0, 0, 1): 1}),      # y_2 x_1 = x_1 y_2, different indices
    ([2, 0], 2, {(1, 0, 1, 0): 1, (0, 0, 0, 0): 1}),  # y_1 x_1
]


def test_normal_order_weyl_frozen():
    for word, rank, expected in WEYL_FROZEN:
        got = normal_order_weyl(word, rank)
        assert got == {m: Fraction(c) for m, c in expected.items()}, word


def _monomial_word(mono, rank: int) -> list:
    word = []
    for g, e in enumerate(mono):
        word.extend([g] * e)
    return word


def _weyl_multiply(a: dict, b: dict, rank: int) -> dict:
    """Product of two normal-ordered expansions, re-normalized: each pair of
    monomials is written back as a word and normal-ordered again."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            word = _monomial_word(m1, rank) + _monomial_word(m2, rank)
            for mono, c in normal_order_weyl(word, rank).items():
                out[mono] = out.get(mono, 0) + c1 * c2 * c
    return {m: c for m, c in out.items() if c}


def test_normal_order_is_multiplicative_over_concatenation():
    for rank, max_total in ((1, 6), (2, 6)):
        cache = {w: normal_order_weyl(list(w), rank) for w in _all_words(rank, max_total)}
        for u in _all_words(rank, max_total):
            for v in _all_words(rank, max_total - len(u)):
                direct = cache[u + v]
                assert _weyl_multiply(cache[u], cache[v], rank) == direct, (u, v)


def test_normal_order_weyl_rejects_bad_index():
    with pytest.raises(ValueError):
        normal_order_weyl([2], 1)
    with pytest.raises(ValueError):
        normal_order_weyl([-1], 1)


# ---------------------------------------------------------------------------
# the quantum-affine inversion scalar: bubble-sort oracle


def _bubble_sort_scalar(word, lam):
    """Sort the word by adjacent swaps; the product of one scalar per swap."""
    w = list(word)
    scalar = Fraction(1)
    changed = True
    while changed:
        changed = False
        for p in range(len(w) - 1):
            if w[p] > w[p + 1]:
                lo, hi = w[p + 1], w[p]
                scalar *= lam[lo][hi]
                w[p], w[p + 1] = w[p + 1], w[p]
                changed = True
    return scalar


def _quantum_matrix(entries):
    """Fill in the reciprocal lower triangle of a commutation matrix."""
    n = max(max(i, j) for i, j in entries) + 1
    lam = [[Fraction(1)] * n for _ in range(n)]
    for (i, j), q in entries.items():
        lam[i][j] = Fraction(q)
        lam[j][i] = 1 / Fraction(q)
    return lam


def test_quantum_inversion_scalar_matches_bubble_sort():
    lam = _quantum_matrix({(0, 1): 3, (0, 2): Fraction(1, 2), (1, 2): 5})
    for length in range(0, 6):
        for word in itertools.product(range(3), repeat=length):
            expected = _bubble_sort_scalar(word, lam)
            assert quantum_inversion_scalar(list(word), lam) == expected, word


def test_quantum_word_with_three_inversions_cubes_the_scalar():
    q = Fraction(3)
    lam = _quantum_matrix({(0, 1): q})
    # x2 x1 x2 x1 has inversions at positions (0,1), (0,3), (2,3)
    assert quantum_inversion_scalar([1, 0, 1, 0], lam) == q ** 3


# ---------------------------------------------------------------------------
# weighted monomial counting: brute-force oracle


def _brute_counts(weights, top):
    counts = [0] * (top + 1)
    ranges = [range(top // w + 1) for w in weights]
    for exps in itertools.product(*ranges):
        total = sum(e * w for e, w in zip(exps, weights))
        if total <= top:
            counts[total] += 1
    return counts


KERNEL_WEIGHTS = [(), (1,), (2,), (3,), (15,), (1, 1), (1, 2), (2, 3), (2, 2), (1, 20),
                  (1, 1, 1), (1, 2, 3), (2, 2, 3), (4, 1, 4, 2), (2, 3, 5, 7)]


def test_count_monomials_by_weight_matches_brute_force():
    # weights above top, repeated weights, and top = 0 included
    for weights in KERNEL_WEIGHTS:
        for top in (0, 1, 2, 9, 14):
            assert count_monomials_by_weight(weights, top) == _brute_counts(weights, top)


def test_count_monomials_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        count_monomials_by_weight((1, 0), 5)
    for weights in ((0,), (1, -1), (2, 0, 1)):
        with pytest.raises(ValueError, match="generator weights must be positive"):
            divide_by_weights([1, 2, 3], weights)


def test_divide_by_weights_matches_brute_force_convolution():
    rng = random.Random(31)
    for weights in KERNEL_WEIGHTS:
        for length in (0, 1, 2, 7, 15):
            coeffs = [rng.randint(-5, 5) for _ in range(length)]
            free = _brute_counts(weights, max(length - 1, 0))
            want = [sum(coeffs[d] * free[n - d] for d in range(n + 1))
                    for n in range(length)]
            kept = list(coeffs)
            assert divide_by_weights(coeffs, weights) == want, (weights, coeffs)
            assert coeffs == kept  # the input is not modified


def test_weyl_layer_dims_are_binomials():
    for rank in (1, 2, 3):
        a = AlgebraSpec.weyl(rank)
        for i in range(0, 13):
            assert filtration_layer_dim(a, i) == math.comb(2 * rank + i, 2 * rank)


def test_layer_dims_depend_only_on_scalar_weights():
    lam = _quantum_matrix({(0, 1): 7})
    quantum = AlgebraSpec.quantum_affine(lam)
    poly = AlgebraSpec.polynomial(2)
    for i in range(0, 10):
        assert filtration_layer_dim(quantum, i) == filtration_layer_dim(poly, i)


def test_layer_dim_rejects_negative_index():
    with pytest.raises(ValueError):
        filtration_layer_dim(AlgebraSpec.polynomial(1), -1)


# ---------------------------------------------------------------------------
# algebra validation


def test_quantum_matrix_must_have_reciprocal_entries():
    with pytest.raises(SpecError) as exc:
        AlgebraSpec.quantum_affine([[1, 2], [3, 1]])
    assert exc.value.path == "lambda[2][1]"
    assert "lambda[i][j] * lambda[j][i] must equal 1" in exc.value.message


def test_quantum_matrix_diagonal_must_be_one():
    with pytest.raises(SpecError):
        AlgebraSpec.quantum_affine([[2, 2], [Fraction(1, 2), 1]])


def test_degrees_must_be_nonzero_and_uniform_width():
    with pytest.raises(SpecError):
        AlgebraSpec.polynomial(2, degrees=[(1, 0), (0,)])
    with pytest.raises(SpecError):
        AlgebraSpec.polynomial(1, degrees=[(0, 0)])


def test_weyl_rank_must_be_positive():
    with pytest.raises(SpecError):
        AlgebraSpec.weyl(0)


def test_defining_relations_weyl_pairs():
    rels = defining_relations(AlgebraSpec.weyl(2))
    # y_i x_i pairs carry the constant correction term; all others commute
    paired = {(r.greater, r.lesser): r for r in rels}
    assert paired[(2, 0)].lower == (((0, 0, 0, 0), Fraction(1)),)
    assert paired[(3, 1)].lower == (((0, 0, 0, 0), Fraction(1)),)
    assert paired[(3, 0)].lower == ()
    assert all(r.scalar == 1 for r in rels)


# ---------------------------------------------------------------------------
# admissible orders


def test_builtin_orders_are_admissible():
    for order in (AdmissibleOrder("lex"), AdmissibleOrder("deglex"),
                  AdmissibleOrder("weightlex", (2, 1))):
        report = check_admissibility(order, samples=5, num_components=2)
        assert report.ok, report
    report = check_admissibility(AdmissibleOrder("deglex"), samples=2, num_components=3)
    assert report.ok


def test_order_comparisons_frozen():
    lex = AdmissibleOrder("lex")
    deglex = AdmissibleOrder("deglex")
    wlex = AdmissibleOrder("weightlex", (1, 3))
    assert lex.compare((0, 5), (1, 0)) == -1      # first coordinate decides
    assert deglex.compare((0, 5), (1, 0)) == 1    # total degree decides
    assert wlex.compare((2, 0), (0, 1)) == -1     # weighted degree 2 < 3
    assert wlex.compare((3, 0), (0, 1)) == 1      # tie at 3, lex breaks it
    assert deglex.compare((1, 1), (1, 1)) == 0


def test_reversed_order_fails_zero_minimality():
    def reversed_lex(alpha, beta):
        return -AdmissibleOrder("lex").compare(alpha, beta)

    report = check_admissibility(reversed_lex, samples=2, num_components=2)
    assert not report.ok
    assert report.reason == "zero vector is not minimal"
    assert (0, 0) in report.counterexample


def test_norm_order_fails_translation_invariance():
    def by_square_norm(alpha, beta):
        da = sum(x * x for x in alpha)
        db = sum(x * x for x in beta)
        if da != db:
            return -1 if da < db else 1
        if alpha == beta:
            return 0
        return -1 if alpha < beta else 1

    report = check_admissibility(by_square_norm, samples=3, num_components=2)
    assert not report.ok
    assert report.reason == "order is not translation invariant"


def test_weightlex_requires_positive_weight():
    with pytest.raises(SpecError):
        AdmissibleOrder("weightlex")
    with pytest.raises(SpecError):
        AdmissibleOrder("weightlex", (1, 0))
    with pytest.raises(SpecError):
        AdmissibleOrder("lex", (1, 1))
    with pytest.raises(SpecError):
        AdmissibleOrder("random")


# ---------------------------------------------------------------------------
# weight re-filtering


def test_refilter_collapses_multidegrees():
    lam = _quantum_matrix({(0, 1): 2})
    plane = AlgebraSpec.quantum_affine(lam, degrees=[(1, 0), (0, 1)])
    flat = refilter(plane, (1, 3))
    assert flat.degrees == ((1,), (3,))
    assert flat.kind == "quantum_affine"
    # layer dimensions of the collapsed algebra match direct weighted counts
    for i in range(0, 10):
        assert filtration_layer_dim(flat, i) == sum(count_monomials_by_weight((1, 3), i))


def test_refilter_weyl_total_degree_is_identity():
    a = AlgebraSpec.weyl(2)
    flat = refilter(a, (1,))
    assert flat.degrees == a.degrees


def test_refilter_rejects_bad_weight():
    a = AlgebraSpec.polynomial(2, degrees=[(1, 0), (0, 1)])
    with pytest.raises(SpecError) as exc:
        refilter(a, (1,))
    assert exc.value.path == "weight"
    with pytest.raises(SpecError):
        refilter(a, (1, 0))
    with pytest.raises(SpecError):
        refilter(a, (1, -2))


def test_refilter_detects_non_dominant_leading_terms():
    # x2 x1 -> x1 x2 + x1^2: collapsing both generators to weight 1 makes the
    # lower term x1^2 as heavy as the leading term, so the collapse is refused
    rel = Relation(1, 0, Fraction(1), (((2, 0), Fraction(1)),))
    a = AlgebraSpec.pbw_weighted([(1,), (1,)], [rel])
    assert not check_semicommutative_leading(a, (1,))
    with pytest.raises(RefilterError):
        refilter(a, (1,))


def test_refilter_accepts_dominant_leading_terms():
    # x2 x1 -> x1 x2 + x1: the lower term has weight 1 < 2, so the collapse holds
    rel = Relation(1, 0, Fraction(1), (((1, 0), Fraction(1)),))
    a = AlgebraSpec.pbw_weighted([(1,), (1,)], [rel])
    assert check_semicommutative_leading(a, (1,))
    flat = refilter(a, (1,))
    assert flat.degrees == ((1,), (1,))


# ---------------------------------------------------------------------------
# module presentations


def test_module_factories():
    assert ModuleSpec.regular().summands == (Summand(0, ()),)
    assert ModuleSpec.laurent(2).negative_shift == 2
    cyc = ModuleSpec.cyclic([(1, 0)], shift=3)
    assert cyc.summands == (Summand(3, ((1, 0),)),)


def test_zero_module_is_quotient_by_unit_ideal():
    a = AlgebraSpec.polynomial(2)
    z = zero_module(a)
    assert z.summands[0].ideal == ((0, 0),)
    validate_module(a, z)


def test_validate_module_error_paths():
    a = AlgebraSpec.polynomial(2)
    with pytest.raises(SpecError) as exc:
        validate_module(a, ModuleSpec(()))
    assert exc.value.path == "module.summands"

    bad_width = ModuleSpec((Summand(0, ((1, 0),)), Summand(0, ((1, 0, 0),))))
    with pytest.raises(SpecError) as exc:
        validate_module(a, bad_width)
    assert exc.value.path == "module.summands[2].ideal[1]"

    with pytest.raises(SpecError):
        validate_module(a, ModuleSpec((Summand(-1, ()),)))
    with pytest.raises(SpecError):
        validate_module(a, ModuleSpec((), negative_shift=0))


def test_validate_algebra_passes_for_factories():
    for a in (AlgebraSpec.polynomial(3), AlgebraSpec.weyl(2),
              AlgebraSpec.quantum_affine(_quantum_matrix({(0, 1): 5})),
              AlgebraSpec.pbw_weighted([(1,), (2,)], [])):
        validate_algebra(a)
