"""Structural identities on short exact sequences, descending chains,
holonomic defects, torsion, and filtration comparison.

The short-exact-sequence triples are checked against closed-form dimension
counts (binomial coefficients and linear counts computed with math.comb),
so every growth dimension and multiplicity asserted here is known on paper
before the library runs. Chain bounds use explicit flags of free summands
where the length and the multiplicity coincide by construction. The
triple's subtraction and the chain check's comparisons and differences are
also compared, on seeded modules and chains, with the generator loops they
replaced, kept below as references.
"""

from fractions import Fraction
import math
import random

import pytest

from gkdim.axioms import (AxiomReport, ChainReport, HolonomyCatalog,
                          SESSpec, TorsionReport, chain_bound_check,
                          check_exactness, check_multiplicity_axioms,
                          filtration_equivalent, holonomic_defect,
                          ses_dimension_triple, torsion_check_cyclic,
                          validate_ses)
from gkdim.hilbert import DimensionSequence, module_dim_sequence
from gkdim.presentations import (AlgebraSpec, ModuleSpec, SpecError, Summand,
                                 zero_module)
from gkdim.samuel import detect_polynomial, gk_dimension, multiplicity

TOP = 25

# ---------------------------------------------------------------------------
# short exact sequences: dimension triples


def test_triple_of_coordinate_ideal_in_the_plane():
    # 0 -> x k[x,y] -> k[x,y] -> k[y] -> 0
    a = AlgebraSpec.polynomial(2)
    ses = SESSpec(a, ModuleSpec.regular(), (((1, 0),),))
    prime, big, double = ses_dimension_triple(ses, TOP)
    for n in range(TOP + 1):
        assert big[n] == math.comb(n + 2, 2)
        assert double[n] == n + 1
        assert prime[n] == math.comb(n + 2, 2) - (n + 1)
        assert prime[n] + double[n] == big[n]


def test_triple_balances_for_every_summand_layout():
    a = AlgebraSpec.polynomial(2)
    layouts = [
        (ModuleSpec.regular(), (((1, 1),),)),
        (ModuleSpec((Summand(0, ()), Summand(2, ((2, 0),)))), (((1, 0),), ((1, 0),))),
        (ModuleSpec.cyclic([(3, 0)]), (((1, 0),),)),
    ]
    for big, subs in layouts:
        prime, m, double = ses_dimension_triple(SESSpec(a, big, subs), TOP)
        assert [p + d for p, d in zip(prime, double)] == list(m)


# ---------------------------------------------------------------------------
# exactness and multiplicity cases


def test_case_b_quotient_drops_dimension():
    # 0 -> x k[x,y] -> k[x,y] -> k[y] -> 0: the sub keeps the full growth
    a = AlgebraSpec.polynomial(2)
    report = check_multiplicity_axioms(SESSpec(a, ModuleSpec.regular(), (((1, 0),),)), TOP)
    assert report.case == "b"
    assert report.gk_triple == (2, 2, 1)
    assert report.e_values == (1, 1, 1)
    assert report.exactness_ok is True
    assert report.additivity_ok is True


def test_case_a_sub_drops_dimension():
    # over k[x,y,z] / (xy, xz), the sub generated by x is a single line
    a = AlgebraSpec.polynomial(3)
    big = ModuleSpec.cyclic([(1, 1, 0), (1, 0, 1)])
    ses = SESSpec(a, big, (((1, 0, 0),),))
    prime, m, double = ses_dimension_triple(ses, TOP)
    assert prime.values == tuple(range(TOP + 1))           # x, x^2, ..., x^n
    assert double.values == tuple(math.comb(n + 2, 2) for n in range(TOP + 1))
    report = check_multiplicity_axioms(ses, TOP)
    assert report.case == "a"
    assert report.gk_triple == (1, 2, 2)
    assert report.e_values == (1, 1, 1)
    assert report.exactness_ok is True
    assert report.additivity_ok is True


def test_case_c_all_dimensions_equal():
    # inside k[x,y] / (xy): the sub spanned by x and the quotient k[y]
    a = AlgebraSpec.polynomial(2)
    ses = SESSpec(a, ModuleSpec.cyclic([(1, 1)]), (((1, 0),),))
    report = check_multiplicity_axioms(ses, TOP)
    assert report.case == "c"
    assert report.gk_triple == (1, 1, 1)
    assert report.e_values == (1, 2, 1)
    assert report.exactness_ok is True
    assert report.additivity_ok is True


def test_case_c_across_two_summands():
    a = AlgebraSpec.polynomial(1)
    big = ModuleSpec((Summand(0, ()), Summand(0, ())))
    ses = SESSpec(a, big, (((0,),), ()))  # first summand in, second out
    report = check_multiplicity_axioms(ses, TOP)
    assert report.case == "c"
    assert report.gk_triple == (1, 1, 1)
    assert report.e_values == (1, 2, 1)
    assert report.additivity_ok is True


def test_case_b_with_finite_quotient():
    a = AlgebraSpec.polynomial(2)
    big = ModuleSpec.cyclic([(2, 0)])
    ses = SESSpec(a, big, (((2, 0), (0, 3)),))
    report = check_multiplicity_axioms(ses, TOP)
    assert report.case == "b"
    assert report.gk_triple == (1, 1, 0)
    assert report.e_values == (2, 2, 6)
    assert report.exactness_ok is True
    assert report.additivity_ok is True


def test_degenerate_zero_sub():
    a = AlgebraSpec.polynomial(2)
    ses = SESSpec(a, ModuleSpec.regular(), ((),))  # J = I = 0
    report = check_multiplicity_axioms(ses, TOP)
    assert report.case == "degenerate"
    assert report.gk_triple == (None, 2, 2)
    assert report.e_values == (0, 1, 1)
    assert report.exactness_ok is True
    assert report.additivity_ok is True


def test_degenerate_zero_quotient():
    a = AlgebraSpec.polynomial(2)
    ses = SESSpec(a, ModuleSpec.regular(), (((0, 0),),))  # J = (1)
    report = check_multiplicity_axioms(ses, TOP)
    assert report.case == "degenerate"
    assert report.gk_triple == (2, 2, None)
    assert report.e_values == (1, 1, 0)
    assert report.additivity_ok is True


def test_degenerate_zero_module():
    a = AlgebraSpec.polynomial(2)
    ses = SESSpec(a, zero_module(a), (((0, 0),),))
    report = check_multiplicity_axioms(ses, TOP)
    assert report.case == "degenerate"
    assert report.gk_triple == (None, None, None)
    assert report.e_values == (0, 0, 0)
    assert report.exactness_ok is True
    assert report.additivity_ok is True


def test_exactness_report_leaves_multiplicities_empty():
    a = AlgebraSpec.polynomial(2)
    report = check_exactness(SESSpec(a, ModuleSpec.regular(), (((1, 0),),)), TOP)
    assert report.case == "b"
    assert report.exactness_ok is True
    assert report.e_values is None
    assert report.additivity_ok is None


def test_weighted_ring_gets_a_certified_verdict():
    # a weight-2 generator makes the counts quasi-periodic, which the
    # difference tower refuses; the Hilbert numerators still decide it:
    # k[x] grows like n / 2, the sub-piece (x) likewise, k[x]/(x) is k
    a = AlgebraSpec.polynomial(1, degrees=[(2,)])
    ses = SESSpec(a, ModuleSpec.regular(), (((1,),),))
    report = check_exactness(ses, TOP)
    assert report.case == "b"
    assert report.gk_triple == (1, 1, 0)
    assert report.exactness_ok is True
    full = check_multiplicity_axioms(ses, TOP)
    assert full.e_values == (Fraction(1, 2), Fraction(1, 2), Fraction(1))
    assert full.additivity_ok is True
    assert full.notes == ()


def test_verdict_does_not_depend_on_the_sampled_depth():
    # below degree 20 the sub-piece (x^20) of k[x, y] has no elements, so
    # counts up to 16 looked like a zero sub-piece; the numerators see it
    a = AlgebraSpec.polynomial(2)
    ses = SESSpec(a, ModuleSpec.regular(), (((20, 0),),))
    for top in (16, TOP, 200):
        report = check_multiplicity_axioms(ses, top)
        assert report.case == "b"
        assert report.gk_triple == (2, 2, 1)
        assert report.e_values == (1, 1, 20)
        assert report.additivity_ok is True


def test_validate_ses_error_paths():
    a = AlgebraSpec.polynomial(2)
    with pytest.raises(SpecError) as exc:
        validate_ses(SESSpec(a, ModuleSpec.regular(), ()))
    assert exc.value.path == "ses.sub_ideals"

    with pytest.raises(SpecError) as exc:
        validate_ses(SESSpec(a, ModuleSpec.regular(), (((1, 0, 0),),)))
    assert exc.value.path == "ses.sub_ideals[1][1]"

    # sub-ideal must contain the summand ideal
    with pytest.raises(SpecError) as exc:
        validate_ses(SESSpec(a, ModuleSpec.cyclic([(2, 0)]), (((0, 3),),)))
    assert exc.value.path == "ses.sub_ideals[1]"

    with pytest.raises(SpecError) as exc:
        validate_ses(SESSpec(a, ModuleSpec.laurent(), ()))
    assert exc.value.path == "ses"


# ---------------------------------------------------------------------------
# descending chains


def _free_sum(r):
    return ModuleSpec(tuple(Summand(0, ()) for _ in range(r)))


def test_full_flag_attains_the_bound():
    a = AlgebraSpec.polynomial(1)
    for r in (1, 2, 3, 4):
        chain = [_free_sum(k) for k in range(r, 0, -1)] + [zero_module(a)]
        report = chain_bound_check(a, chain, TOP)
        assert report.n == r
        assert report.e_m == r
        assert report.gk_m == 1
        assert report.bound_ok is True
        assert report.quotients_full_gk is True


def test_partial_flag_stays_below_the_bound():
    a = AlgebraSpec.polynomial(1)
    chain = [_free_sum(3), _free_sum(1), zero_module(a)]
    report = chain_bound_check(a, chain, TOP)
    assert report.n == 2
    assert report.e_m == 3
    assert report.bound_ok is True


def test_single_module_chain_has_length_zero():
    a = AlgebraSpec.polynomial(1)
    report = chain_bound_check(a, [ModuleSpec.regular()], TOP)
    assert report.n == 0
    assert report.bound_ok is True
    assert report.quotients_full_gk is True
    assert report.notes == ()


def test_weyl_ideal_chain():
    a = AlgebraSpec.weyl(1)
    chain = [ModuleSpec.regular(), ModuleSpec.cyclic([(0, 1)])]
    report = chain_bound_check(a, chain, TOP)
    assert report.n == 1
    assert report.e_m == 1
    assert report.gk_m == 2
    assert report.bound_ok is True
    assert report.quotients_full_gk is True


def test_small_growth_quotient_is_reported_not_raised():
    a = AlgebraSpec.polynomial(1)
    shifted = ModuleSpec((Summand(1, ()),))
    report = chain_bound_check(a, [ModuleSpec.regular(), shifted], TOP)
    assert report.n == 1
    assert report.bound_ok is True
    assert report.quotients_full_gk is False
    assert any("smaller growth dimension" in note for note in report.notes)


def test_chain_strictness_violations_raise():
    a = AlgebraSpec.polynomial(1)
    with pytest.raises(SpecError) as exc:
        chain_bound_check(a, [ModuleSpec.regular(), ModuleSpec.regular()], TOP)
    assert exc.value.path == "chain[2]"

    with pytest.raises(SpecError) as exc:
        chain_bound_check(a, [ModuleSpec.cyclic([(1,)]), ModuleSpec.regular()], TOP)
    assert exc.value.path == "chain[2]"

    with pytest.raises(SpecError):
        chain_bound_check(a, [], TOP)


def test_chain_refuses_a_negative_shift_member():
    a = AlgebraSpec.weyl(1)
    laurent = ModuleSpec.laurent()
    for chain, path in (([laurent], "chain[1]"),
                        ([ModuleSpec.regular(), laurent], "chain[2]")):
        with pytest.raises(SpecError) as exc:
            chain_bound_check(a, chain, TOP)
        assert exc.value.path == path
        assert "negative_shift" in exc.value.message


# ---------------------------------------------------------------------------
# holonomic defect


def _fit(a, m):
    """The module's Hilbert-Samuel fit on degrees 0..TOP, or None."""
    return detect_polynomial(module_dim_sequence(a, m, TOP))


def test_weyl_regular_module_has_defect_equal_to_rank():
    catalog = HolonomyCatalog()
    for rank in (1, 2):
        a = AlgebraSpec.weyl(rank)
        report = holonomic_defect(a, _fit(a, ModuleSpec.regular()), catalog)
        assert report.gk == 2 * rank
        assert report.h == rank
        assert report.defect == rank
        assert report.min_holonomic is False


def test_weyl_coordinate_module_is_minimally_holonomic():
    catalog = HolonomyCatalog()
    for rank in (1, 2):
        a = AlgebraSpec.weyl(rank)
        # kill the y generators: what is left are the x monomials
        ideal = [tuple(1 if i == rank + j else 0 for i in range(2 * rank))
                 for j in range(rank)]
        report = holonomic_defect(a, _fit(a, ModuleSpec.cyclic(ideal)), catalog)
        assert report.gk == rank
        assert report.defect == 0
        assert report.min_holonomic is True


def test_laurent_module_over_weyl_one_is_minimally_holonomic():
    a = AlgebraSpec.weyl(1)
    report = holonomic_defect(a, _fit(a, ModuleSpec.laurent()), HolonomyCatalog())
    assert report.gk == 1
    assert report.h == 1
    assert report.min_holonomic is True


def test_polynomial_ring_has_holonomic_number_zero():
    a = AlgebraSpec.polynomial(2)
    catalog = HolonomyCatalog()
    regular = holonomic_defect(a, _fit(a, ModuleSpec.regular()), catalog)
    assert (regular.gk, regular.h, regular.defect) == (2, 0, 2)
    finite = holonomic_defect(a, _fit(a, ModuleSpec.cyclic([(1, 0), (0, 1)])),
                              catalog)
    assert finite.gk == 0
    assert finite.min_holonomic is True


def test_holonomy_catalog_override_and_unknown_kind():
    quantum = AlgebraSpec.quantum_affine([[1, 2], [Fraction(1, 2), 1]])
    with pytest.raises(ValueError):
        HolonomyCatalog().h_for(quantum)
    assert HolonomyCatalog(override=3).h_for(quantum) == 3
    report = holonomic_defect(quantum, _fit(quantum, ModuleSpec.regular()),
                              HolonomyCatalog(override=1))
    assert report.h == 1
    assert report.gk == 2


def test_holonomic_defect_needs_detectable_growth():
    a = AlgebraSpec.polynomial(1, degrees=[(2,)])
    with pytest.raises(ValueError):
        holonomic_defect(a, _fit(a, ModuleSpec.regular()), HolonomyCatalog())


# ---------------------------------------------------------------------------
# torsion criterion


def test_torsion_for_cyclic_quotients():
    a = AlgebraSpec.weyl(1)
    hit = torsion_check_cyclic(a, ideal_nonzero=True, gk_a=2, h=1)
    assert (hit.applicable, hit.torsion) == (True, True)
    free = torsion_check_cyclic(a, ideal_nonzero=False, gk_a=2, h=1)
    assert (free.applicable, free.torsion) == (True, False)
    assert "embeds the algebra" in free.reason


def test_torsion_criterion_needs_gap_above_positive_h():
    a = AlgebraSpec.weyl(1)
    flat = torsion_check_cyclic(a, ideal_nonzero=True, gk_a=1, h=1)
    assert flat.applicable is False and flat.torsion is None
    poly = torsion_check_cyclic(AlgebraSpec.polynomial(2), True, gk_a=2, h=0)
    assert poly.applicable is False


# ---------------------------------------------------------------------------
# filtration comparison


def test_equal_filtrations_need_no_shift():
    vals = [math.comb(n + 2, 2) for n in range(30)]
    assert filtration_equivalent(vals, vals, 5) == 0


def test_shifted_filtration_is_recovered():
    a = [math.comb(n + 2, 2) for n in range(30)]
    b = [0, 0, 0] + a[:-3]
    assert filtration_equivalent(a, b, 10) == 3
    assert filtration_equivalent(b, a, 10) == 3


def test_incomparable_growth_is_rejected():
    a = [n + 1 for n in range(30)]
    b = [(n + 1) ** 2 for n in range(30)]
    assert filtration_equivalent(a, b, 10) is None


def test_filtration_comparison_accepts_dimension_sequences():
    a = AlgebraSpec.polynomial(1)
    dims = module_dim_sequence(a, ModuleSpec.regular(), 20)
    assert filtration_equivalent(dims, dims, 3) == 0
    with pytest.raises(ValueError):
        filtration_equivalent(dims.graded(), dims, 3)


# ---------------------------------------------------------------------------
# dimension triples and the chain check against the code they replaced


def _triple_reference(s: SESSpec, top: int) -> tuple:
    """ses_dimension_triple with M' subtracted term by term."""
    quotient = ModuleSpec(tuple(Summand(summand.shift, sub) for summand, sub
                                in zip(s.big.summands, s.sub_ideals)))
    m = module_dim_sequence(s.ambient, s.big, top)
    double = module_dim_sequence(s.ambient, quotient, top)
    prime = tuple(a - b for a, b in zip(m, double))
    return DimensionSequence(prime, "cumulative"), m, double


def _chain_reference(ambient, chain, top: int, window: int = 6) -> ChainReport:
    """chain_bound_check with its comparisons and differences as generator
    loops over zipped sequences."""
    if not chain:
        raise SpecError("chain", "chain must start with the module itself")
    dims = [module_dim_sequence(ambient, m, top) for m in chain]
    for i in range(len(dims) - 1):
        prev, cur = dims[i], dims[i + 1]
        if any(c > p for p, c in zip(prev, cur)):
            raise SpecError(f"chain[{i+2}]",
                            "chain member exceeds the previous one in some degree")
        if all(c == p for p, c in zip(prev, cur)):
            raise SpecError(f"chain[{i+2}]",
                            "chain containment is not strict in the sampled range")
    n = len(chain) - 1
    fit = detect_polynomial(dims[0], window)
    if fit is None:
        return ChainReport(n, None, None, None, None,
                           notes=("growth of the top module is not detectable",))
    e_m = multiplicity(fit)
    gk_m = gk_dimension(fit)
    quotients_full_gk = True
    notes = []
    for i in range(n):
        diffs = tuple(p - c for p, c in zip(dims[i], dims[i + 1]))
        try:
            qseq = DimensionSequence(diffs, "cumulative")
        except ValueError:
            raise SpecError(f"chain[{i+2}]",
                            "difference with the previous member is not a "
                            "valid cumulative dimension sequence") from None
        qfit = detect_polynomial(qseq, window)
        if qfit is None:
            quotients_full_gk = None
            notes.append(f"growth of quotient {i+1} is not detectable")
        elif qfit.form.is_zero() or gk_dimension(qfit) != gk_m:
            quotients_full_gk = False
            notes.append(f"quotient {i+1} has smaller growth dimension than the module")
    return ChainReport(n, e_m, gk_m, n <= e_m, quotients_full_gk, tuple(notes))


def _outcome(check, *args):
    """A check's report, or the path and message of the SpecError it raised."""
    try:
        return check(*args)
    except SpecError as e:
        return (e.path, e.message)


def _random_ideal(rng, nvars: int, count: int) -> tuple:
    return tuple(tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(count))


def test_triple_matches_termwise_subtraction():
    rng = random.Random(3131)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        a = AlgebraSpec.polynomial(nvars, degrees=[(rng.choice((1, 1, 2)),)
                                                   for _ in range(nvars)])
        summands = tuple(Summand(rng.randint(0, 3), _random_ideal(rng, nvars, rng.randint(0, 3)))
                         for _ in range(rng.randint(1, 3)))
        subs = tuple(s.ideal + _random_ideal(rng, nvars, rng.randint(1, 2)) for s in summands)
        ses = SESSpec(a, ModuleSpec(summands), subs)
        top = rng.randint(0, 30)
        got = ses_dimension_triple(ses, top)
        assert got == _triple_reference(ses, top), ses
        assert [p + d for p, d in zip(got[0], got[2])] == list(got[1])


def test_chain_check_matches_the_generator_loops():
    rng = random.Random(7272)
    seen = set()
    for _ in range(150):
        nvars = rng.randint(1, 3)
        a = AlgebraSpec.polynomial(nvars)
        ideal = _random_ideal(rng, nvars, rng.randint(0, 2))
        chain = [ModuleSpec.cyclic(ideal)]
        for _ in range(rng.randint(0, 3)):
            # usually grow the ideal (a smaller quotient); sometimes repeat
            # or shrink it, which breaks strictness
            move = rng.random()
            if move < 0.15:
                ideal = ideal[:-1]
            elif move > 0.25:
                ideal = ideal + _random_ideal(rng, nvars, 1)
            chain.append(ModuleSpec.cyclic(ideal))
        got = _outcome(chain_bound_check, a, chain, TOP)
        assert got == _outcome(_chain_reference, a, chain, TOP), chain
        seen.add("report" if isinstance(got, ChainReport) else got[1])
    assert seen == {"report",
                    "chain member exceeds the previous one in some degree",
                    "chain containment is not strict in the sampled range"}
