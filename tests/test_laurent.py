"""Modules with a Laurent part (negative_shift) against brute force.

The Laurent line adds 2j + 1 states up to degree j, the graded counts
1, 2, 2, ..., so a module with a Laurent part and summands A/I_k shifted by
s_k has, in degree n, those counts plus each summand's standard monomials of
weight n - s_k. Seeded modules with 0-3 summands over Weyl algebras of rank
1-3 and weighted polynomial rings with weights 1-4 check:
- the counts read from the one Hilbert numerator (module_dim_sequence, and
  the graded dimensions of analyze and hilbert) against that enumeration;
- analyze, poincare and hilbert on gk, e and the reduced series: hilbert's
  series expands to the enumeration, its reduced form is in lowest terms
  (sympy's gcd) and equals poincare's, and gk and e read off it at t = 1
  equal analyze's;
- check-ses with a Laurent part, whose M'' keeps it, against the hilbert
  series of M and M'';
- chain members keeping a Laurent part, dropping it, and gaining one, which
  is refused as not nested.
"""

import json
import random
from fractions import Fraction
from itertools import accumulate

import pytest
import sympy

from gkdim.axioms import chain_bound_check
from gkdim.cli import main
from gkdim.hilbert import module_dim_sequence
from gkdim.presentations import AlgebraSpec, ModuleSpec, SpecError, Summand

TOP = 10


def _monomials(weights, top):
    """Every exponent vector of weighted degree at most top, with its degree."""
    if not weights:
        yield (), 0
        return
    w = weights[0]
    for e in range(top // w + 1):
        for rest, d in _monomials(weights[1:], top - e * w):
            yield (e,) + rest, d + e * w


def _brute(weights, m, top):
    """Graded counts 0..top of m by enumeration: 1, 2, 2, ... for a Laurent
    part, plus each summand's standard monomials at its shift."""
    counts = [0] * (top + 1)
    if m.negative_shift is not None:
        counts = [1] + [2] * top
    for s in m.summands:
        for mono, d in _monomials(weights, top - s.shift):
            if not any(all(e >= g for e, g in zip(mono, gen)) for gen in s.ideal):
                counts[s.shift + d] += 1
    return counts


def _at_one(p, q):
    """(gk, e) of the graded series p / q: the order of its pole at t = 1
    and the limit of (1 - t)^gk p / q there. Dividing by (1 - t) is taking
    prefix sums, whose last, the value at 1, is then 0."""
    gk = 0
    while not sum(q):
        q, gk = list(accumulate(q))[:-1], gk + 1
    while not sum(p):
        p, gk = list(accumulate(p))[:-1], gk - 1
    return gk, Fraction(sum(p), sum(q))


def _ints(payload):
    """An exact polynomial payload [[num, den], ...] with integer entries."""
    assert all(den == 1 for _, den in payload), payload
    return [num for num, _ in payload]


def _expand(p, q, count):
    out = []
    for n in range(count):
        acc = (p[n] if n < len(p) else 0) - sum(
            q[i] * out[n - i] for i in range(1, min(n, len(q) - 1) + 1))
        out.append(acc // q[0])
    return out


def _algebra_doc(a):
    if a.kind == "weyl":
        return {"kind": "weyl", "weyl_rank": a.weyl_rank}
    return {"kind": "polynomial",
            "generators": [{"name": n, "degree": list(d)} for n, d in zip(a.names, a.degrees)]}


def _ideal_doc(a, ideal):
    return ["*".join(f"{n}^{e}" for n, e in zip(a.names, g) if e) or "1" for g in ideal]


def _module_doc(a, m):
    doc = {"summands": [{"shift": s.shift, "ideal": _ideal_doc(a, s.ideal)}
                        for s in m.summands]}
    if m.negative_shift is not None:
        doc["negative_shift"] = m.negative_shift
    return doc


def _report(capsys, tmp_path, command, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path), "--max-degree", str(TOP)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), (command, doc, err)
    return json.loads(out)["report"]


def _random_ideal(rng, width, count):
    return tuple(tuple(rng.randint(0, 3) for _ in range(width)) for _ in range(count))


def _cases():
    rng = random.Random(2204)
    cases = [(AlgebraSpec.weyl(1), ModuleSpec.laurent())]
    for _ in range(24):
        if rng.random() < 0.5:
            a = AlgebraSpec.weyl(rng.randint(1, 3))
        else:
            degrees = [(rng.randint(1, 4),) for _ in range(rng.randint(1, 3))]
            a = AlgebraSpec.polynomial(len(degrees), degrees=degrees)
        summands = tuple(Summand(rng.randint(0, 3), _random_ideal(rng, a.num_generators,
                                                                  rng.randint(0, 3)))
                         for _ in range(rng.randint(0, 3)))
        cases.append((a, ModuleSpec(summands, negative_shift=rng.randint(1, 3))))
    return cases


@pytest.mark.parametrize("a, m", _cases())
def test_laurent_modules_match_enumeration_and_agree(a, m, tmp_path, capsys):
    brute = _brute(a.scalar_weights(), m, TOP)
    assert list(module_dim_sequence(a, m, TOP).graded()) == brute
    doc = {"spec_version": 1, "algebra": _algebra_doc(a), "module": _module_doc(a, m)}
    hilbert = _report(capsys, tmp_path, "hilbert", doc)
    assert hilbert["graded_dimensions"] == brute
    p, q = (_ints(hilbert["series"][k]) for k in ("numerator", "denominator"))
    assert _expand(p, q, TOP + 1) == brute
    low, den = (_ints(hilbert["reduced"][k]) for k in ("numerator", "denominator"))
    t = sympy.Symbol("t")
    poly = lambda cs: sympy.Poly(list(reversed(cs)), t)  # noqa: E731
    assert poly(p) * poly(den) == poly(low) * poly(q)
    assert sympy.gcd(poly(low), poly(den)).degree() == 0
    poincare = _report(capsys, tmp_path, "poincare", doc)
    assert poincare["series"] == hilbert["reduced"]
    analyze = _report(capsys, tmp_path, "analyze", doc)
    assert analyze["dimensions"]["graded"] == brute
    gk, e = _at_one(low, den)
    growth = analyze["growth"]
    assert (growth["gk"], Fraction(*growth["multiplicity"])) == (gk, e)
    # the Laurent line alone has gk 1 and e 2; nothing here cancels it
    assert gk >= 1


def test_the_laurent_line_over_weyl_one(tmp_path, capsys):
    doc = {"spec_version": 1, "algebra": {"kind": "weyl", "weyl_rank": 1},
           "module": {"negative_shift": 1}}
    hilbert = _report(capsys, tmp_path, "hilbert", doc)
    assert hilbert["series"] == {"numerator": [[1, 1], [0, 1], [-1, 1]],
                                 "denominator": [[1, 1], [-2, 1], [1, 1]]}
    assert hilbert["reduced"] == {"numerator": [[1, 1], [1, 1]],
                                  "denominator": [[1, 1], [-1, 1]]}
    assert _report(capsys, tmp_path, "poincare", doc)["series"] == hilbert["reduced"]
    report = _report(capsys, tmp_path, "analyze", doc)
    assert (report["growth"]["gk"], report["growth"]["multiplicity"]) == (1, [2, 1])
    assert report["growth"]["hilbert_samuel"] == {
        "binomial_coefficients": [[1, 1], [2, 1]], "stabilization_index": 0}
    assert report["holonomy"]["defect"] == 0


def _series(capsys, tmp_path, a, m):
    """hilbert's unreduced series of m as int lists (p, prod(1 - t^w))."""
    doc = {"spec_version": 1, "algebra": _algebra_doc(a), "module": _module_doc(a, m)}
    series = _report(capsys, tmp_path, "hilbert", doc)["series"]
    return _ints(series["numerator"]), _ints(series["denominator"])


def test_check_ses_keeps_the_laurent_part_in_the_quotient(tmp_path, capsys):
    # M = L + A over W_1 with J = (y): M' = (y), a shifted copy of A, and
    # M'' = L + k[x], of gk 1 and e 2 + 1
    a = AlgebraSpec.weyl(1)
    doc = {"spec_version": 1, "algebra": _algebra_doc(a),
           "module": {"summands": [{"ideal": []}], "negative_shift": 1},
           "ses": {"sub_ideals": [["y1"]]}}
    report = _report(capsys, tmp_path, "check-ses", doc)
    assert (report["gk_triple"], report["e_values"], report["case"]) == (
        [2, 2, 1], [[1, 1], [1, 1], [3, 1]], "b")
    assert report["exactness_ok"] and report["additivity_ok"]
    # seeded sequences against the hilbert series of M and M''
    rng = random.Random(2205)
    for _ in range(8):
        a = AlgebraSpec.polynomial(2, degrees=[(rng.randint(1, 3),), (rng.randint(1, 3),)])
        big = ModuleSpec(tuple(Summand(rng.randint(0, 2), _random_ideal(rng, 2, rng.randint(0, 2)))
                               for _ in range(rng.randint(0, 2))), negative_shift=1)
        subs = tuple(s.ideal + _random_ideal(rng, 2, rng.randint(0, 2)) for s in big.summands)
        quotient = big._replace(summands=tuple(Summand(s.shift, sub)
                                               for s, sub in zip(big.summands, subs)))
        p, q = _series(capsys, tmp_path, a, big)
        p2, _ = _series(capsys, tmp_path, a, quotient)
        width = max(len(p), len(p2))
        diff = [(p + [0] * width)[i] - (p2 + [0] * width)[i] for i in range(width)]
        want = [None if not any(x) else _at_one(x, q) for x in (diff, p, p2)]
        doc = {"spec_version": 1, "algebra": _algebra_doc(a), "module": _module_doc(a, big),
               "ses": {"sub_ideals": [_ideal_doc(a, sub) for sub in subs]}}
        report = _report(capsys, tmp_path, "check-ses", doc)
        assert report["gk_triple"] == [None if w is None else w[0] for w in want], doc
        assert [Fraction(*e) for e in report["e_values"]] == [
            0 if w is None else w[1] for w in want], doc
        assert report["exactness_ok"], doc


def test_chain_keeps_or_drops_a_laurent_part_but_gains_none():
    a = AlgebraSpec.weyl(1)
    both = ModuleSpec((Summand(0, ()),), negative_shift=1)
    cut = ModuleSpec((Summand(0, ((1, 0),)),), negative_shift=1)
    # keeping it: the factor is the ideal (x), a shifted copy of A
    kept = chain_bound_check(a, [both, cut])
    assert (kept.n, kept.gk_m, kept.e_m, kept.bound_ok, kept.quotients_full_gk) == (
        1, 2, 1, True, True)
    # dropping it: the Laurent line is the factor, again of gk 1
    dropped = chain_bound_check(a, [both, ModuleSpec.regular()])
    assert (dropped.n, dropped.quotients_full_gk) == (1, False)
    # kept, then dropped: the second factor is the line and the ideal (y) of
    # k[y], both of gk 1
    both_ways = chain_bound_check(a, [both, cut, ModuleSpec.cyclic([(1, 0), (0, 1)])])
    assert (both_ways.n, both_ways.bound_ok, both_ways.notes) == (
        2, False, ("quotient 2 has smaller growth dimension than the module",))
    for chain in ([ModuleSpec.regular(), both], [ModuleSpec((Summand(0, ((1, 0),)),)), cut],
                  [both, cut._replace(negative_shift=2)]):
        with pytest.raises(SpecError) as exc:
            chain_bound_check(a, chain)
        assert exc.value.path == "chain[2]"
        assert "not nested" in exc.value.message
