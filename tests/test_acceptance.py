"""Release acceptance gate: eleven end-to-end checks, one per headline
guarantee of the package.

Every check prints a single `ACCEPTANCE NN: PASS/FAIL - summary` line on the
real stdout (bypassing capture) so a test log shows the acceptance status at
a glance.  All comparisons are exact -- integer and Fraction equality,
polynomial identity, structured JSON fields; the one floating-point value in
the library (the log-growth diagnostic) is never asserted numerically.

The two large enumerations are exhaustive rather than sampled:

* integer-valued interpolation is checked on all 6^6 value tuples in
  {0..5}^6 at the nodes 0..5;
* monomial-quotient Hilbert series are checked against a direct numpy
  enumeration for every ideal with at most four minimal generators of
  total degree at most three, in one to four variables (each distinct
  ideal appears exactly once, as its minimal antichain of generators).
"""

import contextlib
import functools
import io
import itertools
import json
import math
import os
import tempfile

import numpy as np

from gkdim.axioms import (SESSpec, chain_bound_check, check_multiplicity_axioms,
                          ses_dimension_triple)
from gkdim.catalog import cumulative_sequence
from gkdim.cli import main
from gkdim.exactnum import (BinomialForm, Polynomial, finite_difference,
                            from_binomial_basis, to_binomial_basis)
from gkdim.hilbert import (DimensionSequence, algebra_dim_sequence,
                           hilbert_series_monomial_quotient,
                           module_dim_sequence)
from gkdim.poincare import (denominator_analysis, minimal_recurrence,
                            quasi_polynomial, series_from_recurrence)
from gkdim.presentations import (AlgebraSpec, ModuleSpec, Summand,
                                 filtration_layer_dim, monomial_divides,
                                 zero_module)
from gkdim.samuel import (classify_growth, detect_polynomial, gk_dimension,
                          multiplicity)

# ---------------------------------------------------------------------------
# verdict lines

# one line per acceptance check; conftest.py echoes these to the terminal at
# the end of the run (direct writes would be swallowed by output capture)
VERDICTS = []


def _criterion(number, summary):
    """Record one PASS/FAIL verdict line per acceptance check."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                VERDICTS.append(f"ACCEPTANCE {number:02d}: FAIL - {summary}")
                raise
            VERDICTS.append(f"ACCEPTANCE {number:02d}: PASS - {summary}")
        return wrapper
    return decorate


def _run_cli(command, doc):
    """Run one CLI command on a JSON document; return (payload, exit code)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, path])
    return json.loads(out.getvalue()), code


# ---------------------------------------------------------------------------
# 1: Weyl algebra filtration layers


@_criterion(1, "Weyl filtration layers are binomial; fits have degree 2n, "
               "top coefficient 1")
def test_01_weyl_layer_dimensions_and_fit():
    for n in (1, 2, 3):
        a = AlgebraSpec.weyl(n)
        layers = [filtration_layer_dim(a, j) for j in range(21)]
        assert layers == [math.comb(2 * n + j, 2 * n) for j in range(21)]
        fit = detect_polynomial(DimensionSequence(tuple(layers), "cumulative"))
        assert fit is not None
        assert fit.form.degree == 2 * n
        assert multiplicity(fit) == 1


# ---------------------------------------------------------------------------
# 2: the analyze pipeline on polynomial rings


@_criterion(2, "analyze reports growth dimension d for polynomial rings, "
               "d = 1..5")
def test_02_analyze_polynomial_rings():
    for d in range(1, 6):
        doc = {"spec_version": 1,
               "algebra": {"kind": "polynomial",
                           "generators": [{"name": f"x{i + 1}"}
                                          for i in range(d)]}}
        payload, code = _run_cli("analyze", doc)
        assert code == 0
        growth = payload["report"]["growth"]
        assert growth["classification"] == "polynomial"
        assert growth["gk"] == d


# ---------------------------------------------------------------------------
# 3: module invariants over the Weyl algebra, and the two-sided line


@_criterion(3, "coordinate modules over Weyl algebras: growth n, "
               "multiplicity 1; two-sided line: growth 1, multiplicity 2")
def test_03_module_growth_invariants():
    for n in (1, 2, 3):
        a = AlgebraSpec.weyl(n)
        # kill the y generators; the x monomials remain
        kill_y = tuple(tuple(1 if i == n + j else 0 for i in range(2 * n))
                       for j in range(n))
        dims = module_dim_sequence(a, ModuleSpec.cyclic(kill_y), 24)
        fit = detect_polynomial(dims)
        assert fit is not None
        assert gk_dimension(fit) == n
        assert multiplicity(fit) == 1

    line = AlgebraSpec.polynomial(1)
    dims = module_dim_sequence(line, ModuleSpec.laurent(), 24)
    assert dims.values == tuple(2 * j + 1 for j in range(25))
    fit = detect_polynomial(dims)
    assert gk_dimension(fit) == 1
    assert multiplicity(fit) == 2


# ---------------------------------------------------------------------------
# 4: the doubling sequence end to end


@_criterion(4, "doubling word counts: recurrence (3, -2), denominator "
               "(1-t)(1-2t), root inside the unit disk, exponential verdict")
def test_04_free_algebra_two_generators():
    cum = cumulative_sequence("free_algebra_2", 24)
    assert list(cum) == [2 ** (n + 1) - 1 for n in range(25)]

    rec = minimal_recurrence(cum)
    assert rec is not None
    assert rec.order == 2
    assert rec.coefficients == (3, -2)

    series = series_from_recurrence(cum, rec)
    assert series.denominator == Polynomial([1, -1]) * Polynomial([1, -2])

    analysis = denominator_analysis(series.denominator)
    assert analysis.radius_class == "inside_unit_disk"

    assert classify_growth(cum).classification == "exponential"


# ---------------------------------------------------------------------------
# 5: a line generated in weight two


@_criterion(5, "line generated in weight 2: series 1/(1-t^2), pure pair "
               "(2, 1), branch constants {1, 0} of degree at most d-1 = 0")
def test_05_weighted_line_series_and_branches():
    a = AlgebraSpec.polynomial(1, degrees=[(2,)])
    series = hilbert_series_monomial_quotient(a, ())
    assert series.numerator == Polynomial([1])
    assert series.denominator == Polynomial([1, 0, -1])

    analysis = denominator_analysis(series.denominator)
    assert (analysis.s, analysis.d) == (2, 1)

    quasi = quasi_polynomial(series, series.expand(24))
    assert quasi.period == 2
    assert {branch.constant_term() for branch in quasi.branches} == {1, 0}
    assert max(branch.degree for branch in quasi.branches) == analysis.d - 1
    assert analysis.d - 1 == 0


# ---------------------------------------------------------------------------
# 6: exactness and multiplicity across every nested pair of small ideals


def _small_ideals(nvars):
    """Monomial ideals in `nvars` variables with at most two minimal
    generators of total degree 1..3, plus the zero and unit ideals."""
    pool = [e for k in (1, 2, 3)
            for e in itertools.product(range(k + 1), repeat=nvars)
            if sum(e) == k]
    ideals = [()]
    ideals += [(g,) for g in pool]
    ideals += [pair for pair in itertools.combinations(pool, 2)
               if not monomial_divides(pair[0], pair[1])
               and not monomial_divides(pair[1], pair[0])]
    ideals.append(((0,) * nvars,))
    return ideals


def _ideal_contains(outer, inner):
    """Containment of monomial ideals via generator divisibility."""
    return all(any(monomial_divides(h, g) for h in outer) for g in inner)


@_criterion(6, "exactness and the case multiplicity identity hold for every "
               "nested pair of small monomial ideals, with degreewise balance")
def test_06_short_exact_sequences_nested_ideals():
    top = 25
    pairs = 0
    for nvars in (1, 2, 3):
        a = AlgebraSpec.polynomial(nvars)
        ideals = _small_ideals(nvars)
        for inner in ideals:
            for outer in ideals:
                if not _ideal_contains(outer, inner):
                    continue
                ses = SESSpec(a, ModuleSpec.cyclic(inner), (outer,))
                prime, big, double = ses_dimension_triple(ses, top)
                assert all(prime[k] + double[k] == big[k]
                           for k in range(top + 1))
                report = check_multiplicity_axioms(ses)
                assert report.case != "inconclusive"
                assert report.exactness_ok is True
                assert report.additivity_ok is True
                pairs += 1
    assert pairs > 1000


# ---------------------------------------------------------------------------
# 7: chain length bound on free modules


def _free(rank):
    return ModuleSpec(tuple(Summand(0, ()) for _ in range(rank)))


@_criterion(7, "free rank-r modules: every flag satisfies n <= e(M) = r, "
               "with equality at the full flag")
def test_07_chain_bound_free_modules():
    a = AlgebraSpec.polynomial(1)
    for r in range(1, 5):
        steps = [_free(k) for k in range(r - 1, 0, -1)] + [zero_module(a)]
        # every flag from M = A^r down to 0 through free submodules: any
        # subset of the intermediate steps, with the full flag at the top
        for keep in itertools.product((True, False), repeat=len(steps) - 1):
            chain = [_free(r)]
            chain += [m for m, k in zip(steps[:-1], keep) if k]
            chain.append(steps[-1])
            report = chain_bound_check(a, chain)
            assert report.e_m == r
            assert report.n == len(chain) - 1
            assert report.bound_ok is True
        full = chain_bound_check(a, [_free(k) for k in range(r, 0, -1)]
                                 + [zero_module(a)])
        assert full.n == r
        assert full.e_m == r
        assert full.bound_ok is True
        assert full.quotients_full_gk is True


# ---------------------------------------------------------------------------
# 8: integer-valued interpolation, exhaustively


@_criterion(8, "all 46656 integer value tuples on the nodes 0..5: binomial "
               "coefficients are integral and conversions round-trip exactly")
def test_08_integer_valued_polynomials_exhaustive():
    nodes = (0, 1, 2, 3, 4, 5)
    count = 0
    for values in itertools.product(range(6), repeat=6):
        row = list(values)
        coeffs = [row[0]]
        while len(row) > 1:
            row = finite_difference(row)
            coeffs.append(row[0])
        form = BinomialForm(coeffs)
        assert form.is_integral()
        poly = from_binomial_basis(form)
        assert tuple(poly.evaluate(j) for j in nodes) == values
        assert to_binomial_basis(poly) == form
        count += 1
    assert count == 6 ** 6


# ---------------------------------------------------------------------------
# 9: Hilbert series versus direct enumeration, exhaustively


def _exponent_grid(nvars, top):
    grid = np.array([v for v in itertools.product(range(top + 1), repeat=nvars)
                     if sum(v) <= top], dtype=np.int64)
    return grid, grid.sum(axis=1)


def _antichains(pool, max_size):
    for size in range(max_size + 1):
        for gens in itertools.combinations(pool, size):
            if all(not monomial_divides(a, b) and not monomial_divides(b, a)
                   for a, b in itertools.combinations(gens, 2)):
                yield gens


@_criterion(9, "Hilbert series expansion equals direct enumeration for every "
               "ideal with <= 4 generators of degree <= 3 in <= 4 variables")
def test_09_hilbert_series_exhaustive():
    top = 20
    checked = 0
    for nvars in (1, 2, 3, 4):
        a = AlgebraSpec.polynomial(nvars)
        pool = [e for k in (1, 2, 3)
                for e in itertools.product(range(k + 1), repeat=nvars)
                if sum(e) == k]
        grid, degrees = _exponent_grid(nvars, top)
        divisible = {g: (grid >= np.array(g)).all(axis=1) for g in pool}
        for gens in _antichains(pool, 4):
            if gens:
                dead = divisible[gens[0]].copy()
                for g in gens[1:]:
                    dead |= divisible[g]
                counts = np.bincount(degrees[~dead], minlength=top + 1)
            else:
                counts = np.bincount(degrees, minlength=top + 1)
            series = hilbert_series_monomial_quotient(a, gens)
            assert series.expand(top + 1) == counts[:top + 1].tolist()
            checked += 1
    assert checked == 4 + 41 + 1179 + 20478


# ---------------------------------------------------------------------------
# 10: denominators of detectable cumulative sequences


def _sequence_catalog(top):
    plane = AlgebraSpec.polynomial(2)
    line = AlgebraSpec.polynomial(1)
    entries = [
        ("words_2", cumulative_sequence("free_algebra_2", top)),
        ("sqrt_exp", cumulative_sequence("smith_lie", top)),
        ("weighted_line", algebra_dim_sequence(
            AlgebraSpec.polynomial(1, degrees=[(2,)]), top)),
    ]
    for d in (1, 2, 3, 4):
        entries.append((f"polynomial_{d}",
                        algebra_dim_sequence(AlgebraSpec.polynomial(d), top)))
    for n in (1, 2):
        a = AlgebraSpec.weyl(n)
        entries.append((f"weyl_{n}", DimensionSequence(
            tuple(filtration_layer_dim(a, j) for j in range(top + 1)),
            "cumulative")))
    entries += [
        ("plane_mod_xy", module_dim_sequence(
            plane, ModuleSpec.cyclic(((1, 1),)), top)),
        ("axis_in_plane", module_dim_sequence(
            plane, ModuleSpec.cyclic(((1, 0),)), top)),
        ("two_sided_line", module_dim_sequence(line, ModuleSpec.laurent(), top)),
        ("shifted_pair", module_dim_sequence(
            plane, ModuleSpec((Summand(0, ()), Summand(3, ((2, 0),)))), top)),
        ("finite_quotient", module_dim_sequence(
            line, ModuleSpec.cyclic(((3,),)), top)),
    ]
    return entries


@_criterion(10, "for every detectable sequence in the catalog the reduced "
                "denominator divides (1-t)^(d+1)")
def test_10_denominator_divides_pure_power():
    detectable = 0
    skipped = []
    for name, seq in _sequence_catalog(30):
        fit = detect_polynomial(seq)
        if fit is None:
            skipped.append(name)
            continue
        d = fit.form.degree
        rec = minimal_recurrence(seq)
        assert rec is not None, name
        series = series_from_recurrence(seq, rec)
        reduced = series.reduced()
        assert reduced.denominator.divides(Polynomial([1, -1]) ** (d + 1)), name
        detectable += 1
    # exponential, intermediate, and quasi-periodic growth are not eventually
    # polynomial; everything else in the catalog must be detected
    assert sorted(skipped) == ["sqrt_exp", "weighted_line", "words_2"]
    assert detectable == 11


# ---------------------------------------------------------------------------
# 11: intermediate growth stays inconclusive


@_criterion(11, "growth like exp(sqrt(n)) is classified inconclusive (never "
                "polynomial or exponential) and exits with code 1")
def test_11_intermediate_growth_inconclusive():
    report = classify_growth(cumulative_sequence("smith_lie", 40))
    assert report.classification == "inconclusive"
    assert report.classification not in ("polynomial", "exponential")

    doc = {"spec_version": 1,
           "algebra": {"kind": "catalog", "catalog_id": "smith_lie"}}
    payload, code = _run_cli("classify", doc)
    assert code == 1
    assert payload["report"]["growth"]["classification"] == "inconclusive"
