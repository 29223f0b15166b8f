"""Independent oracles for every value a benchmark report states.

None of this imports gkdim. Counting uses a slicing recursion on the last
variable, a different algorithm from the program's inclusion-exclusion and
pivot recursion; growth degree and multiplicity come from the pole of the
exact Hilbert series at t = 1 (Hilbert-Serre), not from a difference tower;
denominators are factored with sympy; partition counts come from
sympy.partition; closed forms cover Weyl algebras, free algebras and
geometric sequences.

verify(case, raw, code, payload) returns (problems, inconclusive): an
empty problem list means every stated value agrees with the oracle. An
"inconclusive" verdict is honest, and not a problem, only on smith_lie,
whose generating function is not rational; every other input has an answer
the oracle knows and the program's samples determine, so an inconclusive
verdict there is a failure.
"""

import hashlib
import math
from fractions import Fraction
from functools import lru_cache

import workloads

#: families whose answer the program cannot reach from its samples
INCONCLUSIVE_FAMILIES = frozenset({"smith_lie"})

# ---------------------------------------------------------------------------
# integer polynomials as ascending coefficient lists


def _trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(a: list, b: list, shift: int = 0, sign: int = 1) -> list:
    out = list(a) + [0] * max(0, len(b) + shift - len(a))
    for i, c in enumerate(b):
        out[i + shift] += sign * c
    return out


def _mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def weight_denominator(weights) -> list:
    """prod_i (1 - t^w_i)."""
    out = [1]
    for w in weights:
        out = _mul(out, [1] + [0] * (w - 1) + [-1])
    return _trim(out)


def divide_by_weights(num: list, weights, count: int) -> list:
    """First `count` coefficients of num(t) / prod_i (1 - t^w_i)."""
    out = (list(num) + [0] * count)[:count]
    for w in weights:
        for n in range(w, count):
            out[n] += out[n - w]
    return out


def prefix_sums(values) -> list:
    acc, out = 0, []
    for v in values:
        acc += v
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# standard monomials of a monomial ideal, by slicing on the last variable


def quotient_numerator(gens, weights) -> list:
    """N(t) with Hilbert series of k[x]/(gens) = N(t) / prod_i (1 - t^w_i).

    A monomial u * x_m^e lies in the ideal exactly when u lies in the ideal
    I_e generated by the gens whose x_m exponent is at most e, restricted to
    the first m - 1 variables. I_e only changes at the x_m exponents that
    occur, so the series is a finite sum over those cuts.
    """
    return _trim(_slice(frozenset(tuple(g) for g in gens), tuple(weights)))


@lru_cache(maxsize=None)
def _slice(gens: frozenset, weights: tuple) -> list:
    m = len(weights)
    if m == 0:
        return [] if gens else [1]          # a remaining generator is the unit
    if not gens:
        return [1]
    w = weights[-1]
    cuts = sorted({0} | {g[-1] for g in gens})
    out: list = []
    for j, cut in enumerate(cuts):
        sub = _slice(frozenset(g[:-1] for g in gens if g[-1] <= cut), weights[:-1])
        out = _add(out, sub, cut * w)
        if j + 1 < len(cuts):
            out = _add(out, sub, cuts[j + 1] * w, -1)
    return _trim(out)


def brute_force_counts(gens, weights, top: int) -> list:
    """Standard monomials by weighted degree 0..top, by enumeration."""
    counts = [0] * (top + 1)

    def walk(prefix, degree):
        if len(prefix) == len(weights):
            if not any(all(x >= g for x, g in zip(prefix, gen)) for gen in gens):
                counts[degree] += 1
            return
        w = weights[len(prefix)]
        e = 0
        while degree + e * w <= top:
            walk(prefix + (e,), degree + e * w)
            e += 1

    walk((), 0)
    return counts


def growth_of(num: list, nvars: int):
    """(gk, multiplicity) of a module with series num(t) / (1 - t)^nvars.

    The cumulative series num / (1 - t)^(nvars + 1) has a pole of order
    gk + 1 at t = 1, and the multiplicity is the leading Laurent
    coefficient there. The zero module gives (None, 0).
    """
    num = _trim(num)
    if not num:
        return None, Fraction(0)
    order = nvars + 1
    while sum(num) == 0:                    # divide by (1 - t)
        num = prefix_sums(num)[:-1]
        order -= 1
    return order - 1, Fraction(sum(num))


# ---------------------------------------------------------------------------
# JSON spec reading


def _fractions(pairs) -> list:
    return [Fraction(n, d) for n, d in pairs]


def _poly_payload(coeffs) -> list:
    return [[Fraction(c).numerator, Fraction(c).denominator] for c in _trim(coeffs)]


def _parse_monomial(text: str, names) -> tuple:
    expo = [0] * len(names)
    if text.strip() == "1":
        return tuple(expo)
    for factor in text.split("*"):
        name, _, power = factor.partition("^")
        expo[names.index(name)] += int(power) if power else 1
    return tuple(expo)


def _algebra(doc):
    """(kind, names, scalar weights, weyl rank) of an explicit algebra."""
    a = doc["algebra"]
    if a["kind"] == "weyl":
        rank = a["weyl_rank"]
        names = [f"x{i + 1}" for i in range(rank)] + [f"y{i + 1}" for i in range(rank)]
        return "weyl", names, [1] * (2 * rank), rank
    names = [g["name"] for g in a["generators"]]
    weights = [sum(g.get("degree", [1])) for g in a["generators"]]
    return a["kind"], names, weights, None


def _ideal(texts, names) -> tuple:
    return tuple(_parse_monomial(t, names) for t in texts)


def _summands(doc, names) -> list:
    """[(shift, gens)] of the doc's module, or the regular module."""
    if "module" not in doc:
        return [(0, ())]
    return [(s.get("shift", 0), _ideal(s.get("ideal", []), names))
            for s in doc["module"]["summands"]]


def _module_numerator(summands, weights) -> list:
    out: list = []
    for shift, gens in summands:
        out = _add(out, quotient_numerator(gens, weights), shift)
    return _trim(out)


# ---------------------------------------------------------------------------
# denominators, via sympy factorisation


def _sympy():
    import sympy  # imported on first use, after the timed passes
    return sympy


@lru_cache(maxsize=None)
def _cyclotomic_order(coeffs: tuple):
    """k when the integer polynomial (descending coeffs) is the k-th cyclotomic one."""
    sp = _sympy()
    t = sp.Symbol("t")
    f = sp.Poly(coeffs, t)
    if not f.is_cyclotomic:
        return None
    degree = f.degree()
    for k in range(1, 2 * degree ** 2 + 17):
        if sp.totient(k) == degree and sp.Poly(sp.cyclotomic_poly(k, t), t) == f:
            return k
    return None


def expected_denominator(den: list) -> dict:
    """The root-location facts of a series denominator with constant term 1."""
    sp = _sympy()
    t = sp.Symbol("t")
    scale = math.lcm(*(c.denominator for c in den))
    integer = [int(c * scale) for c in den]
    _, factors = sp.factor_list(sp.Poly(list(reversed(integer)), t))
    mults, linear, residual, integral = {}, [], [Fraction(1)], scale == 1
    for f, m in factors:
        desc = [int(c) for c in f.all_coeffs()]
        if desc[0] < 0:
            desc = [-c for c in desc]
        k = _cyclotomic_order(tuple(desc))
        if k is not None:
            mults[k] = mults.get(k, 0) + m
            continue
        asc = [Fraction(c) for c in reversed(desc)]
        asc = [c / asc[0] for c in asc]     # constant term 1
        if len(asc) == 2:
            linear.extend([tuple(asc)] * m)
        else:
            for _ in range(m):
                residual = _mul(residual, asc)
    if len(den) <= 1:
        radius, s, d = "all_roots_on_unit_circle", 1, 0
    elif not linear and len(residual) == 1:
        radius = "all_roots_on_unit_circle"
        s = max(mults) if mults else 1
        d = mults.get(s, 0)
        divisors = {k for k in range(1, s + 1) if s % k == 0}
        if not (set(mults) == divisors and all(v == d for v in mults.values())):
            s = d = None
    else:
        s = d = None
        # Kronecker: an integer polynomial with constant term 1 and a
        # non-cyclotomic factor has a root strictly inside the unit disk
        inside = integral or any(abs(r) < 1 for r in sp.Poly(
            list(reversed(integer)), t).nroots(n=30))
        radius = "inside_unit_disk" if inside else "mixed"
    return {"radius_class": radius, "s": s, "d": d,
            "cyclotomic_multiplicities": sorted([k, v] for k, v in mults.items()),
            "linear_factors": sorted(linear),
            "residual": tuple(residual)}


def _check_denominator(stated: dict, den: list, problems: list) -> None:
    want = expected_denominator(den)
    if stated["radius_class"] == "mixed" and want["radius_class"] != "all_roots_on_unit_circle":
        pass  # not certified is honest when roots lie off the circle
    elif stated["radius_class"] != want["radius_class"]:
        problems.append(f"radius_class {stated['radius_class']} != {want['radius_class']}")
    for key in ("s", "d", "cyclotomic_multiplicities"):
        if stated[key] != want[key]:
            problems.append(f"denominator {key} {stated[key]} != {want[key]}")
    linear = sorted(tuple(_fractions(f)) for f in stated["linear_factors"])
    if linear != want["linear_factors"]:
        problems.append(f"linear factors {linear} != {want['linear_factors']}")
    if tuple(_fractions(stated["residual"])) != want["residual"]:
        problems.append("residual factor disagrees with the factorisation")


# ---------------------------------------------------------------------------
# generic checks of stated recurrences, series and quasi-polynomials


def _series_expansion(num: list, den: list, count: int) -> list:
    out = []
    for n in range(count):
        acc = num[n] if n < len(num) else Fraction(0)
        for k in range(1, min(n, len(den) - 1) + 1):
            acc -= den[k] * out[n - k]
        out.append(acc)
    return out


def _check_recurrence(rec: dict, values: list, problems: list, order=None) -> None:
    coeffs, r, onset = _fractions(rec["coefficients"]), rec["order"], rec["onset"]

    def holds(n):
        return values[n + r] == sum(c * values[n + r - 1 - i] for i, c in enumerate(coeffs))

    if not all(holds(n) for n in range(onset, len(values) - r)):
        problems.append("stated recurrence fails on a sample")
    if onset > 0 and holds(onset - 1):
        problems.append("stated recurrence onset is not minimal")
    if order is not None and r != order:
        problems.append(f"recurrence order {r} != {order}")


def _check_series(series: dict, values: list, problems: list, den_want=None) -> list:
    num, den = _fractions(series["numerator"]), _fractions(series["denominator"])
    if not den or den[0] != 1:
        problems.append("series denominator constant term is not 1")
        return den
    if _series_expansion(num, den, len(values)) != [Fraction(v) for v in values]:
        problems.append("series expansion disagrees with the samples")
    sp = _sympy()
    t = sp.Symbol("t")
    g = sp.gcd(sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(num)], t),
               sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(den)], t))
    if g.degree() > 0:
        problems.append("series is not reduced")
    if den_want is not None and den != [Fraction(c) for c in den_want]:
        problems.append("series denominator differs from the closed form")
    return den


def _check_quasi(quasi: dict, values: list, problems: list) -> None:
    period, onset = quasi["period"], quasi["onset"]
    branches = [_fractions(b) for b in quasi["branches"]]
    for n in range(onset, len(values)):
        b = branches[n % period]
        if sum(c * n ** i for i, c in enumerate(b)) != values[n]:
            problems.append(f"quasi-polynomial branch misses sample {n}")
            return


def _check_rational_part(report: dict, values: list, problems: list, order=None,
                         den_want=None) -> None:
    if report.get("recurrence") is not None:
        _check_recurrence(report["recurrence"], values, problems, order)
    if report.get("series") is not None:
        den = _check_series(report["series"], values, problems, den_want)
        if report.get("denominator") is not None:
            _check_denominator(report["denominator"], den, problems)
    if report.get("quasi") is not None:
        _check_quasi(report["quasi"], values, problems)


# ---------------------------------------------------------------------------
# per-command verification


def _frac(x) -> list:
    x = Fraction(x)
    return [x.numerator, x.denominator]


@lru_cache(maxsize=None)
def smith_graded(top: int) -> tuple:
    """Degree-n pieces of the smith_lie catalog entry: sum_{w <= n} p(w)."""
    sp = _sympy()
    return tuple(prefix_sums(int(sp.partition(w)) for w in range(top + 1)))


def _check_hilbert(case, code, report, problems):
    _, names, weights, _ = _algebra(case.doc)
    num = _module_numerator(_summands(case.doc, names), weights)
    den = weight_denominator(weights)
    if report["series"] != {"numerator": _poly_payload(num), "denominator": _poly_payload(den)}:
        problems.append("structured series differs from the slicing count")
    rnum, rden = _fractions(report["reduced"]["numerator"]), _fractions(report["reduced"]["denominator"])
    if _trim(_mul(rnum, den)) != _trim(_mul(num, rden)):
        problems.append("reduced series is not equal to the structured one")
    _check_series(report["reduced"], divide_by_weights(num, weights, len(num) + len(den) + 4),
                  problems)
    if report["graded_dimensions"] != divide_by_weights(num, weights, case.max_degree + 1):
        problems.append("graded dimensions differ from the slicing count")
    return False


def _check_hilbert_samuel(hs: dict, cumulative: list, problems: list) -> None:
    coeffs = _fractions(hs["binomial_coefficients"])
    start = hs["stabilization_index"]

    def value(n):
        return sum(c * math.comb(n, i) for i, c in enumerate(coeffs))

    if any(value(n) != cumulative[n] for n in range(start, len(cumulative))):
        problems.append("Hilbert-Samuel polynomial misses a sample")
    if start > 0 and value(start - 1) == cumulative[start - 1]:
        problems.append("stabilization index is not minimal")


def _growth_classification(gk):
    return "finite_dimensional" if gk == 0 else "polynomial"


def _check_analyze(case, code, report, problems):
    kind, names, weights, rank = _algebra(case.doc)
    summands = _summands(case.doc, names)
    num = _module_numerator(summands, weights)
    graded = divide_by_weights(num, weights, case.max_degree + 1)
    cumulative = prefix_sums(graded)
    if kind == "weyl" and "module" not in case.doc:
        closed = [math.comb(n + 2 * rank, 2 * rank) for n in range(case.max_degree + 1)]
        if closed != cumulative:
            problems.append("oracle disagrees with C(n + 2r, 2r)")
    if report["dimensions"] != {"cumulative": cumulative, "graded": graded}:
        problems.append("dimension sequences differ from the oracle")
    gk, e = growth_of(num, len(weights))
    growth = report["growth"]
    if growth["classification"] != _growth_classification(gk):
        problems.append(f"classification {growth['classification']} for gk {gk}")
    if growth["gk"] != gk or growth["multiplicity"] != _frac(e):
        problems.append(f"gk/multiplicity {growth['gk']}/{growth['multiplicity']} "
                        f"!= {gk}/{_frac(e)}")
    if growth["hilbert_samuel"] is not None:
        _check_hilbert_samuel(growth["hilbert_samuel"], cumulative, problems)
    _check_rational_part(growth, cumulative, problems)
    h = rank if kind == "weyl" else 0
    hol = report["holonomy"]
    if hol is not None and hol != {"gk": gk, "h": h, "defect": gk - h,
                                   "min_holonomic": gk == h}:
        problems.append(f"holonomy {hol} disagrees with gk {gk}, h {h}")
    tor = report["torsion"]
    if tor is not None:
        if len(summands) != 1:
            problems.append("torsion reported for a multi-summand module")
        gk_algebra = len(weights)
        applicable = gk_algebra > h > 0
        want = bool(summands[0][1]) if applicable else None
        if tor["applicable"] != applicable or tor["torsion"] != want:
            problems.append(f"torsion {tor['applicable']}/{tor['torsion']} "
                            f"!= {applicable}/{want}")
    elif hol is not None and len(summands) == 1:
        problems.append("torsion missing for a cyclic module")
    return growth["classification"] == "inconclusive"


def _ses_case(gk, e):
    zero = [g is None for g in gk]
    if any(zero):
        return "degenerate", e[1] == e[0] + e[2]
    if gk[0] == gk[1] == gk[2]:
        return "c", e[1] == e[0] + e[2]
    if gk[0] < gk[1] == gk[2]:
        return "a", e[1] == e[2]
    if gk[2] < gk[1] == gk[0]:
        return "b", e[0] == e[1]
    return "inconclusive", None


def _check_ses(case, code, report, problems):
    _, names, weights, _ = _algebra(case.doc)
    summands = _summands(case.doc, names)
    subs = [_ideal(s, names) for s in case.doc["ses"]["sub_ideals"]]
    big = _module_numerator(summands, weights)
    double = _module_numerator([(s, j) for (s, _), j in zip(summands, subs)], weights)
    prime = _trim(_add(big, double, 0, -1))
    pieces = [growth_of(p, len(weights)) for p in (prime, big, double)]
    gk = [g for g, _ in pieces]
    e = [m for _, m in pieces]
    want_case, additive = _ses_case(gk, e)
    side = [g for g in (gk[0], gk[2]) if g is not None]
    exact = gk[1] == max(side) if gk[1] is not None else not side
    if not (exact and additive):
        problems.append("oracle breaks exactness or additivity; oracle fault")
    want = {"gk_triple": gk, "e_values": [_frac(x) for x in e], "case": want_case,
            "exactness_ok": True, "additivity_ok": True}
    got = {k: report[k] for k in want}
    if got != want:
        problems.append(f"ses verdict {got} != {want}")
    return report["case"] == "inconclusive"


def _check_chain(case, code, report, problems):
    _, names, weights, _ = _algebra(case.doc)
    nums = [quotient_numerator(_ideal(c, names), weights) for c in case.doc["chain"]]
    n = len(nums) - 1
    gk_m, e_m = growth_of(nums[0], len(weights))
    full = True
    for a, b in zip(nums, nums[1:]):
        gk_q, _ = growth_of(_add(a, b, 0, -1), len(weights))
        if gk_q != gk_m:
            full = False
    want = {"n": n, "e_m": _frac(e_m), "gk_m": gk_m, "bound_ok": n <= e_m}
    got = {k: report[k] for k in want}
    if got != want:
        problems.append(f"chain verdict {got} != {want}")
    if report["quotients_full_gk"] not in (None, full):
        problems.append(f"quotients_full_gk {report['quotients_full_gk']} != {full}")
    return report["bound_ok"] is None


def _check_refilter(case, code, report, problems):
    a = case.doc["algebra"]
    weight = case.doc["weight"]
    want = {"ok": True, "reason": None, "refiltered": {
        "kind": a["kind"], "names": [g["name"] for g in a["generators"]],
        "weights": [sum(w * d for w, d in zip(weight, g["degree"])) for g in a["generators"]]}}
    if report != want:
        problems.append(f"refilter report {report} != {want}")
    return False


def _samples(case, graded: bool) -> list:
    """The samples classify (cumulative) or poincare (graded) works on, and
    the closed-form minimal recurrence order and denominator when known."""
    doc, top = case.doc, case.max_degree
    if "sequence" in doc:
        seq = doc["sequence"]
        ratio = seq[1] // seq[0] - 1
        return seq, 2, [1, -(ratio + 1), ratio]
    if "algebra" in doc and doc["algebra"]["kind"] == "catalog":
        if doc["algebra"]["catalog_id"] == "free_algebra_2":
            values = [2 ** n for n in range(top + 1)]
            if graded:
                return values, 1, [1, -2]
            return prefix_sums(values), 2, [1, -3, 2]
        values = list(smith_graded(top))
        return (values if graded else prefix_sums(values)), None, None
    _, _, weights, _ = _algebra(doc)
    values = divide_by_weights([1], weights, top + 1)
    den = weight_denominator(weights)
    if graded:
        return values, len(den) - 1, den
    return prefix_sums(values), len(den), _mul(den, [1, -1])


def _expected_growth(case) -> tuple:
    """(classification, gk, multiplicity) a classify report must state."""
    doc = case.doc
    if case.family in INCONCLUSIVE_FAMILIES:
        return "inconclusive", None, None
    if "algebra" in doc and doc["algebra"]["kind"] == "polynomial":
        # the cumulative series 1 / ((1 - t) prod_i (1 - t^w_i)) has a pole of
        # order n + 1 at t = 1 with leading coefficient 1 / prod_i w_i
        _, _, weights, _ = _algebra(doc)
        return "polynomial", len(weights), Fraction(1, math.prod(weights))
    return "exponential", None, None


def _check_classify(case, code, report, problems):
    values, order, den = _samples(case, graded=False)
    growth = report["growth"]
    got = growth["classification"]
    want, gk, e = _expected_growth(case)
    if got != want:
        problems.append(f"classification {got} != {want}")
    if growth["gk"] != gk or growth["multiplicity"] != (None if e is None else _frac(e)):
        problems.append(f"gk/multiplicity {growth['gk']}/{growth['multiplicity']} "
                        f"!= {gk}/{e}")
    if got == "exponential":
        if growth["recurrence"] is None or growth["denominator"] is None:
            problems.append("exponential verdict without its recurrence")
        elif growth["denominator"]["radius_class"] != "inside_unit_disk":
            problems.append("exponential verdict without a root inside the unit disk")
    if want == "polynomial" and growth["quasi"] is None:
        problems.append("polynomial verdict without quasi-polynomial branches")
    _check_rational_part(growth, values, problems, order, den)
    return got == "inconclusive"


def _check_poincare(case, code, report, problems):
    values, order, den = _samples(case, graded=True)
    if report["coefficients_analyzed"] != len(values):
        problems.append("coefficients_analyzed differs from the sample count")
    if report["recurrence"] is None:
        if any(report[k] is not None for k in ("series", "denominator", "quasi")):
            problems.append("series stated without a recurrence")
        return True
    if case.family == "weighted_ring" and report["quasi"] is None:
        problems.append("no quasi-polynomial branches, though every residue class "
                        "has enough samples")
    _check_rational_part(report, values, problems, order, den)
    return False


_CHECKS = {
    "hilbert": _check_hilbert,
    "analyze": _check_analyze,
    "check-ses": _check_ses,
    "chain": _check_chain,
    "refilter": _check_refilter,
    "classify": _check_classify,
    "poincare": _check_poincare,
}


def verify(case: workloads.Case, raw: bytes, code: int, payload: dict):
    """(problems, inconclusive) for one report on the input bytes `raw`."""
    problems: list = []
    if payload.get("command") != case.command:
        return [f"report is for command {payload.get('command')!r}"], False
    if payload.get("input_digest") != hashlib.sha256(raw).hexdigest():
        problems.append("input digest differs from sha256 of the input")
    inconclusive = _CHECKS[case.command](case, code, payload["report"], problems)
    if inconclusive and case.family not in INCONCLUSIVE_FAMILIES:
        problems.append("inconclusive, though the oracle knows the answer and the "
                        "samples determine it")
    if code != (1 if inconclusive else 0):
        problems.append(f"exit code {code} for an {'in' if inconclusive else ''}conclusive report")
    return problems, bool(inconclusive)
