"""Seeded JSON inputs for the three benchmark workloads.

Every workload is a fixed composition of input families; the seed changes
the inputs inside each family (monomials, weights, variable order, ratios,
sample counts, batch order) but not how many inputs of each size there are,
so two seeds give different inputs with the same size distribution.

Nothing here imports gkdim: the program only ever sees the JSON documents.
"""

import dataclasses
import itertools
import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("hilbert-ideals", "growth-recurrence", "analyze-modules")


@dataclass(frozen=True)
class Case:
    """One report request: a CLI command on a JSON spec at a max degree."""

    command: str
    doc: dict
    max_degree: int
    family: str   # input family, for the size-distribution summary
    size: int     # the family's size parameter (minimal generators, samples, ...)


def make_cases(workload: str, seed: int) -> list:
    """The workload's batch for this seed, in the order it is run."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "hilbert-ideals":
        cases = _hilbert_ideals(rng)
    elif workload == "growth-recurrence":
        cases = _growth_recurrence(rng)
    elif workload == "analyze-modules":
        cases = _analyze_modules(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    cases = _distinct(cases)
    rng.shuffle(cases)
    return cases


def _distinct(cases) -> list:
    """The cases with max degrees raised where needed so that no two ask for
    the same report (command, spec and max degree): no report of a pass can
    then reuse the work of an earlier one."""
    seen, out = set(), []
    for case in cases:
        doc = json.dumps(case.doc, sort_keys=True)
        while (case.command, doc, case.max_degree) in seen:
            case = dataclasses.replace(case, max_degree=case.max_degree + 1)
        seen.add((case.command, doc, case.max_degree))
        out.append(case)
    return out


# ---------------------------------------------------------------------------
# monomial helpers


def _names(n: int) -> list:
    return [f"v{i + 1}" for i in range(n)]


def _mono_text(expo, names) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, expo) if e]
    return "*".join(parts) or "1"


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _antichain(rng, nvars: int, k: int, low: int, high: int) -> list:
    """k pairwise non-dividing monomials of total degree in [low, high]."""
    pool = [e for e in itertools.product(range(high + 1), repeat=nvars)
            if low <= sum(e) <= high]
    while True:
        rng.shuffle(pool)
        gens = []
        for e in pool:
            if not any(_divides(g, e) or _divides(e, g) for g in gens):
                gens.append(e)
                if len(gens) == k:
                    return gens


def _random_monomial(rng, nvars: int, low: int, high: int) -> tuple:
    expo = [0] * nvars
    for _ in range(rng.randint(low, high)):
        expo[rng.randrange(nvars)] += 1
    return tuple(expo)


def _polynomial_algebra(names, weights=None) -> dict:
    weights = weights or [1] * len(names)
    return {"kind": "polynomial",
            "generators": [{"name": n, "degree": [w]} for n, w in zip(names, weights)]}


def _spec(**fields) -> dict:
    return {"spec_version": 1, **fields}


# ---------------------------------------------------------------------------
# hilbert-ideals: the hilbert command on one monomial ideal per report

#: minimal-generator counts below the program's inclusion-exclusion switch
#: (at most 20) with how many ideals of each count a batch holds
_IE_STRATA = ((4, 27), (6, 27), (8, 27), (10, 27), (12, 18), (14, 18), (16, 1))
#: counts above the switch; these ideals are lex-initial segments of the
#: degree-3 monomials in 5 variables, so their cost does not depend on the seed
_PIVOT_STRATA = ((21, 1), (22, 1), (24, 1))
#: weight multisets per variable count, permuted per ideal
_WEIGHTS = {4: (1, 1, 2, 3), 5: (1, 1, 1, 2, 3), 6: (1, 1, 1, 2, 2, 3)}


def _hilbert_doc(gens, weights) -> dict:
    names = _names(len(weights))
    return _spec(algebra=_polynomial_algebra(names, weights),
                 module={"summands": [{"ideal": [_mono_text(g, names) for g in gens]}]})


def _hilbert_ideals(rng) -> list:
    cases = []
    for k, count in _IE_STRATA:
        for i in range(count):
            nvars = 4 + i % 3
            weights = list(_WEIGHTS[nvars]) if i % 2 else [1] * nvars
            rng.shuffle(weights)
            gens = _antichain(rng, nvars, k, 3, 4)
            cases.append(Case("hilbert", _hilbert_doc(gens, weights),
                              rng.randint(20, 40), "ie", k))
    segment_pool = sorted((e for e in itertools.product(range(4), repeat=5) if sum(e) == 3),
                          reverse=True)
    for k, count in _PIVOT_STRATA:
        for i in range(count):
            perm = list(range(5))
            rng.shuffle(perm)
            shift = [rng.randint(0, 1) for _ in range(5)]
            gens = [tuple(g[perm[v]] + shift[v] for v in range(5)) for g in segment_pool[:k]]
            weights = list(_WEIGHTS[5]) if i % 2 else [1] * 5
            rng.shuffle(weights)
            cases.append(Case("hilbert", _hilbert_doc(gens, weights),
                              rng.randint(20, 40), "pivot", k))
    return cases


# ---------------------------------------------------------------------------
# growth-recurrence: classify and poincare on inputs with no polynomial tail

#: geometric cumulative sequences: (decade of the ratio, sequences per batch).
#: With the 32 free_algebra_2 reports these counts put report_s.p50 inside
#: the cluster of 10^5 ratios and report_s.p90 inside the cluster of 10^6
#: ratios, not on the cliff between a cluster and the next, where the
#: percentile would jump with a few reports' measurement noise
_GEOMETRIC_STRATA = ((3, 24), (4, 24), (5, 48), (6, 12))
#: smith_lie max degrees, each run by classify and by poincare; the catalog
#: entry is fixed and its cost grows like the fourth power of the degree, so
#: the ladder is the same for every seed
_SMITH_LADDER = tuple(22 + 2 * i for i in range(11))
_PRIME_WEIGHTS = (2, 3, 5, 7, 11)
#: weighted polynomial rings whose series have cyclotomic denominators with
#: period lcm(weights) of 6 or 12; each is run by poincare at 9 and 11 times
#: the period, which gives every residue class mod the period at least 8
#: samples, so the quasi-polynomial branches can be fitted. The degrees are
#: the same for every seed because these reports sit near the batch's p90,
#: which would otherwise move with the seed. classify is not run on them: its
#: sampled difference tower can fit a false polynomial to a quasi-polynomial
#: (see test_bench.py), and the benchmark's inputs must all be answered right
_CYCLOTOMIC_WEIGHTS = ((2, 3), (1, 2, 3), (2, 2, 3), (1, 1, 2, 3), (1, 2, 2, 3),
                       (2, 2, 3, 3), (3, 4), (1, 3, 4), (2, 3, 4), (1, 2, 3, 4))


def geometric_sequence(ratio: int, scale: int, length: int) -> list:
    """scale * (1 + r + ... + r^n) for n = 0..length-1."""
    out, acc, power = [], 0, 1
    for _ in range(length):
        acc += power
        power *= ratio
        out.append(scale * acc)
    return out


def _growth_recurrence(rng) -> list:
    cases = []
    for i, degree in enumerate(rng.sample(range(20, 61), 32)):
        command = "classify" if i % 2 else "poincare"
        cases.append(Case(command, _spec(algebra={"kind": "catalog",
                                                  "catalog_id": "free_algebra_2"}),
                          degree, "free_algebra_2", 0))
    for decade, count in _GEOMETRIC_STRATA:
        for i in range(count):
            ratio = 10 ** decade + rng.randrange(10 ** decade // 100)
            length = rng.randint(20, 30)
            seq = geometric_sequence(ratio, rng.randint(1, 9), length)
            cases.append(Case("classify" if i % 2 else "poincare",
                              _spec(sequence=seq), 30, "geometric", decade))
    for md in _SMITH_LADDER:
        for command in ("classify", "poincare"):
            cases.append(Case(command, _spec(algebra={"kind": "catalog",
                                                      "catalog_id": "smith_lie"}),
                              md, "smith_lie", md + 1))
    weights = list(_PRIME_WEIGHTS)
    rng.shuffle(weights)
    names = [f"{rng.choice('abcuvw')}{i + 1}" for i in range(5)]
    cases.append(Case("poincare", _spec(algebra=_polynomial_algebra(names, weights)),
                      66, "prime_weights", 5))
    for multiset in _CYCLOTOMIC_WEIGHTS:
        period = math.lcm(*multiset)
        for degree in (9 * period, 11 * period):
            weights = list(multiset)
            rng.shuffle(weights)
            names = [f"{rng.choice('abcuvw')}{i + 1}" for i in range(len(weights))]
            cases.append(Case("poincare", _spec(algebra=_polynomial_algebra(names, weights)),
                              degree, "weighted_ring", period))
    return cases


# ---------------------------------------------------------------------------
# analyze-modules: analyze, check-ses, chain and refilter with polynomial growth


def _module_summands(rng, names, count: int) -> list:
    nvars = len(names)
    summands = []
    for _ in range(count):
        ideal = [_random_monomial(rng, nvars, 1, 4) for _ in range(rng.randint(0, 8))]
        summands.append({"shift": rng.randint(0, 3),
                         "ideal": [_mono_text(g, names) for g in ideal]})
    return summands


def _weyl_names(rank: int) -> list:
    return [f"x{i + 1}" for i in range(rank)] + [f"y{i + 1}" for i in range(rank)]


def _analyze_modules(rng) -> list:
    cases = []

    def degree():
        return rng.randint(30, 200)

    for i in range(120):
        rank = 1 + i % 3
        doc = _spec(algebra={"kind": "weyl", "weyl_rank": rank})
        if i % 2:
            names = _weyl_names(rank)
            ideal = [_random_monomial(rng, 2 * rank, 1, 3) for _ in range(rng.randint(1, 3))]
            doc["module"] = {"summands": [{"ideal": [_mono_text(g, names) for g in ideal]}]}
        cases.append(Case("analyze", doc, degree(), "weyl", rank))
    for i in range(360):
        nvars = 2 + i % 4
        names = _names(nvars)
        summands = _module_summands(rng, names, 1 + i % 3)
        cases.append(Case("analyze", _spec(algebra=_polynomial_algebra(names),
                                           module={"summands": summands}),
                          degree(), "polynomial_module", nvars))
    for i in range(240):
        nvars = 2 + i % 4
        names = _names(nvars)
        summands = _module_summands(rng, names, 1 + i % 2)
        subs = [s["ideal"] + [_mono_text(_random_monomial(rng, nvars, 1, 3), names)
                              for _ in range(rng.randint(1, 2))]
                for s in summands]
        cases.append(Case("check-ses", _spec(algebra=_polynomial_algebra(names),
                                             module={"summands": summands},
                                             ses={"sub_ideals": subs}),
                          degree(), "ses", nvars))
    for i in range(180):
        nvars = 2 + i % 4
        names = _names(nvars)
        pool = [e for e in itertools.product(range(5), repeat=nvars) if 2 <= sum(e) <= 4]
        ideal = rng.sample([e for e in pool if sum(e) >= 3], rng.randint(0, 2))
        chain = [list(ideal)]
        for _ in range(1 + i % 3):
            # a monomial outside the ideal makes the next member strictly smaller
            outside = [e for e in pool if not any(_divides(g, e) for g in ideal)]
            ideal.append(rng.choice(outside))
            chain.append(list(ideal))
        cases.append(Case("chain", _spec(algebra=_polynomial_algebra(names),
                                         chain=[[_mono_text(g, names) for g in c]
                                                for c in chain]),
                          degree(), "chain", len(chain) - 1))
    for i in range(100):
        nvars = 2 + i % 3
        degrees = [[rng.randint(0, 2), rng.randint(0, 2)] for _ in range(nvars)]
        for d in degrees:
            if not any(d):
                d[rng.randrange(2)] = 1
        generators = [{"name": n, "degree": d} for n, d in zip(_names(nvars), degrees)]
        if i % 2:
            algebra = {"kind": "polynomial", "generators": generators}
        else:
            q = rng.randint(2, 5)
            lam = [[1 if r == c else ([q, 1] if r < c else [1, q]) for c in range(nvars)]
                   for r in range(nvars)]
            algebra = {"kind": "quantum_affine", "generators": generators, "lambda": lam}
        cases.append(Case("refilter", _spec(algebra=algebra,
                                            weight=[rng.randint(1, 4), rng.randint(1, 4)]),
                          30, "refilter", nvars))
    return cases


def size_summary(cases) -> dict:
    """{family: {size: count}} over a batch, for the printed run summary."""
    out: dict = {}
    for c in cases:
        sizes = out.setdefault(c.family, {})
        sizes[c.size] = sizes.get(c.size, 0) + 1
    return {f: dict(sorted(s.items())) for f, s in sorted(out.items())}
