"""Command-line front end.

Parses JSON problem specs, dispatches to the analysis pipelines, and emits
deterministic machine-readable JSON reports (or flattened text summaries).
Every numeric field in the JSON output is an exact integer or a
[numerator, denominator] pair; no report holds a float. The JSON format is
fixed: keys sorted at every level, a two-space indent, strings
ASCII-escaped; a report is byte for byte what json.dumps(payload,
sort_keys=True, indent=2) writes, plus a newline.

parse_spec is the one place a CLI input is checked: every field as it is
read, each distinct monomial string once, an error path only for a refused
field. The commands then call the library with validated=True, which still
checks what no single field shows (sub-ideal containment, chain nesting).

Exit codes: 0 success, 1 inconclusive (report still emitted), 2 unreadable
or malformed JSON input, 3 schema violation or a report integer past
Python's int-to-text digit limit (the message names the field path), 4
internal fault (a bug in gkdim, reported as "error: internal: ...").
"""

import json
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

from . import catalog
from .axioms import (HolonomyCatalog, SESSpec, chain_bound_check,
                     check_multiplicity_axioms, holonomic_defect,
                     torsion_check_cyclic)
# detect_polynomial is not called here; bench/test_bench.py checks that its
# tracer rebinds this module's name
from .exactnum import Polynomial, detect_polynomial  # noqa: F401
from .hilbert import (SERIES_DEGREE_BOUND, DimensionSequence, module_dim_sequence,
                      presented_series)
from .poincare import RationalSeries, _read_branches, _reduced_analysis, rational_analysis
from .presentations import (AlgebraSpec, ModuleSpec, RefilterError, SpecError,
                            Summand, refilter)
from .samuel import certified_growth, classify_growth

try:  # the builtin sha256 (_sha2 from Python 3.12): hashlib loads OpenSSL
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

TOOL_VERSION = "0.1.0"

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_SCHEMA = 3
EXIT_INTERNAL = 4

_INT = {int}

COMMANDS = ("analyze", "hilbert", "poincare", "check-ses", "chain",
            "refilter", "classify")

# the fixed warning catalog: reports carry symbolic flags, output carries
# exactly these strings
WARNINGS = {
    "sampled_agreement":
        "polynomial fit verified on sampled degrees only; raise --max-degree "
        "for a longer confirmation window",
    "mixed_cyclotomic":
        "denominator mixes distinct cyclotomic orders; quasi-polynomial "
        "period taken as their least common multiple",
    "expected_inconclusive":
        "catalog entry is known to grow faster than any polynomial and "
        "slower than any exponential; inconclusive is the honest verdict",
    "non_integral_series":
        "the fitted series has a non-integral denominator, so it is the "
        "generating function of no natural-number sequence (Fatou); its "
        "roots are not analysed",
    "branch_multiplicity_disagreement":
        "quasi-polynomial branches have different leading coefficients; "
        "multiplicity reported as their maximum",
    "cancel_step_bound":
        "reducing the exact series could take more than 10^8 trial-division "
        "steps; nothing read from the reduced series is given",
}


class CliError(Exception):
    """Input/environment failure carrying its exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class RunConfig(NamedTuple):
    command: str
    input_path: str
    max_degree: int = 30
    window: int = 6
    confirm: int = 8
    output: Optional[str] = None
    fmt: str = "json"
    h_override: Optional[int] = None


class ParsedInput(NamedTuple):
    algebra: Optional[AlgebraSpec] = None
    catalog_id: Optional[str] = None
    module: Optional[ModuleSpec] = None
    sub_ideals: Optional[tuple] = None
    chain: Optional[tuple] = None  # tuple of ideals (tuples of monomials)
    sequence: Optional[DimensionSequence] = None
    weight: Optional[tuple] = None


# ---------------------------------------------------------------------------
# JSON spec parsing


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SpecError(path, message)


# A check names the field it refuses by a path relative to the part it
# parses; each enclosing part puts its own path in front on the way out, so
# a path is formatted only when a check fails.


def _parse_each(parse, values: list, path: str) -> tuple:
    """parse(v) for each entry v of the list `values`; the first refusal is
    put at path[j], j the entry's 1-based index."""
    out = []
    try:
        for v in values:
            out.append(parse(v))
    except SpecError as e:  # at the entry after those parsed
        raise SpecError(f"{path}[{len(out) + 1}]{e.path}", e.message) from None
    return tuple(out)


def _parse_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise SpecError("", "expected an integer or a [numerator, denominator] pair")
    if isinstance(value, int):
        return Fraction(value)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        _require(value[1] != 0, "", "denominator must be nonzero")
        return Fraction(value[0], value[1])
    raise SpecError("", "expected an integer or a [numerator, denominator] pair")


def _parse_natural(value, path: str = "", minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(path, "expected an integer")
    if value < minimum:
        raise SpecError(path, f"expected an integer >= {minimum}")
    return value


def _parse_naturals(values: list, path: str) -> tuple:
    """The nonempty list `values` of naturals as a tuple: one pass over the
    entries' types and one for the least, and entry by entry only to name
    the first bad one."""
    if set(map(type, values)) == _INT and min(values) >= 0:
        return tuple(values)
    return _parse_each(_parse_natural, values, path)


def _monomial(text, index: dict) -> tuple:
    """Parse "x1^2*x2" style monomial syntax into an exponent tuple, given
    the generator name -> position map; "1" is the unit monomial."""
    if not isinstance(text, str):
        raise SpecError("", "monomial must be a string")
    stripped = text.strip()
    if stripped == "1":
        return (0,) * len(index)
    if not stripped:
        raise SpecError("", "monomial must not be empty")
    expo = [0] * len(index)
    for factor in stripped.split("*"):
        name, caret, exp_text = factor.partition("^")
        position = index.get(name.strip())
        if position is None:
            raise SpecError("", f"unknown generator {name.strip()!r}")
        if caret:
            digits = exp_text.strip()
            try:  # int() alone would also read "+3", "1_0" and non-ASCII digits
                if not (digits.isascii() and digits.removeprefix("-").isdigit()):
                    raise ValueError
                exp = int(digits)
            except ValueError:
                raise SpecError("", f"bad exponent {digits!r}") from None
            if exp < 0:
                raise SpecError("", "exponents must be naturals")
        else:
            exp = 1
        expo[position] += exp
    return tuple(expo)


def _ideal_reader(names: tuple):
    """read(doc, path): the ideal the list `doc` of monomial strings over the
    generators `names` presents, as a tuple of exponent tuples, refused at
    path or path[j]. One reader serves one spec and parses each distinct
    string once: chain members and sub-ideals restate the ideals before
    them."""
    index = {n: i for i, n in enumerate(names)}
    parsed = {}

    def monomial(m) -> tuple:
        expo = parsed.get(m) if m.__class__ is str else None
        if expo is None:
            expo = parsed[m] = _monomial(m, index)
        return expo

    def read(doc, path: str) -> tuple:
        if not isinstance(doc, list):
            raise SpecError(path, "expected a list of monomial strings")
        return _parse_each(monomial, doc, path)

    return read


def _generator(g) -> tuple:
    """(name, degree) of one entry of an algebra's generators."""
    if not isinstance(g, dict):
        raise SpecError("", "expected a {name, degree} object")
    name = g.get("name")
    if not (isinstance(name, str) and name):
        raise SpecError(".name", "expected a nonempty string")
    if "*" in name or "^" in name or name != name.strip() or name == "1":
        raise SpecError(".name", "a generator name has no '*' or '^', no surrounding "
                                 "whitespace, and is not '1', so that a monomial can name it")
    deg = g.get("degree", [1])
    if not (isinstance(deg, list) and deg):
        raise SpecError(".degree", "expected a nonempty list of naturals")
    return name, _parse_naturals(deg, ".degree")


def _lambda_row(row, n: int) -> tuple:
    if not (isinstance(row, list) and len(row) == n):
        raise SpecError("", f"expected a row of {n} entries")
    return _parse_each(_parse_fraction, row, "")


_KINDS = ("polynomial", "quantum_affine", "weyl", "pbw_weighted", "catalog")

#: The largest weyl_rank a spec may give. A report on the Weyl algebra of
#: rank n lists about 2n coefficients of up to 0.6 n digits: at rank 1000
#: the largest, hilbert's or poincare's, is 1.9 MB and is written in under a
#: second on a 2-vCPU Xeon VM; at rank 5000 analyze alone prints 22 MB.
WEYL_RANK_BOUND = 1000


def parse_algebra(doc):
    """Returns an AlgebraSpec, or a catalog id string for kind "catalog"."""
    _require(isinstance(doc, dict), "algebra", "expected an object")
    # the fields' paths, and those of validate_algebra, which the
    # constructors run, are relative to the algebra
    try:
        return _algebra(doc)
    except SpecError as e:
        raise SpecError(f"algebra.{e.path}", e.message) from None


def _algebra(doc: dict):
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise SpecError("kind", f"kind must be one of {', '.join(_KINDS)}")
    if kind == "catalog":
        entry_id = doc.get("catalog_id")
        _require(isinstance(entry_id, str), "catalog_id", "expected a string")
        try:
            catalog.catalog_entry(entry_id)
        except ValueError as e:
            raise SpecError("catalog_id", str(e)) from None
        return entry_id
    if kind == "weyl":
        rank = _parse_natural(doc.get("weyl_rank"), "weyl_rank", minimum=1)
        _require(rank <= WEYL_RANK_BOUND, "weyl_rank", f"rank must be at most {WEYL_RANK_BOUND}")
        return AlgebraSpec.weyl(rank)
    gdoc = doc.get("generators")
    _require(isinstance(gdoc, list) and gdoc, "generators",
             "expected a nonempty list of {name, degree} objects")
    names, degrees = zip(*_parse_each(_generator, gdoc, "generators"))
    if kind == "polynomial":
        return AlgebraSpec.polynomial(len(names), degrees=degrees, names=names)
    if kind == "pbw_weighted":  # the JSON format carries weights only
        return AlgebraSpec.pbw_weighted(degrees, relations=(), names=names)
    lam_doc = doc.get("lambda")
    n = len(names)
    if not (isinstance(lam_doc, list) and len(lam_doc) == n):
        raise SpecError("lambda", f"expected an {n} x {n} matrix")
    lam = _parse_each(lambda row: _lambda_row(row, n), lam_doc, "lambda")
    return AlgebraSpec.quantum_affine(lam, degrees=degrees, names=names)


def _summand(s, read_ideal) -> Summand:
    if not isinstance(s, dict):
        raise SpecError("", "expected a {shift, ideal} object")
    return Summand(_parse_natural(s.get("shift", 0), ".shift"),
                   read_ideal(s.get("ideal", []), ".ideal"))


def parse_module(doc, read_ideal) -> ModuleSpec:
    """The ModuleSpec the object `doc` presents, with ideals read by
    read_ideal (see _ideal_reader)."""
    _require(isinstance(doc, dict), "module", "expected an object")
    sdoc = doc.get("summands", [])
    _require(isinstance(sdoc, list), "module.summands", "expected a list")
    summands = _parse_each(lambda s: _summand(s, read_ideal), sdoc, "module.summands")
    negative_shift = doc.get("negative_shift")
    if negative_shift is not None:
        negative_shift = _parse_natural(negative_shift, "module.negative_shift", minimum=1)
    # the last rule of validate_module; its other rule for a Laurent part, an
    # algebra with generators, holds for every parsed algebra, so a parsed
    # module needs no validate_module
    _require(summands or negative_shift is not None, "module.summands",
             "module needs summands or a negative_shift")
    return ModuleSpec(summands, negative_shift)


def parse_spec(doc) -> ParsedInput:
    """The one check of a CLI input: every field is checked here, so the
    commands pass what they read on with validated=True and check only what
    no single field shows (a sub-ideal's containment, a chain's nesting)."""
    _require(isinstance(doc, dict), "spec", "top level must be an object")
    _require(type(doc.get("spec_version")) is int and doc["spec_version"] == 1,
             "spec_version", "must be the integer 1")
    algebra = catalog_id = module = sub_ideals = chain = sequence = weight = None
    if "algebra" in doc:
        parsed = parse_algebra(doc["algebra"])
        if isinstance(parsed, str):
            catalog_id = parsed
        else:
            algebra = parsed
            read_ideal = _ideal_reader(algebra.names)
    if "module" in doc:
        _require(algebra is not None, "algebra",
                 "an explicit algebra presentation is required with a module")
        module = parse_module(doc["module"], read_ideal)
    if "ses" in doc:
        _require(algebra is not None, "algebra",
                 "an explicit algebra presentation is required with an ses")
        sdoc = doc["ses"]
        _require(isinstance(sdoc, dict), "ses", "expected an object")
        if "sub_ideal" in sdoc:
            sub_ideals = (read_ideal(sdoc["sub_ideal"], "ses.sub_ideal"),)
        elif "sub_ideals" in sdoc:
            ldoc = sdoc["sub_ideals"]
            _require(isinstance(ldoc, list), "ses.sub_ideals", "expected a list")
            sub_ideals = _parse_each(lambda d: read_ideal(d, ""), ldoc, "ses.sub_ideals")
        else:
            raise SpecError("ses", "expected a sub_ideal or sub_ideals field")
    if "chain" in doc:
        _require(algebra is not None, "algebra",
                 "an explicit algebra presentation is required with a chain")
        cdoc = doc["chain"]
        _require(isinstance(cdoc, list) and cdoc, "chain",
                 "expected a nonempty list of ideals")
        chain = _parse_each(lambda d: read_ideal(d, ""), cdoc, "chain")
    if "sequence" in doc:
        sq = doc["sequence"]
        _require(isinstance(sq, list) and sq, "sequence",
                 "expected a nonempty list of naturals")
        values = _parse_naturals(sq, "sequence")
        meaning = doc.get("sequence_meaning", "cumulative")
        _require(meaning in ("cumulative", "graded_piece"), "sequence_meaning",
                 'must be "cumulative" or "graded_piece"')
        try:
            sequence = DimensionSequence(values, meaning)
        except ValueError as e:
            raise SpecError("sequence", str(e)) from None
    if "weight" in doc:
        w = doc["weight"]
        _require(isinstance(w, list) and w, "weight",
                 "expected a nonempty list of integers")
        weight = _parse_naturals(w, "weight")
    return ParsedInput(algebra, catalog_id, module, sub_ideals, chain, sequence, weight)


# ---------------------------------------------------------------------------
# exact-value serialization


def _frac(x) -> list:
    return [x.numerator, x.denominator]


def _poly(p: Polynomial) -> list:
    return [_frac(c) for c in p.coeffs]


def _series_payload(s: RationalSeries) -> dict:
    return {"numerator": _poly(s.numerator), "denominator": _poly(s.denominator)}


def _int_series_payload(p: list, q: list) -> dict:
    # int lists with q(0) = 1, as a RationalSeries is normalised
    return {"numerator": [[c, 1] for c in p], "denominator": [[c, 1] for c in q]}


def _recurrence_payload(rec) -> dict:
    return {"order": rec.order, "coefficients": [_frac(c) for c in rec.coefficients],
            "onset": rec.onset}


def _denominator_payload(an) -> dict:
    return {
        "radius_class": an.radius_class,
        "s": an.s,
        "d": an.d,
        "cyclotomic_multiplicities": [[k, an.cyclotomic_multiplicities[k]]
                                      for k in sorted(an.cyclotomic_multiplicities)],
        "linear_factors": [_poly(f) for f in an.linear_factors],
        "residual": _poly(an.residual),
        "notes": list(an.notes),
    }


def _quasi_payload(qp) -> dict:
    return {"period": qp.period, "onset": qp.onset,
            "branches": [_poly(b) for b in qp.branches]}


def _fit_payload(fit) -> dict:
    return {"binomial_coefficients": [_frac(c) for c in fit.form.coeffs],
            "stabilization_index": fit.stabilization_index}


def _growth_payload(g) -> dict:
    return {
        "classification": g.classification,
        "gk": g.gk,
        "multiplicity": None if g.multiplicity is None else _frac(g.multiplicity),
        "evidence": g.evidence,
        "hilbert_samuel": None if g.hilbert_samuel is None else _fit_payload(g.hilbert_samuel),
        "recurrence": None if g.recurrence is None else _recurrence_payload(g.recurrence),
        "series": None if g.series is None else _series_payload(g.series),
        "denominator": None if g.denominator is None else _denominator_payload(g.denominator),
        "quasi": None if g.quasi is None else _quasi_payload(g.quasi),
    }


# ---------------------------------------------------------------------------
# command dispatch


def _check_config(config: RunConfig) -> None:
    if config.command not in COMMANDS:
        raise SpecError("config.command",
                        f"command must be one of {', '.join(COMMANDS)}")
    _require(config.window >= 2, "config.window", "window must be at least 2")
    _require(config.confirm >= 1, "config.confirm", "confirm must be at least 1")
    _require(config.max_degree >= 1, "config.max_degree",
             "max_degree must be at least 1")
    # time and memory grow linearly with the sampling depth
    _require(config.max_degree <= SERIES_DEGREE_BOUND, "config.max_degree",
             f"max_degree must be at most {SERIES_DEGREE_BOUND}")
    _require(config.fmt in ("json", "text"), "config.format",
             'format must be "json" or "text"')
    # a holonomic number is a smallest growth dimension, so a natural number
    _require(config.h_override is None or config.h_override >= 0, "config.h_override",
             "h_override must be a natural number")


def _need_algebra(parsed: ParsedInput) -> AlgebraSpec:
    if parsed.algebra is None:
        given = ("the catalog entry " + parsed.catalog_id if parsed.catalog_id is not None
                 else "a sequence" if parsed.sequence is not None else "no algebra")
        raise SpecError("algebra", "this command needs an explicit algebra "
                                   f"presentation; the spec gives {given}")
    return parsed.algebra


def _growth(config: RunConfig, parsed: ParsedInput):
    """The sampled growth step: the cumulative input (a raw sequence, a
    catalog entry, or, for classify, a module presentation), its growth
    classification, the warning flags and the exit code. The difference
    tower needs 12 terms, and a catalog entry or module sampled to
    max_degree also needs max_degree >= 2 * window + 4; a raw sequence is
    judged by its own length."""
    if parsed.sequence is not None:
        seq, path = parsed.sequence.cumulative(), "sequence"
    else:
        need, path = 2 * config.window + 4, "config.max_degree"
        _require(config.max_degree >= need, path,
                 f"polynomial detection needs max_degree >= {need} (2 * window + 4)")
        if parsed.catalog_id is not None:
            seq = catalog.cumulative_sequence(parsed.catalog_id, config.max_degree)
        else:
            m = parsed.module if parsed.module is not None else ModuleSpec.regular()
            seq = module_dim_sequence(_need_algebra(parsed), m, config.max_degree,
                                      validated=True)
    _require(len(seq) >= 12, path, "growth classification needs at least 12 terms")
    growth = classify_growth(seq, config.window, config.confirm)
    code = EXIT_INCONCLUSIVE if growth.classification == "inconclusive" else EXIT_OK
    return seq, growth, growth.flags + _catalog_flags(parsed), code


def _catalog_flags(parsed: ParsedInput) -> tuple:
    if parsed.catalog_id is None:
        return ()
    entry = catalog.catalog_entry(parsed.catalog_id)
    inconclusive = entry.expected_classification == "inconclusive"
    return ("expected_inconclusive",) if inconclusive else ()


def _cmd_analyze(config: RunConfig, parsed: ParsedInput):
    presented = parsed.sequence is None and parsed.catalog_id is None
    if presented:
        # an exact series (Hilbert-Serre): no counting past max_degree, no
        # tower, so no depth rule
        a = _need_algebra(parsed)
        m = parsed.module if parsed.module is not None else ModuleSpec.regular()
        graded, cumulative, growth = certified_growth(a, m, config.max_degree,
                                                      validated=True)
        flags, code = growth.flags, EXIT_OK
    else:
        seq, growth, flags, code = _growth(config, parsed)
        graded, cumulative = list(seq.graded()), list(seq)
    report = {
        "dimensions": {"cumulative": cumulative, "graded": graded},
        "growth": _growth_payload(growth),
        "holonomy": None,
        "torsion": None,
    }
    # holonomy and torsion need a presented module and its certified growth
    # dimension
    if presented and (a.kind in ("weyl", "polynomial") or config.h_override is not None):
        hol = holonomic_defect(a, growth.gk, HolonomyCatalog(override=config.h_override))
        report["holonomy"] = {"gk": hol.gk, "h": hol.h, "defect": hol.defect,
                              "min_holonomic": hol.min_holonomic}
        if m.negative_shift is None and len(m.summands) == 1:
            # Hilbert-Serre: A's series is 1 / prod(1 - t^w) with every
            # w >= 1, so gk(A) is its number of generators
            tor = torsion_check_cyclic(a, bool(m.summands[0].ideal),
                                       a.num_generators, hol.h, validated=True)
            report["torsion"] = {"applicable": tor.applicable,
                                 "torsion": tor.torsion,
                                 "reason": tor.reason}
    return code, report, flags


def _cmd_hilbert(config: RunConfig, parsed: ParsedInput):
    m = parsed.module if parsed.module is not None else ModuleSpec.regular()
    series = presented_series(_need_algebra(parsed), m, reduce=True)
    low = series.reduced
    report = {
        "series": _int_series_payload(series.p, series.q),
        "reduced": None if low is None else _int_series_payload(*low[:2]),
        # one expansion, for the self-check and the graded dimensions
        "graded_dimensions": series.expansion(config.max_degree),
    }
    if low is None:
        return EXIT_INCONCLUSIVE, report, ("cancel_step_bound",)
    return EXIT_OK, report, ()


def _cmd_poincare(config: RunConfig, parsed: ParsedInput):
    top = config.max_degree
    flags = _catalog_flags(parsed)
    if parsed.sequence is None and parsed.catalog_id is None:
        # an exact series (Hilbert-Serre): no recurrence search; its branches
        # are checked on the expansion that pins them, or else it runs to its
        # self-checked prefix, 0..deg p + 10, cut at top either way
        m = parsed.module if parsed.module is not None else ModuleSpec.regular()
        series = presented_series(_need_algebra(parsed), m, reduce=True)
        low, count, quasi, prefix = series.reduced, top + 1, None, len(series.p) + 9
        held = lambda reach=prefix: series.expansion(min(top, max(prefix, reach)))
        if low is None:
            ra, flags = None, flags + ("cancel_step_bound",)
        else:
            quasi, _ = _read_branches(*low, held, count)
            ra = _reduced_analysis(*low)._replace(quasi=quasi)
        if quasi is None:
            held()  # the self-check
    else:
        values = (list(parsed.sequence) if parsed.sequence is not None
                  else catalog.graded_values(parsed.catalog_id, top))
        count = len(values)
        if count < 3:  # an order-1 recurrence and one confirming equation
            path = "sequence" if parsed.sequence is not None else "config.max_degree"
            raise SpecError(path, "too few terms for recurrence detection")
        ra = rational_analysis(values, min(config.confirm, count - 2))
    report = {"coefficients_analyzed": count, "recurrence": None,
              "series": None, "denominator": None, "quasi": None}
    if ra is None:
        return EXIT_INCONCLUSIVE, report, flags
    report.update(recurrence=_recurrence_payload(ra.recurrence),
                  series=_series_payload(ra.series))
    if ra.denominator is None:
        return EXIT_INCONCLUSIVE, report, flags + ("non_integral_series",)
    report.update(denominator=_denominator_payload(ra.denominator),
                  quasi=None if ra.quasi is None else _quasi_payload(ra.quasi))
    mixed = ("mixed_cyclotomic",) if ra.mixed_cyclotomic else ()
    return EXIT_OK, report, flags + mixed


def _cmd_check_ses(config: RunConfig, parsed: ParsedInput):
    a = _need_algebra(parsed)
    if parsed.sub_ideals is None:
        raise SpecError("ses", "the check-ses command needs an ses field")
    m = parsed.module if parsed.module is not None else ModuleSpec.regular()
    ses = SESSpec(a, m, parsed.sub_ideals)
    report = check_multiplicity_axioms(ses, validated=True)
    payload = {
        "gk_triple": list(report.gk_triple),
        "e_values": [_frac(e) for e in report.e_values],
        "case": report.case,
        "exactness_ok": report.exactness_ok,
        "additivity_ok": report.additivity_ok,
        "notes": list(report.notes),
    }
    code = EXIT_INCONCLUSIVE if report.case == "inconclusive" else EXIT_OK
    return code, payload, ()


def _cmd_chain(config: RunConfig, parsed: ParsedInput):
    a = _need_algebra(parsed)
    if parsed.chain is None:
        raise SpecError("chain", "the chain command needs a chain field")
    report = chain_bound_check(a, [ModuleSpec.cyclic(ideal) for ideal in parsed.chain],
                               validated=True)
    payload = {
        "n": report.n,
        "e_m": _frac(report.e_m),
        "gk_m": report.gk_m,
        "bound_ok": report.bound_ok,
        "quotients_full_gk": report.quotients_full_gk,
        "notes": list(report.notes),
    }
    return EXIT_OK, payload, ()


def _cmd_refilter(config: RunConfig, parsed: ParsedInput):
    a = _need_algebra(parsed)
    if parsed.weight is None:
        raise SpecError("weight", "the refilter command needs a weight field")
    try:
        b = refilter(a, parsed.weight)
    except RefilterError as e:
        report = {"ok": False, "reason": str(e), "refiltered": None}
        return EXIT_OK, report, ()
    report = {
        "ok": True,
        "reason": None,
        "refiltered": {"kind": b.kind, "names": list(b.names),
                       "weights": [d[0] for d in b.degrees]},
    }
    return EXIT_OK, report, ()


def _cmd_classify(config: RunConfig, parsed: ParsedInput):
    _, growth, flags, code = _growth(config, parsed)
    return code, {"growth": _growth_payload(growth)}, flags


_DISPATCH = {
    "analyze": _cmd_analyze,
    "hilbert": _cmd_hilbert,
    "poincare": _cmd_poincare,
    "check-ses": _cmd_check_ses,
    "chain": _cmd_chain,
    "refilter": _cmd_refilter,
    "classify": _cmd_classify,
}


# ---------------------------------------------------------------------------
# rendering and orchestration


def _render_text(payload, prefix: str = "") -> list:
    """Flatten a JSON payload into deterministic 'key = value' lines."""
    lines = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            lines.extend(_render_text(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, list) and any(isinstance(v, (dict, list)) for v in payload):
        for i, v in enumerate(payload):
            lines.extend(_render_text(v, f"{prefix}{i}."))
    else:
        value = json.dumps(payload, sort_keys=True)
        lines.append(f"{prefix[:-1]} = {value}")
    return lines


_encode_str = json.encoder.encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}


def _json(value, pad: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2) for a value at indent
    `pad`, built by joining strings: json's indenting encoder is pure Python
    and yields one chunk per item. Dict keys must be str, as every report's
    are; a type JSON cannot encode raises TypeError. Items are tested with
    `type(v) is int`, not isinstance: a bool must render as true/false."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        sep = f",\n{inner}"
        if type(value[0]) is int and set(map(type, value)) == _INT:
            return f"[\n{inner}{sep.join(map(int.__repr__, value))}\n{pad}]"
        if set(map(type, value)) == {list} and set(map(len, value)) == {2}:
            nums, dens = zip(*value)  # [int, int] pairs, one format call each
            if set(map(type, nums + dens)) == _INT:
                pair = f"[\n{inner}  {{}},\n{inner}  {{}}\n{inner}]"
                return f"[\n{inner}{sep.join(map(pair.format, nums, dens))}\n{pad}]"
        items = [int.__repr__(v) if type(v) is int else _json(v, inner) for v in value]
        return f"[\n{inner}{sep.join(items)}\n{pad}]"
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [_encode_str(k) + ": " + (int.__repr__(v) if type(v) is int else _json(v, inner))
                 for k, v in sorted(value.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    if value is None or type(value) is bool:
        return _LITERALS[value]
    return json.dumps(value)


def _long_int_path(value, path: str, bound: int) -> Optional[str]:
    """The path of the first int in a payload at least `bound` in size, or None."""
    items = (sorted(value.items()) if isinstance(value, dict) else enumerate(value)
             if isinstance(value, (list, tuple)) else None)
    if items is None:
        return path if type(value) is int and abs(value) >= bound else None
    return next(filter(None, (_long_int_path(v, f"{path}.{k}", bound) for k, v in items)), None)


def render_report(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(payload, "") + "\n"
    return "\n".join(_render_text(payload)) + "\n"


def run(config: RunConfig) -> int:
    """Execute one command; writes the report and returns the exit code."""
    try:
        try:
            with open(config.input_path, "rb") as fh:
                raw = fh.read()
        except OSError as e:
            raise CliError(EXIT_BAD_INPUT, f"cannot read input: {e}") from None
        try:
            doc = json.loads(raw.decode("utf-8"))
        # ValueError: bad UTF-8, bad JSON syntax, or an integer past Python's
        # int max-str-digits; RecursionError: nesting deeper than the decoder
        # can follow
        except (ValueError, RecursionError) as e:
            raise CliError(EXIT_BAD_INPUT, f"malformed JSON: {e}") from None
        _check_config(config)
        parsed = parse_spec(doc)
        code, report, flags = _DISPATCH[config.command](config, parsed)
        warnings = []
        for flag in flags:
            text = WARNINGS[flag]
            if text not in warnings:
                warnings.append(text)
        payload = {
            "tool_version": TOOL_VERSION,
            "spec_version": 1,
            "command": config.command,
            "input_digest": sha256(raw).hexdigest(),
            "report": report,
            "warnings": warnings,
        }
        try:
            rendered = render_report(payload, config.fmt)
        except ValueError:  # an int past Python's int-to-text limit, or a fault
            limit = sys.get_int_max_str_digits()
            path = limit and _long_int_path(report, "report", 10 ** limit)
            if not path:
                raise
            raise SpecError(path, f"holds an integer of more than {limit} digits, past "
                                  f"Python's limit for converting an int to text") from None
        if config.output:
            try:
                with open(config.output, "w", encoding="utf-8") as fh:
                    fh.write(rendered)
            except OSError as e:
                raise CliError(EXIT_BAD_INPUT, f"cannot write output: {e}") from None
        else:
            sys.stdout.write(rendered)
        return code
    except SpecError as e:
        print(f"error: {e.path}: {e.message}", file=sys.stderr)
        return EXIT_BAD_SCHEMA
    except CliError as e:
        print(f"error: {e.message}", file=sys.stderr)
        return e.code
    except Exception as e:  # no raw traceback ever reaches the user
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv=None) -> int:
    import argparse  # here, so that importing the module for run() skips it
    parser = argparse.ArgumentParser(
        prog="gkdim",
        description="Growth analysis of filtered algebras and modules from "
                    "JSON presentations: dimension sequences, eventual "
                    "polynomials, multiplicities, and rational generating "
                    "functions.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="path to a JSON problem spec")
    parser.add_argument("--max-degree", type=int, default=30, dest="max_degree",
                        help="largest filtration degree to sample (default 30); analyze, "
                             "hilbert and poincare read a presentation's exact series, and it "
                             "sizes the output")
    parser.add_argument("--window", type=int, default=6,
                        help="constancy window for polynomial detection (default 6)")
    parser.add_argument("--confirm", type=int, default=8,
                        help="extra equations a recurrence must satisfy (default 8)")
    parser.add_argument("--format", choices=["json", "text"], default="json",
                        dest="fmt", help="report format (default json)")
    parser.add_argument("--output", default=None,
                        help="write the report to this path instead of stdout")
    parser.add_argument("--h-override", type=int, default=None, dest="h_override",
                        help="override the holonomy catalog's h value")
    args = parser.parse_args(argv)
    config = RunConfig(command=args.command, input_path=args.input,
                       max_degree=args.max_degree, window=args.window,
                       confirm=args.confirm, output=args.output,
                       fmt=args.fmt, h_override=args.h_override)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
