"""Command-line front end.

Parses JSON problem specs, dispatches to the analysis pipelines, and emits
deterministic machine-readable JSON reports (or flattened text summaries).
Every numeric field in the JSON output is an exact integer or a
[numerator, denominator] pair; the only float is the explicitly labeled
gamma_estimate diagnostic. The JSON format is fixed: keys sorted at every
level, a two-space indent, strings ASCII-escaped; a report is byte for byte
what json.dumps(payload, sort_keys=True, indent=2) writes, plus a newline.

Exit codes: 0 success, 1 inconclusive classification (report still
emitted), 2 unreadable or malformed JSON input, 3 schema violation (the
error message names the offending field path), 4 internal fault (a bug in
gkdim, reported as "error: internal: ...").
"""

import argparse
import hashlib
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
from .hilbert import (SERIES_DEGREE_BOUND, DimensionSequence, _checked_series,
                      module_dim_sequence)
from .poincare import RationalSeries, rational_analysis
from .presentations import (AlgebraSpec, ModuleSpec, RefilterError, SpecError,
                            Summand, refilter, validate_module)
from .samuel import classify_growth

TOOL_VERSION = "0.1.0"

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_SCHEMA = 3
EXIT_INTERNAL = 4

COMMANDS = ("analyze", "hilbert", "poincare", "check-ses", "chain",
            "refilter", "classify")

# commands that need max_degree >= 2 * window + 4 samples: analyze and
# classify run the exact difference-tower detector; check-ses and chain,
# whose verdicts come from Hilbert numerators, keep the same rule
_DETECTION_COMMANDS = ("analyze", "check-ses", "chain", "classify")

# the fixed warning catalog: reports carry symbolic flags, output carries
# exactly these strings
WARNINGS = {
    "sampled_agreement":
        "polynomial fit verified on sampled degrees only; raise --max-degree "
        "for a longer confirmation window",
    "mixed_cyclotomic":
        "denominator mixes distinct cyclotomic orders; quasi-polynomial "
        "period taken as their least common multiple",
    "gamma_diagnostic_only":
        "gamma estimate is a floating-point diagnostic, not an exact claim",
    "expected_inconclusive":
        "catalog entry is known to grow faster than any polynomial and "
        "slower than any exponential; inconclusive is the honest verdict",
    "residual_not_certified":
        "denominator has a non-cyclotomic factor whose root locations could "
        "not be certified",
    "branch_multiplicity_disagreement":
        "quasi-polynomial branches have different leading coefficients; "
        "multiplicity reported as their maximum",
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


def _parse_fraction(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise SpecError(path, "expected an integer or a [numerator, denominator] pair")
    if isinstance(value, int):
        return Fraction(value)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        _require(value[1] != 0, path, "denominator must be nonzero")
        return Fraction(value[0], value[1])
    raise SpecError(path, "expected an integer or a [numerator, denominator] pair")


def _parse_natural(value, path: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(path, "expected an integer")
    _require(value >= minimum, path, f"expected an integer >= {minimum}")
    return value


def parse_monomial(text, names, path: str) -> tuple:
    """Parse "x1^2*x2" style monomial syntax into an exponent tuple; "1" is
    the unit monomial."""
    return _monomial(text, {n: i for i, n in enumerate(names)}, path)


def _monomial(text, index: dict, path: str) -> tuple:
    """parse_monomial with the generator name -> position map built."""
    _require(isinstance(text, str), path, "monomial must be a string")
    stripped = text.strip()
    if stripped == "1":
        return (0,) * len(index)
    _require(bool(stripped), path, "monomial must not be empty")
    expo = [0] * len(index)
    for factor in stripped.split("*"):
        factor = factor.strip()
        name, caret, exp_text = factor.partition("^")
        name = name.strip()
        _require(name in index, path, f"unknown generator {name!r}")
        if caret:
            try:
                exp = int(exp_text.strip())
            except ValueError:
                raise SpecError(path, f"bad exponent {exp_text.strip()!r}") from None
            _require(exp >= 0, path, "exponents must be naturals")
        else:
            exp = 1
        expo[index[name]] += exp
    return tuple(expo)


def _parse_ideal(doc, names, path: str) -> tuple:
    _require(isinstance(doc, list), path, "expected a list of monomial strings")
    index = {n: i for i, n in enumerate(names)}
    return tuple(_monomial(m, index, f"{path}[{j+1}]") for j, m in enumerate(doc))


def _parse_generators(doc, path: str):
    _require(isinstance(doc, list) and doc, path,
             "expected a nonempty list of {name, degree} objects")
    names, degrees = [], []
    for i, g in enumerate(doc):
        gpath = f"{path}[{i+1}]"
        _require(isinstance(g, dict), gpath, "expected a {name, degree} object")
        name = g.get("name")
        _require(isinstance(name, str) and name, f"{gpath}.name",
                 "expected a nonempty string")
        names.append(name)
        deg = g.get("degree", [1])
        _require(isinstance(deg, list) and deg, f"{gpath}.degree",
                 "expected a nonempty list of naturals")
        degrees.append(tuple(
            _parse_natural(v, f"{gpath}.degree[{j+1}]") for j, v in enumerate(deg)))
    return tuple(names), tuple(degrees)


def parse_algebra(doc, path: str = "algebra"):
    """Returns an AlgebraSpec, or a catalog id string for kind "catalog"."""
    _require(isinstance(doc, dict), path, "expected an object")
    kind = doc.get("kind")
    kinds = ("polynomial", "quantum_affine", "weyl", "pbw_weighted", "catalog")
    _require(kind in kinds, f"{path}.kind", f"kind must be one of {', '.join(kinds)}")
    if kind == "catalog":
        entry_id = doc.get("catalog_id")
        _require(isinstance(entry_id, str), f"{path}.catalog_id", "expected a string")
        try:
            catalog.catalog_entry(entry_id)
        except ValueError as e:
            raise SpecError(f"{path}.catalog_id", str(e)) from None
        return entry_id
    if kind == "weyl":
        rank = _parse_natural(doc.get("weyl_rank"), f"{path}.weyl_rank", minimum=1)
    else:
        names, degrees = _parse_generators(doc.get("generators"), f"{path}.generators")
    if kind == "quantum_affine":
        lam_doc = doc.get("lambda")
        n = len(names)
        _require(isinstance(lam_doc, list) and len(lam_doc) == n,
                 f"{path}.lambda", f"expected an {n} x {n} matrix")
        lam = []
        for i, row in enumerate(lam_doc):
            _require(isinstance(row, list) and len(row) == n,
                     f"{path}.lambda[{i+1}]", f"expected a row of {n} entries")
            lam.append(tuple(_parse_fraction(v, f"{path}.lambda[{i+1}][{j+1}]")
                             for j, v in enumerate(row)))
    # the constructors run validate_algebra, whose paths are relative to the algebra
    try:
        if kind == "weyl":
            return AlgebraSpec.weyl(rank)
        if kind == "polynomial":
            return AlgebraSpec.polynomial(len(names), degrees=degrees, names=names)
        if kind == "quantum_affine":
            return AlgebraSpec.quantum_affine(tuple(lam), degrees=degrees, names=names)
        # pbw_weighted: the JSON format carries weights only
        return AlgebraSpec.pbw_weighted(degrees, relations=(), names=names)
    except SpecError as e:
        raise SpecError(f"{path}.{e.path}", e.message) from None


def parse_module(doc, a: AlgebraSpec, path: str = "module") -> ModuleSpec:
    _require(isinstance(doc, dict), path, "expected an object")
    summands = []
    sdoc = doc.get("summands", [])
    _require(isinstance(sdoc, list), f"{path}.summands", "expected a list")
    for k, s in enumerate(sdoc):
        spath = f"{path}.summands[{k+1}]"
        _require(isinstance(s, dict), spath, "expected a {shift, ideal} object")
        shift = _parse_natural(s.get("shift", 0), f"{spath}.shift")
        ideal = _parse_ideal(s.get("ideal", []), a.names, f"{spath}.ideal")
        summands.append(Summand(shift, ideal))
    negative_shift = doc.get("negative_shift")
    if negative_shift is not None:
        negative_shift = _parse_natural(negative_shift, f"{path}.negative_shift",
                                        minimum=1)
    m = ModuleSpec(tuple(summands), negative_shift)
    validate_module(a, m)
    return m


def parse_spec(doc) -> ParsedInput:
    _require(isinstance(doc, dict), "spec", "top level must be an object")
    _require(doc.get("spec_version") == 1, "spec_version", "must be the integer 1")
    algebra = catalog_id = module = sub_ideals = chain = sequence = weight = None
    if "algebra" in doc:
        parsed = parse_algebra(doc["algebra"])
        if isinstance(parsed, str):
            catalog_id = parsed
        else:
            algebra = parsed
    if "module" in doc:
        _require(algebra is not None, "algebra",
                 "an explicit algebra presentation is required with a module")
        module = parse_module(doc["module"], algebra)
    if "ses" in doc:
        _require(algebra is not None, "algebra",
                 "an explicit algebra presentation is required with an ses")
        sdoc = doc["ses"]
        _require(isinstance(sdoc, dict), "ses", "expected an object")
        if "sub_ideal" in sdoc:
            sub_ideals = (_parse_ideal(sdoc["sub_ideal"], algebra.names,
                                       "ses.sub_ideal"),)
        elif "sub_ideals" in sdoc:
            ldoc = sdoc["sub_ideals"]
            _require(isinstance(ldoc, list), "ses.sub_ideals", "expected a list")
            sub_ideals = tuple(
                _parse_ideal(ideal, algebra.names, f"ses.sub_ideals[{k+1}]")
                for k, ideal in enumerate(ldoc))
        else:
            raise SpecError("ses", "expected a sub_ideal or sub_ideals field")
    if "chain" in doc:
        _require(algebra is not None, "algebra",
                 "an explicit algebra presentation is required with a chain")
        cdoc = doc["chain"]
        _require(isinstance(cdoc, list) and cdoc, "chain",
                 "expected a nonempty list of ideals")
        chain = tuple(_parse_ideal(ideal, algebra.names, f"chain[{k+1}]")
                      for k, ideal in enumerate(cdoc))
    if "sequence" in doc:
        sq = doc["sequence"]
        _require(isinstance(sq, list) and sq, "sequence",
                 "expected a nonempty list of naturals")
        values = tuple(_parse_natural(v, f"sequence[{j+1}]")
                       for j, v in enumerate(sq))
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
        weight = tuple(_parse_natural(v, f"weight[{j+1}]") for j, v in enumerate(w))
    return ParsedInput(algebra, catalog_id, module, sub_ideals, chain, sequence, weight)


# ---------------------------------------------------------------------------
# exact-value serialization


def _frac(x) -> list:
    return [x.numerator, x.denominator]


def _frac_or_none(x):
    return None if x is None else _frac(x)


def _poly(p: Polynomial) -> list:
    return [_frac(c) for c in p.coeffs]


def _series_payload(s: RationalSeries) -> dict:
    return {"numerator": _poly(s.numerator), "denominator": _poly(s.denominator)}


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
        "multiplicity": _frac_or_none(g.multiplicity),
        "evidence": g.evidence,
        "gamma_estimate": (None if g.gamma is None else
                           {"value": g.gamma.value, "trend": g.gamma.trend}),
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
    if config.command in _DETECTION_COMMANDS:
        need = 2 * config.window + 4
        _require(config.max_degree >= need, "config.max_degree",
                 f"polynomial detection needs max_degree >= {need} "
                 f"(2 * window + 4)")
    _require(config.fmt in ("json", "text"), "config.format",
             'format must be "json" or "text"')
    # a holonomic number is a smallest growth dimension, so a natural number
    _require(config.h_override is None or config.h_override >= 0, "config.h_override",
             "h_override must be a natural number")


def _need_algebra(parsed: ParsedInput) -> AlgebraSpec:
    if parsed.algebra is None:
        raise SpecError("algebra", "this command needs an explicit algebra "
                                   "presentation (not a catalog entry)")
    return parsed.algebra


def _growth(config: RunConfig, parsed: ParsedInput):
    """The growth step analyze and classify share: the cumulative input (a
    raw sequence, a catalog entry, or a module presentation), its growth
    classification, the warning flags and the exit code."""
    if parsed.sequence is not None:
        seq = parsed.sequence.cumulative()
    elif parsed.catalog_id is not None:
        seq = catalog.cumulative_sequence(parsed.catalog_id, config.max_degree)
    else:
        m = parsed.module if parsed.module is not None else ModuleSpec.regular()
        seq = module_dim_sequence(_need_algebra(parsed), m, config.max_degree)
    if len(seq) < 12:  # a module or catalog entry has max_degree + 1 terms
        path = "sequence" if parsed.sequence is not None else "config.max_degree"
        raise SpecError(path, "growth classification needs at least 12 terms")
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
    seq, growth, flags, code = _growth(config, parsed)
    report = {
        "dimensions": {"cumulative": list(seq),
                       "graded": list(seq.graded())},
        "growth": _growth_payload(growth),
        "holonomy": None,
        "torsion": None,
    }
    a, m = parsed.algebra, parsed.module
    # holonomy and torsion need a presented module; growth fitted its counts
    # with config.window, as _check_config's max_degree keeps that window
    if parsed.sequence is None and a is not None and (
            a.kind in ("weyl", "polynomial") or config.h_override is not None):
        hc = HolonomyCatalog(override=config.h_override)
        mod = m if m is not None else ModuleSpec.regular()
        try:
            hol = holonomic_defect(a, growth.hilbert_samuel, hc)
        except ValueError:
            hol = None
        if hol is not None:
            report["holonomy"] = {"gk": hol.gk, "h": hol.h, "defect": hol.defect,
                                  "min_holonomic": hol.min_holonomic}
            if mod.negative_shift is None and len(mod.summands) == 1:
                # Hilbert-Serre: A's series is 1 / prod(1 - t^w) with every
                # w >= 1, so gk(A) is its number of generators
                tor = torsion_check_cyclic(a, bool(mod.summands[0].ideal),
                                           a.num_generators, hol.h)
                report["torsion"] = {"applicable": tor.applicable,
                                     "torsion": tor.torsion,
                                     "reason": tor.reason}
    return code, report, flags


def _cmd_hilbert(config: RunConfig, parsed: ParsedInput):
    a = _need_algebra(parsed)
    m = parsed.module if parsed.module is not None else ModuleSpec.regular()
    if m.negative_shift is not None:
        raise SpecError("module.negative_shift",
                        "the hilbert command needs a summand presentation")
    # one expansion, for the self-check and the graded dimensions
    series, expansion = _checked_series(a, m, config.max_degree)
    report = {
        "series": _series_payload(series),
        "reduced": _series_payload(series.reduced()),
        "graded_dimensions": expansion[:config.max_degree + 1],
    }
    return EXIT_OK, report, ()


def _cmd_poincare(config: RunConfig, parsed: ParsedInput):
    top = config.max_degree
    if parsed.sequence is not None:
        values = list(parsed.sequence)
    elif parsed.catalog_id is not None:
        values = catalog.graded_values(parsed.catalog_id, top)
    else:
        a = _need_algebra(parsed)
        m = parsed.module if parsed.module is not None else ModuleSpec.regular()
        values = list(module_dim_sequence(a, m, top).graded())
    confirm = min(config.confirm, max(1, len(values) - 2))
    if (len(values) - confirm) // 2 < 1:
        raise SpecError("sequence", "too few terms for recurrence detection")
    ra = rational_analysis(values, confirm)
    flags = _catalog_flags(parsed)
    report = {"coefficients_analyzed": len(values), "recurrence": None,
              "series": None, "denominator": None, "quasi": None}
    if ra is None:
        return EXIT_INCONCLUSIVE, report, flags
    report.update(recurrence=_recurrence_payload(ra.recurrence),
                  series=_series_payload(ra.series),
                  denominator=_denominator_payload(ra.denominator),
                  quasi=None if ra.quasi is None else _quasi_payload(ra.quasi))
    mixed = ("mixed_cyclotomic",) if ra.mixed_cyclotomic else ()
    return EXIT_OK, report, flags + mixed


def _cmd_check_ses(config: RunConfig, parsed: ParsedInput):
    a = _need_algebra(parsed)
    if parsed.sub_ideals is None:
        raise SpecError("ses", "the check-ses command needs an ses field")
    m = parsed.module if parsed.module is not None else ModuleSpec.regular()
    ses = SESSpec(a, m, parsed.sub_ideals)
    report = check_multiplicity_axioms(ses, config.max_degree, config.window)
    payload = {
        "gk_triple": list(report.gk_triple),
        "e_values": (None if report.e_values is None
                     else [_frac(e) for e in report.e_values]),
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
    modules = [ModuleSpec.cyclic(ideal) for ideal in parsed.chain]
    report = chain_bound_check(a, modules, config.max_degree, config.window)
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
_INT = {int}
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
            "input_digest": hashlib.sha256(raw).hexdigest(),
            "report": report,
            "warnings": warnings,
        }
        rendered = render_report(payload, config.fmt)
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
    parser = argparse.ArgumentParser(
        prog="gkdim",
        description="Growth analysis of filtered algebras and modules from "
                    "JSON presentations: dimension sequences, eventual "
                    "polynomials, multiplicities, and rational generating "
                    "functions.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="path to a JSON problem spec")
    parser.add_argument("--max-degree", type=int, default=30, dest="max_degree",
                        help="largest filtration degree to sample (default 30)")
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
