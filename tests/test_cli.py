"""Command-line interface: JSON in, deterministic JSON out.

Covers the report envelope (tool version, input digest, sorted keys), the
exit-code contract (0 ok, 1 inconclusive, 2 unreadable input, 3 schema or
math-level errors with a field path on stderr, 4 internal faults),
byte-for-byte determinism,
the fixed warning catalog, both output formats, the JSON emitter against
json.dumps(sort_keys=True, indent=2), and one happy path plus the
characteristic error paths for each of the seven commands, the bound on
--max-degree, analyze's torsion verdict with gk(A) taken from the
number of generators, analyze's certified verdicts on weighted rings at
every depth and on an exponent of 10^9, a derandomized fuzz of poincare
and classify on natural-number sequences, one of chain and check-ses on monomial ideals, and
one of poincare and hilbert on monomial presentations, whose exact series is
checked against brute-force counts, sympy's cancelled series and the sampled
search. A seeded test runs hilbert, analyze and poincare on 240 presentations
(Laurent parts, unit ideals and repeated ideals among them) and on two fixed
ones with numerators of degree 50000 and 60000, and checks that their
dimensions agree with each other and with module_dim_sequence, and their
branch periods with each other. A far-shifted summand beside 150 weights is
read by hilbert and poincare in under a second.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import gkdim.hilbert
import gkdim.poincare
import gkdim.presentations
from gkdim import cli
from gkdim.cli import WARNINGS, WEYL_RANK_BOUND, main
from gkdim.exactnum import detect_polynomial
from gkdim.hilbert import SERIES_DEGREE_BOUND, algebra_dim_sequence
from gkdim.presentations import AlgebraSpec
from gkdim.samuel import gk_dimension

# ---------------------------------------------------------------------------
# helpers


def _write(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert err == ""
    payload = json.loads(out)
    # the format contract: byte for byte json.dumps(sort_keys=True, indent=2)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return code, payload


WEYL_ONE = {"spec_version": 1, "algebra": {"kind": "weyl", "weyl_rank": 1}}

PLANE_MOD_XY = {
    "spec_version": 1,
    "algebra": {"kind": "polynomial",
                "generators": [{"name": "x"}, {"name": "y"}]},
    "module": {"summands": [{"ideal": ["x*y"]}]},
}


# ---------------------------------------------------------------------------
# envelope and determinism


def test_analyze_weyl_envelope_and_verdict(tmp_path, capsys):
    path = _write(tmp_path, WEYL_ONE)
    code, payload = _run_json(capsys, ["analyze", path])
    assert code == 0
    assert payload["tool_version"] == "0.1.0"
    assert payload["spec_version"] == 1
    assert payload["command"] == "analyze"
    raw = open(path, "rb").read()
    assert payload["input_digest"] == hashlib.sha256(raw).hexdigest()

    growth = payload["report"]["growth"]
    assert growth["classification"] == "polynomial"
    assert growth["gk"] == 2
    assert growth["multiplicity"] == [1, 1]
    assert payload["report"]["dimensions"]["cumulative"][:4] == [1, 3, 6, 10]
    assert payload["report"]["holonomy"] == {
        "gk": 2, "h": 1, "defect": 1, "min_holonomic": False}
    torsion = payload["report"]["torsion"]
    assert torsion["applicable"] is True
    assert torsion["torsion"] is False
    # the verdict is read from the exact series, not fitted to samples
    assert payload["warnings"] == []


def test_analyze_raw_sequence_beside_an_algebra_has_no_holonomy(tmp_path, capsys):
    # the sequence is what gets analyzed; it presents no module whose
    # holonomy or torsion the report could state
    doc = dict(WEYL_ONE, sequence=[n + 1 for n in range(31)])
    code, payload = _run_json(capsys, ["analyze", _write(tmp_path, doc)])
    assert code == 0
    assert payload["report"]["growth"]["gk"] == 1
    assert payload["report"]["holonomy"] is None
    assert payload["report"]["torsion"] is None


def test_analyze_gives_laurent_modules_certified_holonomy(tmp_path, capsys):
    # a negative_shift module is certified from its exact series like any
    # presentation. The Laurent line over W_1 has the Hilbert-Samuel form
    # (1, 2) from index 0, so it is minimally holonomic; beside k[x] with x
    # of weight 2 the cumulative counts 2n + 1 + floor(n / 2) + 1 have
    # period-2 branches and no polynomial, and the certified gk 1 still
    # gives a holonomy verdict
    laurent = {"spec_version": 1, "algebra": {"kind": "weyl", "weyl_rank": 1},
               "module": {"negative_shift": 1}}
    code, payload = _run_json(capsys, ["analyze", _write(tmp_path, laurent)])
    assert code == 0
    growth = payload["report"]["growth"]
    assert (growth["gk"], growth["multiplicity"]) == (1, [2, 1])
    assert growth["hilbert_samuel"] == {"binomial_coefficients": [[1, 1], [2, 1]],
                                        "stabilization_index": 0}
    assert payload["report"]["holonomy"] == {"defect": 0, "gk": 1, "h": 1,
                                             "min_holonomic": True}
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x", "degree": [2]}]},
           "module": {"summands": [{"ideal": []}], "negative_shift": 1}}
    code, payload = _run_json(capsys, ["analyze", _write(tmp_path, doc)])
    assert code == 0
    growth = payload["report"]["growth"]
    assert (growth["gk"], growth["multiplicity"], growth["hilbert_samuel"]) == (1, [5, 2], None)
    assert growth["quasi"]["period"] == 2
    assert payload["report"]["holonomy"] == {"defect": 1, "gk": 1, "h": 0,
                                             "min_holonomic": False}
    assert payload["report"]["torsion"] is None


def test_output_is_byte_identical_across_runs(tmp_path, capsys):
    path = _write(tmp_path, PLANE_MOD_XY)
    code1, out1, _ = _run(capsys, ["analyze", path])
    code2, out2, _ = _run(capsys, ["analyze", path])
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    # keys are emitted sorted at every level
    payload = json.loads(out1)
    assert list(payload) == sorted(payload)
    assert list(payload["report"]) == sorted(payload["report"])


def test_output_flag_writes_the_report_to_a_file(tmp_path, capsys):
    path = _write(tmp_path, WEYL_ONE)
    _, stdout_mode, _ = _run(capsys, ["analyze", path])
    target = tmp_path / "report.json"
    code, out, err = _run(capsys, ["analyze", path, "--output", str(target)])
    assert code == 0
    assert out == "" and err == ""
    assert target.read_text() == stdout_mode


# strings with quotes, backslashes, control characters and non-ASCII text
_TEXT = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\n\té€\u2028\U0001f600ab')
_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-(10 ** 40), max_value=10 ** 40)
           | st.floats() | _TEXT
           # bools among ints, where an int fast path could render True as 1
           | st.lists(st.integers() | st.booleans())
           # [int, int] pairs, the series payloads, alone and mixed with pairs
           # holding bools, tuple pairs and lists of other lengths, which the
           # pair fast path must leave to the general one
           | st.lists(st.lists(st.integers(), min_size=2, max_size=2))
           | st.lists(st.lists(st.integers() | st.booleans(), min_size=2, max_size=2)
                      | st.tuples(st.integers(), st.integers())
                      | st.lists(st.integers(), max_size=3)))
_TREES = st.recursive(
    _LEAVES,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(_TEXT, children)),
    max_leaves=20)


@settings(derandomize=True, max_examples=150)
@given(_TREES)
def test_json_report_is_json_dumps_with_sorted_keys_and_indent_two(value):
    expected = json.dumps(value, sort_keys=True, indent=2) + "\n"
    assert cli.render_report(value, "json") == expected


def test_json_report_refuses_what_json_cannot_encode():
    for value in (Fraction(1, 2), {"a": [1, {"b": Fraction(1, 2)}]}, [object()]):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli.render_report(value, "json")


def test_text_format_flattens_keys(tmp_path, capsys):
    path = _write(tmp_path, WEYL_ONE)
    code, out, _ = _run(capsys, ["analyze", path, "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert 'report.growth.classification = "polynomial"' in lines
    assert "report.growth.gk = 2" in lines
    assert all(" = " in line for line in lines)


def test_each_command_validates_each_algebra_and_module_at_most_once(tmp_path, capsys,
                                                                    monkeypatch):
    # parse_spec is the one check of a CLI input: the algebra's constructor
    # runs validate_algebra, parse_module checks every field of a module as
    # it parses it, and the commands pass validated=True on, so no parsed
    # algebra or module is validated twice in one report, parsing included
    checked = []
    for name in ("validate_algebra", "validate_module"):
        original = getattr(gkdim.presentations, name)

        def counting(*args, _name=name, _original=original):
            checked.append((_name, args[-1]))
            return _original(*args)

        for loaded in [m for n, m in sys.modules.items() if n.startswith("gkdim")]:
            if getattr(loaded, name, None) is original:
                monkeypatch.setattr(loaded, name, counting)
    extras = {"ses": {"sub_ideal": ["x1"]}, "chain": [[], ["x1"]], "weight": [1]}
    docs = [dict(PLANE_MOD_XY, ses={"sub_ideal": ["x"]}, chain=[[], ["x"]], weight=[1]),
            dict(WEYL_ONE, module={"summands": [{"ideal": ["x1*y1"]}]}, **extras),
            dict(WEYL_ONE, **extras)]
    for k, doc in enumerate(docs):
        path = _write(tmp_path, doc, f"spec{k}.json")
        for command in cli.COMMANDS:
            checked.clear()
            assert main([command, path]) in (0, 1), (command, doc)
            capsys.readouterr()
            assert len(set(checked)) == len(checked), (command, doc)


# ---------------------------------------------------------------------------
# exit codes and error paths


def test_missing_file_is_exit_two(tmp_path, capsys):
    code, out, err = _run(capsys, ["analyze", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in err


def test_malformed_json_is_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, ["analyze", str(path)])
    assert code == 2
    assert "malformed JSON" in err


@pytest.mark.parametrize("text", ["[" * 100000, "[" + "9" * 5000 + "]"],
                         ids=["nested-too-deep", "int-past-4300-digits"])
def test_json_the_decoder_refuses_is_exit_two(tmp_path, capsys, text):
    path = tmp_path / "refused.json"
    path.write_text(text)
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed JSON: ")


def test_bad_commutation_matrix_is_exit_three_with_path(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "quantum_affine",
                       "generators": [{"name": "x"}, {"name": "y"}],
                       "lambda": [[1, 2], [3, 1]]}}
    code, _, err = _run(capsys, ["analyze", _write(tmp_path, doc)])
    assert code == 3
    assert err == ("error: algebra.lambda[2][1]: lambda[i][j] * lambda[j][i] "
                   "must equal 1\n")


def test_algebra_schema_errors_share_the_algebra_path(tmp_path, capsys):
    # one path per field, whether the JSON parser or validate_algebra rejects it
    cases = [
        ([{"name": "x", "degree": [0]}, {"name": "y"}],
         "error: algebra.generators[1].degree: generator degree must be nonzero\n"),
        ([{"name": "x", "degree": [-1]}, {"name": "y"}],
         "error: algebra.generators[1].degree[1]: expected an integer >= 0\n"),
        ([{"name": "x"}, {"name": "y", "degree": [1, 2]}],
         "error: algebra.generators[2].degree: "
         "all multi-degrees must have the same length\n"),
        ([{"name": "x"}, {"name": "x"}],
         "error: algebra.generators: generator names must be distinct\n"),
    ]
    for generators, message in cases:
        doc = {"spec_version": 1,
               "algebra": {"kind": "polynomial", "generators": generators}}
        code, out, err = _run(capsys, ["analyze", _write(tmp_path, doc)])
        assert (code, out, err) == (3, "", message)


def test_wrong_spec_version_is_exit_three(tmp_path, capsys):
    code, _, err = _run(capsys, ["analyze", _write(tmp_path, {"spec_version": 2})])
    assert code == 3
    assert "spec_version" in err


def test_too_small_max_degree_is_exit_three(tmp_path, capsys):
    # classify samples a presentation to --max-degree and fits a tower;
    # analyze reads the exact series and has no depth rule
    path = _write(tmp_path, WEYL_ONE)
    code, _, err = _run(capsys, ["classify", path, "--max-degree", "10"])
    assert code == 3
    assert "config.max_degree" in err
    code, _, _ = _run(capsys, ["analyze", path, "--max-degree", "10"])
    assert code == 0


def test_max_degree_above_the_series_bound_is_exit_three(tmp_path, capsys):
    # sampling time and memory grow linearly with the depth; the refusal
    # comes before any counting, for every command
    path = _write(tmp_path, PLANE_MOD_XY)
    for command in ("analyze", "hilbert", "poincare", "refilter"):
        code, out, err = _run(capsys, [command, path, "--max-degree",
                                       str(SERIES_DEGREE_BOUND + 1)])
        assert (code, out) == (3, "")
        assert err == (f"error: config.max_degree: max_degree must be at most "
                       f"{SERIES_DEGREE_BOUND}\n")
    code, out, err = _run(capsys, ["analyze", path, "--max-degree", "0"])
    assert (code, err) == (3, "error: config.max_degree: max_degree must be at least 1\n")


def test_unknown_catalog_entry_is_exit_three(tmp_path, capsys):
    doc = {"spec_version": 1, "algebra": {"kind": "catalog", "catalog_id": "nope"}}
    code, _, err = _run(capsys, ["classify", _write(tmp_path, doc)])
    assert code == 3
    assert "algebra.catalog_id" in err


def test_presentation_commands_name_the_input_without_a_presentation(tmp_path, capsys):
    given = [({"sequence": [1, 2, 3]}, "a sequence"),
             ({"algebra": {"kind": "catalog", "catalog_id": "smith_lie"}},
              "the catalog entry smith_lie"),
             ({}, "no algebra")]
    for doc, what in given:
        path = _write(tmp_path, dict(doc, spec_version=1))
        for command in ("hilbert", "check-ses", "chain", "refilter"):
            code, out, err = _run(capsys, [command, path])
            assert (code, out) == (3, ""), command
            assert err == ("error: algebra: this command needs an explicit algebra "
                           f"presentation; the spec gives {what}\n"), command


def test_bad_monomial_name_is_exit_three(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial", "generators": [{"name": "x"}]},
           "module": {"summands": [{"ideal": ["z^2"]}]}}
    code, _, err = _run(capsys, ["analyze", _write(tmp_path, doc)])
    assert code == 3
    assert "module.summands[1].ideal[1]" in err


# ---------------------------------------------------------------------------
# one table of parser errors: every field that carries monomials or scalars,
# every failure kind, with the exact exit code, stdout and stderr

_PLANE = {"kind": "polynomial", "generators": [{"name": "x"}, {"name": "y"}]}


def _spec(**fields):
    return dict({"spec_version": 1, "algebra": _PLANE}, **fields)


#: path of the bad entry -> (command, spec with the entry `bad`)
_MONOMIAL_FIELDS = {
    "module.summands[2].ideal[2]": lambda bad: ("analyze", _spec(
        module={"summands": [{"ideal": ["x"]}, {"shift": 1, "ideal": ["y", bad]}]})),
    "ses.sub_ideal[2]": lambda bad: ("check-ses", _spec(
        module={"summands": [{"ideal": ["x^2"]}]}, ses={"sub_ideal": ["x", bad]})),
    "ses.sub_ideals[2][2]": lambda bad: ("check-ses", _spec(
        module={"summands": [{"ideal": ["x^2"]}, {"ideal": []}]},
        ses={"sub_ideals": [["x"], ["y", bad]]})),
    "chain[2][2]": lambda bad: ("chain", _spec(chain=[["x^2"], ["x", bad]])),
}

_MONOMIAL_FAILURES = [
    ("not a string", 5, "monomial must be a string"),
    ("empty", " ", "monomial must not be empty"),
    ("unknown generator", "x*z^2", "unknown generator 'z'"),
    ("bad exponent", "x^2*y^b", "bad exponent 'b'"),
    ("underscored exponent", "x^1_0", "bad exponent '1_0'"),
    ("non-ASCII digit", "x^\u0663", "bad exponent '\u0663'"),
    ("signed exponent", "x^+3", "bad exponent '+3'"),
    ("negative exponent", "y^-1", "exponents must be naturals"),
    ("bool", True, "monomial must be a string"),
]

_SCALAR_FIELDS = {
    "module.summands[2].shift": (0, lambda bad: ("analyze", _spec(
        module={"summands": [{"ideal": ["x"]}, {"shift": bad, "ideal": ["y"]}]}))),
    "module.negative_shift": (1, lambda bad: ("analyze", _spec(
        module={"summands": [{"ideal": ["x"]}], "negative_shift": bad}))),
    "sequence[3]": (0, lambda bad: ("classify", {
        "spec_version": 1, "sequence": [1, 2, bad] + list(range(3, 20))})),
    "weight[2]": (0, lambda bad: ("refilter", _spec(weight=[1, bad]))),
    "algebra.generators[2].degree[2]": (0, lambda bad: ("analyze", {
        "spec_version": 1, "algebra": {"kind": "polynomial", "generators": [
            {"name": "x", "degree": [1, 0]}, {"name": "y", "degree": [1, bad]}]}})),
}

_SCALAR_FAILURES = [
    ("not an integer", "1", "expected an integer"),
    ("fraction", 1.5, "expected an integer"),
    ("below the minimum", -1, "expected an integer >= {minimum}"),
    ("bool", True, "expected an integer"),
]

#: the empty list where a nonempty one is needed, and a list that is no list
_CONTAINER_FAILURES = [
    ("module.summands[2].ideal", "expected a list of monomial strings",
     "analyze", _spec(module={"summands": [{"ideal": []}, {"ideal": "x"}]})),
    ("ses.sub_ideals", "expected a list", "check-ses",
     _spec(module={"summands": [{"ideal": []}]}, ses={"sub_ideals": "x"})),
    ("chain", "expected a nonempty list of ideals", "chain", _spec(chain=[])),
    ("chain[1]", "expected a list of monomial strings", "chain", _spec(chain=["x"])),
    ("sequence", "expected a nonempty list of naturals", "classify",
     {"spec_version": 1, "sequence": []}),
    ("weight", "expected a nonempty list of integers", "refilter", _spec(weight=[])),
    ("algebra.generators[2].degree", "expected a nonempty list of naturals", "analyze",
     {"spec_version": 1, "algebra": {"kind": "polynomial", "generators": [
         {"name": "x"}, {"name": "y", "degree": []}]}}),
    ("algebra.generators", "expected a nonempty list of {name, degree} objects",
     "analyze", {"spec_version": 1, "algebra": {"kind": "polynomial", "generators": []}}),
]


def _parser_error_table():
    for path, build in _MONOMIAL_FIELDS.items():
        for kind, bad, message in _MONOMIAL_FAILURES:
            yield pytest.param(*build(bad), path, message, id=f"{path}-{kind}")
    for path, (minimum, build) in _SCALAR_FIELDS.items():
        for kind, bad, message in _SCALAR_FAILURES:
            # a negative_shift of 0 is below its minimum 1, as -1 is
            yield pytest.param(*build(bad), path, message.format(minimum=minimum),
                               id=f"{path}-{kind}")
    for path, message, command, doc in _CONTAINER_FAILURES:
        yield pytest.param(command, doc, path, message, id=f"{path}-container")
    # JSON's true and 1.0 compare equal to 1 in Python
    for kind, bad in (("bool", True), ("float", 1.0)):
        yield pytest.param("analyze", dict(_spec(), spec_version=bad), "spec_version",
                           "must be the integer 1", id=f"spec_version-{kind}")


@pytest.mark.parametrize("command, doc, path, message", _parser_error_table())
def test_parser_error_table(tmp_path, capsys, command, doc, path, message):
    code, out, err = _run(capsys, [command, _write(tmp_path, doc)])
    assert (code, out, err) == (3, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("name", ["a*b", "a^2", " a", "a\t", "1"])
def test_generator_names_no_monomial_can_name_are_refused(tmp_path, capsys, name):
    # a monomial splits at * and ^, strips whitespace and reads "1" as the
    # unit, so such a name was unreachable or gave a misleading refusal
    doc = {"spec_version": 1, "algebra": {"kind": "polynomial", "generators": [
        {"name": "x"}, {"name": name}]}}
    code, out, err = _run(capsys, ["analyze", _write(tmp_path, doc)])
    assert (code, out, err) == (3, "", (
        "error: algebra.generators[2].name: a generator name has no '*' or '^', "
        "no surrounding whitespace, and is not '1', so that a monomial can name it\n"))


def test_generator_names_a_monomial_can_name_are_accepted(tmp_path, capsys):
    names = ["a b", "x_1", "\u03b1", "11", "x1'"]
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial", "generators": [{"name": n} for n in names]},
           "module": {"summands": [{"ideal": [f" {n} ^2 " for n in names]}]}}
    code, payload = _run_json(capsys, ["analyze", _write(tmp_path, doc)])
    assert code == 0
    assert payload["report"]["growth"]["multiplicity"] == [2 ** len(names), 1]


@pytest.mark.parametrize("command, doc, path, message", [
    ("analyze", _spec(module={"summands": [{"ideal": ["x", "z", 5, "z"]}]}),
     "module.summands[1].ideal[2]", "unknown generator 'z'"),
    ("chain", _spec(chain=[["x^2", "y"], ["x", "y", "x", "y^-1", "w"]]),
     "chain[2][4]", "exponents must be naturals"),
    ("classify", {"spec_version": 1, "sequence": [1, -1, "a"] + [2] * 12},
     "sequence[2]", "expected an integer >= 0"),
    ("refilter", _spec(weight=[1, True, -1]), "weight[2]", "expected an integer"),
    ("analyze", {"spec_version": 1, "algebra": {"kind": "polynomial", "generators": [
        {"name": "x", "degree": [1, "a", -1]}, {"name": 5}]}},
     "algebra.generators[1].degree[2]", "expected an integer"),
], ids=["ideal", "chain", "sequence", "weight", "degree"])
def test_parser_reports_the_first_bad_entry(tmp_path, capsys, command, doc, path,
                                            message):
    code, out, err = _run(capsys, [command, _write(tmp_path, doc)])
    assert (code, out, err) == (3, "", f"error: {path}: {message}\n")


# ---------------------------------------------------------------------------
# catalog entries through classify


def test_classify_free_algebra_is_exponential(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "catalog", "catalog_id": "free_algebra_2"}}
    code, payload = _run_json(capsys, ["classify", _write(tmp_path, doc)])
    assert code == 0
    growth = payload["report"]["growth"]
    assert growth["classification"] == "exponential"
    assert growth["recurrence"]["order"] == 2
    assert growth["recurrence"]["coefficients"] == [[3, 1], [-2, 1]]
    assert growth["denominator"]["radius_class"] == "inside_unit_disk"


def test_classify_partition_growth_is_inconclusive_exit_one(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "catalog", "catalog_id": "smith_lie"}}
    path = _write(tmp_path, doc)
    code, out, err = _run(capsys, ["classify", path])
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    growth = payload["report"]["growth"]
    assert growth["classification"] == "inconclusive"
    assert growth["gk"] is None
    assert growth["evidence"] == ("no polynomial fit and no linear recurrence "
                                  "of order <= 11")
    assert payload["warnings"] == [WARNINGS["expected_inconclusive"]]


def test_analyze_of_a_weyl_algebra_of_high_rank_is_fast(tmp_path, capsys):
    # the Hilbert-Samuel form of the 2n generators walks one binomial row
    # for its one nonzero Taylor coefficient; a sum over all 2n + 1 of them,
    # each a fresh binomial, took seconds at rank 400 on a 2-vCPU VM
    rank = 400
    path = _write(tmp_path, {"spec_version": 1,
                             "algebra": {"kind": "weyl", "weyl_rank": rank}})
    start = time.perf_counter()
    code, out, err = _run(capsys, ["analyze", path])
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    growth = json.loads(out)["report"]["growth"]
    n = 2 * rank
    assert growth["gk"] == n
    assert growth["hilbert_samuel"]["binomial_coefficients"] == [
        [math.comb(n, i), 1] for i in range(n + 1)]
    assert elapsed < 1.0


def test_weyl_rank_past_its_bound_is_refused(tmp_path, capsys):
    # a 70-byte spec of rank 5000 printed 22 MB; the bound is checked as
    # the field is read, before any count
    too_high = {"spec_version": 1,
                "algebra": {"kind": "weyl", "weyl_rank": WEYL_RANK_BOUND + 1}}
    for command in ("analyze", "hilbert", "poincare"):
        start = time.perf_counter()
        code, out, err = _run(capsys, [command, _write(tmp_path, too_high)])
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (3, "")
        assert err == f"error: algebra.weyl_rank: rank must be at most {WEYL_RANK_BOUND}\n"
    at_bound = {"spec_version": 1, "algebra": {"kind": "weyl", "weyl_rank": WEYL_RANK_BOUND}}
    code, out, err = _run(capsys, ["analyze", _write(tmp_path, at_bound)])
    assert (code, err) == (0, "")
    assert json.loads(out)["report"]["growth"]["gk"] == 2 * WEYL_RANK_BOUND


def _floats(node, at):
    """The paths of the floats in a JSON payload."""
    if isinstance(node, float):
        yield at
    elif isinstance(node, dict):
        for k, v in node.items():
            yield from _floats(v, f"{at}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _floats(v, f"{at}[{i}]")


def test_no_report_holds_a_float(tmp_path, capsys):
    smith_lie = {"spec_version": 1,
                 "algebra": {"kind": "catalog", "catalog_id": "smith_lie"}}
    # 12 cumulative samples that fit no polynomial and no recurrence
    short = {"spec_version": 1, "sequence": [1, 3, 4, 8, 9, 15, 16, 24, 26, 30, 33, 41]}
    ses = {"spec_version": 1, "algebra": _PLANE, "ses": {"sub_ideal": ["x"]}}
    chain = {"spec_version": 1, "algebra": _PLANE, "chain": [[], ["x^3"], ["x"]]}
    quantum = {"spec_version": 1,
               "algebra": {"kind": "quantum_affine",
                           "generators": [{"name": "x", "degree": [1, 0]},
                                          {"name": "y", "degree": [0, 1]}],
                           "lambda": [[1, 2], [[1, 2], 1]]},
               "weight": [1, 3]}
    runs = [("analyze", WEYL_ONE, 0), ("hilbert", PLANE_MOD_XY, 0),
            ("poincare", PLANE_MOD_XY, 0), ("poincare", GEOMETRIC_3_2, 1),
            ("check-ses", ses, 0), ("chain", chain, 0), ("refilter", quantum, 0),
            ("classify", PLANE_MOD_XY, 0), ("classify", smith_lie, 1),
            ("classify", short, 1), ("classify", GEOMETRIC_3_2, 1)]
    assert {command for command, _, _ in runs} == set(cli.COMMANDS)
    for command, doc, expected in runs:
        code, payload = _run_json(capsys, [command, _write(tmp_path, doc)])
        assert code == expected, (command, doc)
        assert list(_floats(payload, "$")) == [], (command, doc)


# ---------------------------------------------------------------------------
# raw sequences through classify


def test_classify_raw_cumulative_sequence(tmp_path, capsys):
    doc = {"spec_version": 1,
           "sequence": [2 ** (n + 1) - 1 for n in range(25)]}
    code, payload = _run_json(capsys, ["classify", _write(tmp_path, doc)])
    assert code == 0
    assert payload["report"]["growth"]["classification"] == "exponential"


def test_classify_raw_graded_sequence(tmp_path, capsys):
    doc = {"spec_version": 1, "sequence": [1] * 20,
           "sequence_meaning": "graded_piece"}
    code, payload = _run_json(capsys, ["classify", _write(tmp_path, doc)])
    assert code == 0
    growth = payload["report"]["growth"]
    assert growth["classification"] == "polynomial"
    assert growth["gk"] == 1


def test_classify_short_sequence_is_exit_three(tmp_path, capsys):
    # analyze shares classify's growth step, so too few samples is bad input
    # there too, not an internal fault
    plane = {"spec_version": 1, "algebra": PLANE_MOD_XY["algebra"]}
    short = {"spec_version": 1, "sequence": [1, 2, 3]}
    ten = {"spec_version": 1, "sequence": list(range(1, 11))}
    for argv in (["classify", _write(tmp_path, short, "short.json")],
                 ["analyze", _write(tmp_path, ten, "ten.json")]):
        code, _, err = _run(capsys, argv)
        assert code == 3, argv
        assert err == "error: sequence: growth classification needs at least 12 terms\n"
    # a sampled module or catalog input has no sequence; its length is set
    # by --max-degree; analyze reads a presentation's exact series instead
    catalog = {"spec_version": 1,
               "algebra": {"kind": "catalog", "catalog_id": "free_algebra_2"}}
    for command, doc in (("classify", plane), ("classify", catalog), ("analyze", catalog)):
        argv = [command, _write(tmp_path, doc, "input.json"), "--window", "2",
                "--max-degree", "8"]
        code, _, err = _run(capsys, argv)
        assert code == 3, argv
        assert err == ("error: config.max_degree: growth classification needs "
                       "at least 12 terms\n")
    argv = ["analyze", _write(tmp_path, plane, "plane.json"), "--window", "2",
            "--max-degree", "8"]
    assert _run(capsys, argv)[::2] == (0, "")


def test_decreasing_cumulative_sequence_is_exit_three(tmp_path, capsys):
    doc = {"spec_version": 1, "sequence": [1, 3, 2] + list(range(3, 20))}
    code, _, err = _run(capsys, ["classify", _write(tmp_path, doc)])
    assert code == 3
    assert err.startswith("error: sequence: ")
    assert "internal" not in err


def test_internal_fault_is_exit_four(tmp_path, capsys, monkeypatch):
    def broken(config, parsed):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._DISPATCH, "analyze", broken)
    code, out, err = _run(capsys, ["analyze", _write(tmp_path, WEYL_ONE)])
    assert code == 4
    assert out == ""
    assert err.strip() == "error: internal: RuntimeError: boom"


# ---------------------------------------------------------------------------
# hilbert


def test_hilbert_series_of_plane_curve(tmp_path, capsys):
    code, payload = _run_json(capsys, ["hilbert", _write(tmp_path, PLANE_MOD_XY)])
    assert code == 0
    report = payload["report"]
    assert report["series"]["numerator"] == [[1, 1], [0, 1], [-1, 1]]
    assert report["series"]["denominator"] == [[1, 1], [-2, 1], [1, 1]]
    assert report["reduced"]["numerator"] == [[1, 1], [1, 1]]
    assert report["reduced"]["denominator"] == [[1, 1], [-1, 1]]
    assert report["graded_dimensions"][:5] == [1, 2, 2, 2, 2]


def test_hilbert_of_a_heavy_generator_is_fast(tmp_path, capsys):
    # k[x, y]/(xy) with x of weight 8000: the denominator (1 - t^8000)(1 - t)
    # has three terms, and the self-check and expansion step over those only
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x", "degree": [8000]},
                                      {"name": "y"}]},
           "module": {"summands": [{"ideal": ["x*y"]}]}}
    path = _write(tmp_path, doc)
    start = time.perf_counter()
    code, payload = _run_json(capsys, ["hilbert", path, "--max-degree", "16001"])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    # basis 1, x^i, y^j: one y-power in every positive degree, and x^(n/8000)
    assert payload["report"]["graded_dimensions"] == [
        1 if n == 0 else 1 + (n % 8000 == 0) for n in range(16002)]


def test_analyze_of_a_heavy_generator_is_fast(tmp_path, capsys):
    # k[x, y]/(xy) with x of weight 8000: the cumulative denominator
    # (1 - t)^2 (1 - t^8000) has known cyclotomic factors, so only the 28
    # divisors of 8000 and 1 are tried against the numerator 1 - t^8001,
    # not every order with phi(k) <= 8001
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x", "degree": [8000]},
                                      {"name": "y"}]},
           "module": {"summands": [{"ideal": ["x*y"]}]}}
    path = _write(tmp_path, doc)
    start = time.perf_counter()
    code, payload = _run_json(capsys, ["analyze", path])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    growth = payload["report"]["growth"]
    # (1 + t + ... + t^8000) / ((1 - t)(1 - t^8000)): one pole at t = 1
    assert (growth["gk"], growth["multiplicity"]) == (1, [8001, 8000])
    assert growth["denominator"]["cyclotomic_multiplicities"] == [
        [d, 2 if d == 1 else 1] for d in range(1, 8001) if 8000 % d == 0]
    quasi = growth["quasi"]
    assert quasi["period"] == 8000
    # cumulative count 1 + n + floor(n / 8000): branch i is n + 1 + (n - i) / 8000
    for i in (0, 1, 7999):
        branch = [Fraction(*c) for c in quasi["branches"][i]]
        assert branch == [Fraction(8000 - i, 8000), Fraction(8001, 8000)], i


def test_analyze_names_what_the_branch_bound_counts(tmp_path, capsys):
    # the cumulative series of weights 2, 3, 5, 7, 11, 13 has period 30030
    # and Phi_1 of multiplicity 7 in its reduced denominator: len(p) + P (2m
    # + 6) = 1 + 30030 * 20 passes SERIES_DEGREE_BOUND, so no branches
    path = _write(tmp_path, {"spec_version": 1,
                             "algebra": _weighted_ring((2, 3, 5, 7, 11, 13))})
    code, payload = _run_json(capsys, ["analyze", path])
    assert code == 0
    growth = payload["report"]["growth"]
    assert growth["quasi"] is None
    assert growth["evidence"] == (
        "exact Hilbert series (Hilbert-Serre): pole of order 6 at t = 1; reduced "
        "denominator of degree 42 with period 30030; branches not read: numerator "
        "length plus period times (2m + 6), m the top multiplicity, is 600601, above "
        f"{SERIES_DEGREE_BOUND}")


def test_analyze_reports_the_pole_alone_past_the_reduction_bound(tmp_path, capsys):
    # 30030 = 2 3 5 7 11 13: Phi_30030 has degree 5760 and thousands of
    # terms, so cancelling the series could take over 10^8 steps; gk and e
    # come from the pole at t = 1 all the same
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x", "degree": [30030]},
                                      {"name": "y"}]},
           "module": {"summands": [{"ideal": ["x*y"]}]}}
    path = _write(tmp_path, doc)
    start = time.perf_counter()
    code, payload = _run_json(capsys, ["analyze", path])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    growth = payload["report"]["growth"]
    assert (growth["gk"], growth["multiplicity"]) == (1, [30031, 30030])
    assert growth["quasi"] is None and growth["hilbert_samuel"] is None
    assert growth["evidence"].endswith(
        "reducing the series could take more than 100000000 steps and is not done")
    assert payload["report"]["holonomy"]["gk"] == 1


def test_analyze_reads_the_series_bound_hilbert_and_poincare_read(tmp_path, capsys):
    # one bound for every dense series, deg p and sum(w) at most
    # SERIES_DEGREE_BOUND: weights 2 and 99998 sum to it, so analyze reduces
    # the graded series as hilbert does, where it once bounded the cumulative
    # denominator's degree sum(w) + 1 and did not expand the series; weights
    # 2 and 99999 pass it. The numerator 1 divides by no Phi_k, so the
    # reduction is charged no division of q, and hilbert exits 0
    for heavy, ending, hilbert_code in (
            (99998, "branches not read: numerator length plus period times (2m + 6), m "
                    f"the top multiplicity, is 1199977, above {SERIES_DEGREE_BOUND}", 0),
            (99999, f"the series passes degree {SERIES_DEGREE_BOUND} and is not expanded", 3)):
        path = _write(tmp_path, {"spec_version": 1, "algebra": _weighted_ring((2, heavy))})
        code, payload = _run_json(capsys, ["analyze", path])
        growth = payload["report"]["growth"]
        assert (code, growth["gk"], growth["multiplicity"]) == (0, 2, [1, 2 * heavy])
        assert growth["evidence"].endswith(ending), heavy
        assert _run(capsys, ["hilbert", path])[0] == hilbert_code, heavy
        if hilbert_code == 0:
            assert _run_json(capsys, ["hilbert", path])[1]["report"]["reduced"] is not None


def test_analyze_reduces_where_the_graded_steps_fit_the_step_bound(
        tmp_path, capsys, monkeypatch):
    # the cumulative series has one more factor 1 - t than the graded one,
    # which the numerator 1 - t^12 of k[x, y]/(x^2), x of weight 6, can
    # divide, so its step estimate is larger; at a CANCEL_STEP_BOUND of the
    # graded estimate analyze reduces what a reduction of the cumulative
    # series refused, as hilbert does
    weights, numerator = (6, 10), [1] + [0] * 11 + [-1]
    low, high = 0, 10 ** 6  # the least bound at which the graded series reduces
    while low < high:
        monkeypatch.setattr(gkdim.poincare, "CANCEL_STEP_BOUND", (low + high) // 2)
        if gkdim.poincare._reduce(numerator, weights) is None:
            low = (low + high) // 2 + 1
        else:
            high = (low + high) // 2
    monkeypatch.setattr(gkdim.poincare, "CANCEL_STEP_BOUND", low)
    assert gkdim.poincare._reduce(numerator, weights + (1,)) is None
    path = _write(tmp_path, {"spec_version": 1, "algebra": _weighted_ring(weights),
                             "module": {"summands": [{"ideal": ["v1^2"]}]}})
    code, payload = _run_json(capsys, ["analyze", path])
    growth = payload["report"]["growth"]
    assert code == 0 and growth["denominator"]["cyclotomic_multiplicities"] == \
        [[1, 2], [2, 1], [5, 1], [10, 1]]
    assert _run_json(capsys, ["hilbert", path])[1]["report"]["reduced"] is not None


def test_hilbert_past_the_series_degree_bound_is_exit_three(tmp_path, capsys):
    # one shift integer would drive a dense numerator of degree 10^6 + 1,
    # t^(10^6) (1 - t) beside 1 - t^2; the bound on its degree refuses it
    # after the sparse walk and before any dense work
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x"}, {"name": "y"}]},
           "module": {"summands": [{"ideal": ["x*y"]},
                                   {"ideal": ["x"], "shift": 10 ** 6}]}}
    path = _write(tmp_path, doc)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["hilbert", path])
    assert time.perf_counter() - start < 0.1
    assert code == 3
    assert out == ""
    assert err == ("error: module: the series numerator has degree 1000001, "
                   "above the bound 100000\n")
    # a generator weight drives the denominator prod(1 - t^w) the same way
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x", "degree": [10 ** 6]}]}}
    code, out, err = _run(capsys, ["hilbert", _write(tmp_path, doc)])
    assert code == 3
    assert err == ("error: algebra: the generator weights sum to 1000000, "
                   "above the series degree bound 100000\n")


def test_huge_exponents_and_weights_build_nothing_dense(tmp_path, capsys):
    # an exponent or a generator weight of 10^9: analyze scatters the sparse
    # numerator only to --max-degree and reads its verdict from the terms,
    # and hilbert refuses the series before building it, by the numerator's
    # degree 10^9 or by the weight sum 10^9 + 1. k[x, y]/(x^(10^9))
    # has 10^9 monomials in each degree from 10^9 - 1 on (the sampled tower
    # read gk 2, e 1); in k[x, y]/(x) with x of weight 10^9 only y is left
    big = 10 ** 9
    plane = [{"name": "x"}, {"name": "y"}]
    heavy = [{"name": "x", "degree": [big]}, {"name": "y"}]
    for generators, ideal, e in ((plane, f"x^{big}", big), (heavy, "x", 1)):
        doc = {"spec_version": 1,
               "algebra": {"kind": "polynomial", "generators": generators},
               "module": {"summands": [{"ideal": [ideal]}]}}
        path = _write(tmp_path, doc)
        start = time.perf_counter()
        code, payload = _run_json(capsys, ["analyze", path])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        graded = payload["report"]["dimensions"]["graded"]
        assert graded == (list(range(1, 32)) if generators is plane else [1] * 31)
        growth = payload["report"]["growth"]
        assert (growth["gk"], growth["multiplicity"]) == (1, [e, 1])
        start = time.perf_counter()
        code, out, err = _run(capsys, ["hilbert", path])
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (3, "")
        assert err == (f"error: module: the series numerator has degree {big}, "
                       f"above the bound 100000\n" if generators is plane else
                       f"error: algebra: the generator weights sum to {big + 1}, "
                       f"above the series degree bound 100000\n")


def test_hilbert_answers_two_directional_modules(tmp_path, capsys):
    # a Laurent part's numerator (1 + t) prod(1 - t^w) / (1 - t) has degree
    # sum(w), 50000 here, within the bound on the numerator's degree, so the
    # module is answered as the regular module alone is: (1 + t) / (1 - t)
    # plus 1 / (1 - t^50000) is 2 in each degree below 50000
    heavy = {"kind": "polynomial", "generators": [{"name": "x", "degree": [50000]}]}
    regular = {"spec_version": 1, "algebra": heavy, "module": {"summands": [{"ideal": []}]}}
    assert _run(capsys, ["hilbert", _write(tmp_path, regular)])[0] == 0
    doc = dict(regular, module={"summands": [{"ideal": []}], "negative_shift": 1})
    path = _write(tmp_path, doc)
    code, payload = _run_json(capsys, ["hilbert", path])
    assert code == 0
    assert len(payload["report"]["series"]["numerator"]) == 50001
    assert payload["report"]["graded_dimensions"] == [2] * 31
    code, payload = _run_json(capsys, ["poincare", path])
    assert code == 0
    assert payload["report"]["coefficients_analyzed"] == 31


def test_a_far_shifted_summand_is_read_in_under_a_second(tmp_path, capsys):
    # weights 1..150 and the ideal (x1) at shift 20000: the series is sized
    # by its numerator's degree 20001 and checked to the printed degree 30
    # alone; a check sized by the shift took 10 to 14 s (2-vCPU VM)
    names = [f"x{i}" for i in range(1, 151)]
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": n, "degree": [i]}
                                      for i, n in enumerate(names, 1)]},
           "module": {"summands": [{"shift": 20000, "ideal": ["x1"]}]}}
    path = _write(tmp_path, doc)
    for command in ("hilbert", "poincare"):
        start = time.perf_counter()
        code, payload = _run_json(capsys, [command, path])
        assert time.perf_counter() - start < 1.0, command
        assert code == 1, command
        assert payload["warnings"] == [WARNINGS["cancel_step_bound"]], command
        if command == "hilbert":
            graded = payload["report"]["graded_dimensions"]
    parsed = cli.parse_spec(doc)
    counts = gkdim.hilbert.module_dim_sequence(parsed.algebra, parsed.module, 30)
    assert graded == list(counts.graded()) == [0] * 31


# ---------------------------------------------------------------------------
# poincare


def test_poincare_weighted_line(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x", "degree": [2]}]}}
    code, payload = _run_json(capsys, ["poincare", _write(tmp_path, doc)])
    assert code == 0
    report = payload["report"]
    assert report["recurrence"]["coefficients"] == [[0, 1], [1, 1]]
    assert report["denominator"]["s"] == 2
    assert report["denominator"]["d"] == 1
    assert report["quasi"]["period"] == 2
    assert report["quasi"]["onset"] == 0
    assert report["quasi"]["branches"] == [[[1, 1]], []]


def _weighted_plane(a: int, b: int) -> dict:
    return {"spec_version": 1,
            "algebra": {"kind": "polynomial",
                        "generators": [{"name": "a", "degree": [a]},
                                       {"name": "b", "degree": [b]}]}}


def test_poincare_mixed_cyclotomic_flags_without_a_fit(tmp_path, capsys):
    # 1/((1-t^2)(1-t^3)): orders 1, 2, 3 are no pure (1-t^s)^d, so the
    # period is their lcm 6; 41 samples are too few to fit six branches
    # with window 4, but hold the P M = 12 numbers of the branches read off
    # the series, which count the solutions of 2a + 3b = n
    path = _write(tmp_path, _weighted_plane(2, 3))
    code, payload = _run_json(capsys, ["poincare", path, "--max-degree", "40"])
    assert code == 0
    report = payload["report"]
    assert report["denominator"]["s"] is None
    assert report["denominator"]["cyclotomic_multiplicities"] == [[1, 2], [2, 1], [3, 1]]
    assert gkdim.poincare.fit_quasi_polynomial(_weighted_counts((2, 3), [(0, [])], 40), 6) \
        is None
    quasi = report["quasi"]
    assert (quasi["period"], quasi["onset"]) == (6, 0)
    counts = _weighted_counts((2, 3), [(0, [])], 80)
    assert all(_branch_value(quasi["branches"][n % 6], n) == counts[n] for n in range(81))
    assert payload["warnings"] == [WARNINGS["mixed_cyclotomic"]]


def test_classify_mixed_cyclotomic_without_a_fit_is_inconclusive(tmp_path, capsys):
    # the inconclusive branch reports no flag, not the period rule's
    path = _write(tmp_path, _weighted_plane(2, 3))
    code, payload = _run_json(capsys, ["classify", path, "--max-degree", "40"])
    assert code == 1
    growth = payload["report"]["growth"]
    assert growth["classification"] == "inconclusive"
    assert growth["evidence"] == ("cyclotomic denominator but no quasi-polynomial "
                                  "fit on the samples")
    assert growth["quasi"] is None
    assert payload["warnings"] == []


def test_classify_mixed_cyclotomic_fits_period_lcm_branches(tmp_path, capsys):
    path = _write(tmp_path, _weighted_plane(2, 3))
    code, payload = _run_json(capsys, ["classify", path, "--max-degree", "60"])
    assert code == 0
    growth = payload["report"]["growth"]
    assert growth["classification"] == "polynomial"
    assert growth["gk"] == 2
    assert growth["multiplicity"] == [1, 6]
    assert growth["quasi"]["period"] == 6
    assert payload["warnings"] == [WARNINGS["sampled_agreement"],
                                   WARNINGS["mixed_cyclotomic"]]


def test_poincare_pure_denominator_takes_its_period(tmp_path, capsys):
    path = _write(tmp_path, _weighted_plane(2, 2))
    code, payload = _run_json(capsys, ["poincare", path, "--max-degree", "40"])
    assert code == 0
    report = payload["report"]
    assert report["denominator"]["s"] == 2
    assert report["quasi"]["period"] == 2
    assert payload["warnings"] == []


FIVE_WEIGHTS = {"spec_version": 1,
                "algebra": {"kind": "polynomial",
                            "generators": [{"name": f"v{i}", "degree": [w]}
                                           for i, w in enumerate((2, 3, 5, 7, 11), 1)]}}


def test_poincare_deep_samples_of_five_weights_are_fast(tmp_path, capsys):
    # 1/prod(1 - t^w) over weights 2, 3, 5, 7, 11: the reduced denominator has
    # degree 28, and the onset scan walks all 10001 samples back to 0
    path = _write(tmp_path, FIVE_WEIGHTS)
    start = time.perf_counter()
    code, payload = _run_json(capsys, ["poincare", path, "--max-degree", "10000"])
    assert time.perf_counter() - start < 0.25
    assert code == 0
    assert payload["report"]["recurrence"]["order"] == 28
    assert payload["report"]["recurrence"]["onset"] == 0


def test_poincare_five_weights_at_depth_5000(tmp_path, capsys):
    path = _write(tmp_path, FIVE_WEIGHTS)
    code, payload = _run_json(capsys, ["poincare", path, "--max-degree", "5000"])
    assert code == 0
    assert payload["report"]["recurrence"]["order"] == 28
    assert payload["report"]["recurrence"]["onset"] == 0


def _weighted_ring(weights) -> dict:
    return {"kind": "polynomial",
            "generators": [{"name": f"v{i}", "degree": [w]}
                           for i, w in enumerate(weights, 1)]}


def _weights_denominator(weights) -> list:
    """prod(1 - t^w) as the report's [numerator, denominator] pairs."""
    q = [1] + [0] * sum(weights)
    for w in weights:
        for i in range(len(q) - 1, w - 1, -1):
            q[i] -= q[i - w]
    return [[c, 1] for c in q]


@pytest.mark.parametrize("weights", [(3, 4), (2, 3, 5), (2, 3, 5, 7, 11), (1, 1, 2, 3)])
def test_poincare_reads_weighted_rings_right_at_every_depth(tmp_path, capsys, weights):
    # the sampled search exited 1 at up to 61 of the depths 1..200 for these
    # rings, and at depth 2 fitted a false order-1 recurrence to (3, 4) and
    # (1, 1, 2, 3); the series 1 / prod(1 - t^w) is reduced, so its
    # denominator gives the recurrence at every depth
    path = _write(tmp_path, {"spec_version": 1, "algebra": _weighted_ring(weights)})
    series = {"numerator": [[1, 1]], "denominator": _weights_denominator(weights)}
    for depth in range(1, 201):
        code, payload = _run_json(capsys, ["poincare", path, "--max-degree", str(depth)])
        assert code == 0, depth
        report = payload["report"]
        assert report["coefficients_analyzed"] == depth + 1
        assert report["recurrence"]["order"] == sum(weights), depth
        assert report["recurrence"]["onset"] == 0, depth
        assert report["series"] == series, depth


@pytest.mark.parametrize("weights, depths", [
    ((3, 4), range(16, 201)), ((2, 3, 5), range(16, 201)),
    ((2, 3, 5, 7, 11), (60, 120, 300))])
def test_analyze_reads_weighted_rings_right_at_every_depth(tmp_path, capsys, weights,
                                                          depths):
    # the sampled tower read gk 1 for (3, 4) at 15 of the depths 16..200 and
    # gk 2 for (2, 3, 5) at 18, with exit 0, and was inconclusive at 73 and
    # 167 more and at all three depths of the five weights; the pole of
    # 1 / prod(1 - t^w) at t = 1 has order n and leading coefficient 1/prod(w)
    path = _write(tmp_path, {"spec_version": 1, "algebra": _weighted_ring(weights)})
    growths = set()
    for depth in depths:
        code, payload = _run_json(capsys, ["analyze", path, "--max-degree", str(depth)])
        assert code == 0, depth
        growth = payload["report"]["growth"]
        assert growth["classification"] == "polynomial", depth
        assert growth["gk"] == len(weights), depth
        assert growth["multiplicity"] == [1, math.prod(weights)], depth
        assert payload["report"]["holonomy"]["gk"] == len(weights), depth
        assert len(payload["report"]["dimensions"]["cumulative"]) == depth + 1
        growths.add(json.dumps(growth))
    # the depth sizes the dimensions only; the branches hold far past it
    assert len(growths) == 1
    quasi = json.loads(growths.pop())["quasi"]
    a = AlgebraSpec.polynomial(len(weights), degrees=[(w,) for w in weights])
    counts = algebra_dim_sequence(a, 3 * quasi["period"]).values
    for n in range(quasi["onset"], len(counts)):
        branch = quasi["branches"][n % quasi["period"]]
        assert sum(Fraction(*c) * n ** i for i, c in enumerate(branch)) == counts[n], n


def test_presentations_fit_no_branches(tmp_path, capsys, monkeypatch):
    # poincare and analyze read a presentation's branches off its reduced
    # series; the per-residue difference tower serves sampled input only
    def fit(*args, **kwargs):
        raise AssertionError("a quasi-polynomial was fitted")

    for module in [m for n, m in sys.modules.items() if n.startswith("gkdim")]:
        if getattr(module, "fit_quasi_polynomial", None) is not None:
            monkeypatch.setattr(module, "fit_quasi_polynomial", fit)
    for weights in ((2, 3), (3, 4), (1, 2, 2, 3), (2, 3, 4)):
        path = _write(tmp_path, {"spec_version": 1, "algebra": _weighted_ring(weights)})
        period = math.lcm(*weights)
        for command in ("poincare", "analyze"):
            code, payload = _run_json(capsys, [command, path, "--max-degree",
                                               str(9 * period)])
            assert code == 0, (weights, command)
            report = payload["report"]
            quasi = report["quasi"] if command == "poincare" else report["growth"]["quasi"]
            assert quasi["period"] == period, (weights, command)


def _branch_value(branch, n: int) -> Fraction:
    return sum(Fraction(*c) * n ** i for i, c in enumerate(branch))


#: the weighted rings of the benchmark's growth-recurrence workload
_CYCLOTOMIC_WEIGHTS = ((2, 3), (1, 2, 3), (2, 2, 3), (1, 1, 2, 3), (1, 2, 2, 3),
                       (2, 2, 3, 3), (3, 4), (1, 3, 4), (2, 3, 4), (1, 2, 3, 4))


@pytest.mark.parametrize("weights", _CYCLOTOMIC_WEIGHTS)
def test_poincare_and_analyze_agree_on_the_branches(tmp_path, capsys, weights):
    # poincare's branches are those of the graded series, analyze's those of
    # the cumulative one: the same period and onset, and the cumulative
    # branches step by the graded ones, C(n) - C(n - 1) = g(n)
    path = _write(tmp_path, {"spec_version": 1, "algebra": _weighted_ring(weights)})
    period = math.lcm(*weights)
    counts = algebra_dim_sequence(
        AlgebraSpec.polynomial(len(weights), degrees=[(w,) for w in weights]),
        14 * period).values
    for depth in (9 * period, 11 * period):
        code, graded = _run_json(capsys, ["poincare", path, "--max-degree", str(depth)])
        assert code == 0
        code, cumulative = _run_json(capsys, ["analyze", path, "--max-degree", str(depth)])
        assert code == 0
        g, c = graded["report"]["quasi"], cumulative["report"]["growth"]["quasi"]
        assert (g["period"], g["onset"]) == (c["period"], c["onset"]) == (period, 0)
        for n in range(1, len(counts)):
            step = (_branch_value(c["branches"][n % period], n)
                    - _branch_value(c["branches"][(n - 1) % period], n - 1))
            assert step == _branch_value(g["branches"][n % period], n) \
                == counts[n] - counts[n - 1], (depth, n)


def test_poincare_prints_no_false_branches_on_too_few_coefficients(tmp_path, capsys):
    # k[x]/(x^3), x of weight 4, at shift 4: the series t^4 + t^8 + t^12 has
    # the zero branch from 13 on; on 8 printed coefficients a fitted branch
    # would be zero from 5 on, and coefficient 8 is 1. The branch read off
    # the series is the true one at every depth, past the printed ones too.
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial", "generators": [{"name": "x", "degree": [4]}]},
           "module": {"summands": [{"shift": 4, "ideal": ["x^3"]}]}}
    path = _write(tmp_path, doc)
    assert gkdim.poincare.fit_quasi_polynomial([0, 0, 0, 0, 1, 0, 0, 0], 1) \
        == gkdim.poincare.QuasiPolynomial(1, (gkdim.poincare.Polynomial([]),), 5)
    for depth in ("7", "20"):
        code, payload = _run_json(capsys, ["poincare", path, "--max-degree", depth])
        assert code == 0
        assert payload["report"]["quasi"] == {"period": 1, "onset": 13, "branches": [[]]}


def test_poincare_and_analyze_agree_on_branches_below_the_fits_depth(tmp_path, capsys):
    # k[x, y], weights 2 and 3, at --max-degree 20: the 21 printed
    # coefficients hold the P M = 12 numbers of the period-6 branches, so
    # poincare prints them, as analyze does, though a window-4 fit needs 72
    path = _write(tmp_path, _weighted_plane(2, 3))
    code, graded = _run_json(capsys, ["poincare", path, "--max-degree", "20"])
    assert code == 0
    code, cumulative = _run_json(capsys, ["analyze", path, "--max-degree", "20"])
    assert code == 0
    g, c = graded["report"]["quasi"], cumulative["report"]["growth"]["quasi"]
    assert (g["period"], g["onset"]) == (c["period"], c["onset"]) == (6, 0)
    counts = _weighted_counts((2, 3), [(0, [])], 60)
    for n in range(1, 61):
        step = (_branch_value(c["branches"][n % 6], n)
                - _branch_value(c["branches"][(n - 1) % 6], n - 1))
        assert step == _branch_value(g["branches"][n % 6], n) == counts[n], n


def test_poincare_reads_no_branches_of_a_long_period_on_few_coefficients(
        tmp_path, capsys, monkeypatch):
    # weights 2, 3, 5, 7, 11 (the benchmark's prime_weights case) at depth
    # 66: the period 2310 times the top multiplicity 5 is past the 67
    # printed coefficients, so no branch is read, let alone printed
    monkeypatch.setattr(cli, "_exact_quasi_polynomial", None)
    path = _write(tmp_path, {"spec_version": 1, "algebra": _weighted_ring((2, 3, 5, 7, 11))})
    code, payload = _run_json(capsys, ["poincare", path, "--max-degree", "66"])
    assert code == 0
    report = payload["report"]
    assert report["denominator"]["cyclotomic_multiplicities"][0] == [1, 5]
    assert report["quasi"] is None
    assert payload["warnings"] == [WARNINGS["mixed_cyclotomic"]]


def test_branches_past_the_work_bound_are_not_read_in_under_a_second(tmp_path, capsys):
    # the Weyl algebra of rank 1000 at depth 2002: P M = 2000 is within the
    # 2003 printed coefficients, but its branch work M (len(p) + P M) + 16 P
    # M^2 = 68002000 is past BRANCH_WORK_BOUND (the branches' denominators
    # are near 1999!, past the 4300 digits Python prints); k[x1..x1200, z], z
    # of weight 2: analyze's evidence names the bound
    weyl = _write(tmp_path, {"spec_version": 1,
                             "algebra": {"kind": "weyl", "weyl_rank": WEYL_RANK_BOUND}})
    for depth in ("2002", "2010", "20000"):
        start = time.perf_counter()
        code, payload = _run_json(capsys, ["poincare", weyl, "--max-degree", depth])
        assert time.perf_counter() - start < 1.0, depth
        assert code == 0 and payload["report"]["quasi"] is None, depth
    ring = _write(tmp_path, {"spec_version": 1, "algebra": _weighted_ring((1,) * 1200 + (2,))})
    start = time.perf_counter()
    code, payload = _run_json(capsys, ["analyze", ring])
    assert time.perf_counter() - start < 1.0
    growth = payload["report"]["growth"]
    assert (code, growth["gk"], growth["quasi"]) == (0, 1201, None)
    assert growth["evidence"].endswith(
        "branches not read: m (numerator length + period m) + 16 period m^2, m the top "
        f"multiplicity, is {1202 * (1 + 2 * 1202) + 16 * 2 * 1202 ** 2}, above "
        f"{gkdim.poincare.BRANCH_WORK_BOUND}")


def test_a_far_shifted_summand_gets_its_branches_in_under_a_second(tmp_path, capsys):
    # k[x1..x100, z], z of weight 2, and a second free summand at shift 20000:
    # c = p (1 - t^2)^102 / q has about 20200 terms, which the running sums
    # of the Taylor coefficients read in a fraction of a second (the
    # falling-binomial columns they replaced took 2.7 s, and the bound
    # refused them)
    doc = {"spec_version": 1, "algebra": _weighted_ring((1,) * 100 + (2,)),
           "module": {"summands": [{"ideal": []}, {"shift": 20000, "ideal": []}]}}
    path = _write(tmp_path, doc)
    start = time.perf_counter()
    code, payload = _run_json(capsys, ["analyze", path])
    assert time.perf_counter() - start < 1.0
    growth = payload["report"]["growth"]
    assert (code, growth["gk"], growth["quasi"]["period"]) == (0, 101, 2)
    assert growth["evidence"].endswith("quasi-polynomial branches from index 19899")


def test_poincare_expands_past_the_self_check_only_to_check_branches(
        tmp_path, capsys, monkeypatch):
    # the Weyl algebra's series 1 / (1 - t)^(2r) has p = 1: without branches
    # poincare expands only the self-checked coefficients 0..deg p + 10, so
    # depth costs nothing it does not print; with branches it expands every
    # printed coefficient, each checked against its branch. Rank 50 at depth
    # 98 has P M = 100 past the 99 printed, and rank 250 the branch work
    # 500 * 501 + 16 * 500^2, past BRANCH_WORK_BOUND
    lengths, divide = [], gkdim.hilbert.divide_by_weights

    def counting(coeffs, weights):
        lengths.append(len(coeffs))
        return divide(coeffs, weights)

    monkeypatch.setattr(gkdim.hilbert, "divide_by_weights", counting)
    for rank, depth, branches in ((50, 5000, True), (50, 98, False), (250, 5000, False)):
        path = _write(tmp_path, {"spec_version": 1,
                                 "algebra": {"kind": "weyl", "weyl_rank": rank}})
        lengths.clear()
        code, payload = _run_json(capsys, ["poincare", path, "--max-degree", str(depth)])
        report = payload["report"]
        assert (code, report["coefficients_analyzed"]) == (0, depth + 1), rank
        assert (report["quasi"] is not None) == branches, (rank, depth)
        assert lengths == ([depth + 1] if branches else [11]), (rank, depth)


def test_poincare_refusal_names_the_field_that_is_short(tmp_path, capsys):
    # a catalog entry is sampled to --max-degree, so that is the short field;
    # a raw sequence is its own; a presentation is not sampled and is
    # answered at the least depth
    doc = {"spec_version": 1, "algebra": {"kind": "catalog", "catalog_id": "free_algebra_2"}}
    code, out, err = _run(capsys, ["poincare", _write(tmp_path, doc), "--max-degree", "1"])
    assert (code, out) == (3, "")
    assert err == "error: config.max_degree: too few terms for recurrence detection\n"
    doc = {"spec_version": 1, "sequence": [1, 2]}
    code, out, err = _run(capsys, ["poincare", _write(tmp_path, doc)])
    assert (code, out) == (3, "")
    assert err == "error: sequence: too few terms for recurrence detection\n"
    code, payload = _run_json(capsys, ["poincare", _write(tmp_path, PLANE_MOD_XY),
                                       "--max-degree", "1"])
    assert code == 0
    assert payload["report"]["recurrence"] == {"order": 1, "coefficients": [[1, 1]],
                                               "onset": 1}


# k[x, y], weights 1 and 2, and a summand at shift 1: one basis element in
# each degree 1..6 (finite-dimensional), or none (the zero module)
WEIGHTS_1_2 = {"kind": "polynomial",
               "generators": [{"name": "x", "degree": [1]}, {"name": "y", "degree": [2]}]}
UNIT_CIRCLE_CONSTANT = {"cyclotomic_multiplicities": [], "d": 0, "linear_factors": [],
                        "notes": [], "radius_class": "all_roots_on_unit_circle",
                        "residual": [[1, 1]], "s": 1}


@pytest.mark.parametrize("ideal, numerator, onset, quasi_onset", [
    (["x^2", "y^3"], [[0, 1]] + [[1, 1]] * 6, 6, 7),
    (["1"], [], 0, 0)])
def test_poincare_of_a_finite_module_keeps_the_order_one_convention(
        tmp_path, capsys, ideal, numerator, onset, quasi_onset):
    # a constant reduced denominator gives no recurrence order; the report
    # keeps the sampled search's a_1 = 0 from the last nonzero coefficient,
    # as that search reported it at depth 30, and now also at depth 12,
    # where the search found nothing
    doc = {"spec_version": 1, "algebra": WEIGHTS_1_2,
           "module": {"summands": [{"shift": 1, "ideal": ideal}]}}
    path = _write(tmp_path, doc)
    for depth in (12, 30):
        code, payload = _run_json(capsys, ["poincare", path, "--max-degree", str(depth)])
        assert code == 0
        assert payload["warnings"] == []
        assert payload["report"] == {
            "coefficients_analyzed": depth + 1,
            "recurrence": {"order": 1, "coefficients": [[0, 1]], "onset": onset},
            "series": {"numerator": numerator, "denominator": [[1, 1]]},
            "denominator": UNIT_CIRCLE_CONSTANT,
            "quasi": {"period": 1, "onset": quasi_onset, "branches": [[]]}}


def test_poincare_on_a_presentation_searches_for_no_recurrence(tmp_path, capsys,
                                                               monkeypatch):
    calls = []
    for name in ("minimal_recurrence", "series_from_recurrence", "validate_algebra",
                 "validate_module"):
        module = gkdim.presentations if name.startswith("validate") else gkdim.poincare
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for loaded in [m for n, m in sys.modules.items() if n.startswith("gkdim")]:
            if getattr(loaded, name, None) is original:
                monkeypatch.setattr(loaded, name, counting)
    code, payload = _run_json(capsys, ["poincare", _write(tmp_path, PLANE_MOD_XY)])
    assert code == 0
    # the parsed algebra and module are validated at most once each
    assert len(set(calls)) == len(calls)
    assert set(calls) <= {"validate_algebra", "validate_module"}
    # a raw sequence is still searched
    calls.clear()
    graded = {"spec_version": 1, "sequence": [1] + [2] * 30,
              "sequence_meaning": "graded_piece"}
    code, sampled = _run_json(capsys, ["poincare", _write(tmp_path, graded, "seq.json")])
    assert code == 0
    assert calls == ["minimal_recurrence", "series_from_recurrence"]
    assert sampled["report"] == payload["report"]


def test_presentations_reach_no_cyclotomic_walk(tmp_path, capsys, monkeypatch):
    # analyze and poincare reduce a presentation's series by the Phi_d its
    # denominator prod(1 - t^w) is known to have; the walk over every order
    # with phi(k) <= deg q serves sampled series only
    def walk(*args, **kwargs):
        raise AssertionError("the walk over every cyclotomic order ran")

    monkeypatch.setattr(gkdim.poincare, "_strip_cyclotomic", walk)
    monkeypatch.setattr(gkdim.poincare, "_cyclotomic_orders", walk)
    with pytest.raises(AssertionError):
        gkdim.poincare.denominator_analysis(gkdim.poincare.Polynomial([1, -1]))
    for weights in ((3, 4), (2, 3, 5), (1, 1, 2, 3), (6, 10)):
        for ideal in ([], ["v1*v2"], ["v1^2", "v2^3"]):
            doc = {"spec_version": 1, "algebra": _weighted_ring(weights),
                   "module": {"summands": [{"shift": 1, "ideal": ideal}]}}
            path = _write(tmp_path, doc)
            code, payload = _run_json(capsys, ["analyze", path, "--max-degree", "40"])
            assert code == 0, (weights, ideal)
            assert payload["report"]["growth"]["gk"] is not None
            code, payload = _run_json(capsys, ["poincare", path, "--max-degree", "40"])
            assert code == 0, (weights, ideal)
            assert payload["report"]["denominator"] is not None


def test_presentations_take_no_gcd(tmp_path, capsys, monkeypatch):
    # hilbert, poincare and analyze reduce a presentation's series by the
    # Phi_d its denominator is known to have; the primitive gcd serves
    # sampled series only
    def gcd(*args, **kwargs):
        raise AssertionError("a gcd was taken")

    for module in [m for n, m in sys.modules.items() if n.startswith("gkdim")]:
        if getattr(module, "primitive_gcd", None) is not None:
            monkeypatch.setattr(module, "primitive_gcd", gcd)
    for weights, ideal in (((2, 3), []), ((3, 4), ["v1*v2"]), ((1, 2, 2, 3), ["v1^2", "v4"]),
                           ((6, 10), ["v2^3"])):
        doc = {"spec_version": 1, "algebra": _weighted_ring(weights),
               "module": {"summands": [{"shift": 1, "ideal": ideal}], "negative_shift": 1}}
        path = _write(tmp_path, doc)
        for command in ("hilbert", "poincare", "analyze"):
            code, payload = _run_json(capsys, [command, path, "--max-degree", "40"])
            assert code == 0, (weights, command)
        assert payload["report"]["growth"]["gk"] is not None


def _heavy_x(tmp_path, weight: int) -> str:
    """k[x, y]/(xy) with x of the given weight, written as a spec."""
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x", "degree": [weight]},
                                      {"name": "y"}]},
           "module": {"summands": [{"ideal": ["x*y"]}]}}
    return _write(tmp_path, doc)


def test_poincare_of_a_heavy_generator_is_fast(tmp_path, capsys):
    # the walk over every order with phi(k) <= 8001 took over a minute; the
    # 28 divisors of 8000 are tried alone, as analyze tries them
    start = time.perf_counter()
    code, payload = _run_json(capsys, ["poincare", _heavy_x(tmp_path, 8000)])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    report = payload["report"]
    # (1 + t + ... + t^8000) / (1 - t^8000): every root on the unit circle
    assert report["denominator"]["s"] == 8000 and report["denominator"]["d"] == 1
    assert report["recurrence"] == {"order": 8000, "onset": 1,
                                    "coefficients": [[0, 1]] * 7999 + [[1, 1]]}
    assert report["quasi"] is None  # 31 coefficients give no branch of period 8000


def test_poincare_refuses_past_the_reduction_bound(tmp_path, capsys):
    # 30030 = 2 3 5 7 11 13: cancelling Phi_30030, of degree 5760 and
    # thousands of terms, could take over 10^8 steps; the walk ran past a
    # 300 s timeout, and the refusal is read off the step count at once
    start = time.perf_counter()
    code, payload = _run_json(capsys, ["poincare", _heavy_x(tmp_path, 30030)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert payload["report"] == {"coefficients_analyzed": 31, "recurrence": None,
                                 "series": None, "denominator": None, "quasi": None}
    assert payload["warnings"] == [WARNINGS["cancel_step_bound"]]
    assert "10^8" in WARNINGS["cancel_step_bound"]


@pytest.mark.parametrize("weight, ideal", [(20011, "x^2"), (30030, "x*y")])
def test_hilbert_refuses_past_the_reduction_bound_as_poincare_does(tmp_path, capsys,
                                                                  weight, ideal):
    # hilbert reduces by the known-Phi_d division poincare uses: the
    # primitive-gcd sequence it ran before took about 23 s on x^2 with x of
    # weight 20011 (2-vCPU Xeon VM), and answered k[x, y]/(xy) with x of
    # weight 30030, which all three commands now refuse on the step count
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x", "degree": [weight]}, {"name": "y"}]},
           "module": {"summands": [{"ideal": [ideal]}]}}
    start = time.perf_counter()
    code, payload = _run_json(capsys, ["hilbert", _write(tmp_path, doc)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    report = payload["report"]
    assert report["reduced"] is None
    assert payload["warnings"] == [WARNINGS["cancel_step_bound"]]
    # the series and the graded dimensions are printed all the same
    top = 2 * weight if ideal == "x^2" else weight + 1
    assert report["series"] == {
        "numerator": [[1, 1]] + [[0, 1]] * (top - 1) + [[-1, 1]],
        "denominator": [[1, 1], [-1, 1]] + [[0, 1]] * (weight - 2) + [[-1, 1], [1, 1]]}
    assert report["graded_dimensions"] == [1] * 31


def test_hilbert_reduces_forty_weights_as_poincare_does(tmp_path, capsys):
    # k[x1..x40] with x_i of weight i, modulo x_i x_(41 - i) for i = 1..14:
    # the primitive-gcd sequence took about 17 s (2-vCPU Xeon VM); the
    # known-Phi_d division is poincare's, so the reduced series is its series
    names = [f"x{i}" for i in range(1, 41)]
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": n, "degree": [i]}
                                      for i, n in enumerate(names, 1)]},
           "module": {"summands": [{"ideal": [f"x{i}*x{41 - i}" for i in range(1, 15)]}]}}
    path = _write(tmp_path, doc)
    start = time.perf_counter()
    code, payload = _run_json(capsys, ["hilbert", path])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    code, poincare = _run_json(capsys, ["poincare", path])
    assert code == 0
    assert payload["report"]["reduced"] == poincare["report"]["series"]
    assert payload["warnings"] == []


def _seeded_presentation(rng) -> tuple:
    """(weights, module doc) for a ring in 1..3 variables of weight 1..6:
    1..2 summands with shifts 0..5 and up to 3 generators of exponents
    0..3 (all zero gives a zero summand), a Laurent part one time in three,
    and the zero module one time in ten."""
    weights = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.1:
        return weights, {"summands": [{"ideal": ["1"]}]}
    summands = []
    for _ in range(rng.randint(1, 2)):
        ideal = ["*".join(f"v{i}^{rng.randint(0, 3)}" for i in range(1, len(weights) + 1))
                 for _ in range(rng.randint(0, 3))]
        summands.append({"shift": rng.randint(0, 5), "ideal": ideal})
    module = {"summands": summands}
    if rng.random() < 1 / 3:
        module["negative_shift"] = rng.randint(1, 3)
    return weights, module


def test_hilbert_reduced_matches_the_primitive_gcd(tmp_path, capsys):
    # the known-Phi_d division against the primitive-gcd reduction it
    # replaced, on the printed series, scaled to q(0) = 1
    rng = random.Random(25)
    laurent = zero = 0
    for _ in range(320):
        weights, module = _seeded_presentation(rng)
        doc = {"spec_version": 1, "algebra": _weighted_ring(weights), "module": module}
        code, payload = _run_json(capsys, ["hilbert", _write(tmp_path, doc)])
        assert code == 0, doc
        report = payload["report"]
        p, q = ([c for c, _ in report["series"][key]] for key in ("numerator", "denominator"))
        p, q = gkdim.poincare._lowest_terms(p, q)
        assert report["reduced"] == {"numerator": [[q[0] * c, 1] for c in p],
                                     "denominator": [[q[0] * c, 1] for c in q]}, doc
        laurent += "negative_shift" in module
        zero += not p
    assert laurent > 50 and zero > 20


def _seeded_counts(weights, module, top: int) -> list:
    """Graded dimensions 0..top of a _seeded_presentation module, by
    enumerating monomials: 1, 2, 2, ... for a Laurent part, plus each
    summand's standard monomials at its shift."""
    counts = [1] + [2] * top if "negative_shift" in module else [0] * (top + 1)
    monomials = [((), 0)]  # every exponent vector of weighted degree <= top
    for w in weights:
        monomials = [(e + (k,), d + k * w) for e, d in monomials
                     for k in range((top - d) // w + 1)]
    for summand in module["summands"]:
        gens = [[int(part.split("^")[1]) for part in g.split("*")] if g != "1"
                else [0] * len(weights) for g in summand["ideal"]]
        shift = summand.get("shift", 0)
        for e, d in monomials:
            if shift + d <= top and not any(all(map(int.__ge__, e, g)) for g in gens):
                counts[shift + d] += 1
    return counts


def test_poincare_prints_the_fits_true_branches_and_only_true_ones(tmp_path, capsys):
    # poincare reads branches off the reduced series wherever P M, P the
    # period and M the top multiplicity, is at most the printed
    # coefficients. The window-4 fit on those coefficients is the reference:
    # wherever its branches hold on a long brute-force count, they are the
    # printed ones, and every printed branch holds on that count from its
    # onset
    rng = random.Random(26)
    seen = {"as the fit": 0, "without a true fit": 0, "none": 0, "laurent": 0, "zero": 0}
    for k in range(300):
        weights, module = _seeded_presentation(rng)
        depth = (5, 10, 20, 40, 80)[k % 5]
        doc = {"spec_version": 1, "algebra": _weighted_ring(weights), "module": module}
        code, payload = _run_json(capsys, ["poincare", _write(tmp_path, doc),
                                           "--max-degree", str(depth)])
        assert code == 0, doc
        report, quasi = payload["report"], payload["report"]["quasi"]
        mults = dict(report["denominator"]["cyclotomic_multiplicities"])
        period = math.lcm(*mults)
        assert (quasi is not None) == (period * max(mults.values(), default=0) <= depth + 1)
        onset = depth if quasi is None else max(depth, quasi["onset"])
        counts = _seeded_counts(weights, module, onset + 2 * period + 40)
        assert report["coefficients_analyzed"] == depth + 1
        fit = gkdim.poincare.fit_quasi_polynomial(counts[:depth + 1], period, 4)
        if fit is not None and all(fit.branches[n % period].evaluate(n) == counts[n]
                                   for n in range(fit.onset, len(counts))):
            assert quasi == json.loads(json.dumps(cli._quasi_payload(fit))), doc
            seen["as the fit"] += 1
        else:
            seen["none" if quasi is None else "without a true fit"] += 1
        if quasi is not None:
            assert all(_branch_value(quasi["branches"][n % period], n) == counts[n]
                       for n in range(quasi["onset"], len(counts))), doc
        seen["laurent"] += "negative_shift" in module
        seen["zero"] += not report["series"]["numerator"]
    assert min(seen.values()) >= 20, seen


def test_poincare_raw_sequence_without_recurrence_is_exit_one(tmp_path, capsys):
    doc = {"spec_version": 1,
           "sequence": [math.factorial(n) for n in range(9)]}
    path = _write(tmp_path, doc)
    code, out, err = _run(capsys, ["poincare", path])
    assert code == 1
    assert json.loads(out)["report"]["recurrence"] is None


GEOMETRIC_3_2 = {"spec_version": 1,
                 "sequence": [2 ** (11 - i) * 3 ** i for i in range(12)],
                 "sequence_meaning": "graded_piece"}


def test_non_integral_series_is_refused_by_poincare_and_classify(tmp_path, capsys):
    # 2^(11 - i) 3^i fits 2048 / (1 - (3/2) t), whose next coefficient is no
    # integer: no natural-number sequence has that series (Fatou)
    path = _write(tmp_path, GEOMETRIC_3_2)
    code, payload = _run_json(capsys, ["poincare", path])
    assert code == 1
    report = payload["report"]
    assert report["recurrence"] == {"order": 1, "coefficients": [[3, 2]], "onset": 0}
    assert report["series"] == {"numerator": [[2048, 1]],
                                "denominator": [[1, 1], [-3, 2]]}
    assert (report["denominator"], report["quasi"]) == (None, None)
    assert payload["warnings"] == [WARNINGS["non_integral_series"]]

    code, payload = _run_json(capsys, ["classify", path])
    assert code == 1
    growth = payload["report"]["growth"]
    assert growth["classification"] == "inconclusive"
    assert growth["series"]["denominator"] == [[1, 1], [-5, 2], [3, 2]]
    assert (growth["denominator"], growth["quasi"]) == (None, None)
    assert "non-integral denominator [1, -5/2, 3/2]" in growth["evidence"]
    assert payload["warnings"] == [WARNINGS["non_integral_series"]]


def test_short_exponential_input_is_inconclusive_on_exact_evidence_alone(tmp_path,
                                                                          capsys):
    # 12 samples of exponential growth whose fitted series is not integral:
    # the report names that exact refusal, and holds no estimate
    code, payload = _run_json(capsys, ["classify", _write(tmp_path, GEOMETRIC_3_2)])
    assert code == 1
    growth = payload["report"]["growth"]
    assert growth["classification"] == "inconclusive"
    assert growth["evidence"] == ("minimal recurrence of order 2 gives the non-integral "
                                  "denominator [1, -5/2, 3/2]; a natural-number "
                                  "sequence has an integral one (Fatou)")
    assert payload["warnings"] == [WARNINGS["non_integral_series"]]
    assert "gamma_estimate" not in growth
    assert sorted(growth) == ["classification", "denominator", "evidence", "gk",
                              "hilbert_samuel", "multiplicity", "quasi",
                              "recurrence", "series"]


def _natural_sequences():
    """Sequences of 12..40 naturals below 10^6: arbitrary lists, and the
    structured shapes that reach the recurrence and root stages (geometric
    c p^i q^(n - 1 - i), integer polynomials in binomial form)."""
    raw = st.lists(st.integers(0, 10 ** 6 - 1), min_size=12, max_size=40)
    geometric = st.builds(
        lambda n, c, p, q: [c * p ** i * q ** (n - 1 - i) for i in range(n)],
        st.integers(12, 20), st.integers(1, 5), st.integers(1, 3), st.integers(1, 3))
    binomial = st.builds(
        lambda n, form: [sum(a * math.comb(i, k) for k, a in enumerate(form))
                         for i in range(n)],
        st.integers(12, 40), st.lists(st.integers(0, 6), min_size=1, max_size=5))
    return (raw | geometric | binomial).filter(lambda v: max(v) < 10 ** 6)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_natural_sequences(), st.sampled_from(["cumulative", "graded_piece"]))
def test_sequence_commands_survive_fuzzed_sequences(tmp_path_factory, values, meaning):
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps({"spec_version": 1, "sequence": values,
                                "sequence_meaning": meaning}))
    for command in ("poincare", "classify"):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(cli.RunConfig(command=command, input_path=str(path)))
        assert time.perf_counter() - start < 2.0, (command, values, meaning)
        assert code in (0, 1, 3), (command, values, meaning, err.getvalue())
        assert "internal" not in err.getvalue()
        if command == "poincare" and code == 0:
            denominator = json.loads(out.getvalue())["report"]["series"]["denominator"]
            assert all(den == 1 for _, den in denominator), (values, meaning)


# ---------------------------------------------------------------------------
# check-ses


def test_check_ses_coordinate_ideal(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x"}, {"name": "y"}]},
           "ses": {"sub_ideal": ["x"]}}
    code, payload = _run_json(capsys, ["check-ses", _write(tmp_path, doc)])
    assert code == 0
    report = payload["report"]
    assert report["case"] == "b"
    assert report["gk_triple"] == [2, 2, 1]
    assert report["e_values"] == [[1, 1], [1, 1], [1, 1]]
    assert report["exactness_ok"] is True
    assert report["additivity_ok"] is True


WEIGHTS_3_4 = {"kind": "polynomial",
               "generators": [{"name": "a", "degree": [3]},
                              {"name": "b", "degree": [4]}]}


@pytest.mark.parametrize("depth", ["40", "120"])
def test_check_ses_on_a_weighted_ring(tmp_path, capsys, depth):
    # the counts of k[a, b] with weights 3, 4 are quasi-polynomial, which
    # no difference tower fits; the Hilbert numerators certify the verdict
    doc = {"spec_version": 1, "algebra": WEIGHTS_3_4, "ses": {"sub_ideal": ["a"]}}
    code, payload = _run_json(capsys, ["check-ses", _write(tmp_path, doc),
                                       "--max-degree", depth])
    assert code == 0
    assert payload["report"] == {
        "gk_triple": [2, 2, 1],
        "e_values": [[1, 12], [1, 12], [1, 4]],
        "case": "b",
        "exactness_ok": True,
        "additivity_ok": True,
        "notes": [],
    }


def test_check_ses_sub_ideal_count_mismatch(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial", "generators": [{"name": "x"}]},
           "module": {"summands": [{"ideal": []}, {"ideal": []}]},
           "ses": {"sub_ideals": [["x"]]}}
    code, _, err = _run(capsys, ["check-ses", _write(tmp_path, doc)])
    assert code == 3
    assert "ses.sub_ideals" in err


# ---------------------------------------------------------------------------
# chain


def test_chain_of_nested_ideals(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial", "generators": [{"name": "x"}]},
           "chain": [[], ["x^3"], ["1"]]}
    code, payload = _run_json(capsys, ["chain", _write(tmp_path, doc)])
    assert code == 0
    report = payload["report"]
    assert report["n"] == 2
    assert report["e_m"] == [1, 1]
    assert report["gk_m"] == 1
    assert report["bound_ok"] is False   # a one-variable ring caps chains at 1
    assert report["quotients_full_gk"] is False


@pytest.mark.parametrize("depth", ["40", "120"])
def test_chain_on_a_weighted_ring(tmp_path, capsys, depth):
    doc = {"spec_version": 1, "algebra": WEIGHTS_3_4,
           "chain": [[], ["a"], ["a", "b^2"]]}
    code, payload = _run_json(capsys, ["chain", _write(tmp_path, doc),
                                       "--max-degree", depth])
    assert code == 0
    assert payload["report"] == {
        "n": 2,
        "e_m": [1, 12],
        "gk_m": 2,
        "bound_ok": False,
        "quotients_full_gk": False,
        "notes": ["quotient 2 has smaller growth dimension than the module"],
    }


def test_chain_members_may_differ_only_above_max_degree(tmp_path, capsys):
    # k[x, y] and k[x, y]/(x^20) have equal counts below degree 20; their
    # numerators differ, and the quotient (x^20) has gk 2 and e 1
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x"}, {"name": "y"}]},
           "chain": [[], ["x^20"]]}
    code, payload = _run_json(capsys, ["chain", _write(tmp_path, doc),
                                       "--max-degree", "16"])
    assert code == 0
    assert payload["report"] == {"n": 1, "e_m": [1, 1], "gk_m": 2, "bound_ok": True,
                                 "quotients_full_gk": True, "notes": []}


@pytest.mark.parametrize("command, field", [
    ("check-ses", {"ses": {"sub_ideal": ["x"]}}),
    ("chain", {"chain": [[], ["x"]]})])
def test_numerator_commands_answer_below_the_detection_depth(tmp_path, capsys,
                                                             command, field):
    # check-ses and chain read their verdicts from Hilbert numerators, and
    # analyze its verdict from the exact series, so none of them needs
    # max_degree >= 2 * window + 4; classify still samples and does
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x"}, {"name": "y"}]}, **field}
    path = _write(tmp_path, doc)
    code, payload = _run_json(capsys, [command, path, "--max-degree", "5"])
    assert code == 0
    code, payload = _run_json(capsys, ["analyze", path, "--max-degree", "5"])
    assert code == 0
    growth = payload["report"]["growth"]
    assert (growth["gk"], growth["multiplicity"]) == (2, [1, 1])
    code, _, err = _run(capsys, ["classify", path, "--max-degree", "5"])
    assert code == 3 and "2 * window + 4" in err


DEEP_EXPONENTS = ["x^3000*y", "x^3000*z", "y*z"]
XYZ = {"kind": "polynomial",
       "generators": [{"name": "x"}, {"name": "y"}, {"name": "z"}]}


def test_counting_depth_follows_no_exponent(tmp_path, capsys):
    # the dense counting recursion lowered x one exponent at a time, so
    # x^3000 ran out of stack at --max-degree 5000 (exit 4); k[x, y, z] / I
    # is one x-line and 3000 lines each along y and z
    doc = {"spec_version": 1, "algebra": XYZ,
           "module": {"summands": [{"ideal": DEEP_EXPONENTS}]}}
    code, payload = _run_json(capsys, ["analyze", _write(tmp_path, doc),
                                       "--max-degree", "5000"])
    assert code == 0
    growth = payload["report"]["growth"]
    assert (growth["classification"], growth["gk"]) == ("polynomial", 1)
    assert growth["multiplicity"] == [6001, 1]

    doc = {"spec_version": 1, "algebra": XYZ,
           "chain": [DEEP_EXPONENTS, ["x^3000", "y*z"]]}
    code, payload = _run_json(capsys, ["chain", _write(tmp_path, doc, "chain.json"),
                                       "--max-degree", "5000"])
    assert code == 0
    assert payload["report"] == {"n": 1, "e_m": [6001, 1], "gk_m": 1, "bound_ok": True,
                                 "quotients_full_gk": True, "notes": []}


def test_chain_rejects_non_nested_ideals(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial", "generators": [{"name": "x"}]},
           "chain": [["x^2"], []]}
    code, _, err = _run(capsys, ["chain", _write(tmp_path, doc)])
    assert code == 3
    assert "chain[2]" in err


@pytest.mark.parametrize("chain", [[["x^2"], ["y"]], [["x"], ["y"]]])
def test_chain_refuses_ideals_that_do_not_contain_the_previous_one(tmp_path, capsys,
                                                                  chain):
    # A/(y) has fewer monomials than A/(x^2) in every degree and as many as
    # A/(x), but (x^2) and (x) are not inside (y)
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x"}, {"name": "y"}]},
           "chain": chain}
    code, out, err = _run(capsys, ["chain", _write(tmp_path, doc)])
    assert (code, out) == (3, "")
    assert "chain[2]" in err and "not nested" in err


def test_term_count_refusals_name_the_field_they_come_from(tmp_path, capsys,
                                                         monkeypatch):
    # x^2, xy, y^2 collects four distinct degrees, one past a bound of 3
    monkeypatch.setattr(gkdim.hilbert, "SERIES_DEGREE_BOUND", 3)
    plane = {"kind": "polynomial", "generators": [{"name": "x"}, {"name": "y"}]}
    staircase = ["x^2", "x*y", "y^2"]
    cases = [("chain", {"chain": [[], staircase]}, "chain[2]"),
             ("check-ses", {"ses": {"sub_ideal": staircase}}, "ses.sub_ideals"),
             ("check-ses", {"module": {"summands": [{"shift": 0, "ideal": staircase}]},
                            "ses": {"sub_ideal": staircase}}, "module"),
             ("analyze", {"module": {"summands": [{"shift": 0, "ideal": staircase}]}},
              "module")]
    for command, fields, path in cases:
        doc = {"spec_version": 1, "algebra": plane, **fields}
        code, out, err = _run(capsys, [command, _write(tmp_path, doc)])
        assert (code, out) == (3, ""), (command, path)
        assert err == f"error: {path}: the numerator has more than 3 distinct degrees\n"


def test_pivot_node_refusals_name_the_field_they_come_from(tmp_path, capsys,
                                                         monkeypatch):
    # x^2, xy, y^2 takes three pivot nodes, one past a bound of 2
    monkeypatch.setattr(gkdim.hilbert, "PIVOT_NODE_BOUND", 2)
    plane = {"kind": "polynomial", "generators": [{"name": "x"}, {"name": "y"}]}
    staircase = ["x^2", "x*y", "y^2"]
    module = {"module": {"summands": [{"shift": 0, "ideal": staircase}]}}
    cases = [(command, module, "module")
             for command in ("hilbert", "poincare", "classify", "analyze")]
    cases += [("check-ses", {"ses": {"sub_ideal": staircase}}, "ses.sub_ideals"),
              ("check-ses", {**module, "ses": {"sub_ideal": staircase}}, "module"),
              ("chain", {"chain": [[], staircase]}, "chain[2]")]
    for command, fields, path in cases:
        doc = {"spec_version": 1, "algebra": plane, **fields}
        code, out, err = _run(capsys, [command, _write(tmp_path, doc)])
        assert (code, out) == (3, ""), (command, path)
        assert err == f"error: {path}: the pivot recursion needs more than 2 nodes\n"


def test_chain_report_does_not_depend_on_max_degree(tmp_path, capsys):
    doc = {"spec_version": 1, "algebra": WEIGHTS_3_4,
           "chain": [[], ["a^2"], ["a", "b^3"], ["1"]]}
    path = _write(tmp_path, doc)
    outs = set()
    for depth in ("1", "16", "200"):
        code, out, err = _run(capsys, ["chain", path, "--max-degree", depth])
        assert (code, err) == (0, "")
        outs.add(out)
    assert len(outs) == 1


_NAMES = ("x", "y", "z", "w")


def _mono_text(exponents) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(_NAMES, exponents) if e]
    return "*".join(parts) or "1"


@st.composite
def _ideal_chains(draw):
    """(number of variables, list of monomial ideals): 1..3 variables,
    exponents <= 3, each ideal after the first either the previous one grown
    by new generators or drawn afresh."""
    nvars = draw(st.integers(1, 3))
    mono = st.tuples(*[st.integers(0, 3)] * nvars)
    ideals = [draw(st.lists(mono, max_size=3))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            ideals.append(ideals[-1] + draw(st.lists(mono, min_size=1, max_size=2)))
        else:
            ideals.append(draw(st.lists(mono, max_size=3)))
    return nvars, ideals


def _standard_counts(ideal, nvars: int, top: int) -> list:
    """Monomials outside the ideal by degree 0..top, by enumeration."""
    counts = [0] * (top + 1)
    for exponents in itertools.product(range(top + 1), repeat=nvars):
        if sum(exponents) <= top and not any(
                all(g <= e for g, e in zip(gen, exponents)) for gen in ideal):
            counts[sum(exponents)] += 1
    return counts


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_ideal_chains())
def test_chain_and_check_ses_survive_fuzzed_ideals(tmp_path_factory, case):
    nvars, ideals = case
    texts = [[_mono_text(g) for g in ideal] for ideal in ideals]
    algebra = {"kind": "polynomial",
               "generators": [{"name": n} for n in _NAMES[:nvars]]}
    fields = {"chain": {"chain": texts},
              "check-ses": {"module": {"summands": [{"ideal": texts[0]}]},
                            "ses": {"sub_ideal": texts[-1]}}}
    directory = tmp_path_factory.mktemp("fuzz")
    codes = {}
    for command, field in fields.items():
        path = directory / f"{command}.json"
        path.write_text(json.dumps({"spec_version": 1, "algebra": algebra, **field}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes[command] = cli.run(cli.RunConfig(command=command,
                                                   input_path=str(path)))
        assert codes[command] in (0, 3), (command, ideals, err.getvalue())
        assert "internal" not in err.getvalue()
    if codes["chain"] == 0:
        # an accepted chain's factors are real modules: their graded counts
        # are differences of the members' and never negative
        counts = [_standard_counts(ideal, nvars, 10) for ideal in ideals]
        for prev, cur in zip(counts, counts[1:]):
            assert all(p >= c for p, c in zip(prev, cur)), ideals


@st.composite
def _weighted_presentations(draw):
    """(weights, summands) for a polynomial ring in 1..3 variables of weight
    1..4: 1..3 summands, each shift 0..3 or 10^5..10^12, each ideal up to 3
    generators with exponents mostly 0..3 and some up to 10^6."""
    nvars = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 4), min_size=nvars, max_size=nvars))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 3), st.integers(0, 10 ** 6))
    ideal = st.lists(st.tuples(*[exponent] * nvars), max_size=3)
    shift = st.one_of(st.integers(0, 3), st.integers(0, 3), st.integers(10 ** 5, 10 ** 12))
    return weights, draw(st.lists(st.tuples(shift, ideal), min_size=1, max_size=3))


def _weighted_counts(weights, summands, top: int) -> list:
    """Graded dimensions 0..top of a sum of shifted monomial quotients, by
    enumerating the monomials of weighted degree at most top."""
    counts = [0] * (top + 1)
    for exponents in itertools.product(*[range(top // w + 1) for w in weights]):
        degree = sum(map(math.prod, zip(exponents, weights)))
        for shift, ideal in summands:
            if shift + degree <= top and not any(
                    all(g <= e for g, e in zip(gen, exponents)) for gen in ideal):
                counts[shift + degree] += 1
    return counts


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_weighted_presentations())
def test_hilbert_and_analyze_survive_fuzzed_presentations(tmp_path_factory, case):
    weights, summands = case
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": n, "degree": [w]}
                                      for n, w in zip(_NAMES, weights)]},
           "module": {"summands": [{"shift": shift,
                                    "ideal": [_mono_text(g) for g in ideal]}
                                   for shift, ideal in summands]}}
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps(doc))
    outs = {}
    for command, codes in (("hilbert", (0, 3)), ("analyze", (0, 3))):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(cli.RunConfig(command=command, input_path=str(path),
                                         max_degree=16))
        assert code in codes, (command, case, err.getvalue())
        assert "internal" not in err.getvalue()
        outs[command] = code, out.getvalue()
    code, out = outs["hilbert"]
    if code == 0:
        graded = json.loads(out)["report"]["graded_dimensions"]
        assert graded[:11] == _weighted_counts(weights, summands, 10), case


@st.composite
def _monomial_presentations(draw):
    """(weights, summands) for a polynomial ring in 1..4 variables of weight
    1..4: 1..2 summands, each shift 0..3 and each ideal 0..4 generators with
    exponents 0..3."""
    nvars = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 4), min_size=nvars, max_size=nvars))
    ideal = st.lists(st.tuples(*[st.integers(0, 3)] * nvars), max_size=4)
    return weights, draw(st.lists(st.tuples(st.integers(0, 3), ideal),
                                  min_size=1, max_size=2))


def _sympy_series(weights, summands) -> tuple:
    """(p, q): the Hilbert series sum_s t^shift p_s / prod(1 - t^w) cancelled
    by sympy, as ascending coefficient lists; each p_s by inclusion-exclusion
    over the subsets of the summand's generators, a subset's lcm having
    weighted degree sum_i w_i max_g g_i."""
    t = sympy.Symbol("t")
    numerator = 0
    for shift, ideal in summands:
        for r in range(len(ideal) + 1):
            for subset in itertools.combinations(ideal, r):
                lcm = [max(e) for e in zip(*subset)] if subset else []
                numerator += (-1) ** r * t ** (shift + sum(map(math.prod, zip(weights, lcm))))
    p, q = sympy.fraction(sympy.cancel(numerator / sympy.prod([1 - t ** w for w in weights])))
    return tuple([Fraction(int(c)) for c in reversed(sympy.Poly(f, t).all_coeffs())]
                 for f in (p, q))


def _expand(p, q, count: int) -> list:
    """The first `count` power-series coefficients of p/q, q(0) != 0."""
    out = []
    for n in range(count):
        acc = p[n] if n < len(p) else 0
        acc -= sum(q[k] * out[n - k] for k in range(1, min(n, len(q) - 1) + 1))
        out.append(acc / q[0])
    return out


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_monomial_presentations())
def test_poincare_on_presentations_matches_brute_force_sympy_and_the_search(
        tmp_path_factory, case):
    weights, summands = case
    algebra = {"kind": "polynomial",
               "generators": [{"name": n, "degree": [w]} for n, w in zip(_NAMES, weights)]}
    module = {"summands": [{"shift": shift, "ideal": [_mono_text(g) for g in ideal]}
                           for shift, ideal in summands]}
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"

    def poincare(doc, depth, command="poincare"):
        path.write_text(json.dumps({"spec_version": 1, **doc}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(cli.RunConfig(command=command, input_path=str(path),
                                         max_degree=depth))
        assert code in (0, 1), (case, err.getvalue())
        return code, json.loads(out.getvalue())["report"]

    code, report = poincare({"algebra": algebra, "module": module}, 10)
    assert code == 0, case
    # the reported series expands to the brute-force counts
    series = [[Fraction(*c) for c in report["series"][k]] for k in ("numerator", "denominator")]
    counts = _weighted_counts(weights, summands, 10)
    assert _expand(*series, 11) == counts, case
    # its order is the degree of sympy's cancelled denominator; a constant one
    # (a finite-dimensional or zero module) keeps the order-1 convention
    p, q = _sympy_series(weights, summands)
    assert _expand(p, q, 11) == counts, case
    order = report["recurrence"]["order"]
    assert order == max(len(q) - 1, 1), case
    # hilbert's reduced series is poincare's, and sympy's scaled to q(0) = 1
    # (sympy lists the zero numerator as [0])
    code, hilbert = poincare({"algebra": algebra, "module": module}, 10, "hilbert")
    assert code == 0, case
    assert hilbert["reduced"] == report["series"], case
    scaled = {key: [[(c / q[0]).numerator, (c / q[0]).denominator] for c in f if any(f)]
              for key, f in (("numerator", p), ("denominator", q))}
    assert hilbert["reduced"] == scaled, case
    # and where the sampled search answers on samples deep enough to hold
    # the recurrence twice past the numerator, it answers the same, but for
    # branches its window-4 fit does not find: poincare prints the branches
    # read off the series wherever P M, P the period and M the top
    # multiplicity, is at most the printed coefficients, and they hold on
    # sympy's expansion from their onset
    depth = 2 * (order + len(p)) + 20
    code, report = poincare({"algebra": algebra, "module": module}, depth)
    assert code == 0, case
    mults = dict(report["denominator"]["cyclotomic_multiplicities"])
    quasi = report.pop("quasi")
    period = math.lcm(*mults)
    assert (quasi is not None) == (period * max(mults.values(), default=0) <= depth + 1), case
    if quasi is not None:
        want = _expand(p, q, quasi["onset"] + 3 * period + 1)
        assert all(_branch_value(quasi["branches"][n % period], n) == want[n]
                   for n in range(quasi["onset"], len(want))), case
    code, sampled = poincare({"sequence": [int(c) for c in _expand(p, q, depth + 1)],
                              "sequence_meaning": "graded_piece"}, depth)
    if code == 0:
        assert sampled.pop("quasi") in (None, quasi), case
        assert sampled == report, case


# ---------------------------------------------------------------------------
# refilter


def test_refilter_quantum_plane(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "quantum_affine",
                       "generators": [{"name": "x", "degree": [1, 0]},
                                      {"name": "y", "degree": [0, 1]}],
                       "lambda": [[1, 2], [[1, 2], 1]]},
           "weight": [1, 3]}
    code, payload = _run_json(capsys, ["refilter", _write(tmp_path, doc)])
    assert code == 0
    report = payload["report"]
    assert report["ok"] is True
    assert report["refiltered"]["weights"] == [1, 3]
    assert report["refiltered"]["names"] == ["x", "y"]


def test_refilter_weyl_constant_correction_stays_dominant(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "weyl", "weyl_rank": 1},
           "weight": [1]}
    code, payload = _run_json(capsys, ["refilter", _write(tmp_path, doc)])
    assert code == 0
    assert payload["report"]["ok"] is True
    assert payload["report"]["refiltered"]["weights"] == [1, 1]


def test_refilter_rejects_zero_weight_entry(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": "x", "degree": [1, 0]},
                                      {"name": "y", "degree": [0, 1]}]},
           "weight": [1, 0]}
    code, _, err = _run(capsys, ["refilter", _write(tmp_path, doc)])
    assert code == 3
    assert "weight" in err


# ---------------------------------------------------------------------------
# holonomy override


def test_h_override_supplies_the_holonomic_number(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "quantum_affine",
                       "generators": [{"name": "x"}, {"name": "y"}],
                       "lambda": [[1, 2], [[1, 2], 1]]}}
    path = _write(tmp_path, doc)
    code, payload = _run_json(capsys, ["analyze", path, "--h-override", "1"])
    assert code == 0
    assert payload["report"]["holonomy"] == {
        "gk": 2, "h": 1, "defect": 1, "min_holonomic": False}
    # without the override there is no catalog entry for this kind
    code, payload = _run_json(capsys, ["analyze", path])
    assert payload["report"]["holonomy"] is None


def test_negative_h_override_is_exit_three(tmp_path, capsys):
    # a holonomic number is a natural number; -3 gave defect 5 above gk 2
    path = _write(tmp_path, WEYL_ONE)
    for value in ("-3", "-1"):
        code, out, err = _run(capsys, ["analyze", path, "--h-override", value])
        assert (code, out) == (3, "")
        assert err == "error: config.h_override: h_override must be a natural number\n"
    code, payload = _run_json(capsys, ["analyze", path, "--h-override", "0"])
    assert code == 0
    assert payload["report"]["holonomy"] == {
        "gk": 2, "h": 0, "defect": 2, "min_holonomic": False}


# ---------------------------------------------------------------------------
# torsion: gk(A) from the presentation


def test_algebra_gk_is_its_generator_count_where_the_recount_fits():
    # the algebra's series is 1 / prod(1 - t^w) with every w >= 1, so gk(A)
    # is the number of generators; analyze used to recount A and fit it
    rng = random.Random(1212)
    algebras = [AlgebraSpec.weyl(r) for r in (1, 2, 3)]
    for _ in range(20):
        n = rng.randint(1, 6)
        algebras.append(AlgebraSpec.polynomial(n))
        lam = [[Fraction(1)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                q = Fraction(rng.randint(2, 5), rng.randint(1, 3))
                lam[i][j], lam[j][i] = q, 1 / q
        algebras.append(AlgebraSpec.quantum_affine(lam))
    fitted = 0
    for a in algebras:
        for top in (16, 30, rng.randint(17, 60)):
            fit = detect_polynomial(algebra_dim_sequence(a, top), 6)
            if fit is not None:
                fitted += 1
                assert gk_dimension(fit) == a.num_generators, (a, top)
    assert fitted > 100


def test_torsion_is_reported_where_the_recount_had_no_fit(tmp_path, capsys):
    # k[x1..x12] / (x1, ..., x10) at depth 16: the algebra's sampled tower
    # does not stabilize (12 generators > 16 - 6), so torsion used to be null
    names = [f"x{i + 1}" for i in range(12)]
    a = AlgebraSpec.polynomial(12, names=names)
    assert detect_polynomial(algebra_dim_sequence(a, 16), 6) is None
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial", "generators": [{"name": n} for n in names]},
           "module": {"summands": [{"ideal": names[:10]}]}}
    path = _write(tmp_path, doc)
    code, payload = _run_json(capsys, ["analyze", path, "--max-degree", "16"])
    assert code == 0
    assert payload["report"]["holonomy"]["gk"] == 2
    assert payload["report"]["torsion"] == {
        "applicable": False, "torsion": None,
        "reason": "criterion needs the algebra's growth dimension above a "
                  "positive holonomic number"}
    code, payload = _run_json(capsys, ["analyze", path, "--max-degree", "16",
                                       "--h-override", "1"])
    assert code == 0
    assert payload["report"]["torsion"] == {
        "applicable": True, "torsion": True,
        "reason": "a nonzero ideal lowers the quotient's growth dimension, "
                  "so every generator is torsion"}


def _agreement_spec(rng) -> tuple:
    """(doc, depth): a polynomial ring in 1..4 variables of weight 1..6, all
    1 on about 30% of them, with 0..3 summands at shifts 0..4, about 30% of them repeating an earlier
    summand's ideal and some the unit ideal, a Laurent part when there are
    no summands and on about a quarter of the rest, and a depth 5..40."""
    nvars = rng.randint(1, 4)
    weights = [rng.randint(1, 6) for _ in range(nvars)]
    if rng.random() < 0.3:
        weights = [1] * nvars
    ideals = []
    for _ in range(rng.randint(0, 3)):
        if ideals and rng.random() < 0.3:
            ideals.append(rng.choice(ideals))
        elif rng.random() < 0.1:
            ideals.append(["1"])
        else:
            ideals.append([_mono_text([rng.randint(0, 3) for _ in range(nvars)])
                           for _ in range(rng.randint(0, 4))])
    module = {"summands": [{"shift": rng.randint(0, 4), "ideal": ideal} for ideal in ideals]}
    if not ideals or rng.random() < 0.25:
        module["negative_shift"] = rng.randint(1, 3)
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial",
                       "generators": [{"name": n, "degree": [w]}
                                      for n, w in zip(_NAMES, weights)]},
           "module": module}
    return doc, rng.randint(5, 40)


def test_presentation_commands_agree_on_every_count(tmp_path):
    # hilbert's graded dimensions, analyze's graded and cumulative ones and
    # module_dim_sequence, which classify counts, come from one reader of the
    # numerator; poincare's and analyze's branches from one reduced series
    # k[x, y]/(x^60000) and a Laurent part over x of weight 50000 have
    # numerators of degree 60000 and 50000, within the series degree bound
    rng = random.Random(2929)
    path = tmp_path / "spec.json"
    repeated = laurent = periods = 0
    plane = {"kind": "polynomial", "generators": [{"name": "x"}, {"name": "y"}]}
    heavy = {"kind": "polynomial", "generators": [{"name": "x", "degree": [50000]}]}
    fixed = [({"spec_version": 1, "algebra": plane,
               "module": {"summands": [{"ideal": ["x^60000"]}]}}, 30),
             ({"spec_version": 1, "algebra": heavy,
               "module": {"summands": [{"ideal": []}], "negative_shift": 1}}, 30)]
    for doc, depth in fixed + [_agreement_spec(rng) for _ in range(240)]:
        summands = doc["module"]["summands"]
        repeated += len({json.dumps(s["ideal"]) for s in summands}) < len(summands)
        laurent += "negative_shift" in doc["module"]
        path.write_text(json.dumps(doc))
        reports = {}
        for command in ("hilbert", "analyze", "poincare"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(cli.RunConfig(command=command, input_path=str(path),
                                             max_degree=depth))
            assert code == 0, (command, doc, err.getvalue())
            reports[command] = json.loads(out.getvalue())["report"]
        dims = reports["analyze"]["dimensions"]
        assert reports["hilbert"]["graded_dimensions"] == dims["graded"], doc
        assert list(itertools.accumulate(dims["graded"])) == dims["cumulative"], doc
        parsed = cli.parse_spec(doc)
        counted = gkdim.hilbert.module_dim_sequence(parsed.algebra, parsed.module, depth)
        assert list(counted) == dims["cumulative"], doc
        both = (reports["poincare"]["quasi"], reports["analyze"]["growth"]["quasi"])
        if None not in both:
            periods += 1
            assert both[0]["period"] == both[1]["period"], doc
    assert repeated > 20 and laurent > 40 and periods > 10
