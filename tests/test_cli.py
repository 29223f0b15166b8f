"""Command-line interface: JSON in, deterministic JSON out.

Covers the report envelope (tool version, input digest, sorted keys), the
exit-code contract (0 ok, 1 inconclusive, 2 unreadable input, 3 schema or
math-level errors with a field path on stderr, 4 internal faults),
byte-for-byte determinism,
the fixed warning catalog, both output formats, the JSON emitter against
json.dumps(sort_keys=True, indent=2), and one happy path plus the
characteristic error paths for each of the seven commands, the bound on
--max-degree, and analyze's torsion verdict with gk(A) taken from the
number of generators.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdim import cli
from gkdim.cli import WARNINGS, main
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
    assert payload["warnings"] == [WARNINGS["sampled_agreement"]]


def test_analyze_raw_sequence_beside_an_algebra_has_no_holonomy(tmp_path, capsys):
    # the sequence is what gets analyzed; it presents no module whose
    # holonomy or torsion the report could state
    doc = dict(WEYL_ONE, sequence=[n + 1 for n in range(31)])
    code, payload = _run_json(capsys, ["analyze", _write(tmp_path, doc)])
    assert code == 0
    assert payload["report"]["growth"]["gk"] == 1
    assert payload["report"]["holonomy"] is None
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
           | st.lists(st.integers() | st.booleans()))
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
    path = _write(tmp_path, WEYL_ONE)
    code, _, err = _run(capsys, ["analyze", path, "--max-degree", "10"])
    assert code == 3
    assert "config.max_degree" in err


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


def test_bad_monomial_name_is_exit_three(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial", "generators": [{"name": "x"}]},
           "module": {"summands": [{"ideal": ["z^2"]}]}}
    code, _, err = _run(capsys, ["analyze", _write(tmp_path, doc)])
    assert code == 3
    assert "module.summands[1].ideal[1]" in err


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
    assert isinstance(growth["gamma_estimate"]["value"], float)
    assert payload["warnings"] == [WARNINGS["gamma_diagnostic_only"],
                                   WARNINGS["expected_inconclusive"]]


def test_gamma_is_the_only_float_in_any_payload(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "catalog", "catalog_id": "smith_lie"}}
    _, out, _ = _run(capsys, ["classify", _write(tmp_path, doc)])
    payload = json.loads(out)

    def floats(node, at):
        if isinstance(node, float):
            yield at
        elif isinstance(node, dict):
            for k, v in node.items():
                yield from floats(v, f"{at}.{k}")
        elif isinstance(node, list):
            for i, v in enumerate(node):
                yield from floats(v, f"{at}[{i}]")

    assert list(floats(payload, "$")) == ["$.report.growth.gamma_estimate.value"]


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
    # a module or catalog input has no sequence; its length is set by --max-degree
    catalog = {"spec_version": 1,
               "algebra": {"kind": "catalog", "catalog_id": "free_algebra_2"}}
    for command in ("classify", "analyze"):
        for doc in (plane, catalog):
            argv = [command, _write(tmp_path, doc, "input.json"), "--window", "2",
                    "--max-degree", "8"]
            code, _, err = _run(capsys, argv)
            assert code == 3, argv
            assert err == ("error: config.max_degree: growth classification needs "
                           "at least 12 terms\n")


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


def test_hilbert_past_the_series_degree_bound_is_exit_three(tmp_path, capsys):
    # one shift integer would drive a dense numerator of degree 10^6 and its
    # self-check; the bound refuses it before any dense work
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
    assert err == ("error: module: the series self-check would reach degree 1000012, "
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
    # an exponent or a generator weight of 10^9: analyze reads the numerator
    # only to --max-degree, and hilbert refuses the series before building it
    big = 10 ** 9
    plane = [{"name": "x"}, {"name": "y"}]
    heavy = [{"name": "x", "degree": [big]}, {"name": "y"}]
    for generators, ideal in ((plane, f"x^{big}"), (heavy, "x")):
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
        start = time.perf_counter()
        code, out, err = _run(capsys, ["hilbert", path])
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (3, "")
        assert err == (f"error: module: the series self-check would reach degree "
                       f"{2 * big + 10}, above the bound 100000\n")


def test_hilbert_rejects_two_directional_modules(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "weyl", "weyl_rank": 1},
           "module": {"negative_shift": 1}}
    code, _, err = _run(capsys, ["hilbert", _write(tmp_path, doc)])
    assert code == 3
    assert "module.negative_shift" in err


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
    # period is their lcm 6, and 41 samples are too few to fit six branches
    path = _write(tmp_path, _weighted_plane(2, 3))
    code, payload = _run_json(capsys, ["poincare", path, "--max-degree", "40"])
    assert code == 0
    report = payload["report"]
    assert report["denominator"]["s"] is None
    assert report["denominator"]["cyclotomic_multiplicities"] == [[1, 2], [2, 1], [3, 1]]
    assert report["quasi"] is None
    assert payload["warnings"] == [WARNINGS["mixed_cyclotomic"]]


def test_classify_mixed_cyclotomic_without_a_fit_is_inconclusive(tmp_path, capsys):
    # the inconclusive branch reports only the gamma flag, not the period rule's
    path = _write(tmp_path, _weighted_plane(2, 3))
    code, payload = _run_json(capsys, ["classify", path, "--max-degree", "40"])
    assert code == 1
    growth = payload["report"]["growth"]
    assert growth["classification"] == "inconclusive"
    assert growth["evidence"] == ("cyclotomic denominator but no quasi-polynomial "
                                  "fit on the samples")
    assert growth["quasi"] is None
    assert payload["warnings"] == [WARNINGS["gamma_diagnostic_only"]]


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


@pytest.mark.xfail(strict=True, reason="an order-7 recurrence fits the last 22 of "
                   "5001 samples, and its onset scan stops at 4978")
def test_poincare_five_weights_at_depth_5000(tmp_path, capsys):
    path = _write(tmp_path, FIVE_WEIGHTS)
    code, payload = _run_json(capsys, ["poincare", path, "--max-degree", "5000"])
    assert code == 0
    assert payload["report"]["recurrence"]["order"] == 28
    assert payload["report"]["recurrence"]["onset"] == 0


def test_poincare_raw_sequence_without_recurrence_is_exit_one(tmp_path, capsys):
    doc = {"spec_version": 1,
           "sequence": [math.factorial(n) for n in range(9)]}
    path = _write(tmp_path, doc)
    code, out, err = _run(capsys, ["poincare", path])
    assert code == 1
    assert json.loads(out)["report"]["recurrence"] is None


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


def test_chain_rejects_non_nested_ideals(tmp_path, capsys):
    doc = {"spec_version": 1,
           "algebra": {"kind": "polynomial", "generators": [{"name": "x"}]},
           "chain": [["x^2"], []]}
    code, _, err = _run(capsys, ["chain", _write(tmp_path, doc)])
    assert code == 3
    assert "chain[2]" in err


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
