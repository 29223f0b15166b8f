"""Self-tests of the benchmark: oracle soundness, tracing transparency, seeds
and the BENCHMARK.json contract.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 1


@pytest.fixture(scope="module")
def cli():
    return worker.load_cli()


def _batch(cli, tmp_path, workload, cases=None):
    """(in-process batch, input bytes per case, batch file)."""
    directory = tmp_path / workload
    directory.mkdir()
    raws, path = run.write_batch(cases or workloads.make_cases(workload, SEED), directory)
    return worker.Batch(cli, json.loads(path.read_text())), raws, path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrappers_do_not_change_a_single_byte(cli, tmp_path, workload):
    batch, _, _ = _batch(cli, tmp_path, workload)
    plain = batch.run_pass().outputs
    with tracer.Tracer() as t:
        assert tracer.untraced_bindings() == []
        same = batch.run_pass(plain).outputs
    assert all(same)
    assert tracer.installed_wrappers() == []
    assert sum(s.name == tracer.ROOT for s in t.spans) == len(batch.configs)


def test_fresh_interpreter_passes_repeat_the_in_process_bytes(cli, tmp_path):
    cases = workloads.make_cases("analyze-modules", SEED)[:30]
    batch, _, path = _batch(cli, tmp_path, "analyze-modules", cases)
    plain = batch.run_pass().outputs
    done, result = run.fresh_pass(path, plain)
    assert all(done.outputs) and len(done.times) == len(cases)
    spans = tmp_path / "spans.jsonl"
    done, result = run.fresh_pass(path, plain, spans, 3)
    assert all(done.outputs)
    assert result["self_times"]["cli.run"][1] == len(cases)
    lines = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {line["pass"] for line in lines} == {3}
    assert sum(line["name"] == tracer.ROOT for line in lines) == len(cases)


def test_wrappers_replace_every_binding_of_a_name(cli):
    import gkdim.axioms
    import gkdim.samuel
    with tracer.Tracer():
        for module in (cli, gkdim.axioms, gkdim.samuel):
            assert hasattr(module.detect_polynomial, "bench_span")
        assert hasattr(cli.module_dim_sequence, "bench_span")
        assert hasattr(gkdim.axioms.module_dim_sequence, "bench_span")
    assert not hasattr(cli.detect_polynomial, "bench_span")
    assert not hasattr(gkdim.axioms.module_dim_sequence, "bench_span")


def test_self_times_exclude_wrapped_children():
    outer = tracer.Span(-1, "cli.run", 0.0)
    outer.end = 10.0
    inner = tracer.Span(0, "samuel.detect_polynomial", 2.0)
    inner.end = 5.0
    totals = tracer.self_times([outer, inner], [2.0])
    assert totals["cli.run"] == (14.0, 1)
    assert totals["samuel.detect_polynomial"] == (6.0, 1)
    assert tracer.layer_shares(totals)["samuel"] == pytest.approx(30.0)


def test_seeds_change_inputs_but_not_sizes():
    for workload in workloads.WORKLOADS:
        one = workloads.make_cases(workload, 1)
        two = workloads.make_cases(workload, 2)
        assert workloads.size_summary(one) == workloads.size_summary(two)
        assert [c.doc for c in one] != [c.doc for c in two]
        assert [c.doc for c in one] == [c.doc for c in workloads.make_cases(workload, 1)]


def test_no_two_reports_of_a_batch_are_the_same_request():
    for workload in workloads.WORKLOADS:
        cases = workloads.make_cases(workload, SEED)
        keys = {(c.command, json.dumps(c.doc, sort_keys=True), c.max_degree) for c in cases}
        assert len(keys) == len(cases)


def test_minimal_generator_counts_straddle_the_switch():
    sizes = workloads.size_summary(workloads.make_cases("hilbert-ideals", SEED))
    counts = set(sizes["ie"]) | set(sizes["pivot"])
    assert min(counts) <= 4 and max(counts) >= 24
    assert any(k > 20 for k in counts) and any(k <= 20 for k in counts)


def test_slicing_count_matches_brute_force():
    cases = workloads.make_cases("hilbert-ideals", SEED)[:12]
    cases += workloads.make_cases("analyze-modules", SEED)[:40]
    checked = 0
    for case in cases:
        _, names, weights, _ = oracles._algebra(case.doc)
        for _, gens in oracles._summands(case.doc, names):
            num = oracles.quotient_numerator(gens, weights)
            top = 12 if len(weights) <= 4 else 9
            assert (oracles.divide_by_weights(num, weights, top + 1)
                    == oracles.brute_force_counts(gens, weights, top))
            checked += 1
    assert checked >= 52


def test_growth_of_closed_forms():
    # k[x1..x3]: C(n + 3, 3) cumulative, gk 3, multiplicity 1
    assert oracles.growth_of([1], 3) == (3, 1)
    # k[x, y]/(xy): 1 + 2n graded pieces, gk 1, multiplicity 2
    assert oracles.growth_of(oracles.quotient_numerator([(1, 1)], (1, 1)), 2) == (1, 2)
    # k[x]/(x^3): finite, dimension 3
    assert oracles.growth_of(oracles.quotient_numerator([(3,)], (1,)), 1) == (0, 3)


def _mutations(command):
    """Edits that make a correct report state one wrong value."""
    def bump(path):
        def edit(report):
            node = report
            for key in path[:-1]:
                node = node[key]
            value = node[path[-1]]
            node[path[-1]] = ([value[0] + value[1], value[1]] if isinstance(value, list)
                              else value + 1)
        return edit
    return {
        "hilbert": [bump(("graded_dimensions", -1)),
                    bump(("series", "numerator", 0))],
        "analyze": [bump(("dimensions", "graded", 3)), bump(("growth", "gk")),
                    bump(("growth", "multiplicity"))],
        "check-ses": [bump(("e_values", 1))],
        "chain": [bump(("n",)), bump(("e_m",))],
        "refilter": [bump(("refiltered", "weights", 0))],
        "classify": [bump(("growth", "recurrence", "coefficients", 0)),
                     bump(("growth", "denominator", "cyclotomic_multiplicities", 0, 1))],
        "poincare": [bump(("coefficients_analyzed",)),
                     bump(("series", "denominator", 1))],
    }[command]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_accepts_the_program_and_rejects_wrong_values(cli, tmp_path, workload):
    cases = [c for c in workloads.make_cases(workload, SEED)
             if c.family != "smith_lie" and c.size < 16][:60]
    batch, raws, _ = _batch(cli, tmp_path, workload, cases)
    outputs = batch.run_pass().outputs
    rejected = 0
    for case, raw, (code, out, err) in zip(cases, raws, outputs):
        payload = json.loads(out)
        assert oracles.verify(case, raw, code, payload)[0] == [], case
        for edit in _mutations(case.command):
            wrong = copy.deepcopy(payload)
            try:
                edit(wrong["report"])
            except (TypeError, KeyError, IndexError):
                continue  # the report does not state this value
            problems, _ = oracles.verify(case, raw, code, wrong)
            assert problems, (case, edit)
            rejected += 1
    assert rejected >= len(cases)


def _give_up(command, report) -> bool:
    """Turn a conclusive report into the one a program that gives up would
    write; False when the command has no inconclusive form."""
    if command in ("classify", "analyze"):
        growth = report["growth"]
        for key in ("gk", "multiplicity", "hilbert_samuel", "recurrence", "series",
                    "denominator", "quasi"):
            growth[key] = None
        growth["classification"] = "inconclusive"
    elif command == "poincare":
        for key in ("recurrence", "series", "denominator", "quasi"):
            report[key] = None
    elif command == "check-ses":
        report.update(gk_triple=[None, None, None], e_values=None, case="inconclusive",
                      exactness_ok=None, additivity_ok=None)
    elif command == "chain":
        report.update(bound_ok=None, quotients_full_gk=None)
    else:
        return False
    return True


@pytest.mark.parametrize("workload", ["growth-recurrence", "analyze-modules"])
def test_oracle_rejects_giving_up_where_the_answer_is_known(cli, tmp_path, workload):
    cases = [c for c in workloads.make_cases(workload, SEED)
             if c.family != "smith_lie" and c.size < 16][:60]
    batch, raws, _ = _batch(cli, tmp_path, workload, cases)
    rejected = set()
    for case, raw, (code, out, err) in zip(cases, raws, batch.run_pass().outputs):
        payload = json.loads(out)
        if _give_up(case.command, payload["report"]):
            problems, inconclusive = oracles.verify(case, raw, 1, payload)
            assert inconclusive and problems, case
            rejected.add((case.command, case.family))
    families = {"growth-recurrence": {"free_algebra_2", "geometric", "weighted_ring"},
                "analyze-modules": {"weyl", "polynomial_module", "ses", "chain"}}[workload]
    assert {family for _, family in rejected} == families


def test_oracle_rejects_missing_quasi_polynomial_branches(cli, tmp_path):
    cases = [c for c in workloads.make_cases("growth-recurrence", SEED)
             if c.family == "weighted_ring"]
    batch, raws, _ = _batch(cli, tmp_path, "growth-recurrence", cases)
    for case, raw, (code, out, err) in zip(cases, raws, batch.run_pass().outputs):
        payload = json.loads(out)
        assert oracles.verify(case, raw, code, payload) == ([], False), case
        payload["report"]["quasi"] = None
        assert oracles.verify(case, raw, code, payload)[0], case


@pytest.mark.xfail(strict=True, reason="classify fits a false polynomial to a "
                   "quasi-polynomial sequence")
def test_classify_on_a_weighted_ring(cli, tmp_path):
    """k[a, b] with weights 3 and 4: its graded dimensions are 11 at each
    degree from 126 to 131, so up to degree 131 the first difference level is
    constant on the difference tower's window of 6, and classify reports gk 1
    and multiplicity 11. The cumulative dimensions grow like n^2 / 24: gk 2,
    multiplicity 1/12. This is why growth-recurrence runs only poincare on
    weighted rings."""
    doc = {"spec_version": 1, "algebra": {"kind": "polynomial", "generators": [
        {"name": "a", "degree": [3]}, {"name": "b", "degree": [4]}]}}
    case = workloads.Case("classify", doc, 131, "weighted_ring", 12)
    batch, raws, _ = _batch(cli, tmp_path, "growth-recurrence", [case])
    code, out, err = batch.run_pass().outputs[0]
    assert oracles.verify(case, raws[0], code, json.loads(out))[0] == []


def test_smith_lie_may_stay_inconclusive(cli, tmp_path):
    cases = [c for c in workloads.make_cases("growth-recurrence", SEED)
             if c.family == "smith_lie" and c.max_degree <= 26]
    batch, raws, _ = _batch(cli, tmp_path, "growth-recurrence", cases)
    for case, raw, (code, out, err) in zip(cases, raws, batch.run_pass().outputs):
        assert oracles.verify(case, raw, code, json.loads(out)) == ([], True), case


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "batch_s", "report_s.p50", "report_s.p90", "peak_rss_mb"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "hilbert-ideals",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
