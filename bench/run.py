"""gkdim benchmark: end-to-end report latency and per-layer self time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload hilbert-ideals --seed 1 --seconds 30 --trace 0

The workload's batch of seeded JSON inputs is run pass after pass for
--seconds, each pass in a fresh interpreter (worker.py), one at a time, so
that no state the program keeps in its process carries over between
repetitions of an input. Within a pass one caller drives gkdim.cli.run
in-process in a closed loop: the next report starts only when the previous
one has returned. There are no threads and no queue, so no report ever waits
for another and waiting time is zero by construction. The first pass's
reports are checked against an independent oracle after timing, and every
later report must repeat the first pass's bytes.

--trace 0 prints the end-to-end metrics. --trace 1 runs untraced passes for
half the time and traced passes for the other half, and prints per-layer
self times, call counts, work counts, layer shares and the tracing overhead.
Spans of the traced passes are written to bench/out/. The last line of
standard output is one JSON object with the result.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 8
#: seconds one pass may take before the run gives up
PASS_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import PROBE_REFERENCE_S, Pass  # noqa: E402


class SetupError(Exception):
    """The checkout cannot run gkdim; no result is printed."""


def _env() -> dict:
    """The environment of a child interpreter: gkdim and the benchmark importable."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


#: what a fresh interpreter runs: it times its own import of gkdim.cli, then
#: warms up and scales that time by a probe, as the passes do
_TIMED_IMPORT = ("import time; start = time.perf_counter(); import gkdim.cli; "
                 "took = time.perf_counter() - start; import worker; "
                 "[worker.probe() for _ in range(3)]; print(took * worker.scale())")


def measure_setup(runs: int = SETUP_RUNS, warm: bool = True) -> list:
    """Reference-machine seconds a fresh interpreter spends importing
    gkdim.cli; with `warm`, after one untimed run that compiles the
    bytecode."""
    times = []
    for i in range(runs + warm):
        done = subprocess.run([sys.executable, "-c", _TIMED_IMPORT], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise SetupError(f"cannot import gkdim.cli: {done.stderr.strip()}")
        if i or not warm:
            times.append(float(done.stdout))
    return times


def write_batch(cases, directory: Path) -> tuple:
    """Write each case's JSON input and the batch file the worker reads;
    returns (input bytes per case, batch file)."""
    raws, requests = [], []
    for i, case in enumerate(cases):
        path = directory / f"{i:04d}.json"
        raw = json.dumps(case.doc, sort_keys=True).encode()
        path.write_bytes(raw)
        raws.append(raw)
        requests.append((case.command, str(path), case.max_degree))
    batch = directory / "batch.json"
    batch.write_text(json.dumps(requests))
    return raws, batch


def fresh_pass(batch: Path, reference=None, spans=None, index: int = 0) -> tuple:
    """One pass in a fresh interpreter: (Pass, the worker's whole result)."""
    command = [sys.executable, str(HERE / "worker.py"), str(batch)]
    if spans is not None:
        command += ["--spans", str(spans), "--pass-index", str(index)]
    begin = time.perf_counter()
    done = subprocess.run(command, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"benchmark pass failed: {done.stderr.strip()[-2000:]}")
    result = json.loads(done.stdout)
    outputs = [tuple(o) for o in result.pop("outputs")]
    if reference is not None:
        outputs = [o == r for o, r in zip(outputs, reference)]
    return Pass(time.perf_counter() - begin, result["times"], outputs,
                result["factors"]), result


def timed_passes(batch: Path, seconds: float, reference=None, spans=None) -> tuple:
    """Fresh-interpreter passes until the next one would end after
    `seconds`, at least one: (passes, the workers' results)."""
    deadline = time.perf_counter() + seconds
    passes, results = [], []
    while True:
        done, result = fresh_pass(batch, reference, spans, len(passes))
        passes.append(done)
        results.append(result)
        if reference is None:
            reference = done.outputs
        if time.perf_counter() + done.wall > deadline:
            return passes, results


def check_reports(cases, raws, reference: list) -> tuple:
    """Oracle verdict per distinct input: (failed flags, inconclusive count, problems)."""
    failed, inconclusive, problems = [], 0, []
    for case, raw, (code, out, err) in zip(cases, raws, reference):
        if code not in (0, 1) or err:
            found = [f"exit {code}: {err.strip()}"]
        else:
            found, was_inconclusive = oracles.verify(case, raw, code, json.loads(out))
            inconclusive += was_inconclusive
        failed.append(bool(found))
        problems.extend(f"{case.command} {case.family}/{case.size}: {p}" for p in found)
    return failed, inconclusive, problems


def count_failures(failed: list, passes: list) -> int:
    """Failed reports over all passes: a report fails when its input's
    reference (the first pass) fails the oracle or when it does not repeat
    the reference bytes."""
    total = sum(failed)
    for p in passes[1:]:
        total += sum(f or not same for f, same in zip(failed, p.outputs))
    return total


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def percentile_90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# the two kinds of run


def per_report(passes: list) -> list:
    """Each report's median time over the passes."""
    return [statistics.median(times) for times in zip(*(p.times for p in passes))]


def end_to_end(batch: Path, seconds: float):
    setup = measure_setup()
    passes, results = timed_passes(batch, seconds)
    setup += measure_setup(warm=False)
    reports = per_report(passes)
    wall = statistics.median(p.wall for p in passes)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "batch_s": metric(sum(reports), "s"),
        "report_s.p50": metric(statistics.median(reports), "s"),
        "report_s.p90": metric(percentile_90(reports), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }
    notes = [
        f"{len(passes)} passes over the batch, each in a fresh interpreter; each "
        f"report's time is the median of {len(passes)} repetitions, and batch_s is "
        f"their sum",
        f"times are reference-machine seconds: each is scaled by the mean of "
        f"{PROBE_REFERENCE_S} s over the calibration probes just before and after it; "
        f"the median pass took {wall:.4g} s of wall time here, interpreter start "
        f"included",
        f"report_s percentiles over {len(reports)} samples, one per report "
        f"({sum(t > metrics['report_s.p90']['value'] for t in reports)} beyond p90)",
        f"setup_s is the median import time of {len(setup)} fresh interpreters, "
        f"half before and half after the passes; peak_rss_mb is the median "
        f"peak resident size of the {len(passes)} pass processes",
    ]
    return passes, metrics, notes


def traced(batch: Path, n_reports: int, seconds: float, workload: str, seed: int):
    plain, _ = timed_passes(batch, seconds / 2)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    spans.unlink(missing_ok=True)
    traced_passes, results = timed_passes(batch, seconds / 2, plain[0].outputs, spans)
    totals = [r["self_times"] for r in results]
    layer_self = {name: (statistics.median(t[name][0] for t in totals), totals[0][name][1])
                  for name in tracer.SPAN_NAMES}
    values = {}
    for name, (self_s, calls) in layer_self.items():
        values[f"{name}.self_s"] = self_s
        values[f"{name}.calls"] = calls
    values.update(results[0]["work_counts"])
    for layer, share in tracer.layer_shares(layer_self).items():
        values[f"layer.{layer}.share"] = share
    values["tracing.batch_s"] = sum(per_report(traced_passes))
    values["tracing.overhead_s"] = values["tracing.batch_s"] - sum(per_report(plain))
    metrics = {name: metric(values[name], unit) for name, unit in tracer.metric_units().items()}
    notes = [
        f"passes: {len(plain)} untraced, {len(traced_passes)} traced, of "
        f"{n_reports} reports, each pass in a fresh interpreter; self times are "
        f"medians over traced passes and batch times sum each report's median "
        f"repetition, all in reference-machine seconds",
        f"spans written to {spans.relative_to(ROOT)}",
    ]
    return plain + traced_passes, metrics, notes


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cases = workloads.make_cases(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    try:
        if not (SRC / "gkdim" / "cli.py").is_file():
            raise SetupError(f"no gkdim sources under {SRC}")
        raws, batch = write_batch(cases, directory)
        if args.trace:
            passes, metrics, notes = traced(batch, len(cases), args.seconds,
                                            args.workload, args.seed)
        else:
            passes, metrics, notes = end_to_end(batch, args.seconds)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    failed_flags, inconclusive, problems = check_reports(cases, raws, passes[0].outputs)
    attempted = sum(len(p.times) for p in passes)
    failed = count_failures(failed_flags, passes)

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "?"
    print(f"# gkdim benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    print(f"# python {platform.python_version()}, commit {git_commit()}, "
          f"nproc {os.cpu_count()} (usable {affinity})")
    print("# one caller, closed loop, no threads: waiting time is 0 by construction")
    print(f"# batch of {len(cases)} reports; sizes {workloads.size_summary(cases)}")
    for note in notes:
        print(f"# {note}")
    for problem in problems[:20]:
        print(f"# FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_share = {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted; {inconclusive} of "
          f"{len(cases)} inputs inconclusive)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
