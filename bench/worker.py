"""One pass over a benchmark batch, in the interpreter that runs this file.

    python3 bench/worker.py <batch.json> [--spans <spans.jsonl> --pass-index N]

run.py starts a fresh interpreter with this file for every pass, so no state
the program keeps in its process (caches, memoised values) carries over from
one repetition of an input to the next. The worker imports gkdim.cli, calls
gkdim.cli.run once per report of the batch in a closed loop (the next report
starts only when the previous one has returned), and prints one JSON object:
the pass's wall time, each report's scaled time and probe factor, each
report's (exit code, stdout, stderr) and the process's peak resident size.
With --spans it installs the tracer for the pass, appends the spans to the
given file and adds per-function self times and work counts.

Times are scaled to a reference machine by calibration probes timed just
before and after them, because the speed of a shared virtual machine drifts
by up to 2x over seconds to minutes.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: seconds the calibration probe takes on the reference machine; every time
#: is scaled by this over the probe times measured around it
PROBE_REFERENCE_S = 0.0005
#: a probe is taken before a report when the last one is older than this,
#: and right after every report longer than PROBE_AFTER_S; a report is
#: scaled by the mean of the probes just before and just after it. The
#: speed of a shared virtual CPU changes within tenths of a second, so a
#: long report needs probes close to both of its ends.
PROBE_EVERY_S = 0.05
PROBE_AFTER_S = 0.02


class Pass(NamedTuple):
    """One closed-loop pass over the batch."""

    wall: float       # wall seconds for the whole pass
    times: list       # per report, reference-machine seconds
    outputs: list     # per report, (code, stdout, stderr) or, against a
                      # reference pass, whether it repeated the reference
    factors: list     # per report, the probe scale applied to its time


def probe() -> float:
    """Median seconds of five runs of a fixed piece of pure-Python work of
    the kinds gkdim does: exact fractions, tuples and dicts, and a plain
    integer loop like its divisor search and count convolutions."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 120):
            acc += Fraction(i, i + 1)
            key = tuple(range(i % 7))
            seen[key] = seen.get(key, 0) + i * i
        [d for d in range(1, 3000) if 360360 % d == 0]
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale() -> float:
    """Factor that turns seconds measured now into reference-machine seconds."""
    return PROBE_REFERENCE_S / probe()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB. Linux carries the
    parent's resident size at fork across exec into ru_maxrss, so the
    process's own high-water mark (VmHWM) is read where it exists."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_cli():
    sys.path.insert(0, str(SRC))
    import gkdim.cli
    return gkdim.cli


class Batch:
    """RunConfigs for a batch's requests: (command, input path, max degree)."""

    def __init__(self, cli, requests):
        self.cli = cli
        self.configs = [cli.RunConfig(command=command, input_path=path, max_degree=degree)
                        for command, path, degree in requests]

    def run_pass(self, reference=None) -> Pass:
        run = self.cli.run  # looked up per pass, so installed wrappers apply
        raw, outputs, before = [], [], []
        gc.collect()
        begin = probed = time.perf_counter()
        probes = [scale()]
        for i, config in enumerate(self.configs):
            long_before = raw and raw[-1] > PROBE_AFTER_S
            if long_before or time.perf_counter() - probed > PROBE_EVERY_S:
                probes.append(scale())
                probed = time.perf_counter()
            before.append(len(probes) - 1)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = run(config)
                except Exception as e:  # a raise out of run is a failed report
                    code = f"raised {type(e).__name__}: {e}"
                raw.append(time.perf_counter() - start)
            result = (code, out.getvalue(), err.getvalue())
            outputs.append(result if reference is None else result == reference[i])
        probes.append(scale())
        factors = [(probes[k] + probes[k + 1]) / 2 for k in before]
        times = [t * f for t, f in zip(raw, factors)]
        return Pass(time.perf_counter() - begin, times, outputs, factors)


def traced_pass(batch: Batch, spans_path: Path, index: int) -> tuple:
    """(pass, {span name: (self seconds, calls)}, work counts); the spans are
    appended to `spans_path`, one JSON line each."""
    import gkdim.hilbert
    import tracer
    with tracer.Tracer() as t:
        done = batch.run_pass()
    if tracer.installed_wrappers():
        raise RuntimeError("benchmark wrappers left installed after a traced pass")
    totals = tracer.self_times(t.spans, done.factors)
    counts = tracer.work_counts(t.spans, gkdim.hilbert.minimalize_ideal)
    with open(spans_path, "a", encoding="utf-8") as fh:
        report = -1
        for sid, s in enumerate(t.spans):
            if s.name == tracer.ROOT:
                report = sid
            fh.write(json.dumps({"pass": index, "id": sid, "parent": s.parent,
                                 "report": report, "name": s.name,
                                 "start": s.start, "end": s.end}) + "\n")
    return done, totals, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("batch", type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--pass-index", type=int, default=0)
    args = parser.parse_args(argv)

    batch = Batch(load_cli(), json.loads(args.batch.read_text()))
    result = {}
    if args.spans:
        done, result["self_times"], result["work_counts"] = traced_pass(
            batch, args.spans, args.pass_index)
    else:
        done = batch.run_pass()
    result.update(wall=done.wall, times=done.times, outputs=done.outputs,
                  factors=done.factors, peak_rss_mb=peak_rss_mb())
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
