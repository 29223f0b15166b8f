"""One sha256 per benchmark workload and seed over every report of its batch.

Usage, from the root of a checkout:

    python3 tools/report_digest.py                       # seeds 1 and 3, all workloads
    python3 tools/report_digest.py --seed 5 --workload analyze-modules
    python3 tools/report_digest.py --src ../other/src    # another checkout's gkdim
    python3 tools/report_digest.py --demos               # each demo's output instead
    python3 tools/report_digest.py --per-report          # one line per report
    python3 tools/report_digest.py --against ../other/src  # only what differs

Each seeded batch of bench/workloads.py is written to a temporary directory
and run in this process through gkdim.cli.run, one report after another.
The digest covers each report's exit code, stdout and stderr, in batch
order, with the temporary directory replaced by a fixed placeholder, so two
commits that print the same bytes for every request print the same digests.
Comparing the lines of two checkouts is the byte-identity check of a change
that must not alter output. --per-report prints, instead of one digest per
batch, one line per report (its index in the batch, command, input family,
max degree and the sha256 of its record), so that a diff of two checkouts'
output names each report that changed.

--demos digests the scripts in demos/ instead: each runs in its own
interpreter with the --src package on its path, and its digest covers its
exit code, stdout and stderr.

--against SRC runs the per-report digest (or, with --demos, the demo
digests) twice, each in its own interpreter: once for --src and once for
SRC, over the same workloads and seeds. It prints only the reports whose
records differ, as "<report>: <SRC's sha256> -> <--src's sha256>", and
exits 1 when any do, so a byte-identity check of a change is one command.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def records(cli, workload: str, seed: int):
    """Yield (case, record) for each report of one seeded batch, in batch
    order: the record is the JSON line of its exit code, stdout and stderr."""
    cases = workloads.make_cases(workload, seed)
    with tempfile.TemporaryDirectory(prefix="report-digest-") as tmp:
        for i, case in enumerate(cases):
            path = Path(tmp) / f"{i:04d}.json"
            path.write_bytes(json.dumps(case.doc, sort_keys=True).encode())
            config = cli.RunConfig(command=case.command, input_path=str(path),
                                   max_degree=case.max_degree)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(config)
            record = [code, out.getvalue(), err.getvalue()]
            yield case, json.dumps(record).replace(tmp, "<tmp>").encode() + b"\n"


def digest(cli, workload: str, seed: int) -> tuple:
    """(sha256 hex digest, number of reports) of one seeded batch."""
    h, count = hashlib.sha256(), 0
    for _, record in records(cli, workload, seed):
        h.update(record)
        count += 1
    return h.hexdigest(), count


def demo_digest(demo: Path, src: Path) -> str:
    """sha256 hex digest of one demo's exit code, stdout and stderr."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    record = [done.returncode, done.stdout, done.stderr]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def compare(args) -> int:
    """The lines of --src and --against that differ, printed; 1 when any do."""
    argv = [sys.executable, str(Path(__file__).resolve())]
    argv += ["--demos"] if args.demos else ["--per-report"]
    for workload in args.workload or ():
        argv += ["--workload", workload]
    for seed in args.seed or ():
        argv += ["--seed", str(seed)]
    runs = []
    for src in (args.src, args.against):
        out = subprocess.run(argv + ["--src", str(src.resolve())], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        runs.append(dict(line.rpartition(": ")[::2] for line in out.splitlines()))
    ours, theirs = runs
    changed = [key for key in {**theirs, **ours} if ours.get(key) != theirs.get(key)]
    for key in changed:
        print(f"{key}: {theirs.get(key, 'missing')} -> {ours.get(key, 'missing')}")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="workload to digest (repeatable; default all)")
    parser.add_argument("--seed", action="append", type=int,
                        help="batch seed (repeatable; default 1 and 3)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the gkdim package (default this checkout's src)")
    parser.add_argument("--demos", action="store_true",
                        help="digest each script in demos/ instead of the benchmark batches")
    parser.add_argument("--per-report", action="store_true", dest="per_report",
                        help="one line per report: index, command, family, max degree, sha256")
    parser.add_argument("--against", type=Path,
                        help="another gkdim package directory: print only the reports "
                             "(or demos) whose records differ from --src's; exit 1 if any")
    args = parser.parse_args(argv)
    if args.against is not None:
        return compare(args)
    if args.demos:
        for demo in sorted((ROOT / "demos").glob("*.py")):
            print(f"{demo.name}: {demo_digest(demo, args.src.resolve())}")
        return 0
    sys.path.insert(0, str(args.src.resolve()))
    import gkdim.cli
    for workload in args.workload or workloads.WORKLOADS:
        for seed in args.seed or (1, 3):
            if args.per_report:
                for i, (case, record) in enumerate(records(gkdim.cli, workload, seed)):
                    print(f"{workload} seed {seed} #{i} {case.command} {case.family} "
                          f"{case.max_degree}: {hashlib.sha256(record).hexdigest()}")
                continue
            hexdigest, count = digest(gkdim.cli, workload, seed)
            print(f"{workload} seed {seed}: {hexdigest} ({count} reports)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
