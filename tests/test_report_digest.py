"""tools/report_digest.py, the byte-identity check of a change that must not
alter output: run against this checkout's own package, it finds no report
that differs, after digesting one line per report of the batch."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "report_digest.py"),
                           "--workload", "hilbert-ideals", "--seed", "1", *args],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)


def test_report_digest_against_this_checkout_prints_nothing():
    done = _digest("--per-report")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines and all(line.startswith("hilbert-ideals seed 1 #") for line in lines)
    done = _digest("--against", str(ROOT / "src"))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
