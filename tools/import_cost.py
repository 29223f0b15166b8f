"""Import cost of gkdim.cli in fresh interpreters without a bytecode cache.

Usage, from the root of a checkout:

    python3 tools/import_cost.py                      # this checkout's gkdim
    python3 tools/import_cost.py --src ../other/src   # another checkout's gkdim

The gkdim sources are copied to a temporary directory without any cached
bytecode, and each of RUNS runs starts a new interpreter on that copy with
PYTHONDONTWRITEBYTECODE=1, so every gkdim module is compiled on import, as
in a fresh checkout. The interpreter times its own `import gkdim.cli` with
time.perf_counter; the median of those times is the first line printed. A
second interpreter per run imports it again under `python -X importtime`,
and every module it loads follows, largest median self time first, so a
change in start-up cost can be traced to one module. Only the modules that
`import gkdim.cli` loads count: whatever the interpreter imports at
start-up (site and its .pth files) is already loaded and left out.
"""

import argparse
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: fresh interpreters per measurement
RUNS = 15

#: printed to stderr just before the import, so importtime lines after it
#: belong to gkdim.cli and not to interpreter start-up
MARK = "--- import gkdim.cli ---"

_TIMED = ("import time; start = time.perf_counter(); import gkdim.cli; "
          "print(time.perf_counter() - start)")
_PROFILED = f"import sys; sys.stderr.write({MARK!r} + '\\n'); sys.stderr.flush(); import gkdim.cli"

_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| +(\S+)")


def _child(args: list, src: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)
    if done.returncode != 0:
        raise SystemExit(f"cannot import gkdim.cli: {done.stderr.strip()[-2000:]}")
    return done


def self_times(stderr: str) -> dict:
    """module -> (self us, cumulative us) of the -X importtime lines after MARK."""
    out = {}
    for line in stderr.split(MARK, 1)[-1].splitlines():
        m = _LINE.match(line)
        if m:
            out[m.group(3)] = (int(m.group(1)), int(m.group(2)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the gkdim package (default this checkout's src)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    totals, profiles = [], []
    with tempfile.TemporaryDirectory(prefix="import-cost-") as copy:
        shutil.copytree(src / "gkdim", Path(copy) / "gkdim",
                        ignore=shutil.ignore_patterns("__pycache__"))
        for _ in range(RUNS):
            totals.append(float(_child(["-c", _TIMED], copy).stdout))
            profiles.append(self_times(_child(["-X", "importtime", "-c", _PROFILED],
                                              copy).stderr))
    print(f"import gkdim.cli: median {statistics.median(totals) * 1e3:.1f} ms over "
          f"{RUNS} fresh interpreters (min {min(totals) * 1e3:.1f}, "
          f"max {max(totals) * 1e3:.1f}) from {src}")
    names = {name for profile in profiles for name in profile}
    rows = sorted(((statistics.median(p.get(n, (0, 0))[0] for p in profiles),
                    statistics.median(p.get(n, (0, 0))[1] for p in profiles), n)
                   for n in names), reverse=True)
    print(f"{len(names)} modules loaded, by median self time under -X importtime:")
    print(f"{'self ms':>9} {'cum ms':>9}  module")
    for self_us, cum_us, name in rows:
        print(f"{self_us / 1e3:9.2f} {cum_us / 1e3:9.2f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
