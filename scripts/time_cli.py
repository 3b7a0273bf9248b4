"""Wall time, peak memory and page faults of one-shot `simulate` and `test`.

For each curve count n, runs `funcusum simulate CONFIG --out X.csv` and
then `funcusum test X.csv --out X.json`, each in a fresh process with
`OPENBLAS_NUM_THREADS=1`, `--runs` times, and prints the median and
quartiles of each command's wall time, peak resident memory and minor
page faults.  This is the path an analyst's shell takes: every command
starts a new process, so nothing built by an earlier command is reused.
`--src` may be given more than once to time other checkouts' `src/`
directories in the same rounds, alternating which goes first, for
example a parent commit next to a change:

    python scripts/time_cli.py --runs 5
    python scripts/time_cli.py --runs 9 --src ../parent/src --src src

The config simulates n curves of a wiener FAR(1) sample with a mean
change.  With two or more `--src`, each tree's first CSV and report
`result` per n are compared byte for byte with the first tree's; the
script prints the result and exits 1 if any differs.  The files go to a
temporary directory that is removed afterwards.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

from time_grid import quartiles

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
RUN_CLI = "import sys; from funcusum.cli import main; sys.exit(main())"
SIZES = (224, 500, 1000)
CONFIG = """\
n = {n}
kernel = wiener
psi = 0.4
seed = 11
change_shape = sin
change_theta = 0.4
change_amplitude = 0.5
"""


def timed_command(src: str, argv: list[str]) -> tuple[float, float, int]:
    """Wall seconds, peak RSS (MB) and minor page faults of one CLI command
    in a fresh process."""
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", RUN_CLI, *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{argv[0]} failed with exit code {code}")
    # ru_maxrss is in KiB on Linux.
    return seconds, usage.ru_maxrss / 1024.0, usage.ru_minflt


def one_run(src: str, tmp: pathlib.Path, n: int) -> dict:
    """Simulate then test n curves; each command's (wall, rss, minflt) and
    the bytes that must not depend on the tree."""
    config, csv, report = (tmp / f"{n}.cfg", tmp / f"{n}.csv",
                           tmp / f"{n}.json")
    config.write_text(CONFIG.format(n=n))
    times = {
        "simulate": timed_command(
            src, ["simulate", str(config), "--out", str(csv)]),
        "test": timed_command(src, ["test", str(csv), "--out", str(report)]),
    }
    result = json.dumps(json.loads(report.read_text())["result"],
                        sort_keys=True)
    return {"times": times, "bytes": (csv.read_bytes(), result)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per checkout and n (default 5)")
    parser.add_argument("--src", action="append", default=None,
                        help="src/ directory to import funcusum from "
                             "(default: this checkout's); repeatable")
    args = parser.parse_args(argv)
    srcs = args.src or [str(SRC)]
    times = {(src, n, cmd): [] for src in srcs for n in SIZES
             for cmd in ("simulate", "test")}
    first = {}
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(args.runs):
            # Alternate which tree goes first, so drift on a shared
            # machine does not favour one of them.
            order = srcs if run % 2 == 0 else srcs[::-1]
            for n in SIZES:
                for src in order:
                    done = one_run(src, pathlib.Path(tmp), n)
                    for cmd, measured in done["times"].items():
                        times[src, n, cmd].append(measured)
                    first.setdefault((src, n), done["bytes"])
    print(f"{args.runs} runs each, nproc {os.cpu_count()}, OpenBLAS pinned")
    print("src  n  command  wall_ms q1/median/q3  peak_rss_mb q1/median/q3  "
          "minflt q1/median/q3")
    for (src, n, cmd), runs in times.items():
        wall = quartiles([1e3 * w for w, _, _ in runs])
        rss = quartiles([r for _, r, _ in runs])
        minflt = quartiles([f for _, _, f in runs])
        print(f"{src}  {n}  {cmd}  "
              + "/".join(f"{v:.1f}" for v in wall) + "  "
              + "/".join(f"{v:.1f}" for v in rss) + "  "
              + "/".join(f"{v:.0f}" for v in minflt))
    if len(srcs) == 1:
        return 0
    differ = [f"{src} n={n}" for src, n in first
              if first[src, n] != first[srcs[0], n]]
    print(f"CSV and result bytes against {srcs[0]}: "
          + (f"DIFFER in {', '.join(differ)}" if differ else "identical"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
