"""Wall time, peak memory and page faults of one `funcusum tables` run.

Runs `funcusum tables CONFIG --quiet --no-timing` in a fresh process
`--runs` times with `OPENBLAS_NUM_THREADS=1` and `--runs` times without
it, alternating the two, and prints the median and quartiles of each
run's wall time, peak resident memory and minor page faults.  `--src`
may be given more than once to time other checkouts' `src/` directories
in the same rounds, for example a parent commit next to a change:

    python scripts/time_grid.py scripts/size_tables_quick.cfg --runs 5
    python scripts/time_grid.py scripts/cell_n500.cfg --runs 5 \\
        --src ../parent/src --src src

With two or more `--src`, each tree's first CSV per BLAS setting is kept
and compared byte for byte with the first tree's; the script prints the
result and exits 1 if any differs.  The CSVs go to a temporary directory
that is removed afterwards.
"""

import argparse
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
RUN_TABLES = "import sys; from funcusum.cli import main; sys.exit(main())"


def timed_run(src: str, config: str, pinned: bool, out: str
              ) -> tuple[float, float, int]:
    """Wall seconds, peak RSS (MB) and minor page faults of one `tables`
    run in a fresh process."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if pinned:
        env["OPENBLAS_NUM_THREADS"] = "1"
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", RUN_TABLES, "tables", config, "--out", out,
         "--quiet", "--no-timing"], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"tables run failed with exit code {proc.returncode}")
    # ru_maxrss is in KiB on Linux.
    return seconds, usage.ru_maxrss / 1024.0, usage.ru_minflt


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def blas(pinned: bool) -> str:
    return "pinned" if pinned else "unpinned"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="ExperimentGrid config file")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per checkout and BLAS setting (default 5)")
    parser.add_argument("--src", action="append", default=None,
                        help="src/ directory to import funcusum from "
                             "(default: this checkout's); repeatable")
    args = parser.parse_args(argv)
    srcs = args.src or [str(SRC)]
    results = {(src, pinned): [] for src in srcs for pinned in (True, False)}
    first_csv = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp, "cells.csv")
        for run in range(args.runs):
            # Alternate which side goes first, so drift on a shared
            # machine does not favour one of them.
            order = list(results) if run % 2 == 0 else list(results)[::-1]
            for src, pinned in order:
                results[src, pinned].append(
                    timed_run(src, args.config, pinned, str(out)))
                if run == 0:
                    first_csv[src, pinned] = out.read_bytes()
    print(f"{args.config}: {args.runs} runs each, nproc {os.cpu_count()}")
    print("src  BLAS  wall_s q1/median/q3  peak_rss_mb q1/median/q3  "
          "minflt q1/median/q3")
    for (src, pinned), runs in results.items():
        wall = quartiles([w for w, _, _ in runs])
        rss = quartiles([r for _, r, _ in runs])
        minflt = quartiles([f for _, _, f in runs])
        print(f"{src}  {blas(pinned)}  "
              + "/".join(f"{v:.2f}" for v in wall) + "  "
              + "/".join(f"{v:.1f}" for v in rss) + "  "
              + "/".join(f"{v:.0f}" for v in minflt))
    if len(srcs) == 1:
        return 0
    differ = [f"{src} {blas(pinned)}" for src, pinned in first_csv
              if first_csv[src, pinned] != first_csv[srcs[0], pinned]]
    print(f"CSV bytes against {srcs[0]}: "
          + (f"DIFFER in {', '.join(differ)}" if differ else "identical"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
