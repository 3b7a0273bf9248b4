"""Record reference.json: the outputs of every workload's input pool.

    python3 perfbench/record_reference.py [--workload NAME ...]

Run only at a commit whose outputs are known to be right; the benchmark
then counts every timed operation that disagrees with this file as
failed.  Re-recording after a change that moves outputs hides that change,
so a commit that does so must say which outputs moved and why.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time

import run  # pins BLAS threads and sets the paths before numpy loads

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def record(name: str, workdir: str) -> list:
    wl = workloads.WORKLOADS[name]
    entries = []
    for op in wl.prepare(workdir):
        outcome = wl.run(op)
        if outcome.error is not None:
            raise RuntimeError(f"{name}: {outcome.error}")
        entries.append(wl.output(op, outcome))
        wl.cleanup(op)
    return entries


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=run.WORKLOAD_NAMES)
    args = p.parse_args()
    path = run.HERE / "reference.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update({"schema": "funcusum-perfbench-reference-1",
                 "pool_seed": workloads.POOL_SEED,
                 "src_sha256": run._src_digest(),
                 "result_fields": list(workloads.RESULT_FIELDS)})
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=run.OUT)
    try:
        for name in args.workload or run.WORKLOAD_NAMES:
            start = time.perf_counter()
            data[name] = record(name, workdir)
            print(f"{name}: {len(data[name])} entries in "
                  f"{time.perf_counter() - start:.1f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
