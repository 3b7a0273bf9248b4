"""funcusum benchmark: Monte Carlo throughput, CLI latency, per-layer split.

    python3 perfbench/run.py --workload mc_size --seed 1 --seconds 25 --trace 0

Workloads (see README.md): mc_size, mc_power_gumbel, cli_pipeline, or
``all`` to run each in its own process.  With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced run.  The line before it holds
provenance and the metrics not gated (raw times, failed_ratio, the CLI's
per-command latencies).  The package is imported from ``src/`` of the
checkout this script sits in, with BLAS pinned to one thread.  Every timed
operation is checked against reference.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Pinned before numpy loads; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("mc_size", "mc_power_gumbel", "cli_pipeline")
SETUP_PROBES = 12
# One calibration sample per this much timed work, so that the samples
# cover a run evenly whatever the length of one operation.
CALIBRATE_EVERY_S = 0.15
CHILD_TIMEOUT_S = 60


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] \
        if len(values) > 1 else values[0]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "funcusum").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _provenance(args, samples: dict, calibration) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "calibration_ms": calibration.mean_ms(),
        "slowness": calibration.slowness(),
        "samples": {**samples, "calibration": len(calibration.samples_ms)},
    }


def _setup_probe(name: str) -> int:
    """Child process: import the package and run one warm-up operation."""
    start = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[name]
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        op = wl.warmup_input(workdir)
        outcome = wl.run(op)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome.error is not None:
        print(f"warm-up failed: {outcome.error}", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": elapsed}))
    return 0


def _time_setup(name: str, calibration) -> tuple[float, float]:
    """One set-up probe in a fresh process, with three calibration samples
    on each side of it: (start, seconds)."""
    for _ in range(3):
        calibration.sample()
    begin = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         name, "--setup-probe"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    reported = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
    for _ in range(3):
        calibration.sample()
    return begin, reported


class Phase:
    """Totals over the operations one measuring phase ran."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.timed: list = []  # (midpoint, kind, Outcome) of each operation
        self.setup: list[tuple[float, float]] = []  # _time_setup results
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.visited: list[int] = []


def _measure(bench, order, seconds, probes=0, tracer=None) -> Phase:
    """Run pool entries in `order` until `seconds` of wall time have passed
    (at least one operation) and every kind of operation has run.

    Each operation is checked against its reference and followed by
    calibration samples, both outside its timed call.  `probes` set-up
    probes are spread evenly over the phase, so that they see the host in
    the states the operations see; their time is not counted in `seconds`.
    """
    import workloads
    wl, ops, reference = bench.wl, bench.ops, bench.reference
    phase = Phase()
    kinds = set()
    start = time.perf_counter()
    paused = 0.0
    for pos, j in enumerate(order):
        busy = time.perf_counter() - start - paused
        if pos and busy >= seconds and len(kinds) == wl.kinds:
            break
        while len(phase.setup) < probes * min(1.0, busy / seconds):
            begin = time.perf_counter()
            phase.setup.append(_time_setup(bench.name, bench.calibration))
            paused += time.perf_counter() - begin
        op = ops[j % len(ops)]
        if tracer is not None:
            tracer.op = pos
        begin = time.perf_counter()
        outcome = wl.run(op)
        failure = workloads.check(wl, op, outcome, reference[j % len(ops)])
        wl.cleanup(op)
        for _ in range(max(1, round(outcome.seconds / CALIBRATE_EVERY_S))):
            bench.calibration.sample()
        kind = wl.kind(j % len(ops))
        kinds.add(kind)
        phase.visited.append(j)
        phase.seconds += outcome.seconds
        phase.timed.append((begin + outcome.seconds / 2, kind, outcome))
        phase.attempted += wl.attempted(op)
        if failure is not None:
            phase.failed += wl.attempted(op)
            phase.failures.append(f"pool entry {j % len(ops)}: {failure}")
    while len(phase.setup) < probes:
        phase.setup.append(_time_setup(bench.name, bench.calibration))
    return phase


class Bench:
    """One workload's pool, reference, work directory and calibration."""

    def __init__(self, name: str, seed: int, workdir: str):
        import calibration
        import workloads
        self.name = name
        self.wl = workloads.WORKLOADS[name]
        with open(HERE / "reference.json") as fh:
            self.reference = json.load(fh)[name]
        self.workdir = workdir
        self.ops = self.wl.prepare(workdir)
        # The traversal repeated, for runs that outpace the pool; repeats
        # show up as pool_wraps in the provenance.
        order = self.wl.traversal(seed)
        self.order = [j + k * len(order) for k in range(64) for j in order]
        self.calibration = calibration.Calibration()

    def warm_up(self) -> None:
        op = self.wl.warmup_input(self.workdir)
        outcome = self.wl.run(op)
        self.wl.cleanup(op)
        if outcome.error is not None:
            raise RuntimeError(f"warm-up failed: {outcome.error}")


def _rates(phase: Phase, several_kinds: bool, slowness) -> tuple:
    """Replications per second and per-replication latency samples (ms),
    with each operation's time divided by `slowness` at its midpoint.

    Each kind of operation (a table cell type) weighs the same, as in a
    full table, whichever kinds a run happened to visit more often: the
    rate is kinds / sum of the kinds' mean times per replication.  With
    several kinds, each kind's mean is one latency sample; with one kind,
    each operation is."""
    per_kind: dict = {}
    samples = []
    for at, kind, outcome in phase.timed:
        if outcome.reps == 0:
            continue
        scaled = outcome.seconds / slowness(at)
        acc = per_kind.setdefault(kind, [0.0, 0])
        acc[0] += scaled
        acc[1] += outcome.reps
        samples.append(1e3 * scaled / outcome.reps)
    means = [1e3 * s / reps for s, reps in per_kind.values()]
    if not means:
        return 0.0, [0.0]
    return 1e3 * len(means) / sum(means), means if several_kinds else samples


def _end_to_end(bench: Bench, seconds: float) -> tuple:
    bench.warm_up()
    phase = _measure(bench, bench.order, seconds, SETUP_PROBES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cal = bench.calibration
    setup = [s / cal.local_slowness(begin + s / 2)
             for begin, s in phase.setup]
    several = bench.wl.kinds > 1
    rate, rep_ms = _rates(phase, several, cal.local_slowness)
    raw_rate, raw_ms = _rates(phase, several, lambda at: 1.0)
    metrics = {
        "reps_per_s": (rate, "1/s"),
        "rep_ms_p50": (statistics.median(rep_ms), "ms"),
        "rep_ms_p90": (_p90(rep_ms), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {"failed_ratio": (phase.failed / phase.attempted, "ratio")}
    step_ms: dict[str, list[float]] = {}
    for at, _, outcome in phase.timed:
        for step, ms in outcome.step_ms.items():
            step_ms.setdefault(step, []).append(ms / cal.local_slowness(at))
    for step, values in sorted(step_ms.items()):
        report[f"{step}_ms_p50"] = (statistics.median(values), "ms")
        report[f"{step}_ms_p90"] = (_p90(values), "ms")
    report["raw.reps_per_s"] = (raw_rate, "1/s")
    report["raw.rep_ms_p50"] = (statistics.median(raw_ms), "ms")
    report["raw.rep_ms_p90"] = (_p90(raw_ms), "ms")
    report["raw.setup_s"] = (statistics.median(s for _, s in phase.setup),
                             "s")
    samples = {"rep_ms": len(rep_ms), "setup_s": len(setup),
               "ops": len(phase.visited),
               "pool_wraps": max(phase.visited) // len(bench.ops)}
    samples.update({f"{s}_ms": len(v) for s, v in step_ms.items()})
    return phase, metrics, report, samples, None


UNITS = {"calls": "count", "self_ms": "ms", "share": "ratio", "bytes": "B",
         "ar_steps": "count", "lags": "count", "repeat_share": "ratio",
         "untraced_share": "ratio", "overhead_ratio": "ratio"}


def _traced(bench: Bench, seconds: float) -> tuple:
    """The workload's first trace_ops operations untraced, then the same
    operations traced.  The work is fixed, not the time, so counts and
    self times compare between commits whatever their speed; `seconds`
    does not apply."""
    import tracing
    order = bench.order[:bench.wl.trace_ops]
    bench.warm_up()
    cal = bench.calibration
    plain = _measure(bench, order, float("inf"))
    plain_slow = cal.slowness()
    cal.clear()
    tracer = tracing.Tracer()
    with tracer:
        traced = _measure(bench, order, float("inf"), tracer=tracer)
    slow = cal.slowness()
    layer = tracer.layer_metrics(traced.seconds)
    for key in layer:
        if key.endswith(".self_ms"):
            layer[key] /= slow
    layer["trace.overhead_ratio"] = ((traced.seconds / slow)
                                     / (plain.seconds / plain_slow))
    metrics = {k: (v, UNITS[k.rsplit(".", 1)[1]]) for k, v in layer.items()}
    phase = Phase()
    for part in (plain, traced):
        phase.attempted += part.attempted
        phase.failed += part.failed
        phase.failures += part.failures
    report = {"failed_ratio": (phase.failed / phase.attempted, "ratio")}
    samples = {"ops": len(order), "spans": len(tracer.spans)}
    return phase, metrics, report, samples, tracer


def _run_workload(args, workdir: str) -> int:
    bench = Bench(args.workload, args.seed, workdir)
    run = _traced if args.trace else _end_to_end
    phase, metrics, report, samples, tracer = run(bench, args.seconds)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(str(OUT / f"{stem}.spans.jsonl"))
    provenance = _provenance(args, samples, bench.calibration)
    for failure in phase.failures[:20]:
        print(f"FAILED {failure}")
    for key, (value, unit) in {**metrics, **report}.items():
        print(f"{args.workload:16s} {key:40s} {value:14.6g} {unit}")
    report = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}
    print(json.dumps({"provenance": provenance, "report": report}))
    result = {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"provenance": provenance, "report": report,
                   "result": result, "failures": phase.failures}, fh,
                  indent=2)
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"workload {name} failed", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "funcusum" / "__init__.py").is_file():
        print(f"funcusum sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return _setup_probe(args.workload)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        return _run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
