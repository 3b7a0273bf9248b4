"""Workload inputs, the operations the benchmark times, and their checks.

Each workload draws its inputs from a pool that POOL_SEED fixes.  The
outputs of every pool entry are recorded in reference.json, so every
timed operation is checked against a recorded reference.  The run seed
picks where in the pool a run starts; the pool is walked with a stride
near the golden ratio of its size, so any run's first k entries spread
evenly over the pool whatever the seed.  The Monte Carlo workloads walk
their pool in whole passes over the table's cell types.  All inputs are
built before timing starts.

Tolerance: integers, booleans and strings must match exactly; a float
matches when |got - want| <= REL_TOL * |want| + ABS_TOL (infinities must
be equal).  This allows for BLAS summation order, not for a changed
method.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import random
import time

from funcusum import cli, harness
from funcusum.cusum import TestResult

POOL_SEED = 1407
REL_TOL = 1e-9
ABS_TOL = 1e-12
RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(TestResult))


def traversal(seed: int, pool_size: int) -> list[int]:
    """Pool indices in the order a run with this seed visits them."""
    offset = random.Random(seed).randrange(pool_size)
    stride = round(pool_size * 0.6180339887498949)
    while math.gcd(stride, pool_size) != 1:
        stride += 1
    return [(offset + i * stride) % pool_size for i in range(pool_size)]


def close(got, want) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, (int, str)) and isinstance(got, (int, str)):
        return got == want
    if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
        return False
    if math.isinf(want) or math.isinf(got) or math.isnan(want):
        return got == want
    return abs(got - want) <= REL_TOL * abs(want) + ABS_TOL


def all_close(got, want) -> bool:
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(all_close(g, w) for g, w in zip(got, want)))
    return close(got, want)


def check(wl, op, outcome: "Outcome", want) -> str | None:
    """None when the operation succeeded and matches its reference."""
    if outcome.error is not None:
        return outcome.error
    try:
        got = wl.output(op, outcome)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"cannot read outputs: {exc!r}"
    if not all_close(got, want):
        return f"output differs from reference: {got} != {want}"
    return None


@dataclasses.dataclass
class Outcome:
    """What one timed operation did: replications, wall time, its output."""

    reps: int
    seconds: float
    output: object
    error: str | None = None
    step_ms: dict[str, float] = dataclasses.field(default_factory=dict)


class McWorkload:
    """One table cell per operation: `harness.run_grid` on a one-cell grid.

    The cell types are the cells of `grid`.  Pool entry j runs cell type
    j % kinds with master seed POOL_SEED * 1000 + j.  A reproduced table
    runs about 2500 replications per cell (10^6 over some 400 cells), so
    the per-cell set-up (kernel quadrature, simulator, change function)
    is a negligible share of it; `grid.replications` is chosen so that it
    stays near 1% of a cell here too, while a run still runs each cell
    type two or more times.
    """

    def __init__(self, grid: harness.ExperimentGrid, slots: int):
        self.grid = grid
        self.cells = grid.cells()
        self.kinds = len(self.cells)
        self.pool_size = slots * self.kinds
        # A traced run measures one pass over the table.
        self.trace_ops = self.kinds

    def _cell_grid(self, j: int, replications: int,
                   seed: int) -> harness.ExperimentGrid:
        c = self.cells[self.kind(j)]
        return dataclasses.replace(
            self.grid, n_values=(c.n,), kernels=(c.kernel,),
            psi_values=(c.psi,), h_values=(c.h,), d_values=(c.d,),
            alternatives=(c.alternative,), replications=replications,
            seed=seed)

    def prepare(self, workdir: str) -> list[harness.ExperimentGrid]:
        return [self._cell_grid(j, self.grid.replications,
                                POOL_SEED * 1000 + j)
                for j in range(self.pool_size)]

    def warmup_input(self, workdir: str) -> harness.ExperimentGrid:
        return self._cell_grid(0, 1, POOL_SEED)

    def kind(self, j: int) -> int:
        return j % self.kinds

    def traversal(self, seed: int) -> list[int]:
        """Whole passes over the table, the cell types in turn from one the
        seed picks, each pass on pool entries not used by the previous."""
        slots = traversal(seed, self.pool_size // self.kinds)
        return [slots[k // self.kinds] * self.kinds
                + (seed + k) % self.kinds for k in range(self.pool_size)]

    def run(self, grid: harness.ExperimentGrid) -> Outcome:
        start = time.perf_counter()
        try:
            results = harness.run_grid(grid)
        except Exception as exc:
            return Outcome(0, time.perf_counter() - start, None, f"{exc!r}")
        seconds = time.perf_counter() - start
        errors = [r.error for r in results if r.error is not None]
        output = [[round(r.reject_rate * r.replications), r.khat_median]
                  for r in results]
        return Outcome(sum(r.completed for r in results), seconds, output,
                       "; ".join(errors) or None)

    def output(self, grid: harness.ExperimentGrid, outcome: Outcome) -> list:
        """Per cell: rejection count and median of k_hat / n."""
        return outcome.output

    def attempted(self, grid: harness.ExperimentGrid) -> int:
        return len(grid.cells()) * grid.replications

    def cleanup(self, op) -> None:
        pass


@dataclasses.dataclass(frozen=True)
class Request:
    """One analyst request: simulate a sample to CSV, then test that CSV."""

    config: str
    csv: str
    report: str
    d: int
    alpha: float

    def argv(self) -> tuple[list[str], list[str]]:
        return (["simulate", self.config, "--out", self.csv],
                ["test", self.csv, "--d", str(self.d),
                 "--alpha", repr(self.alpha), "--out", self.report])


def _request_settings(rng: random.Random, n: int) -> tuple[str, int, float]:
    lines = [f"n = {n}",
             f"kernel = {rng.choice(('wiener', 'gaussian'))}",
             f"psi = {round(rng.uniform(0.1, 0.6), 3)!r}",
             f"seed = {rng.randrange(2 ** 31)}"]
    if rng.random() < 0.5:
        lines += ["change_shape = sin",
                  f"change_theta = {round(rng.uniform(0.25, 0.75), 3)!r}",
                  f"change_amplitude = {round(rng.uniform(0.2, 1.0), 3)!r}"]
    return "\n".join(lines) + "\n", rng.choice((1, 2, 3)), rng.choice(
        (0.01, 0.05, 0.1))


def _curve_digest(path: str) -> list:
    """Row count plus sum and sum of squares of the first, middle and last
    curve: a cheap check on the CSV that does not parse every row."""
    with open(path) as fh:
        rows = fh.read().splitlines()[1:]
    picks = []
    for row in (rows[0], rows[len(rows) // 2], rows[-1]):
        vals = [float(v) for v in row.split(",")]
        picks.append([math.fsum(vals), math.fsum(v * v for v in vals)])
    return [len(rows), picks]


class CliWorkload:
    """Closed loop, one client: `funcusum simulate` then `funcusum test`.

    Pool entry j has n = N_MIN + j, so the (n, d, alpha) key of every
    request in a run is distinct and nothing is shared between requests.
    """

    N_MIN = 300
    kinds = 1

    def __init__(self, pool_size: int, trace_ops: int):
        self.pool_size = pool_size
        self.trace_ops = trace_ops

    def _request(self, workdir: str, tag: str, settings) -> Request:
        text, d, alpha = settings
        config = os.path.join(workdir, f"{tag}.cfg")
        with open(config, "w") as fh:
            fh.write(text)
        return Request(config, os.path.join(workdir, f"{tag}.csv"),
                       os.path.join(workdir, f"{tag}.json"), d, alpha)

    def prepare(self, workdir: str) -> list[Request]:
        rng = random.Random(POOL_SEED)
        return [self._request(workdir, f"req{j}",
                              _request_settings(rng, self.N_MIN + j))
                for j in range(self.pool_size)]

    def warmup_input(self, workdir: str) -> Request:
        text = "n = 200\nkernel = wiener\npsi = 0.4\nseed = 1\n"
        return self._request(workdir, "warmup", (text, 2, 0.1))

    def kind(self, j: int) -> int:
        return 0

    def traversal(self, seed: int) -> list[int]:
        return traversal(seed, self.pool_size)

    def run(self, req: Request) -> Outcome:
        clock = time.perf_counter
        sim_argv, test_argv = req.argv()
        sink = io.StringIO()
        codes = []
        marks = [clock()]
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                for argv in (sim_argv, test_argv):
                    codes.append(cli.main(argv))
                    marks.append(clock())
        except (Exception, SystemExit) as exc:
            return Outcome(0, clock() - marks[0], None, f"{exc!r}")
        seconds = marks[-1] - marks[0]
        if codes != [0, 0]:
            return Outcome(0, seconds, None,
                           f"exit codes {codes}: {sink.getvalue()[-500:]}")
        return Outcome(1, seconds, None, None,
                       {"simulate": 1e3 * (marks[1] - marks[0]),
                        "test": 1e3 * (marks[2] - marks[1])})

    def output(self, req: Request, outcome: Outcome) -> list:
        """Curve digest and TestResult fields, read back from the files."""
        with open(req.report) as fh:
            result = json.load(fh)["result"]
        return [_curve_digest(req.csv), [result[f] for f in RESULT_FIELDS]]

    def attempted(self, req: Request) -> int:
        return 1

    def cleanup(self, req: Request) -> None:
        for path in (req.csv, req.csv + ".manifest.json", req.report):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


WORKLOADS = {
    "mc_size": McWorkload(harness.ExperimentGrid(
        n_values=(100, 300, 500), kernels=("wiener",), psi_values=(0.4,),
        h_values=(2.0,), d_values=(1, 2, 3), alternatives=(False,),
        replications=96, lag_kernel="plain",
        critical_method="vostrikova"), slots=16),
    "mc_power_gumbel": McWorkload(harness.ExperimentGrid(
        n_values=(500,), kernels=("wiener", "gaussian"),
        psi_values=(0.4, 0.8), h_values=(4.0,), d_values=(5,),
        alternatives=(True,), replications=250, lag_kernel="bartlett",
        critical_method="gumbel", change_amplitude=0.15), slots=16),
    "cli_pipeline": CliWorkload(pool_size=800, trace_ops=48),
}
