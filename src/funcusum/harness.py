"""Monte Carlo size/power experiments over grids of FAR(1) settings.

ExperimentGrid's tuple fields are the axes, in cell-index order; their
config keys (`_AXES`) name the CellCoords fields and the first CSV
columns.  One cell = one coordinate on every axis; R replications per
cell, each an independent simulate -> test run.  Per-replication RNG
streams derive from (master seed, cell index, replication index), so any
cell can be reproduced in isolation and results do not depend on
scheduling.  A cell's critical value depends on its (alpha, n, d) alone,
so it is computed once, at set-up; a Gumbel cell with n <= 2 has none,
and stops the grid there.  A cell runs its replications in chunks of
_CHUNK through the pipeline's batched kernels, with numpy's bundled
OpenBLAS held at one thread, and spreads the chunks over processes with
`_workers.spread`.  Every number equals that of running the replications
one at a time in the calling process.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import statistics
import time
from dataclasses import asdict, dataclass
from typing import Callable, get_args, get_origin, get_type_hints

from . import __version__, _workers
from .cusum import TestConfig, critical_value, cusum_stats, run_test
from .simulate import (ChangeSpec, Far1Simulator, SimSpec, calibrate_kernel,
                       make_change, parse_key_values)


# Replications per batch, and the unit of work of a cell's processes.
# Larger chunks gain little more speed, and every worker, like the calling
# process, holds the temporaries of one chunk, so they raise the peak
# memory of a cell.
_CHUNK = 16


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"cannot parse boolean from {text!r}")


@dataclass(frozen=True)
class ExperimentGrid:
    """Axes (the tuple fields) and shared settings of one experiment."""

    n_values: tuple[int, ...] = (100,)
    kernels: tuple[str, ...] = ("gaussian",)
    psi_values: tuple[float, ...] = (0.2,)
    h_values: tuple[float, ...] = (2.0,)
    d_values: tuple[int, ...] = (2,)
    alternatives: tuple[bool, ...] = (False,)
    replications: int = 1000
    alpha: float = 0.10
    seed: int = 0
    theta: float = 0.5
    change_shape: str = "sin"
    change_amplitude: float = 1.0
    lag_kernel: str = "plain"
    critical_method: str = "vostrikova"
    burn_in: int = 100
    grid_points: int = 96
    basis_size: int = 25
    basis_order: int = 4
    fourier_size: int = 25

    def __post_init__(self) -> None:
        for name in _AXES.values():
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        # Checked on a null-only grid too: the sidecar records the settings.
        ChangeSpec(self.change_shape, self.theta, self.change_amplitude)

    def cells(self) -> list["CellCoords"]:
        """All cells in the fixed product order that defines cell indices."""
        combos = itertools.product(*(getattr(self, name)
                                     for name in _AXES.values()))
        return [CellCoords(i, *combo) for i, combo in enumerate(combos)]

    def to_config(self) -> str:
        lines = []
        for key, (name, axis, _) in _CONFIG_KEYS.items():
            value = getattr(self, name)
            text = (", ".join(_config_cell(v) for v in value) if axis
                    else _config_cell(value))
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_config(cls, text: str) -> "ExperimentGrid":
        found = parse_key_values(text, {
            key: parse for key, (_, _, parse) in _CONFIG_KEYS.items()})
        return cls(**{_CONFIG_KEYS[key][0]: value
                      for key, value in found.items()})


def _config_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _config_keys() -> dict[str, tuple[str, bool, Callable[[str], object]]]:
    """Config key -> (ExperimentGrid field, is an axis, value parser).

    An axis field holds a tuple and its key is the singular of the field
    name (`n_values` -> `n`, `kernels` -> `kernel`); its parser splits the
    value on commas.  Every other key is the field name itself.
    """
    out = {}
    for name, hint in get_type_hints(ExperimentGrid).items():
        axis = get_origin(hint) is tuple
        key = name.removesuffix("_values").removesuffix("s") if axis else name
        kind = get_args(hint)[0] if axis else hint
        conv = _parse_bool if kind is bool else kind
        out[key] = (name, axis, _axis_parser(conv) if axis else conv)
    return out


def _axis_parser(conv: Callable[[str], object]) -> Callable[[str], tuple]:
    """Parser of a comma-separated axis whose cells `conv` parses."""
    return lambda text: tuple(conv(p.strip()) for p in text.split(",")
                              if p.strip())


_CONFIG_KEYS = _config_keys()
# Axis config key -> ExperimentGrid field, in cell-index order.
_AXES = {key: name for key, (name, axis, _) in _CONFIG_KEYS.items() if axis}


@dataclass(frozen=True)
class CellCoords:
    """One grid cell; `index` is its position in ExperimentGrid.cells()."""

    index: int
    n: int
    kernel: str
    psi: float
    h: float
    d: int
    alternative: bool


@dataclass(frozen=True)
class CellResult:
    """Aggregates of R simulate-then-test replications at one coordinate."""

    coords: CellCoords
    replications: int
    completed: int
    reject_rate: float
    se: float
    khat_mean: float
    khat_median: float
    seconds: float
    error: str | None = None


def _cell_setup(coords: CellCoords, settings: ExperimentGrid,
                ) -> tuple[SimSpec, TestConfig, float]:
    """SimSpec, TestConfig and critical value of one cell; ValueError on
    any bad setting (a Gumbel cell with n <= 2 included), and
    ApproximationFailureError for an alpha with no Vostrikova root."""
    # The grid's settings by config key, the cell's value on each axis.
    s = {key: getattr(settings, name)
         for key, (name, _, _) in _CONFIG_KEYS.items()} | vars(coords)
    change = (make_change(s["change_shape"], s["theta"], s["change_amplitude"])
              if s["alternative"] else None)
    spec = SimSpec(n=s["n"], kernel=calibrate_kernel(s["kernel"], s["psi"]),
                   change=change, burn_in=s["burn_in"],
                   grid_points=s["grid_points"], basis_size=s["basis_size"],
                   basis_order=s["basis_order"])
    cfg = TestConfig(d=s["d"], h=float(s["h"]), lag_kernel=s["lag_kernel"],
                     alpha=s["alpha"], critical_method=s["critical_method"],
                     fourier_size=s["fourier_size"])
    return spec, cfg, critical_value(cfg, s["n"])


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread, then restore its count.
    The pipeline's matrices are small, so BLAS threads gain a cell nothing,
    and between calls they spin on the cores a cell's workers need."""
    get, set_ = _workers.openblas_threads() or (lambda: None,
                                                lambda count: None)
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)


def _run_chunk(streams: list[tuple[int, int, int]], sim: Far1Simulator,
               cfg: TestConfig, crit: float) -> list | None:
    """A (reject, k_hat) pair per replication of a chunk of streams, or
    None if the chunk raised."""
    try:
        stats = cusum_stats(sim.generate(streams), cfg)
    except Exception:
        return None
    return list(zip((stats.statistic > crit).tolist(),
                    stats.k_standardized.tolist()))


def _replicate(coords: CellCoords, sim: Far1Simulator, cfg: TestConfig,
               crit: float, settings: ExperimentGrid,
               timer: Callable[[], float]) -> CellResult:
    start = timer()
    replications = settings.replications
    chunks = [[(settings.seed, coords.index, rep)
               for rep in range(first, min(first + _CHUNK, replications))]
              for first in range(0, replications, _CHUNK)]
    outcomes: list[tuple[bool, int]] = []
    with _one_blas_thread():
        done = _workers.spread(_run_chunk, chunks, sim, cfg, crit)
        for streams, chunk in zip(chunks, done):
            if chunk is not None:
                outcomes += chunk
                continue
            # Run the chunk again one replication at a time, so that the
            # first failing replication reports its own error.
            for stream in streams:
                try:
                    res = run_test(sim.generate(stream), cfg)
                except Exception as exc:
                    return CellResult(
                        coords=coords, replications=replications,
                        completed=stream[2], reject_rate=math.nan,
                        se=math.nan, khat_mean=math.nan,
                        khat_median=math.nan, seconds=timer() - start,
                        error=f"replication {stream[2]} (stream "
                              f"{stream}) failed: {exc}")
                outcomes.append((res.reject, res.k_hat_standardized))
    p_hat = sum(reject for reject, _ in outcomes) / replications
    khats = [k_hat / coords.n for _, k_hat in outcomes]
    return CellResult(
        coords=coords, replications=replications, completed=replications,
        reject_rate=p_hat,
        se=math.sqrt(p_hat * (1.0 - p_hat) / replications),
        khat_mean=statistics.fmean(khats),
        khat_median=statistics.median(khats),
        seconds=timer() - start)


def run_cell(coords: CellCoords, settings: ExperimentGrid,
             timer: Callable[[], float] = time.perf_counter) -> CellResult:
    """Run settings.replications replications at one coordinate.

    Replication r uses the stream (settings.seed, coords.index, r).  A
    failing replication aborts the cell; its stream tuple is recorded in
    `error` and the aggregate fields are NaN.  A bad cell setting raises
    ValueError (so does a Gumbel cell with n <= 2, which has no critical
    value), and an alpha with no Vostrikova root raises
    ApproximationFailureError, before any replication runs.
    """
    spec, cfg, crit = _cell_setup(coords, settings)
    return _replicate(coords, Far1Simulator(spec), cfg, crit, settings, timer)


def run_grid(grid: ExperimentGrid,
             progress: Callable[[CellResult], None] | None = None,
             timer: Callable[[], float] = time.perf_counter,
             ) -> list[CellResult]:
    """Evaluate every cell; failed cells are reported, the run continues.

    Every cell is set up, and one simulator built per distinct SimSpec,
    before the first cell runs.  So a bad setting in any cell raises
    ValueError (a Gumbel cell with n <= 2 included; SingularFitError where
    a simulator cannot be built, ApproximationFailureError for an alpha
    with no Vostrikova root) before any replication has run.  Results
    appear in cell-index order regardless of execution schedule.
    """
    cells = grid.cells()
    setups = [_cell_setup(coords, grid) for coords in cells]
    sims = {spec: Far1Simulator(spec)
            for spec in dict.fromkeys(spec for spec, _, _ in setups)}
    results = []
    for coords, (spec, cfg, crit) in zip(cells, setups):
        res = _replicate(coords, sims[spec], cfg, crit, grid, timer)
        results.append(res)
        if progress is not None:
            progress(res)
    return results


CSV_COLUMNS = (*_AXES, "R", "reject_rate", "se", "khat_mean", "khat_median",
               "seconds")


def cells_to_csv(results: list[CellResult], path: str, *,
                 timing: bool = True) -> None:
    """Write the long-format results CSV.

    With timing=False the seconds column is written as 0.0 so that reruns
    of the same grid and seed produce byte-identical files (wall-clock
    timing is inherently not reproducible; it is also recorded in the
    sidecar JSON).
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for res in results:
            values = [getattr(res.coords, key) for key in _AXES]
            values += [res.replications, res.reject_rate, res.se,
                       res.khat_mean, res.khat_median]
            writer.writerow([*map(_config_cell, values),
                             f"{res.seconds:.3f}" if timing else "0.0"])


def grid_sidecar(grid: ExperimentGrid, results: list[CellResult], *,
                 timing: bool = True) -> dict:
    """Provenance record: the full grid, seed, audit counters, failures;
    timing=False records 0.0 seconds per cell, as cells_to_csv does."""
    return {
        "schema": "funcusum-tables-1",
        "version": __version__,
        "grid": asdict(grid),
        "master_seed": grid.seed,
        "cells": len(results),
        "replications_per_cell": grid.replications,
        "total_replications": sum(r.completed for r in results),
        "expected_replications": len(results) * grid.replications,
        "failed_cells": [{**asdict(r.coords), "error": r.error}
                         for r in results if r.error is not None],
        "timing_seconds": [round(r.seconds, 3) if timing else 0.0
                           for r in results],
    }


def format_table_panels(results: list[CellResult]) -> str:
    """Pivot results into a panelled table layout.

    One block per (kernel, alternative, h): rows are (n, psi) pairs,
    columns are d values, entries are rejection percentages.
    """
    blocks = {}
    for r in results:
        c = r.coords
        blocks.setdefault((c.kernel, c.alternative, c.h), {})[
            (c.n, c.psi, c.d)] = r
    out = []
    for (kernel, alt, h) in sorted(blocks):
        cellmap = blocks[(kernel, alt, h)]
        ds = sorted({d for (_, _, d) in cellmap})
        rows = sorted({(n, psi) for (n, psi, _) in cellmap})
        label = "power" if alt else "size"
        out.append(f"# kernel={kernel} {label} h={_config_cell(h)}")
        out.append("n,psi," + ",".join(f"d={d}" for d in ds))
        for (n, psi) in rows:
            entries = []
            for d in ds:
                r = cellmap.get((n, psi, d))
                if r is None or math.isnan(r.reject_rate):
                    entries.append("nan")
                else:
                    entries.append(f"{100.0 * r.reject_rate:.1f}")
            out.append(f"{n},{_config_cell(psi)}," + ",".join(entries))
        out.append("")
    return "\n".join(out)
