"""Monte Carlo size/power experiments over grids of FAR(1) settings.

One cell = one (n, kernel, psi, h, d, alternative) coordinate; R
replications per cell, each replication an independent simulate -> test
run.  Per-replication RNG streams derive from (master seed, cell index,
replication index), so any cell can be reproduced in isolation and results
do not depend on scheduling.  A cell runs its replications in chunks of
_CHUNK through the pipeline's batched kernels; every number equals that of
running the replications one at a time.
"""

from __future__ import annotations

import csv
import itertools
import math
import statistics
import time
from dataclasses import asdict, dataclass, fields
from typing import Callable, get_args, get_origin, get_type_hints

from . import __version__
from .cusum import TestConfig, cusum_stats, run_test, vostrikova_critical
from .simulate import (Far1Simulator, SimSpec, calibrate_kernel, make_change,
                       parse_key_values)


# Replications per batch.  generate() draws a chunk's shocks on every
# usable CPU, one contiguous share of the chunk each, so a chunk holds
# several replications per CPU.  Larger chunks gain little more speed and
# raise the peak memory of a cell.
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
    """Axes and shared settings of one Monte Carlo experiment."""

    n_values: tuple[int, ...] = (100,)
    psi_values: tuple[float, ...] = (0.2,)
    kernels: tuple[str, ...] = ("gaussian",)
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
        for name in ("n_values", "psi_values", "kernels", "h_values",
                     "d_values", "alternatives"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if self.replications < 1:
            raise ValueError("need at least one replication")

    def cells(self) -> list["CellCoords"]:
        """All cells in the fixed product order that defines cell indices."""
        combos = itertools.product(self.n_values, self.kernels,
                                   self.psi_values, self.h_values,
                                   self.d_values, self.alternatives)
        return [CellCoords(i, n, kern, psi, h, d, alt)
                for i, (n, kern, psi, h, d, alt) in enumerate(combos)]

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
        raw = parse_key_values(text, _CONFIG_KEYS)
        kwargs: dict = {}
        for key, (name, axis, conv) in _CONFIG_KEYS.items():
            if key not in raw:
                continue
            if axis:
                parts = [p.strip() for p in raw[key].split(",") if p.strip()]
                kwargs[name] = tuple(conv(p) for p in parts)
            else:
                kwargs[name] = conv(raw[key])
        return cls(**kwargs)


def _config_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _config_keys() -> dict[str, tuple[str, bool, Callable[[str], object]]]:
    """Config key -> (ExperimentGrid field, is an axis, value parser).

    An axis field holds a tuple and its key is the singular of the field
    name (`n_values` -> `n`, `kernels` -> `kernel`); every other key is the
    field name itself.
    """
    hints = get_type_hints(ExperimentGrid)
    out = {}
    for f in fields(ExperimentGrid):
        hint = hints[f.name]
        axis = get_origin(hint) is tuple
        key = f.name.removesuffix("_values").removesuffix("s") if axis else f.name
        kind = get_args(hint)[0] if axis else hint
        out[key] = (f.name, axis, _parse_bool if kind is bool else kind)
    return out


_CONFIG_KEYS = _config_keys()


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


def _cell_setup(coords: CellCoords,
                settings: ExperimentGrid) -> tuple[SimSpec, TestConfig]:
    """SimSpec and TestConfig of one cell; ValueError on any bad setting,
    ApproximationFailureError for an alpha with no Vostrikova root."""
    change = None
    if coords.alternative:
        change = make_change(settings.change_shape, settings.theta,
                             settings.change_amplitude,
                             grid_points=settings.grid_points,
                             basis_size=settings.basis_size,
                             basis_order=settings.basis_order)
    spec = SimSpec(n=coords.n,
                   kernel=calibrate_kernel(coords.kernel, coords.psi),
                   change=change, burn_in=settings.burn_in,
                   grid_points=settings.grid_points,
                   basis_size=settings.basis_size,
                   basis_order=settings.basis_order)
    cfg = TestConfig(d=coords.d, h=float(coords.h),
                     lag_kernel=settings.lag_kernel, alpha=settings.alpha,
                     critical_method=settings.critical_method,
                     fourier_size=settings.fourier_size)
    if cfg.critical_method == "vostrikova":
        # Memoised, so the replications read the same value.
        vostrikova_critical(cfg.alpha, coords.n, cfg.d)
    return spec, cfg


def _replicate(coords: CellCoords, spec: SimSpec, cfg: TestConfig,
               settings: ExperimentGrid,
               timer: Callable[[], float]) -> CellResult:
    start = timer()
    sim = Far1Simulator(spec)
    replications = settings.replications
    rejects = 0
    khats: list[float] = []
    for first in range(0, replications, _CHUNK):
        streams = [(settings.seed, coords.index, rep)
                   for rep in range(first, min(first + _CHUNK, replications))]
        try:
            stats = cusum_stats(sim.generate(streams), cfg)
            outcomes = list(zip(
                (stats.statistic > stats.critical_value).tolist(),
                stats.k_standardized.tolist()))
        except Exception:
            # Run the chunk again one replication at a time, so that the
            # first failing replication reports its own error.
            outcomes = []
            for stream in streams:
                try:
                    res = run_test(sim.generate(stream), cfg)
                except Exception as exc:
                    return CellResult(
                        coords=coords, replications=replications,
                        completed=stream[2], reject_rate=math.nan,
                        se=math.nan, khat_mean=math.nan, khat_median=math.nan,
                        seconds=timer() - start,
                        error=f"replication {stream[2]} (stream {stream}) "
                              f"failed: {exc}")
                outcomes.append((res.reject, res.k_hat_standardized))
        for reject, k_hat in outcomes:
            rejects += reject
            khats.append(k_hat / coords.n)
    p_hat = rejects / replications
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
    ValueError, and an alpha with no Vostrikova root raises
    ApproximationFailureError, before any replication runs.
    """
    return _replicate(coords, *_cell_setup(coords, settings), settings, timer)


def run_grid(grid: ExperimentGrid,
             progress: Callable[[CellResult], None] | None = None,
             timer: Callable[[], float] = time.perf_counter,
             ) -> list[CellResult]:
    """Evaluate every cell; failed cells are reported, the run continues.

    Every cell is set up before the first one runs, so a bad setting in
    any cell raises ValueError (ApproximationFailureError for an alpha with
    no Vostrikova root) before any replication has run.  Results
    appear in cell-index order regardless of execution schedule.
    """
    cells = grid.cells()
    setups = [_cell_setup(coords, grid) for coords in cells]
    results = []
    for coords, (spec, cfg) in zip(cells, setups):
        res = _replicate(coords, spec, cfg, grid, timer)
        results.append(res)
        if progress is not None:
            progress(res)
    return results


CSV_COLUMNS = ("n", "kernel", "psi", "h", "d", "alternative", "R",
               "reject_rate", "se", "khat_mean", "khat_median", "seconds")


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
            c = res.coords
            writer.writerow([
                c.n, c.kernel, repr(c.psi), repr(c.h), c.d,
                "true" if c.alternative else "false", res.replications,
                _num(res.reject_rate), _num(res.se), _num(res.khat_mean),
                _num(res.khat_median),
                f"{res.seconds:.3f}" if timing else "0.0",
            ])


def _num(v: float) -> str:
    return "nan" if math.isnan(v) else repr(v)


def grid_sidecar(grid: ExperimentGrid, results: list[CellResult], *,
                 timing: bool = True) -> dict:
    """Provenance record: the full grid, seed, audit counters, failures;
    timing=False records 0.0 seconds per cell, as cells_to_csv does."""
    grid_dict = {}
    for f in fields(grid):
        value = getattr(grid, f.name)
        grid_dict[f.name] = list(value) if isinstance(value, tuple) else value
    return {
        "schema": "funcusum-tables-1",
        "version": __version__,
        "grid": grid_dict,
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
    key_fn = lambda r: (r.coords.kernel, r.coords.alternative, r.coords.h)
    blocks = {}
    for r in results:
        blocks.setdefault(key_fn(r), {})[
            (r.coords.n, r.coords.psi, r.coords.d)] = r
    out = []
    for (kernel, alt, h) in sorted(blocks, key=lambda k: (k[0], k[1], k[2])):
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
