"""Command-line interface: test on CSV curves, simulate, run table grids.

Exit codes: 0 on success (reject or not, the decision is data), 2 on input
errors (malformed CSV/config/flags, preprocessing guards), 3 on numerical
failures (singular fits, critical-value bracketing).

Every output is accompanied by a manifest (embedded in JSON reports,
sidecar file next to CSV outputs); --replay re-runs a manifest and
reproduces the output byte for byte, reusing the recorded timestamp.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys
import time
import types
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__, cusum, lrcov
from .basis import (CurveCSVError, SingularFitError, bspline_basis,
                    fit_sample, read_curves_csv, write_curves_csv)
from .cusum import ApproximationFailureError, TestConfig, run_test
from .harness import (_AXES, ExperimentGrid, _config_cell, cells_to_csv,
                      format_table_panels, grid_sidecar, run_grid)
from .simulate import Far1Simulator, SimSpec

REPORT_SCHEMA = "funcusum-report-1"
SIM_SCHEMA = "funcusum-simulate-1"

# Value types of the test report records cmd_test checks on --replay.
_MANIFEST_FIELDS = {"input": str, "preprocess": dict, "test_config": dict}
_PREPROCESS_FIELDS = {"drop_indices": tuple[int, ...],
                      "keep": tuple[int, int] | None, "log_ratio": bool,
                      "basis_smooth": dict, "fourier": int,
                      "rescaled_grid": bool}
_BASIS_SMOOTH_FIELDS = {"size": int, "order": int}


class DataError(ValueError):
    """Input data violates a preprocessing precondition."""


def _utc_stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_manifest(path: str) -> dict:
    """The manifest a --replay file records: a test report keeps it under
    "manifest", a simulate or tables sidecar is the manifest itself."""
    with open(path) as fh:
        loaded = json.load(fh)
    if isinstance(loaded, dict):
        loaded = loaded.get("manifest", loaded)
    if not isinstance(loaded, dict):
        raise DataError(f"{path}: the manifest is not a JSON object")
    return loaded


def _checked_record(record, fields: dict, path: str, what: str, *,
                    optional: tuple = (), read_all: bool = True) -> dict:
    """`record`, a JSON object read from `path`, checked against `fields`
    (key -> type hint, such as a dataclass's type hints).  A record that is
    not an object, a missing key (unless `optional`), a value of the wrong
    type or, when the caller reads the whole record (`read_all`), a key
    outside `fields` is a DataError that names the file and the key."""
    if not isinstance(record, dict):
        raise DataError(f"{path}: the {what} record is not a JSON object")
    for key in fields:
        if key not in record and key not in optional:
            raise DataError(f"{path}: the {what} record has no key {key!r}")
    for key, value in record.items():
        if key not in fields and read_all:
            raise DataError(f"{path}: unknown {what} key {key!r}")
        if key in fields and not _has_type(value, fields[key]):
            raise DataError(
                f"{path}: {what} key {key!r} has the wrong type: {value!r}")
    return record


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field hint.  An int passes as a float or
    a bool, since the dataclasses take those as they take the exact type;
    a bool passes only as a bool."""
    origin = get_origin(hint)
    if origin is types.UnionType:
        return any(_has_type(value, h) for h in get_args(hint))
    if origin is tuple:
        args = get_args(hint)
        return (isinstance(value, list)
                and (args[-1] is Ellipsis or len(value) == len(args))
                and all(_has_type(v, args[0]) for v in value))
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, {float: (int, float), bool: int}.get(hint, hint))


def _int_tuple(flag: str, sep: str, shape: str | None = None):
    """An argparse type for `sep`-separated integers.  With `shape` (the
    form shown in the message, such as 'i..j') the value holds exactly two;
    without, blank items are skipped."""
    def parse(text: str) -> tuple[int, ...]:
        parts = text.split(sep)
        if shape is None:
            parts = [p for p in parts if p.strip()]
        elif len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"{flag} expects {shape!r}, got {text!r}")
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} expects integers, got {text!r}") from None
    return parse


def preprocess(values: np.ndarray, *, drop: tuple[int, ...] = (),
               keep: tuple[int, int] | None = None,
               log_ratio: bool = False) -> np.ndarray:
    """Index selection and log-ratio transform, in that order.

    --drop-indices removes rows first (1-based, original file order); --keep
    then selects an inclusive 1-based range of the remaining rows.  The
    log-ratio transform maps each curve to log(X(t)/X(0)) and requires all
    values positive; violations report the original file row.  A fresh run
    and a replay both select rows here, so both go through these checks.
    """
    n = values.shape[0]
    rows = np.arange(n)
    if drop:
        bad = [i for i in drop if not 1 <= i <= n]
        if bad:
            raise DataError(
                f"--drop-indices out of range (1-based, n={n}): {bad}")
        mask = np.ones(n, dtype=bool)
        mask[[i - 1 for i in drop]] = False
        rows = rows[mask]
    if keep is not None:
        lo, hi = keep
        if not 1 <= lo <= hi:
            raise DataError(f"--keep needs 1 <= i <= j, got {lo}..{hi}")
        if hi > rows.size:
            raise DataError(
                f"--keep {lo}..{hi} out of range, only {rows.size} curves "
                "remain after dropping")
        rows = rows[lo - 1:hi]
    out = values[rows]
    if log_ratio:
        nonpos = np.argwhere(out <= 0.0)
        if nonpos.size:
            i, j = nonpos[0]
            raise DataError(
                f"--log-ratio requires positive values; curve {rows[i] + 1} "
                f"(file row {rows[i] + 2}), column {j + 1} has "
                f"value {out[i, j]!r}")
        out = np.log(out / out[:, [0]])
    return out


def _test_manifest(args) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "command": "test",
        "timestamp": _utc_stamp(),
        "input": args.input,
        "preprocess": {
            "drop_indices": list(args.drop_indices),
            "keep": list(args.keep) if args.keep else None,
            "log_ratio": args.log_ratio,
            "basis_smooth": {"size": args.basis_smooth[0],
                             "order": args.basis_smooth[1]},
            "fourier": args.fourier,
        },
        "test_config": {
            "d": args.d,
            "h": args.h,
            "lag_kernel": args.lag_kernel,
            "alpha": args.alpha,
            "critical_method": args.critical,
        },
    }


def cmd_test(args) -> int:
    # A fresh run and a replay both run from the manifest, so they cannot
    # read the settings differently.
    manifest = (_load_manifest(args.replay) if args.replay
                else _test_manifest(args))
    _checked_record(manifest, _MANIFEST_FIELDS, args.replay, "manifest",
                    read_all=False)
    prep = _checked_record(manifest["preprocess"], _PREPROCESS_FIELDS,
                           args.replay, "preprocess",
                           optional=("rescaled_grid",))
    _checked_record(prep["basis_smooth"], _BASIS_SMOOTH_FIELDS, args.replay,
                    "preprocess basis_smooth")
    tc_fields = get_type_hints(TestConfig)
    del tc_fields["fourier_size"]  # the preprocess record's fourier
    tc = _checked_record(manifest["test_config"], tc_fields, args.replay,
                         "test_config", read_all=False)
    data = read_curves_csv(manifest["input"])
    prep["rescaled_grid"] = data.rescaled
    values = preprocess(data.values, drop=prep["drop_indices"],
                        keep=prep["keep"], log_ratio=prep["log_ratio"])
    size, order = prep["basis_smooth"]["size"], prep["basis_smooth"]["order"]
    if len(data.grid) < size:
        raise DataError(
            f"curves have {len(data.grid)} samples, fewer than the "
            f"smoothing basis size {size}")
    sample = fit_sample(values, data.grid, bspline_basis(size, order))
    cfg = TestConfig(**{key: tc[key] for key in tc_fields},
                     fourier_size=prep["fourier"])
    result = run_test(sample, cfg)
    print(f"n = {result.n}  d = {result.d}  h = {result.h:g}  "
          f"lag_kernel = {result.lag_kernel}")
    print(f"statistic T = {result.statistic:.6g}  "
          f"normalized = {result.normalized:.6g}")
    print(f"p_gumbel = {result.p_gumbel:.6g}  "
          f"p_vostrikova = {result.p_vostrikova:.6g}")
    print(f"critical ({result.critical_method}, alpha = {result.alpha:g}) "
          f"= {result.critical_value:.6g}  reject = {result.reject}")
    print(f"k_hat standardized = {result.k_hat_standardized}  "
          f"unstandardized = {result.k_hat_unstandardized}  "
          f"fully_functional = {result.k_hat_fully_functional}")
    if result.degenerate:
        print("warning: degenerate standardization (some lambda_r = 0)")
    if args.out:
        _write_json(args.out, {"schema": REPORT_SCHEMA, "manifest": manifest,
                               "result": result.to_json_dict()})
    return 0


def cmd_simulate(args) -> int:
    if args.replay:
        manifest = _load_manifest(args.replay)
        _checked_record(manifest, {"simspec_config": str}, args.replay,
                        "manifest", read_all=False)
        spec = SimSpec.from_config(manifest["simspec_config"])
    else:
        with open(args.config) as fh:
            text = fh.read()
        spec = SimSpec.from_config(text)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        manifest = {
            "schema": SIM_SCHEMA,
            "version": __version__,
            "command": "simulate",
            "timestamp": _utc_stamp(),
            "simspec_config": spec.to_config(),
        }
    sim = Far1Simulator(spec)
    sample = sim.generate()
    write_curves_csv(args.out, sample.evaluate(sim.grid), sim.grid)
    _write_json(args.out + ".manifest.json", manifest)
    print(f"wrote {spec.n} curves on {spec.grid_points} grid points "
          f"to {args.out}")
    return 0


def cmd_tables(args) -> int:
    if args.replay:
        manifest = _load_manifest(args.replay)
        _checked_record(manifest, {"grid": dict, "timestamp": str},
                        args.replay, "manifest", optional=("timestamp",),
                        read_all=False)
        grid = ExperimentGrid(**_checked_record(
            manifest["grid"], get_type_hints(ExperimentGrid), args.replay,
            "grid"))
        timestamp = manifest.get("timestamp", _utc_stamp())
    else:
        with open(args.config) as fh:
            grid = ExperimentGrid.from_config(fh.read())
        if args.seed is not None:
            grid = dataclasses.replace(grid, seed=args.seed)
        timestamp = _utc_stamp()
    # A replication costs about burn_in + n AR steps, and the cells run in
    # order of n, so the ETA prices the steps left at the mean seconds per
    # step so far; a failed cell ran its failing replication as well.
    steps = [grid.burn_in + c.n for c in grid.cells()]
    total = len(steps)
    steps_done = 0
    seconds_done = 0.0

    def progress(res):
        nonlocal steps_done, seconds_done
        c = res.coords
        steps_done += (res.completed + (res.error is not None)) * steps[c.index]
        seconds_done += res.seconds
        eta = datetime.timedelta(seconds=round(
            seconds_done / steps_done * grid.replications
            * sum(steps[c.index + 1:])))
        status = "failed" if res.error else f"reject_rate={res.reject_rate:.4f}"
        print(f"cell {c.index}/{total}: "
              + " ".join(f"{k}={_config_cell(getattr(c, k))}" for k in _AXES)
              + f" {status} ({res.seconds:.1f}s, eta {eta})", file=sys.stderr)

    results = run_grid(grid, progress=None if args.quiet else progress)
    cells_to_csv(results, args.out, timing=not args.no_timing)
    sidecar = grid_sidecar(grid, results, timing=not args.no_timing)
    sidecar["timestamp"] = timestamp
    _write_json(args.out + ".manifest.json", sidecar)
    if args.panels:
        with open(args.panels, "w") as fh:
            fh.write(format_table_panels(results))
    failed = [r for r in results if r.error is not None]
    for r in failed:
        print(f"warning: cell {r.coords.index} failed: {r.error}",
              file=sys.stderr)
    print(f"wrote {len(results)} cells to {args.out} "
          f"({len(failed)} failed)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcusum",
        description="Change-point test for functional time series "
                    "(weighted CUSUM of long-run FPC scores)")
    parser.add_argument("--version", action="version",
                        version=f"funcusum {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser(
        "test", help="run the change-point test on a curve CSV")
    p_test.add_argument("input", nargs="?", help="curve CSV file")
    p_test.add_argument("--d", type=int, default=2,
                        help="projection dimension (default 2)")
    p_test.add_argument("--h", type=float, default=None,
                        help="lag-window bandwidth (default: rate rule "
                             "floor(n^(1/4)))")
    p_test.add_argument("--lag-kernel", default="plain",
                        choices=list(lrcov._KERNELS))
    p_test.add_argument("--alpha", type=float, default=0.10)
    p_test.add_argument("--critical", default="vostrikova",
                        choices=cusum._CRITICAL_METHODS)
    p_test.add_argument("--basis-smooth",
                        type=_int_tuple("--basis-smooth", ":", "J:order"),
                        default=(25, 4), metavar="J:ORDER",
                        help="B-spline smoothing basis (default 25:4)")
    p_test.add_argument("--fourier", type=int, default=25, metavar="J",
                        help="orthonormal working basis size (default 25)")
    p_test.add_argument("--log-ratio", action="store_true",
                        help="transform curves to log(X(t)/X(0)) "
                             "(requires positive values)")
    p_test.add_argument("--keep", type=_int_tuple("--keep", "..", "i..j"),
                        default=None, metavar="I..J",
                        help="keep curves i..j (1-based, inclusive, applied "
                             "after --drop-indices)")
    p_test.add_argument("--drop-indices",
                        type=_int_tuple("--drop-indices", ","), default=(),
                        metavar="I,J,...",
                        help="drop curves by 1-based index before --keep")
    p_test.add_argument("--out", default=None, help="JSON report path")
    p_test.add_argument("--replay", default=None, metavar="REPORT.JSON",
                        help="re-run a previous report's manifest")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser(
        "simulate", help="generate a functional AR(1) sample as CSV")
    p_sim.add_argument("config", nargs="?", help="SimSpec config file")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_sim.add_argument("--out", required=True, help="output curve CSV")
    p_sim.add_argument("--replay", default=None, metavar="MANIFEST.JSON",
                       help="re-run a previous manifest")
    p_sim.set_defaults(func=cmd_simulate)

    p_tab = sub.add_parser(
        "tables", help="run a Monte Carlo grid and emit size/power tables")
    p_tab.add_argument("config", nargs="?", help="ExperimentGrid config file")
    p_tab.add_argument("--seed", type=int, default=None,
                       help="override the config master seed")
    p_tab.add_argument("--out", required=True, help="output CSV")
    p_tab.add_argument("--panels", default=None,
                       help="also write the pivoted table layout here")
    p_tab.add_argument("--no-timing", action="store_true",
                       help="write 0.0 in the seconds column so reruns are "
                            "byte-identical")
    p_tab.add_argument("--quiet", action="store_true",
                       help="suppress per-cell progress on stderr")
    p_tab.add_argument("--replay", default=None, metavar="MANIFEST.JSON",
                       help="re-run a previous manifest")
    p_tab.set_defaults(func=cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "test" and not args.input and not args.replay:
        parser.error("test needs an input CSV (or --replay)")
    if args.command == "simulate" and not args.config and not args.replay:
        parser.error("simulate needs a config file (or --replay)")
    if args.command == "tables" and not args.config and not args.replay:
        parser.error("tables needs a config file (or --replay)")
    try:
        return args.func(args)
    except (SingularFitError, ApproximationFailureError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (CurveCSVError, DataError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
