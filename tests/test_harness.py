"""Monte Carlo experiment driver: grids, cells, CSV and provenance."""

import csv
import dataclasses
import importlib.util
import itertools
import json
import math
import pathlib
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funcusum
from funcusum import cusum
from funcusum.basis import FunctionalSample
from funcusum.cusum import ApproximationFailureError, run_test
from funcusum.harness import (
    _AXES,
    _CHUNK,
    _CONFIG_KEYS,
    CSV_COLUMNS,
    CellCoords,
    CellResult,
    ExperimentGrid,
    cells_to_csv,
    format_table_panels,
    grid_sidecar,
    run_cell,
    _cell_setup,
    _run_chunk,
    run_grid,
)
from funcusum.simulate import Far1Simulator, SimSpec

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def axis(elements):
    return st.lists(elements, min_size=1, max_size=4).map(tuple)


GRIDS = st.builds(
    ExperimentGrid,
    n_values=axis(st.integers(2, 10_000)), psi_values=axis(FINITE),
    kernels=axis(st.sampled_from(["gaussian", "wiener"])),
    h_values=axis(FINITE), d_values=axis(st.integers(1, 30)),
    alternatives=axis(st.booleans()), replications=st.integers(1, 10**6),
    alpha=FINITE, seed=st.integers(0, 2**63),
    theta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    change_shape=st.sampled_from(["sin", "constant"]),
    change_amplitude=FINITE,
    lag_kernel=st.sampled_from(["plain", "bartlett", "parzen", "flattop"]),
    critical_method=st.sampled_from(["vostrikova", "gumbel"]),
    burn_in=st.integers(0, 1000), grid_points=st.integers(2, 500),
    basis_size=st.integers(1, 50), basis_order=st.integers(1, 6),
    fourier_size=st.integers(1, 50))

FROZEN_TIMER = lambda: 0.0
SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


class TestExperimentGrid:
    def test_cells_product_order_and_indices(self):
        g = ExperimentGrid(n_values=(50, 100), psi_values=(0.2,),
                           kernels=("gaussian", "wiener"), h_values=(1.0,),
                           d_values=(1, 2), alternatives=(False,))
        cells = g.cells()
        assert len(cells) == 8
        assert [c.index for c in cells] == list(range(8))
        assert (cells[0].n, cells[0].kernel, cells[0].d) == (50, "gaussian", 1)
        assert (cells[-1].n, cells[-1].kernel, cells[-1].d) == (100, "wiener", 2)

    def test_defaults(self):
        g = ExperimentGrid()
        assert g.replications == 1000
        assert g.alpha == 0.10
        assert g.theta == 0.5 and g.change_shape == "sin"

    def test_config_round_trip(self):
        g = ExperimentGrid(n_values=(50, 300), psi_values=(0.2, 0.8),
                           kernels=("wiener",), h_values=(1.0, 3.0),
                           d_values=(1, 2, 3), alternatives=(False, True),
                           replications=77, alpha=0.05, seed=9, theta=0.25,
                           change_amplitude=2.0, lag_kernel="bartlett",
                           critical_method="gumbel", burn_in=50)
        assert ExperimentGrid.from_config(g.to_config()) == g

    @given(GRIDS)
    @settings(max_examples=200, deadline=None)
    def test_config_round_trip_property(self, grid):
        assert ExperimentGrid.from_config(grid.to_config()) == grid

    @given(GRIDS)
    @settings(max_examples=100, deadline=None)
    def test_axes_name_cells_and_csv_columns(self, tmp_path_factory, grid):
        keys = tuple(key for key, (_, axis, _) in _CONFIG_KEYS.items()
                     if axis)
        assert keys == ("n", "kernel", "psi", "h", "d", "alternative")
        assert (tuple(f.name for f in dataclasses.fields(CellCoords)[1:])
                == CSV_COLUMNS[:len(keys)] == tuple(_AXES) == keys)
        axes = [getattr(grid, _CONFIG_KEYS[key][0]) for key in keys]
        cells = grid.cells()
        assert ([(c.index, tuple(getattr(c, key) for key in keys))
                 for c in cells]
                == list(enumerate(itertools.product(*axes))))
        path = tmp_path_factory.mktemp("axes") / "cells.csv"
        cells_to_csv([CellResult(c, 1, 1, 0.0, 0.0, 0.5, 0.5, 0.0)
                      for c in cells], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        parsers = [_CONFIG_KEYS[key][2] for key in keys]
        assert [tuple(parse(text) for parse, text in zip(parsers, row))
                for row in rows] == [tuple((v,) for v in combo)
                                     for combo in itertools.product(*axes)]

    def test_from_config_partial_keeps_defaults(self):
        g = ExperimentGrid.from_config("n = 30, 40\npsi = 0.5\n")
        assert g.n_values == (30, 40) and g.psi_values == (0.5,)
        assert g.replications == 1000

    def test_config_errors(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentGrid.from_config("banana = 3\n")
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentGrid.from_config("n = 30\nn = 40\n")
        with pytest.raises(ValueError, match="line 1"):
            ExperimentGrid.from_config("just words\n")
        with pytest.raises(ValueError, match="boolean"):
            ExperimentGrid.from_config("alternative = maybe\n")

    @pytest.mark.parametrize("text,message", [
        ("psi = 0.2, x\n",
         "line 1: psi: could not convert string to float: 'x'"),
        ("# axes\nalternative = false, maybe\n",
         "line 2: alternative: cannot parse boolean from 'maybe'"),
    ], ids=["float_axis", "bool_axis"])
    def test_bad_value_names_line_and_key(self, text, message):
        with pytest.raises(ValueError) as exc:
            ExperimentGrid.from_config(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text,message", [
        ("n = 30\nnot a setting\n", "line 2: expected 'key = value'"),
        ("n = 30\nn = 40\n", "line 2: duplicate key 'n'"),
        ("n = 30\nbanana = 3\n", "unknown config keys: ['banana']"),
        ("psi = 0.2\nn = abc\n",
         "line 2: n: invalid literal for int() with base 10: 'abc'"),
    ])
    def test_config_errors_match_simspec(self, text, message):
        for parse in (ExperimentGrid.from_config, SimSpec.from_config):
            with pytest.raises(ValueError) as exc:
                parse(text)
            assert str(exc.value) == message

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ExperimentGrid(n_values=())

    def test_axes_hold_their_declared_types(self):
        # Numbers of another type are cast, so the CSV writes each axis in
        # one form: psi and h as floats, n and d as ints.
        g = ExperimentGrid(n_values=(np.int64(30), 40.0), psi_values=(0, 1),
                           h_values=(np.float32(2.5), 1), d_values=(2.0,))
        cells = [(c.n, c.psi, c.h, c.d) for c in g.cells()]
        assert cells[0] == (30, 0.0, 2.5, 2) and cells[-1] == (40, 1.0, 1.0, 2)
        assert all(type(v) is kind for cell in cells
                   for v, kind in zip(cell, (int, float, float, int)))

    @pytest.mark.parametrize("bad", [(0,), (False, 1), ("true",)])
    def test_alternative_must_be_a_bool(self, bad):
        with pytest.raises(ValueError, match="alternatives must be bools"):
            ExperimentGrid(alternatives=bad)

    @pytest.mark.parametrize("field,bad,message", [
        ("n_values", (30.5,), "n_values must be ints, got 30.5"),
        ("d_values", (1.7,), "d_values must be ints, got 1.7"),
        ("n_values", ("30",), "n_values must be ints, got '30'"),
        ("n_values", (True,), "n_values must be ints, got True"),
        ("psi_values", ("0.2",), "psi_values must be floats, got '0.2'"),
        ("h_values", (None,), "h_values must be floats, got None"),
    ])
    def test_numeric_axis_takes_only_numbers_of_its_kind(self, field, bad,
                                                         message):
        # Nothing is truncated or parsed: a value that is not a number of
        # the axis's kind is refused, and the message names the field.
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentGrid(**{field: bad})

    def test_replications_guard(self):
        with pytest.raises(ValueError, match="replication"):
            ExperimentGrid(replications=0)

    @pytest.mark.parametrize("bad,message", [
        (dict(change_amplitude=math.inf), "finite change amplitude"),
        (dict(theta=7.0), "theta"),
        (dict(change_shape="sawtooth"), "unknown change shape"),
        (dict(change_amplitude=math.inf, theta=7.0, change_shape="sawtooth"),
         "unknown change shape 'sawtooth'"),
    ])
    def test_change_settings_checked_on_null_only_grid(self, bad, message):
        # The sidecar records them, so a null-only grid checks them too.
        with pytest.raises(ValueError, match=message):
            ExperimentGrid(alternatives=(False,), **bad)


class TestRunCell:
    def test_single_replication_deterministic(self):
        g = ExperimentGrid(replications=1, seed=3)
        c = CellCoords(0, 50, "gaussian", 0.2, 1.0, 1, False)
        a = run_cell(c, g, timer=FROZEN_TIMER)
        b = run_cell(c, g, timer=FROZEN_TIMER)
        assert a == b

    def test_critical_value_computed_once_per_cell(self, monkeypatch):
        calls = []
        solve = cusum.vostrikova_critical

        def counted(alpha, n, d):
            calls.append((alpha, n, d))
            return solve(alpha, n, d)

        monkeypatch.setattr(cusum, "vostrikova_critical", counted)
        g = ExperimentGrid(replications=2 * _CHUNK + 3, seed=4, burn_in=10)
        res = run_cell(CellCoords(0, 40, "gaussian", 0.2, 1.0, 2, False), g,
                       timer=FROZEN_TIMER)
        assert res.error is None and res.completed == 2 * _CHUNK + 3
        assert calls == [(0.10, 40, 2)]

    def test_chunk_computes_only_the_locator_a_cell_keeps(self, monkeypatch):
        # A cell keeps the statistic and the standardized locator; the
        # unstandardized locator (statistic without eigenvalues) and the
        # fully functional one are computed by run_test alone.
        calls = []
        for name in ("statistic", "_fully_functional_max"):
            def counted(*args, _fn=getattr(cusum, name), _name=name):
                calls.append((_name, len(args)))
                return _fn(*args)
            monkeypatch.setattr(cusum, name, counted)
        g = ExperimentGrid(replications=_CHUNK, seed=4, burn_in=10)
        spec, cfg, crit = _cell_setup(
            CellCoords(0, 40, "gaussian", 0.2, 1.0, 2, True), g)
        sim = Far1Simulator(spec)
        streams = [(4, 0, rep) for rep in range(_CHUNK)]
        assert _run_chunk(streams, sim, cfg, crit) is not None
        assert calls == [("statistic", 2)]
        calls.clear()
        run_test(sim.generate(streams[0]), cfg)
        assert sorted(calls) == [("_fully_functional_max", 1),
                                 ("statistic", 1), ("statistic", 2)]

    def test_null_cell_rejection_plausible(self):
        g = ExperimentGrid(replications=200, seed=0)
        c = CellCoords(0, 100, "gaussian", 0.2, 2.0, 2, False)
        res = run_cell(c, g)
        assert 0.02 <= res.reject_rate <= 0.15
        assert res.completed == 200 and res.error is None
        assert res.seconds > 0.0

    def test_power_cell_near_one_and_locates_change(self):
        g = ExperimentGrid(replications=100, seed=0)
        c = CellCoords(0, 100, "gaussian", 0.2, 1.0, 3, True)
        res = run_cell(c, g)
        assert res.reject_rate >= 0.95
        assert abs(res.khat_median - 0.5) <= 0.05

    def test_se_is_binomial(self):
        g = ExperimentGrid(replications=64, seed=5)
        c = CellCoords(0, 50, "wiener", 0.5, 1.0, 1, False)
        res = run_cell(c, g)
        p = res.reject_rate
        assert res.se == pytest.approx(math.sqrt(p * (1 - p) / 64), abs=1e-12)

    def test_failing_replication_recorded_not_raised(self):
        g = ExperimentGrid(replications=5, seed=11)
        c = CellCoords(4, 2, "gaussian", 0.2, 1.0, 1, False)
        res = run_cell(c, g, timer=FROZEN_TIMER)
        assert res.error is not None
        assert "replication 0" in res.error and "(11, 4, 0)" in res.error
        assert res.completed == 0
        assert math.isnan(res.reject_rate) and math.isnan(res.se)

    def test_failing_replication_inside_a_chunk(self, monkeypatch,
                                                fresh_pool):
        # Replication _CHUNK + 3 gets a nan coefficient, so its chunk fails
        # as a batch; the cell must still report that replication, with the
        # error run_test raises on it alone, and count the ones before it.
        # The pool starts empty, so a worker that runs the chunk sees it.
        g = ExperimentGrid(replications=2 * _CHUNK, seed=11, burn_in=10)
        c = CellCoords(2, 40, "wiener", 0.4, 2.0, 2, False)
        bad = (11, 2, _CHUNK + 3)
        generate = Far1Simulator.generate

        def poisoned(self, seed=None):
            sample = generate(self, seed)
            batch = isinstance(seed, list)
            if bad not in (seed if batch else [seed]):
                return sample
            coeffs = sample.coeffs.copy()
            (coeffs[seed.index(bad)] if batch else coeffs)[7, 3] = np.nan
            return FunctionalSample(coeffs, sample.basis)

        monkeypatch.setattr(Far1Simulator, "generate", poisoned)
        spec, cfg, _ = _cell_setup(c, g)
        with pytest.raises(Exception) as alone:
            run_test(Far1Simulator(spec).generate(bad), cfg)
        res = run_cell(c, g, timer=FROZEN_TIMER)
        assert res.completed == _CHUNK + 3
        assert res.error == (f"replication {_CHUNK + 3} (stream {bad}) "
                             f"failed: {alone.value}")
        assert math.isnan(res.reject_rate) and math.isnan(res.khat_median)

    def test_size_inflation_under_strong_dependence(self):
        # undersized bandwidth h=1 leaves serial dependence uncorrected
        g = ExperimentGrid(replications=200, seed=7)
        sizes = {}
        for psi in (0.1, 0.8):
            c = CellCoords(0, 100, "wiener", psi, 1.0, 1, False)
            sizes[psi] = run_cell(c, g)
        assert sizes[0.8].reject_rate >= sizes[0.1].reject_rate - 2 * sizes[0.1].se


class TestRunGrid:
    def small_grid(self, **kw):
        base = dict(n_values=(30,), psi_values=(0.2,), kernels=("gaussian",),
                    h_values=(1.0,), d_values=(1, 2), alternatives=(False,),
                    replications=3, burn_in=5, seed=2)
        base.update(kw)
        return ExperimentGrid(**base)

    def test_results_in_cell_order_with_progress(self):
        g = self.small_grid()
        seen = []
        results = run_grid(g, progress=seen.append, timer=FROZEN_TIMER)
        assert [r.coords.index for r in results] == [0, 1]
        assert seen == results

    @pytest.mark.parametrize("bad", [
        dict(alternatives=(False, True), change_shape="foo"),
        dict(kernels=("gaussian", "cauchy")),
        dict(psi_values=(0.2, 1.5)),
        dict(d_values=(1, 30)),
        dict(alternatives=(False, True), change_amplitude=math.inf),
        dict(seed=-1),
        # A Gumbel cell with n = 2 has no critical value (log log n > 0).
        dict(n_values=(2, 30), critical_method="gumbel"),
        # Ten grid points cannot fit 25 B-splines, so no simulator can be
        # built, a null cell's as little as a power cell's
        # (SingularFitError).
        dict(alternatives=(False, True), grid_points=10),
        dict(grid_points=10),
    ])
    def test_bad_cell_setting_raises_before_any_cell(self, bad):
        seen = []
        with pytest.raises(ValueError):
            run_grid(self.small_grid(**bad), progress=seen.append,
                     timer=FROZEN_TIMER)
        assert seen == []

    def test_alpha_without_vostrikova_root_raises_before_any_cell(self):
        g = self.small_grid(n_values=(60,), d_values=(2,), alpha=0.95)
        seen = []
        with pytest.raises(ApproximationFailureError,
                           match="tail expansion peaks"):
            run_grid(g, progress=seen.append, timer=FROZEN_TIMER)
        assert seen == []
        gumbel = run_grid(self.small_grid(n_values=(60,), d_values=(2,),
                                          alpha=0.95,
                                          critical_method="gumbel"),
                          timer=FROZEN_TIMER)
        assert [r.error for r in gumbel] == [None]

    def test_partial_failure_continues(self):
        g = self.small_grid(n_values=(2, 30))
        results = run_grid(g, timer=FROZEN_TIMER)
        assert len(results) == 4
        assert all(r.error is not None for r in results[:2])
        assert all(r.error is None for r in results[2:])

    def test_audit_counters_in_sidecar(self):
        g = self.small_grid(n_values=(2, 30))
        results = run_grid(g, timer=FROZEN_TIMER)
        side = grid_sidecar(g, results)
        assert side["cells"] == 4
        assert side["expected_replications"] == 12
        assert side["total_replications"] == 6  # two failed cells at rep 0
        assert len(side["failed_cells"]) == 2
        assert json.loads(json.dumps(side))["grid"]["n_values"] == [2, 30]

    def test_csv_byte_identical_without_timing(self, tmp_path):
        g = self.small_grid()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cells_to_csv(run_grid(g), p1, timing=False)
        cells_to_csv(run_grid(g), p2, timing=False)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_columns_and_values(self, tmp_path):
        g = self.small_grid(n_values=(2, 30))
        path = tmp_path / "cells.csv"
        cells_to_csv(run_grid(g, timer=FROZEN_TIMER), path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 5
        by_col = dict(zip(rows[0], rows[1]))
        assert by_col["n"] == "2" and by_col["reject_rate"] == "nan"
        by_col = dict(zip(rows[0], rows[3]))
        assert by_col["n"] == "30" and by_col["alternative"] == "false"
        assert float(by_col["reject_rate"]) in (0.0, 1 / 3, 2 / 3, 1.0)

    def test_table_panel_layout(self):
        g = self.small_grid(h_values=(1.0, 2.0, 3.0, 4.0),
                            d_values=(1, 2, 3, 4, 5), replications=1)
        text = format_table_panels(run_grid(g, timer=FROZEN_TIMER))
        blocks = [b for b in text.split("\n\n") if b.strip()]
        assert len(blocks) == 4  # one panel per h
        for block in blocks:
            lines = block.strip().splitlines()
            assert lines[0].startswith("# kernel=gaussian size h=")
            assert lines[1] == "n,psi,d=1,d=2,d=3,d=4,d=5"
            assert len(lines) == 3  # header comment, columns, one (n,psi) row
            assert lines[2].startswith("30,0.2,")

    def test_table_entries_are_percentages(self):
        g = self.small_grid(replications=4)
        results = run_grid(g, timer=FROZEN_TIMER)
        text = format_table_panels(results)
        row = [line for line in text.splitlines() if line.startswith("30,")][0]
        entries = row.split(",")[2:]
        for entry, res in zip(entries, results):
            assert entry == f"{100 * res.reject_rate:.1f}"


class TestTableConfigs:
    """The committed size and power table configs keep the simulation
    study's layout: both kernels, 400 cells per kernel (16 for --quick)."""

    @pytest.mark.parametrize("name,cells,alternative,seed", [
        ("size_tables.cfg", 400, False, 0),
        ("size_tables_quick.cfg", 16, False, 0),
        ("power_tables.cfg", 400, True, 1),
        ("power_tables_quick.cfg", 16, True, 1),
    ])
    def test_layout(self, name, cells, alternative, seed):
        grid = ExperimentGrid.from_config((SCRIPTS / name).read_text())
        assert grid.kernels == ("gaussian", "wiener")
        per_kernel = [sum(c.kernel == k for c in grid.cells())
                      for k in grid.kernels]
        assert per_kernel == [cells, cells]
        assert grid.alternatives == (alternative,)
        assert grid.seed == seed
        assert grid.alpha == 0.1


class TestTimeGrid:
    """scripts/time_grid.py compares the CSVs of the `--src` trees it times."""

    def test_csv_bytes_compared_across_src_trees(self, tmp_path, capsys):
        spec = importlib.util.spec_from_file_location(
            "time_grid", SCRIPTS / "time_grid.py")
        time_grid = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(time_grid)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("n = 30\nd = 1\nreplications = 4\nburn_in = 5\n")
        src = pathlib.Path(funcusum.__file__).parents[1]
        other = tmp_path / "src"
        shutil.copytree(src / "funcusum", other / "funcusum",
                        ignore=shutil.ignore_patterns("__pycache__"))
        argv = [str(cfg), "--runs", "1", "--src", str(src),
                "--src", str(other)]
        assert time_grid.main(argv) == 0
        assert capsys.readouterr().out.endswith(
            f"CSV bytes against {src}: identical\n")
        harness_py = other / "funcusum" / "harness.py"
        harness_py.write_text(harness_py.read_text().replace(
            '"seconds")', '"secs")'))
        assert time_grid.main(argv) == 1
        assert capsys.readouterr().out.endswith(
            f"DIFFER in {other} pinned, {other} unpinned\n")
