"""Command-line surface: preprocessing, subcommands, exit codes, manifests."""

import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcusum.basis import Grid, read_curves_csv, write_curves_csv
from funcusum import cli
from funcusum.cli import DataError, main, preprocess
from funcusum.harness import CellResult, ExperimentGrid
from funcusum.simulate import (Far1Simulator, SimSpec, calibrate_kernel,
                               make_change)

SIM_CONFIG = """\
n = 10
kernel = wiener
psi = 0.0
seed = 1
burn_in = 2
grid_points = 30
basis_size = 8
basis_order = 4
"""

TABLES_CONFIG = """\
n = 30
psi = 0.2
kernel = gaussian
h = 1.0
d = 1
alternative = false
replications = 3
burn_in = 5
seed = 2
"""


def write_noise_csv(path, n=40, t_points=30, seed=0):
    rng = np.random.default_rng(seed)
    grid = Grid.uniform(t_points)
    values = rng.normal(size=(n, t_points))
    write_curves_csv(path, values, grid)
    return values


class TestPreprocess:
    def test_drop_then_keep_order(self):
        values = np.arange(10.0)[:, None] * np.ones((1, 3))
        out = preprocess(values, drop=(2, 5), keep=(2, 4))
        # dropping rows 2 and 5 leaves 1,3,4,6,7,8,9,10; keep 2..4 of those
        assert np.array_equal(out[:, 0], [2.0, 3.0, 5.0])

    def test_keep_only(self):
        values = np.arange(6.0)[:, None] * np.ones((1, 2))
        out = preprocess(values, keep=(5, 6))
        assert np.array_equal(out[:, 0], [4.0, 5.0])

    def test_log_ratio_transform(self):
        values = np.array([[2.0, 4.0, 8.0], [1.0, 3.0, 9.0]])
        out = preprocess(values, log_ratio=True)
        assert np.allclose(out, np.log(values / values[:, [0]]))
        assert np.array_equal(out[:, 0], [0.0, 0.0])

    def test_log_ratio_reports_file_position(self):
        values = np.ones((4, 3))
        values[2, 1] = 0.0
        with pytest.raises(DataError, match=r"curve 3 \(file row 4\), column 2"):
            preprocess(values, log_ratio=True)

    def test_log_ratio_position_respects_dropped_rows(self):
        values = np.ones((4, 3))
        values[0, 0] = -1.0
        values[2, 1] = 0.0
        with pytest.raises(DataError, match=r"curve 3 \(file row 4\)"):
            preprocess(values, drop=(1,), log_ratio=True)

    def test_drop_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            preprocess(np.ones((3, 2)), drop=(4,))

    def test_keep_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            preprocess(np.ones((3, 2)), keep=(1, 9))


class TestCmdTest:
    def test_constant_curves_never_reject(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        grid = Grid.uniform(30)
        write_curves_csv(path, np.ones((20, 30)), grid)
        code = main(["test", str(path), "--d", "1", "--h", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "statistic T = 0" in out
        assert "p_vostrikova = 1" in out
        assert "reject = False" in out
        assert "degenerate" in out

    def test_detects_injected_step(self, tmp_path, capsys):
        path = tmp_path / "step.csv"
        rng = np.random.default_rng(3)
        values = 0.1 * rng.normal(size=(60, 30))
        values[40:] += 2.0
        write_curves_csv(path, values, Grid.uniform(30))
        code = main(["test", str(path), "--d", "1", "--h", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reject = True" in out
        assert "k_hat standardized = 40" in out

    def test_csv_with_byte_order_mark(self, tmp_path, capsys):
        # "CSV UTF-8" as spreadsheet programs save it: the same file behind
        # an EF BB BF mark gives the same test.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_noise_csv(plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        reports = []
        for path in (plain, marked):
            report = tmp_path / (path.stem + ".json")
            assert main(["test", str(path), "--d", "2", "--h", "2",
                         "--out", str(report)]) == 0
            reports.append(json.loads(report.read_bytes())["result"])
        out = capsys.readouterr().out.splitlines()
        assert out[:len(out) // 2] == out[len(out) // 2:]
        assert reports[0] == reports[1]

    def test_report_written_and_replay_identical(self, tmp_path, capsys):
        path = tmp_path / "noise.csv"
        write_noise_csv(path)
        report = tmp_path / "report.json"
        assert main(["test", str(path), "--d", "2", "--h", "2",
                     "--out", str(report)]) == 0
        original = report.read_bytes()
        data = json.loads(original)
        assert data["schema"] == "funcusum-report-1"
        assert data["manifest"]["test_config"]["d"] == 2
        assert data["result"]["n"] == 40
        assert data["manifest"]["preprocess"]["rescaled_grid"] is False
        replayed = tmp_path / "replayed.json"
        assert main(["test", "--replay", str(report),
                     "--out", str(replayed)]) == 0
        capsys.readouterr()
        assert replayed.read_bytes() == original

    def test_log_ratio_zero_start_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        values = np.ones((5, 12))
        values[3, 0] = 0.0
        write_curves_csv(path, values, Grid.uniform(12))
        code = main(["test", str(path), "--log-ratio", "--basis-smooth",
                     "8:4", "--d", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "input error" in err and "curve 4" in err

    def test_replay_of_report_with_seed_key(self, tmp_path, capsys):
        # Reports from before `test --seed` was removed carry "seed": null
        # in their manifest; replay copies the manifest through unchanged.
        path = tmp_path / "noise.csv"
        write_noise_csv(path)
        report = tmp_path / "report.json"
        assert main(["test", str(path), "--d", "1", "--h", "1",
                     "--out", str(report)]) == 0
        data = json.loads(report.read_text())
        assert "seed" not in data["manifest"]
        data["manifest"]["seed"] = None
        with open(report, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        replayed = tmp_path / "replayed.json"
        assert main(["test", "--replay", str(report),
                     "--out", str(replayed)]) == 0
        capsys.readouterr()
        assert replayed.read_bytes() == report.read_bytes()

    def test_non_finite_csv_value_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        values = np.ones((20, 30))
        values[4, 6] = np.nan
        write_curves_csv(path, values, Grid.uniform(30))
        assert main(["test", str(path), "--d", "1"]) == 2
        err = capsys.readouterr().err
        assert "input error: line 6: non-finite value in column 7" in err

    @pytest.mark.parametrize("h", ["nan", "inf"])
    def test_non_finite_bandwidth_exit_2(self, tmp_path, capsys, h):
        path = tmp_path / "noise.csv"
        write_noise_csv(path)
        report = tmp_path / "report.json"
        assert main(["test", str(path), "--d", "1", "--h", h,
                     "--out", str(report)]) == 2
        captured = capsys.readouterr()
        assert f"input error: bandwidth must be finite, got {h}" in captured.err
        assert captured.out == ""
        assert not report.exists()

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text("t=0.0,t=1.0\n1.0\n")
        assert main(["test", str(path), "--d", "1"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["test", str(tmp_path / "nope.csv")]) == 2
        assert "input error" in capsys.readouterr().err

    def test_too_few_grid_points_for_smoother_exit_2(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        write_curves_csv(path, np.ones((5, 10)), Grid.uniform(10))
        assert main(["test", str(path)]) == 2
        assert "fewer than the" in capsys.readouterr().err

    def test_unreachable_alpha_exit_3(self, tmp_path, capsys):
        path = tmp_path / "noise.csv"
        write_noise_csv(path)
        code = main(["test", str(path), "--d", "1", "--h", "1",
                     "--alpha", "0.99"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_input_required_without_replay(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value,message", [
        ("--keep", "5", "--keep expects 'i..j', got '5'"),
        ("--keep", "1-5", "--keep expects 'i..j', got '1-5'"),
        ("--keep", "a..5", "--keep expects integers, got 'a..5'"),
        ("--drop-indices", "1,x", "--drop-indices expects integers, got '1,x'"),
        ("--basis-smooth", "25", "--basis-smooth expects 'J:order', got '25'"),
        ("--basis-smooth", "25:x",
         "--basis-smooth expects integers, got '25:x'"),
    ], ids=["keep_shape", "keep_dash", "keep_integers", "drop_integers",
            "basis_smooth_shape", "basis_smooth_integers"])
    def test_bad_keep_flag_rejected(self, tmp_path, capsys, flag, value,
                                    message):
        path = tmp_path / "noise.csv"
        write_noise_csv(path)
        with pytest.raises(SystemExit) as exc:
            main(["test", str(path), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--keep", "0..5"], "--keep needs 1 <= i <= j, got 0..5"),
        (["--drop-indices", "0"],
         "--drop-indices out of range (1-based, n=40): [0]"),
    ], ids=["keep_from_zero", "drop_zero"])
    def test_index_out_of_range_exit_2(self, tmp_path, capsys, flags,
                                       message):
        path = tmp_path / "noise.csv"
        write_noise_csv(path)
        assert main(["test", str(path), *flags]) == 2
        assert f"input error: {message}" in capsys.readouterr().err


class TestCmdSimulate:
    def test_deterministic_output(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", str(cfg), "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", str(cfg), "--out", str(out1)])
        main(["simulate", str(cfg), "--seed", "99", "--out", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() != out2.read_bytes()

    def test_row_count_and_manifest(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 100\nkernel = gaussian\npsi = 0.5\n"
                       "change_shape = sin\nchange_theta = 0.5\n"
                       "burn_in = 5\ngrid_points = 30\nbasis_size = 8\n")
        out = tmp_path / "curves.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert len(lines) == 101  # header + one row per curve
        manifest = json.loads((tmp_path / "curves.csv.manifest.json").read_text())
        assert manifest["schema"] == "funcusum-simulate-1"
        assert "change_shape = sin" in manifest["simspec_config"]

    def test_output_feeds_cmd_test(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG.replace("n = 10", "n = 40"))
        out = tmp_path / "curves.csv"
        main(["simulate", str(cfg), "--out", str(out)])
        assert main(["test", str(out), "--d", "1", "--h", "1",
                     "--basis-smooth", "8:4"]) == 0
        assert "statistic T" in capsys.readouterr().out

    def test_replay_reproduces_csv(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", str(cfg), "--out", str(out1)])
        assert main(["simulate", "--replay", str(out1) + ".manifest.json",
                     "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("kernel", ["wiener", "gaussian"])
    def test_csv_reads_back_the_sample_bitwise(self, tmp_path, capsys, kernel):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG.replace("wiener", kernel)
                       .replace("psi = 0.0", "psi = 0.7")
                       + "change_shape = sin\n")
        out = tmp_path / "curves.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        sim = Far1Simulator(SimSpec.from_config(cfg.read_text()))
        expected = sim.generate().evaluate(sim.grid)
        data = read_curves_csv(out)
        assert data.values.tobytes() == expected.tobytes()
        assert data.grid.points.tobytes() == sim.grid.points.tobytes()
        assert data.rescaled is False

    @pytest.mark.parametrize("seed", ["-3", "1, -2"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, seed):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG.replace("seed = 1", f"seed = {seed}"))
        out = tmp_path / "x.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert (f"input error: seed must be nonnegative, got "
                f"{seed.replace(' ', '')}\n" in capsys.readouterr().err)
        assert not out.exists()

    def test_fewer_grid_points_than_splines_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG.replace("grid_points = 30",
                                          "grid_points = 6"))
        out = tmp_path / "x.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 3
        assert ("numerical failure: cannot fit basis of size 8 from 6 grid "
                "points\n" in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 10\nkernel = wiener\npsi = 0.5\nwhatever = 1\n")
        assert main(["simulate", str(cfg), "--out",
                     str(tmp_path / "x.csv")]) == 2
        assert "whatever" in capsys.readouterr().err


class TestCmdTables:
    def test_single_cell_csv(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG)
        out = tmp_path / "cells.csv"
        assert main(["tables", str(cfg), "--out", str(out), "--quiet"]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("n,kernel,psi,h,d,alternative,R,")
        assert lines[1].startswith("30,gaussian,0.2,1.0,1,false,3,")

    def test_rerun_byte_identical_with_no_timing(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["tables", str(cfg), "--out", str(out1), "--quiet", "--no-timing"])
        main(["tables", str(cfg), "--out", str(out2), "--quiet", "--no-timing"])
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("text,message", [
        ("n = abc\n", "line 1: n: invalid literal for int() with base 10: "
                      "'abc'"),
        ("alternative = true\nchange_amplitude = inf\n",
         "need a finite change amplitude, got inf"),
        # A null-only grid records its change settings in the sidecar.
        (TABLES_CONFIG + "change_amplitude = inf\n",
         "need a finite change amplitude, got inf"),
        (TABLES_CONFIG + "theta = 7\n", "need 0 < theta < 1, got 7.0"),
        (TABLES_CONFIG + "change_amplitude = inf\ntheta = 7\n"
         "change_shape = sawtooth\n", "unknown change shape 'sawtooth'"),
        (TABLES_CONFIG.replace("seed = 2", "seed = -1"),
         "seed must be nonnegative, got -1"),
    ], ids=["bad_n", "infinite_amplitude", "null_infinite_amplitude",
            "null_theta", "null_all_three", "negative_seed"])
    def test_bad_setting_exits_2_before_any_cell(self, tmp_path, capsys,
                                                 text, message):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(text)
        out = tmp_path / "cells.csv"
        assert main(["tables", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"input error: {message}\n" in err and "cell" not in err
        assert not out.exists()

    def test_replay_from_sidecar(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["tables", str(cfg), "--out", str(out1), "--quiet", "--no-timing"])
        assert main(["tables", "--replay", str(out1) + ".manifest.json",
                     "--out", str(out2), "--quiet", "--no-timing"]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_timing_sidecar_replays_byte_for_byte(self, tmp_path, capsys):
        # Slow cells make a wall-clock seconds entry nonzero; under
        # --no-timing neither the CSV nor the sidecar records it.
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG.replace("replications = 3",
                                             "replications = 40"))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        side1, side2 = (tmp_path / "a.csv.manifest.json",
                        tmp_path / "b.csv.manifest.json")
        main(["tables", str(cfg), "--out", str(out1), "--quiet", "--no-timing"])
        assert json.loads(side1.read_text())["timing_seconds"] == [0.0]
        assert main(["tables", "--replay", str(side1), "--out", str(out2),
                     "--quiet", "--no-timing"]) == 0
        capsys.readouterr()
        assert out2.read_bytes() == out1.read_bytes()
        assert side2.read_bytes() == side1.read_bytes()

    def test_failed_cell_still_exits_zero(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG.replace("n = 30", "n = 2, 30"))
        out = tmp_path / "cells.csv"
        assert main(["tables", str(cfg), "--out", str(out), "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "1 failed" in captured.out
        assert "warning: cell 0 failed" in captured.err
        assert "nan" in out.read_text().splitlines()[1]

    def test_panel_layout_matches_size_table_shape(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "n = 50, 100, 300, 500\npsi = 0.1, 0.2, 0.4, 0.6, 0.8\n"
            "kernel = gaussian\nh = 1.0, 2.0, 3.0, 4.0\nd = 1, 2, 3, 4, 5\n"
            "alternative = false\nreplications = 1\nburn_in = 5\nseed = 3\n")
        out = tmp_path / "cells.csv"
        panels = tmp_path / "panels.csv"
        assert main(["tables", str(cfg), "--out", str(out), "--quiet",
                     "--panels", str(panels)]) == 0
        capsys.readouterr()
        blocks = [b for b in panels.read_text().split("\n\n") if b.strip()]
        assert len(blocks) == 4
        for block in blocks:
            lines = block.strip().splitlines()
            assert lines[1] == "n,psi,d=1,d=2,d=3,d=4,d=5"
            assert len(lines) == 2 + 20  # 4 n-values x 5 psi-values
        sidecar = json.loads((tmp_path / "cells.csv.manifest.json").read_text())
        assert sidecar["cells"] == 400
        assert sidecar["total_replications"] == 400

    def test_unknown_lag_kernel_exit_2_before_any_cell(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG + "lag_kernel = foo\n")
        out = tmp_path / "cells.csv"
        assert main(["tables", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "input error: unknown lag kernel 'foo'" in err
        assert "cell 0" not in err
        assert not out.exists()

    def test_bad_change_shape_exit_2_before_any_cell(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG.replace("alternative = false",
                                             "alternative = false, true")
                       + "change_shape = foo\n")
        out = tmp_path / "cells.csv"
        assert main(["tables", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "input error: unknown change shape 'foo'" in err
        assert not any(line.startswith("cell ") for line in err.splitlines())
        assert not out.exists()

    def test_alpha_without_vostrikova_root_exit_3_before_any_cell(
            self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG.replace("n = 30", "n = 60")
                       .replace("d = 1", "d = 2") + "alpha = 0.95\n")
        out = tmp_path / "cells.csv"
        assert main(["tables", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: tail expansion peaks" in err
        assert not any(line.startswith("cell ") for line in err.splitlines())
        assert not out.exists()

    def test_fewer_grid_points_than_splines_exit_3_before_any_cell(
            self, tmp_path, capsys):
        # A null-only grid fails as a grid with power cells does.
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG + "grid_points = 10\n")
        out = tmp_path / "cells.csv"
        assert main(["tables", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert ("numerical failure: cannot fit basis of size 25 from 10 grid "
                "points\n" in err)
        assert not any(line.startswith("cell ") for line in err.splitlines())
        assert not out.exists()

    def test_gumbel_cell_without_critical_value_exit_2_before_any_cell(
            self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG.replace("n = 30", "n = 2, 30")
                       + "critical_method = gumbel\n")
        out = tmp_path / "cells.csv"
        assert main(["tables", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("input error: normalizers need log log n > 0, got n = 2\n"
                in err)
        assert not any(line.startswith("cell ") for line in err.splitlines())
        assert not out.exists()

    def test_negative_seed_flag_exit_2_before_any_cell(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG)
        out = tmp_path / "cells.csv"
        assert main(["tables", str(cfg), "--seed", "-1", "--out",
                     str(out)]) == 2
        err = capsys.readouterr().err
        assert "input error: seed must be nonnegative, got -1\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("h,message", [
        ("inf", "must be finite, got inf"), ("nan", "must be finite, got nan"),
        ("-1", "must be nonnegative, got -1.0")])
    def test_bad_bandwidth_exit_2_before_any_cell(self, tmp_path, capsys, h,
                                                  message):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG.replace("h = 1.0", f"h = 1.0, {h}"))
        out = tmp_path / "cells.csv"
        assert main(["tables", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"input error: bandwidth {message}" in err
        assert not any(line.startswith("cell ") for line in err.splitlines())
        assert not out.exists()

    def test_progress_line_counts_cells(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG.replace("d = 1", "d = 1, 2"))
        out = tmp_path / "cells.csv"
        assert main(["tables", str(cfg), "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines] == ["cell 0/2", "cell 1/2"]
        assert lines[1].startswith(
            "cell 1/2: n=30 kernel=gaussian psi=0.2 h=1.0 d=2 "
            "alternative=false reject_rate=")
        assert re.search(r"\(\d+\.\ds, eta \d+:\d\d:\d\d\)$", lines[0])
        assert lines[1].endswith(", eta 0:00:00)")
        assert main(["tables", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_progress_eta_from_mean_seconds_per_replication(
            self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG.replace("d = 1", "d = 1, 2, 3")
                       .replace("replications = 3", "replications = 10"))

        def run_grid(grid, progress):
            # 4 s for 10 replications, then 1 s for 3 and the failing one.
            results = []
            for coords, seconds, completed in zip(grid.cells(), (4.0, 1.0, 9.0),
                                                  (10, 3, 10)):
                failed = completed < grid.replications
                res = CellResult(coords, grid.replications, completed,
                                 math.nan if failed else 0.5, 0.1, 0.5, 0.5,
                                 seconds, "boom" if failed else None)
                progress(res)
                results.append(res)
            return results

        monkeypatch.setattr(cli, "run_grid", run_grid)
        assert main(["tables", str(cfg), "--out",
                     str(tmp_path / "cells.csv")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].endswith("(4.0s, eta 0:00:08)")  # 0.4 s x 20 left
        assert lines[1].endswith("(1.0s, eta 0:00:04)")  # 5/14 s x 10 left
        assert lines[2].endswith("(9.0s, eta 0:00:00)")

    def test_progress_eta_prices_each_cell_by_its_n(self, tmp_path, capsys,
                                                    monkeypatch):
        # A replication costs about burn_in + n AR steps: 150 at n = 50 and
        # 600 at n = 500.  Pricing the n = 500 cell at the n = 50 cell's
        # seconds per replication would say 0:00:02.
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG.replace("n = 30", "n = 50, 500")
                       .replace("burn_in = 5", "burn_in = 100")
                       .replace("replications = 3", "replications = 10"))

        def run_grid(grid, progress):
            results = []
            for coords, seconds in zip(grid.cells(), (1.5, 6.5)):
                res = CellResult(coords, grid.replications, grid.replications,
                                 0.5, 0.1, 0.5, 0.5, seconds)
                progress(res)
                results.append(res)
            return results

        monkeypatch.setattr(cli, "run_grid", run_grid)
        assert main(["tables", str(cfg), "--out",
                     str(tmp_path / "cells.csv")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].endswith("(1.5s, eta 0:00:06)")  # 1.5 s / 1500 x 6000
        assert lines[1].endswith("(6.5s, eta 0:00:00)")

    def test_bad_grid_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("n = 30\nreplications = zero\n")
        assert main(["tables", str(cfg), "--out",
                     str(tmp_path / "x.csv")]) == 2
        assert "input error" in capsys.readouterr().err


def replays_byte_for_byte(command, config, extra=()):
    """Run `command` on config text, replay its manifest, and return whether
    both runs exited alike and wrote the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "run.cfg").write_text(config)
        outs = [tmp / "a.csv", tmp / "b.csv"]
        first = main([command, str(tmp / "run.cfg"), "--out", str(outs[0]),
                      *extra])
        again = main([command, "--replay", f"{outs[0]}.manifest.json",
                      "--out", str(outs[1]), *extra])
        return first == again == 0 and all(
            pathlib.Path(f"{outs[0]}{suffix}").read_bytes()
            == pathlib.Path(f"{outs[1]}{suffix}").read_bytes()
            for suffix in ("", ".manifest.json"))


class TestReplayProperty:
    """--replay reproduces a run's outputs byte for byte."""

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 60), kind=st.sampled_from(["gaussian", "wiener"]),
           psi=st.floats(0.0, 0.95), burn_in=st.integers(0, 30),
           seed=st.one_of(st.integers(0, 2**63),
                          st.lists(st.integers(0, 2**32), min_size=2,
                                   max_size=3).map(tuple)),
           grid_points=st.integers(16, 48), basis_size=st.integers(4, 12),
           basis_order=st.sampled_from([3, 4]),
           change=st.one_of(st.none(), st.tuples(
               st.sampled_from(["sin", "constant"]), st.floats(0.05, 0.95),
               st.floats(-3.0, 3.0))))
    def test_simulate(self, n, kind, psi, burn_in, seed, grid_points,
                      basis_size, basis_order, change):
        if change is not None:
            change = make_change(*change)
        spec = SimSpec(n=n, kernel=calibrate_kernel(kind, psi), change=change,
                       burn_in=burn_in, seed=seed, grid_points=grid_points,
                       basis_size=basis_size, basis_order=basis_order)
        assert replays_byte_for_byte("simulate", spec.to_config())

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(10, 60), kind=st.sampled_from(["gaussian", "wiener"]),
           psi=st.floats(0.0, 0.9), seed=st.integers(0, 2**32),
           grid_points=st.integers(16, 48), basis_size=st.integers(4, 12),
           basis_order=st.sampled_from([3, 4]),
           change=st.one_of(st.none(), st.tuples(
               st.sampled_from(["sin", "constant"]), st.floats(0.05, 0.95),
               st.floats(-3.0, 3.0))),
           d=st.integers(1, 3), h=st.one_of(st.none(), st.floats(0.0, 4.0)),
           lag_kernel=st.sampled_from(["plain", "bartlett", "parzen",
                                       "flattop"]),
           alpha=st.sampled_from([0.01, 0.05, 0.1]),
           critical=st.sampled_from(["vostrikova", "gumbel"]))
    def test_test(self, n, kind, psi, seed, grid_points, basis_size,
                  basis_order, change, d, h, lag_kernel, alpha, critical):
        spec = SimSpec(n=n, kernel=calibrate_kernel(kind, psi),
                       change=None if change is None else make_change(*change),
                       burn_in=10, seed=seed, grid_points=grid_points,
                       basis_size=basis_size, basis_order=basis_order)
        flags = ["--d", str(d), "--lag-kernel", lag_kernel, "--alpha",
                 repr(alpha), "--critical", critical, "--basis-smooth",
                 f"{basis_size}:{basis_order}"]
        if h is not None:
            flags += ["--h", repr(h)]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            (tmp / "sim.cfg").write_text(spec.to_config())
            curves = str(tmp / "curves.csv")
            assert main(["simulate", str(tmp / "sim.cfg"), "--out",
                         curves]) == 0
            reports, printed = [tmp / "a.json", tmp / "b.json"], []
            runs = (["test", curves, *flags],
                    ["test", "--replay", str(reports[0])])
            for argv, report in zip(runs, reports):
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert main([*argv, "--out", str(report)]) == 0
                printed.append(out.getvalue())
            assert printed[0] == printed[1]
            assert reports[0].read_bytes() == reports[1].read_bytes()

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(8, 40), kind=st.sampled_from(["gaussian", "wiener"]),
           psi=st.floats(0.0, 0.9), h=st.sampled_from([0.0, 1.0, 2.5]),
           d=st.integers(1, 3), alternative=st.booleans(),
           replications=st.integers(1, 40), seed=st.integers(0, 2**32),
           alpha=st.sampled_from([0.01, 0.05, 0.1]),
           lag_kernel=st.sampled_from(["plain", "bartlett", "parzen",
                                       "flattop"]),
           critical_method=st.sampled_from(["vostrikova", "gumbel"]))
    def test_one_cell_tables(self, n, kind, psi, h, d, alternative,
                             replications, seed, alpha, lag_kernel,
                             critical_method):
        grid = ExperimentGrid(
            n_values=(n,), kernels=(kind,), psi_values=(psi,), h_values=(h,),
            d_values=(d,), alternatives=(alternative,),
            replications=replications, seed=seed, alpha=alpha, burn_in=10,
            lag_kernel=lag_kernel, critical_method=critical_method)
        assert replays_byte_for_byte("tables", grid.to_config(),
                                     ("--quiet", "--no-timing"))


class TestReplayRecordChecks:
    """A replayed record with an unknown key or a wrongly typed value is an
    input error that names the file and the key, not a TypeError."""

    @pytest.mark.parametrize("key,value,message", [
        ("bogus", 1, "unknown grid key 'bogus'"),
        ("n_values", 5, "grid key 'n_values' has the wrong type: 5"),
        ("replications", True,
         "grid key 'replications' has the wrong type: True"),
    ], ids=["unknown_key", "scalar_axis", "bool_replications"])
    def test_bad_grid_record_exit_2(self, tmp_path, capsys, key, value,
                                    message):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG)
        assert main(["tables", str(cfg), "--out", str(tmp_path / "a.csv"),
                     "--quiet"]) == 0
        sidecar = tmp_path / "a.csv.manifest.json"
        data = json.loads(sidecar.read_text())
        data["grid"][key] = value
        sidecar.write_text(json.dumps(data))
        out = tmp_path / "b.csv"
        capsys.readouterr()
        assert main(["tables", "--replay", str(sidecar), "--out", str(out),
                     "--quiet"]) == 2
        assert f"input error: {sidecar}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m["preprocess"].update(drop_indices=[0]),
         "--drop-indices out of range (1-based, n=40): [0]"),
        (lambda m: m["preprocess"].update(keep=[0, 5]),
         "--keep needs 1 <= i <= j, got 0..5"),
        (lambda m: m.update(input=5),
         "{report}: manifest key 'input' has the wrong type: 5"),
        (lambda m: m.update(test_config=[1]),
         "{report}: manifest key 'test_config' has the wrong type: [1]"),
        (lambda m: m["test_config"].update(d=True),
         "{report}: test_config key 'd' has the wrong type: True"),
        (lambda m: m["preprocess"].update(drop_indices=[True]),
         "{report}: preprocess key 'drop_indices' has the wrong type: [True]"),
        (lambda m: m.pop("preprocess"),
         "{report}: the manifest record has no key 'preprocess'"),
        (lambda m: m.pop("input"),
         "{report}: the manifest record has no key 'input'"),
        (lambda m: m["test_config"].pop("alpha"),
         "{report}: the test_config record has no key 'alpha'"),
        (lambda m: m["preprocess"].pop("fourier"),
         "{report}: the preprocess record has no key 'fourier'"),
        (lambda m: m["preprocess"]["basis_smooth"].pop("order"),
         "{report}: the preprocess basis_smooth record has no key 'order'"),
    ], ids=["drop_zero", "keep_from_zero", "input_number", "test_config_list",
            "bool_d", "bool_drop_index", "no_preprocess", "no_input",
            "no_alpha", "no_fourier", "no_basis_smooth_order"])
    def test_bad_report_record_exit_2(self, tmp_path, capsys, edit, message):
        # A replay goes through the checks of a fresh run.
        path = tmp_path / "noise.csv"
        write_noise_csv(path)
        report = tmp_path / "report.json"
        assert main(["test", str(path), "--d", "2", "--out", str(report)]) == 0
        capsys.readouterr()
        data = json.loads(report.read_text())
        edit(data["manifest"])
        report.write_text(json.dumps(data))
        out = tmp_path / "replayed.json"
        assert main(["test", "--replay", str(report), "--out", str(out)]) == 2
        message = message.format(report=report)
        assert f"input error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_string_test_config_d_exit_2(self, tmp_path, capsys):
        path = tmp_path / "noise.csv"
        write_noise_csv(path)
        report = tmp_path / "report.json"
        assert main(["test", str(path), "--d", "2", "--out", str(report)]) == 0
        capsys.readouterr()
        data = json.loads(report.read_text())
        data["manifest"]["test_config"]["d"] = "2"
        report.write_text(json.dumps(data))
        out = tmp_path / "replayed.json"
        assert main(["test", "--replay", str(report), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (f"input error: {report}: test_config key 'd' has the wrong "
                "type: '2'") in err
        assert not out.exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda p: p.update(fourier="8"),
         "preprocess key 'fourier' has the wrong type: '8'"),
        (lambda p: p.update(keep=[1, 2, 3]),
         "preprocess key 'keep' has the wrong type: [1, 2, 3]"),
        (lambda p: p.update(bogus=1), "unknown preprocess key 'bogus'"),
        (lambda p: p.update(basis_smooth=[25, 4]),
         "preprocess key 'basis_smooth' has the wrong type: [25, 4]"),
        (lambda p: p["basis_smooth"].update(size="25"),
         "preprocess basis_smooth key 'size' has the wrong type: '25'"),
        (lambda p: p["basis_smooth"].update(knots=3),
         "unknown preprocess basis_smooth key 'knots'"),
    ], ids=["fourier_string", "keep_three", "unknown_key",
            "basis_smooth_list", "basis_smooth_size_string",
            "basis_smooth_unknown_key"])
    def test_bad_preprocess_record_exit_2(self, tmp_path, capsys, edit,
                                          message):
        path = tmp_path / "noise.csv"
        write_noise_csv(path)
        report = tmp_path / "report.json"
        assert main(["test", str(path), "--d", "2", "--keep", "1..30",
                     "--out", str(report)]) == 0
        capsys.readouterr()
        data = json.loads(report.read_text())
        edit(data["manifest"]["preprocess"])
        report.write_text(json.dumps(data))
        out = tmp_path / "replayed.json"
        assert main(["test", "--replay", str(report), "--out", str(out)]) == 2
        assert f"input error: {report}: {message}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("edit,message", [
        (lambda m: m.update(simspec_config=5),
         "manifest key 'simspec_config' has the wrong type: 5"),
        (lambda m: m.pop("simspec_config"),
         "the manifest record has no key 'simspec_config'"),
    ], ids=["config_number", "no_config"])
    def test_bad_simulate_manifest_exit_2(self, tmp_path, capsys, edit,
                                          message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG)
        assert main(["simulate", str(cfg), "--out",
                     str(tmp_path / "a.csv")]) == 0
        manifest = tmp_path / "a.csv.manifest.json"
        data = json.loads(manifest.read_text())
        edit(data)
        manifest.write_text(json.dumps(data))
        out = tmp_path / "b.csv"
        capsys.readouterr()
        assert main(["simulate", "--replay", str(manifest), "--out",
                     str(out)]) == 2
        assert f"input error: {manifest}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m.pop("grid"), "the manifest record has no key 'grid'"),
        (lambda m: m["grid"].pop("seed"), "the grid record has no key 'seed'"),
        (lambda m: m.update(timestamp=5),
         "manifest key 'timestamp' has the wrong type: 5"),
    ], ids=["no_grid", "no_seed", "timestamp_number"])
    def test_bad_tables_manifest_exit_2(self, tmp_path, capsys, edit,
                                        message):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TABLES_CONFIG)
        assert main(["tables", str(cfg), "--out", str(tmp_path / "a.csv"),
                     "--quiet"]) == 0
        sidecar = tmp_path / "a.csv.manifest.json"
        data = json.loads(sidecar.read_text())
        edit(data)
        sidecar.write_text(json.dumps(data))
        out = tmp_path / "b.csv"
        capsys.readouterr()
        assert main(["tables", "--replay", str(sidecar), "--out", str(out),
                     "--quiet"]) == 2
        assert f"input error: {sidecar}: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_key_error_from_a_bug_is_not_an_input_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "run_grid", broken)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(TABLES_CONFIG)
    with pytest.raises(KeyError, match="bug"):
        main(["tables", str(cfg), "--out", str(tmp_path / "a.csv")])


@pytest.mark.parametrize("command", ["test", "simulate", "tables"])
def test_replay_of_non_object_json_exit_2(tmp_path, capsys, command):
    replay = tmp_path / "replay.json"
    replay.write_text("[1, 2]\n")
    out = tmp_path / "out"
    assert main([command, "--replay", str(replay), "--out", str(out)]) == 2
    assert "is not a JSON object" in capsys.readouterr().err
    assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "flat.csv"
        write_curves_csv(path, np.ones((20, 30)), Grid.uniform(30))
        proc = subprocess.run(
            [sys.executable, "-m", "funcusum.cli", "test", str(path),
             "--d", "1", "--h", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "reject = False" in proc.stdout

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "funcusum.cli", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("funcusum ")

    def test_fresh_process_loads_no_scipy(self):
        # scipy.interpolate alone took most of a fresh process's start-up;
        # the package needs numpy only, on the whole simulate-test path.
        script = (
            "import sys\n"
            "import funcusum.cli\n"
            "from funcusum.cusum import TestConfig, run_test\n"
            "from funcusum.simulate import Far1Simulator, SimSpec\n"
            "spec = SimSpec.from_config('n = 30\\nkernel = wiener\\n"
            "psi = 0.3\\nburn_in = 5\\nchange_shape = sin\\n')\n"
            "res = run_test(Far1Simulator(spec).generate(), TestConfig(d=2))\n"
            "assert res.n == 30, res\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_no_worker_outlives_the_process(self, tmp_path):
        # A fresh interpreter, told it has three usable CPUs, runs `tables`
        # on cells of three chunks and `simulate` of three CSV blocks: its
        # two pooled workers serve both and are reaped at exit, so once it
        # has returned neither is left, running or unreaped.
        grid = tmp_path / "grid.cfg"
        grid.write_text("n = 12\nkernel = wiener\npsi = 0.6\nd = 1, 2\n"
                        "replications = 40\nburn_in = 15\n")
        sim = tmp_path / "sim.cfg"
        sim.write_text("n = 336\nkernel = wiener\npsi = 0.4\n")
        commands = [
            ["tables", str(grid), "--out", str(tmp_path / "cells.csv"),
             "--quiet"],
            ["simulate", str(sim), "--out", str(tmp_path / "curves.csv")]]
        script = (
            "import json, sys\n"
            "from funcusum import _workers, cli\n"
            "_workers.usable_cpus = lambda: 3\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    print('pool', json.dumps([w.pid for w in _workers._pool]))\n")
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        after_tables, after_simulate = [
            json.loads(line.removeprefix("pool "))
            for line in proc.stdout.splitlines() if line.startswith("pool ")]
        assert len(after_tables) == 2 and after_simulate == after_tables
        for pid in after_tables:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_workers_exit_when_the_process_is_killed(self):
        # The workers hold the killed interpreter's stdout, so the run
        # returns, rather than timing out, only once both have exited at
        # EOF on their task pipes.
        script = (
            "import os, signal\n"
            "from funcusum import _workers\n"
            "from funcusum.harness import CellCoords, ExperimentGrid, "
            "run_cell\n"
            "_workers.usable_cpus = lambda: 3\n"
            "run_cell(CellCoords(0, 12, 'wiener', 0.6, 2.0, 2, False),\n"
            "         ExperimentGrid(replications=40, burn_in=15))\n"
            "print(len(_workers._pool), flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == -9, proc.stderr
        assert proc.stdout == "2\n"
