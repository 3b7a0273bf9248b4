"""Bases, quadrature, smoothing and basis conversion."""

import csv
import functools
import math
import os
import pathlib
import platform
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from funcusum import _workers
from funcusum import basis as basis_module
from funcusum.basis import (
    CurveCSVError,
    FunctionalSample,
    Grid,
    SingularFitError,
    _bspline_design,
    _bspline_knots,
    _conversion_matrix,
    _fit_design,
    _fit_matrix,
    _fit_smoother,
    bspline_basis,
    change_basis,
    fit_sample,
    fourier_basis,
    read_curves_csv,
    write_curves_csv,
)
from funcusum.cli import main
from funcusum.simulate import Far1Simulator, SimSpec

from conftest import (Stop, assert_gone, assert_no_child, count_forks,
                      dense_gram, pool_pids)


def csv_module_writer(path, values, grid):
    """The csv.writer form of write_curves_csv, the byte-level oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"t={p!r}" for p in grid.points.tolist()])
        for row in values:
            writer.writerow([repr(v) for v in row.tolist()])


def read_outcome(read, path):
    """What a curve CSV reader makes of `path`: the exact bytes of the
    values and grid with the rescaled flag, or the CurveCSVError text."""
    try:
        data = read(path)
    except CurveCSVError as exc:
        return "error", str(exc)
    return ("ok", data.values.shape, data.values.tobytes(),
            data.grid.points.tobytes(), data.rescaled)


def csv_parser_read(path):
    """read_curves_csv with the np.loadtxt step failing, so that the csv
    parser reads every file."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(basis_module, "_loadtxt_body", lambda fh, width: None)
        return read_curves_csv(path)


# Cells of a curve CSV body: numbers np.loadtxt parses (nan and inf among
# them), and cells that only the csv parser takes or that it rejects.
_NUMBER_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["0", "-0.0", "1e-05", "5e-324", "1E16", "+1.5", " 2.5 ",
                     "1.", ".5", "nan", "-inf", "inf"]),
)
_ODD_CELLS = st.sampled_from(['"1.5"', "1_0", "#", "", "  ", "x",
                              "\u0661\u0662"])


@st.composite
def curve_csv_texts(draw):
    width = draw(st.integers(2, 4))
    header = draw(st.sampled_from([
        ",".join(f"t={p!r}" for p in np.linspace(0.0, 1.0, width).tolist()),
        ",".join(f"t={k * k + 1}" for k in range(width)),
    ]))
    # Now and then every row has one cell too few or too many.
    row_width = draw(st.sampled_from([width] * 4 + [width - 1, width + 1]))
    number_row = st.lists(_NUMBER_CELLS, min_size=row_width,
                          max_size=row_width).map(",".join)
    odd_row = st.lists(st.one_of(_NUMBER_CELLS, _ODD_CELLS),
                       min_size=width - 1, max_size=width + 1).map(",".join)
    line = st.one_of(number_row, st.just(""))
    if draw(st.booleans()):  # else every line is one np.loadtxt may take
        line = st.one_of(line, number_row.map(lambda r: r + ","), odd_row,
                         st.sampled_from(["   ", "# note", ","]))
    lines = draw(st.lists(line, max_size=6))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join([header] + lines)
    return text + eol if draw(st.booleans()) else text


def gauss_legendre_gram(basis):
    """Gram matrix by 10-node Gauss-Legendre quadrature on each knot span,
    exact for the piecewise-polynomial products of a B-spline basis."""
    xg, wg = leggauss(10)
    spans = np.unique(_bspline_knots(basis.size, basis.order))
    a, b = spans[:-1, None], spans[1:, None]
    nodes = ((b - a) / 2.0 * xg + (a + b) / 2.0).ravel()
    weights = ((b - a) / 2.0 * wg).ravel()
    design = basis.evaluate(nodes)
    return design.T @ (weights[:, None] * design)


class TestGrid:
    def test_uniform_endpoints(self):
        g = Grid.uniform(96)
        assert len(g) == 96
        assert g.points[0] == 0.0 and g.points[-1] == 1.0

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="increasing"):
            Grid(np.array([0.0, 0.5, 0.4, 1.0]))

    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError, match="start at 0.0"):
            Grid(np.array([0.1, 0.5, 1.0]))
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 0.5]))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.0]))

    def test_trapezoid_weights_integrate(self):
        g = Grid(np.array([0.0, 0.1, 0.4, 0.75, 1.0]))
        f = g.points**2
        assert g.trapezoid_weights @ f == pytest.approx(
            np.trapezoid(f, g.points), abs=1e-15)
        assert g.trapezoid_weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_compares_and_hashes_by_its_points(self):
        assert Grid.uniform(5) == Grid.uniform(5)
        assert hash(Grid.uniform(5)) == hash(Grid.uniform(5))
        assert Grid.uniform(5) != Grid.uniform(6)
        # Equal points but another double: -0.0 == 0.0 is true.
        assert Grid(np.array([-0.0, 1.0])) != Grid(np.array([0.0, 1.0]))


def strictly_increasing_points():
    """Arrays 0, interior points in increasing order, 1."""
    interior = st.lists(st.floats(0.0, 1.0, exclude_min=True,
                                  exclude_max=True),
                        min_size=1, max_size=30, unique=True)
    return interior.map(lambda xs: np.r_[0.0, sorted(xs), 1.0])


class TestFourierBasis:
    def test_size_one_is_constant(self):
        b = fourier_basis(1)
        t = np.linspace(0, 1, 11)
        assert np.allclose(b.evaluate(t), 1.0)

    def test_sin_cos_orthogonal_by_quadrature(self):
        b = fourier_basis(3)
        t = np.linspace(0, 1, 1001)
        design = b.evaluate(t)
        ip = np.trapezoid(design[:, 1] * design[:, 2], t)
        assert abs(ip) <= 1e-8

    def test_gram_is_identity_vs_quadrature_oracle(self):
        b = fourier_basis(25)
        assert np.max(np.abs(dense_gram(b) - np.eye(25))) <= 1e-8

    @pytest.mark.parametrize("size", [2, 7, 16, 33, 64])
    def test_orthonormal_for_all_sizes(self, size):
        b = fourier_basis(size)
        assert np.max(np.abs(dense_gram(b) - np.eye(size))) <= 1e-8

    def test_rejects_size_zero(self):
        with pytest.raises(ValueError):
            fourier_basis(0)


class TestBsplineBasis:
    def test_degree_zero_single_function_is_indicator(self):
        b = bspline_basis(1, order=1)
        t = np.linspace(0, 1, 17)
        vals = b.evaluate(t)
        assert np.allclose(vals, 1.0)

    def test_single_cubic_span_partition_of_unity(self):
        b = bspline_basis(4, order=4)
        t = np.linspace(0, 1, 101)
        assert np.max(np.abs(b.evaluate(t).sum(axis=1) - 1.0)) <= 1e-10

    def test_gram_banded_by_local_support(self):
        b = bspline_basis(25, order=4)
        gram = dense_gram(b)
        i, j = np.indices((25, 25))
        off_band = np.abs(i - j) >= 4  # supports overlap iff |i-j| < order
        assert np.max(np.abs(gram[off_band])) <= 1e-12
        assert np.min(np.abs(np.diagonal(gram))) > 0.0

    def test_gram_matches_quadrature_oracle(self):
        # The trapezoid oracle the tests use for B-spline norms agrees with
        # the exact per-span Gauss-Legendre Gram matrix.
        b = bspline_basis(12, order=4)
        exact = gauss_legendre_gram(b)
        assert np.max(np.abs(exact - dense_gram(b, 20001))) <= 1e-6
        assert np.max(np.abs(exact - dense_gram(b))) <= 1e-5

    def test_rejects_size_below_order(self):
        with pytest.raises(ValueError, match="size"):
            bspline_basis(3, order=4)

    def test_partition_of_unity_generic(self):
        b = bspline_basis(25, order=4)
        t = np.linspace(0, 1, 301)
        assert np.max(np.abs(b.evaluate(t).sum(axis=1) - 1.0)) <= 1e-10


def design_grids(size, order):
    """Abscissae the design is checked on: uniform grids, the distinct
    knots, points just off the knots, and min-max rescaled raw abscissae
    as read_curves_csv makes them."""
    knots = np.unique(_bspline_knots(size, order))
    near = np.clip(np.concatenate([np.nextafter(knots, -1.0),
                                   np.nextafter(knots, 2.0)]), 0.0, 1.0)
    grids = [np.linspace(0.0, 1.0, m) for m in (2, 3, 7, 96, 201, 1001)]
    grids += [knots, np.unique(np.concatenate([knots, near]))]
    rng = np.random.default_rng(1000 * size + order)
    for _ in range(3):
        raw = np.unique(rng.uniform(-50.0, 50.0, rng.integers(2, 300)))
        pts = (raw - raw[0]) / (raw[-1] - raw[0])
        pts[-1] = 1.0
        grids.append(pts)
    return grids


DESIGN_SHAPES = [(size, order) for order in range(1, 7)
                 for size in range(order, 61)]


class TestBsplineDesign:
    def test_bitwise_equal_to_scipy_design_matrix(self):
        interpolate = pytest.importorskip("scipy.interpolate")
        for size, order in DESIGN_SHAPES:
            knots = _bspline_knots(size, order)
            for x in design_grids(size, order):
                oracle = interpolate.BSpline.design_matrix(
                    x, knots, order - 1, extrapolate=False).toarray()
                ours = _bspline_design(x, size, order)
                assert ours.tobytes() == oracle.tobytes(), (size, order, x)

    @pytest.mark.parametrize("size,order", DESIGN_SHAPES[::7])
    def test_rows_are_a_nonnegative_local_partition_of_unity(self, size,
                                                             order):
        knots = _bspline_knots(size, order)
        for x in design_grids(size, order):
            design = _bspline_design(x, size, order)
            assert design.shape == (x.size, size)
            assert np.all(design >= 0.0)
            assert np.max(np.abs(design.sum(axis=1) - 1.0)) <= 1e-12
            # Row i is zero outside columns ell-k..ell of x's knot span.
            ell = np.minimum(np.searchsorted(knots, x, side="right") - 1,
                             size - 1)
            cols = np.arange(size)
            outside = ((cols < (ell - order + 1)[:, None])
                       | (cols > ell[:, None]))
            assert not design[outside].any()
            assert np.all(np.count_nonzero(design, axis=1) <= order)

    @pytest.mark.parametrize("x", [-1e-12, 1.0 + 1e-12, -np.inf, np.inf,
                                   np.nan])
    def test_abscissa_outside_unit_interval_raises(self, x):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            bspline_basis(8, order=4).evaluate(np.array([0.0, x, 1.0]))


def fit_one(values, grid, basis):
    """Coefficients of one curve observed at the grid points."""
    return fit_sample(values[None, :], grid, basis).coeffs[0]


class TestFitCurve:
    def test_zero_values_zero_coeffs(self):
        g = Grid.uniform(50)
        b = bspline_basis(10)
        c = fit_one(np.zeros(50), g, b)
        assert np.array_equal(c, np.zeros(10))

    def test_exact_recovery_of_fourier_mode(self):
        g = Grid.uniform(101)
        b = fourier_basis(5)
        values = math.sqrt(2.0) * np.cos(2 * np.pi * g.points)
        c = fit_one(values, g, b)
        # independent oracle: normal-equations projection
        design = b.evaluate(g.points)
        oracle = np.linalg.solve(design.T @ design, design.T @ values)
        assert np.max(np.abs(c - np.eye(5)[1])) <= 1e-8
        assert np.max(np.abs(c - oracle)) <= 1e-10

    def test_sin_reconstruction_error(self):
        g = Grid.uniform(96)
        b = bspline_basis(25, order=4)
        c = fit_one(np.sin(g.points), g, b)
        t = np.linspace(0, 1, 1000)
        assert np.max(np.abs(b.evaluate(t) @ c - np.sin(t))) <= 1e-4

    def test_underdetermined_raises(self):
        g = Grid.uniform(10)
        b = bspline_basis(25, order=4)
        with pytest.raises(SingularFitError, match="25"):
            fit_one(np.zeros(10), g, b)

    def test_fit_is_projection(self):
        rng = np.random.default_rng(3)
        g = Grid.uniform(80)
        b = bspline_basis(12)
        coeffs = rng.normal(size=12)
        values = b.evaluate(g.points) @ coeffs
        refit = fit_one(values, g, b)
        assert np.max(np.abs(refit - coeffs)) <= 1e-8

    def test_fit_sample_matches_per_curve_fit(self):
        rng = np.random.default_rng(4)
        g = Grid.uniform(60)
        b = fourier_basis(7)
        values = rng.normal(size=(5, 60))
        s = fit_sample(values, g, b)
        for i in range(5):
            assert np.allclose(s.coeffs[i], fit_one(values[i], g, b))

    def test_samples_compare_by_identity(self):
        coeffs = np.ones((2, 3))
        s = FunctionalSample(coeffs, fourier_basis(3))
        assert s == s and s != FunctionalSample(coeffs, fourier_basis(3))
        assert {s: 1}[s] == 1

    def test_centered_computed_once_and_read_only(self):
        b = fourier_basis(2)
        s = FunctionalSample(np.array([[1.0, 0.0], [3.0, 2.0]]), b)
        c = s.centered
        assert c is s.centered
        assert np.array_equal(c, [[-1.0, -1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="read-only"):
            c[0, 0] = 0.0


class TestDesignMemo:
    @pytest.mark.parametrize("points", [
        np.linspace(0.0, 1.0, 96),
        np.r_[0.0, np.sort(np.random.default_rng(7).uniform(size=40)), 1.0],
    ], ids=["uniform", "irregular"])
    def test_memoised_design_and_smoother_are_fresh_and_read_only(
            self, points):
        basis = bspline_basis(25)
        design = _fit_design(Grid(points), basis)
        smoother = _fit_smoother(Grid(points), basis)
        fresh = basis.evaluate(points)
        assert design.tobytes() == fresh.tobytes()
        assert smoother.tobytes() == np.linalg.pinv(fresh).tobytes()
        # Another grid object with the same points shares the entries.
        assert _fit_design(Grid(points.copy()), basis) is design
        assert _fit_smoother(Grid(points.copy()), basis) is smoother
        for memo in (design, smoother):
            with pytest.raises(ValueError, match="read-only"):
                memo[0, 0] = 1.0
        coeffs = np.random.default_rng(8).normal(size=(3, 25))
        values = FunctionalSample(coeffs, basis).evaluate(Grid(points))
        assert values.tobytes() == (coeffs @ fresh.T).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(points=strictly_increasing_points(), data=st.data())
    def test_grids_share_an_entry_exactly_when_every_point_is_equal(
            self, points, data):
        _fit_design.cache_clear()
        basis = bspline_basis(2, order=2)
        grid = Grid(points)
        assert grid == Grid(points.copy())
        assert hash(grid) == hash(Grid(points.copy()))
        design = _fit_design(grid, basis)
        assert _fit_design(Grid(points.copy()), basis) is design
        # One interior point one ulp up or down, the grid still increasing.
        i = data.draw(st.integers(1, len(points) - 2))
        moved = points.copy()
        moved[i] = np.nextafter(points[i], data.draw(st.sampled_from([0, 1])))
        assume(moved[i - 1] < moved[i] < moved[i + 1])
        other = Grid(moved)
        assert other != grid
        misses = _fit_design.cache_info().misses
        assert _fit_design(other, basis) is not design
        assert _fit_design.cache_info().misses == misses + 1

    def test_read_grid_shares_the_simulators_entry(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 10\nkernel = wiener\npsi = 0.4\nburn_in = 2\n")
        out = tmp_path / "curves.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        sim = Far1Simulator(SimSpec.from_config(cfg.read_text()))
        grid = read_curves_csv(out).grid
        assert grid is not sim.grid
        assert _fit_design(grid, sim.basis) is _fit_design(sim.grid,
                                                           sim.basis)

    @pytest.mark.parametrize("points,match", [
        (np.linspace(0.0, 1.0, 10), "from 10 grid points"),
        (np.r_[np.linspace(0.0, 0.1, 29), 1.0], "design matrix rank"),
    ], ids=["fewer-points", "rank-deficient"])
    def test_coarse_grid_raises_on_every_call(self, points, match):
        grid = Grid(points)
        for _ in range(2):
            with pytest.raises(SingularFitError, match=match):
                fit_sample(np.zeros((1, len(grid))), grid, bspline_basis(25))
            with pytest.raises(SingularFitError, match=match):
                _fit_smoother(grid, bspline_basis(25))


class TestChangeBasis:
    def test_constant_maps_to_first_fourier_mode(self):
        bs = bspline_basis(25, order=4)
        sample = FunctionalSample(np.ones((1, 25)), bs)  # partition of unity
        out = change_basis(sample, fourier_basis(25))
        expected = np.eye(25)[0]
        assert np.max(np.abs(out.coeffs[0] - expected)) <= 1e-8

    def test_round_trip_fourier_mode(self):
        f = fourier_basis(25)
        bs = bspline_basis(25, order=4)
        sample = FunctionalSample(np.eye(25)[[1]], f)
        back = change_basis(change_basis(sample, bs), f)
        assert np.max(np.abs(back.coeffs[0] - np.eye(25)[1])) <= 1e-3

    def test_zero_curve_stays_zero(self):
        sample = FunctionalSample(np.zeros((2, 25)), bspline_basis(25))
        out = change_basis(sample, fourier_basis(25))
        assert np.array_equal(out.coeffs, np.zeros((2, 25)))

    def test_norm_preserved_for_smooth_curves(self):
        rng = np.random.default_rng(9)
        f = fourier_basis(7)  # low-order modes representable in both bases
        coeffs = rng.normal(size=(4, 7))
        sample = FunctionalSample(coeffs, f)
        out = change_basis(sample, bspline_basis(25, order=4))
        norms = lambda s: np.sqrt(np.einsum("ij,jk,ik->i", s.coeffs,
                                            dense_gram(s.basis), s.coeffs))
        a, b = norms(sample), norms(out)
        assert np.all(np.abs(a - b) <= 1e-3 * np.maximum(a, 1e-12))

    def test_same_basis_is_identity(self):
        f = fourier_basis(5)
        sample = FunctionalSample(np.arange(10.0).reshape(2, 5), f)
        assert change_basis(sample, f) is sample

    def test_coarse_grid_rejected(self):
        sample = FunctionalSample(np.ones((1, 25)), bspline_basis(25))
        with pytest.raises(SingularFitError):
            change_basis(sample, fourier_basis(25), 10)

    def test_transform_matrix_shape(self):
        sample = FunctionalSample(np.zeros((3, 5)), fourier_basis(5))
        out = change_basis(sample, bspline_basis(8), 101)
        assert out.coeffs.shape == (3, 8) and out.basis == bspline_basis(8)

    @pytest.mark.parametrize("source,target", [
        (bspline_basis(25, 4), fourier_basis(25)),
        (bspline_basis(12, 4), fourier_basis(40)),
        (fourier_basis(5), bspline_basis(8)),
    ], ids=["B25:4-F25", "B12:4-F40", "F5-B8"])
    def test_repeated_call_matches_fresh_solve_bitwise(self, source, target):
        grid = Grid.uniform(201)
        coeffs = np.random.default_rng(4).normal(size=(6, source.size))
        sample = FunctionalSample(coeffs, source)
        fresh = coeffs @ _fit_matrix(source.evaluate(grid.points).T, grid,
                                     target)
        for _ in range(2):
            out = change_basis(sample, target, 201)
            assert out.coeffs.tobytes() == fresh.tobytes()

    def test_memoised_matrix_is_read_only(self):
        source, target = bspline_basis(25), fourier_basis(25)
        change_basis(FunctionalSample(np.ones((1, 25)), source), target, 201)
        fit = _conversion_matrix(source, target, 201)
        with pytest.raises(ValueError, match="read-only"):
            fit[0, 0] = 1.0


class TestCurveCSV:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "curves.csv"
        g = Grid.uniform(12)
        values = np.random.default_rng(0).normal(size=(3, 12))
        write_curves_csv(path, values, g)
        data = read_curves_csv(path)
        assert np.array_equal(data.values, values)
        assert np.array_equal(data.grid.points, g.points)
        assert data.rescaled is False

    @pytest.mark.parametrize("body", ["1.5,2.0,3.0\n-4.0,5.0,6.25\n",
                                      '1.5,"2.0",3.0\n-4.0,5.0,6.25\n'])
    def test_byte_order_mark_is_skipped(self, tmp_path, body):
        # The second body is not plain numbers, so the csv parser reads the
        # file again from the top, where the mark must be skipped again.
        text = "t=0.0,t=0.5,t=1.0\n" + body
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want, got = read_curves_csv(plain), read_curves_csv(marked)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.grid.points, want.grid.points)
        assert got.rescaled is want.rescaled is False
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode() + b"1,2\n")
        with pytest.raises(CurveCSVError, match="^line 4: expected 3 values"):
            read_curves_csv(marked)

    def test_rescales_raw_abscissae(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("t=1,t=2,t=4\n1.0,2.0,3.0\n")
        data = read_curves_csv(path)
        assert data.rescaled is True
        assert np.allclose(data.grid.points, [0.0, 1.0 / 3.0, 1.0])

    def test_bad_header_reports_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t=0.0,x=0.5,t=1.0\n1,2,3\n")
        with pytest.raises(CurveCSVError, match="column 2"):
            read_curves_csv(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t=0.0,t=1.0\n1.0,2.0\n3.0\n")
        with pytest.raises(CurveCSVError, match="line 3"):
            read_curves_csv(path)

    def test_a_quoted_line_break_counts_in_line_numbers(self, tmp_path):
        # A record's line is the physical line it starts on, so a quoted
        # cell that holds a line break moves the line of every later row.
        path = tmp_path / "bad.csv"
        path.write_text('t=0.0,t=1.0\n"1.0\n",2.0\n3.0,4.0\n5.0,x\n')
        with pytest.raises(CurveCSVError, match="^line 5: .*column 2"):
            read_curves_csv(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t=0.0,t=1.0\noops,2.0\n")
        with pytest.raises(CurveCSVError, match="line 2: .*column 1"):
            read_curves_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_reports_line_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"t=0.0,t=0.5,t=1.0\n1,2,3\n\n4,5,{cell}\n")
        with pytest.raises(CurveCSVError, match="line 4: non-finite value in column 3"):
            read_curves_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_abscissa_reports_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"t=0.0,t=0.5,t={cell}\n1,2,3\n")
        with pytest.raises(CurveCSVError,
                           match="line 1: non-finite abscissa in column 3"):
            read_curves_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CurveCSVError, match="line 1"):
            read_curves_csv(path)

    def test_header_only_file(self, tmp_path, recwarn):
        path = tmp_path / "header.csv"
        path.write_text("t=0.0,t=1.0\n\n")
        with pytest.raises(CurveCSVError, match="line 2: no curve rows found"):
            read_curves_csv(path)
        assert len(recwarn) == 0

    @settings(max_examples=300, deadline=None)
    @given(text=curve_csv_texts())
    def test_read_equals_csv_module_parser(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "curves.csv"
        path.write_bytes(text.encode())
        assert (read_outcome(read_curves_csv, path)
                == read_outcome(csv_parser_read, path))

    def test_writer_bytes_match_csv_module(self, tmp_path):
        specials = [-0.0, 5e-324, 1e-05, 1e16, 1.0, np.nan, np.inf, -np.inf]
        values = np.vstack([specials,
                            np.random.default_rng(1).normal(size=8)])
        grid = Grid(np.array([0.0, 1e-05, 0.1, 0.2, 1 / 3, 0.5, 0.7, 1.0]))
        write_curves_csv(tmp_path / "new.csv", values, grid)
        csv_module_writer(tmp_path / "old.csv", values, grid)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.integers(2, 6).flatmap(lambda width: st.lists(
        st.lists(st.floats(), min_size=width, max_size=width),
        min_size=1, max_size=6)))
    def test_writer_bytes_match_csv_module_for_any_double(self, tmp_path,
                                                         rows):
        # st.floats() draws nan, both infinities, both zeros, subnormals
        # and the extremes, which repr writes, among other doubles.
        values = np.array(rows)
        grid = Grid.uniform(values.shape[1])
        write_curves_csv(tmp_path / "new.csv", values, grid)
        csv_module_writer(tmp_path / "old.csv", values, grid)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    def test_writer_bytes_match_repr_across_magnitudes(self):
        # About 10^5 doubles from 1e-5 to 1e16: log-uniform, in range bit
        # patterns, decimals of few digits, doubles of at most 24
        # significant bits (whose exact decimals make rounding ties and
        # distances equal to the bound, which repr formats), and the 20
        # doubles each side of every power of ten and of two in range,
        # where the digit count, the point or the ulp changes and the
        # shortest digits carry (0.09999999999999999 is the double below
        # 0.1).
        rng = np.random.default_rng(20261020)
        short = rng.integers(1, 1 << 24, 10_000)
        powers = np.r_[10.0 ** np.arange(-5, 17), 2.0 ** np.arange(-16, 54)]
        near = [powers]
        up = down = powers
        for _ in range(20):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0)
            near += [up, down]
        scale = 10.0 ** rng.integers(0, 9, 20_000)
        values = np.concatenate([
            np.concatenate(near),
            10.0 ** rng.uniform(-5, 16, 50_000),
            ((rng.integers(1007, 1077, 20_000) << 52)
             | rng.integers(0, 1 << 52, 20_000)).view(float),
            np.rint(rng.uniform(0, 1e4, 20_000) * scale) / scale,
            np.ldexp(short, rng.integers(-16, 30, short.size)),
        ])
        values *= rng.choice([-1.0, 1.0], values.size)
        values = values[:values.size // 8 * 8].reshape(-1, 8)
        assert 0.09999999999999999 in np.abs(values)
        assert (basis_module._format_rows(values).decode()
                == "".join(",".join(map(repr, row)) + "\n"
                           for row in values.tolist()))

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_writer_bytes_match_csv_module_in_blocks(self, tmp_path, cpus,
                                                     monkeypatch, count):
        # One value per block makes each row a block, so a file of n rows
        # is formatted by min(n, count) processes: n = 0..40 includes fewer
        # rows than CPUs and row counts that the number of processes does
        # not divide.  The workers are forked by the first writes that need
        # them, and every later write reuses them.
        cpus(count)
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(basis_module, "_CSV_BLOCK", 1)
        grid = Grid(np.array([0.0, 1e-05, 0.5, 1.0]))
        rng = np.random.default_rng(count)
        for n in range(41):
            values = rng.normal(size=(n, 4))
            if n:
                values[n // 2] = [-0.0, 5e-324, 1e-05, 1e16]
            write_curves_csv(tmp_path / "new.csv", values, grid)
            csv_module_writer(tmp_path / "old.csv", values, grid)
            assert ((tmp_path / "new.csv").read_bytes()
                    == (tmp_path / "old.csv").read_bytes())
            if n:
                back = read_curves_csv(tmp_path / "new.csv").values
                assert back.tobytes() == values.tobytes()
        assert forks == [os.getpid()] * (count - 1)
        assert len(pool_pids()) == count - 1
        _workers.close()
        assert_no_child()


def split_csv(cpus, monkeypatch, rows=30):
    """Thirty one-row blocks in three runs at three CPUs: the caller
    formats rows 0..9 and two forked workers rows 10..19 and 20..29."""
    cpus(3)
    monkeypatch.setattr(basis_module, "_CSV_BLOCK", 1)
    grid = Grid(np.array([0.0, 0.25, 0.5, 1.0]))
    return np.random.default_rng(rows).normal(size=(rows, 4)), grid


def hook_blocks(monkeypatch, in_workers, in_caller=None):
    """Make write_curves_csv call `in_workers(rows)` in every process but
    the calling one (and `in_caller(rows)` in the calling one) before it
    formats the block `rows`."""
    caller = os.getpid()
    format_rows = basis_module._format_rows

    @functools.wraps(format_rows)  # so that it pickles by the same name
    def hooked(rows):
        if os.getpid() != caller:
            in_workers(rows)
        elif in_caller is not None:
            in_caller(rows)
        return format_rows(rows)

    monkeypatch.setattr(basis_module, "_format_rows", hooked)


def assert_written_as_one_process(tmp_path, values, grid, workers_left):
    """The file's bytes are those of one process writing it, the pool then
    holds `workers_left` workers, and once it is closed no child is left."""
    write_curves_csv(tmp_path / "new.csv", values, grid)
    csv_module_writer(tmp_path / "old.csv", values, grid)
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "old.csv").read_bytes())
    assert len(pool_pids()) == workers_left
    _workers.close()
    assert_no_child()


def worker_blas_threads(item):
    """The OpenBLAS thread count of the process that runs this."""
    return _workers.openblas_threads()[0]()


class TestCurveCSVWorkers:
    def test_block_of_a_killed_worker_is_formatted_by_the_caller(
            self, tmp_path, cpus, monkeypatch):
        values, grid = split_csv(cpus, monkeypatch)
        seen = []  # each worker counts in its own copy

        def kill_mid_run(rows):
            seen.append(rows)
            if len(seen) == 5:  # of the worker's 10 blocks
                os.kill(os.getpid(), signal.SIGKILL)

        hook_blocks(monkeypatch, kill_mid_run)
        assert_written_as_one_process(tmp_path, values, grid, workers_left=0)

    @pytest.mark.parametrize("failing", [1, 2])
    def test_block_of_a_worker_that_cannot_be_forked_is_formatted_by_the_caller(
            self, tmp_path, cpus, monkeypatch, failing):
        values, grid = split_csv(cpus, monkeypatch)
        forks = []
        fork = os.fork

        def fork_fails():
            forks.append(os.getpid())
            if len(forks) == failing:
                raise BlockingIOError("no process left")
            return fork()

        monkeypatch.setattr(os, "fork", fork_fails)
        assert_written_as_one_process(tmp_path, values, grid,
                                      workers_left=failing - 1)
        assert len(forks) == failing

    def test_workers_killed_and_file_untouched_when_the_caller_raises(
            self, tmp_path, cpus, monkeypatch):
        # The workers would sleep for a minute; a BaseException in the
        # caller's block kills them instead of waiting, before the file
        # is opened, and drops them from the pool.
        values, grid = split_csv(cpus, monkeypatch)
        path = tmp_path / "curves.csv"
        path.write_bytes(b"earlier contents\n")
        slept = []  # each worker sleeps once, in its own copy
        busy = []

        def sleep_once(x):
            if not slept:
                slept.append(x)
                time.sleep(60)

        def stop(x):
            busy.extend(pool_pids())
            raise Stop

        hook_blocks(monkeypatch, sleep_once, in_caller=stop)
        start = time.monotonic()
        with pytest.raises(Stop):
            write_curves_csv(path, values, grid)
        assert time.monotonic() - start < 30
        assert path.read_bytes() == b"earlier contents\n"
        assert len(busy) == 2 and pool_pids() == []
        assert_no_child()
        assert_gone(busy)

    def test_workers_flush_none_of_the_callers_files(self, tmp_path, cpus,
                                                     monkeypatch):
        values, grid = split_csv(cpus, monkeypatch)
        with open(tmp_path / "log.txt", "w") as log:
            log.write("written once\n")  # still in the caller's buffer
            # The workers are forked and then exit with this in their copy.
            assert_written_as_one_process(tmp_path, values, grid,
                                          workers_left=2)
        assert (tmp_path / "log.txt").read_text() == "written once\n"

    @pytest.mark.skipif(_workers.openblas_threads() is None,
                        reason="numpy's bundled OpenBLAS not found")
    def test_worker_forked_by_a_write_runs_at_one_blas_thread(
            self, tmp_path, cpus, monkeypatch):
        # A write holds no BLAS count, so its workers are forked at the
        # caller's two threads; they run at one all the same.
        values, grid = split_csv(cpus, monkeypatch)
        get, set_ = _workers.openblas_threads()
        before = get()
        set_(2)
        try:
            write_curves_csv(tmp_path / "curves.csv", values, grid)
            assert len(pool_pids()) == 2
            assert _workers.spread(worker_blas_threads,
                                   [None] * 3) == [2, 1, 1]
        finally:
            set_(before)

    def test_worker_forked_by_a_write_inherits_the_blas_lookup(
            self, tmp_path, cpus, monkeypatch):
        # The lookup globs numpy.libs; each process logs its globs to one
        # file, so a worker that repeated the lookup would show there.
        values, grid = split_csv(cpus, monkeypatch)
        log = tmp_path / "globs.txt"
        glob = _workers.glob.glob

        def logged(pattern):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return glob(pattern)

        monkeypatch.setattr(_workers.glob, "glob", logged)
        _workers.openblas_threads.cache_clear()
        write_curves_csv(tmp_path / "curves.csv", values, grid)
        assert len(pool_pids()) == 2
        assert log.read_text() == f"{os.getpid()}\n"


def curve_text(values, points, *, eol="\n", bom=False, final_eol=True,
               blanks=()):
    """A curve CSV of `values` (rows) on abscissae `points`, each value
    written as its repr; a blank line goes before each row index in
    `blanks`."""
    lines = [",".join(f"t={p!r}" for p in points)]
    for i, row in enumerate(values.tolist()):
        lines += [""] * blanks.count(i) + [",".join(map(repr, row))]
    text = eol.join(lines) + (eol if final_eol else "")
    return (b"\xef\xbb\xbf" if bom else b"") + text.encode()


def warm_pool(count):
    """Pool workers until `count` processes can take a job without a
    fork; usable_cpus() must allow that many."""
    _workers.spread(worker_blas_threads, [None] * count)
    assert _workers.warm_width() == count


def read_at(path, cpus):
    """read_outcome of read_curves_csv at `path` over `cpus` CPUs, with
    the workers pooled beforehand, since a read forks none."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_workers, "usable_cpus", lambda: cpus)
        warm_pool(cpus)
        return read_outcome(read_curves_csv, path)


def parsed_body(path, width):
    """basis._parsed_body of the file at `path`, as read_curves_csv calls
    it."""
    return basis_module._parsed_body(pathlib.Path(path).read_bytes(), width)


def count_ranges(monkeypatch):
    """A list that gets the number of byte ranges of each read."""
    ranges = []
    spread = _workers.spread

    def counted(function, items, *args):
        if function is basis_module._parse_range:
            ranges.append(len(items))
        return spread(function, items, *args)

    monkeypatch.setattr(_workers, "spread", counted)
    return ranges


def hook_loadtxt(monkeypatch, in_workers):
    """Make read_curves_csv call `in_workers()` in every process but the
    calling one before it parses a byte range."""
    caller = os.getpid()
    parse = basis_module._loadtxt_body

    def hooked(fh, width):
        if os.getpid() != caller:
            in_workers()
        return parse(fh, width)

    monkeypatch.setattr(basis_module, "_loadtxt_body", hooked)


class TestCurveCSVRead:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.integers(1, 60), width=st.integers(2, 8),
           count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           eol=st.sampled_from(["\n", "\r\n"]), bom=st.booleans(),
           final_eol=st.booleans(),
           blanks=st.lists(st.integers(0, 60), max_size=4),
           bad=st.sampled_from(["x", "nan", "-inf", "", '"1.5"', "1_0",
                                "١"]))
    def test_split_read_equals_one_process(self, tmp_path_factory,
                                           monkeypatch, fresh_pool, rows,
                                           width, count, seed, eol, bom,
                                           final_eol, blanks, bad):
        # With one value per block, a body of r rows is parsed in min(r,
        # count) byte ranges; the pool keeps the workers of earlier
        # examples.
        monkeypatch.setattr(basis_module, "_CSV_BLOCK", 1)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(
            -300, 300, size=(rows, width))
        values.flat[rng.integers(values.size)] = -0.0
        path = tmp_path_factory.mktemp("csv") / "curves.csv"
        text = curve_text(values, np.linspace(0.0, 1.0, width).tolist(),
                          eol=eol, bom=bom, final_eol=final_eol,
                          blanks=blanks)
        path.write_bytes(text)
        outcome = read_at(path, count)
        assert outcome == read_at(path, 1)
        assert outcome[2] == values.tobytes()
        # ... by np.loadtxt, in row-aligned ranges none of which is sent
        # to the csv parser.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_workers, "usable_cpus", lambda: count)
            parsed = parsed_body(path, width)
        assert parsed is not None and parsed.tobytes() == values.tobytes()
        # A bad last cell is found in the last range, and read as one
        # process reads it: the same values or the same error text.
        tail = eol.encode() if final_eol else b""
        path.write_bytes(text[:len(text) - len(tail)].rsplit(b",", 1)[0]
                         + b"," + bad.encode() + tail)
        assert read_at(path, count) == read_at(path, 1)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=curve_csv_texts())
    def test_split_read_equals_csv_module_parser(self, tmp_path_factory,
                                                 monkeypatch, fresh_pool,
                                                 text):
        # A line that np.loadtxt rejects in any range sends the whole
        # file to the csv parser.
        monkeypatch.setattr(basis_module, "_CSV_BLOCK", 1)
        path = tmp_path_factory.mktemp("csv") / "curves.csv"
        path.write_bytes(text.encode())
        assert read_at(path, 3) == read_outcome(csv_parser_read, path)

    def test_relative_path_is_read_from_the_callers_directory(
            self, tmp_path, cpus, monkeypatch):
        # The workers are forked in `first` and stay there; the caller
        # then reads `curves.csv` in `second`, which `first` also holds.
        cpus(3)
        monkeypatch.setattr(basis_module, "_CSV_BLOCK", 1)
        grid = Grid(np.array([0.0, 0.5, 1.0]))
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        monkeypatch.chdir(first)
        write_curves_csv("curves.csv", np.zeros((30, 3)), grid)
        assert read_curves_csv("curves.csv").values.tobytes() == bytes(720)
        assert len(pool_pids()) == 2
        monkeypatch.chdir(second)
        values = np.random.default_rng(6).normal(size=(30, 3))
        write_curves_csv("curves.csv", values, grid)
        assert read_curves_csv("curves.csv").values.tobytes() \
            == values.tobytes()

    def test_range_of_a_killed_worker_is_parsed_by_the_caller(
            self, tmp_path, cpus, monkeypatch):
        values, grid = split_csv(cpus, monkeypatch)
        write_curves_csv(tmp_path / "curves.csv", values, grid)
        _workers.close()  # forked again below, with the hook
        hook_loadtxt(monkeypatch,
                     lambda: os.kill(os.getpid(), signal.SIGKILL))
        warm_pool(3)
        back = read_curves_csv(tmp_path / "curves.csv").values
        assert back.tobytes() == values.tobytes()
        assert pool_pids() == []
        assert_no_child()

    @pytest.mark.parametrize("failing", [1, 2])
    def test_a_read_forks_no_worker_the_pool_lacks(
            self, tmp_path, cpus, monkeypatch, failing):
        # A worker that could not be forked is not forked by a read: at
        # three CPUs the body is cut into one range per process the pool
        # can serve, and the values are the same.
        values, grid = split_csv(cpus, monkeypatch)
        path = tmp_path / "curves.csv"
        path.write_bytes(curve_text(values, grid.points.tolist()))
        forks = []
        fork = os.fork

        def fork_fails():
            forks.append(os.getpid())
            if len(forks) == failing:
                raise BlockingIOError("no process left")
            return fork()

        monkeypatch.setattr(os, "fork", fork_fails)
        _workers.spread(worker_blas_threads, [None] * 3)
        assert len(forks) == failing and len(pool_pids()) == failing - 1
        ranges = count_ranges(monkeypatch)
        assert read_curves_csv(path).values.tobytes() == values.tobytes()
        assert len(forks) == failing and ranges == [failing]
        _workers.close()
        assert_no_child()

    def test_a_file_replaced_during_the_read_is_read_as_first_opened(
            self, tmp_path, cpus, monkeypatch):
        # The workers die in their ranges, and the caller renames another
        # file of the same layout over this one while it parses its own;
        # it then parses the workers' ranges from the bytes it read before
        # the rename, so the values are those of the file first opened.
        values, grid = split_csv(cpus, monkeypatch)
        values = np.random.default_rng(8).integers(1, 9, size=values.shape)
        path, other = tmp_path / "curves.csv", tmp_path / "other.csv"
        path.write_bytes(curve_text(values * 1.0, grid.points.tolist()))
        other.write_bytes(curve_text(10.0 - values, grid.points.tolist()))
        assert len(other.read_bytes()) == len(path.read_bytes())
        caller = os.getpid()
        parse = basis_module._loadtxt_body

        def hooked(fh, width):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            if other.exists():
                os.replace(other, path)
            return parse(fh, width)

        monkeypatch.setattr(basis_module, "_loadtxt_body", hooked)
        warm_pool(3)
        ranges = count_ranges(monkeypatch)
        back = read_curves_csv(path).values
        assert ranges == [3] and not other.exists()
        assert back.tobytes() == (values * 1.0).tobytes()

    @pytest.mark.parametrize("curves,split", [(200, False), (240, True)])
    @pytest.mark.parametrize("blank", [False, True])
    def test_a_body_of_two_blocks_is_split_over_pooled_workers(
            self, tmp_path, cpus, monkeypatch, curves, split, blank):
        # A read forks nothing; once a worker is pooled, a body of two
        # blocks or more gives it a range, which kills it here, and the
        # caller parses that range as well.  A blank line before the rows
        # does not count as the row that sets the estimate.
        cpus(2)
        path = tmp_path / "curves.csv"
        values = np.random.default_rng(curves).normal(size=(curves, 96))
        path.write_bytes(curve_text(values, Grid.uniform(96).points.tolist(),
                                    blanks=(0,) * blank))
        forks = count_forks(monkeypatch)
        hook_loadtxt(monkeypatch,
                     lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert read_curves_csv(path).values.tobytes() == values.tobytes()
        assert forks == []
        _workers.spread(worker_blas_threads, [None] * 2)
        assert read_curves_csv(path).values.tobytes() == values.tobytes()
        assert len(forks) == 1 and len(pool_pids()) == (0 if split else 1)

    def test_the_caller_opens_the_input_once(self, tmp_path, cpus,
                                             monkeypatch):
        # The body of 240 curves is split over the caller and a pooled
        # worker, which parses the bytes it is sent and opens nothing.
        cpus(2)
        path = tmp_path / "curves.csv"
        values = np.random.default_rng(9).normal(size=(240, 96))
        path.write_bytes(curve_text(values, Grid.uniform(96).points.tolist()))
        warm_pool(2)
        opens = []
        real_open = open

        def counted(file, *args, **kwargs):
            if str(file) == str(path):
                opens.append(os.getpid())
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counted)
        ranges = count_ranges(monkeypatch)
        assert read_curves_csv(path).values.tobytes() == values.tobytes()
        assert opens == [os.getpid()] and ranges == [2]

    @pytest.mark.parametrize("count", [1, 3])
    def test_a_byte_that_is_not_utf8_is_named_by_line_and_column(
            self, tmp_path, capsys, fresh_pool, count):
        # 400 curves of 96 values: three ranges at three CPUs.  Line 20
        # starts well past the first 8 KiB, which the csv parser decodes
        # as one chunk; a header error there still wins over the byte.
        path = tmp_path / "curves.csv"
        values = np.random.default_rng(10).normal(size=(400, 96))
        lines = curve_text(values, Grid.uniform(96).points.tolist()).split(
            b"\n")
        assert len(b"\n".join(lines[:19])) > 8192

        def with_byte(line, column, header=None):
            text = [header or lines[0]] + lines[1:]
            cells = text[line - 1].split(b",")
            cells[column - 1] = cells[column - 1][:3] + b"\xff" \
                + cells[column - 1][3:]
            text[line - 1] = b",".join(cells)
            path.write_bytes(b"\n".join(text))
            return read_at(path, count)

        assert with_byte(20, 5) == (
            "error", "line 20: byte 0xff in column 5 is not UTF-8")
        assert main(["test", str(path), "--d", "1"]) == 2
        assert capsys.readouterr().err == (
            "input error: line 20: byte 0xff in column 5 is not UTF-8\n")
        assert with_byte(1, 3) == (
            "error", "line 1: byte 0xff in column 3 is not UTF-8")
        bad_header = lines[0].replace(b"t=0.0,", b"x=0.0,")
        assert with_byte(20, 5, bad_header) == (
            "error", "line 1: header column 1 must look like 't=<value>', "
            "got 'x=0.0'")

    @pytest.mark.parametrize("line, column", [(2, 1), (1, 2), (7, 4)])
    def test_an_unterminated_quote_is_an_input_error(self, tmp_path, capsys,
                                                     line, column):
        # 400 curves of 96 values: the quote's field runs past the csv
        # parser's field limit (128 KiB), which it reports as csv.Error.
        path = tmp_path / "curves.csv"
        values = np.random.default_rng(11).normal(size=(400, 96))
        lines = curve_text(values, Grid.uniform(96).points.tolist()).split(
            b"\n")
        cells = lines[line - 1].split(b",")
        cells[column - 1] = b'"' + cells[column - 1]
        lines[line - 1] = b",".join(cells)
        path.write_bytes(b"\n".join(lines))
        message = f"line {line}: field larger than field limit"
        outcome = read_outcome(read_curves_csv, path)
        assert outcome[0] == "error" and outcome[1].startswith(message)
        assert main(["test", str(path), "--d", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {message}")

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="glibc's dynamic mmap threshold")
    def test_a_warm_read_takes_no_page_faults(self, tmp_path):
        # In a fresh process that has run no other job, the first read
        # sets the heap policy before it reads the file's bytes, so it
        # grows the heap to hold the bytes and the body slice together,
        # about 4 MB at 1000 x 96 curves (1100-1200 minor faults), and
        # the second read reuses the heap.  With the policy set after the
        # bytes are read, the second read takes about 920; under glibc's
        # default thresholds every read takes about 1100.
        path = tmp_path / "curves.csv"
        path.write_bytes(curve_text(np.random.default_rng(12).normal(
            size=(1000, 96)), Grid.uniform(96).points.tolist()))
        script = (
            "import resource, sys\n"
            "from funcusum.basis import read_curves_csv\n"
            "read_curves_csv(sys.argv[1])\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "read_curves_csv(sys.argv[1])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt "
            "- before)\n")
        src = pathlib.Path(basis_module.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)], capture_output=True,
            text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 100

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("count", [2, 3])
    def test_a_fifo_reads_like_the_file_on_the_split_path(
            self, tmp_path, cpus, monkeypatch, count):
        cpus(count)
        path, fifo = tmp_path / "curves.csv", tmp_path / "curves.fifo"
        os.mkfifo(fifo)
        values = np.random.default_rng(count).normal(size=(340, 96))
        text = curve_text(values, Grid.uniform(96).points.tolist())
        warm_pool(count)

        def through_fifo(data):
            path.write_bytes(data)
            writer = threading.Thread(target=fifo.write_bytes, args=(data,))
            writer.start()
            try:
                return read_outcome(read_curves_csv, fifo)
            finally:
                writer.join()

        ranges = count_ranges(monkeypatch)
        outcome = through_fifo(text)
        assert ranges == [count]
        assert outcome == read_outcome(read_curves_csv, path)
        assert outcome[2] == values.tobytes()
        bad = text[:-1].rsplit(b",", 1)[0] + b",x\n"
        outcome = through_fifo(bad)
        assert outcome[0] == "error"
        assert outcome == read_outcome(read_curves_csv, path)

    def test_cli_test_forks_no_worker(self, tmp_path):
        # `python -m funcusum.cli test`, told it has three usable CPUs and
        # blocks of one curve, reads 400 curves in one process: an exit
        # hook that runs before the pool's own prints the forks made.
        path = tmp_path / "curves.csv"
        path.write_bytes(curve_text(np.random.default_rng(7).normal(
            size=(400, 96)), Grid.uniform(96).points.tolist()))
        script = (
            "import atexit, os, runpy, sys\n"
            "from funcusum import _workers, basis\n"
            "_workers.usable_cpus = lambda: 3\n"
            "basis._CSV_BLOCK = 96\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "atexit.register(lambda: print('forks', len(forks),\n"
            "                              len(_workers._pool)))\n"
            "sys.argv = ['funcusum', 'test', sys.argv[1], '--d', '2']\n"
            "runpy.run_module('funcusum.cli', run_name='__main__')\n")
        src = pathlib.Path(basis_module.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)], capture_output=True,
            text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "forks 0 0"
