"""Bases, quadrature, smoothing and basis conversion."""

import csv
import math
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
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
    _fit_matrix,
    bspline_basis,
    change_basis,
    fit_sample,
    fourier_basis,
    read_curves_csv,
    write_curves_csv,
)

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

    def test_centered_computed_once_and_read_only(self):
        b = fourier_basis(2)
        s = FunctionalSample(np.array([[1.0, 0.0], [3.0, 2.0]]), b)
        c = s.centered
        assert c is s.centered
        assert np.array_equal(c, [[-1.0, -1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="read-only"):
            c[0, 0] = 0.0


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

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_writer_bytes_match_csv_module_in_blocks(self, tmp_path, cpus,
                                                     monkeypatch, count):
        # One value per block, so a file of n rows is formatted by
        # min(n, count) processes: n = 0..40 includes fewer rows than CPUs
        # and row counts that the number of blocks does not divide.  The
        # workers are forked by the first writes that need them, and every
        # later write reuses them.
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
    """Three blocks of ten rows at three CPUs: the caller formats rows
    0..9 and two forked workers rows 10..19 and 20..29."""
    cpus(3)
    monkeypatch.setattr(basis_module, "_CSV_BLOCK", 1)
    grid = Grid(np.array([0.0, 0.25, 0.5, 1.0]))
    return np.random.default_rng(rows).normal(size=(rows, 4)), grid


def hook_repr(monkeypatch, in_workers, in_caller=None):
    """Make write_curves_csv call `in_workers(x)` in every process but the
    calling one (and `in_caller(x)` in the calling one) before it formats
    the value x."""
    caller = os.getpid()

    def hooked(x):
        if os.getpid() != caller:
            in_workers(x)
        elif in_caller is not None:
            in_caller(x)
        return repr(x)

    monkeypatch.setattr(basis_module, "repr", hooked, raising=False)


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


def worker_blas_threads():
    """The OpenBLAS thread count of the process that runs this."""
    return _workers.openblas_threads()[0]()


class TestCurveCSVWorkers:
    def test_block_of_a_killed_worker_is_formatted_by_the_caller(
            self, tmp_path, cpus, monkeypatch):
        values, grid = split_csv(cpus, monkeypatch)
        seen = []  # each worker counts in its own copy

        def kill_mid_block(x):
            seen.append(x)
            if len(seen) == 20:
                os.kill(os.getpid(), signal.SIGKILL)

        hook_repr(monkeypatch, kill_mid_block)
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

        hook_repr(monkeypatch, sleep_once, in_caller=stop)
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
            assert _workers.shares(worker_blas_threads, [()] * 3) == [2, 1, 1]
        finally:
            set_(before)
