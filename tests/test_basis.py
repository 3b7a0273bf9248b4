"""Bases, quadrature, smoothing and basis conversion."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from funcusum import basis as basis_module
from funcusum.basis import (
    Curve,
    CurveCSVError,
    FunctionalSample,
    Grid,
    SingularFitError,
    _conversion_matrix,
    _fit_matrix,
    bspline_basis,
    change_basis,
    fit_curve,
    fit_sample,
    fourier_basis,
    read_curves_csv,
    write_curves_csv,
)

from conftest import dense_gram


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
    spans = np.unique(basis.knots)
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


class TestFitCurve:
    def test_zero_values_zero_coeffs(self):
        g = Grid.uniform(50)
        b = bspline_basis(10)
        c = fit_curve(np.zeros(50), g, b)
        assert np.array_equal(c.coeffs, np.zeros(10))

    def test_exact_recovery_of_fourier_mode(self):
        g = Grid.uniform(101)
        b = fourier_basis(5)
        values = math.sqrt(2.0) * np.cos(2 * np.pi * g.points)
        c = fit_curve(values, g, b)
        # independent oracle: normal-equations projection
        design = b.evaluate(g.points)
        oracle = np.linalg.solve(design.T @ design, design.T @ values)
        assert np.max(np.abs(c.coeffs - np.eye(5)[1])) <= 1e-8
        assert np.max(np.abs(c.coeffs - oracle)) <= 1e-10

    def test_sin_reconstruction_error(self):
        g = Grid.uniform(96)
        b = bspline_basis(25, order=4)
        c = fit_curve(np.sin(g.points), g, b)
        t = np.linspace(0, 1, 1000)
        assert np.max(np.abs(c(t) - np.sin(t))) <= 1e-4

    def test_underdetermined_raises(self):
        g = Grid.uniform(10)
        b = bspline_basis(25, order=4)
        with pytest.raises(SingularFitError, match="25"):
            fit_curve(np.zeros(10), g, b)

    def test_fit_is_projection(self):
        rng = np.random.default_rng(3)
        g = Grid.uniform(80)
        b = bspline_basis(12)
        coeffs = rng.normal(size=12)
        values = Curve(coeffs, b)(g.points)
        refit = fit_curve(values, g, b)
        assert np.max(np.abs(refit.coeffs - coeffs)) <= 1e-8

    def test_fit_sample_matches_per_curve_fit(self):
        rng = np.random.default_rng(4)
        g = Grid.uniform(60)
        b = fourier_basis(7)
        values = rng.normal(size=(5, 60))
        s = fit_sample(values, g, b)
        for i in range(5):
            assert np.allclose(s.coeffs[i], fit_curve(values[i], g, b).coeffs)

    def test_centered_computed_once_and_read_only(self):
        b = fourier_basis(2)
        s = FunctionalSample(np.array([[1.0, 0.0], [3.0, 2.0]]), b)
        c = s.centered()
        assert c is s.centered()
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
            change_basis(sample, fourier_basis(25), Grid.uniform(10))

    def test_transform_matrix_shape(self):
        sample = FunctionalSample(np.zeros((3, 5)), fourier_basis(5))
        out = change_basis(sample, bspline_basis(8), Grid.uniform(101))
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
            out = change_basis(sample, target, Grid.uniform(201))
            assert out.coeffs.tobytes() == fresh.tobytes()

    def test_memoised_matrix_is_read_only(self):
        source, target = bspline_basis(25), fourier_basis(25)
        grid = Grid.uniform(201)
        change_basis(FunctionalSample(np.ones((1, 25)), source), target, grid)
        fit = _conversion_matrix(source, target, grid.points.tobytes())
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
