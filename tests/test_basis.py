"""Bases, quadrature, smoothing and basis conversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcusum.basis import (
    Basis,
    BasisMismatchError,
    Curve,
    CurveCSVError,
    FunctionalSample,
    Grid,
    SingularFitError,
    bspline_basis,
    change_basis,
    fit_curve,
    fit_sample,
    fourier_basis,
    inner_product,
    read_curves_csv,
    write_curves_csv,
)


def dense_gram(basis, num_points=2001):
    """Trapezoid-quadrature Gram matrix, independent of Basis.gram."""
    t = np.linspace(0.0, 1.0, num_points)
    design = basis.evaluate(t)
    w = np.full(num_points, 1.0 / (num_points - 1))
    w[0] = w[-1] = 0.5 / (num_points - 1)
    return design.T @ (w[:, None] * design)


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
        assert b.gram.shape == (1, 1) and b.gram[0, 0] == 1.0

    def test_sin_cos_orthogonal_by_quadrature(self):
        b = fourier_basis(3)
        t = np.linspace(0, 1, 1001)
        design = b.evaluate(t)
        ip = np.trapezoid(design[:, 1] * design[:, 2], t)
        assert abs(ip) <= 1e-8

    def test_gram_is_identity_vs_quadrature_oracle(self):
        b = fourier_basis(25)
        assert np.max(np.abs(dense_gram(b) - np.eye(25))) <= 1e-8
        assert np.array_equal(b.gram, np.eye(25))

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
        assert b.gram == pytest.approx(np.array([[1.0]]), abs=1e-12)

    def test_single_cubic_span_partition_of_unity(self):
        b = bspline_basis(4, order=4)
        t = np.linspace(0, 1, 101)
        assert np.max(np.abs(b.evaluate(t).sum(axis=1) - 1.0)) <= 1e-10

    def test_gram_banded_by_local_support(self):
        b = bspline_basis(25, order=4)
        i, j = np.indices((25, 25))
        off_band = np.abs(i - j) >= 4  # supports overlap iff |i-j| < order
        assert np.max(np.abs(b.gram[off_band])) <= 1e-12
        assert np.min(np.abs(np.diagonal(b.gram))) > 0.0

    def test_gram_matches_quadrature_oracle(self):
        b = bspline_basis(12, order=4)
        assert np.max(np.abs(b.gram - dense_gram(b, 20001))) <= 1e-6

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


class TestInnerProduct:
    def test_fourier_orthonormality(self):
        b = fourier_basis(3)
        phi1 = Curve(np.eye(3)[0], b)
        phi2 = Curve(np.eye(3)[1], b)
        phi3 = Curve(np.eye(3)[2], b)
        assert inner_product(phi1, phi1) == 1.0
        assert inner_product(phi2, phi3) == 0.0

    def test_bspline_pair_matches_quadrature(self):
        b = bspline_basis(9, order=4)
        u = Curve(np.eye(9)[3], b)
        v = Curve(np.eye(9)[4], b)
        t = np.linspace(0, 1, 40001)
        oracle = np.trapezoid(u(t) * v(t), t)
        assert inner_product(u, v) == pytest.approx(oracle, abs=1e-8)

    def test_basis_mismatch_raises(self):
        u = Curve(np.zeros(3), fourier_basis(3))
        v = Curve(np.zeros(4), fourier_basis(4))
        with pytest.raises(BasisMismatchError):
            inner_product(u, v)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_is_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        b = bspline_basis(8)
        u = Curve(rng.normal(size=8), b)
        v = Curve(rng.normal(size=8), b)
        assert inner_product(u, v) == inner_product(v, u)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_self_inner_product_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        b = bspline_basis(10)
        u = Curve(1e-3 * rng.normal(size=10), b)
        assert inner_product(u, u) >= -1e-12


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
        for i in range(4):
            a = sample.curve(i).norm()
            b = out.curve(i).norm()
            assert abs(a - b) <= 1e-3 * max(a, 1e-12)

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


class TestCurveAlgebra:
    def test_add_sub_scale(self):
        b = fourier_basis(4)
        u = Curve(np.array([1.0, 2.0, 0.0, -1.0]), b)
        v = Curve(np.array([0.5, 0.0, 3.0, 1.0]), b)
        assert np.allclose((u + v).coeffs, [1.5, 2.0, 3.0, 0.0])
        assert np.allclose((u - v).coeffs, [0.5, 2.0, -3.0, -2.0])
        assert np.allclose((2.0 * u).coeffs, [2.0, 4.0, 0.0, -2.0])

    def test_norm_orthonormal(self):
        b = fourier_basis(3)
        u = Curve(np.array([3.0, 4.0, 0.0]), b)
        assert u.norm() == pytest.approx(5.0, abs=1e-12)

    def test_sample_mean(self):
        b = fourier_basis(2)
        s = FunctionalSample(np.array([[1.0, 0.0], [3.0, 2.0]]), b)
        assert np.allclose(s.mean().coeffs, [2.0, 1.0])


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
