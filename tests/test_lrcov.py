"""Lag-window long-run covariance and its eigenstructure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcusum.basis import FunctionalSample, bspline_basis, change_basis, fourier_basis
from funcusum.lrcov import (
    _KERNELS,
    LagWindowKernel,
    _abs_sorted_eigh,
    default_bandwidth,
    lag_cov,
    lrcov_estimate,
)
from funcusum.simulate import Far1Simulator, SimSpec, calibrate_kernel


def iid_sample(n, j, seed):
    rng = np.random.default_rng(seed)
    return FunctionalSample(rng.normal(size=(n, j)), fourier_basis(j))


class TestLagWindowKernel:
    def test_plain_is_indicator(self):
        k = LagWindowKernel.from_name("plain")
        x = np.array([-1.5, -1.0, 0.0, 0.3, 1.0, 1.01])
        assert np.array_equal(k.weight(x), [0, 1, 1, 1, 1, 0])

    def test_bartlett_triangle(self):
        k = LagWindowKernel.from_name("bartlett")
        assert np.allclose(k.weight(np.array([0.0, 0.5, 1.0, 2.0])),
                           [1.0, 0.5, 0.0, 0.0])

    def test_parzen_piecewise_cubic(self):
        k = LagWindowKernel.from_name("parzen")
        assert k.weight(np.array(0.5)) == pytest.approx(0.25)
        assert k.weight(np.array(0.75)) == pytest.approx(2 * 0.25**3)
        assert k.weight(np.array(0.0)) == 1.0

    def test_flattop_plateau_then_linear(self):
        k = LagWindowKernel.from_name("flattop")
        assert np.allclose(k.weight(np.array([0.2, 0.5, 0.75, 1.0, 1.5])),
                           [1.0, 1.0, 0.5, 0.0, 0.0])

    @given(st.sampled_from(["plain", "bartlett", "parzen", "flattop"]),
           st.floats(-3.0, 3.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_bounded_unit_at_zero(self, kind, x):
        k = LagWindowKernel.from_name(kind)
        assert k.weight(np.array(x)) == k.weight(np.array(-x))
        assert 0.0 <= k.weight(np.array(x)) <= 1.0
        assert k.weight(np.array(0.0)) == 1.0
        assert k.weight(np.array(1.0 + abs(x) + 1e-9)) == 0.0

    @given(st.sampled_from(sorted(_KERNELS)),
           st.floats(min_value=1.0, max_value=1e100, exclude_min=True),
           st.floats(-1.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_window_vanishes_outside_unit_support(self, kind, outside, inside):
        # lrcov_estimate stops the lag sum at floor(h) on this property alone
        k = LagWindowKernel.from_name(kind)
        assert k.weight(np.array(0.0)) == 1.0
        assert 0.0 <= k.weight(np.array(inside)) <= 1.0
        assert np.array_equal(k.weight(np.array([outside, -outside])),
                              [0.0, 0.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            LagWindowKernel.from_name("epanechnikov")


class TestLagCov:
    def test_constant_sample_gives_zero(self):
        s = FunctionalSample(np.tile([1.0, -2.0, 0.5], (8, 1)), fourier_basis(3))
        for r in range(8):
            assert np.array_equal(lag_cov(s, r), np.zeros((3, 3)))

    def test_max_lag_single_summand(self):
        s = iid_sample(6, 4, seed=1)
        a = s.coeffs - s.coeffs.mean(axis=0)
        expected = np.outer(a[0], a[5]) / 6
        assert np.allclose(lag_cov(s, 5), expected, atol=1e-15)
        assert np.linalg.matrix_rank(lag_cov(s, 5)) <= 1

    def test_iid_lag_one_small(self):
        s = iid_sample(5000, 3, seed=0)
        assert np.max(np.abs(lag_cov(s, 1))) <= 0.05

    def test_lag_out_of_range(self):
        s = iid_sample(6, 3, seed=2)
        with pytest.raises(ValueError, match="0 <= r < n"):
            lag_cov(s, 6)
        with pytest.raises(ValueError):
            lag_cov(s, -1)

    def test_requires_orthonormal_basis(self):
        s = FunctionalSample(np.zeros((5, 10)), bspline_basis(10))
        with pytest.raises(ValueError, match="orthonormal"):
            lag_cov(s, 0)

    def test_lag_zero_matches_numpy_cov_oracle(self):
        s = iid_sample(200, 4, seed=3)
        oracle = np.cov(s.coeffs.T, bias=True)
        assert np.allclose(lag_cov(s, 0), oracle, atol=1e-12)


class TestDefaultBandwidth:
    def test_values(self):
        assert default_bandwidth(256) == 4
        assert default_bandwidth(100) == 3
        assert default_bandwidth(10000) == 10

    def test_small_n_guard(self):
        with pytest.raises(ValueError, match="n >= 2"):
            default_bandwidth(1)


class TestEigenDecompose:
    """The eigendecomposition lrcov_estimate runs: |lambda| sorted descending,
    largest-magnitude coefficient of each eigenvector positive."""

    def test_identity(self):
        vals, vecs = _abs_sorted_eigh(np.eye(3))
        assert np.array_equal(vals, [1.0, 1.0, 1.0])

    def test_absolute_value_convention_reorders(self):
        vals, vecs = _abs_sorted_eigh(np.diag([2.0, -3.0, 1.0]))
        assert np.array_equal(vals, [3.0, 2.0, 1.0])
        assert np.array_equal(vecs[:, 0], [0, 1, 0])
        assert np.array_equal(vecs[:, 1], [1, 0, 0])
        assert np.array_equal(vecs[:, 2], [0, 0, 1])

    def test_reconstruction_with_signed_eigenvalues(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(10, 10))
        c = 0.5 * (m + m.T)
        vals, vecs = _abs_sorted_eigh(c)
        recon = np.zeros((10, 10))
        for lam, u in zip(vals, vecs.T):
            sign = np.sign(u @ c @ u) or 1.0
            recon += sign * lam * np.outer(u, u)
        assert np.max(np.abs(recon - c)) <= 1e-8

    def test_eigenfunctions_orthonormal(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(6, 6))
        vals, vecs = _abs_sorted_eigh(m + m.T)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(6))) <= 1e-8


class TestLrcovEstimate:
    def test_h_zero_equals_lag_zero_exactly(self):
        s = iid_sample(80, 6, seed=4)
        est = lrcov_estimate(s, LagWindowKernel.from_name("plain"), 0.0)
        assert np.array_equal(est.cov, lag_cov(s, 0))

    def test_cov_bitwise_symmetric(self):
        s = iid_sample(120, 5, seed=5)
        est = lrcov_estimate(s, LagWindowKernel.from_name("bartlett"), 4.0)
        assert np.array_equal(est.cov, est.cov.T)

    def test_rank_one_sample_recovers_structure(self):
        rng = np.random.default_rng(6)
        v = np.array([1.0, 0.0, 2.0]) / math.sqrt(5.0)
        coeffs = rng.normal(size=5000)[:, None] * v[None, :]
        s = FunctionalSample(coeffs, fourier_basis(3))
        est = lrcov_estimate(s, LagWindowKernel.from_name("plain"), 0.0)
        assert est.eigvals[0] == pytest.approx(1.0, abs=0.1)
        assert est.eigvals[1] <= 0.05
        v1 = est.eigvecs[:, 0]
        assert min(np.linalg.norm(v1 - v), np.linalg.norm(v1 + v)) <= 0.1

    def test_positive_dependence_inflates_leading_eigenvalue(self):
        spec = SimSpec(n=200, kernel=calibrate_kernel("wiener", 0.5))
        f25 = fourier_basis(25)
        bartlett = LagWindowKernel.from_name("bartlett")
        h = 200 ** 0.25
        sim = Far1Simulator(spec)
        diffs = []
        for rep in range(200):
            raw = sim.generate(seed=(50, rep))
            s = change_basis(raw, f25)
            lam_h = lrcov_estimate(s, bartlett, h).eigvals[0]
            lam_0 = lrcov_estimate(s, bartlett, 0.0).eigvals[0]
            diffs.append(lam_h - lam_0)
        assert np.mean(diffs) > 0.0

    def test_negative_bandwidth_rejected(self):
        s = iid_sample(20, 3, seed=9)
        with pytest.raises(ValueError, match="bandwidth"):
            lrcov_estimate(s, LagWindowKernel.from_name("plain"), -1.0)

    def test_eigvals_nonnegative_descending(self):
        s = iid_sample(60, 8, seed=11)
        est = lrcov_estimate(s, LagWindowKernel.from_name("parzen"), 3.0)
        assert np.all(est.eigvals >= 0.0)
        assert np.all(np.diff(est.eigvals) <= 1e-15)

    def test_shift_invariance(self):
        s = iid_sample(50, 4, seed=12)
        shifted = FunctionalSample(s.coeffs + np.array([5.0, -1.0, 2.0, 0.25]),
                                   s.basis)
        k = LagWindowKernel.from_name("plain")
        a = lrcov_estimate(s, k, 2.0).cov
        b = lrcov_estimate(shifted, k, 2.0).cov
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_scale_equivariance(self):
        s = iid_sample(50, 4, seed=13)
        doubled = FunctionalSample(3.0 * s.coeffs, s.basis)
        k = LagWindowKernel.from_name("bartlett")
        a = lrcov_estimate(s, k, 2.0)
        b = lrcov_estimate(doubled, k, 2.0)
        assert np.allclose(b.cov, 9.0 * a.cov, atol=1e-12)
        assert np.allclose(b.eigvals, 9.0 * a.eigvals, atol=1e-12)
        assert np.allclose(np.abs(b.eigvecs), np.abs(a.eigvecs), atol=1e-9)

    def test_error_shrinks_with_sample_size(self):
        v = np.eye(3)[1]
        target = np.outer(v, v)
        k = LagWindowKernel.from_name("plain")
        errs = {}
        for n in (500, 8000):
            per_rep = []
            for rep in range(50):
                rng = np.random.default_rng((14, n, rep))
                coeffs = rng.normal(size=n)[:, None] * v[None, :]
                coeffs += 0.1 * rng.normal(size=(n, 3))
                s = FunctionalSample(coeffs, fourier_basis(3))
                est = lrcov_estimate(s, k, 0.0)
                expected = target + 0.01 * np.eye(3)
                per_rep.append(np.linalg.norm(est.cov - expected))
            errs[n] = np.median(per_rep)
        assert errs[8000] <= errs[500] / 2.0

