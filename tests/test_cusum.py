"""Weighted CUSUM statistic, limit-law calibration, change locators."""

import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from funcusum.basis import (FunctionalSample, _conversion_matrix, bspline_basis,
                            fourier_basis)
from funcusum.cusum import (
    ApproximationFailureError,
    _fully_functional_max,
    _tail_peak,
    gumbel_critical,
    gumbel_pvalue,
    normalizers,
    run_test,
    scores,
    statistic,
    vostrikova_critical,
    vostrikova_pvalue,
    vostrikova_tail,
)
from funcusum.cusum import TestConfig as Config
from funcusum.cusum import TestResult as Result
from funcusum.harness import ExperimentGrid, run_cell
from funcusum.lrcov import _KERNELS, lrcov_estimate
from funcusum.simulate import (Far1Simulator, SimSpec, _base_sq_norm,
                               calibrate_kernel, make_change)


def naive_scores(sample, eigvecs, d):
    """Direct O(n^2 d) double summation of the L2 inner products
    <X_i - mean, v_r>; in an orthonormal basis each is the dot product of
    the coefficient vectors."""
    n = len(sample)
    mean = sample.coeffs.mean(axis=0)
    out = np.zeros((n - 1, d))
    for k in range(1, n):
        for r in range(d):
            acc = 0.0
            for i in range(k):
                acc += float((sample.coeffs[i] - mean) @ eigvecs[:, r])
            out[k - 1, r] = acc / math.sqrt(n)
    return out


def standardized(sample, kernel, h, d):
    """The standardized statistic and its locator, stage by stage."""
    _, lam, vecs = lrcov_estimate(sample, kernel, h)
    return statistic(scores(sample, vecs, d), lam[:d])


@st.composite
def invariance_cases(draw):
    """A random sample with n, J, d, h and lag kernel, drawn so that the
    leading d long-run eigenvalues stay away from zero (n well above J)."""
    j = draw(st.integers(1, 8))
    d = draw(st.integers(1, j))
    n = draw(st.integers(j + 10, 60))
    h = draw(st.sampled_from([0.0, 1.0, 2.5, 4.0]))
    kernel = draw(st.sampled_from(sorted(_KERNELS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng, rng.normal(size=(n, j)), d, h, kernel


def scalar_weighted_cusum(x, lam):
    """Classical univariate weighted CUSUM, plain-Python reference."""
    n = len(x)
    xbar = sum(x) / n
    best, best_k = -math.inf, 0
    for k in range(1, n):
        part = sum(x[i] - xbar for i in range(k)) / math.sqrt(n)
        w = 1.0 / math.sqrt((k / n) * (1.0 - k / n))
        obj = w * math.sqrt(part * part / lam)
        if obj > best:
            best, best_k = obj, k
    return best, best_k


class TestScores:
    def test_constant_sample_zero_scores(self):
        b = fourier_basis(4)
        s = FunctionalSample(np.tile([2.0, -1.0, 0.5, 3.0], (9, 1)), b)
        assert np.array_equal(scores(s, np.eye(4), 3), np.zeros((8, 3)))

    def test_two_point_algebra(self):
        b = fourier_basis(3)
        x1 = np.array([1.0, 2.0, -0.5])
        x2 = np.array([0.0, 1.0, 4.0])
        s = FunctionalSample(np.stack([x1, x2]), b)
        eta = scores(s, np.eye(3), 3)
        assert np.allclose(eta[0], (x1 - x2) * 2.0 ** -1.5, atol=1e-15)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(17)
        b = fourier_basis(7)
        s = FunctionalSample(rng.normal(size=(30, 7)), b)
        _, _, vecs = lrcov_estimate(s, "plain", 2.0)
        eta = scores(s, vecs, 2)
        assert np.max(np.abs(eta - naive_scores(s, vecs, 2))) <= 1e-10

    def test_last_row_is_negated_final_score(self):
        rng = np.random.default_rng(18)
        b = fourier_basis(5)
        s = FunctionalSample(rng.normal(size=(12, 5)), b)
        _, _, vecs = lrcov_estimate(s, "plain", 0.0)
        eta = scores(s, vecs, 3)
        centered_last = s.coeffs[-1] - s.coeffs.mean(axis=0)
        expected = -(centered_last @ vecs[:, :3]) / math.sqrt(12)
        assert np.max(np.abs(eta[-1] - expected)) <= 1e-10

    def test_d_out_of_range(self):
        b = fourier_basis(4)
        s = FunctionalSample(np.zeros((5, 4)), b)
        with pytest.raises(ValueError, match="1 <= d <= 4"):
            scores(s, np.eye(4), 5)

    def test_basis_mismatch(self):
        # Eigenvectors of another basis size fail in the projection.
        s = FunctionalSample(np.zeros((5, 4)), fourier_basis(4))
        with pytest.raises(ValueError, match="mismatch"):
            scores(s, np.eye(5), 2)

    def test_requires_orthonormal_basis(self):
        s = FunctionalSample(np.zeros((5, 6)), bspline_basis(6))
        with pytest.raises(ValueError, match="orthonormal"):
            scores(s, np.eye(6), 2)
        with pytest.raises(ValueError, match="orthonormal"):
            _fully_functional_max(s)

    def test_non_finite_scores_rejected(self):
        coeffs = np.zeros((5, 3))
        coeffs[2, 1] = np.inf
        s = FunctionalSample(coeffs, fourier_basis(3))
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                scores(s, np.eye(3), 2)


class TestStatistic:
    def test_zero_scores(self):
        assert statistic(np.zeros((7, 2)), np.ones(2)) == (0.0, 1)

    def test_midpoint_weight_is_two(self):
        eta = np.zeros((9, 1))
        eta[4, 0] = 1.0  # k = 5, n = rows + 1 = 10, w(1/2) = 2
        t, k = statistic(eta, np.ones(1))
        assert t == 2.0 and k == 5

    def test_d1_matches_scalar_reference(self):
        rng = np.random.default_rng(19)
        b = fourier_basis(6)
        s = FunctionalSample(rng.normal(size=(25, 6)), b)
        _, lam, vecs = lrcov_estimate(s, "plain", 2.0)
        t, k = statistic(scores(s, vecs, 1), lam[:1])
        x = list(s.coeffs @ vecs[:, 0])
        t_ref, k_ref = scalar_weighted_cusum(x, lam[0])
        assert t == pytest.approx(t_ref, abs=1e-12)
        assert k == k_ref

    def test_zero_eigenvalue_gives_infinity(self):
        t, _ = statistic(np.ones((4, 2)), np.array([1.0, 0.0]))
        assert math.isinf(t)

    def test_zero_over_zero_contributes_nothing(self):
        eta = np.zeros((4, 2))
        eta[:, 0] = [0.1, 0.3, 0.2, 0.1]
        t, _ = statistic(eta, np.array([1.0, 0.0]))
        assert math.isfinite(t)
        only_first = statistic(eta[:, :1], np.ones(1))[0]
        assert t == pytest.approx(only_first, abs=1e-15)

    def test_smallest_argmax_on_ties(self):
        eta = np.zeros((3, 1))
        eta[0, 0] = eta[2, 0] = 1.0  # w(1/4) = w(3/4)
        assert statistic(eta, np.ones(1))[1] == 1

    def test_unstandardized_objective_monotone_in_d(self):
        rng = np.random.default_rng(20)
        eta = rng.normal(size=(19, 5))
        prev = np.zeros(19)
        for d in range(1, 6):
            sumsq = (eta[:, :d] ** 2).sum(axis=1)
            assert np.all(sumsq >= prev - 1e-15)
            prev = sumsq


class TestNormalizers:
    def test_values_at_t_equal_e(self):
        a, b = normalizers(math.exp(math.e), 2)  # t = log n = e
        assert a == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert b == pytest.approx(2.0, abs=1e-15)

    def test_high_precision_oracle(self):
        mpmath.mp.dps = 50
        t = mpmath.log(10**6)
        a_ref = float(mpmath.sqrt(2 * mpmath.log(t)))
        b_ref = float(2 * mpmath.log(t) + mpmath.mpf(3) / 2 * mpmath.log(mpmath.log(t))
                      - mpmath.log(mpmath.gamma(mpmath.mpf(3) / 2)))
        a, b = normalizers(10**6, 3)
        assert a == pytest.approx(a_ref, abs=1e-12)
        assert b == pytest.approx(b_ref, abs=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="log log n"):
            normalizers(2, 1)
        a, b = normalizers(3, 1)  # log 3 > 1, smallest n that works
        assert math.isfinite(a) and math.isfinite(b)

    def test_rejects_t_at_most_one(self):
        with pytest.raises(ValueError, match="log log n > 0"):
            normalizers(math.e, 1)  # t = log n = 1
        with pytest.raises(ValueError, match="log log n > 0"):
            normalizers(2, 2)
        with pytest.raises(ValueError, match="d"):
            normalizers(math.exp(math.e), 0)


class TestGumbel:
    def test_closed_form_inversion(self):
        a, b = normalizers(200, 2)
        crit = gumbel_critical(0.1, 200, 2)
        x = a * crit - b
        assert x == pytest.approx(-math.log(-math.log(0.9) / 2.0), abs=1e-12)
        assert x == pytest.approx(2.944, abs=1e-3)
        assert gumbel_pvalue(crit, 200, 2) == pytest.approx(0.1, abs=1e-9)

    def test_infinite_statistic(self):
        assert gumbel_pvalue(math.inf, 100, 2) == 0.0

    def test_x_zero_reference_point(self):
        a, b = normalizers(100, 1)
        p = gumbel_pvalue(b / a, 100, 1)
        assert p == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)

    def test_pvalue_in_unit_interval(self):
        for t in (-5.0, 0.0, 1.0, 3.0, 10.0):
            assert 0.0 <= gumbel_pvalue(t, 50, 3) <= 1.0

    def test_alpha_bounds(self):
        with pytest.raises(ValueError, match="alpha"):
            gumbel_critical(0.0, 100, 1)
        with pytest.raises(ValueError, match="alpha"):
            gumbel_critical(1.0, 100, 1)


class TestVostrikovaTail:
    def test_matches_bridge_supremum_oracle(self, bridge_sup_samples):
        p_mc = float(np.mean(bridge_sup_samples[(1, 100)] >= 3.5))
        p = vostrikova_tail(3.5, 100, 1)
        assert abs(p - p_mc) <= 0.15 * p_mc

    def test_vanishes_in_the_far_tail(self):
        assert vostrikova_tail(40.0, 100, 1) <= 1e-100
        assert vostrikova_tail(math.inf, 100, 1) == 0.0

    def test_d2_leading_constant(self):
        # Gamma(1) = 1, so the prefactor is x^2 exp(-x^2/2) / 2
        x, n = 3.0, 300
        hn = math.log(n) ** 1.5 / n
        big_l = math.log((1.0 - hn) ** 2 / hn ** 2)
        expected = (x**2 * math.exp(-x**2 / 2) / 2.0
                    * ((1.0 - 2.0 / x**2) * big_l + 4.0 / x**2))
        assert vostrikova_tail(x, n, 2) == pytest.approx(expected, rel=1e-12)

    def test_domain_guard(self):
        with pytest.raises(ValueError, match="sqrt"):
            vostrikova_tail(1.0, 100, 1)
        with pytest.raises(ValueError, match="sqrt"):
            vostrikova_tail(math.sqrt(2.0), 100, 2)

    def test_clamped_to_unit_interval(self):
        assert vostrikova_tail(1.2, 10**9, 1) == 1.0

    def test_pvalue_conventions(self):
        assert vostrikova_pvalue(0.5, 100, 1) == 1.0  # below domain
        assert vostrikova_pvalue(math.inf, 100, 1) == 0.0
        # Just above sqrt(5) the expansion still rises, from 0.49, so its
        # value there is no p-value: alpha = 0.55 has its root near 3.9.
        assert vostrikova_pvalue(math.sqrt(5.0) + 1e-9, 40984, 5) == 1.0


class TestVostrikovaCritical:
    @pytest.mark.parametrize("n", [100, 500])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_root_self_consistency(self, n, d):
        x = vostrikova_critical(0.1, n, d)
        assert vostrikova_tail(x, n, d) == pytest.approx(0.1, abs=1e-7)

    def test_reference_values(self):
        assert vostrikova_critical(0.1, 50, 1) == pytest.approx(2.6908, abs=1e-3)
        assert vostrikova_critical(0.1, 100, 1) == pytest.approx(2.7865, abs=1e-3)
        assert vostrikova_critical(0.1, 300, 1) == pytest.approx(2.9034, abs=1e-3)
        assert vostrikova_critical(0.1, 500, 1) == pytest.approx(2.9478, abs=1e-3)
        assert vostrikova_critical(0.1, 100, 2) == pytest.approx(3.2742, abs=1e-3)

    def test_matches_bridge_quantile(self, bridge_sup_samples):
        q_mc = float(np.quantile(bridge_sup_samples[(1, 100)], 0.9))
        x = vostrikova_critical(0.1, 100, 1)
        assert abs(x - q_mc) <= 0.02 * q_mc

    def test_central_quantiles_unreachable(self):
        for _ in range(2):  # it raises on every call
            with pytest.raises(ApproximationFailureError, match="peaks"):
                vostrikova_critical(0.99, 100, 1)
        x = vostrikova_critical(0.9, 100, 1)  # still solvable, near the edge
        assert x < 1.5

    def test_alpha_bounds(self):
        with pytest.raises(ValueError, match="alpha"):
            vostrikova_critical(0.0, 100, 1)

    def test_array_scan_equals_scalar_scan_bitwise(self):
        # The bisection starts from the scan's argmax, so the array scan
        # must pick the point the scalar vostrikova_tail loop picks.  alpha
        # plays no part in the scan.
        ns = [*range(2, 2000, 37), 4993, 10**4, 10**5, 10**6, 10**9]
        for n in ns:
            for d in range(1, 11):
                xs = np.linspace(math.sqrt(d) + 1e-6, 50.0, 2048)
                vals = [vostrikova_tail(float(x), n, d) for x in xs]
                top = int(np.argmax(vals))
                expected = (float(xs[top]).hex(), vals[top].hex())
                got = _tail_peak(n, d)
                assert (got[0].hex(), got[1].hex()) == expected, (n, d)


def statistic_near(crit, d, where, scale, nudge):
    """A statistic anywhere up to twice the critical value, near it, or
    just above the expansion's domain edge sqrt(d)."""
    return {"anywhere": scale * crit, "near_critical": crit + nudge,
            "near_edge": math.sqrt(d) + abs(nudge)}[where]


STATISTICS = dict(where=st.sampled_from(["anywhere", "near_critical",
                                         "near_edge"]),
                  scale=st.floats(0.0, 2.0), nudge=st.floats(-1e-6, 1e-6))


class TestRejectIffPBelowAlpha:
    """A test rejects (t > critical value) exactly when p < alpha."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 10**6), d=st.integers(1, 10),
           alpha=st.floats(1e-6, 0.9), **STATISTICS)
    def test_vostrikova(self, n, d, alpha, where, scale, nudge):
        try:
            crit = vostrikova_critical(alpha, n, d)
        except ApproximationFailureError:
            assume(False)  # alpha above the expansion's peak: no root
        t = statistic_near(crit, d, where, scale, nudge)
        # The bisection stops within 1e-8 of the root, so a statistic that
        # close may fall on either side of it.
        assume(abs(t - crit) > 1e-8)
        assert (t > crit) == (vostrikova_pvalue(t, n, d) < alpha)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 10**6), d=st.integers(1, 30),
           alpha=st.floats(1e-6, 1.0 - 1e-6), **STATISTICS)
    def test_gumbel(self, n, d, alpha, where, scale, nudge):
        crit = gumbel_critical(alpha, n, d)
        t = statistic_near(crit, d, where, scale, nudge)
        # The p-value and the critical value invert the limit law along
        # different floating-point paths, which part within about 1e-14
        # of the critical value.
        assume(abs(t - crit) > 1e-12 * max(1.0, abs(crit)))
        assert (t > crit) == (gumbel_pvalue(t, n, d) < alpha)


class TestMemo:
    def test_run_cell_identical_with_cold_and_warm_caches(self):
        grid = ExperimentGrid(n_values=(60,), psi_values=(0.4,),
                              kernels=("wiener",), h_values=(2.0,),
                              d_values=(2,), replications=4, burn_in=10,
                              seed=5)
        coords = grid.cells()[0]
        frozen = lambda: 0.0
        for memo in (_conversion_matrix, _base_sq_norm):
            memo.cache_clear()
        cold = run_cell(coords, grid, timer=frozen)
        warm = run_cell(coords, grid, timer=frozen)
        assert cold == warm and cold.error is None


def k_hats(sample, cfg):
    """run_test's three change locators: standardized, unstandardized and
    fully functional."""
    res = run_test(sample, cfg)
    return (res.k_hat_standardized, res.k_hat_unstandardized,
            res.k_hat_fully_functional)


class TestChangeEstimates:
    def brute_force_k(self, sample):
        """Unweighted-by-hand argmax of the fully functional objective."""
        n = len(sample)
        centered = sample.coeffs - sample.coeffs.mean(axis=0)
        best, best_k = -math.inf, 0
        for k in range(1, n):
            part = centered[:k].sum(axis=0) / math.sqrt(n)
            w = 1.0 / math.sqrt((k / n) * (1.0 - k / n))
            obj = w * np.linalg.norm(part)
            if obj > best:
                best, best_k = obj, k
        return best_k

    @pytest.mark.parametrize("m", [9, 22, 45])
    def test_noiseless_step_found_exactly(self, m):
        n = 60
        coeffs = np.zeros((n, 5))
        coeffs[m:] = np.array([1.0, -0.5, 0.2, 0.0, 0.3])
        s = FunctionalSample(coeffs, fourier_basis(5))
        for d in (1, 2):
            assert k_hats(s, Config(d=d, h=0.0, fourier_size=5)) == (m, m, m)
        assert self.brute_force_k(s) == m

    def test_constant_data_tie_rule(self):
        s = FunctionalSample(np.ones((12, 3)), fourier_basis(3))
        assert k_hats(s, Config(d=2, h=0.0, fourier_size=3)) == (1, 1, 1)

    def test_consistency_under_weak_dependence(self):
        spec = SimSpec(n=300, kernel=calibrate_kernel("wiener", 0.2),
                       change=make_change("sin", 0.5))
        sim = Far1Simulator(spec)
        cfg = Config(d=2, h=3.0)
        devs = np.zeros((500, 3))
        for rep in range(500):
            ce = k_hats(sim.generate(seed=(888, rep)), cfg)
            devs[rep] = [abs(k / 300 - 0.5) for k in ce]
        assert np.all(np.median(devs, axis=0) <= 0.03)


class TestRunTest:
    def test_iid_size_within_bracket(self):
        sim = Far1Simulator(SimSpec(n=100, kernel=calibrate_kernel("gaussian", 0.0),
                                    burn_in=5))
        cfg = Config(d=2, h=2.0, alpha=0.10)
        rejections = sum(run_test(sim.generate(seed=(777, rep)), cfg).reject
                         for rep in range(1000))
        assert 0.03 <= rejections / 1000 <= 0.13

    def test_large_step_rejects_decisively(self):
        spec = SimSpec(n=100, kernel=calibrate_kernel("wiener", 0.3),
                       change=make_change("constant", 0.5, amplitude=3.0))
        res = run_test(Far1Simulator(spec).generate(seed=31), Config(d=2, h=2.0))
        assert res.reject
        assert res.p_vostrikova < 0.01
        assert abs(res.k_hat_standardized - 50) <= 5

    @settings(max_examples=60, deadline=None)
    @given(case=invariance_cases())
    def test_sign_flip_of_eigenfunction_is_invisible(self, case):
        rng, coeffs, d, h, kernel = case
        s = FunctionalSample(coeffs, fourier_basis(coeffs.shape[1]))
        _, lam, vecs = lrcov_estimate(s, kernel, h)
        signs = rng.choice([-1.0, 1.0], size=vecs.shape[1])
        t, k = statistic(scores(s, vecs, d), lam[:d])
        t_flip, k_flip = statistic(scores(s, vecs * signs, d), lam[:d])
        assert float(t_flip).hex() == float(t).hex() and k_flip == k

    @settings(max_examples=60, deadline=None)
    @given(case=invariance_cases(), c=st.floats(0.01, 100.0))
    def test_scale_invariance_of_standardized_statistic(self, case, c):
        _, coeffs, d, h, kernel = case
        b = fourier_basis(coeffs.shape[1])
        t, k = standardized(FunctionalSample(coeffs, b), kernel, h, d)
        t_c, k_c = standardized(FunctionalSample(c * coeffs, b), kernel, h, d)
        assert t_c == pytest.approx(t, rel=1e-8) and k_c == k

    @settings(max_examples=60, deadline=None)
    @given(case=invariance_cases(), size=st.floats(0.0, 10.0))
    def test_location_invariance(self, case, size):
        rng, coeffs, d, h, kernel = case
        b = fourier_basis(coeffs.shape[1])
        shift = size * rng.normal(size=coeffs.shape[1])
        t, k = standardized(FunctionalSample(coeffs, b), kernel, h, d)
        t_s, k_s = standardized(FunctionalSample(coeffs + shift, b), kernel,
                                h, d)
        assert t_s == pytest.approx(t, rel=1e-8) and k_s == k

    @pytest.mark.parametrize("h", [0.0, 3.0])
    def test_time_reversal_symmetry(self, h):
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=(40, 6))
        b = fourier_basis(6)
        s = FunctionalSample(coeffs, b)
        s_rev = FunctionalSample(coeffs[::-1].copy(), b)
        t_fwd, k_fwd = standardized(s, "plain", h, 3)
        t_rev, k_rev = standardized(s_rev, "plain", h, 3)
        assert t_fwd == pytest.approx(t_rev, abs=1e-10)
        assert k_rev == 40 - k_fwd

    def test_full_projection_equals_functional_objective(self):
        rng = np.random.default_rng(26)
        s = FunctionalSample(rng.normal(size=(40, 6)), fourier_basis(6))
        _, _, vecs = lrcov_estimate(s, "plain", 2.0)
        t_proj, k_proj = statistic(scores(s, vecs, 6))
        t_full, k_full = _fully_functional_max(s)
        assert t_proj == pytest.approx(t_full, abs=1e-10)
        assert k_proj == k_full
        res = run_test(s, Config(d=6, h=2.0, fourier_size=6))
        assert res.k_hat_fully_functional == k_full

    def test_default_bandwidth_used_when_h_omitted(self):
        rng = np.random.default_rng(27)
        s = FunctionalSample(rng.normal(size=(100, 5)), fourier_basis(5))
        res = run_test(s, Config(d=2))
        assert res.h == 3.0  # floor(100^(1/4))

    def test_reject_consistent_with_critical_value(self):
        rng = np.random.default_rng(28)
        s = FunctionalSample(rng.normal(size=(60, 4)), fourier_basis(4))
        for method in ("vostrikova", "gumbel"):
            res = run_test(s, Config(d=2, h=1.0, critical_method=method))
            assert res.reject == (res.statistic > res.critical_value)
            assert res.critical_method == method

    def test_config_validation(self):
        with pytest.raises(ValueError, match="d must be >= 1"):
            Config(d=0)
        with pytest.raises(ValueError, match="alpha"):
            Config(alpha=1.5)
        with pytest.raises(ValueError, match="critical_method"):
            Config(critical_method="bootstrap")
        with pytest.raises(ValueError, match="basis size"):
            Config(d=30, fourier_size=25)
        with pytest.raises(ValueError, match="unknown lag kernel"):
            Config(lag_kernel="foo")

    def test_needs_three_curves(self):
        s = FunctionalSample(np.zeros((2, 3)), fourier_basis(3))
        with pytest.raises(ValueError, match="three"):
            run_test(s, Config(d=1))

    def test_json_serialization(self):
        rng = np.random.default_rng(29)
        s = FunctionalSample(rng.normal(size=(50, 4)), fourier_basis(4))
        res = run_test(s, Config(d=2, h=2.0))
        data = json.loads(json.dumps(res.to_json_dict()))
        assert list(data) == [f.name for f in dataclasses.fields(Result)]
        assert data["n"] == 50 and data["statistic"] == res.statistic
        assert data["reject"] is res.reject
        assert Result(**data) == res

    def test_degenerate_sample_flagged(self):
        s = FunctionalSample(np.ones((10, 3)), fourier_basis(3))
        res = run_test(s, Config(d=2, h=0.0, fourier_size=3))
        assert res.degenerate
        assert res.statistic == 0.0  # constant data: scores vanish too
