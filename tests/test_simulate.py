"""Functional AR(1) generator: shocks, kernel calibration, change injection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcusum.basis import Grid, bspline_basis, fit_sample, fourier_basis
from funcusum.cli import main
from funcusum.simulate import (
    ChangeSpec,
    Far1Simulator,
    IntegralKernel,
    SimSpec,
    _bridges,
    calibrate_kernel,
    make_change,
)

from conftest import dense_gram


def ar_step(kernel, basis_size):
    """The simulator's AR operator y -> integral Psi(., s) y(s) ds, applied
    to coefficient vectors on its 96-point grid and cubic B-spline basis."""
    sim = Far1Simulator(SimSpec(n=2, kernel=kernel, basis_size=basis_size))
    return lambda coeffs: sim._step @ coeffs


def l2_norm(coeffs, basis):
    """L2[0,1] norm of a curve's coefficients through the quadrature Gram
    matrix."""
    return math.sqrt(coeffs @ dense_gram(basis) @ coeffs)


def fitted_curve_delta_coeffs(shape, amplitude, grid_points, basis_size,
                              basis_order):
    """The shift's coefficients by the path a fitted change curve took:
    a least-squares fit of amplitude * shape on the grid, evaluated there
    through the design matrix and smoothed back with its pseudo-inverse."""
    grid = Grid.uniform(grid_points)
    design = bspline_basis(basis_size, basis_order).evaluate(grid.points)
    fn = {"sin": np.sin, "constant": np.ones_like}[shape]
    values = amplitude * fn(grid.points)
    fit = np.linalg.lstsq(design, values[:, None], rcond=None)[0][:, 0]
    return np.linalg.pinv(design) @ (design @ fit)


def bridges(grid, seed, size):
    """`size` bridge paths on `grid` from a fresh generator."""
    return _bridges(grid, np.random.default_rng(seed),
                    np.empty((size, len(grid))), np.empty((size, len(grid) - 1)))


def mean_scores(sample):
    """Integral of each curve over [0,1] by trapezoid on a fine grid."""
    g = Grid.uniform(201)
    return sample.evaluate(g) @ g.trapezoid_weights


class TestBrownianBridge:
    def test_endpoints_exactly_zero(self):
        g = Grid.uniform(33)
        paths = bridges(g, 0, 100)
        assert np.all(paths[:, 0] == 0.0)
        assert np.all(paths[:, -1] == 0.0)

    def test_variance_at_midpoint(self):
        g = Grid(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        paths = bridges(g, 1, 20000)
        assert np.var(paths[:, 2]) == pytest.approx(0.25, abs=0.01)

    def test_covariance_off_diagonal(self):
        g = Grid(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        paths = bridges(g, 2, 20000)
        cov = np.mean(paths[:, 1] * paths[:, 3])
        assert cov == pytest.approx(0.25 * (1 - 0.75), abs=0.01)  # min(s,t)-st

    def test_smoothed_curve_in_basis(self):
        # With psi = 0 and no burn-in the simulator emits its shocks: bridges
        # drawn from the seed's stream and smoothed into the working basis.
        spec = SimSpec(n=5, kernel=calibrate_kernel("wiener", 0.0),
                       burn_in=0, seed=3)
        sim = Far1Simulator(spec)
        shocks = bridges(sim.grid, 3, 5)
        expected = fit_sample(shocks, sim.grid, sim.basis).coeffs
        sample = sim.generate()
        assert sample.basis == bspline_basis(25) and sample.coeffs.shape == (5, 25)
        assert np.max(np.abs(sample.coeffs - expected)) <= 1e-10


class TestCalibrateKernel:
    def test_wiener_scale_analytic(self):
        # double integral of min(t,s)^2 is 1/6, so scale = psi * sqrt(6)
        k = calibrate_kernel("wiener", 0.5)
        assert k.scale == pytest.approx(0.5 * math.sqrt(6.0), abs=1e-4)

    def test_zero_psi_zero_scale(self):
        assert calibrate_kernel("wiener", 0.0).scale == 0.0
        assert calibrate_kernel("gaussian", 0.0).scale == 0.0

    @pytest.mark.parametrize("kind,psi", [("gaussian", 0.3), ("wiener", 0.8),
                                          ("gaussian", 0.999e-1)])
    def test_norm_recovered_by_quadrature_oracle(self, kind, psi):
        k = calibrate_kernel(kind, psi)
        t = np.linspace(0, 1, 2001)
        w = np.full(2001, 1.0 / 2000)
        w[0] = w[-1] = 0.5 / 2000
        vals = k.values(t, t)
        norm = math.sqrt(float(w @ vals**2 @ w))
        assert norm == pytest.approx(psi, abs=1e-6)

    @pytest.mark.parametrize("kind", ["wiener", "gaussian"])
    def test_scale_is_the_1001_point_trapezoid_norm_bitwise(self, kind):
        t = np.linspace(0.0, 1.0, 1001)
        w = np.zeros(1001)
        w[:-1] += np.diff(t) / 2.0
        w[1:] += np.diff(t) / 2.0
        tt, ss = t[:, None], t[None, :]
        base = (np.minimum(tt, ss) if kind == "wiener"
                else np.exp((tt ** 2 + ss ** 2) / 2.0))
        sq_norm = float(w @ (base ** 2) @ w)
        for psi in (0.0, 0.1, 0.4, 0.8, 0.999):
            assert calibrate_kernel(kind, psi).scale == psi / math.sqrt(sq_norm)

    def test_bad_arguments_raise_on_every_call(self):
        calibrate_kernel("wiener", 0.4)
        for _ in range(2):
            with pytest.raises(ValueError, match="psi"):
                calibrate_kernel("wiener", 1.0)
            with pytest.raises(ValueError, match="unknown"):
                calibrate_kernel("cauchy", 0.4)

    def test_rejects_psi_at_or_above_one(self):
        with pytest.raises(ValueError, match="psi"):
            calibrate_kernel("wiener", 1.0)
        with pytest.raises(ValueError):
            calibrate_kernel("gaussian", -0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            calibrate_kernel("cauchy", 0.4)


class TestIntegralTransform:
    def test_zero_curve_maps_to_zero(self):
        k = calibrate_kernel("wiener", 0.7)
        out = ar_step(k, 25)(np.zeros(25))
        assert np.max(np.abs(out)) <= 1e-12

    def test_zero_scale_annihilates(self):
        k = calibrate_kernel("gaussian", 0.0)
        y = np.random.default_rng(0).normal(size=25)
        out = ar_step(k, 25)(y)
        assert np.max(np.abs(out)) <= 1e-12

    def test_wiener_on_constant_matches_antiderivative(self):
        # integral of min(t,s) ds is t - t^2/2
        g = Grid.uniform(96)
        b = bspline_basis(25)
        k = calibrate_kernel("wiener", 0.6)
        one = np.ones(25)  # partition of unity
        out = ar_step(k, 25)(one)
        expected = k.scale * (g.points - g.points**2 / 2.0)
        assert np.max(np.abs(b.evaluate(g.points) @ out - expected)) <= 1e-4

    @given(st.integers(0, 2**32 - 1),
           st.floats(0.0, 0.9),
           st.sampled_from(["gaussian", "wiener"]))
    @settings(max_examples=30, deadline=None)
    def test_contraction_bound(self, seed, psi, kind):
        b = bspline_basis(12)
        k = calibrate_kernel(kind, psi)
        y = np.random.default_rng(seed).normal(size=12)
        out = ar_step(k, 12)(y)
        assert l2_norm(out, b) <= psi * l2_norm(y, b) + 1e-3


class TestChangeSpec:
    def test_theta_bounds(self):
        with pytest.raises(ValueError, match="theta"):
            ChangeSpec("sin", theta=0.0)
        with pytest.raises(ValueError):
            ChangeSpec("constant", theta=1.0)

    def test_simulate_with_nan_amplitude_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 10\nkernel = wiener\npsi = 0.1\n"
                       "change_shape = sin\nchange_amplitude = nan\n")
        out = tmp_path / "sim.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert ("input error: need a finite change amplitude, got nan"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_make_change_sin_shape(self):
        change = make_change("sin", 0.5, amplitude=2.0)
        assert change == ChangeSpec("sin", 0.5, 2.0)
        sim = Far1Simulator(SimSpec(n=2, kernel=calibrate_kernel("wiener", 0.0),
                                    change=change))
        t = np.linspace(0, 1, 200)
        shift = sim.basis.evaluate(t) @ sim._delta_coeffs
        assert np.max(np.abs(shift - 2.0 * np.sin(t))) <= 1e-3

    def test_make_change_unknown_shape(self):
        with pytest.raises(ValueError, match="shape"):
            make_change("sawtooth", 0.5)
        with pytest.raises(ValueError, match="shape"):
            ChangeSpec("custom")

    @pytest.mark.parametrize("shape", ["sin", "constant"])
    @pytest.mark.parametrize("amplitude", [1.0, -2.5, 0.15])
    @pytest.mark.parametrize("grid_points,basis_size,basis_order", [
        (96, 25, 4), (30, 8, 4), (64, 12, 3), (97, 12, 4), (16, 4, 3)])
    def test_shift_coefficients_match_the_fitted_curve_path_bitwise(
            self, shape, amplitude, grid_points, basis_size, basis_order):
        spec = SimSpec(n=2, kernel=calibrate_kernel("wiener", 0.3),
                       change=make_change(shape, 0.5, amplitude),
                       grid_points=grid_points, basis_size=basis_size,
                       basis_order=basis_order)
        oracle = fitted_curve_delta_coeffs(shape, amplitude, grid_points,
                                           basis_size, basis_order)
        assert np.array_equal(Far1Simulator(spec)._delta_coeffs, oracle)


class TestFar1Generate:
    def test_deterministic_under_seed(self):
        spec = SimSpec(n=40, kernel=calibrate_kernel("wiener", 0.5), seed=11)
        a = Far1Simulator(spec).generate()
        b = Far1Simulator(spec).generate()
        assert np.array_equal(a.coeffs, b.coeffs)
        c = Far1Simulator(spec).generate(seed=12)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_psi_zero_iid_scores(self):
        spec = SimSpec(n=2000, kernel=calibrate_kernel("wiener", 0.0),
                       burn_in=10, seed=21)
        x = mean_scores(Far1Simulator(spec).generate())
        rho = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(rho) <= 0.05

    def test_strong_dependence_positive_lag_one(self):
        spec = SimSpec(n=2000, kernel=calibrate_kernel("wiener", 0.8), seed=22)
        x = mean_scores(Far1Simulator(spec).generate())
        rho = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert rho > 0.2

    def test_injected_change_recovered(self):
        kernel = calibrate_kernel("gaussian", 0.5)
        change = make_change("sin", 0.5)
        diffs = []
        sim = Far1Simulator(SimSpec(n=100, kernel=kernel, change=change))
        for rep in range(200):
            sample = sim.generate(seed=(37, rep))
            vals = sample.evaluate(Grid.uniform(11))[:, 9]  # t = 0.9
            diffs.append(vals[50:].mean() - vals[:50].mean())
        assert np.mean(diffs) == pytest.approx(math.sin(0.9), abs=0.1)

    def test_change_applies_after_floor_n_theta(self):
        kernel = calibrate_kernel("wiener", 0.0)
        change = make_change("constant", 0.3, amplitude=100.0)
        spec = SimSpec(n=10, kernel=kernel, change=change, seed=5)
        with_change = Far1Simulator(spec).generate()
        without = Far1Simulator(SimSpec(n=10, kernel=kernel, seed=5)).generate()
        moved = np.abs(with_change.coeffs - without.coeffs).max(axis=1) > 1.0
        assert list(moved) == [False] * 3 + [True] * 7  # floor(10 * 0.3) = 3

    def test_score_variance_stationary(self):
        spec = SimSpec(n=4000, kernel=calibrate_kernel("wiener", 0.8),
                       burn_in=100)
        sim = Far1Simulator(spec)
        first, last = [], []
        for rep in range(40):
            x = mean_scores(sim.generate(seed=(101, rep)))
            first.append(np.var(x[:1000]))
            last.append(np.var(x[-1000:]))
        ratio = np.mean(first) / np.mean(last)
        assert abs(ratio - 1.0) < 0.10

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError, match="n >= 2"):
            SimSpec(n=1, kernel=calibrate_kernel("wiener", 0.5))

    def test_rejects_negative_burn_in(self):
        with pytest.raises(ValueError, match="burn_in"):
            SimSpec(n=10, kernel=calibrate_kernel("wiener", 0.5), burn_in=-1)

    @pytest.mark.parametrize("seed", [-1, (3, -1, 2)])
    def test_rejects_negative_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SimSpec(n=10, kernel=calibrate_kernel("wiener", 0.5), seed=seed)


class TestConfigRoundTrip:
    def test_round_trip_all_fields(self):
        change = make_change("sin", 0.4, amplitude=1.5)
        spec = SimSpec(n=120, kernel=calibrate_kernel("wiener", 0.6),
                       change=change, burn_in=7, seed=(1, 2), grid_points=64,
                       basis_size=12, basis_order=4)
        back = SimSpec.from_config(spec.to_config())
        assert back.n == spec.n
        assert back.kernel.kind == spec.kernel.kind
        assert back.kernel.psi == spec.kernel.psi
        assert back.kernel.scale == pytest.approx(spec.kernel.scale, rel=1e-12)
        assert back.burn_in == 7 and back.seed == (1, 2)
        assert back.grid_points == 64 and back.basis_size == 12
        assert back.change == ChangeSpec("sin", 0.4, 1.5)

    @given(st.integers(2, 10_000), st.sampled_from(["gaussian", "wiener"]),
           st.floats(0.0, 0.999), st.integers(0, 500),
           st.one_of(st.integers(0, 2**63),
                     st.lists(st.integers(0, 2**32), min_size=2,
                              max_size=4).map(tuple)),
           st.integers(16, 64), st.integers(4, 12), st.sampled_from([3, 4]),
           st.one_of(st.none(),
                     st.tuples(st.sampled_from(["sin", "constant"]),
                               st.floats(0.01, 0.99), st.floats(-5.0, 5.0))))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, n, kind, psi, burn_in, seed,
                                 grid_points, basis_size, basis_order, change):
        if change is not None:
            shape, theta, amplitude = change
            change = make_change(shape, theta, amplitude)
        spec = SimSpec(n=n, kernel=calibrate_kernel(kind, psi), change=change,
                       burn_in=burn_in, seed=seed, grid_points=grid_points,
                       basis_size=basis_size, basis_order=basis_order)
        back = SimSpec.from_config(spec.to_config())
        assert back.to_config() == spec.to_config()
        assert back == spec

    def test_missing_keys_take_the_dataclass_defaults(self):
        back = SimSpec.from_config(
            "n = 30\nkernel = wiener\npsi = 0.5\nchange_shape = sin\n")
        assert back == SimSpec(n=30, kernel=calibrate_kernel("wiener", 0.5),
                               change=ChangeSpec("sin"))
        assert back.change == ChangeSpec("sin", 0.5, 1.0)
        assert (back.burn_in, back.seed, back.grid_points, back.basis_size,
                back.basis_order) == (100, 0, 96, 25, 4)

    def test_no_change_round_trip(self):
        spec = SimSpec(n=50, kernel=calibrate_kernel("gaussian", 0.3))
        back = SimSpec.from_config(spec.to_config())
        assert back.change is None and back.n == 50

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nn = 30\nkernel = wiener  # trailing\npsi = 0.5\n"
        spec = SimSpec.from_config(text)
        assert spec.n == 30 and spec.kernel.kind == "wiener"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SimSpec.from_config("n = 30\nkernel = wiener\npsi = 0.5\nfoo = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="psi"):
            SimSpec.from_config("n = 30\nkernel = wiener\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SimSpec.from_config("n = 30\nn = 40\nkernel = wiener\npsi = 0.5\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            SimSpec.from_config("n = 30\nnot a setting\n")

    @pytest.mark.parametrize("text,message", [
        ("n = 30\nkernel = wiener\npsi = half\n",
         "line 3: psi: could not convert string to float: 'half'"),
        ("n = 30\nkernel = wiener\npsi = 0.5\nseed = 1, x\n",
         "line 4: seed: invalid literal for int() with base 10: 'x'"),
    ], ids=["psi", "seed"])
    def test_bad_value_names_line_and_key(self, text, message):
        with pytest.raises(ValueError) as exc:
            SimSpec.from_config(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("shape_line", ["", "change_shape = none\n"])
    @pytest.mark.parametrize("change_lines,keys", [
        ("change_theta = 0.3\n", "['change_theta']"),
        ("change_theta = 0.3\nchange_amplitude = 2\n",
         "['change_theta', 'change_amplitude']"),
    ])
    def test_change_keys_without_a_shape_rejected(self, shape_line,
                                                   change_lines, keys):
        text = "n = 10\nkernel = wiener\npsi = 0.1\n" + shape_line + change_lines
        with pytest.raises(ValueError) as exc:
            SimSpec.from_config(text)
        assert str(exc.value) == (
            f"config keys {keys} need a change_shape other than 'none'")
