"""Reproduction gate: one test per headline claim of the detector.

Each test re-derives one published-table anchor, limit-law calibration, or
structural invariant end to end (simulator -> estimator -> test) and records
a single PASS/FAIL summary line; the conftest terminal hook prints the block
after the run.  Monte Carlo cells are seeded, so every number below is
reproducible bit for bit.

The strong-dependence size cells (criterion 2) are known not to match the
tabulated reference rates: at d = 1 the statistic is provably identical for
both innovation kernels once psi is fixed, yet the reference tables report
kernel-dependent sizes there, so the tables' generator cannot coincide with
the model as documented.  That test asserts the pinned tolerance anyway and
fails honestly; the bandwidth-sensitivity clause it also carries does hold.
"""

import json
import math

import numpy as np
import pytest

from funcusum.basis import FunctionalSample, fourier_basis, write_curves_csv
from funcusum.basis import Grid
from funcusum.cli import main
from funcusum.cusum import TestConfig as Config
from funcusum.cusum import (
    _fully_functional_max,
    gumbel_critical,
    gumbel_pvalue,
    normalizers,
    run_test,
    scores,
    statistic,
    vostrikova_critical,
)
from funcusum.harness import CellCoords, ExperimentGrid, run_cell
from funcusum.lrcov import LagWindowKernel, LrCovEstimate, _abs_sorted_eigh, lrcov_estimate
from funcusum.simulate import Far1Simulator, SimSpec, calibrate_kernel, make_change

PLAIN = LagWindowKernel.from_name("plain")

# Reference Monte Carlo rejection rates (percent) for the gaussian-kernel
# size study at n = 100, h = 2, nominal level 10%: psi -> (d=1, d=2, d=3).
REFERENCE_SIZE_GAUSSIAN = {
    0.1: (9.8, 9.4, 7.9),
    0.2: (9.0, 7.3, 6.0),
    0.4: (6.7, 4.6, 5.1),
}

# Reference sizes for the wiener kernel at n = 300, psi = 0.8, h = 1.
REFERENCE_SIZE_WIENER_H1 = {1: 33.4, 2: 25.5}


def _cell_rate(n, kernel, psi, h, d, alternative, reps, seed):
    coords = CellCoords(0, n, kernel, psi, h, d, alternative)
    res = run_cell(coords, ExperimentGrid(replications=reps, seed=seed))
    assert res.error is None, res.error
    return 100.0 * res.reject_rate


def test_criterion_1_size_gaussian_weak_dependence(acceptance_report):
    """Empirical size at (n=100, h=2) tracks the reference table within 3pp."""
    deviations = []
    detail = []
    for psi, refs in REFERENCE_SIZE_GAUSSIAN.items():
        for d, ref in zip((1, 2, 3), refs):
            rate = _cell_rate(100, "gaussian", psi, 2.0, d, False, 1000, 42)
            deviations.append(abs(rate - ref))
            detail.append(f"psi={psi},d={d}: {rate:.1f} vs {ref}")
    worst = max(deviations)
    ok = worst <= 3.0
    acceptance_report(
        f"criterion 1 {'PASS' if ok else 'FAIL'}  size, gaussian kernel, "
        f"n=100, h=2, 9 cells at R=1000: max deviation {worst:.1f}pp (tol 3.0pp)")
    assert ok, "; ".join(detail)


def test_criterion_2_size_wiener_strong_dependence(acceptance_report):
    """Strong-dependence sizes at h=1 vs the reference, and the h=1 > h=3 gap."""
    rate = {}
    for h in (1.0, 3.0):
        for d in (1, 2):
            rate[h, d] = _cell_rate(300, "wiener", 0.8, h, d, False, 1000, 43)
    gaps = [rate[1.0, d] - rate[3.0, d] for d in (1, 2)]
    quantitative = all(abs(rate[1.0, d] - REFERENCE_SIZE_WIENER_H1[d]) <= 5.0
                       for d in (1, 2))
    qualitative = all(g >= 10.0 for g in gaps)
    acceptance_report(
        f"criterion 2 {'PASS' if quantitative and qualitative else 'FAIL'}  "
        f"size, wiener kernel, psi=0.8, n=300: h=1 sizes "
        f"{rate[1.0, 1]:.1f}/{rate[1.0, 2]:.1f} vs reference 33.4/25.5 "
        f"(tol 5pp, {'met' if quantitative else 'not met'}); "
        f"h=1 minus h=3 gap {gaps[0]:.1f}/{gaps[1]:.1f}pp >= 10pp "
        f"({'met' if qualitative else 'not met'})")
    assert qualitative, f"bandwidth-sensitivity gap too small: {gaps}"
    assert quantitative, (
        f"h=1 sizes {rate[1.0, 1]:.1f}/{rate[1.0, 2]:.1f} deviate from the "
        f"reference 33.4/25.5 by more than 5pp; at d=1 both innovation "
        f"kernels give the same law for the statistic, so the reference "
        f"rates (33.4 wiener vs 20.2 gaussian) cannot both be reproduced "
        f"by the documented model")


def test_criterion_3_power_saturates_for_both_kernels(acceptance_report):
    """Power at (n=100, h=1, d=3) under a sin-shaped shift is essentially 1."""
    rates = {}
    for kernel in ("gaussian", "wiener"):
        for psi in (0.2, 0.4):
            rates[kernel, psi] = _cell_rate(100, kernel, psi, 1.0, 3, True,
                                            1000, 44)
    worst = min(rates.values())
    ok = worst >= 97.0
    acceptance_report(
        f"criterion 3 {'PASS' if ok else 'FAIL'}  power, n=100, h=1, d=3, "
        f"both kernels, psi in {{0.2, 0.4}}: min {worst:.1f}% (floor 97%)")
    assert ok, rates


def test_criterion_4_power_collapse_small_n_large_h(acceptance_report):
    """n=50 with h=3 and d=2 all but destroys power, as in the reference."""
    rate = _cell_rate(50, "gaussian", 0.1, 3.0, 2, True, 1000, 45)
    ok = rate <= 10.0
    acceptance_report(
        f"criterion 4 {'PASS' if ok else 'FAIL'}  power collapse, n=50, h=3, "
        f"d=2, psi=0.1: {rate:.1f}% (reference 1.9%, ceiling 10%)")
    assert ok, rate


def test_criterion_5_change_location_consistency(acceptance_report):
    """Median |k_hat/n - theta| <= 0.03 for all three locators at theta=0.5."""
    spec = SimSpec(n=300, kernel=calibrate_kernel("wiener", 0.2),
                   change=make_change("sin", 0.5))
    sim = Far1Simulator(spec)
    cfg = Config(d=2, h=4.0)
    devs = np.zeros((500, 3))
    for rep in range(500):
        res = run_test(sim.generate(seed=(46, rep)), cfg)
        ce = (res.k_hat_standardized, res.k_hat_unstandardized,
              res.k_hat_fully_functional)
        devs[rep] = [abs(k / 300 - 0.5) for k in ce]
    medians = np.median(devs, axis=0)
    ok = bool(np.all(medians <= 0.03))
    acceptance_report(
        f"criterion 5 {'PASS' if ok else 'FAIL'}  locator consistency, "
        f"wiener psi=0.2, n=300, theta=0.5, R=500: median deviations "
        f"{medians[0]:.4f}/{medians[1]:.4f}/{medians[2]:.4f} (tol 0.03)")
    assert ok, medians


def test_criterion_6_critical_values_match_bridge_quantiles(
        bridge_sup_samples, acceptance_report):
    """Closed-form 90% critical values vs 200000-path bridge suprema, 3% rel."""
    worst = 0.0
    detail = []
    for d in (1, 2, 3):
        for n in (100, 500):
            q90 = float(np.quantile(bridge_sup_samples[d, n], 0.90))
            crit = vostrikova_critical(0.10, n, d)
            rel = abs(crit - q90) / q90
            worst = max(worst, rel)
            detail.append(f"d={d},n={n}: {crit:.4f} vs {q90:.4f}")
    ok = worst <= 0.03
    acceptance_report(
        f"criterion 6 {'PASS' if ok else 'FAIL'}  critical values vs Monte "
        f"Carlo bridge quantiles, d in {{1,2,3}}, n in {{100,500}}: max "
        f"relative error {100 * worst:.2f}% (tol 3%)")
    assert ok, "; ".join(detail)


def test_criterion_7_structural_invariants(acceptance_report):
    """Exact and near-exact symmetries of the statistic and its calibration."""
    rng = np.random.default_rng(47)
    coeffs = rng.normal(size=(60, 8))
    b8 = fourier_basis(8)
    s = FunctionalSample(coeffs, b8)
    est = lrcov_estimate(s, PLAIN, 2.0)
    base = statistic(scores(s, est, 3), 60)

    # Sign flip of an eigenfunction leaves the statistic bitwise unchanged.
    flipped = LrCovEstimate(cov=est.cov, eigvals=est.eigvals,
                            eigvecs=est.eigvecs * np.array([-1, 1, -1, 1, 1, -1, 1, -1]),
                            basis=est.basis)
    assert statistic(scores(s, flipped, 3), 60) == base

    # Scale invariance of the standardized statistic.
    s_scaled = FunctionalSample(7.5 * coeffs, b8)
    scaled = statistic(scores(s_scaled, lrcov_estimate(s_scaled, PLAIN, 2.0), 3), 60)
    assert scaled[0] == pytest.approx(base[0], abs=1e-10)
    assert scaled[1] == base[1]

    # Location invariance.
    shift = rng.normal(size=8)
    s_shift = FunctionalSample(coeffs + shift, b8)
    shifted = statistic(scores(s_shift, lrcov_estimate(s_shift, PLAIN, 2.0), 3), 60)
    assert shifted[0] == pytest.approx(base[0], abs=1e-10)
    assert shifted[1] == base[1]

    # Time reversal maps the locator k to n - k exactly.
    s_rev = FunctionalSample(coeffs[::-1].copy(), b8)
    rev = statistic(scores(s_rev, lrcov_estimate(s_rev, PLAIN, 2.0), 3), 60)
    assert rev[1] == 60 - base[1]

    # Projecting on all J directions without standardization recovers the
    # fully functional objective.
    t_proj, k_proj = statistic(scores(s, est, 8), 60, standardized=False)
    t_full, k_full = _fully_functional_max(s)
    assert t_proj == pytest.approx(t_full, abs=1e-12)
    assert k_proj == k_full

    # The eigendecomposition lrcov_estimate runs reconstructs the operator
    # with signed eigenvalues.
    m = rng.normal(size=(10, 10))
    c = 0.5 * (m + m.T)
    vals, vecs = _abs_sorted_eigh(c)
    recon = np.zeros((10, 10))
    for lam, u in zip(vals, vecs.T):
        recon += (np.sign(u @ c @ u) or 1.0) * lam * np.outer(u, u)
    assert np.max(np.abs(recon - c)) <= 1e-8

    # Working basis is orthonormal in L2.
    assert np.max(np.abs(fourier_basis(25).gram - np.eye(25))) <= 1e-8

    # Wiener kernel calibration: operator norm psi means scale psi * sqrt(6).
    assert calibrate_kernel("wiener", 0.5).scale == pytest.approx(
        0.5 * math.sqrt(6.0), abs=1e-4)

    acceptance_report(
        "criterion 7 PASS  invariants: sign flip exact, scale/location 1e-10, "
        "time reversal k -> n-k exact, d=J equals functional objective 1e-12, "
        "eigen reconstruction 1e-8, fourier gram 1e-8, wiener scale 1e-4")


def test_criterion_8_cli_pipeline_on_synthetic_load_profile(
        tmp_path, acceptance_report, capsys):
    """A 161-curve series with a 0.3-norm level shift at index 115 is flagged
    by the command-line pipeline at the 1% level with the locator within 3."""
    grid = Grid(np.linspace(0.0, 1.0, 97))
    spec = SimSpec(n=161, kernel=calibrate_kernel("wiener", 0.4), seed=(99, 7),
                   grid_points=97, basis_size=12, basis_order=4)
    noise = Far1Simulator(spec).generate()
    delta = make_change("constant", theta=115 / 161, amplitude=0.3,
                        grid_points=97, basis_size=12, basis_order=4).delta
    coeffs = 0.15 * noise.coeffs
    coeffs[115:] += delta.coeffs
    values = FunctionalSample(coeffs, noise.basis).evaluate(grid)
    csv_path = tmp_path / "profile.csv"
    report_path = tmp_path / "report.json"
    write_curves_csv(str(csv_path), values, grid)

    rc = main(["test", str(csv_path), "--d", "1", "--h", "2",
               "--alpha", "0.01", "--out", str(report_path)])
    capsys.readouterr()
    result = json.loads(report_path.read_text())["result"]
    located = abs(result["k_hat_standardized"] - 115) <= 3
    ok = rc == 0 and result["reject"] and located

    # Closed-form identities of the Gumbel calibration.
    a, b = normalizers(161, 1)
    x_star = -math.log(-math.log(0.9) / 2.0)
    crit = gumbel_critical(0.01, 161, 1)
    assert gumbel_pvalue(crit, 161, 1) == pytest.approx(0.01, abs=1e-9)
    assert a * gumbel_critical(0.1, 161, 1) - b == pytest.approx(x_star, abs=1e-9)
    assert x_star == pytest.approx(2.9435145, abs=1e-6)

    acceptance_report(
        f"criterion 8 {'PASS' if ok else 'FAIL'}  cli pipeline, synthetic "
        f"load profile (161 curves, shift norm 0.3 after index 115): "
        f"reject={result['reject']} at alpha=0.01, "
        f"k_hat={result['k_hat_standardized']} (target 115 +/- 3); gumbel "
        f"closed-form identities hold")
    assert ok, result
