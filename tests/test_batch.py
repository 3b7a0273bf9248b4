"""The batched Monte Carlo engine gives every replication the numbers of
running it alone.

`run_cell` pushes chunks of replications through the pipeline's array
kernels; `run_test` runs the same kernels on a batch of one.  Each stacked
array form the kernels use is pinned here against the per-sample form it
replaces, bitwise: on BLAS a different layout or call shape can round
differently, and one ulp can flip a decision on the rejection boundary.
"""

import math
import statistics

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from funcusum.basis import FunctionalSample, change_basis, fourier_basis
from funcusum.cusum import ScoreMatrix, _standardized_sumsq, run_test, scores
from funcusum.harness import (_CHUNK, CellCoords, CellResult, ExperimentGrid,
                              _cell_setup, run_cell)
from funcusum.lrcov import (LagWindowKernel, _abs_sorted_eigh, lag_cov,
                            lrcov_estimate)
from funcusum.simulate import (Far1Simulator, SimSpec, _bridges,
                               brownian_bridge_values, calibrate_kernel)

SEEDS = [(5, 3, rep) for rep in range(_CHUNK + 1)]


def simulator(n=60, psi=0.6, kernel="wiener"):
    return Far1Simulator(SimSpec(n=n, kernel=calibrate_kernel(kernel, psi),
                                 burn_in=20))


def fourier_batch(n=60):
    """A chunk of simulated samples in the orthonormal working basis."""
    return change_basis(simulator(n).generate(SEEDS), fourier_basis(25))


def per_sample_abs_sorted_eigh(c):
    """The single-matrix eigen step the batched one replaces."""
    vals, vecs = np.linalg.eigh(c)
    avals = np.abs(vals)
    order = np.argsort(-avals, kind="stable")
    vecs = vecs[:, order]
    for j in range(vecs.shape[1]):
        lead = np.argmax(np.abs(vecs[:, j]))
        if vecs[lead, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return avals[order], vecs


def fold(coords, grid):
    """The CellResult of running the cell's replications one at a time."""
    spec, cfg = _cell_setup(coords, grid)
    sim = Far1Simulator(spec)
    results = [run_test(sim.generate((grid.seed, coords.index, rep)), cfg)
               for rep in range(grid.replications)]
    reps = grid.replications
    p_hat = sum(r.reject for r in results) / reps
    khats = [r.k_hat_standardized / coords.n for r in results]
    return CellResult(coords=coords, replications=reps, completed=reps,
                      reject_rate=p_hat,
                      se=math.sqrt(p_hat * (1.0 - p_hat) / reps),
                      khat_mean=statistics.fmean(khats),
                      khat_median=statistics.median(khats), seconds=0.0)


@settings(max_examples=30, deadline=None)
@given(reps=st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                             2 * _CHUNK + 3]),
       n=st.sampled_from([8, 25, 60]), d=st.integers(1, 5),
       lag_kernel=st.sampled_from(["plain", "bartlett", "parzen", "flattop"]),
       h=st.sampled_from([0.0, 1.5, 4.0]),
       kernel=st.sampled_from(["gaussian", "wiener"]),
       psi=st.sampled_from([0.2, 0.8]), alternative=st.booleans(),
       critical_method=st.sampled_from(["vostrikova", "gumbel"]),
       seed=st.integers(0, 2**32))
def test_run_cell_equals_fold_over_run_test(reps, n, d, lag_kernel, h, kernel,
                                            psi, alternative, critical_method,
                                            seed):
    grid = ExperimentGrid(replications=reps, seed=seed, burn_in=15,
                          lag_kernel=lag_kernel,
                          critical_method=critical_method,
                          change_amplitude=0.3)
    coords = CellCoords(seed % 7, n, kernel, psi, h, d, alternative)
    assert run_cell(coords, grid, timer=lambda: 0.0) == fold(coords, grid)


def test_batch_equals_per_seed_samples():
    sim = simulator()
    batch = sim.generate(SEEDS)
    assert batch.coeffs.shape == (len(SEEDS), 60, 25)
    for b, seed in enumerate(SEEDS):
        assert np.array_equal(batch.coeffs[b], sim.generate(seed).coeffs)


def test_standard_normal_into_buffer_equals_normal():
    draws = np.empty((40, 95))
    np.random.default_rng(np.random.SeedSequence(SEEDS[3])).standard_normal(
        out=draws)
    ref = np.random.default_rng(np.random.SeedSequence(SEEDS[3])).normal(
        0.0, 1.0, size=(40, 95))
    assert np.array_equal(draws, ref)


def test_stacked_bridges_and_smoothing_into_time_major_layout():
    sim = simulator()
    rngs = lambda: [np.random.default_rng(np.random.SeedSequence(s))
                    for s in SEEDS]
    stack = _bridges(sim.grid, rngs(), 80)
    coeffs = np.empty((80, len(SEEDS), 25))
    np.matmul(stack, sim._smoother.T, out=coeffs.transpose(1, 0, 2))
    for b, rng in enumerate(rngs()):
        one = brownian_bridge_values(sim.grid, rng, 80)
        assert np.array_equal(stack[b], one)
        assert np.array_equal(coeffs[:, b], one @ sim._smoother.T)


def test_stacked_ar_step_equals_per_sample_matvec():
    step = simulator()._step
    states = np.random.default_rng(1).normal(size=(len(SEEDS), 25))
    prod = np.empty((len(SEEDS), 25, 1))
    np.matmul(step, states[..., None], out=prod)
    for b, state in enumerate(states):
        assert np.array_equal(prod[b, :, 0], step @ state)


def test_stacked_change_basis_equals_per_sample():
    raw = simulator().generate(SEEDS)
    batch = change_basis(raw, fourier_basis(25))
    for b in range(len(SEEDS)):
        one = change_basis(FunctionalSample(raw.coeffs[b], raw.basis),
                           fourier_basis(25))
        assert np.array_equal(batch.coeffs[b], one.coeffs)


def test_stacked_centering_and_lag_covariances_equal_per_sample():
    batch = fourier_batch()
    for b in range(len(SEEDS)):
        one = FunctionalSample(batch.coeffs[b], batch.basis)
        a = one.centered()
        assert np.array_equal(batch.centered()[b], a)
        for r in range(4):
            assert np.array_equal(lag_cov(batch, r)[b],
                                  a[:60 - r].T @ a[r:] / 60)


def test_stacked_eigh_and_its_column_major_vectors():
    batch = fourier_batch()
    cov = lrcov_estimate(batch, LagWindowKernel("bartlett"), 3.0).cov
    vals, vecs = _abs_sorted_eigh(cov)
    a = batch.centered()
    for b in range(len(SEEDS)):
        one_vals, one_vecs = per_sample_abs_sorted_eigh(cov[b])
        assert np.array_equal(vals[b], one_vals)
        assert np.array_equal(vecs[b], one_vecs)
        assert vecs[b].flags.f_contiguous and one_vecs.flags.f_contiguous
        for d in range(1, 6):
            assert np.array_equal(np.matmul(a, vecs[..., :d])[b],
                                  a[b] @ one_vecs[:, :d])


def test_stacked_scores_and_standardized_sums_equal_per_sample():
    batch = fourier_batch()
    est = lrcov_estimate(batch, LagWindowKernel("plain"), 2.0)
    for d in range(1, 6):
        sm = scores(batch, est, d)
        sumsq = _standardized_sumsq(sm)
        for b in range(len(SEEDS)):
            one = ScoreMatrix(sm.eta[b], sm.lambdas[b])
            pos = one.lambdas > 0.0
            sq = one.eta ** 2
            assert np.array_equal(sumsq[b],
                                  sq[:, pos] @ (1.0 / one.lambdas[pos]))
            assert np.array_equal(_standardized_sumsq(one), sumsq[b])


def test_degenerate_sample_in_a_batch_keeps_its_conventions():
    rng = np.random.default_rng(4)
    eta = rng.normal(size=(3, 9, 3))
    eta[1, :, 2] = 0.0  # 0/0 contributes nothing
    lambdas = np.array([[2.0, 1.0, 0.5], [2.0, 1.0, 0.0], [2.0, 0.0, 0.5]])
    sm = ScoreMatrix(eta, lambdas)
    sumsq = _standardized_sumsq(sm)
    for b in range(3):
        one = ScoreMatrix(eta[b], lambdas[b])
        assert np.array_equal(sumsq[b], _standardized_sumsq(one))
    assert np.all(np.isfinite(sumsq[1])) and np.all(np.isinf(sumsq[2]))
    assert sm.degenerate.tolist() == [False, True, True]
