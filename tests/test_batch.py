"""The batched Monte Carlo engine gives every replication the numbers of
running it alone.

`run_cell` pushes chunks of replications through the pipeline's array
kernels, spread over the calling process and forked worker processes;
`run_test` runs the same kernels on a batch of one, in the calling
process.  Each stacked
array form the kernels use is pinned here against the per-sample form it
replaces, bitwise: on BLAS a different layout or call shape can round
differently, and one ulp can flip a decision on the rejection boundary.
"""

import math
import multiprocessing
import os
import signal
import statistics
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcusum import _workers, basis, cli
from funcusum.basis import FunctionalSample, change_basis, fourier_basis
from funcusum.cusum import TestConfig as Config
from funcusum.cusum import (_partial_sums, _standardized_sumsq, run_test,
                            scores)
from funcusum.harness import (_CHUNK, CellCoords, CellResult, ExperimentGrid,
                              _cell_setup, run_cell)
from funcusum.lrcov import _abs_sorted_eigh, lag_cov, lrcov_estimate
from funcusum.simulate import (_GROUP, Far1Simulator, SimSpec, _bridges,
                               _wiener_paths, calibrate_kernel, make_change)

from conftest import (Stop, assert_gone, assert_no_child, count_forks,
                      pool_pids)

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
    spec, cfg, _ = _cell_setup(coords, grid)
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


@settings(max_examples=25, deadline=None)
@given(size=st.sampled_from([1, _GROUP - 1, _GROUP, _GROUP + 1,
                             2 * _GROUP + 1, 16, 17]),
       n=st.sampled_from([2, 13, 60]), burn_in=st.sampled_from([0, 20]),
       kernel=st.sampled_from(["gaussian", "wiener"]),
       psi=st.sampled_from([0.0, 0.5, 0.9]),
       change=st.sampled_from([None, "sin", "constant"]),
       seed=st.integers(0, 2**32))
def test_batch_equals_per_seed_samples(size, n, burn_in, kernel, psi, change,
                                       seed):
    # Each sample of a batch, whose seeds are drawn and summed in groups,
    # is bitwise that seed's sample drawn alone and the one that the
    # per-path np.cumsum reference gives.
    sim = Far1Simulator(SimSpec(
        n=n, kernel=calibrate_kernel(kernel, psi), burn_in=burn_in,
        change=change and make_change(change, 0.4, 0.7)))
    seeds = [(seed, 3, rep) for rep in range(size)]
    batch = sim.generate(seeds)
    assert batch.coeffs.shape == (size, n, 25)
    for b, one in enumerate(seeds):
        assert np.array_equal(batch.coeffs[b], sim.generate(one).coeffs)
        assert np.array_equal(batch.coeffs[b], reference_sample(sim, one))


def small_cell(reps, index=2):
    return (CellCoords(index, 12, "wiener", 0.6, 2.0, 2, False),
            ExperimentGrid(replications=reps, seed=9, burn_in=15,
                           lag_kernel="bartlett"))


@pytest.mark.parametrize("count", [1, 2, 3])
def test_worker_processes_batch_equals_per_seed_samples(cpus, count):
    # A cell's chunks are cut into contiguous runs, one for the calling
    # process and one for each of up to `count - 1` forked workers; its
    # numbers equal those of its replications run one by one.
    cpus(count)
    for reps in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1,
                 2 * _CHUNK + 3, 5 * _CHUNK + 3):
        coords, grid = small_cell(reps)
        assert run_cell(coords, grid, timer=lambda: 0.0) == fold(coords, grid)


def poison(monkeypatch, bad_reps):
    """Make generate raise for the streams of the replications `bad_reps`,
    alone or inside a batch, with a message naming the stream."""
    generate = Far1Simulator.generate

    def poisoned(self, seed=None):
        for stream in seed if isinstance(seed, list) else [seed]:
            if stream[2] in bad_reps:
                raise ValueError(f"bad stream {stream}")
        return generate(self, seed)

    monkeypatch.setattr(Far1Simulator, "generate", poisoned)


@pytest.mark.parametrize("where", [0, 7, len(SEEDS) - 1])
def test_bad_seed_in_a_worker_process_batch_raises_its_own_error(
        cpus, monkeypatch, where):
    # Three CPUs and 2 * 16 + 3 replications: the calling process runs
    # replications 0..15 and two workers 16..31 and 32..34.
    cpus(3)
    coords, grid = small_cell(2 * _CHUNK + 3)
    later = 2 * _CHUNK + 1  # a later chunk on a worker fails as well
    poison(monkeypatch, {where, later})
    res = run_cell(coords, grid, timer=lambda: 0.0)
    stream = (grid.seed, coords.index, where)
    assert res.completed == where
    assert res.error == (f"replication {where} (stream {stream}) failed: "
                         f"bad stream {stream}")
    assert math.isnan(res.reject_rate) and math.isnan(res.khat_median)


def in_workers(monkeypatch, action, in_parent=None):
    """Make generate call `action(seed)` in every process but the calling
    one (and `in_parent(seed)` in the calling one) before it draws."""
    generate = Far1Simulator.generate
    parent = os.getpid()

    def hooked(self, seed=None):
        if os.getpid() != parent:
            action(seed)
        elif in_parent is not None:
            in_parent(seed)
        return generate(self, seed)

    monkeypatch.setattr(Far1Simulator, "generate", hooked)


def test_only_the_pool_outlives_a_clean_or_failed_cell(cpus, monkeypatch):
    # Three CPUs: the first cell forks two workers and every later cell
    # reuses them.  The failing cell has 5 * 16 + 3 replications in six
    # chunks, two per process, and its bad one is in worker 2's first
    # chunk; the clean cell ends before it.
    # Once the pool is closed, no child is left.
    cpus(3)
    assert_no_child()
    forks = count_forks(monkeypatch)
    bad = 4 * _CHUNK + 5
    poison(monkeypatch, {bad})
    threads = threading.active_count()
    coords, grid = small_cell(4 * _CHUNK)
    assert run_cell(coords, grid, timer=lambda: 0.0) == fold(coords, grid)
    workers = pool_pids()
    assert len(workers) == 2 and forks == [os.getpid()] * 2
    coords, grid = small_cell(5 * _CHUNK + 3)
    res = run_cell(coords, grid, timer=lambda: 0.0)
    stream = (grid.seed, coords.index, bad)
    assert res.completed == bad
    assert res.error == (f"replication {bad} (stream {stream}) failed: "
                         f"bad stream {stream}")
    assert pool_pids() == workers and len(forks) == 2
    assert threading.active_count() == threads
    _workers.close()
    assert_no_child()
    assert_gone(workers)


def test_later_cells_fork_nothing(cpus, monkeypatch):
    cpus(3)
    forks = count_forks(monkeypatch)
    workers = None
    for reps, index in ((5 * _CHUNK + 3, 2), (2 * _CHUNK + 1, 4),
                        (3 * _CHUNK, 1)):
        coords, grid = small_cell(reps, index)
        assert run_cell(coords, grid, timer=lambda: 0.0) == fold(coords, grid)
        workers = workers or pool_pids()
        assert pool_pids() == workers and forks == [os.getpid()] * 2


def test_cells_on_four_threads_share_the_pool_one_at_a_time(cpus,
                                                           monkeypatch):
    # A cell started while another thread's cell holds the pool runs in
    # its own thread alone, so no two cells mix on a worker's pipes.  The
    # workers are forked before the threads start, so nothing forks while
    # they run; the threads are daemons, so a hang fails the join.
    cpus(3)
    cells = [small_cell(5 * _CHUNK + 3, index) for index in range(4)]
    expected = [fold(*cell) for cell in cells]
    run_cell(*cells[0], timer=lambda: 0.0)
    workers = pool_pids()
    forks = count_forks(monkeypatch)
    results = [[] for _ in cells]

    def run(i):
        for _ in range(3):
            results[i].append(run_cell(*cells[i], timer=lambda: 0.0))

    threads = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(len(cells))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[res] * 3 for res in expected]
    assert forks == [] and pool_pids() == workers


def test_workers_killed_and_reaped_when_the_caller_raises(cpus, monkeypatch):
    # The first cell's workers would sleep for a minute; a BaseException
    # in the calling process's run kills them instead of waiting, and
    # drops them from the pool.  The next cell forks new workers, which
    # see `busy` filled and do not sleep.
    cpus(3)
    busy = []

    def stop(seed):
        if not busy:
            busy.extend(pool_pids())
            raise Stop

    in_workers(monkeypatch, lambda seed: busy or time.sleep(60),
               in_parent=stop)
    start = time.monotonic()
    with pytest.raises(Stop):
        run_cell(*small_cell(5 * _CHUNK + 3))
    assert time.monotonic() - start < 30
    assert len(busy) == 2 and pool_pids() == []
    assert_no_child()
    assert_gone(busy)
    coords, grid = small_cell(5 * _CHUNK + 3)
    assert run_cell(coords, grid, timer=lambda: 0.0) == fold(coords, grid)
    assert len(pool_pids()) == 2 and not set(pool_pids()) & set(busy)


def test_share_of_a_killed_worker_is_redone_by_the_caller(cpus, monkeypatch):
    # Six chunks, two per process: each worker is killed as it starts its
    # second chunk (chunk 3 or 5), mid-run; the next cell, of one chunk
    # per process, forks two workers in their place.
    cpus(3)
    coords, grid = small_cell(5 * _CHUNK + 3)
    expected = fold(coords, grid)
    forks = count_forks(monkeypatch)

    def kill_on_second_chunk(seed):
        if seed[0][2] in (3 * _CHUNK, 5 * _CHUNK):
            os.kill(os.getpid(), signal.SIGKILL)

    in_workers(monkeypatch, kill_on_second_chunk)
    assert run_cell(coords, grid, timer=lambda: 0.0) == expected
    assert pool_pids() == [] and len(forks) == 2
    assert_no_child()
    coords, grid = small_cell(3 * _CHUNK)
    assert run_cell(coords, grid, timer=lambda: 0.0) == fold(coords, grid)
    assert len(pool_pids()) == 2 and len(forks) == 4


def test_share_of_a_worker_that_cannot_be_forked_is_run_by_the_caller(
        cpus, monkeypatch):
    # The second fork fails, so the caller runs worker 2's run; the next
    # cell forks the missing worker.
    cpus(3)
    coords, grid = small_cell(5 * _CHUNK + 3)
    forks = []
    fork = os.fork

    def second_fork_fails():
        forks.append(os.getpid())
        if len(forks) == 2:
            raise BlockingIOError("no process left")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    assert run_cell(coords, grid, timer=lambda: 0.0) == fold(coords, grid)
    assert len(forks) == 2 and len(pool_pids()) == 1
    assert run_cell(coords, grid, timer=lambda: 0.0) == fold(coords, grid)
    assert len(forks) == 3 and len(pool_pids()) == 2
    _workers.close()
    assert_no_child()


def blas_calls(monkeypatch):
    """Stand-in OpenBLAS thread-count calls that log what is set."""
    sets = []
    count = [4]

    def set_(value):
        sets.append(value)
        count[0] = value

    monkeypatch.setattr(_workers, "openblas_threads",
                        lambda: (lambda: count[0], set_))
    return sets


def test_single_seed_starts_no_thread_or_process(cpus, monkeypatch,
                                                 tmp_path):
    # The one-shot paths start no thread and leave BLAS as they find it,
    # however many CPUs there are.  They fork nothing, except where
    # `funcusum simulate` writes a CSV of at least two blocks of rows: at
    # two CPUs it forks one worker to format the second block, and keeps
    # it.  A cell of one chunk starts no thread and forks nothing either,
    # but holds BLAS at one thread while it runs; a cell of two chunks
    # runs its second on that worker, forking nothing.  The worker is the
    # only child left, and closing the pool reaps it.
    cpus(2)
    sets = blas_calls(monkeypatch)
    forks = count_forks(monkeypatch)
    sim = simulator()
    threads = threading.active_count()
    sim.generate()
    sim.generate(SEEDS[0])
    sim.generate([SEEDS[0]])
    run_test(sim.generate(SEEDS[1]), Config(d=2))
    config = tmp_path / "sim.cfg"
    config.write_text("n = 40\nkernel = wiener\npsi = 0.4\n")
    curves = tmp_path / "curves.csv"
    assert cli.main(["simulate", str(config), "--out", str(curves)]) == 0
    assert cli.main(["test", str(curves), "--d", "2"]) == 0
    assert sets == [] and forks == []
    assert_no_child()
    # Two blocks' worth of curves at the default 96 points per curve.
    n = -(-2 * basis._CSV_BLOCK // 96)
    config.write_text(f"n = {n}\nkernel = wiener\npsi = 0.4\n")
    assert cli.main(["simulate", str(config), "--out", str(curves)]) == 0
    assert sets == [] and forks == [os.getpid()]
    assert threading.active_count() == threads
    workers = pool_pids()
    assert len(workers) == 1
    assert cli.main(["test", str(curves), "--d", "2"]) == 0
    assert sets == [] and forks == [os.getpid()]
    run_cell(*small_cell(_CHUNK))
    assert sets == [1, 4] and forks == [os.getpid()]
    assert threading.active_count() == threads
    run_cell(*small_cell(_CHUNK + 1))
    assert sets == [1, 4, 1, 4] and forks == [os.getpid()]
    assert threading.active_count() == threads
    assert pool_pids() == workers
    _workers.close()
    assert_no_child()
    assert_gone(workers)


def test_blas_count_restored_after_a_cell(cpus, monkeypatch):
    cpus(2)
    sets = blas_calls(monkeypatch)
    seen = []
    generate = Far1Simulator.generate

    def spying(self, seed=None):
        seen.append(_workers.openblas_threads()[0]())
        return generate(self, seed)

    monkeypatch.setattr(Far1Simulator, "generate", spying)
    run_cell(*small_cell(2 * _CHUNK + 3))
    assert sets == [1, 4] and set(seen) == {1}
    _workers.close()  # the next cell's worker must see the poison
    poison(monkeypatch, {_CHUNK + 2})
    assert run_cell(*small_cell(2 * _CHUNK + 3)).error is not None
    assert sets == [1, 4, 1, 4]

    def stopping(self, seed=None):
        raise Stop

    monkeypatch.setattr(Far1Simulator, "generate", stopping)
    with pytest.raises(Stop):
        run_cell(*small_cell(2 * _CHUNK + 3))
    assert sets == [1, 4, 1, 4, 1, 4]


@pytest.mark.skipif(_workers.openblas_threads() is None,
                    reason="numpy's bundled OpenBLAS not found")
def test_bundled_openblas_held_at_one_thread_during_a_cell(cpus, monkeypatch):
    cpus(2)
    get, set_ = _workers.openblas_threads()
    before = get()
    seen = []
    generate = Far1Simulator.generate

    def spying(self, seed=None):
        seen.append(get())
        return generate(self, seed)

    monkeypatch.setattr(Far1Simulator, "generate", spying)
    set_(2)
    try:
        run_cell(*small_cell(2 * _CHUNK + 3))
        assert set(seen) == {1} and get() == 2
    finally:
        set_(before)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_draws_the_same_batch_with_a_pool_of_its_own(
        cpus, monkeypatch):
    # A child forked once the parent's pool holds a worker starts with an
    # empty pool: it forks a worker of its own for the same cell, and
    # closes its pool before it ends.  The parent's worker is untouched and
    # serves the parent's next cell.
    cpus(2)
    coords, grid = small_cell(2 * _CHUNK + 3)
    parent = run_cell(coords, grid, timer=lambda: 0.0)
    workers = pool_pids()
    assert len(workers) == 1
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def child_cell():
        inherited = pool_pids()
        result = run_cell(coords, grid, timer=lambda: 0.0)
        own = pool_pids()
        _workers.close()
        sender.send((inherited, result, own))

    child = ctx.Process(target=child_cell)
    child.start()
    try:
        assert receiver.poll(60), "the forked child ran no cell"
        inherited, result, own = receiver.recv()
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert not child.is_alive() and child.exitcode == 0
    assert inherited == [] and result == parent
    assert len(own) == 1 and own != workers
    assert_gone(own)
    forks = count_forks(monkeypatch)
    assert run_cell(coords, grid, timer=lambda: 0.0) == parent
    assert pool_pids() == workers and forks == []


def test_standard_normal_into_buffer_equals_normal():
    draws = np.empty((40, 95))
    np.random.default_rng(np.random.SeedSequence(SEEDS[3])).standard_normal(
        out=draws)
    ref = np.random.default_rng(np.random.SeedSequence(SEEDS[3])).normal(
        0.0, 1.0, size=(40, 95))
    assert np.array_equal(draws, ref)


def stacked_bridges(grid, seeds, size):
    """The reference bridge draw: each seed's increments go into one
    stack, which is scaled at once and summed along each path by
    np.cumsum."""
    pts = grid.points
    out = np.zeros((len(seeds), size, pts.size))
    draws = np.empty((size, pts.size - 1))
    for b, seed in enumerate(seeds):
        np.random.default_rng(np.random.SeedSequence(seed)).standard_normal(
            out=draws)
        out[b, :, 1:] = draws
    w = out[..., 1:]
    w *= np.sqrt(np.diff(pts))
    np.cumsum(w, axis=-1, out=w)
    for b in range(len(seeds)):
        out[b] -= pts * out[b, :, -1:]
    return out


def reference_sample(sim, seed):
    """One sample by the per-path np.cumsum bridges of stacked_bridges, a
    matrix-vector AR step per curve, and the shift added after the
    change."""
    spec = sim.spec
    shocks = stacked_bridges(sim.grid, [seed],
                             spec.burn_in + spec.n)[0] @ sim._smoother.T
    coeffs = np.empty_like(shocks)
    state = np.zeros(spec.basis_size)
    for t, shock in enumerate(shocks):
        coeffs[t] = state = shock + sim._step @ state
    coeffs = coeffs[spec.burn_in:]
    if spec.change is not None:
        coeffs[math.floor(spec.n * spec.change.theta):] += sim._delta_coeffs
    return coeffs


def test_stacked_bridges_and_smoothing_into_time_major_layout():
    # With a zero AR step and no burn-in, generate returns the smoothed
    # shocks themselves.
    sim = Far1Simulator(SimSpec(n=80, kernel=calibrate_kernel("wiener", 0.0),
                                burn_in=0))
    coeffs = sim.generate(SEEDS).coeffs.transpose(1, 0, 2)
    stack = stacked_bridges(sim.grid, SEEDS, 80)
    stacked_coeffs = np.empty((80, len(SEEDS), 25))
    np.matmul(stack, sim._smoother.T, out=stacked_coeffs.transpose(1, 0, 2))
    assert np.array_equal(coeffs, stacked_coeffs)
    wiener = _wiener_paths(
        sim.grid, [np.random.default_rng(np.random.SeedSequence(seed))
                   for seed in SEEDS], np.empty((len(SEEDS), 80, 95)))
    bridge = np.empty((80, 96))
    for b, paths in enumerate(wiener):
        one = _bridges(sim.grid, paths, bridge)
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
        a = one.centered
        assert np.array_equal(batch.centered[b], a)
        for r in range(4):
            assert np.array_equal(lag_cov(batch, r)[b],
                                  a[:60 - r].T @ a[r:] / 60)


def test_stacked_eigh_and_its_column_major_vectors():
    batch = fourier_batch()
    cov, _, _ = lrcov_estimate(batch, "bartlett", 3.0)
    vals, vecs = _abs_sorted_eigh(cov)
    a = batch.centered
    for b in range(len(SEEDS)):
        one_vals, one_vecs = per_sample_abs_sorted_eigh(cov[b])
        assert np.array_equal(vals[b], one_vals)
        assert np.array_equal(vecs[b], one_vecs)
        assert vecs[b].flags.f_contiguous and one_vecs.flags.f_contiguous
        for d in range(1, 6):
            assert np.array_equal(np.matmul(a, vecs[..., :d])[b],
                                  a[b] @ one_vecs[:, :d])


def test_partial_sums_built_in_one_array_equal_sum_then_slice():
    # Summing only the n - 1 rows kept, and dividing in place, saves two
    # temporaries per chunk; prefix sums do not depend on later rows.
    batch = fourier_batch()
    for x in (batch.centered, batch.centered[0],
              np.asfortranarray(batch.coeffs[0])):
        n = x.shape[-2]
        ref = np.cumsum(x, axis=-2)[..., :n - 1, :] / math.sqrt(n)
        got = _partial_sums(x)
        assert np.array_equal(got, ref) and got.strides == ref.strides


def test_stacked_scores_and_standardized_sums_equal_per_sample():
    batch = fourier_batch()
    _, vals, vecs = lrcov_estimate(batch, "plain", 2.0)
    for d in range(1, 6):
        eta, lam = scores(batch, vecs, d), vals[..., :d]
        sumsq = _standardized_sumsq(eta, lam)
        for b in range(len(SEEDS)):
            pos = lam[b] > 0.0
            sq = eta[b] ** 2
            assert np.array_equal(sumsq[b], sq[:, pos] @ (1.0 / lam[b][pos]))
            assert np.array_equal(_standardized_sumsq(eta[b], lam[b]),
                                  sumsq[b])


def test_degenerate_sample_in_a_batch_keeps_its_conventions():
    rng = np.random.default_rng(4)
    eta = rng.normal(size=(3, 9, 3))
    eta[1, :, 2] = 0.0  # 0/0 contributes nothing
    lambdas = np.array([[2.0, 1.0, 0.5], [2.0, 1.0, 0.0], [2.0, 0.0, 0.5]])
    sumsq = _standardized_sumsq(eta, lambdas)
    for b in range(3):
        assert np.array_equal(sumsq[b],
                              _standardized_sumsq(eta[b], lambdas[b]))
    assert np.all(np.isfinite(sumsq[1])) and np.all(np.isinf(sumsq[2]))
