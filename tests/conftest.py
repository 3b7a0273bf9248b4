"""Shared pytest plumbing.

The acceptance tests register one summary line each; the terminal-summary
hook prints them after the run so the gate status is visible even for
passing tests (whose stdout pytest would otherwise swallow).  The bridge
supremum Monte Carlo is session-scoped because two test modules compare
against the same reference distribution; it draws on the calling thread
while one worker thread reduces the previous draw, and joins the worker
before it returns, so no thread is alive when a later test forks.  `dense_gram` is the L2 oracle
the tests use for inner products and norms in a basis.  The package's
worker processes live as long as the process, so a worker forked before
a test would not see what the test patches: the `fresh_pool` fixture
closes the pool before and after such a test.  The `cpus` fixture, which
uses it, sets how many CPUs the workers are spread over;
`assert_no_child` checks that no child process is left, which holds once
the pool is closed, and `count_forks` logs each fork.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from funcusum import _workers

_acceptance_lines: list[str] = []

BRIDGE_PATHS = 200_000
BRIDGE_GRID = 2000


def dense_gram(basis, num_points=2001):
    """Gram matrix <b_i, b_j> of a basis on [0,1] by the trapezoid rule on
    `num_points` equidistant points."""
    t = np.linspace(0.0, 1.0, num_points)
    design = basis.evaluate(t)
    w = np.full(num_points, 1.0 / (num_points - 1))
    w[0] = w[-1] = 0.5 / (num_points - 1)
    return design.T @ (w[:, None] * design)


@pytest.fixture
def fresh_pool():
    """Start and end the test with no pooled worker, so that the workers
    it forks run the code as it patches it, and none outlives it."""
    _workers.close()
    yield
    _workers.close()


@pytest.fixture
def cpus(monkeypatch, fresh_pool):
    """Set the usable CPU count that run_cell spreads a cell's chunks over,
    and write_curves_csv a file's blocks; the pool starts empty."""
    return lambda count: monkeypatch.setattr(_workers, "usable_cpus",
                                             lambda: count)


def pool_pids():
    """Pids of the pooled workers, in pool order."""
    return [worker.pid for worker in _workers._pool]


def assert_no_child():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_gone(pids):
    """No process has any of these pids: each was reaped, not only
    killed."""
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def count_forks(monkeypatch):
    """Log the pid of the process making each os.fork call, then fork."""
    forks = []
    fork = os.fork

    def counting():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


class Stop(BaseException):
    pass


@pytest.fixture(scope="session")
def bridge_sup_samples():
    """Suprema of sqrt(sum_r B_r(t)^2) / sqrt(t(1-t)) over I_n = [h_n, 1-h_n].

    200000 independent paths of a 3-dimensional Brownian bridge on a
    2000-point grid; components accumulate progressively so d = 1, 2, 3
    share the same draws.  Returns {(d, n): array of 200000 suprema} for
    d in {1, 2, 3} and n in {100, 500} (h_n = (log n)^{3/2} / n).
    """
    t = np.linspace(0.0, 1.0, BRIDGE_GRID)
    inner = t[1:-1]
    # I_100 lies inside I_500, so the paths are evaluated on the I_500
    # window only and the I_100 window is a slice of it.
    windows = {}
    for n in (100, 500):
        hn = math.log(n) ** 1.5 / n
        idx = np.flatnonzero((inner >= hn) & (inner <= 1.0 - hn))
        windows[n] = slice(idx[0], idx[-1] + 1)
    lo, hi = windows[500].start, windows[500].stop
    sub = {n: slice(w.start - lo, w.stop - lo) for n, w in windows.items()}
    weight = 1.0 / np.sqrt(inner[lo:hi] * (1.0 - inner[lo:hi]))
    sqrt_dt = np.sqrt(np.diff(t))
    sups = {(d, n): [] for d in (1, 2, 3) for n in (100, 500)}

    def reduce(wiener):
        wiener *= sqrt_dt
        np.cumsum(wiener, axis=2, out=wiener)
        # Bridge values on the window: inner point j is wiener[..., j].
        sq = wiener[:, :, lo:hi] - t[1 + lo:1 + hi] * wiener[:, :, -1:]
        np.square(sq, out=sq)
        np.cumsum(sq, axis=0, out=sq)  # sq[d - 1]: sum of the first d
        for d in (1, 2, 3):
            vals = np.sqrt(sq[d - 1]) * weight
            for n in (100, 500):
                sups[(d, n)].append(vals[:, sub[n]].max(axis=1))

    # The draws come from one stream in order; the next chunk is drawn
    # while the previous one is reduced, and two chunks at most are alive.
    rng = np.random.default_rng(20260814)
    chunk = 1000
    with ThreadPoolExecutor(1) as pool:
        reduced = pool.submit(lambda: None)
        for _ in range(BRIDGE_PATHS // chunk):
            wiener = rng.normal(size=(3, chunk, sqrt_dt.size))
            reduced.result()
            reduced = pool.submit(reduce, wiener)
        reduced.result()
    return {key: np.concatenate(parts) for key, parts in sups.items()}


@pytest.fixture(scope="session")
def acceptance_report():
    def record(line: str) -> None:
        _acceptance_lines.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _acceptance_lines:
        terminalreporter.write_line(line)
