"""Shared pytest plumbing.

The acceptance tests register one summary line each; the terminal-summary
hook prints them after the run so the gate status is visible even for
passing tests (whose stdout pytest would otherwise swallow).  The bridge
supremum Monte Carlo is session-scoped because two test modules compare
against the same reference distribution.  `dense_gram` is the L2 oracle
the tests use for inner products and norms in a basis.
"""

import math

import numpy as np
import pytest

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
    rng = np.random.default_rng(20260814)
    chunk = 1000
    for _ in range(BRIDGE_PATHS // chunk):
        wiener = rng.normal(size=(3, chunk, sqrt_dt.size))
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
