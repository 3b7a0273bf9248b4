"""Long-run covariance of a functional time series via lag-window smoothing.

In an orthonormal basis the lag-r autocovariance operator of centered
coefficient vectors a_i is the matrix C_r = (1/n) sum_i a_i a_{i+r}',
and the long-run covariance estimate is

    C = C_0 + sum_{r=1}^{floor(h)} K(r/h) (C_r + C_r')

for a symmetric lag-window K supported on [-1, 1] and bandwidth h.
Eigenvalues are mapped through absolute value and re-sorted descending
(together with their eigenfunctions); a deterministic sign convention
makes the decomposition reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import FunctionalSample


def _plain(x: np.ndarray) -> np.ndarray:
    return (np.abs(x) <= 1.0).astype(float)


def _bartlett(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, 1.0 - np.abs(x))


def _parzen(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    out = np.zeros_like(ax)
    near = ax <= 0.5
    mid = (ax > 0.5) & (ax <= 1.0)
    out[near] = 1.0 - 6.0 * ax[near] ** 2 + 6.0 * ax[near] ** 3
    out[mid] = 2.0 * (1.0 - ax[mid]) ** 3
    return out


def _flattop(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return np.clip(2.0 * (1.0 - ax), 0.0, 1.0)


_KERNELS = {
    "plain": _plain,
    "bartlett": _bartlett,
    "parzen": _parzen,
    "flattop": _flattop,
}


def lag_window(kind: str, x) -> np.ndarray:
    """Weight K(x) of the named lag window (case-insensitive): symmetric,
    bounded, K(0) = 1 and K(x) = 0 for |x| > 1."""
    window = _KERNELS.get(kind.lower())
    if window is None:
        raise ValueError(f"unknown lag kernel {kind.lower()!r}; "
                         f"choose from {sorted(_KERNELS)}")
    return window(np.asarray(x, dtype=float))


def _require_orthonormal(sample: FunctionalSample) -> None:
    if not sample.basis.is_orthonormal:
        raise ValueError("the test's stages require an orthonormal basis; "
                         "convert with change_basis first")


def lag_cov(sample: FunctionalSample, r: int) -> np.ndarray:
    """Lag-r autocovariance matrix (1/n) sum_{i<=n-r} a_i a_{i+r}' (centered),
    one per sample of a batch."""
    _require_orthonormal(sample)
    n = len(sample)
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n = {n}, got r = {r}")
    a = sample.centered
    return a[..., :n - r, :].mT @ a[..., r:, :] / n


def default_bandwidth(n: int) -> int:
    """Rate-rule bandwidth floor(n^(1/4))."""
    if n < 2:
        raise ValueError("need n >= 2")
    return math.floor(n ** (1.0 / 4.0))


def _check_bandwidth(h: float) -> None:
    """Raise ValueError unless h is a finite, nonnegative bandwidth."""
    if not math.isfinite(h):
        raise ValueError(f"bandwidth must be finite, got {h}")
    if h < 0:
        raise ValueError(f"bandwidth must be nonnegative, got {h}")


def _abs_sorted_eigh(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of each matrix of a stack, then |.| on eigenvalues with a joint
    stable descending re-sort and the largest-magnitude-coefficient-positive
    sign convention.

    Each matrix of eigenvectors is column-major, the layout a column
    selection of one eigh result has; the rounding of the scores product
    depends on it.
    """
    vals, vecs = np.linalg.eigh(c)
    avals = np.abs(vals)
    order = np.argsort(-avals, axis=-1, kind="stable")
    avals = np.take_along_axis(avals, order, axis=-1)
    vecs = np.take_along_axis(vecs.mT, order[..., None], axis=-2).mT
    lead = np.argmax(np.abs(vecs), axis=-2)
    flip = np.take_along_axis(vecs, lead[..., None, :], axis=-2) < 0
    np.negative(vecs, out=vecs, where=flip)
    return avals, vecs


def lrcov_estimate(sample: FunctionalSample, kernel: str, h: float,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lag-window long-run covariance estimate C and its (abs-convention)
    eigenvalues and eigenvectors, (cov, eigvals, eigvecs), one per sample
    of a batch.  Column j of eigvecs holds the coefficients of
    eigenfunction j in the sample's basis.

    h = 0 is the no-correction convention: C equals the lag-0 covariance.
    The lag sum is truncated at floor(h) since the window vanishes beyond
    [-1, 1].
    """
    _require_orthonormal(sample)
    n = len(sample)
    if n < 2:
        raise ValueError("need at least two curves")
    _check_bandwidth(h)
    c = lag_cov(sample, 0)
    if h > 0:
        max_lag = min(math.floor(h), n - 1)
        for r in range(1, max_lag + 1):
            w = float(lag_window(kernel, r / h))
            if w == 0.0:
                continue
            cr = lag_cov(sample, r)
            c = c + w * (cr + cr.mT)
    c = 0.5 * (c + c.mT)
    return (c, *_abs_sorted_eigh(c))
