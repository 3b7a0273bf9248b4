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
from dataclasses import dataclass

import numpy as np

from .basis import Basis, FunctionalSample


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


@dataclass(frozen=True)
class LagWindowKernel:
    """Symmetric, bounded lag window with K(0)=1 and K(x)=0 for |x|>1."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _KERNELS:
            raise ValueError(
                f"unknown lag kernel {self.kind!r}; choose from {sorted(_KERNELS)}")

    def weight(self, x: np.ndarray) -> np.ndarray:
        return _KERNELS[self.kind](np.asarray(x, dtype=float))

    @classmethod
    def from_name(cls, name: str) -> "LagWindowKernel":
        return cls(kind=name.lower())


def _require_orthonormal(sample: FunctionalSample) -> None:
    if not sample.basis.is_orthonormal:
        raise ValueError(
            "long-run covariance requires an orthonormal basis; "
            "convert with change_basis first")


def lag_cov(sample: FunctionalSample, r: int) -> np.ndarray:
    """Lag-r autocovariance matrix (1/n) sum_{i<=n-r} a_i a_{i+r}' (centered),
    one per sample of a batch."""
    _require_orthonormal(sample)
    n = len(sample)
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n = {n}, got r = {r}")
    a = sample.centered()
    return a[..., :n - r, :].mT @ a[..., r:, :] / n


def default_bandwidth(n: int) -> int:
    """Rate-rule bandwidth floor(n^(1/4))."""
    if n < 2:
        raise ValueError("need n >= 2")
    return math.floor(n ** (1.0 / 4.0))


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


@dataclass(frozen=True)
class LrCovEstimate:
    """Long-run covariance matrix with its (abs-convention) eigenstructure;
    a batch stacks each array on leading axes.  Column j of `eigvecs` holds
    the coefficients of eigenfunction j in `basis`."""

    cov: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    basis: Basis


def lrcov_estimate(sample: FunctionalSample, kernel: LagWindowKernel,
                   h: float) -> LrCovEstimate:
    """Lag-window long-run covariance estimate with eigenstructure, one per
    sample of a batch.

    h = 0 is the no-correction convention: C equals the lag-0 covariance.
    The lag sum is truncated at floor(h) since the window vanishes beyond
    [-1, 1].
    """
    _require_orthonormal(sample)
    n = len(sample)
    if n < 2:
        raise ValueError("need at least two curves")
    if h < 0:
        raise ValueError(f"bandwidth must be nonnegative, got {h}")
    c = lag_cov(sample, 0)
    if h > 0:
        max_lag = min(math.floor(h), n - 1)
        for r in range(1, max_lag + 1):
            w = float(kernel.weight(np.asarray(r / h)))
            if w == 0.0:
                continue
            cr = lag_cov(sample, r)
            c = c + w * (cr + cr.mT)
    c = 0.5 * (c + c.mT)
    vals, vecs = _abs_sorted_eigh(c)
    return LrCovEstimate(cov=c, eigvals=vals, eigvecs=vecs, basis=sample.basis)
