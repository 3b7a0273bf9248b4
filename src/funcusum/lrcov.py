"""Long-run covariance of a functional time series via lag-window smoothing.

In an orthonormal basis the lag-r autocovariance operator of centered
coefficient vectors a_i is the matrix C_r = (1/n) sum_i a_i a_{i+r}',
and the long-run covariance estimate is

    C = C_0 + sum_{r=1}^{floor(c h)} K(r/h) (C_r + C_r')

for a symmetric lag-window K with support bound c and bandwidth h.
Eigenvalues are mapped through absolute value and re-sorted descending
(together with their eigenfunctions); a deterministic sign convention
makes the decomposition reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import Basis, Curve, FunctionalSample


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
    """Symmetric, bounded lag window with K(0)=1 and K(x)=0 for |x|>support."""

    kind: str
    support: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KERNELS:
            raise ValueError(
                f"unknown lag kernel {self.kind!r}; choose from {sorted(_KERNELS)}")
        if self.support <= 0:
            raise ValueError("support bound must be positive")

    def weight(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) > self.support, 0.0, _KERNELS[self.kind](x))

    @classmethod
    def from_name(cls, name: str) -> "LagWindowKernel":
        return cls(kind=name.lower())


def _require_orthonormal(sample: FunctionalSample) -> None:
    if not sample.basis.is_orthonormal:
        raise ValueError(
            "long-run covariance requires an orthonormal basis; "
            "convert with change_basis first")


def lag_cov(sample: FunctionalSample, r: int) -> np.ndarray:
    """Lag-r autocovariance matrix (1/n) sum_{i<=n-r} a_i a_{i+r}' (centered)."""
    _require_orthonormal(sample)
    n = len(sample)
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n = {n}, got r = {r}")
    a = sample.centered()
    return a[:n - r].T @ a[r:] / n


def default_bandwidth(n: int, gamma: float = 4.0, scale: float = 1.0) -> int:
    """Rate-rule bandwidth floor(scale * n^(1/gamma)); requires gamma > 3."""
    if n < 2:
        raise ValueError("need n >= 2")
    if gamma <= 3.0:
        raise ValueError(f"rate rule requires gamma > 3, got {gamma}")
    return math.floor(scale * n ** (1.0 / gamma))


def _abs_sorted_eigh(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh, then |.| on eigenvalues with a joint stable descending re-sort
    and the largest-magnitude-coefficient-positive sign convention."""
    vals, vecs = np.linalg.eigh(c)
    avals = np.abs(vals)
    order = np.argsort(-avals, kind="stable")
    avals = avals[order]
    vecs = vecs[:, order]
    for j in range(vecs.shape[1]):
        lead = np.argmax(np.abs(vecs[:, j]))
        if vecs[lead, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return avals, vecs


@dataclass(frozen=True)
class LrCovEstimate:
    """Long-run covariance matrix with its (abs-convention) eigenstructure."""

    cov: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    basis: Basis
    h: float
    kernel_kind: str

    def eigenfunction(self, j: int) -> Curve:
        return Curve(self.eigvecs[:, j], self.basis)


def lrcov_estimate(sample: FunctionalSample, kernel: LagWindowKernel,
                   h: float) -> LrCovEstimate:
    """Lag-window long-run covariance estimate with eigenstructure.

    h = 0 is the no-correction convention: C equals the lag-0 covariance.
    The lag sum is truncated at floor(support * h) since the window
    vanishes beyond its support.
    """
    _require_orthonormal(sample)
    n = len(sample)
    if n < 2:
        raise ValueError("need at least two curves")
    if h < 0:
        raise ValueError(f"bandwidth must be nonnegative, got {h}")
    c = lag_cov(sample, 0)
    if h > 0:
        max_lag = min(math.floor(kernel.support * h), n - 1)
        for r in range(1, max_lag + 1):
            w = float(kernel.weight(np.asarray(r / h)))
            if w == 0.0:
                continue
            cr = lag_cov(sample, r)
            c = c + w * (cr + cr.T)
    c = 0.5 * (c + c.T)
    vals, vecs = _abs_sorted_eigh(c)
    return LrCovEstimate(cov=c, eigvals=vals, eigvecs=vecs, basis=sample.basis,
                         h=float(h), kernel_kind=kernel.kind)
