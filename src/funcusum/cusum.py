"""Weighted CUSUM test for an at-most-one mean change in functional data.

The statistic is

    T_n = max_{1<=k<n} w(k/n) (eta_{k,1}^2/lambda_1 + ... + eta_{k,d}^2/lambda_d)^(1/2),
    w(t) = (t(1-t))^(-1/2),

with scores eta_{k,r} = n^(-1/2) sum_{i<=k} <X_i - Xbar_n, v_r> projected on
the leading long-run FPCs.  Critical values come either from the Gumbel
limit of a(log n) T_n - b_d(log n) or from Vostrikova's expansion for the
weighted bridge supremum V_n restricted to I_n = [h_n, 1-h_n].
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .basis import FunctionalSample, change_basis, fourier_basis
from .lrcov import (_check_bandwidth, _require_orthonormal, default_bandwidth,
                    lag_window, lrcov_estimate)

_CRITICAL_METHODS = ("vostrikova", "gumbel")


class ApproximationFailureError(RuntimeError):
    """A numerical approximation (root bracketing, expansion) failed."""


@dataclass(frozen=True)
class TestConfig:
    """Settings for one change-point test run."""

    d: int = 2
    h: float | None = None
    lag_kernel: str = "plain"
    alpha: float = 0.10
    critical_method: str = "vostrikova"
    fourier_size: int = 25

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("projection dimension d must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.h is not None:
            _check_bandwidth(self.h)
        if self.critical_method not in _CRITICAL_METHODS:
            raise ValueError(
                f"unknown critical_method {self.critical_method!r}")
        lag_window(self.lag_kernel, 0.0)  # raises on unknown names
        if self.d > self.fourier_size:
            raise ValueError("d cannot exceed the working basis size")


class CusumStats(NamedTuple):
    """The data-dependent outcome of the test, one value per sample of a
    batch in each of statistic, k_standardized and degenerate, and the
    pieces it was computed from: the batch in the orthonormal working
    basis and its partial-sum scores eta."""

    h: float
    statistic: np.ndarray
    k_standardized: np.ndarray
    degenerate: np.ndarray
    sample: FunctionalSample
    eta: np.ndarray


@dataclass(frozen=True)
class TestResult:
    """Full outcome of one weighted-CUSUM change-point test."""

    n: int
    d: int
    h: float
    lag_kernel: str
    alpha: float
    critical_method: str
    statistic: float
    normalized: float
    p_gumbel: float
    p_vostrikova: float
    critical_value: float
    reject: bool
    k_hat_standardized: int
    k_hat_unstandardized: int
    k_hat_fully_functional: int
    degenerate: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def _partial_sums(x: np.ndarray) -> np.ndarray:
    """n^(-1/2) times the cumulative sums over k = 1..n-1 of the rows of x,
    per sample of a batch, built in one array to save a chunk's memory."""
    n = x.shape[-2]
    partial = np.cumsum(x[..., :n - 1, :], axis=-2)
    return np.divide(partial, math.sqrt(n), out=partial)


def scores(sample: FunctionalSample, eigvecs: np.ndarray, d: int,
           ) -> np.ndarray:
    """Partial-sum scores eta (rows k = 1..n-1) of the centered sample on the
    first d columns of eigvecs, per sample of a batch.

    Computed as cumulative sums of per-observation scores, O(nd).
    """
    _require_orthonormal(sample)
    if d < 1 or d > eigvecs.shape[-1]:
        raise ValueError(f"need 1 <= d <= {eigvecs.shape[-1]}, got {d}")
    eta = _partial_sums(sample.centered @ eigvecs[..., :d])
    if not np.all(np.isfinite(eta)):
        raise ValueError("scores must be finite")
    return eta


def _weights(n: int) -> np.ndarray:
    """w(k/n) for k = 1..n-1."""
    k = np.arange(1, n, dtype=float) / n
    return 1.0 / np.sqrt(k * (1.0 - k))


def _weighted_max(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum of w(k/n) * values over the last axis (k = 1..n-1) and its
    smallest maximizing k."""
    obj = _weights(values.shape[-1] + 1) * values
    idx = np.argmax(obj, axis=-1)
    return np.take_along_axis(obj, idx[..., None], axis=-1)[..., 0], idx + 1


def _standardized_sumsq(eta: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Row sums of eta^2/lambda with the conventions 0/0 = 0, x/0 = inf."""
    sq = eta ** 2
    if np.all(lam > 0.0):
        # Column-major per sample: the layout of sq[i][:, pos] below, which
        # the rounding of the product depends on.
        sq = np.ascontiguousarray(sq.mT).mT
        return np.matmul(sq, (1.0 / lam)[..., None])[..., 0]
    # Some eigenvalue is not positive: each sample sums over its own
    # positive ones.
    out = np.zeros(sq.shape[:-1])
    for i in np.ndindex(lam.shape[:-1]):
        pos = lam[i] > 0.0
        if pos.any():
            out[i] += sq[i][:, pos] @ (1.0 / lam[i][pos])
        bad = sq[i][:, ~pos].sum(axis=-1)
        out[i] = np.where(bad > 0.0, np.inf, out[i])
    return out


def statistic(eta: np.ndarray, lambdas: np.ndarray | None = None,
              ) -> tuple[np.ndarray, np.ndarray]:
    """Weighted-CUSUM maximum over the n-1 rows of eta and its smallest
    maximizing index k, per sample of a batch.

    Without lambdas the squared scores are summed as they are.  Given the
    eigenvalues of eta's columns (standardized) they are divided by them;
    when some eigenvalue is zero the statistic is +infinity unless the
    corresponding scores vanish too (constant data), in which case their
    term contributes zero.
    """
    sumsq = ((eta ** 2).sum(axis=-1) if lambdas is None
             else _standardized_sumsq(eta, lambdas))
    return _weighted_max(np.sqrt(sumsq))


def normalizers(n: int, d: int) -> tuple[float, float]:
    """Darling-Erdos normalizers a(t) and b_d(t) at t = log n:

        a(t) = (2 log t)^(1/2),
        b_d(t) = 2 log t + (d/2) log log t - log Gamma(d/2).

    Requires log log n > 0; the limit is intended for n >= 16 but the
    formulas are evaluated whenever they are defined.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    t = math.log(n)
    if t <= 1.0:
        raise ValueError(f"normalizers need log log n > 0, got n = {n}")
    if d < 1:
        raise ValueError("d must be >= 1")
    a = math.sqrt(2.0 * math.log(t))
    b = (2.0 * math.log(t) + 0.5 * d * math.log(math.log(t))
         - math.lgamma(0.5 * d))
    return a, b


def gumbel_pvalue(t_stat: float, n: int, d: int) -> float:
    """P-value from the Gumbel limit of a(log n) T - b_d(log n)."""
    a, b = normalizers(n, d)
    x = a * t_stat - b
    if x < -30.0:
        return 1.0
    p = 1.0 - math.exp(-2.0 * math.exp(-x))
    return min(max(p, 0.0), 1.0)


def gumbel_critical(alpha: float, n: int, d: int) -> float:
    """Critical value for T at level alpha under the Gumbel limit."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    a, b = normalizers(n, d)
    x = -math.log(-math.log(1.0 - alpha) / 2.0)
    return (x + b) / a


def _truncation(n: int) -> float:
    if n < 2:
        raise ValueError("need n >= 2")
    hn = math.log(n) ** 1.5 / n
    if not 0.0 < hn < 0.5:
        raise ValueError(f"truncation h_n = {hn} outside (0, 1/2)")
    return hn


def vostrikova_tail(x: float, n: int, d: int) -> float:
    """Expansion of P(V_n >= x) for the weighted d-dim bridge supremum on I_n.

    Valid for x > sqrt(d); the O(x^-4) remainder is dropped and the value
    is clamped to [0,1].
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    hn = _truncation(n)
    if math.isinf(x):
        return 0.0
    if x <= math.sqrt(d):
        raise ValueError(
            f"expansion needs x > sqrt(d) = {math.sqrt(d):.6f}, got {x}")
    return min(max(_expansion(x, d, hn, math.log, math.exp), 0.0), 1.0)


def _expansion(x, d: int, hn: float, log, exp):
    """Vostrikova's expansion at x, unclamped, with the given log and exp:
    math's for a float, numpy's for an array."""
    log_lead = (d * log(x) - 0.5 * x * x - 0.5 * d * math.log(2.0)
                - math.lgamma(0.5 * d))
    big_l = math.log((1.0 - hn) ** 2 / hn ** 2)
    brace = (1.0 - d / (x * x)) * big_l + 4.0 / (x * x)
    return exp(log_lead) * brace


def vostrikova_pvalue(t_stat: float, n: int, d: int) -> float:
    """vostrikova_tail at the observed statistic; p = 1 outside the domain
    and up to the tail's peak, where the expansion still rises, so that
    p < alpha exactly when t_stat > vostrikova_critical(alpha, n, d)."""
    if t_stat <= _tail_peak(n, d)[0]:
        return 1.0
    return vostrikova_tail(t_stat, n, d)


def _tail_peak(n: int, d: int) -> tuple[float, float]:
    """Argmax and maximum of vostrikova_tail on a 2048-point scan of
    [sqrt(d) + 1e-6, 50].

    The scan evaluates the expansion on the whole array at once; numpy's
    log and exp may round differently from math's, so the maximum is
    taken again from the scalar vostrikova_tail at the argmax.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    xs = np.linspace(math.sqrt(d) + 1e-6, 50.0, 2048)
    vals = _expansion(xs, d, _truncation(n), np.log, np.exp)
    top = int(np.argmax(np.clip(vals, 0.0, 1.0)))
    x_top = float(xs[top])
    return x_top, vostrikova_tail(x_top, n, d)


def vostrikova_critical(alpha: float, n: int, d: int) -> float:
    """Root of vostrikova_tail(x) = alpha by bisection on [sqrt(d)+1e-6, 50].

    The expansion is not monotone near its lower domain edge, so the search
    starts from the tail's argmax on a dense scan of the bracket.  For alpha
    close to 1 the target can exceed the expansion's maximum, in which case
    an ApproximationFailureError is raised (central quantiles are outside
    the expansion's reach).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    lo, peak = _tail_peak(n, d)
    hi = 50.0
    if peak < alpha:
        raise ApproximationFailureError(
            f"tail expansion peaks at {peak:.6f} < alpha = {alpha}; "
            "no root on the bracket")
    if vostrikova_tail(hi, n, d) >= alpha:
        raise ApproximationFailureError(
            "tail still above alpha at the upper bracket x = 50")
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if vostrikova_tail(mid, n, d) >= alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _fully_functional_max(sample: FunctionalSample,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Weighted maximum of the norm of the full centered cumulative
    coefficient vector, and its smallest maximizing k, per sample."""
    _require_orthonormal(sample)
    partial = _partial_sums(sample.centered)
    np.square(partial, out=partial)
    return _weighted_max(np.sqrt(partial.sum(axis=-1)))


def cusum_stats(sample: FunctionalSample, cfg: TestConfig) -> CusumStats:
    """Orthonormalize, estimate long-run FPCs, take the standardized
    weighted CUSUM maximum and locate the change, for each sample of a
    batch.

    Samples in a non-orthonormal basis are converted to a Fourier basis of
    cfg.fourier_size on a uniform 201-point grid first.  The locator is
    the smallest maximizing k; run_test adds the other two.  A sample's
    numbers do not depend on the batch it is in.
    """
    n = len(sample)
    if n < 3:
        raise ValueError("need at least three curves to run the test")
    if sample.basis.is_orthonormal:
        work = sample
    else:
        work = change_basis(sample, fourier_basis(cfg.fourier_size), 201)
    h = float(default_bandwidth(n)) if cfg.h is None else cfg.h
    _, eigvals, eigvecs = lrcov_estimate(work, cfg.lag_kernel, h)
    eta = scores(work, eigvecs, cfg.d)
    lam = eigvals[..., :cfg.d]
    t_stat, k_std = statistic(eta, lam)
    return CusumStats(h, t_stat, k_std, np.any(lam <= 0.0, axis=-1), work,
                      eta)


def critical_value(cfg: TestConfig, n: int) -> float:
    """Critical value for T at cfg.alpha and cfg.d for n curves, by
    cfg.critical_method; it depends on neither the data nor the batch."""
    if cfg.critical_method == "vostrikova":
        return vostrikova_critical(cfg.alpha, n, cfg.d)
    return gumbel_critical(cfg.alpha, n, cfg.d)


def run_test(sample: FunctionalSample, cfg: TestConfig) -> TestResult:
    """Full pipeline for one sample: cusum_stats on a batch of one, then
    the critical value, the normalized statistic, both p-values and the
    other two change locators, all with the smallest-index tie rule: the
    unstandardized one maximizes over the d projected scores, the fully
    functional one over the full centered cumulative coefficient vector."""
    n = len(sample)
    stats = cusum_stats(FunctionalSample(sample.coeffs[None], sample.basis),
                        cfg)
    _, k_unstd = statistic(stats.eta)
    _, k_full = _fully_functional_max(stats.sample)
    crit = critical_value(cfg, n)
    t_stat = float(stats.statistic[0])
    a, b = normalizers(n, cfg.d)
    normalized = a * t_stat - b if math.isfinite(t_stat) else math.inf
    return TestResult(
        n=n, d=cfg.d, h=stats.h, lag_kernel=cfg.lag_kernel, alpha=cfg.alpha,
        critical_method=cfg.critical_method, statistic=t_stat,
        normalized=normalized, p_gumbel=gumbel_pvalue(t_stat, n, cfg.d),
        p_vostrikova=vostrikova_pvalue(t_stat, n, cfg.d),
        critical_value=crit, reject=bool(t_stat > crit),
        k_hat_standardized=int(stats.k_standardized[0]),
        k_hat_unstandardized=int(k_unstd[0]),
        k_hat_fully_functional=int(k_full[0]),
        degenerate=bool(stats.degenerate[0]))
