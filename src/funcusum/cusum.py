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

import functools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .basis import FunctionalSample, Grid, change_basis, fourier_basis
from .lrcov import (_check_bandwidth, _require_orthonormal, default_bandwidth,
                    lag_window, lrcov_estimate)


# Entries kept by each per-process memo below.  A Monte Carlo cell reuses
# one key for all its replications, so the bound only limits memory.
_MEMO_SIZE = 256


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
        if self.critical_method not in ("vostrikova", "gumbel"):
            raise ValueError(
                f"unknown critical_method {self.critical_method!r}")
        lag_window(self.lag_kernel, 0.0)  # raises on unknown names
        if self.d > self.fourier_size:
            raise ValueError("d cannot exceed the working basis size")


class CusumStats(NamedTuple):
    """The data-dependent outcome of the test: one value per sample of a
    batch in each array field."""

    h: float
    statistic: np.ndarray
    critical_value: float
    k_standardized: np.ndarray
    k_unstandardized: np.ndarray
    k_fully_functional: np.ndarray
    degenerate: np.ndarray


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
    per sample of a batch."""
    n = x.shape[-2]
    return np.cumsum(x, axis=-2)[..., :n - 1, :] / math.sqrt(n)


def scores(sample: FunctionalSample, eigvecs: np.ndarray, d: int,
           ) -> np.ndarray:
    """Partial-sum scores eta (rows k = 1..n-1) of the centered sample on the
    first d columns of eigvecs, per sample of a batch.

    Computed as cumulative sums of per-observation scores, O(nd).
    """
    _require_orthonormal(sample)
    if d < 1 or d > eigvecs.shape[-1]:
        raise ValueError(f"need 1 <= d <= {eigvecs.shape[-1]}, got {d}")
    eta = _partial_sums(sample.centered() @ eigvecs[..., :d])
    if not np.all(np.isfinite(eta)):
        raise ValueError("scores must be finite")
    return eta


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _weights(n: int) -> np.ndarray:
    """w(k/n) for k = 1..n-1, memoised on n; the array is read-only."""
    k = np.arange(1, n, dtype=float) / n
    w = 1.0 / np.sqrt(k * (1.0 - k))
    w.setflags(write=False)
    return w


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
    if math.isinf(t_stat):
        return 0.0
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
    log_lead = (d * math.log(x) - 0.5 * x * x - 0.5 * d * math.log(2.0)
                - math.lgamma(0.5 * d))
    big_l = math.log((1.0 - hn) ** 2 / hn ** 2)
    brace = (1.0 - d / (x * x)) * big_l + 4.0 / (x * x)
    return min(max(math.exp(log_lead) * brace, 0.0), 1.0)


def vostrikova_pvalue(t_stat: float, n: int, d: int) -> float:
    """vostrikova_tail at the observed statistic; p = 1 outside the domain."""
    if math.isinf(t_stat):
        return 0.0
    if t_stat <= math.sqrt(d):
        return 1.0
    return vostrikova_tail(t_stat, n, d)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def vostrikova_critical(alpha: float, n: int, d: int) -> float:
    """Root of vostrikova_tail(x) = alpha by bisection on [sqrt(d)+1e-6, 50].

    The expansion is not monotone near its lower domain edge, so the search
    starts from the tail's argmax on a dense scan of the bracket.  For alpha
    close to 1 the target can exceed the expansion's maximum, in which case
    an ApproximationFailureError is raised (central quantiles are outside
    the expansion's reach).

    The root depends on (alpha, n, d) alone, so it is memoised per process
    on that key (the last _MEMO_SIZE keys are kept).  Errors are not
    memoised: an alpha with no root raises on every call.  The unmemoised
    solver is vostrikova_critical.__wrapped__.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    lo = math.sqrt(d) + 1e-6
    hi = 50.0
    xs = np.linspace(lo, hi, 2048)
    vals = np.array([vostrikova_tail(float(x), n, d) for x in xs])
    top = int(np.argmax(vals))
    if vals[top] < alpha:
        raise ApproximationFailureError(
            f"tail expansion peaks at {vals[top]:.6f} < alpha = {alpha}; "
            "no root on the bracket")
    if vals[-1] >= alpha:
        raise ApproximationFailureError(
            "tail still above alpha at the upper bracket x = 50")
    lo = float(xs[top])
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
    partial = _partial_sums(sample.centered())
    return _weighted_max(np.sqrt((partial ** 2).sum(axis=-1)))


def cusum_stats(sample: FunctionalSample, cfg: TestConfig) -> CusumStats:
    """Orthonormalize, estimate long-run FPCs, take the weighted CUSUM
    maxima and locate the change, for each sample of a batch.

    Samples in a non-orthonormal basis are converted to a Fourier basis of
    cfg.fourier_size on a uniform 201-point grid first.  All three change
    locators use the smallest-index tie rule: standardized and
    unstandardized maximize over the d projected scores, the fully
    functional one over the full centered cumulative coefficient vector.
    A sample's numbers do not depend on the batch it is in.
    """
    n = len(sample)
    if n < 3:
        raise ValueError("need at least three curves to run the test")
    if sample.basis.is_orthonormal:
        work = sample
    else:
        work = change_basis(sample, fourier_basis(cfg.fourier_size),
                            Grid.uniform(201))
    h = float(default_bandwidth(n)) if cfg.h is None else cfg.h
    _, eigvals, eigvecs = lrcov_estimate(work, cfg.lag_kernel, h)
    eta = scores(work, eigvecs, cfg.d)
    lam = eigvals[..., :cfg.d]
    t_stat, k_std = statistic(eta, lam)
    _, k_unstd = statistic(eta)
    _, k_full = _fully_functional_max(work)
    if cfg.critical_method == "vostrikova":
        crit = vostrikova_critical(cfg.alpha, n, cfg.d)
    else:
        crit = gumbel_critical(cfg.alpha, n, cfg.d)
    return CusumStats(h, t_stat, crit, k_std, k_unstd, k_full,
                      np.any(lam <= 0.0, axis=-1))


def run_test(sample: FunctionalSample, cfg: TestConfig) -> TestResult:
    """Full pipeline for one sample: cusum_stats on a batch of one, then
    the normalized statistic and both p-values."""
    n = len(sample)
    stats = cusum_stats(FunctionalSample(sample.coeffs[None], sample.basis),
                        cfg)
    t_stat = float(stats.statistic[0])
    a, b = normalizers(n, cfg.d)
    normalized = a * t_stat - b if math.isfinite(t_stat) else math.inf
    return TestResult(
        n=n, d=cfg.d, h=stats.h, lag_kernel=cfg.lag_kernel, alpha=cfg.alpha,
        critical_method=cfg.critical_method, statistic=t_stat,
        normalized=normalized, p_gumbel=gumbel_pvalue(t_stat, n, cfg.d),
        p_vostrikova=vostrikova_pvalue(t_stat, n, cfg.d),
        critical_value=stats.critical_value,
        reject=bool(t_stat > stats.critical_value),
        k_hat_standardized=int(stats.k_standardized[0]),
        k_hat_unstandardized=int(stats.k_unstandardized[0]),
        k_hat_fully_functional=int(stats.k_fully_functional[0]),
        degenerate=bool(stats.degenerate[0]))
