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

from .basis import FunctionalSample, Grid, change_basis, fourier_basis
from .lrcov import LagWindowKernel, LrCovEstimate, default_bandwidth, lrcov_estimate


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
        if self.critical_method not in ("vostrikova", "gumbel"):
            raise ValueError(
                f"unknown critical_method {self.critical_method!r}")
        LagWindowKernel.from_name(self.lag_kernel)  # raises on unknown names
        if self.d > self.fourier_size:
            raise ValueError("d cannot exceed the working basis size")


@dataclass(frozen=True)
class ScoreMatrix:
    """Estimated partial-sum scores eta (rows k=1..n-1) and eigenvalues."""

    eta: np.ndarray
    lambdas: np.ndarray

    def __post_init__(self) -> None:
        eta = np.asarray(self.eta, dtype=float)
        lam = np.asarray(self.lambdas, dtype=float)
        if eta.ndim != 2 or lam.ndim != 1 or eta.shape[1] != lam.size:
            raise ValueError("score matrix and eigenvalue shapes do not agree")
        if not np.all(np.isfinite(eta)):
            raise ValueError("scores must be finite")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "lambdas", lam)

    @property
    def degenerate(self) -> bool:
        """True when some standardizing eigenvalue is not strictly positive."""
        return bool(np.any(self.lambdas <= 0.0))


class ChangeEstimates(NamedTuple):
    standardized: int
    unstandardized: int
    fully_functional: int


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


def scores(sample: FunctionalSample, est: LrCovEstimate, d: int) -> ScoreMatrix:
    """Partial-sum scores of the centered sample on the leading d FPCs.

    Computed as cumulative sums of per-observation scores, O(nd).
    """
    if d < 1 or d > est.basis.size:
        raise ValueError(f"need 1 <= d <= {est.basis.size}, got {d}")
    if sample.basis != est.basis:
        raise ValueError("sample and eigenfunctions must share a basis")
    if not sample.basis.is_orthonormal:
        raise ValueError("scores require an orthonormal basis")
    n = len(sample)
    per_obs = sample.centered() @ est.eigvecs[:, :d]
    eta = np.cumsum(per_obs, axis=0)[:n - 1] / math.sqrt(n)
    return ScoreMatrix(eta=eta, lambdas=est.eigvals[:d].copy())


def _weights(n: int) -> np.ndarray:
    k = np.arange(1, n, dtype=float) / n
    return 1.0 / np.sqrt(k * (1.0 - k))


def _weighted_max(values: np.ndarray, n: int) -> tuple[float, int]:
    obj = _weights(n) * values
    idx = int(np.argmax(obj))
    return float(obj[idx]), idx + 1


def _standardized_sumsq(sm: ScoreMatrix) -> np.ndarray:
    """Row sums of eta^2/lambda with the conventions 0/0 = 0, x/0 = inf."""
    sq = sm.eta ** 2
    lam = sm.lambdas
    pos = lam > 0.0
    out = np.zeros(sq.shape[0])
    if pos.any():
        out += sq[:, pos] @ (1.0 / lam[pos])
    if (~pos).any():
        bad = sq[:, ~pos].sum(axis=1)
        out = np.where(bad > 0.0, np.inf, out)
    return out


def statistic(sm: ScoreMatrix, n: int, standardized: bool = True,
              ) -> tuple[float, int]:
    """Weighted-CUSUM maximum and its smallest maximizing index k.

    Standardized form divides squared scores by the eigenvalues; when some
    eigenvalue is zero the statistic is +infinity unless the corresponding
    scores vanish too (constant data), in which case their term contributes
    zero.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if sm.eta.shape[0] != n - 1:
        raise ValueError(
            f"score matrix has {sm.eta.shape[0]} rows, expected n-1 = {n - 1}")
    if standardized:
        sumsq = _standardized_sumsq(sm)
    else:
        sumsq = (sm.eta ** 2).sum(axis=1)
    return _weighted_max(np.sqrt(sumsq), n)


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


def change_estimates(sample: FunctionalSample, est: LrCovEstimate,
                     d: int) -> ChangeEstimates:
    """The three argmax change-point estimators (smallest-index tie rule).

    Standardized and unstandardized use the d projected scores; the fully
    functional variant maximizes the weighted Euclidean norm of the full
    centered cumulative coefficient vector.
    """
    n = len(sample)
    sm = scores(sample, est, d)
    _, k_std = statistic(sm, n, standardized=True)
    _, k_unstd = statistic(sm, n, standardized=False)
    _, k_full = _fully_functional_max(sample)
    return ChangeEstimates(k_std, k_unstd, k_full)


def _fully_functional_max(sample: FunctionalSample) -> tuple[float, int]:
    if not sample.basis.is_orthonormal:
        raise ValueError("fully-functional objective needs an orthonormal basis")
    n = len(sample)
    partial = np.cumsum(sample.centered(), axis=0)[:n - 1] / math.sqrt(n)
    norms = np.sqrt((partial ** 2).sum(axis=1))
    return _weighted_max(norms, n)


def run_test(sample: FunctionalSample, cfg: TestConfig) -> TestResult:
    """Full pipeline: orthonormalize, estimate long-run FPCs, test, locate.

    Samples in a non-orthonormal basis are converted to a Fourier basis of
    cfg.fourier_size on a uniform 201-point grid first.
    """
    n = len(sample)
    if n < 3:
        raise ValueError("need at least three curves to run the test")
    if sample.basis.is_orthonormal:
        work = sample
    else:
        work = change_basis(sample, fourier_basis(cfg.fourier_size),
                            Grid.uniform(201))
    h = cfg.h
    if h is None:
        h = float(default_bandwidth(n))
    est = lrcov_estimate(work, LagWindowKernel.from_name(cfg.lag_kernel), h)
    sm = scores(work, est, cfg.d)
    t_stat, k_std = statistic(sm, n, standardized=True)
    _, k_unstd = statistic(sm, n, standardized=False)
    _, k_full = _fully_functional_max(work)
    a, b = normalizers(n, cfg.d)
    normalized = a * t_stat - b if math.isfinite(t_stat) else math.inf
    p_g = gumbel_pvalue(t_stat, n, cfg.d)
    p_v = vostrikova_pvalue(t_stat, n, cfg.d)
    if cfg.critical_method == "vostrikova":
        crit = vostrikova_critical(cfg.alpha, n, cfg.d)
    else:
        crit = gumbel_critical(cfg.alpha, n, cfg.d)
    return TestResult(
        n=n, d=cfg.d, h=h, lag_kernel=cfg.lag_kernel, alpha=cfg.alpha,
        critical_method=cfg.critical_method, statistic=t_stat,
        normalized=normalized, p_gumbel=p_g, p_vostrikova=p_v,
        critical_value=crit, reject=bool(t_stat > crit),
        k_hat_standardized=k_std, k_hat_unstandardized=k_unstd,
        k_hat_fully_functional=k_full, degenerate=sm.degenerate)
