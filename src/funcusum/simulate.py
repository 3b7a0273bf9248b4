"""Functional AR(1) sample paths with Brownian-bridge innovations.

The recursion is X_i = integral Psi(., s) X_{i-1}(s) ds + eps_i on [0,1],
discretized on an equidistant grid with trapezoidal quadrature and refit
into a B-spline working basis at every step.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .basis import Curve, FunctionalSample, Grid, bspline_basis, fit_curve

_CHANGE_SHAPES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sin": np.sin,
    "constant": lambda t: np.ones_like(t),
}


_BASE_KERNELS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "gaussian": lambda t, s: np.exp((t ** 2 + s ** 2) / 2.0),
    "wiener": np.minimum,
}


@dataclass(frozen=True)
class IntegralKernel:
    """A calibrated AR operator kernel scale * psi_base(t, s).

    `scale` is chosen by calibrate_kernel so that the L^2([0,1]^2) norm of
    the scaled kernel equals `psi`.
    """

    kind: str
    psi: float
    scale: float

    def values(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Kernel matrix Psi(t_i, s_j) of shape (len(t), len(s))."""
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        return self.scale * _BASE_KERNELS[self.kind](t[:, None], s[None, :])


def calibrate_kernel(kind: str, psi: float) -> IntegralKernel:
    """Scale the base kernel so its L^2([0,1]^2) norm equals psi.

    The norm is a trapezoidal sum on a 1001-point grid.  Stationarity of
    the AR(1) iteration requires psi < 1.
    """
    if not 0.0 <= psi < 1.0:
        raise ValueError(f"need 0 <= psi < 1, got {psi}")
    if kind not in _BASE_KERNELS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    return IntegralKernel(kind=kind, psi=psi,
                          scale=psi / math.sqrt(_base_sq_norm(kind)))


@functools.cache
def _base_sq_norm(kind: str) -> float:
    """Squared L^2([0,1]^2) norm of a base kernel.  It depends on the kind
    alone, so it is computed once per kind and process."""
    g = Grid.uniform(1001)
    w = g.trapezoid_weights
    vals = _BASE_KERNELS[kind](g.points[:, None], g.points[None, :])
    return float(w @ (vals ** 2) @ w)


def _bridges(grid: Grid, rng: np.random.Generator, out: np.ndarray,
             draws: np.ndarray) -> np.ndarray:
    """Fill `out`, shape (size, T), with `size` Brownian bridge paths at
    the grid points, drawn from `rng`, and return it.  The law is the exact
    finite-dimensional one.

    B(t_k) = W(t_k) - t_k W(1) for a standard Wiener path W built from
    independent Gaussian increments over the grid spacings.  The increments
    are drawn into `draws`, shape (size, T - 1), which is scaled and summed
    in place; both buffers can be reused from one call to the next.
    """
    pts = grid.points
    rng.standard_normal(out=draws)
    draws *= np.sqrt(np.diff(pts))
    np.cumsum(draws, axis=1, out=draws)
    w = out[:, 1:]
    np.multiply(pts[1:], draws[:, -1:], out=w)
    np.subtract(draws, w, out=w)
    out[:, 0] = 0.0
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads that draw shocks next to the calling thread, created on the
# first batch that needs them.  A forked child starts without them.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _shock_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_usable_cpus() - 1,
                                       thread_name_prefix="funcusum-shocks")
        return _pool


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _in_shares(work: Callable[[int, int], None], count: int) -> None:
    """Run work(first, stop) over range(count) split into contiguous shares,
    one per usable CPU.  The calling thread runs the first share and the
    pool the rest.  Every share finishes before this returns or raises, and
    an error from an earlier share wins over one from a later share.
    """
    shares = min(count, _usable_cpus())
    if shares <= 1:
        work(0, count)
        return
    bounds = [count * i // shares for i in range(shares + 1)]
    pool = _shock_pool()
    futures = [pool.submit(work, first, stop)
               for first, stop in zip(bounds[1:-1], bounds[2:])]
    try:
        work(bounds[0], bounds[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


@dataclass(frozen=True)
class ChangeSpec:
    """A one-time mean shift: curves after index floor(n * theta) gain delta."""

    theta: float
    delta: Curve
    shape: str = "custom"
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"need 0 < theta < 1, got {self.theta}")


@dataclass(frozen=True)
class SimSpec:
    """Complete description of one functional AR(1) data-generating process."""

    n: int
    kernel: IntegralKernel
    change: ChangeSpec | None = None
    burn_in: int = 100
    seed: int | tuple[int, ...] = 0
    grid_points: int = 96
    basis_size: int = 25
    basis_order: int = 4

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need n >= 2 curves")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")

    def to_config(self) -> str:
        """Serialize to `key = value` lines (round trips via from_config)."""
        lines = [
            f"n = {self.n}",
            f"kernel = {self.kernel.kind}",
            f"psi = {self.kernel.psi!r}",
            f"burn_in = {self.burn_in}",
            f"seed = {_seed_str(self.seed)}",
            f"grid_points = {self.grid_points}",
            f"basis_size = {self.basis_size}",
            f"basis_order = {self.basis_order}",
        ]
        if self.change is None:
            lines.append("change_shape = none")
        else:
            if self.change.shape not in _CHANGE_SHAPES:
                raise ValueError(
                    f"change shape {self.change.shape!r} cannot be serialized")
            lines.append(f"change_shape = {self.change.shape}")
            lines.append(f"change_theta = {self.change.theta!r}")
            lines.append(f"change_amplitude = {self.change.amplitude!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_config(cls, text: str) -> "SimSpec":
        """Parse config text written by to_config (or by hand)."""
        fields = parse_key_values(text, (
            "n", "kernel", "psi", "burn_in", "seed", "grid_points",
            "basis_size", "basis_order", "change_shape", "change_theta",
            "change_amplitude"))
        for req in ("n", "kernel", "psi"):
            if req not in fields:
                raise ValueError(f"missing required config key {req!r}")
        n = int(fields["n"])
        kernel = calibrate_kernel(fields["kernel"], float(fields["psi"]))
        burn_in = int(fields.get("burn_in", "100"))
        seed = _parse_seed(fields.get("seed", "0"))
        grid_points = int(fields.get("grid_points", "96"))
        basis_size = int(fields.get("basis_size", "25"))
        basis_order = int(fields.get("basis_order", "4"))
        shape = fields.get("change_shape", "none")
        change = None
        if shape != "none":
            theta = float(fields.get("change_theta", "0.5"))
            amplitude = float(fields.get("change_amplitude", "1.0"))
            change = make_change(shape, theta, amplitude,
                                 grid_points=grid_points,
                                 basis_size=basis_size,
                                 basis_order=basis_order)
        return cls(n=n, kernel=kernel, change=change, burn_in=burn_in,
                   seed=seed, grid_points=grid_points, basis_size=basis_size,
                   basis_order=basis_order)


def parse_key_values(text: str, known: Iterable[str]) -> dict[str, str]:
    """Split config text into `key = value` pairs.

    `#` starts a comment and blank lines are skipped.  A line without `=`,
    a repeated key or a key outside `known` raises ValueError.
    """
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    unknown = set(pairs) - set(known)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return pairs


def _seed_str(seed: int | tuple[int, ...]) -> str:
    if isinstance(seed, int):
        return str(seed)
    return ",".join(str(s) for s in seed)


def _parse_seed(text: str) -> int | tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        return int(parts[0])
    return tuple(int(p) for p in parts)


def make_change(shape: str, theta: float, amplitude: float = 1.0,
                grid_points: int = 96, basis_size: int = 25,
                basis_order: int = 4) -> ChangeSpec:
    """Build a ChangeSpec whose delta is amplitude * shape(t) in the working basis."""
    fn = _CHANGE_SHAPES.get(shape)
    if fn is None:
        raise ValueError(f"unknown change shape {shape!r}")
    grid = Grid.uniform(grid_points)
    basis = bspline_basis(basis_size, basis_order)
    delta = fit_curve(amplitude * fn(grid.points), grid, basis)
    return ChangeSpec(theta=theta, delta=delta, shape=shape,
                      amplitude=amplitude)


class Far1Simulator:
    """Reusable generator for one SimSpec.

    Precomputes the discrete AR step operator in coefficient space:
    c_i = A c_{i-1} + P eps_i, where P is the least-squares smoother onto
    the working basis, A = P K W E for the quadrature kernel matrix K W,
    and E the basis design matrix on the simulation grid.
    """

    def __init__(self, spec: SimSpec):
        self.spec = spec
        self.grid = Grid.uniform(spec.grid_points)
        self.basis = bspline_basis(spec.basis_size, spec.basis_order)
        design = self.basis.evaluate(self.grid.points)
        self._smoother = np.linalg.pinv(design)
        k_mat = spec.kernel.values(self.grid.points, self.grid.points)
        quad = k_mat * self.grid.trapezoid_weights[None, :]
        self._step = self._smoother @ quad @ design
        if spec.change is not None:
            delta_vals = spec.change.delta(self.grid.points)
            self._delta_coeffs = self._smoother @ delta_vals
        else:
            self._delta_coeffs = None

    def generate(self, seed: int | tuple[int, ...] | list | None = None,
                 ) -> FunctionalSample:
        """One sample of spec.n curves; `seed` overrides spec.seed.

        A list of seeds draws a batch, one sample per seed from that seed's
        own stream, stacked on a leading axis; sample b equals
        generate(seed[b]) bitwise, whatever the number of threads that
        draw the batch's shocks.
        """
        spec = self.spec
        batch = isinstance(seed, list)
        seeds = seed if batch else [spec.seed if seed is None else seed]
        total = spec.burn_in + spec.n
        # Shock coefficients, time-major: the batch's states at one step
        # are contiguous.  The AR recursion then runs over them in place,
        # one step for the whole batch at a time.
        coeffs = np.empty((total, len(seeds), spec.basis_size))
        _in_shares(functools.partial(self._shocks, seeds, coeffs), len(seeds))
        prod = np.zeros((len(seeds), spec.basis_size, 1))  # step @ state
        for state in coeffs:
            state += prod[..., 0]
            np.matmul(self._step, state[..., None], out=prod)
        coeffs = coeffs[spec.burn_in:].transpose(1, 0, 2)
        if self._delta_coeffs is not None:
            kstar = math.floor(spec.n * spec.change.theta)
            coeffs[:, kstar:] += self._delta_coeffs
        return FunctionalSample(coeffs if batch else coeffs[0], self.basis)

    def _shocks(self, seeds: list, coeffs: np.ndarray, first: int,
                stop: int) -> None:
        """Smoothed bridge shocks of samples first..stop-1 into coeffs[:, b],
        each drawn from its own seed's stream."""
        total, size = coeffs.shape[0], len(self.grid)
        bridge = np.empty((total, size))
        draws = np.empty((total, size - 1))
        for b in range(first, stop):
            rng = np.random.default_rng(np.random.SeedSequence(seeds[b]))
            _bridges(self.grid, rng, bridge, draws)
            np.matmul(bridge, self._smoother.T, out=coeffs[:, b, :])
