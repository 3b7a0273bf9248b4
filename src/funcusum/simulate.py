"""Functional AR(1) sample paths with Brownian-bridge innovations.

The recursion is X_i = integral Psi(., s) X_{i-1}(s) ds + eps_i on [0,1],
discretized on an equidistant grid with trapezoidal quadrature and refit
into a B-spline working basis at every step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import (FunctionalSample, Grid, _fit_design, bspline_basis,
                    fit_sample)

_CHANGE_SHAPES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sin": np.sin,
    "constant": lambda t: np.ones_like(t),
}


def _gaussian_base(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """exp((t^2 + s^2) / 2), computed in one array."""
    vals = t ** 2 + s ** 2
    vals /= 2.0
    return np.exp(vals, out=vals)


_BASE_KERNELS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "gaussian": _gaussian_base,
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
    # One 8 MB matrix, squared in place.  Keep this quadrature rather than
    # the kernels' closed-form norms: freeing this matrix is what raises
    # glibc's dynamic mmap threshold above a chunk's 0.3-1.9 MB
    # temporaries, so that they come from the heap.  Without it a serial
    # n = 500, R = 96 cell at d = 1, with OpenBLAS pinned to one thread,
    # took 8208-8213 minor faults instead of 0-1.
    vals = _BASE_KERNELS[kind](g.points[:, None], g.points[None, :])
    return float(w @ np.square(vals, out=vals) @ w)


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


@dataclass(frozen=True)
class ChangeSpec:
    """A one-time mean shift: curves after index floor(n * theta) gain
    amplitude * shape(t), where `shape` names one of _CHANGE_SHAPES."""

    shape: str
    theta: float = 0.5
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.shape not in _CHANGE_SHAPES:
            raise ValueError(f"unknown change shape {self.shape!r}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"need 0 < theta < 1, got {self.theta}")
        if not math.isfinite(self.amplitude):
            raise ValueError(
                f"need a finite change amplitude, got {self.amplitude}")


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
        seeds = self.seed if isinstance(self.seed, tuple) else (self.seed,)
        if any(one < 0 for one in seeds):
            raise ValueError(
                f"seed must be nonnegative, got {_seed_str(self.seed)}")

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
            lines.append(f"change_shape = {self.change.shape}")
            lines.append(f"change_theta = {self.change.theta!r}")
            lines.append(f"change_amplitude = {self.change.amplitude!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_config(cls, text: str) -> "SimSpec":
        """Parse config text written by to_config (or by hand)."""
        found = parse_key_values(text, {
            "n": int, "kernel": str, "psi": float, "burn_in": int,
            "seed": _parse_seed, "grid_points": int, "basis_size": int,
            "basis_order": int, "change_shape": str, "change_theta": float,
            "change_amplitude": float})
        for req in ("n", "kernel", "psi"):
            if req not in found:
                raise ValueError(f"missing required config key {req!r}")
        kernel = calibrate_kernel(found.pop("kernel"), found.pop("psi"))
        change = {key: found.pop("change_" + key)
                  for key in ("theta", "amplitude") if "change_" + key in found}
        shape = found.pop("change_shape", "none")
        if shape != "none":
            found["change"] = ChangeSpec(shape, **change)
        elif change:
            raise ValueError(
                f"config keys {['change_' + key for key in change]} need a "
                "change_shape other than 'none'")
        # Only the keys given are passed, so the dataclass defaults apply.
        return cls(kernel=kernel, **found)


def parse_key_values(text: str,
                     parsers: dict[str, Callable[[str], object]]) -> dict:
    """Split config text into `key = value` pairs, each value converted
    by its key's parser as it is read.

    `#` starts a comment and blank lines are skipped.  A line without `=`,
    a repeated key, a value its parser rejects (`line N: <key>: <reason>`)
    or a key outside `parsers` raises ValueError.
    """
    pairs: dict = {}
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
        if key in parsers:
            try:
                pairs[key] = parsers[key](value)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {key}: {exc}") from None
    unknown = set(pairs) - set(parsers)
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


def make_change(shape: str, theta: float, amplitude: float = 1.0) -> ChangeSpec:
    """The shift amplitude * shape(t) after curve floor(n * theta)."""
    return ChangeSpec(shape, theta, amplitude)


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
        design = _fit_design(self.grid, self.basis)
        self._smoother = np.linalg.pinv(design)
        k_mat = spec.kernel.values(self.grid.points, self.grid.points)
        quad = k_mat * self.grid.trapezoid_weights[None, :]
        self._step = self._smoother @ quad @ design
        self._delta_coeffs = None
        if spec.change is not None:
            # P E c is not bitwise the fit c, and the power cells and the
            # replays of simulate outputs were made with P E c.
            change = spec.change
            values = change.amplitude * _CHANGE_SHAPES[change.shape](
                self.grid.points)
            fit = fit_sample(values, self.grid, self.basis).coeffs[0]
            self._delta_coeffs = self._smoother @ (design @ fit)

    def generate(self, seed: int | tuple[int, ...] | list | None = None,
                 ) -> FunctionalSample:
        """One sample of spec.n curves; `seed` overrides spec.seed.

        A list of seeds draws a batch, one sample per seed from that seed's
        own stream, stacked on a leading axis; sample b equals
        generate(seed[b]) bitwise.  It runs on the calling thread; the
        Monte Carlo harness runs several batches at once, one per process.
        """
        spec = self.spec
        batch = isinstance(seed, list)
        seeds = seed if batch else [spec.seed if seed is None else seed]
        total, size = spec.burn_in + spec.n, len(self.grid)
        # Shock coefficients, time-major: the batch's states at one step
        # are contiguous.  The AR recursion then runs over them in place,
        # one step for the whole batch at a time.
        coeffs = np.empty((total, len(seeds), spec.basis_size))
        bridge = np.empty((total, size))
        draws = np.empty((total, size - 1))
        for b, one in enumerate(seeds):
            rng = np.random.default_rng(np.random.SeedSequence(one))
            _bridges(self.grid, rng, bridge, draws)
            np.matmul(bridge, self._smoother.T, out=coeffs[:, b, :])
        prod = np.zeros((len(seeds), spec.basis_size, 1))  # step @ state
        for state in coeffs:
            state += prod[..., 0]
            np.matmul(self._step, state[..., None], out=prod)
        coeffs = coeffs[spec.burn_in:].transpose(1, 0, 2)
        if self._delta_coeffs is not None:
            kstar = math.floor(spec.n * spec.change.theta)
            coeffs[:, kstar:] += self._delta_coeffs
        return FunctionalSample(coeffs if batch else coeffs[0], self.basis)
