"""Finite-dimensional function representation on [0,1].

Curves are stored as coefficient vectors with respect to a fixed basis
(orthonormal Fourier or B-spline).  All inner products are taken in
L^2[0,1] and reduce to quadratic forms in the basis Gram matrix.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import BSpline


# Conversion matrices kept by change_basis's per-process memo.
_MEMO_SIZE = 64


class BasisMismatchError(ValueError):
    """Operands are represented in different bases."""


class SingularFitError(ValueError):
    """Least-squares smoothing problem is rank deficient."""


class CurveCSVError(ValueError):
    """Malformed curve CSV input; message carries the 1-based line number."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Strictly increasing abscissae spanning [0,1] endpoint to endpoint."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = _readonly(np.asarray(self.points, dtype=float))
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValueError("grid must start at 0.0 and end at 1.0")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, num_points: int) -> "Grid":
        return cls(np.linspace(0.0, 1.0, num_points))

    def __len__(self) -> int:
        return self.points.size

    @property
    def trapezoid_weights(self) -> np.ndarray:
        """Weights w with w @ f(points) = trapezoidal integral of f."""
        pts = self.points
        w = np.zeros_like(pts)
        d = np.diff(pts)
        w[:-1] += d / 2.0
        w[1:] += d / 2.0
        return w


def _fourier_design(x: np.ndarray, size: int) -> np.ndarray:
    """Evaluate the orthonormal Fourier system phi_1..phi_size at x.

    phi_1 = 1, phi_{2k} = sqrt(2) cos(2 pi k t), phi_{2k+1} = sqrt(2) sin(2 pi k t).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, size))
    out[:, 0] = 1.0
    root2 = math.sqrt(2.0)
    for j in range(2, size + 1):
        k = j // 2
        if j % 2 == 0:
            out[:, j - 1] = root2 * np.cos(2.0 * np.pi * k * x)
        else:
            out[:, j - 1] = root2 * np.sin(2.0 * np.pi * k * x)
    return out


def _bspline_knots(size: int, order: int) -> np.ndarray:
    """Clamped equidistant knot vector giving `size` B-splines of `order`."""
    interior = np.linspace(0.0, 1.0, size - order + 2)[1:-1]
    return np.concatenate([np.zeros(order), interior, np.ones(order)])


def _bspline_design(x: np.ndarray, knots: np.ndarray, order: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    mat = BSpline.design_matrix(x, knots, order - 1, extrapolate=False)
    return np.asarray(mat.todense())


@dataclass(frozen=True)
class Basis:
    """A fixed system of `size` basis functions on [0,1] with its Gram matrix."""

    kind: str
    size: int
    gram: np.ndarray
    order: int | None = None
    knots: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gram", _readonly(self.gram))
        if self.knots is not None:
            object.__setattr__(self, "knots", _readonly(self.knots))
        if self.gram.shape != (self.size, self.size):
            raise ValueError("gram matrix shape does not match basis size")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Design matrix of shape (len(x), size)."""
        if self.kind == "fourier":
            return _fourier_design(x, self.size)
        if self.kind == "bspline":
            return _bspline_design(x, self.knots, self.order)
        raise ValueError(f"unknown basis kind {self.kind!r}")

    @property
    def is_orthonormal(self) -> bool:
        return self.kind == "fourier"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Basis):
            return NotImplemented
        return (self.kind == other.kind and self.size == other.size
                and self.order == other.order)

    def __hash__(self) -> int:
        return hash((self.kind, self.size, self.order))


def fourier_basis(size: int) -> Basis:
    """Orthonormal Fourier basis; the Gram matrix is the identity exactly."""
    if size < 1:
        raise ValueError("basis size must be positive")
    return Basis(kind="fourier", size=size, gram=np.eye(size))


def bspline_basis(size: int, order: int = 4) -> Basis:
    """B-spline basis on equidistant clamped knots.

    The Gram matrix is computed by Gauss-Legendre quadrature on each knot
    span (10 nodes per span, exact for the polynomial integrands involved)
    and is symmetric positive definite.
    """
    if order < 1:
        raise ValueError("order must be positive")
    if size < order:
        raise ValueError(f"need size >= order, got size={size} order={order}")
    knots = _bspline_knots(size, order)
    xg, wg = leggauss(10)
    spans = np.unique(knots)
    nodes = []
    weights = []
    for a, b in zip(spans[:-1], spans[1:]):
        nodes.append((b - a) / 2.0 * xg + (a + b) / 2.0)
        weights.append((b - a) / 2.0 * wg)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    design = _bspline_design(nodes, knots, order)
    gram = design.T @ (weights[:, None] * design)
    gram = 0.5 * (gram + gram.T)
    return Basis(kind="bspline", size=size, gram=gram, order=order, knots=knots)


@dataclass(frozen=True)
class Curve:
    """A single function, stored as basis coefficients."""

    coeffs: np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        c = _readonly(np.asarray(self.coeffs, dtype=float))
        if c.shape != (self.basis.size,):
            raise ValueError("coefficient length does not match basis size")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.basis.evaluate(np.atleast_1d(x)) @ self.coeffs

    def norm(self) -> float:
        return math.sqrt(max(inner_product(self, self), 0.0))

    def __add__(self, other: "Curve") -> "Curve":
        _check_same_basis(self.basis, other.basis)
        return Curve(self.coeffs + other.coeffs, self.basis)

    def __sub__(self, other: "Curve") -> "Curve":
        _check_same_basis(self.basis, other.basis)
        return Curve(self.coeffs - other.coeffs, self.basis)

    def __mul__(self, scalar: float) -> "Curve":
        return Curve(self.coeffs * float(scalar), self.basis)

    __rmul__ = __mul__


def _check_same_basis(a: Basis, b: Basis) -> None:
    if a != b:
        raise BasisMismatchError(
            f"bases differ: {a.kind}(size={a.size}) vs {b.kind}(size={b.size})")


@dataclass(frozen=True)
class FunctionalSample:
    """An ordered sample of n curves sharing one basis.

    Stored as an (n, size) coefficient matrix; row i holds curve i.  A
    batch of samples of one n stacks their matrices on leading axes,
    (..., n, size); the pipeline's stage functions take either.
    """

    coeffs: np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        c = _readonly(np.asarray(self.coeffs, dtype=float))
        if c.ndim < 2 or c.shape[-1] != self.basis.size:
            raise ValueError("coefficient matrix shape does not match basis size")
        if c.shape[-2] < 1:
            raise ValueError("sample must contain at least one curve")
        object.__setattr__(self, "coeffs", c)

    def __len__(self) -> int:
        """The number of curves n in the sample (in each sample of a batch)."""
        return self.coeffs.shape[-2]

    def curve(self, i: int) -> Curve:
        return Curve(self.coeffs[i], self.basis)

    def evaluate(self, grid: Grid) -> np.ndarray:
        """Values matrix of shape (n, len(grid))."""
        return self.coeffs @ self.basis.evaluate(grid.points).T

    def mean(self) -> Curve:
        return Curve(self.coeffs.mean(axis=0), self.basis)

    def centered(self) -> np.ndarray:
        """Coefficients minus their sample mean, rounding residue snapped to 0.

        A column that is constant across the sample cancels only up to the
        summation error of the mean; downstream 0/0 conventions need exact
        zeros there, so residues within a few ulps of the column magnitude
        are zeroed.  Computed once per sample; the array is read-only.
        """
        return self._centered

    @functools.cached_property
    def _centered(self) -> np.ndarray:
        c = self.coeffs - self.coeffs.mean(axis=-2, keepdims=True)
        scale = np.abs(self.coeffs).max(axis=-2, keepdims=True)
        tol = 8.0 * np.finfo(float).eps * np.log2(len(self) + 1.0) * scale
        c[np.abs(c) <= tol] = 0.0
        c.setflags(write=False)
        return c


def inner_product(u: Curve, v: Curve) -> float:
    """L^2 inner product <u, v> = u' G v in the shared basis.

    Symmetrized so that inner_product(u, v) == inner_product(v, u) exactly
    (bitwise), not just up to rounding.
    """
    _check_same_basis(u.basis, v.basis)
    if u.basis.is_orthonormal:
        a = float(u.coeffs @ v.coeffs)
        b = float(v.coeffs @ u.coeffs)
        return 0.5 * (a + b)
    g = u.basis.gram
    a = float(u.coeffs @ (g @ v.coeffs))
    b = float(v.coeffs @ (g @ u.coeffs))
    return 0.5 * (a + b)


def _fit_matrix(values: np.ndarray, grid: Grid, basis: Basis) -> np.ndarray:
    """Least-squares coefficients for rows of `values` observed on `grid`."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] != len(grid):
        raise ValueError(
            f"{values.shape[1]} values per curve but grid has {len(grid)} points")
    if len(grid) < basis.size:
        raise SingularFitError(
            f"cannot fit basis of size {basis.size} from {len(grid)} grid points")
    design = basis.evaluate(grid.points)
    coeffs, _, rank, _ = np.linalg.lstsq(design, values.T, rcond=None)
    if rank < basis.size:
        raise SingularFitError(
            f"design matrix rank {rank} < basis size {basis.size}")
    return coeffs.T


def fit_curve(values: np.ndarray, grid: Grid, basis: Basis) -> Curve:
    """Smooth one curve observed at grid points into the basis (plain OLS)."""
    return Curve(_fit_matrix(values, grid, basis)[0], basis)


def fit_sample(values: np.ndarray, grid: Grid, basis: Basis) -> FunctionalSample:
    """Smooth an (n, T) value matrix into the basis, one shared solve."""
    return FunctionalSample(_fit_matrix(values, grid, basis), basis)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _conversion_matrix(source: Basis, target: Basis, points: bytes) -> np.ndarray:
    grid = Grid(np.frombuffer(points))
    fit = _fit_matrix(source.evaluate(grid.points).T, grid, target)
    fit.setflags(write=False)
    return fit


def change_basis(sample: FunctionalSample, target: Basis,
                 grid: Grid | None = None) -> FunctionalSample:
    """Re-express a sample in `target` by evaluate-then-refit on `grid`.

    Each source basis function is fit into `target` once; row j of the fit
    holds the target coefficients of source function j.  Defaults to a
    uniform grid fine enough for the larger of the two bases.

    The fit matrix depends only on the two bases and the grid, so it is
    memoised per process on (source basis, target basis, the grid points'
    bytes) and kept read-only (the last _MEMO_SIZE keys are kept).  A fit
    that fails raises on every call.
    """
    if sample.basis == target:
        return sample
    if grid is None:
        grid = Grid.uniform(max(201, 4 * max(sample.basis.size, target.size) + 1))
    fit = _conversion_matrix(sample.basis, target, grid.points.tobytes())
    return FunctionalSample(sample.coeffs @ fit, target)


class CurveMatrix(NamedTuple):
    values: np.ndarray
    grid: Grid
    rescaled: bool


def read_curves_csv(path: str) -> CurveMatrix:
    """Read a curve matrix CSV: header `t=<v1>,...`, one row per curve.

    Abscissae are min-max rescaled onto [0,1] when they do not already run
    from 0 to 1; `rescaled` records whether that happened.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CurveCSVError("line 1: empty file") from None
        raw_pts = []
        for j, cell in enumerate(header):
            cell = cell.strip()
            if not cell.startswith("t="):
                raise CurveCSVError(
                    f"line 1: header column {j + 1} must look like 't=<value>', "
                    f"got {cell!r}")
            try:
                raw_pts.append(float(cell[2:]))
            except ValueError:
                raise CurveCSVError(
                    f"line 1: cannot parse abscissa in column {j + 1}: "
                    f"{cell!r}") from None
        pts = np.asarray(raw_pts, dtype=float)
        if pts.size < 2:
            raise CurveCSVError("line 1: need at least two grid columns")
        _require_finite(pts[None, :], [1], "abscissa")
        if not np.all(np.diff(pts) > 0):
            raise CurveCSVError("line 1: abscissae must be strictly increasing")
        rescaled = False
        if pts[0] != 0.0 or pts[-1] != 1.0:
            pts = (pts - pts[0]) / (pts[-1] - pts[0])
            pts[-1] = 1.0
            rescaled = True
        rows = []
        linenos = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != pts.size:
                raise CurveCSVError(
                    f"line {lineno}: expected {pts.size} values, got {len(row)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                j = _first_non_numeric(row)
                raise CurveCSVError(
                    f"line {lineno}: non-numeric value in row, column "
                    f"{j + 1}: {row[j]!r}") from None
            linenos.append(lineno)
    if not rows:
        raise CurveCSVError("line 2: no curve rows found")
    values = np.asarray(rows, dtype=float)
    _require_finite(values, linenos, "value")
    return CurveMatrix(values, Grid(pts), rescaled)


def _first_non_numeric(cells: list[str]) -> int:
    """Index of the first cell float() rejects; the caller knows one does."""
    for j, cell in enumerate(cells):
        try:
            float(cell)
        except ValueError:
            return j


def _require_finite(values: np.ndarray, linenos: list[int], what: str) -> None:
    """One vectorised check; names the line and column of the first nan/inf."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise CurveCSVError(
            f"line {linenos[i]}: non-finite {what} in column {j + 1}: "
            f"{float(values[i, j])!r}")


def write_curves_csv(path: str, values: np.ndarray, grid: Grid) -> None:
    """Write a curve matrix CSV in the format read_curves_csv expects."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] != len(grid):
        raise ValueError("value columns do not match grid length")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"t={p!r}" for p in grid.points.tolist()])
        for row in values:
            writer.writerow([repr(v) for v in row.tolist()])
