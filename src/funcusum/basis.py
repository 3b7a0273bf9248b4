"""Finite-dimensional function representation on [0,1].

Curves are stored as coefficient vectors with respect to a fixed basis
(orthonormal Fourier or B-spline).  The test works on Fourier
coefficients, where the L^2[0,1] inner product is the dot product, so a
B-spline sample is converted to Fourier before any inner product is taken.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _workers


# Conversion matrices kept by change_basis's per-process memo.
_MEMO_SIZE = 64

# Least values per block of a written curve CSV.  `_workers.spread`
# deals the blocks, so a file of k blocks is formatted by min(k, usable
# CPUs) processes.  The break-even below was
# measured when every write forked its workers afresh: a fork cost the
# caller 1.2-1.6 ms in os.fork, the worker started 2.6-3.0 ms after the
# call, and copy-on-write faults slowed what the caller ran next by
# 1.6-3.0 ms, while formatting costs 1-1.5 us a value.  On a 2-core
# x86-64 VM, `funcusum simulate` then `funcusum test` at 96 points per
# curve broke even split in two between 160 and 224 curves (median gain
# over 41 alternating pairs -2.4 to +3.5 ms, three to six passes each)
# and gained at 256 (+1.1 to +6.6 ms, three passes); at 30 points the
# split lost 6.1 ms at 300 curves and gained 8.0 ms at 1000.  So a file
# splits from the top of that band, 2 * 112 curves of 96 points.  The
# workers are now kept for the life of the process, so only the first
# split write pays the fork; the value stays, since a one-shot `funcusum
# simulate` still pays it once.
_CSV_BLOCK = 112 * 96


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


def _bspline_design(x: np.ndarray, size: int, order: int) -> np.ndarray:
    """Dense (len(x), size) matrix of the B-splines of `order` on the knots
    `_bspline_knots(size, order)`, evaluated at x in [0, 1].

    Cox-de Boor recursion (de Boor 1972), vectorised over x.  It performs
    the IEEE operations of scipy's BSpline.design_matrix in the same order,
    so the two agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= 1.0)):  # also false for nan
        raise ValueError("B-spline abscissae must lie in [0, 1]")
    t = _bspline_knots(size, order)
    k = order - 1
    # t[ell] <= x < t[ell + 1], with x = 1 in the last nonempty span.
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, k, size - 1)
    h = np.zeros((order, x.size))
    h[0] = 1.0
    for j in range(1, order):
        hh = h[:j].copy()
        h[0] = 0.0
        for n in range(1, j + 1):
            xb = t[ell + n]
            xa = t[ell + n - j]
            same = xb == xa
            w = hh[n - 1] / np.where(same, 1.0, xb - xa)
            # Where the knots coincide h[n - 1] is left as it is (adding
            # +0.0 would turn a -0.0 into +0.0) and h[n] is 0.
            h[n - 1] = np.where(same, h[n - 1], h[n - 1] + w * (xb - x))
            h[n] = np.where(same, 0.0, w * (x - xa))
    out = np.zeros((x.size, size))
    out[np.arange(x.size)[:, None], (ell - k)[:, None] + np.arange(order)] = h.T
    return out


@dataclass(frozen=True)
class Basis:
    """A fixed system of `size` basis functions on [0,1].  A B-spline
    basis of `order` has the knots `_bspline_knots(size, order)`."""

    kind: str
    size: int
    order: int | None = None

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Design matrix of shape (len(x), size)."""
        if self.kind == "fourier":
            return _fourier_design(x, self.size)
        if self.kind == "bspline":
            return _bspline_design(x, self.size, self.order)
        raise ValueError(f"unknown basis kind {self.kind!r}")

    @property
    def is_orthonormal(self) -> bool:
        return self.kind == "fourier"


def fourier_basis(size: int) -> Basis:
    """Orthonormal Fourier basis (see _fourier_design)."""
    if size < 1:
        raise ValueError("basis size must be positive")
    return Basis(kind="fourier", size=size)


def bspline_basis(size: int, order: int = 4) -> Basis:
    """B-spline basis of `order` (degree order - 1) on equidistant clamped
    knots."""
    if order < 1:
        raise ValueError("order must be positive")
    if size < order:
        raise ValueError(f"need size >= order, got size={size} order={order}")
    return Basis(kind="bspline", size=size, order=order)


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

    def evaluate(self, grid: Grid) -> np.ndarray:
        """Values matrix of shape (n, len(grid))."""
        return self.coeffs @ self.basis.evaluate(grid.points).T

    @functools.cached_property
    def centered(self) -> np.ndarray:
        """Coefficients minus their sample mean, rounding residue snapped to 0.

        A column that is constant across the sample cancels only up to the
        summation error of the mean; downstream 0/0 conventions need exact
        zeros there, so residues within a few ulps of the column magnitude
        are zeroed.  Computed once per sample; the array is read-only.
        """
        c = self.coeffs - self.coeffs.mean(axis=-2, keepdims=True)
        scale = np.abs(self.coeffs).max(axis=-2, keepdims=True)
        tol = 8.0 * np.finfo(float).eps * np.log2(len(self) + 1.0) * scale
        c[np.abs(c) <= tol] = 0.0
        c.setflags(write=False)
        return c


def _fit_matrix(values: np.ndarray, grid: Grid, basis: Basis) -> np.ndarray:
    """Least-squares coefficients for rows of `values` observed on `grid`."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] != len(grid):
        raise ValueError(
            f"{values.shape[1]} values per curve but grid has {len(grid)} points")
    return np.linalg.lstsq(_fit_design(grid, basis), values.T,
                           rcond=None)[0].T


def _fit_design(grid: Grid, basis: Basis) -> np.ndarray:
    """The design matrix on `grid`; SingularFitError below full column rank."""
    if len(grid) < basis.size:
        raise SingularFitError(
            f"cannot fit basis of size {basis.size} from {len(grid)} grid points")
    design = basis.evaluate(grid.points)
    if (rank := np.linalg.matrix_rank(design)) < basis.size:
        raise SingularFitError(
            f"design matrix rank {rank} < basis size {basis.size}")
    return design


def fit_sample(values: np.ndarray, grid: Grid, basis: Basis) -> FunctionalSample:
    """Smooth an (n, T) value matrix into the basis, one shared solve."""
    return FunctionalSample(_fit_matrix(values, grid, basis), basis)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _conversion_matrix(source: Basis, target: Basis, points: int) -> np.ndarray:
    grid = Grid.uniform(points)
    fit = _fit_matrix(source.evaluate(grid.points).T, grid, target)
    fit.setflags(write=False)
    return fit


def change_basis(sample: FunctionalSample, target: Basis,
                 points: int | None = None) -> FunctionalSample:
    """Re-express a sample in `target` by evaluate-then-refit on a uniform
    grid of `points` points.

    Each source basis function is fit into `target` once; row j of the fit
    holds the target coefficients of source function j.  The default grid
    is fine enough for the larger of the two bases.

    The fit matrix depends only on the two bases and the point count, so
    it is memoised per process on those three values and kept read-only
    (the last _MEMO_SIZE keys are kept).  A fit that fails raises on every
    call.
    """
    if sample.basis == target:
        return sample
    if points is None:
        points = max(201, 4 * max(sample.basis.size, target.size) + 1)
    fit = _conversion_matrix(sample.basis, target, points)
    return FunctionalSample(sample.coeffs @ fit, target)


class CurveMatrix(NamedTuple):
    values: np.ndarray
    grid: Grid
    rescaled: bool


def read_curves_csv(path: str) -> CurveMatrix:
    """Read a curve matrix CSV: header `t=<v1>,...`, one row per curve.

    Abscissae are min-max rescaled onto [0,1] when they do not already run
    from 0 to 1; `rescaled` records whether that happened.

    A body of plain comma-separated finite numbers is read in one
    np.loadtxt call.  Anything else (quoted cells, blank cells, ragged
    rows, nan or inf, a token loadtxt cannot parse) is read again by the
    csv parser, which accepts every cell float() accepts and names the
    line and column of the first bad one.  A leading UTF-8 byte-order mark,
    as spreadsheet programs write, is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
        if fh.seekable():  # a pipe cannot be read twice
            values = _loadtxt_body(fh, pts.size)
            if values is not None:
                return CurveMatrix(values, Grid(pts), rescaled)
            # From the top, so that the csv parser reads the file as it
            # would alone (a decode error names the same position).
            fh.seek(0)
            next(reader)  # the header, checked above
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


def _loadtxt_body(fh, width: int) -> np.ndarray | None:
    """The rest of `fh` as an (n, width) matrix of finite floats, or None
    when np.loadtxt fails or finds no rows, another width or a nan/inf."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                dtype=float)
    except ValueError:
        return None
    if (values.shape[0] < 1 or values.shape[1] != width
            or not np.isfinite(values).all()):
        return None
    return values


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
    """Write a curve matrix CSV in the format read_curves_csv expects.

    Each value is written as its repr, which reads back bitwise and never
    holds a comma, quote or newline, so no cell needs quoting.  The rows
    are cut into min(rows, values // _CSV_BLOCK) contiguous blocks, at
    least one, and each block's text is formatted into one string by
    `_workers.spread`: the caller formats the first run of blocks, and a
    pooled worker process each other run, which gets its rows pickled.
    The file is opened only once every block's text is in hand, so no
    worker holds it open, and an error while formatting leaves an
    existing file as it was.  The bytes do not depend on the number of
    blocks.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] != len(grid):
        raise ValueError("value columns do not match grid length")
    blocks = _workers.spread(_format_rows, np.array_split(
        values, max(1, min(len(values), values.size // _CSV_BLOCK))))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"t={p!r}" for p in grid.points.tolist()) + "\n")
        fh.writelines(blocks)


def _format_rows(values: np.ndarray) -> str:
    """The CSV text of a block of curve rows."""
    return "".join([",".join(map(repr, row.tolist())) + "\n"
                    for row in values])
