"""Finite-dimensional function representation on [0,1].

Curves are stored as coefficient vectors with respect to a fixed basis
(orthonormal Fourier or B-spline).  The test works on Fourier
coefficients, where the L^2[0,1] inner product is the dot product, so a
B-spline sample is converted to Fourier before any inner product is taken.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _workers


# Entries kept by each of this module's per-process memos (conversion
# matrices, designs, rank checks and smoothers).
_MEMO_SIZE = 64

# Least values per block of a written curve CSV.  `_workers.spread`
# deals the blocks, so a file of k blocks is formatted by min(k, usable
# CPUs) processes.  Formatting costs 0.3-0.45 us a value
# (`_format_rows`), about what a read's parse costs, so a read splits
# from the same size.  Measured on a 2-core x86-64 VM with the worker
# pooled (30 alternating writes of 96-point curves a size), a split write
# gained 11-17 ms at 700-1000 curves in one series, and lost 1-2.5 ms at
# every size from 224 to 1000 in another, when the woken worker ran on
# the caller's CPU; the odd block counts of 400 and 600 curves cost no
# more than the even ones.  The `cli_pipeline` benchmark (4 alternating
# runs) served 19-22 requests/s at this size and at twice it, and 16-17
# at four times it, whose larger blocks also raised its peak RSS from
# 54-56 to 65 MB: a block's arrays then outgrow the cache, and one
# process formats 0.36 us a value in blocks of 43 008 values against
# 0.30 in blocks of this size or twice it (0.37 in blocks of 2688, where
# the calls into numpy dominate).  In a fresh process the fork costs
# more than the split saves: one `funcusum simulate` then `funcusum test`
# lost 12-18 ms to it at every size from 224 to 1000 curves (16 pairs).
# A read, which parses about 0.3 us a value, splits only over workers
# already pooled: there the split of 300 curves took 6.9 against 12.7 ms
# (medians of 40 alternating reads) while the second CPU was free, and
# lost under 1 ms while it was busy (600 curves: 18.9 against 18.3 ms).
# A read never forks: in a fresh process, forking to read in two lost to
# reading alone at every size from 150 to 2000 curves of 96 points
# (medians -7 to -22 ms over 12-30 alternating pairs).
_CSV_BLOCK = 112 * 96


class SingularFitError(ValueError):
    """Least-squares smoothing problem is rank deficient."""


class CurveCSVError(ValueError):
    """Malformed curve CSV input; message carries the 1-based line number."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing abscissae spanning [0,1] endpoint to endpoint.
    Grids are equal, and hash alike, when every point is the same double."""

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.points.tobytes() == other.points.tobytes()

    def __hash__(self) -> int:
        return hash(self.points.tobytes())

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


@dataclass(frozen=True, eq=False)
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
        return self.coeffs @ _design(grid, self.basis).T

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


# Per-process memos on (grid, basis), so two grids share an entry exactly
# when they are equal; the last _MEMO_SIZE keys of each are kept.  A call
# that raises raises every time.
@functools.lru_cache(maxsize=_MEMO_SIZE)
def _design(grid: Grid, basis: Basis) -> np.ndarray:
    """`basis.evaluate(grid.points)`, read-only."""
    design = basis.evaluate(grid.points)
    design.setflags(write=False)
    return design


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _fit_design(grid: Grid, basis: Basis) -> np.ndarray:
    """`_design(grid, basis)`; SingularFitError below full column rank."""
    if len(grid) < basis.size:
        raise SingularFitError(f"cannot fit basis of size {basis.size} "
                               f"from {len(grid)} grid points")
    design = _design(grid, basis)
    if (rank := np.linalg.matrix_rank(design)) < basis.size:
        raise SingularFitError(
            f"design matrix rank {rank} < basis size {basis.size}")
    return design


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _fit_smoother(grid: Grid, basis: Basis) -> np.ndarray:
    """The pseudo-inverse of `_fit_design(grid, basis)`, read-only."""
    smoother = np.linalg.pinv(_fit_design(grid, basis))
    smoother.setflags(write=False)
    return smoother


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

    The file is opened once and read whole.  A body of plain
    comma-separated finite numbers is parsed by np.loadtxt in row-aligned
    slices of those bytes: one per process when it holds two blocks of
    _CSV_BLOCK values or more, but only over the workers already pooled,
    so a read forks none.  The calling process parses the first slice, and
    a pooled worker each other one, which gets its slice and pickles its
    rows back.  The values do not depend on the split.  Anything else in
    any slice (quoted cells, blank cells, ragged rows, nan or inf, a token
    loadtxt cannot parse, bytes that are not UTF-8), or a header that is
    not one physical line, sends the whole body to the csv parser, which
    reads the same bytes on from the header, accepts every cell float()
    accepts and names the line and column of the first bad one.  A
    leading UTF-8 byte-order mark, as spreadsheet programs write, is
    skipped.  Sets the package's heap policy first, before the file's
    bytes are read.
    """
    _workers._heap_policy()
    with open(path, "rb") as fh:
        data = fh.read()
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data),
                                         encoding="utf-8-sig", newline=""))
    line = 1  # where the record being read starts
    try:
        header = next(reader, None)
        if header is None:
            raise CurveCSVError("line 1: empty file")
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
        line = reader.line_num + 1
        if line == 2:
            values = _parsed_body(data, pts.size)
            if values is not None:
                return CurveMatrix(values, Grid(pts), rescaled)
        rows = []
        linenos = []
        for row in reader:
            lineno, line = line, reader.line_num + 1
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
    except UnicodeDecodeError:
        raise _not_utf8(data) from None
    except csv.Error as exc:  # such as an unterminated quote
        raise CurveCSVError(f"line {line}: {exc}") from None
    if not rows:
        raise CurveCSVError("line 2: no curve rows found")
    values = np.asarray(rows, dtype=float)
    _require_finite(values, linenos, "value")
    return CurveMatrix(values, Grid(pts), rescaled)


def _not_utf8(data: bytes) -> CurveCSVError:
    """The error naming the line, column and value of the first byte of
    `data` that is not UTF-8.  The reader decodes in chunks, so the
    position its error gives is found again over the whole of `data`."""
    try:
        data.decode("utf-8")  # a leading byte-order mark decodes too
    except UnicodeDecodeError as exc:
        at = exc.start
    line = data.count(b"\n", 0, at) + 1
    column = data.count(b",", data.rfind(b"\n", 0, at) + 1, at) + 1
    return CurveCSVError(
        f"line {line}: byte 0x{data[at]:02x} in column {column} is not UTF-8")


def _parsed_body(data: bytes, width: int) -> np.ndarray | None:
    """The rows after the header line of the curve CSV `data`, parsed by
    `_parse_range` over row-aligned slices spread over the calling process
    and the pooled workers, or None when a slice is rejected, the body
    holds no row, or the first line holds a CR before its end (the csv
    parser's header then ended there).  The row count that sets the split
    is estimated from the length of the first body line that is not
    blank."""
    start = data.find(b"\n") + 1
    if not start or b"\r" in data[:start][:-2]:
        return None
    end = len(data)
    line = start
    while line < end:
        stop = data.find(b"\n", line) + 1 or end
        if data[line:stop].strip():
            break
        line = stop
    else:
        return None
    rows = (end - start) // (stop - line)
    count = max(1, min(rows, rows * width // _CSV_BLOCK,
                       _workers.warm_width()))
    # Each cut is the first line that starts at or after its nominal one.
    cuts = [start] + [
        data.find(b"\n", start + k * (end - start) // count - 1) + 1 or end
        for k in range(1, count)] + [end]
    parts = _workers.spread(_parse_range, [
        data[a:b] for a, b in zip(cuts, cuts[1:]) if a < b], width)
    if any(part is None for part in parts):
        return None
    values = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return values if len(values) else None


def _parse_range(text: bytes, width: int) -> np.ndarray | None:
    """`_loadtxt_body` of the rows in `text`; module-level, so that a
    pooled worker can look it up."""
    return _loadtxt_body(io.BytesIO(text), width)


def _loadtxt_body(fh, width: int) -> np.ndarray | None:
    """The lines of the byte stream `fh` as a (rows, width) matrix of
    finite floats, with no row when every line is blank, or None when
    np.loadtxt fails (a bad token or a byte that is not UTF-8), or finds
    another width or a nan/inf."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                dtype=float, encoding="utf-8")
    except ValueError:
        return None
    if not values.size:
        return np.empty((0, width))
    if values.shape[1] != width or not np.isfinite(values).all():
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
    least one, and each block's text is formatted by `_format_rows` through
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
    header = ",".join(f"t={p!r}" for p in grid.points.tolist())
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.writelines(blocks)


# Tables of the repr kernel.  10^0..10^22 are exact doubles, and
# _SPLIT_HI + _SPLIT_LO splits each into two halves of at most 26 bits
# (Veltkamp), as Dekker's product needs; 10^0..10^17 as int64.
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_INT = np.array([10**k for k in range(18)], dtype=np.int64)


def _veltkamp(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo == v exactly, each with at most 26 significant bits."""
    c = 134217729.0 * v  # 2^27 + 1
    hi = c - (c - v)
    return hi, v - hi


_SPLIT_HI, _SPLIT_LO = _veltkamp(_POW10)
# A value's text is laid out in 44 bytes (11 uint32 words), and the zero
# bytes are deleted: words 0-4 hold the sign, a leading "0" (when the
# point comes before the first digit), the integer digits and the point;
# words 5-9 the zeros after the point (up to three) and the fraction
# digits; word 10 a "0" when there is no fraction digit, and the
# separator.  Byte s of words 0-4 or of words 5-9 holds digit s - 3 of
# the 17 (left-aligned, zero-padded) digits.  The tables are built as
# bytes and viewed as words, so they do not depend on the byte order.
# Row v + 3 of a mask table is for a point position or digit count v:
# _BELOW keeps the digits before it, _INT_KEEP those and bytes 0-1, and
# _ZEROS holds -v zeros for a point before the first digit.
_SLOTS = np.arange(20) - 3
_V = np.arange(-3, 18)[:, None]
# The four ASCII digits of 0..9999, each as one word.
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4,
                                indexing="ij"), axis=-1).view(np.uint32).ravel()
_BELOW = np.where((_SLOTS >= 0) & (_SLOTS < _V), 0xFF, 0).astype(np.uint8)
_INT_KEEP = np.where(_SLOTS < -1, 0xFF, _BELOW).astype(np.uint8).view(np.uint32)
_NOT_BELOW = (0xFF - _BELOW).view(np.uint32)
_BELOW = _BELOW.view(np.uint32)
_ZEROS = np.where((_SLOTS < 0) & (_SLOTS >= _V), ord("0"), 0)[:, :4].astype(
    np.uint8).view(np.uint32).ravel()
_POINT = np.frombuffer(b"\0\0\0.", np.uint32)[0]


def _format_rows(values: np.ndarray) -> bytes:
    """The CSV text of a block of curve rows: the bytes
    `",".join(map(repr, row)) + "\n"` writes for each row.

    The digits and point of each value in [1e-4, 1e16) are computed for
    the whole block by `_shortest_digits`, and laid out as the 44 bytes
    above.  A value outside that range (zero, nan and inf among them), a
    power of two, or a value whose digits that kernel cannot certify is
    written by repr itself.
    """
    x = np.ascontiguousarray(values, dtype=float).ravel()
    out, slow = _layout(x, values.shape[1])
    if not slow.any():
        return out.tobytes().translate(None, b"\0")
    out.view(np.uint8)[slow, :41] = 0
    out.view(np.uint8)[slow, 0] = 1  # a marker for repr's text
    pieces = out.tobytes().translate(None, b"\0").split(b"\1")
    reprs = [repr(v).encode() for v in x[slow].tolist()]
    return b"".join(itertools.chain.from_iterable(
        zip(pieces, reprs + [b""])))


def _layout(x: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The 44 bytes of each value in `x`, rows of `width` values, as an
    (x.size, 11) uint32 array, and a mask of the values that repr must
    write instead."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16) & (x.view(np.int64) << 12 != 0)
    # The others are formatted as 1.5 and then overwritten.
    digits, count, point, sure = _shortest_digits(np.where(fast, a, 1.5))
    row = point + 3
    lead, rest = np.divmod(digits * _POW10_INT[17 - count], _POW10_INT[16])
    high = rest // 10**8
    low = rest - high * 10**8
    text = np.empty((x.size, 5), np.uint32)
    head = text.view(np.uint8)
    head[:, 0] = (x < 0) * ord("-")
    head[:, 1] = (point <= 0) * ord("0")
    head[:, 2] = 0
    head[:, 3] = lead + ord("0")
    text[:, 1] = _DIGITS4[high // 10**4]
    text[:, 2] = _DIGITS4[high % 10**4]
    text[:, 3] = _DIGITS4[low // 10**4]
    text[:, 4] = _DIGITS4[low % 10**4]
    out = np.empty((x.size, 11), np.uint32)
    np.bitwise_and(text, _INT_KEEP.take(row, axis=0), out=out[:, :5])
    out[:, 4] |= _POINT
    np.bitwise_and(text, _NOT_BELOW.take(row, axis=0), out=out[:, 5:10])
    out[:, 5:10] &= _BELOW.take(count + 3, axis=0)
    out[:, 5] |= _ZEROS[row]
    tail = out.view(np.uint8)[:, 40:]
    tail[:, 0] = (point >= count) * ord("0")
    tail[:, 1] = ord(",")
    tail[width - 1::width, 1] = ord("\n")
    tail[:, 2:] = 0
    return out, ~(fast & sure)


def _shortest_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray, np.ndarray]:
    """The digits repr writes for each positive double in `a`, which must
    lie in [1e-4, 1e16) and not be a power of two: the shortest digits
    that read back as the value, and the nearest to it among those (Steele
    and White 1990; Loitsch 2010; Adams 2018).  Returns them as an int64
    D with no trailing zero, their count, the position of the point (the
    value is 0.D * 10^point), and a mask of the values whose digits are
    certain.  A value is uncertain, and its other entries meaningless,
    where a rounding step is an exact tie or a distance equals the bound.

    y = a * 10^k in [1e16, 1e17) is held exactly as hi + lo by Dekker's
    product (no FMA, no long double), so D17 = round(y) and r = y - D17
    are exact (`_scaled`).  Dropping j digits gives D17 = q * 10^j + m;
    the nearer of q and q + 1 (times 10^j) reads back as the value iff
    its distance |m' + r| to y, with m' = m or m - 10^j, is below half an
    ulp of the value times 10^k.  If some j digits can be dropped, so can
    fewer, so j grows while any value still reads back.
    """
    k, d17, r = _scaled(a)
    sure = np.abs(r) != 0.5
    bound = np.ldexp(_POW10[k], (a.view(np.int64) >> 52) - 1076)
    digits = d17.copy()
    dropped = np.zeros_like(d17)
    live = np.flatnonzero(sure)
    for j in range(1, 18):
        step = _POW10_INT[j]
        d = d17[live]
        q = d // step
        m = d - q * step
        rl = r[live]
        up = (2 * m > step) | ((2 * m == step) & (rl > 0))
        # |m'| above 64 exceeds the bound; the clip keeps the float exact.
        dist = np.abs(np.clip(m - up * step, -64, 64) + rl)
        b = bound[live]
        keep = dist < b
        tie = (2 * m == step) & (rl == 0)
        sure[live[(dist == b) | (keep & tie)]] = False
        live = live[keep]
        if not live.size:
            break
        digits[live] = q[keep] + up[keep]
        dropped[live] = j
    count = np.searchsorted(_POW10_INT, digits, side="right")
    return digits, count, count + dropped - k, sure


def _scaled(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k, D17 and r with a * 10^k == D17 + r exactly, a * 10^k in
    [1e16, 1e17), D17 an int64 and |r| <= 1/2 a double."""
    k = 16 - np.floor(np.log10(a)).astype(np.int64)  # may be one off
    hi, lo = _times_pow10(a, k)
    k -= (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    k += (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    hi, lo = _times_pow10(a, k)
    rounded = np.rint(lo)
    return k, hi.astype(np.int64) + rounded.astype(np.int64), lo - rounded


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """hi + lo == a * 10^k exactly, hi the rounded product (Dekker 1971)."""
    hi = a * _POW10[k]
    a_hi, a_lo = _veltkamp(a)
    p_hi, p_lo = _SPLIT_HI[k], _SPLIT_LO[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi, lo
