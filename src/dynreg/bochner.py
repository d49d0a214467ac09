"""Discretized Bochner spaces of time-dependent spatial vectors.

A function u in L^p(0, T; X) is stored by its values on a uniform midpoint
grid in time; each value is a vector on a uniform spatial grid carrying a
weighted discrete l^s norm.  The mixed norm uses midpoint quadrature,

    ||u|| = (sum_i dt * ||u(t_i)||_X^p)^(1/p),
    ||x||_X = (sum_j dx * |x_j|^s)^(1/s),

so time-constant functions are integrated exactly and every node stays
strictly inside (0, T).  Norms and pairings form their terms elementwise in
NumPy and add them strictly in ascending index order, in time and in space,
so repeated evaluations are bit-identical.  They are not bit-identical to a
scalar Python loop: NumPy's power need not round like libm's pow.

The solvers' stopping tests read these sums, so the order is part of every
result: summing pairwise instead moves the CG count of the benchmark's
causal-solve Tikhonov solve at seed 17 from 18 to 16.  The one exception:
diagnostics' ensemble probes take Hilbert (s = 2) node norms from _dot, one
BLAS dot per row, since they only report tables.
"""

from __future__ import annotations

import csv
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    InvalidInputError,
    InvalidParameterError,
    _array,
    _count,
    _real,
)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform midpoint grid on [0, T] with nodes t_i = (i + 1/2) dt.

    dt = T / n_t is derived; from_dt pins a given dt.  The first node sits at
    dt/2 > 0, which keeps scaling families like 1/t finite on the grid.
    """

    horizon: float
    n_t: int
    dt: float = field(init=False)

    def __post_init__(self) -> None:
        _real(self.horizon, "horizon", "(0, inf)")
        _count(self.n_t, "n_t")
        object.__setattr__(self, "dt", self.horizon / self.n_t)

    @classmethod
    def from_dt(cls, dt: float, n_t: int) -> "TimeGrid":
        """Build a grid from its step, kept exactly; horizon becomes dt * n_t."""
        grid = cls(dt * n_t, n_t)
        object.__setattr__(grid, "dt", dt)
        return grid

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.n_t) + 0.5) * self.dt


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform cell-midpoint grid on [a, b] with n_x cells of width dx."""

    a: float
    b: float
    n_x: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and np.isfinite(self.b)) or self.a >= self.b:
            raise InvalidParameterError(f"need a < b, got [{self.a}, {self.b}]")
        _count(self.n_x, "n_x")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.n_x

    @property
    def nodes(self) -> np.ndarray:
        return self.a + (np.arange(self.n_x) + 0.5) * self.dx


class BochnerFunction:
    """Grid values of a space-time function together with its norm data.

    Parameters
    ----------
    grid : TimeGrid
        Time discretization; values[i] belongs to node grid.nodes[i].
    values : array_like, shape (n_t, n_dim)
        One spatial vector per time node.  Copied and frozen.
    p : float
        Time integrability exponent, p >= 1.
    space_exponent : float
        Exponent s of the discrete spatial norm, s >= 1.
    space_weight : float
        Quadrature weight of one spatial cell (dx for functions living on
        a SpatialGrid, 1.0 for bare coordinate vectors).
    """

    __slots__ = ("grid", "values", "p", "space_exponent", "space_weight", "__weakref__")

    def __init__(
        self,
        grid: TimeGrid,
        values,
        p: float = 2.0,
        space_exponent: float = 2.0,
        space_weight: float = 1.0,
    ) -> None:
        arr = _array(values, "values", (grid.n_t, None))
        _real(p, "time exponent", "[1, inf)")
        _real(space_exponent, "space exponent", "[1, inf)")
        _real(space_weight, "space weight", "(0, inf)")
        arr.setflags(write=False)
        self.grid = grid
        self.values = arr
        self.p = float(p)
        self.space_exponent = float(space_exponent)
        self.space_weight = float(space_weight)

    @property
    def n_t(self) -> int:
        return self.values.shape[0]

    @property
    def n_dim(self) -> int:
        return self.values.shape[1]

    def with_values(self, values) -> "BochnerFunction":
        """Same geometry, new values."""
        return BochnerFunction(self.grid, values, self.p, self.space_exponent, self.space_weight)

    def _geometry(self) -> tuple[tuple, tuple]:
        """What functions must share to be combined: (grid, n_dim) and (p, s, weight)."""
        return (self.grid, self.n_dim), (self.p, self.space_exponent, self.space_weight)

    def _require_same_geometry(self, other: "BochnerFunction") -> None:
        _require_geometry(self._geometry(), other)

    def __add__(self, other: "BochnerFunction") -> "BochnerFunction":
        self._require_same_geometry(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "BochnerFunction") -> "BochnerFunction":
        self._require_same_geometry(other)
        return self.with_values(self.values - other.values)

    def __mul__(self, c: float) -> "BochnerFunction":
        return self.with_values(self.values * float(c))

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BochnerFunction(n_t={self.n_t}, n_dim={self.n_dim}, p={self.p}, "
            f"s={self.space_exponent}, weight={self.space_weight:g})"
        )


def _require_geometry(geometry: tuple[tuple, tuple], other: BochnerFunction) -> None:
    """Raise DimensionError unless other has this _geometry()."""
    shape, norm_data = other._geometry()
    if shape != geometry[0]:
        raise DimensionError("functions live on different grids")
    if norm_data != geometry[1]:
        raise DimensionError("functions carry different norm data")


def _ascending_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, one term at a time in ascending index order.

    np.sum adds pairwise and @ in blocks, so their rounding depends on the
    length and the memory layout; cumsum adds strictly left to right.  With
    two lanes or more, np.add.reduce over the first axis of a C-contiguous
    copy folds row after row onto every lane, in that order and faster; it
    starts from -0.0 (+0.0 turns a lane of -0.0 into +0.0).  One lane keeps
    cumsum, since NumPy reduces a single lane pairwise.
    """
    if terms.ndim < 2 or terms.size <= terms.shape[-1]:
        return np.cumsum(terms, axis=-1)[..., -1]
    return np.add.reduce(np.ascontiguousarray(np.moveaxis(terms, -1, 0)), axis=0, initial=-0.0)


def _row_norms(values: np.ndarray, weight: float, exponent: float) -> np.ndarray:
    """Weighted discrete l^s norm of every row (last axis) of values."""
    return _ascending_sum(weight * np.abs(values) ** exponent) ** (1.0 / exponent)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a.b, each row by the BLAS ddot of a_row @ b_row (einsum rounds otherwise)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _mixed_norm(values: np.ndarray, dt: float, weight: float, p: float, s: float) -> float:
    """(sum_i dt * ||values[i]||_X^p)^(1/p) over the rows of a 2-d array."""
    return float(_ascending_sum(dt * _row_norms(values, weight, s) ** p) ** (1.0 / p))


def bochner_norm(u: BochnerFunction) -> float:
    """Mixed space-time norm (sum_i dt ||u(t_i)||_X^p)^(1/p).

    Summation runs in ascending index order in both time and space, so
    repeated evaluations are bit-identical.  Time-constant functions are
    integrated exactly: the result equals T^(1/p) * ||x||_X.
    """
    return _mixed_norm(u.values, u.grid.dt, u.space_weight, u.p, u.space_exponent)


def holder_pairing(u: BochnerFunction, v: BochnerFunction) -> tuple[float, float]:
    """Dual pairing of u with v and its mixed-norm bound.

    Parameters
    ----------
    u, v : BochnerFunction
        Same grid and weight; exponents must be conjugate in time and in
        space (1/p + 1/p* = 1, 1/s + 1/s* = 1).

    Returns
    -------
    (pairing, bound)
        pairing = sum_i dt * sum_j w * u_ij * v_ij, and
        bound = ||u||_{p,s} * ||v||_{p*,s*}; |pairing| <= bound always.
    """
    if u.grid != v.grid or u.n_dim != v.n_dim or u.space_weight != v.space_weight:
        raise DimensionError("pairing needs matching grids and weights")
    if abs(1.0 / u.p + 1.0 / v.p - 1.0) > 1e-12:
        raise InvalidInputError(f"time exponents {u.p} and {v.p} are not conjugate")
    if abs(1.0 / u.space_exponent + 1.0 / v.space_exponent - 1.0) > 1e-12:
        raise InvalidInputError(
            f"space exponents {u.space_exponent} and {v.space_exponent} are not conjugate"
        )
    nodes = _ascending_sum(u.space_weight * u.values * v.values)  # ascending in space, then time
    return float(_ascending_sum(u.grid.dt * nodes)), bochner_norm(u) * bochner_norm(v)


def _atomic_write_text(path: str, text: str) -> None:
    """Write text via a temp file and rename, so readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(u: BochnerFunction, path: str) -> None:
    """Write u as CSV with header t,x_0,...,x_{n-1}, one row per time node.

    Floats are formatted with %.17g, which round-trips doubles exactly, the values
    of a bitwise constant-in-time u once.  Written atomically (temp file + rename).
    """
    header = "t," + ",".join(f"x_{j}" for j in range(u.n_dim))
    line = ",".join(["%.17g"] * (u.n_dim + 1))  # one format per row, not one per number
    table, bits = np.column_stack([u.grid.nodes, u.values]), u.values.view(np.int64)
    if (bits == bits[0]).all():  # constant in time: the values go into the row format, once
        line, table = "%.17g" + line[5:] % tuple(u.values[0].tolist()), table[:, :1]
    _atomic_write_text(path, "\n".join([header] + [line % tuple(row) for row in table.tolist()]) + "\n")


def read_csv(
    path: str,
    p: float = 2.0,
    space_exponent: float = 2.0,
    space_weight: float = 1.0,
) -> BochnerFunction:
    """Read a BochnerFunction written by write_csv.

    The time grid is rebuilt from the first node (dt = 2 * t_0), which
    reproduces the written nodes bit-exactly, so read/write round-trips
    are byte-identical.  Norm data is not stored in the file and must be
    passed by the caller.
    """
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or not rows[0] or rows[0][0] != "t":
        raise InvalidInputError(f"{path}: missing t,x_0,... header")
    n_dim = len(rows[0]) - 1
    if n_dim < 1 or rows[0][1:] != [f"x_{j}" for j in range(n_dim)]:
        raise InvalidInputError(f"{path}: malformed header {rows[0]}")
    body = [r for r in rows[1:] if r]
    if not body:
        raise InvalidInputError(f"{path}: no data rows")
    if any(len(r) != n_dim + 1 for r in body):
        raise InvalidInputError(f"{path}: ragged rows")
    try:
        t = np.array([float(r[0]) for r in body])
        vals = np.array([[float(x) for x in r[1:]] for r in body])
    except ValueError as exc:
        raise InvalidInputError(f"{path}: unparsable row ({exc})") from exc
    if t[0] <= 0.0:
        raise InvalidInputError(f"{path}: first node must be positive, got {t[0]}")
    grid = TimeGrid.from_dt(2.0 * t[0], len(body))
    if not np.allclose(grid.nodes, t, rtol=1e-9, atol=0.0):
        raise InvalidInputError(f"{path}: time column is not a uniform midpoint grid")
    return BochnerFunction(grid, vals, p, space_exponent, space_weight)
