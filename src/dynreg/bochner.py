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

CSV text is %.17g.  From _VECTOR_MIN values on the NumPy kernel _cells writes
the bytes of '%.17g' % x, which it still calls for the few values it cannot
round with certainty.
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


# '%.17g' % x of a whole table in NumPy steps (dtoa takes about 0.5 us a value).
# y = s + t = |x| 10^(16 - E) in double-double: Dekker's exact product with hi,
# plus |x| lo, where hi + lo = 10^(16 - E) to 2^-106; E from log10, moved by one
# where y is outside [1e16, 1e17).  y is within 2^-47 of exact, so D = round(y)
# is right unless y is within _TIE of a tie.  Each value fills a NUL-padded
# 48-byte cell (sign, "0.000", 17 digits each with a '.' slot, exponent,
# separator) and translate drops the NULs.  Zeros, non-finite values, |x| outside
# (1e-280, 1e280), near-ties and a decade still off keep '%.17g' % x itself.
_VECTOR_MIN = 384  # values; below it one % format per row is faster
_CHUNK = 2048  # values: temporaries stay under 100 kB
_TIE = 2.0**-40
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_GROUPS = np.array([[1], [5], [9], [13]])  # first digit of each 4-digit group
_TENS = np.zeros((4, 600))  # per decade E at E + 300: hi, its two halves, lo of 10^(16 - E)
_FORMS = np.zeros((4, 600), np.int64)  # per decade: "0.000" word, exponent word, point, whole
_TABLES: dict[str, np.ndarray] = {}


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _fill(decades: np.ndarray) -> None:
    """Fill the _TENS and _FORMS columns of the decades not used before in this process."""
    for j in set(decades.tolist()):
        if _TENS[0, j + 300] == 0.0:
            n = 10 ** abs(16 - j)
            if j <= 16:
                hi, lo = float(n), float(n - int(float(n)))  # int -> float rounds correctly
            else:
                num, den = (1 / n).as_integer_ratio()  # int / int rounds correctly
                hi, lo = 1 / n, (den - num * n) / (den * n)
            if -4 <= j < 0:  # "0.000" up to the first digit; no point after a digit
                _FORMS[:, j + 300] = _word(b"\0" + b"0.000"[: 1 - j]), 0, 99, 0
            elif 0 <= j < 17:  # the point after digit j, all j + 1 digits before it
                _FORMS[:, j + 300] = 0, 0, j, j + 1
            else:
                _FORMS[:, j + 300] = 0, _word(b"e%+03d" % j), 0, 0
            c = _SPLIT * hi
            _TENS[:, j + 300] = hi, c - (c - hi), hi - (c - (c - hi)), lo  # last: hi marks it filled


def _tables() -> dict[str, np.ndarray]:
    """The digit tables of the kernel, built on first use."""
    if not _TABLES:
        g = np.arange(100)
        ones = g - g // 10 * 10
        pair = 48 + g // 10 | (48 + ones) << 16  # two digits, '.' slots empty
        used = (g > 0) * 1 + (ones > 0)  # digits of a pair up to its last nonzero one
        sig = np.repeat(used, 100)  # the same for the group 100 i + j: i's, or 2 + j's
        sig.reshape(100, 100)[:, 1:] = 2 + used[1:]
        sig[0] = -99  # a zero group adds no digit
        masks = [_word(b"\xff\0" * n) for n in range(5)]
        keep = [[masks[min(max(n - j, 0), 4)] for j in _GROUPS.ravel().tolist()] for n in range(18)]
        _TABLES.update(digits=(pair[:, None] | pair << 32).ravel(), sig=sig, keep=np.array(keep))
    return _TABLES


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(16 - e) as s + t with |t| <= ulp(s) / 2."""
    hi, h1, h2, lo = np.take(_TENS, e + 300, axis=1)
    if not hi.all():
        _fill(e[hi == 0.0])
        hi, h1, h2, lo = np.take(_TENS, e + 300, axis=1)
    p = a * hi
    c = _SPLIT * a
    a1 = c - (c - a)
    a2 = a - a1
    err = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2 + a * lo
    s = p + err
    return s, err - (s - p)


def _off_decade(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """s + t < 1e16 or >= 1e17, exactly."""
    return ((s - 1e16) + t < 0.0) | ((s - 1e17) + t >= 0.0)


def _cells(v: np.ndarray, cols: int) -> bytes:
    """'%.17g' % x of each value, joined by ',' with '\n' after every cols-th."""
    tab, m = _tables(), v.size
    a = np.abs(v)
    ok = (a > 1e-280) & (a < 1e280)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s, t = _scaled(a, e)
    off = np.flatnonzero(_off_decade(s, t))
    if off.size:  # the decade correction: log10 is off by one next to powers of ten
        e[off] += np.where(s[off] < 3e16, -1, 1)  # y below 1e16, or from 1e17 on
        s[off], t[off] = _scaled(a[off], e[off])
        ok[off[_off_decade(s[off], t[off])]] = False
    t += 0.5
    r = np.floor(t)
    ok &= np.abs(t - r - 0.5) <= 0.5 - _TIE
    d = s.astype(np.int64) + r.astype(np.int64)
    carry = d == 10**17
    if carry.any():  # rounded up into the next decade
        d[carry] = 10**16
        e += carry
        _fill(e[carry])
    groups = np.empty((4, m), np.int64)
    for j in (3, 2, 1, 0):
        q = d // 10000
        groups[j] = d - q * 10000
        d = q
    n = (np.take(tab["sig"], groups) + _GROUPS).max(axis=0, initial=1)  # significant digits
    lead, exp, point, whole = np.take(_FORMS, e + 300, axis=1)
    buf = bytearray(48 * m)
    words = np.frombuffer(buf, "<i8").reshape(m, 6)
    words[:, 0] = lead | (48 + d) << 48 | np.signbit(v) * 45
    keep = np.take(tab["keep"], np.maximum(n, whole), axis=0)
    np.bitwise_and(np.take(tab["digits"], groups.T), keep, out=words[:, 1:5])
    words[:, 5] = exp
    cells = words.view(np.uint8)
    dot = np.flatnonzero(n > point + 1)
    cells.reshape(-1)[48 * dot + 7 + 2 * point[dot]] = 46
    fall = np.flatnonzero(~ok)
    for j, x in zip(fall.tolist(), v[fall].tolist()):
        cells[j, :45] = np.frombuffer(("%.17g" % x).encode().ljust(45, b"\0"), np.uint8)
    cells[:, 45] = 44
    cells[cols - 1 :: cols, 45] = 10
    return buf.translate(None, b"\0")


def _csv_text(header: str, rows) -> str:
    """header and rows (an array, or tuples of numbers) as CSV text, every cell %.17g."""
    cols = header.count(",") + 1
    if len(rows) * cols < _VECTOR_MIN:
        line = ",".join(["%.17g"] * cols)
        rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
        return "\n".join([header] + [line % tuple(row) for row in rows]) + "\n"
    table = np.asarray(rows, dtype=float)
    step = max(1, _CHUNK // cols)
    body = b"".join(_cells(table[i : i + step].ravel(), cols) for i in range(0, len(table), step))
    return header + "\n" + body.decode()


def write_csv(u: BochnerFunction, path: str) -> None:
    """Write u as CSV with header t,x_0,...,x_{n-1}, one row per time node.

    Floats are formatted with %.17g, which round-trips doubles exactly: by
    _csv_text (one % format per row, or the NumPy kernel from _VECTOR_MIN
    values on), the values of a bitwise constant-in-time u into the row format
    once.  Written atomically (temp file + rename).
    """
    header = "t," + ",".join(f"x_{j}" for j in range(u.n_dim))
    bits = u.values.view(np.int64)
    if (bits == bits[0]).all():  # constant in time: the values go into the row format, once
        line = "%.17g" + ",%.17g" * u.n_dim % tuple(u.values[0].tolist())
        text = "\n".join([header] + [line % t for t in u.grid.nodes.tolist()]) + "\n"
    else:
        text = _csv_text(header, np.column_stack([u.grid.nodes, u.values]))
    _atomic_write_text(path, text)


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
