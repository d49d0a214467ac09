"""Time-indexed operator families and causal space-time forward maps.

An OperatorFamily is a matrix-free family i -> A(t_i) of linear maps between
two weighted coordinate spaces.  A DynamicForward composes such a family
with an optional causal accumulation kernel into a map between space-time
functions, in one of three patterns:

  pointwise                y(t_i) = A(t_i) theta(t_i)
  observe_then_accumulate  y(t_i) = A(t_i) [sum_{j<=i} dt a(t_i-t_j) theta(t_j)]
  accumulate_then_observe  y(t_i) = sum_{j<=i} dt a(t_i-t_j) A(t_j) theta(t_j)

Adjoints are taken with respect to the weighted discrete inner products on
both sides; the adjoint of a causal sum is the matching anticausal sum.
_forward_rows and _adjoint_rows are the one evaluation path: apply_forward,
apply_adjoint, every Kaczmarz sub-problem (solvers.time_subproblems) and the
stacked dense assembly (diagnostics.assemble_dense) evaluate the map through
them.  Their one window, first, selects the data rows first, first+1, ...; a
pointwise map reads the source rows from node first on, a causal kind from
node 0 on.  Each stage is a few NumPy calls, bit-identical to evaluating term
by term: a family maps the stack through its row forms (OperatorFamily.apply_rows
/ adjoint_rows, one NumPy expression on a built-in's instance), and a causal sum
is one _ordered_sum, a block-Toeplitz product adding its terms in the loop's order.
"""

from __future__ import annotations

import csv
import functools
import itertools
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bochner import BochnerFunction, SpatialGrid, TimeGrid
from .errors import DimensionError, InvalidInputError, InvalidParameterError, _array, _count, _real

POINTWISE = "pointwise"
OBSERVE_THEN_ACCUMULATE = "observe_then_accumulate"
ACCUMULATE_THEN_OBSERVE = "accumulate_then_observe"
KINDS = (POINTWISE, OBSERVE_THEN_ACCUMULATE, ACCUMULATE_THEN_OBSERVE)


RowMap = Callable[[int, np.ndarray], np.ndarray]  # also the per-node form, (i, x) -> A(t_i) x


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """Matrix-free family of linear maps A(t_i): R^n_in -> R^n_out.

    apply(i, x) evaluates A(t_i) x; adjoint_apply(i, y) evaluates the adjoint
    with respect to the weighted inner products <x, x'> = in_weight * x.x'
    and <y, y'> = out_weight * y.y'.

    Row contract.  apply_rows(first, X) maps a stack of rows, row k of X at
    node first + k: it returns the (len(X), n_out) float array whose row k
    is apply(first + k, X[k]), bit for bit; adjoint_rows(first, Y) does the
    same for adjoint_apply, and maps leading batch axes, X of shape
    (..., rows, n_in), stack by stack.  The package evaluates families only
    through the row forms.  They are methods, the stacking loop over
    apply/adjoint_apply, so a family built from per-node callables (and any
    dataclasses.replace of a family) loops node by node; the built-in
    families set each row form on the instance as one NumPy expression and
    derive apply/adjoint_apply from it.  A matrix stage is written
    K @ X[..., None]: NumPy then issues one BLAS mat-vec per row, the call
    K @ x makes, whereas X @ K.T (one matrix-matrix product) or einsum add
    the terms in another order.  That moves the last bits of the result,
    and with them CG iteration counts that sit at the rounding floor of
    their tolerance.  A row form over a per-node table raises
    DimensionError for nodes past the table's end.
    """

    n_in: int
    n_out: int
    apply: Callable[[int, np.ndarray], np.ndarray]
    adjoint_apply: Callable[[int, np.ndarray], np.ndarray]
    in_weight: float = 1.0
    out_weight: float = 1.0

    def __post_init__(self) -> None:
        _count(self.n_in, "n_in")
        _count(self.n_out, "n_out")
        _real(self.in_weight, "in_weight", "(0, inf)")
        _real(self.out_weight, "out_weight", "(0, inf)")

    def apply_rows(self, first: int, X) -> np.ndarray:
        return _stacked(self.apply, first, X)

    def adjoint_rows(self, first: int, Y) -> np.ndarray:
        return _stacked(self.adjoint_apply, first, Y)


def _stacked(apply: RowMap, first: int, X) -> np.ndarray:
    """The row form of a per-node map: row k is apply(first + k, X[k])."""
    if np.ndim(X) > 2:
        return np.array([_stacked(apply, first, stack) for stack in X], dtype=float)
    return np.array([apply(first + k, row) for k, row in enumerate(X)], dtype=float)


def _row_family(n_in, n_out, apply_rows: RowMap, adjoint_rows: RowMap, in_weight, out_weight):
    """A family with its row forms on the instance; apply(i, x) is row 0 of apply_rows(i, [x])."""

    def node(rows: RowMap) -> RowMap:
        return lambda i, x: rows(i, np.asarray(x, dtype=float)[None])[0]

    fam = OperatorFamily(n_in, n_out, node(apply_rows), node(adjoint_rows), in_weight, out_weight)
    object.__setattr__(fam, "apply_rows", apply_rows)
    object.__setattr__(fam, "adjoint_rows", adjoint_rows)
    return fam


def _table_rows(table: np.ndarray, first: int, count: int, what: str) -> np.ndarray:
    """Rows first .. first+count-1 of a per-node table; DimensionError past its end."""
    if first < 0 or first + count > len(table):
        raise DimensionError(
            f"{what} covers time nodes [0, {len(table)}), not [{first}, {first + count})"
        )
    return table[first : first + count]


def identity_family(dim: int, weight: float = 1.0) -> OperatorFamily:
    """The identity on a dim-dimensional space, at every time index."""

    def rows(first: int, X: np.ndarray) -> np.ndarray:
        return np.array(X, dtype=float)

    return _row_family(dim, dim, rows, rows, weight, weight)


def compose(outer: OperatorFamily, inner: OperatorFamily) -> OperatorFamily:
    """Pointwise composition i -> outer(t_i) inner(t_i)."""
    if inner.n_out != outer.n_in:
        raise DimensionError(
            f"cannot compose: inner produces {inner.n_out}, outer expects {outer.n_in}"
        )
    if inner.out_weight != outer.in_weight:
        raise DimensionError("cannot compose: intermediate space weights differ")

    def apply_rows(first: int, X: np.ndarray) -> np.ndarray:
        return outer.apply_rows(first, inner.apply_rows(first, X))

    def adjoint_rows(first: int, Y: np.ndarray) -> np.ndarray:
        return inner.adjoint_rows(first, outer.adjoint_rows(first, Y))

    return _row_family(
        inner.n_in, outer.n_out, apply_rows, adjoint_rows, inner.in_weight, outer.out_weight
    )


def make_gaussian_smoothing(grid: SpatialGrid, sigma: float) -> OperatorFamily:
    """Time-constant Gaussian smoothing (K x)_i = sum_j dx exp(-(x_i-x_j)^2 / (2 sigma^2)) x_j.

    Self-adjoint in the dx-weighted inner product.  The matrix is the
    midpoint-rule discretization, on the grid's interval, of the integral
    operator (K f)(x) = int exp(-(x-y)^2 / (2 sigma^2)) f(y) dy, and its
    singular values converge to that operator's at O(dx^2).  The kernel's
    fast singular-value decay makes it the smoothing (compact) building
    block of the benchmark problems.
    """
    _real(sigma, "sigma", "[1e-150, inf)")  # 2 sigma^2 stays a normal float (0 below 1.1e-162)
    x = grid.nodes
    with np.errstate(over="ignore"):  # a huge 2 sigma^2 or a far pair's exponent: exp gives 1 or 0
        kernel = grid.dx * np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * sigma * sigma))

    def rows(first: int, X: np.ndarray) -> np.ndarray:
        return (kernel @ X[..., None])[..., 0]  # one mat-vec per row, as kernel @ x

    return _row_family(grid.n_x, grid.n_x, rows, rows, grid.dx, grid.dx)


def make_subsample_observer(
    pattern: Sequence[Sequence[int]], dim: int, weight: float = 1.0
) -> OperatorFamily:
    """Observation masks: at time i only the components in pattern[i] survive.

    Each index set must be non-empty and within range.  The family is
    self-adjoint with operator norm exactly 1.
    """
    _count(dim, "dim")
    sets = [list(idx) for idx in pattern]
    flat = [*itertools.chain.from_iterable(sets)]  # checked at once, by _count's rule:
    integral = all(issubclass(t, numbers.Integral) and t is not bool for t in {*map(type, flat)})
    if not (flat and all(sets) and integral and 0 <= min(flat) and max(flat) < dim):
        for i, idx in enumerate(sets):  # the first empty set or bad index raises
            if not idx:
                raise InvalidParameterError(f"empty observation set at time index {i}")
            for k in idx:
                _count(k, "observation index", 0, dim - 1)
    masks = np.zeros((len(sets), dim))
    masks[np.repeat(np.arange(len(sets)), [*map(len, sets)]), np.array(flat, dtype=np.intp)] = 1.0
    masks.setflags(write=False)

    def rows(first: int, X: np.ndarray) -> np.ndarray:
        return _table_rows(masks, first, X.shape[-2], "observation pattern") * X

    return _row_family(dim, dim, rows, rows, weight, weight)


def rotating_window_pattern(n_t: int, dim: int, width: int) -> list[list[int]]:
    """Index sets of a width-`width` window sliding one slot per time step."""
    _count(width, "window width", 1, dim)
    return [sorted({(i + l) % dim for l in range(width)}) for i in range(n_t)]


def make_scaling_family(grid: TimeGrid, dim: int, weight: float = 1.0) -> OperatorFamily:
    """The family S(t_i) = (1 / t_i) I.

    Finite on the midpoint grid but with no uniform norm bound: the factor
    grows like 2 n_t / T at the first node under refinement, which is the
    package's stock example of non-uniform behavior.
    """
    nodes = grid.nodes

    def rows(first: int, X: np.ndarray) -> np.ndarray:
        return X / _table_rows(nodes, first, X.shape[-2], "scaling family")[:, None]

    return _row_family(dim, dim, rows, rows, weight, weight)


def make_causal_kernel(grid: TimeGrid, samples) -> np.ndarray:
    """Validate accumulation-kernel samples a(k dt), k = 0..n_t-1.

    With a = (1/dt, 0, ..., 0) the causal sum reduces to the identity.
    """
    arr = _array(samples, "kernel", (grid.n_t,))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DynamicForward:
    """A space-time forward map built from a family and an optional kernel.

    kind selects the composition pattern (see module docstring).  The two
    accumulation kinds require kernel samples on the grid's lags; the
    pointwise kind must not carry a kernel.  The exponent fields fix the
    Bochner geometry of source and data space; each must be a finite real
    >= 1.
    """

    kind: str
    static: OperatorFamily
    time_grid: TimeGrid
    kernel: Optional[np.ndarray] = None
    source_exponent: float = 2.0
    source_space_exponent: float = 2.0
    data_exponent: float = 2.0
    data_space_exponent: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown composition kind {self.kind!r}")
        if self.kind == POINTWISE:
            if self.kernel is not None:
                raise InvalidParameterError("pointwise composition takes no kernel")
        else:
            if self.kernel is None:
                raise InvalidParameterError(f"{self.kind} needs kernel samples")
            object.__setattr__(self, "kernel", make_causal_kernel(self.time_grid, self.kernel))
        for name in ("source_exponent", "source_space_exponent", "data_exponent",
                     "data_space_exponent"):
            _real(getattr(self, name), name.replace("_", " "), "[1, inf)")

    def source_template(self, values) -> BochnerFunction:
        """Wrap raw source values in the forward map's source geometry."""
        return BochnerFunction(
            self.time_grid,
            values,
            self.source_exponent,
            self.source_space_exponent,
            self.static.in_weight,
        )

    def data_template(self, values) -> BochnerFunction:
        """Wrap raw data values in the forward map's data geometry."""
        return BochnerFunction(
            self.time_grid,
            values,
            self.data_exponent,
            self.data_space_exponent,
            self.static.out_weight,
        )


def _check_space(forward: DynamicForward, u: BochnerFunction, name: str, space: str) -> None:
    """DimensionError unless u lies in the map's "source" or "data" space: its grid, size, weight."""
    fam = forward.static
    size, weight = (fam.n_in, fam.in_weight) if space == "source" else (fam.n_out, fam.out_weight)
    if (u.grid, u.n_dim, u.space_weight) != (forward.time_grid, size, weight):
        raise DimensionError(
            f"{name} must lie in the {space} space: {size} components on {forward.time_grid}"
            f" with weight {weight}, got {u.n_dim} on {u.grid} with weight {u.space_weight}"
        )


_TERM_BUDGET = 32768  # product terms one block of source rows may form: bounds scratch memory


def _ordered_sum(kernel, dt: float, rows, causal: bool, first: int = 0) -> np.ndarray:
    """Sum of dt * kernel[|o-s|] * rows[s] over s <= o (causal) or s >= o, ascending s.

    The anticausal sum is the causal one's adjoint.  Both keep the loop's term order:
    uniform Tikhonov's CG count on causal maps sits at the rounding floor of its
    tolerance, and a Toeplitz matmul or an FFT reorders the terms and moves it.  A
    causal sum forms only the outputs o >= first; an anticausal one skips the rows
    s < first, which must be zero (their exact-zero terms change no bit).  A block of
    source rows forms its terms in one masked multiply (no term outside the triangle,
    so no 0 * inf) from weights[s, o], a strided Toeplitz view built on its buffer
    (sliding_window_view's __array_interface__ path holds ~0.5 MB more per process
    after thousands of shapes).  np.add.reduce adds them to the running sums (+0.0
    at first, like the loop's) in ascending s: a block of two rows or more has two
    lanes or more, and NumPy sums only a single lane pairwise (a one-wide sum forms
    two outputs at least).  A block holds _TERM_BUDGET // rows.size rows, at least
    one, so wide stacks get small blocks.  Leading batch axes of rows,
    (..., n_t, width), fold into the width.
    """
    if rows.ndim > 2:  # swapaxes reorders the lanes, not a lane's sum, and costs less than moveaxis
        folded = rows.swapaxes(0, -2)
        sums = _ordered_sum(kernel, dt, folded.reshape(len(folded), -1), causal, first)
        return sums.reshape((-1,) + folded.shape[1:]).swapaxes(0, -2)
    n_t, w, out = len(rows), (dt * kernel)[:, None], np.zeros(rows.shape)
    kept = first if causal else 0  # outputs returned
    if rows.size == 0:
        return out[kept:]
    lead = min(kept, n_t - 2) if kept and rows.shape[1] == 1 else kept  # outputs not formed
    step = max(1, _TERM_BUDGET // rows.size)
    padded = np.concatenate([w[::-1, 0], np.zeros(n_t - 1)])  # padded[n_t - 1 - k] = w[k]
    b = padded.itemsize
    weights = np.ndarray((n_t, n_t), padded.dtype, padded, b * (n_t - 1), (b, -b) if causal else (-b, b))
    pattern = _reach_pattern(min(step, n_t), n_t)
    for s0 in range(0 if causal else first, n_t, step):
        s1 = min(s0 + step, n_t)
        o0 = max(s0, lead)
        span = slice(o0, None) if causal else slice(s1)  # the outputs these rows reach and form
        sums = out[span]
        terms = np.zeros((s1 - s0,) + sums.shape)
        block = pattern[: s1 - s0, :, None]  # read-only views of U, reversed if anticausal
        reached = block[:, o0 - s0 : n_t - s0] if causal else block[:, :s1][::-1, ::-1]
        np.multiply(weights[s0:s1, span, None], rows[s0:s1, None, :], out=terms, where=reached)
        terms[0] += sums
        np.add.reduce(terms, axis=0, out=sums)
    return out[kept:]


@functools.lru_cache(maxsize=64)
def _reach_pattern(rows: int, n_t: int) -> np.ndarray:
    """Read-only U[a, b] = b >= a, shape (rows, n_t), a block's reach: row a reaches output b."""
    return np.broadcast_to(np.arange(n_t) >= np.arange(rows)[:, None], (rows, n_t))  # read-only


def _forward_rows(forward: DynamicForward, values, first: int = 0) -> np.ndarray:
    """Data rows first, first+1, ... of the forward map from the source rows it reads.

    Leading batch axes of values map stack by stack, as in the row contract.
    """
    fam = forward.static
    if forward.kind == POINTWISE:
        return fam.apply_rows(first, values)
    kernel, dt = forward.kernel[: values.shape[-2]], forward.time_grid.dt
    if forward.kind == ACCUMULATE_THEN_OBSERVE:
        return _ordered_sum(kernel, dt, fam.apply_rows(0, values), True, first)
    return fam.apply_rows(first, _ordered_sum(kernel, dt, values, True, first))


def _adjoint_rows(forward: DynamicForward, values, first: int = 0) -> np.ndarray:
    """Adjoint of _forward_rows; a causal kind puts first zero rows before the data rows."""
    fam = forward.static
    if forward.kind == POINTWISE:
        return fam.adjoint_rows(first, values)
    if forward.kind == OBSERVE_THEN_ACCUMULATE:
        values = fam.adjoint_rows(first, values)
    rows = np.concatenate([np.zeros(values.shape[:-2] + (first, values.shape[-1])), values], -2)
    sums = _ordered_sum(forward.kernel[: rows.shape[-2]], forward.time_grid.dt, rows, False, first)
    return fam.adjoint_rows(0, sums) if forward.kind == ACCUMULATE_THEN_OBSERVE else sums


def apply_forward(forward: DynamicForward, theta: BochnerFunction) -> BochnerFunction:
    """Evaluate the forward map on a source function.

    The accumulation kinds touch only nodes j <= i when producing y(t_i),
    so perturbing the input at later nodes leaves earlier outputs
    bit-identical.
    """
    _check_space(forward, theta, "input", "source")
    return forward.data_template(_forward_rows(forward, theta.values))


def apply_adjoint(forward: DynamicForward, y: BochnerFunction) -> BochnerFunction:
    """Evaluate the adjoint of the forward map on a data function.

    Satisfies <apply_forward(F, theta), y> = <theta, apply_adjoint(F, y)>
    in the weighted space-time inner products; causal accumulation turns
    into anticausal accumulation.
    """
    _check_space(forward, y, "data", "data")
    return forward.source_template(_adjoint_rows(forward, y.values))


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_kernel_csv(path: str, grid: TimeGrid) -> np.ndarray:
    """Load kernel samples from CSV, one row per time index: `k,a` or `a`.

    The first row is a header, and skipped, when its last cell is not a
    number.
    """
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r]
    if rows and rows[0] and not _is_float(rows[0][-1]):
        rows = rows[1:]  # optional header
    try:
        samples = [float(r[-1]) for r in rows]
    except (ValueError, IndexError) as exc:
        raise InvalidInputError(f"{path}: unparsable kernel row ({exc})") from exc
    return make_causal_kernel(grid, samples)


def load_pattern_csv(path: str, grid: TimeGrid) -> list[list[int]]:
    """Load observation index sets from CSV, one row of indices per time node."""
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r]
    if len(rows) != grid.n_t:
        raise DimensionError(f"{path}: need one pattern row per time node ({grid.n_t})")
    try:
        return [[int(x) for x in row if x.strip() != ""] for row in rows]
    except ValueError as exc:
        raise InvalidInputError(f"{path}: unparsable pattern row ({exc})") from exc


