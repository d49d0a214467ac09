"""Regularization methods: tracking Tikhonov, uniform Tikhonov, Kaczmarz loops.

All methods assume the Hilbert geometry (p = s = 2).  The two Tikhonov
solvers run conjugate gradients on their normal equations, matrix-free;
the Kaczmarz iterations cycle through user-supplied linear sub-problems
and stop by the adapted discrepancy principle: at a sweep boundary once
every residual seen during the last full cycle fell below tau_i * delta_i.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .bochner import BochnerFunction, bochner_norm
from .errors import (
    DimensionError,
    DivergenceError,
    InvalidInputError,
    InvalidParameterError,
    UnsupportedGeometryError,
    UnsupportedKindError,
    _array,
    _count,
    _real,
)
from .operators import (
    DynamicForward,
    POINTWISE,
    _adjoint_rows,
    _check_space,
    _forward_rows,
    apply_adjoint,
    apply_forward,
)


@dataclass(frozen=True)
class TikhonovConfig:
    """Numerics of the normal-equation CG: relative tolerance and iteration cap."""

    tol: float = 1e-10
    max_iter: int = 5000

    def __post_init__(self) -> None:
        _real(self.tol, "tol", "(0, 1)")
        _count(self.max_iter, "max_iter")


@dataclass(frozen=True)
class ParameterRule:
    """A-priori choice alpha(delta) = scale * delta^exponent.

    The exponent must lie strictly between 0 and 2, the power of the
    data-fit term, which is exactly the regime where alpha(delta) -> 0 and
    delta^2 / alpha(delta) -> 0.
    """

    scale: float
    exponent: float

    def __post_init__(self) -> None:
        _real(self.scale, "rule scale", "(0, inf)")
        _real(self.exponent, "rule exponent", "(0, 2)")


def choose_alpha(rule: ParameterRule, delta: float) -> float:
    """Evaluate an a-priori rule at noise level delta."""
    _real(delta, "noise level", "(0, inf)")
    try:
        alpha = rule.scale * delta**rule.exponent
    except OverflowError:
        alpha = math.inf
    if not math.isfinite(alpha):
        raise InvalidParameterError(f"the rule gives a non-finite weight at delta = {delta}")
    return alpha


@dataclass(frozen=True)
class KaczmarzConfig:
    """Cycling iteration parameters.

    omega is the step size, either a positive real or "auto" (per
    sub-problem omega_i = 0.9 / ||F_i||^2, which keeps the per-sub-problem
    residual monotone in its own step, by power iteration).  tau are the
    discrepancy factors (scalar or one per sub-problem, each >= 1).
    memory is the number of remembered iterates for the multi-direction
    variant; memory = 1 is plain optimal-step Landweber-Kaczmarz, so a
    default config means the same method in both loops.  The CLI's
    [solver] memory defaults to 3 instead, so that its kaczmarz_multi
    method is multi-direction unless configured otherwise.
    """

    omega: Union[float, str] = "auto"
    tau: Union[float, Sequence[float]] = 2.0
    max_sweeps: int = 500
    memory: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.omega, str):
            if self.omega != "auto":
                raise InvalidParameterError(f"omega must be positive or 'auto', got {self.omega!r}")
        else:
            _real(self.omega, "omega", "(0, inf)")
        for tau in [self.tau] if np.isscalar(self.tau) else self.tau:
            _real(tau, "tau", "[1, inf)")
        _count(self.max_sweeps, "max_sweeps", 0)
        _count(self.memory, "memory")


@dataclass(frozen=True, eq=False)
class LinearSubproblem:
    """One equation F_i x = y_i of a cyclic system.

    apply/adjoint evaluate F_i and its adjoint with respect to the weighted
    inner products (data_weight on the data side, unknown_weight on the
    unknown side).  noise_level is this sub-problem's share delta_i of the
    noise budget.  KaczmarzConfig's omega = "auto" relies on the adjoint
    being exact in those weighted inner products: with a plain transpose
    and data_weight != unknown_weight its step is off by their ratio.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    data: np.ndarray
    noise_level: float
    data_weight: float = 1.0
    unknown_weight: float = 1.0

    def __post_init__(self) -> None:
        data = _array(self.data, "data", (None,))
        _real(self.noise_level, "noise level", "[0, inf)")
        _real(self.data_weight, "data_weight", "(0, inf)")
        _real(self.unknown_weight, "unknown_weight", "(0, inf)")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    def adjoint_rows(self, R: np.ndarray) -> np.ndarray:
        """Row k is adjoint(R[k]), bit for bit; time_subproblems shadows this loop with one call."""
        return np.array([*map(self.adjoint, R)], float)

    def residual(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.apply(x), dtype=float) - self.data

    def residual_norm(self, r: np.ndarray) -> float:
        return _norm(r, self.data_weight)


@dataclass
class SolveReport:
    """Outcome of one solver run.

    reconstruction is a BochnerFunction for the space-time solvers, a spatial
    vector for the Kaczmarz loops.  trace rows are (iteration, subproblem,
    residual, alpha, error), NaN where a method has no value; residuals is
    their residual column; a node's residual carries dt, as a per-node
    Kaczmarz block's, so their squares sum to ||F theta - y||^2.  alphas
    holds tikhonov_temporal's weight per node, tikhonov_uniform's [alpha], or
    nothing.  error is the relative distance to the truth, when given.
    stop_reason is "tolerance" (CG met its tolerance), "discrepancy" (a
    Kaczmarz cycle met the discrepancy principle), "max_iter" (the iteration
    or sweep cap ran out) or "breakdown" (CG met p.Ap <= 0: the normal
    operator is not positive definite, as with a wrong adjoint); the tracking
    solver's lock-step CG reports its worst node's, with a trace row and an
    iteration per node.  Non-finite values raise DivergenceError.
    """

    reconstruction: Union[BochnerFunction, np.ndarray]
    alphas: list[float]
    stop_reason: str
    iterations: int
    error: Optional[float]
    wall_time: float
    trace: list[tuple[int, int, float, float, float]]

    @property
    def residuals(self) -> list[float]:
        return [row[2] for row in self.trace]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a.b, each row by the BLAS ddot of a_row @ b_row (einsum rounds otherwise)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _norm(v: np.ndarray, weight: float) -> float:
    return math.sqrt(weight * float(v @ v))


def _formed(values, shape: tuple, index: int, what: str) -> np.ndarray:
    """Sub-problem index's values as floats; DimensionError unless they have `shape`."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise DimensionError(f"sub-problem {index}: {what} gave shape {values.shape}, not {shape}")
    return values


def _cg(
    operator: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Lock-step, matrix-free CG for a stack of SPD systems rhs (..., N); 1-D is one system.

    Each runs as if alone; at its stop ("tolerance", "max_iter", "breakdown":
    p.Ap <= 0) its x freezes, its r and p become 0.  Returns (x, iterations
    summed, per-system reasons and counts, relative residuals by iteration).
    A running system's non-finite ||rhs||, p.Ap or residual raises
    DivergenceError; a zero rhs stops at once.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = _dot(r, r)
    rhs_norm = _finite(np.sqrt(rs), "right-hand side norm")
    reasons = np.full(rs.shape, "max_iter", "U9")
    counts = np.full(rs.shape, max_iter)
    running = np.ones(rs.shape, bool)

    def stop(done: np.ndarray, reason: str, count: int) -> bool:
        if not done.any():
            return False
        reasons[done], counts[done] = reason, count
        r[done] = p[done] = 0.0
        running[done] = False
        return not running.any()

    if stop(rhs_norm == 0.0, "tolerance", 0):
        return x, 0, reasons, counts, [np.zeros_like(rs)]
    history: list[np.ndarray] = []
    for k in range(1, max_iter + 1):
        Ap = operator(p)
        pAp = _finite(_dot(p, Ap), "p.Ap", running)
        if stop(running & (pAp <= 0.0), "breakdown", k - 1):
            break
        step = (rs / np.where(running, pAp, np.inf))[..., None]
        x = x + step * p
        r = r - step * Ap
        rs_next = _finite(_dot(r, r), "squared residual", running)
        rel = np.sqrt(rs_next) / np.where(running, rhs_norm, np.inf)
        history.append(rel)
        if stop(running & (rel <= tol), "tolerance", k):
            break
        p = r + (rs_next / np.where(running, rs, np.inf))[..., None] * p
        rs = rs_next
    return x, int(counts.sum()), reasons, counts, history


def _finite(values: np.ndarray, what: str, running=True) -> np.ndarray:
    bad = values[running & ~np.isfinite(values)]
    if bad.size:
        raise DivergenceError(f"CG met a non-finite {what} ({bad[0]})")
    return values


def _resolve_alphas(
    alpha: Union[float, Sequence[float], ParameterRule],
    n_t: int,
    delta: Optional[float],
) -> np.ndarray:
    if isinstance(alpha, ParameterRule):
        if delta is None:
            raise InvalidParameterError("a parameter rule needs the noise level delta")
        alpha = choose_alpha(alpha, delta)
    if np.isscalar(alpha):
        _real(alpha, "alpha", "(0, inf)")
        return np.full(n_t, float(alpha))
    alphas = _array(alpha, "alpha", (n_t,), nonfinite=InvalidParameterError)
    _real(float(alphas.min()), "alpha", "(0, inf)")
    return alphas


def _check_inputs(
    forward: DynamicForward, data: BochnerFunction, truth: Optional[BochnerFunction]
) -> Optional[float]:
    """Before any solve: p = s = 2 throughout, data in the data space, truth in the source space.

    Returns the truth's norm, which must not be zero (None without a truth).
    """
    functions = [data] if truth is None else [data, truth]
    if (
        forward.source_exponent != 2.0
        or forward.source_space_exponent != 2.0
        or forward.data_exponent != 2.0
        or forward.data_space_exponent != 2.0
        or any(u.p != 2.0 or u.space_exponent != 2.0 for u in functions)
    ):
        raise UnsupportedGeometryError("solvers need the Hilbert geometry p = s = 2")
    _check_space(forward, data, "data", "data")
    if truth is None:
        return None
    _check_space(forward, truth, "truth", "source")
    return _nonzero(bochner_norm(truth))


def _nonzero(truth_norm: float) -> float:
    """A relative error's denominator, checked before the solve."""
    if truth_norm == 0.0:
        raise InvalidInputError("truth has zero norm, relative error undefined")
    return truth_norm


def tikhonov_temporal(
    forward: DynamicForward,
    data: BochnerFunction,
    alpha: Union[float, Sequence[float], ParameterRule],
    delta: Optional[float] = None,
    config: TikhonovConfig = TikhonovConfig(),
    truth: Optional[BochnerFunction] = None,
) -> SolveReport:
    """Tracking regularization: one Tikhonov problem per time node.

    For a pointwise forward map, solves at every node t_i

        (A_i* A_i + alpha_i I) x_i = A_i* y(t_i)

    by one lock-step CG over all nodes and assembles the snapshots into the
    piecewise-constant tracked reconstruction.

    Parameters
    ----------
    alpha : positive real, one per node, or a ParameterRule
        A rule is evaluated at `delta`.
    truth : optional BochnerFunction
        When given, the report carries the relative space-time error, and
        the trace rows carry per-node relative errors.
    """
    t0 = time.perf_counter()
    if forward.kind != POINTWISE:
        raise UnsupportedKindError(f"tracking solver needs a pointwise map, not {forward.kind}")
    truth_norm = _check_inputs(forward, data, truth)
    fam, dt = forward.static, forward.time_grid.dt
    alphas = _resolve_alphas(alpha, forward.time_grid.n_t, delta)

    def normal_op(V: np.ndarray) -> np.ndarray:
        return _adjoint_rows(forward, _forward_rows(forward, V)) + alphas[:, None] * V

    rhs = _adjoint_rows(forward, data.values)
    snapshots, _, reasons, _, _ = _cg(normal_op, rhs, config.tol, config.max_iter)
    r = _forward_rows(forward, snapshots) - data.values
    residuals = np.sqrt((dt * fam.out_weight) * _dot(r, r))
    errors = np.full(len(alphas), math.nan)
    if truth is not None:
        diff = snapshots - truth.values
        denom = np.sqrt(fam.in_weight * _dot(truth.values, truth.values))
        np.divide(np.sqrt(fam.in_weight * _dot(diff, diff)), denom, out=errors, where=denom != 0.0)
    rows = zip(residuals.tolist(), alphas.tolist(), errors.tolist())
    reconstruction = forward.source_template(snapshots)
    return SolveReport(
        reconstruction=reconstruction,
        alphas=alphas.tolist(),
        stop_reason=next(r for r in ("breakdown", "max_iter", "tolerance") if r in reasons),
        iterations=len(alphas),
        error=None if truth is None else bochner_norm(reconstruction - truth) / truth_norm,
        wall_time=time.perf_counter() - t0,
        trace=[(i, i, *row) for i, row in enumerate(rows)],
    )


def tikhonov_uniform(
    forward: DynamicForward,
    data: BochnerFunction,
    alpha: Union[float, ParameterRule],
    delta: Optional[float] = None,
    config: TikhonovConfig = TikhonovConfig(),
    truth: Optional[BochnerFunction] = None,
) -> SolveReport:
    """Uniform regularization over the whole space-time unknown.

    Solves (F* F + alpha I) theta = F* y by matrix-free conjugate
    gradients, for any composition kind.  For pointwise maps with constant
    alpha the normal equations decouple across nodes, so the result
    matches the tracking solver to solver tolerance.
    """
    t0 = time.perf_counter()
    truth_norm = _check_inputs(forward, data, truth)
    alphas = _resolve_alphas(alpha, 1, delta)
    a = float(alphas[0])

    def normal_op(v: np.ndarray) -> np.ndarray:
        image = apply_forward(forward, rhs_fn.with_values(v.reshape(rhs_fn.values.shape)))
        back = apply_adjoint(forward, image)
        return back.values.ravel() + a * v

    try:  # the data and the CG iterates are finite: a non-finite image is an overflow
        rhs_fn = apply_adjoint(forward, data)
        rhs = rhs_fn.values.ravel()
        theta, iters, stop_reason, _, history = _cg(normal_op, rhs, config.tol, config.max_iter)
    except InvalidInputError as exc:
        raise DivergenceError(f"the forward map overflowed: {exc}") from exc
    reconstruction = rhs_fn.with_values(theta.reshape(rhs_fn.values.shape))
    trace = [(k, 0, float(rel), a, math.nan) for k, rel in enumerate(history, start=1)]
    return SolveReport(
        reconstruction=reconstruction,
        alphas=[a],
        stop_reason=str(stop_reason),
        iterations=iters,
        error=None if truth is None else bochner_norm(reconstruction - truth) / truth_norm,
        wall_time=time.perf_counter() - t0,
        trace=trace,
    )


_POWER_STEPS = 30  # power-iteration steps per step-size estimate


def _estimate_omegas(
    subproblems: Sequence[LinearSubproblem],
    config: KaczmarzConfig,
    start: np.ndarray,
) -> list[float]:
    """Steps 0.9 / ||F_i||^2 from one lock-step power iteration on all F_i* F_i.

    Sub-problem i runs _POWER_STEPS steps from a standard normal vector seeded
    by i, as if alone, and stops with lambda = 0 once an iterate maps to zero.
    From 2 * _POWER_STEPS data rows on, a step costs two sub-problem calls.
    Below, one adjoint_rows call assembles R = [F_i* e_r] = (data_weight /
    unknown_weight) F_i, so F_i* F_i = (unknown_weight / data_weight) R^T R, and
    a step applies all R of one shape at once, in the BLAS calls of R.T @ (R @ v).
    """
    if not isinstance(config.omega, str):
        return [float(config.omega)] * len(subproblems)
    n_sub = len(subproblems)
    V = np.array([np.random.default_rng(i).standard_normal(start.shape) for i in range(n_sub)])
    shapes: dict[int, list[int]] = {}  # data rows -> the assembled ones
    free = []
    for i, sub in enumerate(subproblems):
        n_data = sub.data.shape[0]
        (free if n_data >= 2 * _POWER_STEPS else shapes.setdefault(n_data, [])).append(i)

    def rows(i: int, n: int) -> np.ndarray:
        return _formed(subproblems[i].adjoint_rows(np.eye(n)), (n, len(start)), i, "adjoint_rows")

    stacks = [
        (ids, np.array([rows(i, n) for i in ids]),
         np.array([[subproblems[i].unknown_weight / subproblems[i].data_weight] for i in ids]))
        for n, ids in shapes.items()
    ]
    running = np.ones(n_sub, bool)
    for _ in range(_POWER_STEPS):
        W = np.zeros_like(V)
        for ids, R, scale in stacks:
            W[ids] = scale * (R.swapaxes(-1, -2) @ (R @ V[ids, :, None]))[..., 0]
        for i in free:
            if running[i]:
                sub = subproblems[i]
                W[i] = _formed(sub.adjoint(sub.apply(V[i])), start.shape, i, "adjoint")
        W[~running] = 0.0
        norm = np.sqrt(_dot(W, W))
        running &= norm != 0.0
        lam = np.where(running, _dot(W, V) / _dot(V, V), 0.0)
        V = np.divide(W, norm[:, None], out=V.copy(), where=running[:, None])
        if not running.any():
            break
    bad = np.flatnonzero(~np.isfinite(lam))
    if bad.size:
        raise DivergenceError(f"power iteration on sub-problem {bad[0]} gave {lam[bad[0]]}")
    return [0.9 / x if x > 0.0 else 1.0 for x in lam.tolist()]


def _kaczmarz(
    subproblems: Sequence[LinearSubproblem],
    config: KaczmarzConfig,
    start,
    truth: Optional[np.ndarray],
    make_step: Callable[[np.ndarray], Callable[..., np.ndarray]],
) -> SolveReport:
    """The sweep loop both Kaczmarz methods share (stops as landweber_kaczmarz says).

    make_step(x0) gets the checked start vector and returns the update
    step(i, sub, x, r) -> x of sub-problem i at iterate x with residual
    r = F_i x - y_i.
    """
    t0 = time.perf_counter()
    if start is None:
        raise InvalidParameterError("start vector is required (its length sets the unknown)")
    if not subproblems:
        raise InvalidParameterError("need at least one sub-problem")
    x = _array(start, "start", (None,))
    if truth is not None:
        truth = _array(truth, "truth", x.shape)
        truth_norm = _nonzero(_norm(truth, subproblems[0].unknown_weight))
    n_sub = len(subproblems)
    scalar = np.isscalar(config.tau)
    taus = [float(config.tau)] * n_sub if scalar else [float(t) for t in config.tau]
    if len(taus) != n_sub:
        raise DimensionError(f"need one tau per sub-problem ({n_sub}), got {len(taus)}")
    images = [_formed(s.apply(x), s.data.shape, i, "apply") for i, s in enumerate(subproblems)]
    guard = max(sub.residual_norm(y - sub.data) for sub, y in zip(subproblems, images))
    guard = max(guard, np.finfo(float).tiny)
    step = make_step(x)
    trace: list[tuple[int, int, float, float, float]] = []
    stop_reason = "max_iter"
    for _ in range(config.max_sweeps):
        cycle_met = True
        for i, sub in enumerate(subproblems):
            r = sub.residual(x)
            res = sub.residual_norm(r)
            if not math.isfinite(res) or res > 1e6 * guard:
                raise DivergenceError(
                    f"residual {res:.3e} is not below 1e6 x initial worst residual {guard:.3e}"
                )
            trace.append((len(trace), i, res, math.nan, math.nan))
            if res > taus[i] * sub.noise_level:
                cycle_met = False
            x = step(i, sub, x, r)
        if cycle_met:
            stop_reason = "discrepancy"
            break
    return SolveReport(
        reconstruction=x,
        alphas=[],
        stop_reason=stop_reason,
        iterations=len(trace) // n_sub,
        error=None if truth is None else _norm(x - truth, subproblems[0].unknown_weight) / truth_norm,
        wall_time=time.perf_counter() - t0,
        trace=trace,
    )


def landweber_kaczmarz(
    subproblems: Sequence[LinearSubproblem],
    config: KaczmarzConfig = KaczmarzConfig(),
    start=None,
    truth: Optional[np.ndarray] = None,
) -> SolveReport:
    """Cyclic Landweber-Kaczmarz iteration over linear sub-problems.

    Step n updates x <- x - omega_i F_i*(F_i x - y_i) with i = n mod N.
    Stopping: at the end of a sweep, if every residual recorded during that
    sweep (each at its own iterate, before its update) satisfied
    ||F_i x - y_i|| <= tau_i delta_i, the loop stops with reason
    "discrepancy"; otherwise it runs max_sweeps sweeps and reports
    "max_iter".  A non-finite residual or step estimate, or a residual
    exceeding 1e6 times the worst initial residual, raises DivergenceError.

    Parameters
    ----------
    start : vector, required
        Initial unknown; its length fixes the unknown dimension.
    truth : optional vector
        When given, the report carries the relative error in the weighted
        unknown norm.
    """

    def make_step(x0: np.ndarray) -> Callable[..., np.ndarray]:
        omegas = _estimate_omegas(subproblems, config, x0)
        return lambda i, sub, x, r: x - omegas[i] * _formed(sub.adjoint(r), x.shape, i, "adjoint")

    return _kaczmarz(subproblems, config, start, truth, make_step)


def kaczmarz_multi_direction(
    subproblems: Sequence[LinearSubproblem],
    config: KaczmarzConfig = KaczmarzConfig(),
    start=None,
    truth: Optional[np.ndarray] = None,
) -> SolveReport:
    """Kaczmarz iteration minimizing over several remembered directions.

    At step n with current sub-problem i, the gradients of the last
    min(memory, n+1) iterates with respect to THIS sub-problem,
    d_k = F_i*(F_i x_k - y_i), span the search space; the coefficients
    solve the damped Gram least-squares system

        (G + 1e-12 tr(G) I) t = b,  G_kl = <F_i d_k, F_i d_l>, b_k = <F_i d_k, r_n>,

    which minimizes the residual of x - sum_k t_k d_k over the span.  With
    memory = 1 this is optimal-step Landweber-Kaczmarz.  Stopping and
    divergence handling match landweber_kaczmarz.
    """

    def make_step(x0: np.ndarray) -> Callable[..., np.ndarray]:
        history: deque[np.ndarray] = deque([x0], maxlen=config.memory)

        def step(i: int, sub: LinearSubproblem, x: np.ndarray, r: np.ndarray) -> np.ndarray:
            # history[-1] is x, whose residual r is already known
            past = [sub.residual(xk) for xk in list(history)[:-1]]
            directions = [_formed(sub.adjoint(rk), x.shape, i, "adjoint") for rk in past + [r]]
            images = [np.asarray(sub.apply(d), dtype=float) for d in directions]
            gram = sub.data_weight * np.array([[float(a @ b) for b in images] for a in images])
            damping = 1e-12 * float(np.trace(gram))
            if not math.isfinite(damping):
                raise DivergenceError(f"sub-problem {i} gave a Gram trace of {damping}")
            if damping > 0.0:
                rhs = sub.data_weight * np.array([float(a @ r) for a in images])
                coeff = np.linalg.solve(gram + damping * np.eye(len(images)), rhs)
                for t_k, d_k in zip(coeff, directions):
                    x = x - t_k * d_k
            # zero trace means every direction vanished: stationary, no update
            history.append(x)
            return x

        return step

    return _kaczmarz(subproblems, config, start, truth, make_step)


def time_subproblems(
    forward: DynamicForward,
    data: BochnerFunction,
    delta: float,
    noise_split: Optional[Sequence[float]] = None,
    sections: Optional[int] = None,
) -> list[LinearSubproblem]:
    """Split a forward map with a static unknown into Kaczmarz sub-problems.

    Sub-problem k maps a single spatial vector x to rows [first, end) of the
    forward map applied to the constant-in-time embedding of x (theta(t_i) = x
    at every node).  By default every node is its own block, so that

        pointwise                F_i x = A_i x
        accumulate_then_observe  F_i x = sum_{j<=i} dt a(t_i-t_j) A_j x
        observe_then_accumulate  F_i x = A_i (sum_{j<=i} dt a(t_i-t_j) x)

    With `sections` = N, consecutive nodes are grouped into N contiguous
    blocks instead, one sub-problem per block.  Every block, a single node
    included, measures its residual in the dt-weighted norm of its nodes, so
    its threshold is on the noise budget's scale: delta is split evenly over
    the N sub-problems, delta_i = delta / sqrt(N), the package convention;
    pass noise_split for explicit per-sub-problem levels.
    """
    _real(delta, "noise level", "[0, inf)")
    _check_space(forward, data, "data", "data")
    n_t = forward.time_grid.n_t
    count = n_t if sections is None else sections
    _count(count, "sections", 1, n_t)
    if noise_split is None:
        levels = [delta / math.sqrt(count)] * count
    else:
        levels = _array(
            noise_split, "noise levels in noise_split", (count,), nonfinite=InvalidParameterError
        ).tolist()
    blocks = [(int(b[0]), int(b[-1]) + 1) for b in np.array_split(np.arange(n_t), count)]
    return [
        _block(forward, first, end, data.values[first:end].reshape(-1), level)
        for (first, end), level in zip(blocks, levels)
    ]


def _block(forward: DynamicForward, first: int, end: int, data, level: float):
    """The LinearSubproblem of the block of nodes [first, end), with its data and noise level.

    apply maps the tiled x over the nodes the block reads (its own for a pointwise
    map, 0..end-1 for the causal kinds) to data rows [first, end).
    adjoint maps a residual, or each row of a stack (adjoint_rows), back in one
    call and sums over the nodes in C order, as NumPy sums one residual.  The
    data rows carry the quadrature weight dt, a node's as a section's.
    """
    fam, dt = forward.static, forward.time_grid.dt
    nodes = end - (first if forward.kind == POINTWISE else 0)

    def apply(x: np.ndarray) -> np.ndarray:
        tiled = np.asarray(x, dtype=float)[None, :].repeat(nodes, axis=0)  # faster than np.tile
        return _forward_rows(forward, tiled, first).reshape(-1)

    def adjoint(R: np.ndarray) -> np.ndarray:  # one residual, or each row of a stack
        R = np.asarray(R, dtype=float)
        rows = R.reshape(R.shape[:-1] + (end - first, fam.n_out))
        return dt * np.ascontiguousarray(_adjoint_rows(forward, rows, first)).sum(-2)

    sub = LinearSubproblem(apply, adjoint, data, level, dt * fam.out_weight, fam.in_weight)
    object.__setattr__(sub, "adjoint_rows", adjoint)
    return sub
