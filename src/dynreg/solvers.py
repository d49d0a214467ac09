"""Regularization methods: tracking Tikhonov, uniform Tikhonov, Kaczmarz loops.

All methods assume the Hilbert geometry (p = s = 2).  The Tikhonov solvers run
matrix-free CG on their normal equations; the Kaczmarz iterations cycle through
linear sub-problems and stop by the adapted discrepancy principle: at a sweep
boundary once every residual of the last full cycle fell below tau_i * delta_i.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .bochner import BochnerFunction, _dot, bochner_norm
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

    omega is the step size, a positive real or "auto": omega_i = 0.9 / ||F_i||^2,
    which keeps sub-problem i's residual monotone in its own step (exact below 60
    data rows, else by power iteration).  tau are the discrepancy factors (scalar
    or one per sub-problem, each >= 1).  memory counts the multi-direction
    variant's remembered iterates; its default 1 is plain optimal-step
    Landweber-Kaczmarz, one method in both loops.  The CLI's [solver] memory
    defaults to 3: its kaczmarz_multi is multi-direction.
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

    apply/adjoint evaluate F_i and its adjoint in the weighted inner products
    (data_weight on the data side, unknown_weight on the unknown side).
    noise_level is its share delta_i of the noise budget.  omega = "auto" needs
    the adjoint exact in those products: a plain transpose with unequal weights
    puts its step off by their ratio.
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
        """Row k is adjoint(R[k]); an assembled time_subproblems block shadows it by one product."""
        return np.array([*map(self.adjoint, R)], float)

    def residual(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.apply(x), dtype=float) - self.data

    def residual_norm(self, r: np.ndarray) -> float:
        return _norm(r, self.data_weight)


@dataclass
class SolveReport:
    """Outcome of one solver run.

    reconstruction is a BochnerFunction (space-time solvers) or a spatial vector
    (Kaczmarz loops).  trace rows are (iteration, subproblem, residual, alpha,
    error), NaN where a method has none; a node's residual carries dt, as a
    per-node Kaczmarz block's, so their squares sum to ||F theta - y||^2.  alphas
    holds tikhonov_temporal's weight per node, tikhonov_uniform's [alpha], or
    nothing.  error is the relative distance to the truth, when given.
    stop_reason is "tolerance" (CG met it), "discrepancy" (a Kaczmarz cycle met
    the principle), "max_iter" (the cap ran out) or "breakdown" (CG met p.Ap <= 0,
    as with a wrong adjoint); the tracking solver's lock-step CG reports its worst
    node's, with a trace row and an iteration per node.  Non-finite values raise
    DivergenceError.
    """

    reconstruction: Union[BochnerFunction, np.ndarray]
    alphas: list[float]
    stop_reason: str
    iterations: int
    error: Optional[float]
    wall_time: float
    trace: list[tuple[int, int, float, float, float]]


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
    exponents = {forward.source_exponent, forward.source_space_exponent, forward.data_exponent,
                 forward.data_space_exponent, *(e for u in functions for e in (u.p, u.space_exponent))}
    if exponents != {2.0}:
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

    by one lock-step CG over all nodes; the snapshots form the piecewise-constant
    tracked reconstruction.

    Parameters
    ----------
    alpha : positive real, one per node, or a ParameterRule
        A rule is evaluated at `delta`.
    truth : optional BochnerFunction
        When given, the report carries the relative space-time error and the
        trace rows per-node ones.
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

    Solves (F* F + alpha I) theta = F* y by matrix-free CG, for any kind.  On a
    pointwise map with constant alpha the nodes decouple, so the result matches
    the tracking solver to solver tolerance.
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


_POWER_STEPS = 30


def _estimate_omegas(
    subproblems: Sequence[LinearSubproblem],
    config: KaczmarzConfig,
    start: np.ndarray,
) -> tuple[list[float], list[Optional[np.ndarray]]]:
    """Steps 0.9 / ||F_i||^2 and the rows R_i = [F_i* e_r] of each assembled F_i (else None).

    Below 2 * _POWER_STEPS data rows, ||F_i||^2 = (unknown_weight / data_weight)
    lambda_max(R_i R_i^T) by one eigvalsh per row count, as R_i = (data_weight /
    unknown_weight) F_i; else _POWER_STEPS power-iteration steps on F_i* F_i from a
    normal vector seeded by i (0 once an iterate maps to zero).  As a zero block,
    rounding noise (||F_i||^2 <= 2^-53 max_j ||F_j||^2) gets the unit step.  A NaN,
    inf or subnormal ||F_i||^2 (whose step overflows) raises DivergenceError.
    """
    n_sub = len(subproblems)
    rows: list = [None] * n_sub
    if not isinstance(config.omega, str):
        return [float(config.omega)] * n_sub, rows
    lam = np.zeros(n_sub)
    shapes: dict = {}
    for i, sub in enumerate(subproblems):
        n = sub.data.shape[0]
        if n < 2 * _POWER_STEPS:
            rows[i] = _formed(sub.adjoint_rows(np.eye(n)), (n, len(start)), i, "adjoint_rows")
            shapes.setdefault(n, []).append(i)
            continue
        v = np.random.default_rng(i).standard_normal(start.shape)
        for k in range(_POWER_STEPS):
            w = _formed(sub.adjoint(sub.apply(v)), start.shape, i, "adjoint")
            norm = math.sqrt(w @ w)
            if not norm:
                break
            if k == _POWER_STEPS - 1:
                lam[i] = (w @ v) / (v @ v)
            v = w / norm
    for ids in shapes.values():
        R = np.array([rows[i] for i in ids])
        with np.errstate(over="ignore", invalid="ignore"):
            gram = R @ R.swapaxes(-1, -2)
            finite = np.isfinite(gram).all(axis=(1, 2))
            top = np.linalg.eigvalsh(np.where(finite[:, None, None], gram, 0.0))[:, -1]
            scale = [subproblems[i].unknown_weight / subproblems[i].data_weight for i in ids]
            lam[ids] = scale * np.where(finite, top, np.trace(gram, axis1=1, axis2=2))
    noise = lam.max(initial=0.0) * 2.0**-53
    omegas = [0.9 / x if x > noise else 1.0 for x in lam.tolist()]
    for i, shown in enumerate(np.where(np.isfinite(lam), omegas, lam)):
        if not math.isfinite(shown):
            raise DivergenceError(f"step estimate of sub-problem {i} gave {shown}")
    return omegas, rows


def _kaczmarz(
    subproblems: Sequence[LinearSubproblem],
    config: KaczmarzConfig,
    start,
    truth: Optional[np.ndarray],
    make_step: Callable[[np.ndarray], Callable[..., np.ndarray]],
) -> SolveReport:
    """The sweep loop both Kaczmarz methods share (stops as landweber_kaczmarz says).

    make_step(x0), given the checked start, returns step(i, sub, x, r) -> x, the
    update of sub-problem i at iterate x with residual r = F_i x - y_i.
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
    At the end of a sweep in which every residual (each at its own iterate, before
    its update) met ||F_i x - y_i|| <= tau_i delta_i, the loop stops with reason
    "discrepancy"; else after max_sweeps sweeps with "max_iter".  A non-finite
    residual or step, or a residual above 1e6 times the worst initial one, raises
    DivergenceError.  With omega = "auto", a sub-problem below 60 data rows steps
    by its assembled rows, F_i* r = R_i^T r; residuals come from apply (for a
    time_subproblems block, F_i built on the forward map).

    Parameters
    ----------
    start : vector, required
        Initial unknown; its length fixes the unknown dimension.
    truth : optional vector
        When given, the report carries the relative error in the weighted
        unknown norm.
    """

    def make_step(x0: np.ndarray) -> Callable[..., np.ndarray]:
        omegas, rows = _estimate_omegas(subproblems, config, x0)
        return lambda i, sub, x, r: x - omegas[i] * (
            _formed(sub.adjoint(r), x.shape, i, "adjoint") if rows[i] is None else r @ rows[i]
        )

    return _kaczmarz(subproblems, config, start, truth, make_step)


def kaczmarz_multi_direction(
    subproblems: Sequence[LinearSubproblem],
    config: KaczmarzConfig = KaczmarzConfig(),
    start=None,
    truth: Optional[np.ndarray] = None,
) -> SolveReport:
    """Kaczmarz iteration minimizing over several remembered directions.

    At step n on sub-problem i, the gradients d_k = F_i*(F_i x_k - y_i) of the
    last min(memory, n+1) iterates for THIS sub-problem span the search space;
    the coefficients solve the damped Gram least-squares system

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

    Sub-problem k maps a spatial vector x to rows [first, end) of the forward map
    on the constant-in-time embedding of x.  By default each node is a block:

        pointwise                F_i x = A_i x
        accumulate_then_observe  F_i x = sum_{j<=i} dt a(t_i-t_j) A_j x
        observe_then_accumulate  F_i x = A_i (sum_{j<=i} dt a(t_i-t_j) x)

    With `sections` = N, the nodes form N contiguous blocks instead.  Every block
    measures its residual in the dt-weighted norm of its nodes, so its threshold
    is on the noise budget's scale: delta_i = delta / sqrt(N), the package
    convention, unless noise_split gives the levels.  One _forward_rows call on the
    constant unit vectors e_j assembles the blocks under 60 data rows (column j of
    F_i is its rows of e_j) while their stack (n_in, end, n_in) is <= 2**20 floats;
    a pointwise map's stack starts at the first such block's node.
    """
    _real(delta, "noise level", "[0, inf)")
    _check_space(forward, data, "data", "data")
    n_t, n_in = forward.time_grid.n_t, forward.static.n_in
    count = n_t if sections is None else sections
    _count(count, "sections", 1, n_t)
    if noise_split is None:
        levels = [delta / math.sqrt(count)] * count
    else:
        levels = _array(
            noise_split, "noise levels in noise_split", (count,), nonfinite=InvalidParameterError
        ).tolist()
    blocks = [(int(b[0]), int(b[-1]) + 1) for b in np.array_split(np.arange(n_t), count)]
    small = {end: first for first, end in blocks
             if (end - first) * forward.static.n_out < 2 * _POWER_STEPS and end * n_in * n_in <= 2**20}
    start = min(small.values()) if small and forward.kind == POINTWISE else 0
    if small:
        eye = np.broadcast_to(np.eye(n_in)[:, None], (n_in, max(small) - start, n_in))
        columns = _forward_rows(forward, eye, start)
    return [
        _block(forward, first, end, data.values[first:end].reshape(-1), level,
               columns[:, first - start:end - start].reshape(n_in, -1).T if end in small else None)
        for (first, end), level in zip(blocks, levels)
    ]


def _block(forward: DynamicForward, first: int, end: int, data, level: float, F):
    """The LinearSubproblem of nodes [first, end), its data rows (they carry dt) and level.

    Given its matrix F: apply(x) = F @ x, adjoint(r) = (data_weight / unknown_weight)
    r @ F, of a stack too.  Else apply maps the tiled x over the nodes the block reads
    (its own if pointwise, 0..end-1 if causal) to data rows [first, end); adjoint
    maps a residual back and sums over the nodes.
    """
    fam, dt = forward.static, forward.time_grid.dt
    nodes = end - (first if forward.kind == POINTWISE else 0)

    def apply(x: np.ndarray) -> np.ndarray:
        tiled = np.asarray(x, dtype=float)[None, :].repeat(nodes, axis=0)  # faster than np.tile
        return _forward_rows(forward, tiled, first).reshape(-1)

    def adjoint(r: np.ndarray) -> np.ndarray:
        rows = np.asarray(r, dtype=float).reshape(end - first, fam.n_out)
        return dt * _adjoint_rows(forward, rows, first).sum(0)

    if F is not None:
        F, scale = np.ascontiguousarray(F), dt * fam.out_weight / fam.in_weight
        apply, adjoint = F.__matmul__, lambda r: scale * (r @ F)
    sub = LinearSubproblem(apply, adjoint, data, level, dt * fam.out_weight, fam.in_weight)
    if F is not None:
        object.__setattr__(sub, "adjoint_rows", adjoint)
    return sub
