"""Built-in benchmark problems and the noise model.

Each constructor returns a ProblemInstance bundling a forward map, a ground
truth, and the clean data produced by applying one to the other, so the
data is attainable by construction.  add_noise perturbs data with a seeded
Gaussian draw rescaled to a prescribed fraction of the noise budget.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bochner import (
    BochnerFunction,
    SpatialGrid,
    TimeGrid,
    _atomic_write_text,
    bochner_norm,
    write_csv,
)
from .errors import DimensionError, InvalidInputError, _count, _real
from .operators import (
    ACCUMULATE_THEN_OBSERVE,
    DynamicForward,
    POINTWISE,
    _row_family,
    _table_rows,
    apply_forward,
    compose,
    identity_family,
    make_gaussian_smoothing,
    make_scaling_family,
    make_subsample_observer,
    rotating_window_pattern,
)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A forward map, the ground truth, and the clean data it produces."""

    forward: DynamicForward
    truth: BochnerFunction
    data_clean: BochnerFunction
    label: str


@dataclass(frozen=True)
class NoiseSpec:
    """Noise budget delta, RNG seed (>= 0), and the fraction of delta actually used.

    The default fraction 0.99 keeps the realized perturbation strictly
    below the budget, matching the strict inequality in the data model.
    """

    delta: float
    seed: int
    fraction: float = 0.99

    def __post_init__(self) -> None:
        _real(self.delta, "noise level", "(0, inf)")
        _count(self.seed, "seed", 0)
        _real(self.fraction, "fraction", "(0, 1]")


def _bump(x: np.ndarray, center: float) -> np.ndarray:
    return np.exp(-((x - center) ** 2) / 0.02)


def make_dct_analogue(
    n_t: int,
    n_x: int,
    sigma: float = 0.1,
    window: int | None = None,
    horizon: float = 1.0,
    pattern: Sequence[Sequence[int]] | None = None,
) -> ProblemInstance:
    """Dynamic computerized tomography analogue.

    Pointwise composition of a rotating observation window (width `window`,
    sliding one slot per time step) with Gaussian smoothing of width sigma
    on [0, 1].  The truth is a bump translating across the domain over the
    time horizon.  An explicit `pattern` (one index set per time node)
    replaces the rotating window.
    """
    time_grid = TimeGrid(horizon, n_t)
    space = SpatialGrid(0.0, 1.0, n_x)
    if window is None:
        window = n_x
    if pattern is None:
        pattern = rotating_window_pattern(n_t, n_x, window)
    elif len(pattern) != n_t:
        raise DimensionError(f"need one pattern row per time node, got {len(pattern)}")
    smoothing = make_gaussian_smoothing(space, sigma)
    observer = make_subsample_observer(pattern, n_x, weight=space.dx)
    forward = DynamicForward(POINTWISE, compose(observer, smoothing), time_grid)
    x = space.nodes
    centers = time_grid.nodes / horizon
    truth = forward.source_template(np.stack([_bump(x, c) for c in centers]))
    return ProblemInstance(forward, truth, apply_forward(forward, truth), "dct")


def make_mpi_analogue(
    n_t: int,
    n_x: int,
    decay: float = 1.0,
    horizon: float = 1.0,
    kernel: Sequence[float] | None = None,
) -> ProblemInstance:
    """Magnetic particle imaging analogue with a static concentration.

    The inner stage integrates the source against a moving sensitivity
    profile s(x, t) = sin(2 pi (x + t/T)); the scalar outputs are then
    causally accumulated with the kernel a(tau) = exp(-decay * tau), or
    with explicit `kernel` samples when given.  The truth is constant in
    time.
    """
    _real(decay, "decay", "[0, inf)")
    time_grid = TimeGrid(horizon, n_t)
    space = SpatialGrid(0.0, 1.0, n_x)
    dx = space.dx
    profiles = np.sin(2.0 * np.pi * (space.nodes[None, :] + time_grid.nodes[:, None] / horizon))
    profiles.setflags(write=False)

    def apply_rows(first: int, C: np.ndarray) -> np.ndarray:
        P = _table_rows(profiles, first, C.shape[-2], "sensitivity profiles")
        return dx * (P[:, None, :] @ C[..., None])[..., 0]  # one dot per row

    def adjoint_rows(first: int, V: np.ndarray) -> np.ndarray:
        return _table_rows(profiles, first, V.shape[-2], "sensitivity profiles") * V[..., :1]

    sensing = _row_family(n_x, 1, apply_rows, adjoint_rows, dx, 1.0)
    if kernel is None:
        with np.errstate(over="ignore"):  # a huge decay's exponent overflows to -inf: exp gives 0
            kernel = np.exp(-decay * np.arange(n_t) * time_grid.dt)
    forward = DynamicForward(ACCUMULATE_THEN_OBSERVE, sensing, time_grid, kernel)
    truth = forward.source_template(np.tile(_bump(space.nodes, 0.55), (n_t, 1)))
    return ProblemInstance(forward, truth, apply_forward(forward, truth), "mpi")


def make_nonuniform_example(
    n_t: int,
    n_x: int,
    horizon: float = 1.0,
) -> ProblemInstance:
    """Pointwise problem whose observation blows up towards t = 0.

    S(t) = (1/t) I composed with Gaussian smoothing (width 0.1) and a
    time-constant truth: each node solves the same smoothing problem, but
    the data magnitude scales like 1/t_i, so no uniform bound exists and
    refinement keeps raising the largest data values.
    """
    time_grid = TimeGrid(horizon, n_t)
    space = SpatialGrid(0.0, 1.0, n_x)
    smoothing = make_gaussian_smoothing(space, 0.1)
    scaling = make_scaling_family(time_grid, n_x, weight=space.dx)
    forward = DynamicForward(POINTWISE, compose(scaling, smoothing), time_grid)
    truth = forward.source_template(np.tile(_bump(space.nodes, 0.55), (n_t, 1)))
    return ProblemInstance(forward, truth, apply_forward(forward, truth), "nonuniform")


def make_identity_problem(n_t: int, n_x: int, horizon: float = 1.0) -> ProblemInstance:
    """Identity composition: y = theta.  Smoke-test fixture for the pipeline."""
    time_grid = TimeGrid(horizon, n_t)
    space = SpatialGrid(0.0, 1.0, n_x)
    forward = DynamicForward(POINTWISE, identity_family(n_x, weight=space.dx), time_grid)
    centers = time_grid.nodes / horizon
    truth = forward.source_template(np.stack([_bump(space.nodes, c) for c in centers]))
    return ProblemInstance(forward, truth, apply_forward(forward, truth), "identity")


BUILTIN_PROBLEMS = {
    "dct": make_dct_analogue,
    "mpi": make_mpi_analogue,
    "nonuniform": make_nonuniform_example,
    "identity": make_identity_problem,
}


def add_noise(data: BochnerFunction, spec: NoiseSpec) -> BochnerFunction:
    """Perturb data so that ||noisy - data|| = fraction * delta exactly.

    The perturbation is a standard normal draw from the seeded generator,
    rescaled in the data's own mixed norm.  A zero draw retries with an
    incremented seed at most three times.
    """
    for attempt in range(4):
        rng = np.random.default_rng(spec.seed + attempt)
        e = rng.standard_normal(data.values.shape)
        norm = bochner_norm(data.with_values(e))
        if norm > 0.0:
            scale = spec.fraction * spec.delta / norm
            return data.with_values(data.values + scale * e)
    raise InvalidInputError("noise draw had zero norm four times in a row")


def export_instance(
    problem: ProblemInstance,
    data_noisy: BochnerFunction,
    spec: NoiseSpec,
    out_dir: str,
) -> None:
    """Write truth.csv, data_clean.csv, data_noisy.csv, and meta.txt."""
    os.makedirs(out_dir, exist_ok=True)
    write_csv(problem.truth, os.path.join(out_dir, "truth.csv"))
    write_csv(problem.data_clean, os.path.join(out_dir, "data_clean.csv"))
    write_csv(data_noisy, os.path.join(out_dir, "data_noisy.csv"))
    grid = problem.forward.time_grid
    meta = (
        f"kind={problem.label}\n"
        f"n_t={grid.n_t}\n"
        f"n_x={problem.truth.n_dim}\n"
        f"T={float(grid.horizon)!r}\n"
        f"delta={float(spec.delta)!r}\n"
        f"seed={spec.seed}\n"
    )
    _atomic_write_text(os.path.join(out_dir, "meta.txt"), meta)
