"""Ill-posedness probes: dense spectra, integrability tails, translation moduli.

Dense matrices appear only here (and in test oracles), as images of batches
of unit impulses (_impulse_images): frozen-time ones from _frozen_stack, alone
or stacked over nodes, a causal map's stacked one from _forward_rows.  Weights
are folded in, so plain coordinate inner products on the assembled matrix
reproduce the weighted ones.  Singular values come from LAPACK's SVD of the
matrix itself (never of M^T M), one batched call per stack.  It is backward
stable: every value carries an absolute error of about eps * sigma_max, so
values below that level are rounding noise.

The ensemble probes take their Hilbert (s = 2) node norms from bochner._dot,
one BLAS dot per row (p = s = 2 mixed norms from one sum of them), the one
exception to bochner's ascending order, which the solvers keep for their
iteration counts: the probes only report tables, equal to bochner_norm's to
rounding level.  Other exponents keep bochner's bits.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .bochner import BochnerFunction, TimeGrid
from .bochner import _ascending_sum, _dot, _require_geometry, _row_norms
from .errors import (
    DomainError,
    InvalidInputError,
    InvalidParameterError,
    ResourceLimitError,
    UnsupportedKindError,
    _array,
    _count,
    _real,
)
from .operators import (
    DynamicForward,
    OperatorFamily,
    POINTWISE,
    _forward_rows,
    apply_forward,
)

SIZE_GUARD = 2_000_000  # max entries of any dense assembly
_ASSEMBLY_BUDGET = 65_536  # entries of one batch of impulses or images: bounds scratch memory


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Singular values of one frozen-time or stacked operator.

    index is the time index for frozen-time spectra or the string "stacked".
    condition is sigma_max / sigma_min, or +inf when the m x n matrix is
    flagged rank-deficient: sigma_min <= max(m, n) * eps * sigma_max, the
    level below which a backward-stable SVD cannot tell sigma_min from 0.
    """

    index: int | str
    singular_values: np.ndarray
    condition: float
    rank_deficient: bool


def _guard(rows: int, cols: int, what: str) -> None:
    if rows * cols > SIZE_GUARD:
        raise ResourceLimitError(
            f"{what} would hold {rows * cols} entries (guard: {SIZE_GUARD})"
        )


def assemble_dense(op: DynamicForward | OperatorFamily, time_index: int | None = None) -> np.ndarray:
    """Dense matrix of a family at one time index, or of a stacked forward map.

    Quadrature weights are folded into the entries: the returned M maps and
    measures in orthonormalized coordinates, so euclidean norms of M match
    weighted norms of the operator and M^T is the adjoint's matrix.  For an
    OperatorFamily, time_index defaults to 0; for a DynamicForward with
    time_index set, the map must be pointwise.

    A frozen-time matrix is the one-node _frozen_stack; column c of a stacked one is
    _forward_rows of the c-th unit impulse.
    """
    last = math.inf  # a bare family knows no grid
    if isinstance(op, DynamicForward) and time_index is not None:
        if op.kind != POINTWISE:
            raise UnsupportedKindError(
                f"frozen-time assembly needs a pointwise map, not {op.kind}"
            )
        last, op = op.time_grid.n_t - 1, op.static
    if isinstance(op, OperatorFamily):
        node = 0 if time_index is None else time_index
        _count(node, "time index", 0, last, DomainError)
        _guard(op.n_out, op.n_in, "frozen-time assembly")
        return _frozen_stack(op, node, node + 1)[0]
    fam, n_t = op.static, op.time_grid.n_t
    _guard(n_t * fam.n_out, n_t * fam.n_in, "stacked assembly")
    image = lambda E: _forward_rows(op, E.reshape(len(E), n_t, fam.n_in)).reshape(len(E), -1)
    return _impulse_images(fam, image, n_t, (n_t * fam.n_out, n_t * fam.n_in))


def _impulse_images(fam: OperatorFamily, image, nodes: int, shape: tuple) -> np.ndarray:
    """[..., c] of shape: sqrt(w_out / w_in) image(e_c) of the unit impulses (nodes rows of
    fam), image mapping them on axis 0 in batches of _ASSEMBLY_BUDGET entries."""
    M, n = np.empty(shape), shape[-1]
    step = max(1, _ASSEMBLY_BUDGET // (nodes * max(fam.n_in, fam.n_out)))
    for c0 in range(0, n, step):
        count = min(step, n - c0)
        images = math.sqrt(fam.out_weight / fam.in_weight) * image(np.eye(count, n, c0))
        M[..., c0 : c0 + count] = np.moveaxis(images, 0, -1)
    return M


def singular_values(M) -> np.ndarray:
    """All min(m, n) singular values of an (m, n) matrix M, descending, by LAPACK's SVD
    (of a (k, m, n) stack: each matrix's, shape (k, min(m, n)), from one batched call).

    Backward stable: each value is accurate to about eps * sigma_max in
    absolute terms, so small values are only as accurate as that allows.
    """
    try:
        axes = min(max(np.ndim(M), 2), 3)  # (m, n) or (k, m, n)
    except ValueError:  # ragged nesting: _array names M in its error
        axes = 2
    return np.linalg.svd(_array(M, "M", (None,) * axes, InvalidInputError), compute_uv=False)


def _spectrum_report(index: int | str, sigmas: np.ndarray, shape: tuple) -> SpectrumReport:
    smax = float(sigmas[0])
    smin = float(sigmas[-1])
    deficient = smax == 0.0 or smin <= max(shape) * np.finfo(float).eps * smax
    condition = math.inf if deficient else smax / smin
    sigmas.setflags(write=False)
    return SpectrumReport(index, sigmas, condition, deficient)


def temporal_spectrum(forward: DynamicForward, time_index: int) -> SpectrumReport:
    """Spectrum of the frozen-time operator of a pointwise forward map."""
    M = assemble_dense(forward, time_index)
    return _spectrum_report(time_index, singular_values(M), M.shape)


def _frozen_stack(fam: OperatorFamily, first: int, end: int) -> np.ndarray:
    """The folded frozen-time matrices sqrt(w_out / w_in) A_i of nodes first .. end - 1,
    shape (end - first, n_out, n_in): apply_rows of unit impulses broadcast over the nodes."""
    nodes = end - first
    image = lambda E: fam.apply_rows(first, np.broadcast_to(E[:, None], (len(E), nodes, fam.n_in)))
    return _impulse_images(fam, image, nodes, (nodes, fam.n_out, fam.n_in))


def stacked_spectrum(forward: DynamicForward) -> SpectrumReport:
    """Spectrum of the full space-time operator.

    For pointwise maps the stacked matrix is block diagonal, so this is the
    multiset union of all frozen-time spectra, from one batched SVD per
    _frozen_stack, at any size; causal kinds assemble the dense matrix.
    """
    if forward.kind != POINTWISE:
        M = assemble_dense(forward)
        return _spectrum_report("stacked", singular_values(M), M.shape)
    fam, n_t = forward.static, forward.time_grid.n_t
    step = max(1, _ASSEMBLY_BUDGET // (fam.n_in * max(fam.n_in, fam.n_out)))
    sigmas = []
    for first in range(0, n_t, step):
        sigmas += singular_values(_frozen_stack(fam, first, min(first + step, n_t))).ravel().tolist()
    sigmas.sort(reverse=True)  # np.sort's first call pages in its SIMD code
    return _spectrum_report("stacked", np.array(sigmas), (n_t * fam.n_out, n_t * fam.n_in))


_IMAGES = weakref.WeakKeyDictionary()  # source -> (forward map, its image), while the source lives


def forward_image(forward: DynamicForward, theta: BochnerFunction) -> BochnerFunction:
    """apply_forward(forward, theta), formed once while theta lives: the tail and
    translation probes of one ensemble share the images (both objects are immutable)."""
    stored = _IMAGES.get(theta)
    if stored is None or stored[0] is not forward:
        stored = _IMAGES[theta] = (forward, apply_forward(forward, theta))
    return stored[1]


def _node_norms(values: np.ndarray, weight: float, s: float) -> np.ndarray:
    """The X norm of every row of a 2-d array: sqrt(weight * d.d) by _dot for s = 2
    (no abs, power or transposed copy; the same bits run to run), bochner's
    _row_norms, bit for bit, for any other s."""
    if s == 2.0:
        return np.sqrt(weight * _dot(values, values))
    return _row_norms(values, weight, s)


def _probe_norm(values: np.ndarray, dt: float, weight: float, p: float, s: float) -> float:
    """Mixed norm of a 2-d array's rows: one sum of row dots at p = s = 2, else
    bochner_norm's sum over _node_norms."""
    if p == s == 2.0:
        return math.sqrt(dt * weight * _dot(values, values).sum())
    return _ascending_sum(dt * _node_norms(values, weight, s) ** p) ** (1.0 / p)


def _check_radii(radii) -> list[float]:
    """The tail radii as floats: positive, finite and strictly ascending."""
    radii = [float(r) for r in radii]
    _count(len(radii), "number of radii")
    for r in radii:
        _real(r, "radii", "(0, inf)")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise InvalidParameterError("radii must be strictly ascending")
    return radii


def integrability_tail(
    forward: DynamicForward,
    inputs,
    radii,
    q: float = 1.0,
) -> np.ndarray:
    """Tail mass of the forward images over a bounded family of sources.

    For each radius r this returns sup over the inputs of

        sum_{i : ||f(t_i)|| > r} dt * ||f(t_i)||^q,   f = forward(input),

    the discrete witness of (non-)uniform integrability: for uniformly
    bounded composites it vanishes for large r, while scaling families like
    1/t keep a diverging tail under grid refinement.

    Returns an array of rows (r, tail).  Every input must lie in the unit
    ball of the source space.  Each image's node norms are computed once and
    the masses summed in ascending node order, so they equal this sum taken
    node by node to rounding level.  For s = 2 the node norms are one BLAS dot
    per row, not bochner's ascending sum (kept for the solvers' iteration
    counts).  The images come from forward_image.
    inputs may be any iterable and is streamed: one input is checked, mapped
    and reduced before the next is drawn, so the memory is one input and its
    image, whatever the size of the family.
    """
    _real(q, "tail exponent", "(0, inf)")
    radii = _check_radii(radii)
    above = np.array(radii)[:, None]
    dt = forward.time_grid.dt
    worst, n = None, 0
    for theta in inputs:
        geometry = theta.grid.dt, theta.space_weight, theta.p, theta.space_exponent
        if _probe_norm(theta.values, *geometry) > 1.0 + 1e-9:
            raise InvalidInputError(f"input {n} lies outside the unit ball")
        f = forward_image(forward, theta)
        norms = _node_norms(f.values, f.space_weight, f.space_exponent)
        tails = _ascending_sum(np.where(norms > above, dt * norms**q, 0.0))
        worst = tails if worst is None else np.maximum(worst, tails)
        n += 1
        del theta, f  # the loop variable would keep them (and the cached image) alive
    if worst is None:
        raise InvalidInputError("no input functions given")
    return np.column_stack([radii, worst])


def _shift_steps(grid: TimeGrid, z: float) -> int:
    """Grid steps k = round(z / dt) of a shift z in [0, T) that leaves an overlap."""
    if not np.isfinite(z) or z < 0.0 or z >= grid.horizon:
        raise DomainError(f"shift must lie in [0, T), got {z}")
    k = int(round(z / grid.dt))
    if k >= grid.n_t:
        raise DomainError(f"shift {z} leaves no overlap on a grid with {grid.n_t} nodes")
    return k


def translation_modulus(ensemble, shifts) -> np.ndarray:
    """Worst-case translation modulus sup_f ||tau_z f - f|| over an ensemble.

    Shifts must be grid multiples in [0, T); the difference is measured on
    the surviving nodes.  Small moduli under refinement are the practical
    footprint of a relatively compact family; the probe is meant for
    ensembles of forward images or reconstructions.  Each modulus is the
    mixed norm of the row difference values[k:] - values[:n_t - k] on the first
    n_t - k nodes, so it equals that difference's bochner_norm to rounding level:
    for s = 2 the node norms are one BLAS dot per row (one sum of them at
    p = 2), not bochner's ascending sum (kept for the solvers' iteration
    counts); other exponents repeat bochner_norm's bits.
    ensemble may be any iterable and is streamed, one member at a time, so
    the memory is one member, whatever the size of the ensemble.

    Returns an array of rows (z, modulus).
    """
    worst = None
    for f in ensemble:
        if worst is None:  # the first member fixes the geometry and checks the shifts
            geometry, grid = f._geometry(), f.grid
            p, s, weight = geometry[1]
            shifts = [float(z) for z in shifts]
            steps = [_shift_steps(grid, z) for z in shifts]
            for z, k in zip(shifts, steps):
                if abs(z / grid.dt - k) > 1e-9:
                    raise DomainError(f"shift {z} is not a grid multiple of dt={grid.dt}")
            worst = np.zeros(len(shifts))
        _require_geometry(geometry, f)
        v = f.values
        moduli = [_probe_norm(v[k:] - v[: f.n_t - k], grid.dt, weight, p, s) for k in steps]
        worst = np.maximum(worst, moduli)
        del f, v  # the loop variable would keep the member alive
    if worst is None:
        raise InvalidInputError("no ensemble members given")
    return np.column_stack([shifts, worst])
