"""Tikhonov solvers, parameter rules, and the Kaczmarz iterations.

Dense oracles throughout: per-node and stacked normal equations are
assembled explicitly and solved with LAPACK, pseudoinverse limits with
np.linalg.pinv, so every solver answer is checked against direct linear
algebra at small sizes.
"""

import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynreg import (
    ACCUMULATE_THEN_OBSERVE,
    BUILTIN_PROBLEMS,
    BochnerFunction,
    DimensionError,
    DivergenceError,
    DynamicForward,
    InvalidInputError,
    InvalidParameterError,
    KaczmarzConfig,
    LinearSubproblem,
    NoiseSpec,
    OBSERVE_THEN_ACCUMULATE,
    OperatorFamily,
    POINTWISE,
    ParameterRule,
    SolveReport,
    TikhonovConfig,
    UnsupportedGeometryError,
    UnsupportedKindError,
    add_noise,
    apply_adjoint,
    apply_forward,
    assemble_dense,
    bochner_norm,
    choose_alpha,
    kaczmarz_multi_direction,
    landweber_kaczmarz,
    make_causal_kernel,
    make_dct_analogue,
    make_gaussian_smoothing,
    make_identity_problem,
    make_mpi_analogue,
    make_nonuniform_example,
    tikhonov_temporal,
    tikhonov_uniform,
    time_subproblems,
)
from dynreg.bochner import SpatialGrid, TimeGrid
import dynreg.solvers
from dynreg.operators import _adjoint_rows, _forward_rows
from dynreg.solvers import _POWER_STEPS, _block, _cg, _estimate_omegas
from tracking_reference import tracking_by_node


def matrix_subproblem(m: np.ndarray, y: np.ndarray, level: float) -> LinearSubproblem:
    return LinearSubproblem(
        apply=lambda x, m=m: m @ x,
        adjoint=lambda r, m=m: m.T @ r,
        data=y,
        noise_level=level,
    )


def nan_subproblem() -> LinearSubproblem:
    """A sub-problem whose forward map yields NaN, as a broken operator would."""
    return LinearSubproblem(
        apply=lambda x: np.full(2, math.nan),
        adjoint=lambda r: r,
        data=np.ones(2),
        noise_level=1.0,
    )


def negated_adjoint_problem(broken, n_t: int = 4):
    """Pointwise map A_i = diag(1, 2, 3) whose 'adjoint' is -A_i at the nodes in
    broken, so CG on those nodes meets p.Ap < 0 in its first iteration."""
    d = np.array([1.0, 2.0, 3.0])
    fam = OperatorFamily(
        3, 3, lambda i, x: d * x, lambda i, y: (-d if i in broken else d) * y
    )
    forward = DynamicForward(POINTWISE, fam, TimeGrid(1.0, n_t))
    return forward, forward.data_template(np.ones((n_t, 3)))


def forward_and_data(name: str, n_t: int, n_x: int):
    """A built-in problem's forward map and clean data, or for name "ota" an
    observe-then-accumulate map (Gaussian family, kernel exp(-t)) with the
    data of the constant source 1."""
    if name != "ota":
        problem = BUILTIN_PROBLEMS[name](n_t, n_x)
        return problem.forward, problem.data_clean
    grid = TimeGrid(1.0, n_t)
    fam = make_gaussian_smoothing(SpatialGrid(0.0, 1.0, n_x), 0.3)
    kernel = make_causal_kernel(grid, np.exp(-grid.nodes))
    forward = DynamicForward(OBSERVE_THEN_ACCUMULATE, fam, grid, kernel)
    return forward, apply_forward(forward, forward.source_template(np.ones((n_t, n_x))))


def counted(sub: LinearSubproblem, counts: dict) -> LinearSubproblem:
    """The same sub-problem with its apply and adjoint calls counted in counts."""

    def tally(name, fn):
        def call(v):
            counts[name] = counts.get(name, 0) + 1
            return fn(v)

        return call

    return LinearSubproblem(
        apply=tally("apply", sub.apply),
        adjoint=tally("adjoint", sub.adjoint),
        data=sub.data,
        noise_level=sub.noise_level,
        data_weight=sub.data_weight,
        unknown_weight=sub.unknown_weight,
    )


def weighted_subproblem(m: np.ndarray, data_weight: float, unknown_weight: float):
    """F x = m x, with the adjoint taken in the weighted inner products."""
    return LinearSubproblem(
        apply=lambda x: m @ x,
        adjoint=lambda r: (data_weight / unknown_weight) * (m.T @ r),
        data=np.zeros(m.shape[0]),
        noise_level=0.0,
        data_weight=data_weight,
        unknown_weight=unknown_weight,
    )


def unit_step_below_noise(norms) -> list[float]:
    """The steps 0.9 / ||F_i||^2, and the unit step for a norm at or below
    u max_j ||F_j||^2 (u = 2^-53: rounding noise of a zero block) or zero."""
    noise = max(norms, default=0.0) * 2.0**-53
    return [0.9 / lam if lam > noise else 1.0 for lam in norms]


def power_norms(normals, n_in: int) -> list[float]:
    """The power iteration of _estimate_omegas on the maps normals[i] = F_i* F_i:
    each Rayleigh quotient after _POWER_STEPS steps (0 once an iterate maps to zero)."""
    norms = []
    for idx, normal in enumerate(normals):
        v = np.random.default_rng(idx).standard_normal(n_in)
        lam = 0.0
        for _ in range(_POWER_STEPS):
            w = normal(v)
            norm = math.sqrt(float(w @ w))
            if norm == 0.0:
                lam = 0.0
                break
            lam = float(w @ v) / float(v @ v)
            v = w / norm
        norms.append(lam)
    return norms


def reference_steps(subs, n_in: int) -> list:
    """Each sub-problem's expected (step, assembled) from _estimate_omegas.

    Below 2 * _POWER_STEPS data rows (assembled): the rows R = [F* e_r] of one 1-D
    adjoint call per unit data vector, and ||F||^2 = (unknown_weight / data_weight)
    sigma_max(R)^2 by LAPACK.  From there on: the power iteration one sub-problem
    at a time.  The steps are unit_step_below_noise of those norms.
    """
    norms, assembled = [], []
    for sub, power in zip(subs, power_norms(subproblem_normals(subs), n_in)):
        n_data = sub.data.shape[0]
        if n_data < 2 * _POWER_STEPS:
            rows = np.array([sub.adjoint(e) for e in np.eye(n_data)], dtype=float)
            power = sub.unknown_weight / sub.data_weight * np.linalg.svd(rows, compute_uv=False)[0] ** 2
        norms.append(power)
        assembled.append(n_data < 2 * _POWER_STEPS)
    return list(zip(unit_step_below_noise(norms), assembled))


def assert_steps(omegas, refs) -> None:
    """_estimate_omegas' steps against reference_steps: an assembled step within
    1e-13 of LAPACK's, a matrix-free one bit for bit."""
    assert len(omegas) == len(refs)
    for omega, (ref, assembled) in zip(omegas, refs):
        if assembled:
            assert omega == pytest.approx(ref, rel=1e-13, abs=0.0)
        else:
            assert omega == ref


def rows_subproblem(rows) -> LinearSubproblem:
    """A sub-problem whose adjoint of unit data vector e_k is rows[k] exactly, inf
    and NaN included: the adjoint adds only its nonzero coefficients' rows."""
    rows = np.array(rows, dtype=float)
    return LinearSubproblem(
        apply=lambda x: np.zeros(len(rows)),
        adjoint=lambda r: sum((c * row for c, row in zip(r, rows) if c), np.zeros(rows.shape[1])),
        data=np.zeros(len(rows)),
        noise_level=0.0,
    )


def subproblem_normals(subs) -> list:
    """The maps F_i* F_i through two sub-problem calls each."""
    return [lambda v, sub=sub: np.asarray(sub.adjoint(sub.apply(v)), float) for sub in subs]


def matrix_free_omegas(subs, n_in: int) -> list[float]:
    """The steps of the power iteration on every F_i* F_i."""
    return unit_step_below_noise(power_norms(subproblem_normals(subs), n_in))


def block_adjoint_reference(forward, first: int, end: int, weight: float, r) -> np.ndarray:
    """A block sub-problem's adjoint of one residual: pad it into the block's
    rows, map them back with _adjoint_rows, sum over the nodes."""
    lo = first if forward.kind == POINTWISE else 0
    n_out = forward.static.n_out
    padded = np.zeros((end - lo, n_out))
    padded[first - lo :] = np.asarray(r, dtype=float).reshape(end - first, n_out)
    return weight * _adjoint_rows(forward, padded, lo).sum(axis=0)


def assembled_matrix(sub):
    """The matrix F of a time_subproblems block assembled below 2 * _POWER_STEPS
    data rows (its apply is F's bound __matmul__), else None."""
    matrix = getattr(sub.apply, "__self__", None)
    return matrix if isinstance(matrix, np.ndarray) else None


def unit_vector_rows(forward, first: int, end: int) -> np.ndarray:
    """Column j: rows [first, end) of _forward_rows on the tiled unit vector e_j,
    one call per j, the oracle of an assembled block's matrix."""
    n_in, n_t = forward.static.n_in, forward.time_grid.n_t
    columns = [_forward_rows(forward, np.tile(e, (n_t, 1)))[first:end] for e in np.eye(n_in)]
    return np.array([c.reshape(-1) for c in columns]).T


def gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53: the relative rounding bound of a
    sum of n terms, or of n chained roundings (Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1 and 4.2)."""
    return n * 2.0**-53 / (1.0 - n * 2.0**-53)


def absolute_rows(forward, first: int, end: int) -> np.ndarray:
    """unit_vector_rows of the same map on |kernel| and |A_j|: entry (r, j) is the sum of
    the absolute terms the forward map adds to form F's entry (r, j), so |F| v for v >= 0
    bounds the terms of F x and F* r at x = |v| or r = |v|, cancellation or not."""
    fam, n_t = forward.static, forward.time_grid.n_t
    eye = np.broadcast_to(np.eye(fam.n_in)[:, None], (fam.n_in, n_t, fam.n_in))
    mats = np.abs(np.moveaxis(fam.apply_rows(0, eye), 0, -1))  # |A_j|, (n_t, n_out, n_in)
    family = OperatorFamily(
        fam.n_in, fam.n_out, lambda i, x: mats[i] @ x, lambda i, y: mats[i].T @ y,
        fam.in_weight, fam.out_weight,
    )
    kernel = None if forward.kernel is None else np.abs(forward.kernel)
    return unit_vector_rows(DynamicForward(forward.kind, family, forward.time_grid, kernel), first, end)


def tally_in_place(sub, names=("apply", "adjoint", "adjoint_rows")) -> dict:
    """Count the calls of sub's apply, adjoint and adjoint_rows (or of the
    named methods of a family), in place."""
    counts: dict = {}
    for name in names:

        def call(*args, name=name, fn=getattr(sub, name)):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)

        object.__setattr__(sub, name, call)
    return counts


@st.composite
def block_subproblems(draw, nodes=st.integers(1, 9), max_sections: int = 9, delta=st.just(1e-2)):
    """time_subproblems of a pointwise, accumulate-then-observe or hand-built
    observe-then-accumulate map, per node or in sections, on a built-in row
    family or a family of per-node matrices built from 1-D callables, at noise level delta."""
    kind = draw(st.sampled_from([POINTWISE, ACCUMULATE_THEN_OBSERVE, OBSERVE_THEN_ACCUMULATE]))
    n_t, n_in = draw(nodes), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family_name = draw(st.sampled_from(["matrices", "dct", "mpi", "gaussian"]))
    if family_name == "matrices":
        mats = rng.standard_normal((n_t, draw(st.integers(1, 4)), n_in))
        mats[rng.random(mats.shape) < 0.2] = 0.0
        family = OperatorFamily(
            n_in, mats.shape[1], lambda i, x: mats[i] @ x, lambda i, y: mats[i].T @ y
        )
    elif family_name == "gaussian":
        family = make_gaussian_smoothing(SpatialGrid(0.0, 1.0, n_in), 0.3)
    else:
        family = BUILTIN_PROBLEMS[family_name](n_t, n_in).forward.static
    grid = TimeGrid(1.0, n_t)
    kernel = None
    if kind != POINTWISE:
        kernel = rng.standard_normal(n_t)
        kernel[rng.random(n_t) < 0.2] = -0.0
    forward = DynamicForward(kind, family, grid, kernel)
    data = forward.data_template(rng.standard_normal((n_t, family.n_out)))
    sections = draw(st.one_of(st.none(), st.integers(1, min(n_t, max_sections))))
    subs = time_subproblems(forward, data, draw(delta), sections=sections)
    blocks = np.array_split(np.arange(n_t), n_t if sections is None else sections)
    weight = grid.dt
    stacks = []
    for sub in subs:
        n_data = sub.data.shape[0]
        extra = draw(st.integers(0, 3))
        residuals = rng.standard_normal((extra, n_data))
        residuals[rng.random(residuals.shape) < 0.3] *= 0.0
        residuals[rng.random(residuals.shape) < 0.2] = -0.0
        stacks.append(np.vstack([np.eye(n_data), -np.eye(n_data), residuals]))
    return forward, subs, [(int(b[0]), int(b[-1]) + 1) for b in blocks], weight, stacks


@st.composite
def consistent_systems(draw):
    """Sub-problems F_i = U_i diag(s_i) V^T with one row space span(V) of drawn rank
    r <= n_in, singular values s_i in [1/kappa, 1] (s_i[0] = 1), block rows on both
    sides of 2 * _POWER_STEPS, drawn weights, and data F_i x* of an x* with a part
    outside span(V).  Returns (kappa, matrices, data, weights)."""
    n_in = draw(st.integers(1, 6))
    rank = draw(st.integers(1, n_in))
    kappa = draw(st.floats(1.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = np.linalg.qr(rng.standard_normal((n_in, n_in)))[0][:, :rank]
    x_star = rng.standard_normal(n_in)
    mats, ys, weights = [], [], []
    unknown_weight = draw(st.floats(0.1, 10.0))
    for _ in range(draw(st.integers(1, 4))):
        n_data = draw(st.integers(rank, 2 * _POWER_STEPS - 1) | st.integers(2 * _POWER_STEPS, 80))
        u = np.linalg.qr(rng.standard_normal((n_data, rank)))[0]
        s = kappa ** -rng.random(rank)
        s[0] = 1.0
        mats.append((u * s) @ v.T)
        ys.append(mats[-1] @ x_star)
        weights.append((draw(st.floats(0.1, 10.0)), unknown_weight))
    return kappa, mats, ys, weights


def stacked_residual(mats, ys, x) -> float:
    return math.sqrt(sum(float((m @ x - y) @ (m @ x - y)) for m, y in zip(mats, ys)))


class TestConfigs:
    def test_tikhonov_config_validation(self):
        with pytest.raises(InvalidParameterError):
            TikhonovConfig(tol=0.0)
        with pytest.raises(InvalidParameterError):
            TikhonovConfig(tol=1.5)
        with pytest.raises(InvalidParameterError):
            TikhonovConfig(max_iter=0)

    def test_kaczmarz_config_validation(self):
        with pytest.raises(InvalidParameterError):
            KaczmarzConfig(omega=0.0)
        with pytest.raises(InvalidParameterError):
            KaczmarzConfig(omega="fast")
        with pytest.raises(InvalidParameterError):
            KaczmarzConfig(tau=0.5)
        with pytest.raises(InvalidParameterError):
            KaczmarzConfig(tau=[2.0, 0.9])
        with pytest.raises(InvalidParameterError):
            KaczmarzConfig(max_sweeps=-1)
        with pytest.raises(InvalidParameterError):
            KaczmarzConfig(memory=0)

    @pytest.mark.parametrize(
        "setting",
        [{"omega": math.inf}, {"omega": math.nan}, {"tau": math.inf}, {"tau": [2.0, math.inf]},
         {"tau": math.nan}],
    )
    def test_kaczmarz_config_rejects_non_finite(self, setting):
        with pytest.raises(InvalidParameterError):
            KaczmarzConfig(**setting)

    def test_rule_validation(self):
        with pytest.raises(InvalidParameterError):
            ParameterRule(scale=1.0, exponent=2.0)
        with pytest.raises(InvalidParameterError):
            ParameterRule(scale=1.0, exponent=0.0)
        with pytest.raises(InvalidParameterError):
            ParameterRule(scale=0.0, exponent=1.0)


class TestChooseAlpha:
    def test_linear_rule(self):
        assert choose_alpha(ParameterRule(1.0, 1.0), 0.01) == 0.01

    def test_square_root_rule(self):
        assert choose_alpha(ParameterRule(0.1, 0.5), 1e-4) == pytest.approx(1e-3, rel=1e-14)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(InvalidParameterError):
            choose_alpha(ParameterRule(1.0, 1.0), 0.0)

    def test_rejects_non_finite_weight(self):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            choose_alpha(ParameterRule(1.0, 1.5), 1e300)  # delta**1.5 overflows
        with pytest.raises(InvalidParameterError, match="non-finite"):
            choose_alpha(ParameterRule(1e300, 0.5), 1e300)  # the product overflows
        with pytest.raises(InvalidParameterError, match=r"noise level must lie in \(0, inf\)"):
            choose_alpha(ParameterRule(1.0, 1.0), math.inf)


class TestTikhonovTemporal:
    def test_identity_closed_form(self):
        problem = make_identity_problem(5, 4)
        report = tikhonov_temporal(problem.forward, problem.data_clean, 0.7)
        expected = problem.data_clean.values / 1.7
        np.testing.assert_allclose(report.reconstruction.values, expected, rtol=1e-10)

    def test_heavy_damping(self):
        problem = make_identity_problem(4, 3)
        data = problem.forward.source_template(np.ones((4, 3)))
        report = tikhonov_temporal(problem.forward, data, 1e6)
        for x, y in zip(report.reconstruction.values, data.values):
            assert np.linalg.norm(x) <= 2e-6 * np.linalg.norm(y)

    def test_matches_dense_normal_equations(self):
        problem = make_dct_analogue(5, 16, window=9)
        forward = problem.forward
        noisy = add_noise(problem.data_clean, NoiseSpec(1e-2, 0))
        alpha = 1e-3
        report = tikhonov_temporal(forward, noisy, alpha)
        c = math.sqrt(forward.static.out_weight / forward.static.in_weight)
        for i in range(5):
            m = assemble_dense(forward, time_index=i)
            oracle = np.linalg.solve(
                m.T @ m + alpha * np.eye(16), m.T @ (c * noisy.values[i])
            )
            gap = np.linalg.norm(report.reconstruction.values[i] - oracle)
            assert gap <= 1e-8 * np.linalg.norm(oracle)

    def test_alpha_sequence_per_node(self):
        problem = make_dct_analogue(4, 8)
        alphas = [1e-4, 1e-3, 1e-2, 1e-1]
        report = tikhonov_temporal(problem.forward, problem.data_clean, alphas)
        c = math.sqrt(problem.forward.static.out_weight / problem.forward.static.in_weight)
        for i, a in enumerate(alphas):
            m = assemble_dense(problem.forward, time_index=i)
            oracle = np.linalg.solve(
                m.T @ m + a * np.eye(8), m.T @ (c * problem.data_clean.values[i])
            )
            gap = np.linalg.norm(report.reconstruction.values[i] - oracle)
            assert gap <= 1e-8 * np.linalg.norm(oracle)

    def test_rule_evaluates_at_delta(self):
        problem = make_dct_analogue(3, 6)
        by_rule = tikhonov_temporal(
            problem.forward, problem.data_clean, ParameterRule(2.0, 1.0), delta=1e-2
        )
        explicit = tikhonov_temporal(problem.forward, problem.data_clean, 2e-2)
        np.testing.assert_array_equal(
            by_rule.reconstruction.values, explicit.reconstruction.values
        )
        assert by_rule.alphas == [2e-2] * 3

    def test_report_shape_and_error(self):
        problem = make_identity_problem(6, 3)
        report = tikhonov_temporal(
            problem.forward, problem.data_clean, 1e-8, truth=problem.truth
        )
        assert isinstance(report, SolveReport)
        assert len(report.trace) == 6
        assert report.stop_reason == "tolerance"
        assert report.error == pytest.approx(0.0, abs=1e-7)
        assert all(math.isfinite(row[4]) for row in report.trace)

    def test_breakdown_is_reported(self):
        # node 0 breaks down, nodes 1-3 run out of iterations: breakdown wins
        forward, data = negated_adjoint_problem(broken={0})
        report = tikhonov_temporal(forward, data, 1e-2, config=TikhonovConfig(max_iter=1))
        assert report.stop_reason == "breakdown"
        assert report.iterations == 4

    def test_one_cg_over_all_nodes_one_row_call_each_way_per_iteration(self, monkeypatch):
        problem = make_dct_analogue(8, 12, window=5)
        noisy = add_noise(problem.data_clean, NoiseSpec(1e-2, 5))
        fam = problem.forward.static
        calls = {"apply_rows": 0, "adjoint_rows": 0}
        for name in calls:

            def rows(first, X, name=name, fn=getattr(fam, name)):
                calls[name] += 1
                return fn(first, X)

            object.__setattr__(fam, name, rows)
        results = []

        def cg(*args):
            results.append(_cg(*args))
            return results[-1]

        monkeypatch.setattr("dynreg.solvers._cg", cg)
        tikhonov_temporal(problem.forward, noisy, 1e-4)
        ((_, total, reasons, counts, _),) = results
        assert set(reasons) == {"tolerance"} and len(set(counts.tolist())) > 1
        assert type(total) is int and total == counts.sum()
        iterations = int(counts.max())  # the slowest node sets the lock-step count
        # plus the rhs (adjoint) and the trace residuals (apply)
        assert calls == {"apply_rows": iterations + 1, "adjoint_rows": iterations + 1}

    def test_rejects_causal_kind(self):
        problem = make_mpi_analogue(4, 4)
        with pytest.raises(UnsupportedKindError):
            tikhonov_temporal(problem.forward, problem.data_clean, 1e-2)

    def test_rejects_bad_alpha(self):
        problem = make_identity_problem(3, 2)
        with pytest.raises(InvalidParameterError, match=re.escape("alpha must lie in (0, inf), got 0.0")):
            tikhonov_temporal(problem.forward, problem.data_clean, 0.0)
        with pytest.raises(InvalidParameterError, match=re.escape("alpha must lie in (0, inf), got -1.0")):
            tikhonov_temporal(problem.forward, problem.data_clean, [1e-2, -1.0, 1e-2])
        with pytest.raises(InvalidParameterError, match=re.escape("alpha must lie in (0, inf), got inf")):
            tikhonov_temporal(problem.forward, problem.data_clean, math.inf)
        with pytest.raises(InvalidParameterError, match=re.escape("alpha must be finite, got inf at (1,)")):
            tikhonov_temporal(problem.forward, problem.data_clean, [1e-2, math.inf, 1e-2])
        # a NaN weight used to read "regularization weights must be positive"
        with pytest.raises(InvalidParameterError, match=re.escape("alpha must be finite, got nan at (1,)")):
            tikhonov_temporal(problem.forward, problem.data_clean, [1e-2, math.nan, 1e-2])
        with pytest.raises(DimensionError, match=re.escape("alpha must have shape (3,), got (2,)")):
            tikhonov_temporal(problem.forward, problem.data_clean, [1e-2, 1e-2])

    def test_rule_needs_delta(self):
        problem = make_identity_problem(3, 2)
        with pytest.raises(InvalidParameterError):
            tikhonov_temporal(problem.forward, problem.data_clean, ParameterRule(1.0, 1.0))

    def test_rejects_banach_data(self):
        problem = make_identity_problem(3, 2)
        data = BochnerFunction(
            problem.forward.time_grid,
            problem.data_clean.values,
            p=3.0,
            space_weight=problem.data_clean.space_weight,
        )
        with pytest.raises(UnsupportedGeometryError):
            tikhonov_temporal(problem.forward, data, 1e-2)


def overflowing_problem(data_scale: float, counts: dict):
    """The pointwise map 1e200 * x on three components at four nodes, its
    family calls counted, with data of constant value data_scale."""

    def scaled(name):
        def call(i, v):
            counts[name] = counts.get(name, 0) + 1
            return 1e200 * np.asarray(v)

        return call

    fam = OperatorFamily(3, 3, scaled("apply"), scaled("adjoint"))
    forward = DynamicForward(POINTWISE, fam, TimeGrid(1.0, 4))
    return forward, forward.data_template(np.full((4, 3), data_scale))


def tracking_case(name: str):
    """(forward, data, alphas, config, truth) of one tracking-solver case."""
    if name.startswith("negated"):  # nodes 1 and 3 break down, the others converge
        forward, data = negated_adjoint_problem(broken={1, 3})
        max_iter = 1 if name == "negated-truncated" else 5000
        return forward, data, [1e-2] * 4, TikhonovConfig(max_iter=max_iter), None
    kind, variant = name.split("-")
    make = {"dct": make_dct_analogue, "nonuniform": make_nonuniform_example,
            "identity": make_identity_problem}[kind]
    problem = make(6, 10)
    data = add_noise(problem.data_clean, NoiseSpec(1e-2, len(name)))
    alphas, config, truth = [1e-3] * 6, TikhonovConfig(), None
    if variant == "alphas":  # one weight per node
        alphas = [1e-4, 1e-1, 3e-3, 1e-2, 1e-3, 3e-4]
    elif variant == "truth":  # node 2 of the truth is zero: its relative error is NaN
        values = problem.truth.values.copy()
        values[2] = 0.0
        truth = problem.forward.source_template(values)
    elif variant == "truncated":
        config = TikhonovConfig(max_iter=3)
    return problem.forward, data, alphas, config, truth


class TestTrackingOracle:
    """tikhonov_temporal's lock-step CG against one scalar CG per node, bit for bit."""

    @pytest.mark.parametrize(
        "name",
        [
            f"{kind}-{variant}"
            for kind in ("dct", "nonuniform", "identity")
            for variant in ("scalar", "alphas", "truth", "truncated")
        ]
        + ["negated-full", "negated-truncated"],
    )
    def test_matches_per_node_reference(self, name):
        forward, data, alphas, config, truth = tracking_case(name)
        report = tikhonov_temporal(forward, data, alphas, config=config, truth=truth)
        snapshots, trace, reason = tracking_by_node(
            forward, data, alphas, config.tol, config.max_iter, truth
        )
        np.testing.assert_array_equal(
            report.reconstruction.values.view(np.int64), snapshots.view(np.int64)
        )
        assert len(report.trace) == len(trace) == forward.time_grid.n_t
        for got, want in zip(report.trace, trace):
            assert got[:2] == want[:2]
            np.testing.assert_array_equal(
                np.array(got[2:]).view(np.int64), np.array(want[2:]).view(np.int64)
            )
        assert (report.stop_reason, report.iterations) == (reason, forward.time_grid.n_t)
        if name == "dct-truth":
            assert math.isnan(report.trace[2][4]) and math.isfinite(report.error)
        if name in ("dct-truncated", "nonuniform-truncated", "negated-truncated"):
            assert report.stop_reason == ("breakdown" if "negated" in name else "max_iter")


@st.composite
def spd_stacks(draw):
    """A stack of m small systems: SPD matrices with a few distinct eigenvalues
    (CG meets its tolerance after about that many steps), negated ones (breakdown
    at step 1) and zero right-hand sides, with a tolerance and an iteration cap."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats, rhs = np.empty((m, n, n)), rng.standard_normal((m, n))
    for i in range(m):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        levels = 10.0 ** rng.uniform(-3, 2, draw(st.integers(1, n)))
        mats[i] = (q * rng.choice(levels, n)) @ q.T
        row = draw(st.sampled_from(["spd", "spd", "negated", "zero"]))
        if row == "negated":
            mats[i] *= -1.0
        elif row == "zero":
            rhs[i] = 0.0
    tol = draw(st.sampled_from([1e-2, 1e-8, 1e-13]))
    return mats, rhs, tol, draw(st.integers(1, n + 2))


class TestStackedCg:
    """_cg over a stack of systems equals _cg on each system alone, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(spd_stacks())
    def test_stack_equals_each_system_alone(self, case):
        mats, rhs, tol, max_iter = case

        def operator(stack):
            return lambda v: (stack @ v[..., None])[..., 0]

        x, total, reasons, counts, history = _cg(operator(mats), rhs, tol, max_iter)
        assert type(total) is int and total == counts.sum()
        for i in range(len(rhs)):
            xi, ki, reason_i, counts_i, history_i = _cg(operator(mats[i]), rhs[i], tol, max_iter)
            np.testing.assert_array_equal(x[i].view(np.int64), xi.view(np.int64))
            assert (reasons[i], counts[i]) == (reason_i, ki) == (reason_i[()], counts_i[()])
            # a zero rhs alone reports [0.0]; in a stack that stops at once, no iteration
            assert len(history) >= ki
            n = min(len(history), len(history_i))
            rows = np.array([h[i] for h in history[:n]], dtype=float)
            np.testing.assert_array_equal(
                rows.view(np.int64), np.array(history_i[:n], dtype=float).view(np.int64)
            )

    def test_each_system_stops_on_its_own(self):
        # system 0 converges in one step, 1 breaks down, 2 has a zero rhs, 3 hits max_iter
        mats = np.stack([np.eye(3), -np.eye(3), np.eye(3), np.diag([1.0, 10.0, 100.0])])
        rhs = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        x, total, reasons, counts, _ = _cg(lambda v: (mats @ v[..., None])[..., 0], rhs, 1e-12, 2)
        assert reasons.tolist() == ["tolerance", "breakdown", "tolerance", "max_iter"]
        assert counts.tolist() == [1, 0, 0, 2] and total == 3
        np.testing.assert_array_equal(x[:3], [[1.0, 2.0, 3.0], [0.0] * 3, [0.0] * 3])

    def test_non_finite_values_of_stopped_systems_are_ignored(self):
        # system 1 stops at once on its zero rhs; its rows of the operator are NaN
        def operator(v):
            out = v.copy()
            out[1] = np.nan
            return out

        x, _, reasons, _, _ = _cg(operator, np.array([[2.0, 0.0], [0.0, 0.0]]), 1e-12, 5)
        assert reasons.tolist() == ["tolerance", "tolerance"]
        with pytest.raises(DivergenceError, match="p.Ap"):
            _cg(operator, np.array([[2.0, 0.0], [0.0, 1.0]]), 1e-12, 5)


class TestCgOverflow:
    """A map that overflows from finite data is a divergence, not bad input."""

    # data 1: ||A* y||^2 overflows; data 1e-150: A* A p overflows inside CG
    @pytest.mark.parametrize("data_scale", [1.0, 1e-150])
    @pytest.mark.parametrize("solver", [tikhonov_temporal, tikhonov_uniform])
    def test_overflow_raises_divergence(self, solver, data_scale):
        counts: dict = {}
        forward, data = overflowing_problem(data_scale, counts)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            solver(forward, data, 1.0)
        if solver is tikhonov_temporal:  # the four nodes' rhs, then their first iteration
            expected = {"adjoint": 4} if data_scale == 1.0 else {"adjoint": 8, "apply": 4}
            assert counts == expected

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_cg_quantities_raise(self, bad):
        with pytest.raises(DivergenceError, match="right-hand side"):
            _cg(lambda v: v, np.array([1.0, bad]), 1e-10, 10)
        with pytest.raises(DivergenceError, match="p.Ap"):
            _cg(lambda v: np.full_like(v, bad), np.ones(2), 1e-10, 10)

    def test_overflowing_residual_raises(self):
        # p.Ap = 1e-300 is finite, the step 1e300 overflows r's second entry
        def operator(v):
            return np.array([1e-300, 1e300]) * v[0]

        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="residual"):
            _cg(operator, np.array([1.0, 0.0]), 1e-10, 10)


class TestTikhonovUniform:
    def test_identity_closed_form(self):
        problem = make_identity_problem(4, 5)
        report = tikhonov_uniform(problem.forward, problem.data_clean, 0.25)
        np.testing.assert_allclose(
            report.reconstruction.values, problem.data_clean.values / 1.25, rtol=1e-10
        )

    def test_decoupling_matches_temporal(self):
        problem = make_dct_analogue(6, 12, window=7)
        noisy = add_noise(problem.data_clean, NoiseSpec(1e-2, 1))
        uniform = tikhonov_uniform(problem.forward, noisy, 1e-3)
        temporal = tikhonov_temporal(problem.forward, noisy, 1e-3)
        gap = bochner_norm(uniform.reconstruction - temporal.reconstruction)
        assert gap <= 1e-8 * bochner_norm(temporal.reconstruction)

    def test_mpi_matches_dense_stacked_solve(self):
        problem = make_mpi_analogue(32, 16)
        forward = problem.forward
        noisy = add_noise(problem.data_clean, NoiseSpec(1e-2, 2))
        alpha = 1e-2
        report = tikhonov_uniform(forward, noisy, alpha)
        m = assemble_dense(forward)
        c = math.sqrt(forward.static.out_weight / forward.static.in_weight)
        oracle = np.linalg.solve(
            m.T @ m + alpha * np.eye(32 * 16), m.T @ (c * noisy.values.reshape(-1))
        ).reshape(32, 16)
        gap = np.linalg.norm(report.reconstruction.values - oracle)
        assert gap <= 1e-7 * np.linalg.norm(oracle)

    def test_normal_equation_optimality(self):
        for make in (make_identity_problem, make_dct_analogue, make_nonuniform_example):
            problem = make(6, 8)
            noisy = add_noise(problem.data_clean, NoiseSpec(1e-2, 3))
            alpha = 1e-3
            report = tikhonov_uniform(problem.forward, noisy, alpha)
            theta = report.reconstruction
            image = apply_forward(problem.forward, theta)
            gradient = apply_adjoint(problem.forward, image - noisy) + theta * alpha
            rhs = apply_adjoint(problem.forward, noisy)
            assert bochner_norm(gradient) <= 1e-8 * bochner_norm(rhs)

    def test_monotone_regularization_path(self):
        problem = make_mpi_analogue(8, 6)
        noisy = add_noise(problem.data_clean, NoiseSpec(1e-2, 4))
        norms, residuals = [], []
        for alpha in np.logspace(-6, 0, 7):
            report = tikhonov_uniform(problem.forward, noisy, float(alpha))
            norms.append(bochner_norm(report.reconstruction))
            residuals.append(
                bochner_norm(apply_forward(problem.forward, report.reconstruction) - noisy)
            )
        for a, b in zip(norms, norms[1:]):
            assert b <= a * (1 + 1e-9)
        for a, b in zip(residuals, residuals[1:]):
            assert b >= a * (1 - 1e-9)

    def test_error_shrinks_with_noise_level(self):
        problem = make_dct_analogue(8, 8)
        errors = []
        for k, delta in enumerate((1e-1, 1e-4)):
            noisy = add_noise(problem.data_clean, NoiseSpec(delta, 10 + k))
            report = tikhonov_uniform(
                problem.forward, noisy, ParameterRule(1.0, 1.0), delta=delta,
                truth=problem.truth,
            )
            errors.append(report.error)
        assert errors[1] < errors[0]

    def test_nonconvergence_is_reported(self):
        problem = make_mpi_analogue(8, 8)
        report = tikhonov_uniform(
            problem.forward, problem.data_clean, 1e-10, config=TikhonovConfig(max_iter=2)
        )
        assert report.stop_reason == "max_iter"
        assert np.all(np.isfinite(report.reconstruction.values))

    def test_breakdown_is_reported(self):
        forward, data = negated_adjoint_problem(broken=range(4))
        report = tikhonov_uniform(forward, data, 1e-2)
        assert report.stop_reason == "breakdown"
        assert report.iterations == 0

    def test_zero_data(self):
        problem = make_identity_problem(3, 4)
        zero = problem.forward.source_template(np.zeros((3, 4)))
        report = tikhonov_uniform(problem.forward, zero, 1e-2)
        np.testing.assert_array_equal(report.reconstruction.values, np.zeros((3, 4)))
        assert report.stop_reason == "tolerance"


def unevaluable_family(n: int) -> OperatorFamily:
    """An n x n family that fails the test if the solver evaluates it."""

    def fail(i, x):
        raise AssertionError("the family was evaluated")

    return OperatorFamily(n, n, fail, fail)


class TestTruthIsCheckedFirst:
    """A truth that does not fit the unknown raises before any solver work:
    DimensionError, UnsupportedGeometryError for a Banach-space truth, or
    InvalidInputError for a truth of zero norm."""

    @pytest.mark.parametrize("solver", [tikhonov_temporal, tikhonov_uniform])
    @pytest.mark.parametrize(
        "n_t, n_dim, weight, p, fragment",
        [
            (4, 2, 1.0, 2.0, r"truth must lie in the source space: .* got 2 on TimeGrid\(horizon=1.0, n_t=4"),
            (5, 3, 1.0, 2.0, r"truth must lie in the source space: .* got 3 on TimeGrid\(horizon=1.0, n_t=5"),
            (4, 3, 0.5, 2.0, r"truth must lie in the source space: .* with weight 0.5$"),
            (4, 3, 1.0, 1.5, "Hilbert geometry"),
        ],
        ids=["components", "grid", "weight", "exponent"],
    )
    def test_tikhonov(self, solver, n_t, n_dim, weight, p, fragment):
        forward = DynamicForward(POINTWISE, unevaluable_family(3), TimeGrid(1.0, 4))
        data = forward.data_template(np.ones((4, 3)))
        truth = BochnerFunction(TimeGrid(1.0, n_t), np.ones((n_t, n_dim)), p, 2.0, weight)
        error = DimensionError if p == 2.0 else UnsupportedGeometryError
        with pytest.raises(error, match=fragment):
            solver(forward, data, 1e-2, truth=truth)

    @pytest.mark.parametrize("loop", [landweber_kaczmarz, kaczmarz_multi_direction])
    @pytest.mark.parametrize("shape", [(2,), (1,), (3, 1)])
    def test_kaczmarz(self, loop, shape):
        # a length-1 truth used to broadcast against the 3 unknowns
        def fail(v):
            raise AssertionError("the sub-problem was evaluated")

        sub = LinearSubproblem(fail, fail, np.zeros(2), 0.0)
        with pytest.raises(DimensionError, match=re.escape(f"truth must have shape (3,), got {shape}")):
            loop([sub], KaczmarzConfig(), np.zeros(3), truth=np.ones(shape))

    @pytest.mark.parametrize("loop", [landweber_kaczmarz, kaczmarz_multi_direction])
    def test_zero_truth_kaczmarz(self, loop):
        forward, data = forward_and_data("mpi", 96, 32)
        subs = time_subproblems(forward, data, 1e-3, sections=8)
        tallies = [tally_in_place(sub) for sub in subs]
        with pytest.raises(InvalidInputError, match="truth has zero norm"):
            loop(subs, KaczmarzConfig(), np.zeros(32), truth=np.zeros(32))
        assert tallies == [{}] * 8

    @pytest.mark.parametrize("solver, name", [(tikhonov_uniform, "mpi"), (tikhonov_temporal, "dct")])
    def test_zero_truth_tikhonov(self, solver, name):
        forward, data = forward_and_data(name, 12, 8)
        counts = tally_in_place(forward.static, ("apply_rows", "adjoint_rows"))
        truth = forward.source_template(np.zeros((12, 8)))
        with pytest.raises(InvalidInputError, match="truth has zero norm"):
            solver(forward, data, 1e-2, truth=truth)
        assert counts == {}


class KaczmarzContract:
    """What both Kaczmarz loops share: start and tau checks, the discrepancy
    stop at a sweep boundary, the divergence guard and the report.  Each
    subclass runs these tests through its own `loop`."""

    loop = None
    error_rel = 1e-12  # how close the loop's one step lands on the data

    def test_zero_data_stops_immediately(self):
        subs = [matrix_subproblem(np.eye(2), np.zeros(2), 0.0) for _ in range(3)]
        report = self.loop(subs, KaczmarzConfig(), np.zeros(2))
        np.testing.assert_array_equal(report.reconstruction, np.zeros(2))
        assert report.stop_reason == "discrepancy"
        assert report.iterations == 1

    def test_stop_needs_every_residual_of_the_sweep(self):
        # the last sub-problem always meets its bound, the first only later
        subs = [
            matrix_subproblem(np.eye(2), np.array([1.0, 0.0]), 0.05),
            matrix_subproblem(np.zeros((2, 2)), np.zeros(2), 0.0),
        ]
        report = self.loop(subs, KaczmarzConfig(tau=1.0), np.zeros(2))
        assert report.stop_reason == "discrepancy"
        assert report.iterations >= 2 and len(report.trace) == 2 * report.iterations
        met = [
            all(row[2] <= subs[row[1]].noise_level for row in report.trace[k : k + 2])
            for k in range(0, len(report.trace), 2)
        ]
        assert met[-1] and not any(met[:-1])

    def test_divergence_guard(self):
        # a step that solves the badly scaled first equation throws the
        # second one's residual past 1e6 x the initial worst residual (1);
        # ||F_0||^2 = 1e-14 lies above the rounding-noise level u ||F_1||^2
        subs = [
            matrix_subproblem(np.array([[1e-7, 0.0]]), np.ones(1), 0.0),
            matrix_subproblem(np.array([[1.0, 0.0]]), np.zeros(1), 0.0),
        ]
        with pytest.raises(DivergenceError):
            self.loop(subs, KaczmarzConfig(max_sweeps=5), np.zeros(2))

    def test_max_sweeps_zero_returns_start(self):
        sub = matrix_subproblem(np.eye(2), np.array([1.0, 2.0]), 0.0)
        start = np.array([5.0, 5.0])
        report = self.loop([sub], KaczmarzConfig(max_sweeps=0), start)
        np.testing.assert_array_equal(report.reconstruction, start)
        assert report.stop_reason == "max_iter"
        assert report.iterations == 0 and report.trace == []

    def test_error_uses_weighted_norm(self):
        y = np.array([2.0, 0.0])
        sub = LinearSubproblem(
            apply=lambda x: x, adjoint=lambda r: r, data=y, noise_level=0.0,
            data_weight=0.5, unknown_weight=0.25,
        )
        truth = np.array([1.0, 1.0])
        report = self.loop([sub], KaczmarzConfig(omega=1.0, max_sweeps=1), np.zeros(2), truth=truth)
        expected = np.linalg.norm(y - truth) / np.linalg.norm(truth)
        assert report.error == pytest.approx(expected, rel=self.error_rel)

    def test_input_validation(self):
        sub = matrix_subproblem(np.eye(2), np.ones(2), 0.0)
        with pytest.raises(InvalidParameterError):
            self.loop([], KaczmarzConfig(), np.zeros(2))
        with pytest.raises(InvalidParameterError):
            self.loop([sub], KaczmarzConfig())
        with pytest.raises(InvalidInputError, match=re.escape("start must be finite, got nan at (1,)")):
            self.loop([sub], KaczmarzConfig(), np.array([1.0, math.nan]))
        with pytest.raises(DimensionError):
            self.loop([sub], KaczmarzConfig(tau=[1.0, 2.0, 3.0]), np.zeros(2))
        with pytest.raises(DimensionError, match=re.escape("start must have shape (n,), got (2, 1)")):
            self.loop([sub], KaczmarzConfig(), np.zeros((2, 1)))


class TestLandweberKaczmarz(KaczmarzContract):
    loop = staticmethod(landweber_kaczmarz)

    def test_single_identity_one_step(self):
        y = np.array([1.0, -2.0, 0.5])
        sub = matrix_subproblem(np.eye(3), y, 0.0)
        report = landweber_kaczmarz(
            [sub], KaczmarzConfig(omega=1.0, max_sweeps=10), np.zeros(3)
        )
        np.testing.assert_array_equal(report.reconstruction, y)
        residuals = [row[2] for row in report.trace]
        assert residuals[0] == pytest.approx(np.linalg.norm(y))
        assert residuals[1] == 0.0
        assert report.stop_reason == "discrepancy"
        assert report.iterations == 2

    def test_consistent_systems_reach_pseudoinverse(self):
        rng = np.random.default_rng(7)
        mats = [rng.standard_normal((8, 6)) for _ in range(4)]
        x_star = rng.standard_normal(6)
        ys = [m @ x_star for m in mats]
        subs = [matrix_subproblem(m, y, 1e-8) for m, y in zip(mats, ys)]
        report = landweber_kaczmarz(subs, KaczmarzConfig(tau=1.0, max_sweeps=500), np.zeros(6))
        assert report.stop_reason == "discrepancy"
        oracle = np.linalg.pinv(np.vstack(mats)) @ np.concatenate(ys)
        gap = np.linalg.norm(report.reconstruction - oracle)
        assert gap <= 1e-6 * np.linalg.norm(oracle)
        for row in report.trace[-len(subs) :]:
            assert row[2] <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(consistent_systems())
    def test_consistent_systems_reach_the_minimum_norm_solution(self, case):
        """From zero the iterates stay in span(V), the row space, as does the
        minimum-norm solution x+ = pinv(F) y.  A stop with tau = 1 and delta_i =
        eps sqrt(dw_i) ||y|| leaves the last block's residual below eps ||y||,
        so ||x - x+|| <= kappa eps ||y|| before its step, which does not increase
        the error; rounding adds a little in the null space."""
        kappa, mats, ys, weights = case
        eps, y_norm = 1e-9, float(np.linalg.norm(np.concatenate(ys)))
        subs = [
            LinearSubproblem(
                apply=lambda x, m=m: m @ x,
                adjoint=lambda r, m=m, dw=dw, uw=uw: (dw / uw) * (m.T @ r),
                data=y, noise_level=eps * math.sqrt(dw) * y_norm, data_weight=dw,
                unknown_weight=uw,
            )
            for m, y, (dw, uw) in zip(mats, ys, weights)
        ]
        n_in = mats[0].shape[1]
        report = landweber_kaczmarz(subs, KaczmarzConfig(tau=1.0, max_sweeps=2000), np.zeros(n_in))
        assert report.stop_reason == "discrepancy"
        oracle = np.linalg.pinv(np.vstack(mats)) @ np.concatenate(ys)
        gap = float(np.linalg.norm(report.reconstruction - oracle))
        assert gap <= 2.0 * kappa * eps * y_norm + 1e-12 * float(np.linalg.norm(oracle))

    @settings(max_examples=100, deadline=None)
    @given(block_subproblems(delta=st.floats(1e-3, 10.0)), st.data())
    def test_discrepancy_stop_is_the_first_sweep_that_meets_every_bound(self, case, data):
        """The stop of the sweep loop both methods share, on time_subproblems blocks with
        drawn tau_i >= 1, noise level, start and max_sweeps: a "discrepancy" stop ends at
        the first sweep whose N residuals all meet tau_i delta_i, a "max_iter" stop after
        max_sweeps sweeps with none, and the first residual is block 0's, computed from
        apply_forward on the embedded start."""
        forward, subs, blocks, _, _ = case
        n = len(subs)
        taus = data.draw(st.lists(st.floats(1.0, 4.0), min_size=n, max_size=n))
        max_sweeps = data.draw(st.integers(1, 8))  # 0 sweeps: test_max_sweeps_zero_returns_start
        start = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(
            forward.static.n_in
        )
        report = landweber_kaczmarz(subs, KaczmarzConfig(tau=taus, max_sweeps=max_sweeps), start)
        assert [row[1] for row in report.trace] == [k % n for k in range(n * report.iterations)]
        residuals = [row[2] for row in report.trace]
        met = [
            all(r <= tau * sub.noise_level for r, tau, sub in zip(residuals[k : k + n], taus, subs))
            for k in range(0, len(residuals), n)
        ]
        if report.stop_reason == "discrepancy":
            assert met.index(True) == len(met) - 1
        else:
            assert report.stop_reason == "max_iter"
            assert len(met) == max_sweeps and not any(met)
        if residuals:
            first, end = blocks[0]
            embedded = forward.source_template(np.tile(start, (forward.time_grid.n_t, 1)))
            r = apply_forward(forward, embedded).values[first:end].ravel() - subs[0].data
            expected = math.sqrt(subs[0].data_weight * math.fsum(r * r))
            assert residuals[0] == pytest.approx(expected, rel=1e-12)

    def test_own_step_residual_monotone(self):
        for seed in range(5):
            rng = np.random.default_rng(20 + seed)
            m = rng.standard_normal((8, 6))
            y = m @ rng.standard_normal(6) + 0.3 * rng.standard_normal(8)
            sub = matrix_subproblem(m, y, 0.0)
            report = landweber_kaczmarz([sub], KaczmarzConfig(max_sweeps=50), np.zeros(6))
            assert report.stop_reason == "max_iter"
            residuals = [row[2] for row in report.trace]
            for a, b in zip(residuals, residuals[1:]):
                assert b <= a * (1 + 1e-12)

    def test_step_past_two_over_norm_squared_diverges(self):
        sub = matrix_subproblem(np.eye(2), np.array([1.0, 1.0]), 0.0)
        with pytest.raises(DivergenceError):
            landweber_kaczmarz([sub], KaczmarzConfig(omega=3.0, max_sweeps=100), np.zeros(2))

    @pytest.mark.parametrize("omega", [1.0, "auto"])
    def test_non_finite_residual_raises(self, omega):
        sub = nan_subproblem()
        with pytest.raises(DivergenceError):
            landweber_kaczmarz([sub], KaczmarzConfig(omega=omega, max_sweeps=5), np.zeros(2))

    def test_subproblem_validation(self):
        with pytest.raises(DimensionError):
            matrix_subproblem(np.eye(2), np.ones((2, 2)), 0.0)
        with pytest.raises(InvalidInputError):
            matrix_subproblem(np.eye(2), np.array([1.0, math.inf]), 0.0)
        with pytest.raises(InvalidParameterError):
            matrix_subproblem(np.eye(2), np.ones(2), -1.0)
        for weights, name in [
            ((0.0, 1.0), "data"), ((1.0, -1.0), "unknown"), ((math.nan, 1.0), "data")
        ]:
            with pytest.raises(InvalidParameterError, match=rf"{name}_weight must lie in \(0, inf\)"):
                LinearSubproblem(lambda x: x, lambda r: r, np.ones(2), 0.0, *weights)

    @pytest.mark.parametrize(
        "level, weights, fragment",
        [(math.inf, (1.0, 1.0), "noise level"), (math.nan, (1.0, 1.0), "noise level"),
         (0.0, (math.inf, 1.0), "data_weight"), (0.0, (1.0, math.inf), "unknown_weight")],
    )
    def test_subproblem_rejects_non_finite(self, level, weights, fragment):
        with pytest.raises(InvalidParameterError, match=fragment):
            LinearSubproblem(lambda x: x, lambda r: r, np.ones(2), level, *weights)


class TestMalformedSubproblems:
    """A sub-problem with no data rows raises DimensionError when it is built.  One
    whose apply or adjoint returns the wrong length raises it in the loop, naming its
    index (1, after a good one at 0).  The counts are the bad one's calls: the checks
    read values the loop forms anyway."""

    @staticmethod
    def counts_at_the_error(bad, config=KaczmarzConfig(), loop=landweber_kaczmarz) -> dict:
        counts: dict = {}
        subs = [matrix_subproblem(np.eye(3), np.ones(3), 0.0), counted(bad, counts)]
        with pytest.raises(DimensionError, match="sub-problem 1"):
            loop(subs, config, np.zeros(3))
        return counts

    def test_empty_data_before_any_call(self):
        with pytest.raises(DimensionError, match=re.escape("data must have shape (n,), got (0,)")):
            LinearSubproblem(lambda x: np.zeros(0), lambda r: np.zeros(3), np.zeros(0), 0.0)

    def test_short_assembled_adjoint_before_the_first_sweep(self):
        # two data rows, assembled from two adjoint calls; the start's apply checks first
        bad = LinearSubproblem(lambda x: x[:2], lambda r: r, np.ones(2), 0.0)
        assert self.counts_at_the_error(bad) == {"apply": 1, "adjoint": 2}

    def test_short_matrix_free_adjoint_before_the_first_sweep(self):
        m = np.random.default_rng(33).standard_normal((70, 3))
        bad = LinearSubproblem(lambda x: m @ x, lambda r: (m.T @ r)[:2], np.ones(70), 0.0)
        assert self.counts_at_the_error(bad) == {"apply": 2, "adjoint": 1}

    def test_short_apply_at_the_start(self):
        bad = LinearSubproblem(lambda x: x[:1], lambda r: np.full(3, r.sum()), np.ones(5), 0.0)
        assert self.counts_at_the_error(bad) == {"apply": 1}

    @pytest.mark.parametrize("loop", [landweber_kaczmarz, kaczmarz_multi_direction])
    def test_short_adjoint_with_a_fixed_step(self, loop):
        bad = LinearSubproblem(lambda x: x[:2], lambda r: r[:1], np.ones(2), 0.0)
        counts = self.counts_at_the_error(bad, KaczmarzConfig(omega=0.1), loop)
        assert counts == {"apply": 2, "adjoint": 1}  # the start's apply, then the first step


class TestStepEstimate:
    """omega = "auto": exact for assembled sub-problems, power iteration for the rest.

    A sub-problem with n_data < 2 * _POWER_STEPS = 60 data rows is assembled
    from n_data adjoint calls and its step comes from one eigvalsh of R R^T;
    else the loop takes two calls per power-iteration step.  A node gives one
    data row on mpi and n_x on dct, nonuniform and ota, so below nonuniform
    128 x 64 in 8 sections (1,024 rows) is matrix-free and the other shapes
    are assembled; TestAdjointRows takes both paths on pointwise and causal
    blocks.
    """

    @pytest.mark.parametrize(
        "name, n_t, n_x, sections",
        [(name, 12, 8, s) for name in ("mpi", "dct", "nonuniform", "ota") for s in (None, 3)]
        + [("mpi", 96, 32, 8), ("mpi", 12, 80, 3), ("dct", 16, 8, 8), ("ota", 16, 8, 8),
           ("nonuniform", 16, 8, 8)],
    )
    def test_assembled_matches_matrix_free(self, name, n_t, n_x, sections):
        """Exact steps within 1e-13 of LAPACK's; the power iteration's Rayleigh
        quotients approach ||F_i||^2 from below, within 2e-4 after _POWER_STEPS steps."""
        forward, data = forward_and_data(name, n_t, n_x)
        subs = time_subproblems(forward, data, 1e-2, sections=sections)
        refs = reference_steps(subs, n_x)
        got = _estimate_omegas(subs, KaczmarzConfig(), np.zeros(n_x))
        assert all(assembled for _, assembled in refs)
        assert_steps(got, refs)
        power = np.array(matrix_free_omegas(subs, n_x))
        assert np.all(np.array(got) <= power * (1 + 1e-13))
        np.testing.assert_allclose(got, power, rtol=2e-4)

    def test_matrix_free_with_many_data_rows(self):
        forward, data = forward_and_data("nonuniform", 128, 64)
        subs = time_subproblems(forward, data, 1e-2, sections=8)
        assert all(len(sub.data) >= 2 * _POWER_STEPS for sub in subs)
        omegas = _estimate_omegas(subs, KaczmarzConfig(), np.zeros(64))
        assert np.array_equal(omegas, matrix_free_omegas(subs, 64))

    @pytest.mark.parametrize("shape", [(5, 40), (40, 5), (70, 6)], ids=["wide", "tall", "long"])
    def test_weighted_subproblem(self, shape):
        # singular values 1, 1/2, 1/4, ...: 30 steps converge to rounding level
        rng = np.random.default_rng(30)
        k = min(shape)
        u = np.linalg.qr(rng.standard_normal((shape[0], k)))[0]
        v = np.linalg.qr(rng.standard_normal((shape[1], k)))[0]
        m = (u * 0.5 ** np.arange(k)) @ v.T
        subs = [weighted_subproblem(m, 0.5, 0.125), weighted_subproblem(2.0 * m, 0.125, 0.5)]
        got = _estimate_omegas(subs, KaczmarzConfig(), np.zeros(shape[1]))
        np.testing.assert_allclose(got, matrix_free_omegas(subs, shape[1]), rtol=1e-12)
        # F_0* F_0 = 4 m^T m and F_1* F_1 = m^T m
        np.testing.assert_allclose(got, [0.9 / 4.0, 0.9], rtol=1e-12)

    @pytest.mark.parametrize(
        "shape, steps, expected",
        [
            ((3, 50), 30, {"adjoint": 3}),
            ((50, 3), 30, {"adjoint": 50}),
            ((59, 70), 30, {"adjoint": 59}),
            ((60, 3), 30, {"apply": 30, "adjoint": 30}),
            ((70, 70), 30, {"apply": 30, "adjoint": 30}),
        ],
    )
    def test_calls_follow_the_data_rows(self, shape, steps, expected):
        assert _POWER_STEPS == steps  # assembled below 2 * steps data rows
        m = np.random.default_rng(31).standard_normal(shape)
        counts: dict = {}
        sub = counted(weighted_subproblem(m, 1.0, 1.0), counts)
        _estimate_omegas([sub], KaczmarzConfig(), np.zeros(shape[1]))
        assert counts == expected

    def test_mpi_sections_call_counts(self):
        """The Kaczmarz call of the causal-solve benchmark: 12 data rows per section."""
        forward, data = forward_and_data("mpi", 96, 32)
        tallies = [{} for _ in range(8)]
        subs = [
            counted(sub, c)
            for sub, c in zip(time_subproblems(forward, data, 1e-3, sections=8), tallies)
        ]
        _estimate_omegas(subs, KaczmarzConfig(), np.zeros(32))
        assert tallies == [{"adjoint": 12}] * 8

    def test_zero_operator_gives_unit_step(self):
        for shape in [(3, 50), (50, 3), (70, 6)]:
            sub = weighted_subproblem(np.zeros(shape), 1.0, 1.0)
            assert _estimate_omegas([sub], KaczmarzConfig(), np.zeros(shape[1])) == [1.0]

    def test_rounding_noise_block_gives_unit_step(self):
        """mpi's sensing family at n_x = 1 on 3 pointwise nodes: F_1 = dx sin(pi) is
        -8.2e-17, rounding noise of a zero block.  It gets the unit step, not
        0.9 / F_1^2 = 4.5e31, whose first sweep diverged to a residual of 2.4e14;
        a block just above u max_j ||F_j||^2 keeps its exact step."""
        family = make_mpi_analogue(3, 1).forward.static
        forward = DynamicForward(POINTWISE, family, TimeGrid(1.0, 3), None)
        data = forward.data_template(np.random.default_rng(0).standard_normal((3, 1)))
        subs = time_subproblems(forward, data, 1e-2)
        omegas = _estimate_omegas(subs, KaczmarzConfig(), np.zeros(1))
        assert omegas[1] == 1.0 and omegas[0] == pytest.approx(3.6, rel=1e-13)
        report = landweber_kaczmarz(subs, KaczmarzConfig(max_sweeps=50), np.zeros(1))
        assert report.stop_reason == "max_iter" and np.isfinite(report.reconstruction).all()
        mats = [np.ones((1, 1)), np.full((1, 1), 2.0**-26.5 * 1.01)]
        subs = [weighted_subproblem(m, 1.0, 1.0) for m in mats]
        omegas = _estimate_omegas(subs, KaczmarzConfig(), np.zeros(1))
        assert omegas[1] == pytest.approx(0.9 / (2.0**-53 * 1.01**2), rel=1e-13)
        subs[1] = weighted_subproblem(np.full((1, 1), 2.0**-26.5 * 0.99), 1.0, 1.0)
        assert _estimate_omegas(subs, KaczmarzConfig(), np.zeros(1))[1] == 1.0

    def test_lock_step_equals_one_sub_problem_at_a_time(self):
        """One call over sections of 13 and 12 rows (mpi 100 x 32 in 8, assembled,
        one eigvalsh per row count), a matrix-free sub-problem of 70 rows, and a
        zero map on either path; the matrix-free zero map stops at step 1 while
        the other runs all _POWER_STEPS steps."""
        forward, data = forward_and_data("mpi", 100, 32)
        subs = time_subproblems(forward, data, 1e-3, sections=8)
        assert [len(sub.data) for sub in subs] == [13] * 4 + [12] * 4
        m = np.random.default_rng(32).standard_normal((70, 32))
        subs += [
            weighted_subproblem(m, 0.5, 2.0),
            weighted_subproblem(np.zeros((5, 32)), 1.0, 1.0),
            weighted_subproblem(np.zeros((70, 32)), 1.0, 1.0),
        ]
        refs = reference_steps(subs, 32)
        tallies = [tally_in_place(sub) for sub in subs]
        got = _estimate_omegas(subs, KaczmarzConfig(), np.zeros(32))
        assert_steps(got, refs)
        assert got[-2:] == [1.0, 1.0]
        assert tallies[:8] == [{"adjoint_rows": 1}] * 8
        assert tallies[8:] == [
            {"apply": _POWER_STEPS, "adjoint": _POWER_STEPS},
            {"adjoint_rows": 1, "adjoint": 5},  # the method's loop over adjoint
            {"apply": 1, "adjoint": 1},
        ]
        nan_sub = weighted_subproblem(np.full((3, 32), math.nan), 1.0, 1.0)
        for index in (0, 4, 11):
            mixed = subs[:index] + [nan_sub] + subs[index:]
            with pytest.raises(DivergenceError, match=f"sub-problem {index} gave nan"):
                _estimate_omegas(mixed, KaczmarzConfig(), np.zeros(32))

    @pytest.mark.parametrize(
        "entry, shown",
        [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "inf"), (1e200, "inf")],
        ids=["nan", "inf", "minus-inf", "gram-overflow"],
    )
    def test_bad_assembled_rows_name_their_sub_problem(self, entry, shown):
        """Non-finite rows, and finite rows whose Gram R R^T overflows, raise
        DivergenceError naming the sub-problem: never LinAlgError, and no NumPy
        warning (tier-1 turns warnings into errors)."""
        rows = np.ones((4, 3))
        rows[2, 1] = entry
        subs = [rows_subproblem(np.eye(3)), rows_subproblem(rows), rows_subproblem(np.eye(2, 3))]
        with pytest.raises(DivergenceError, match=f"sub-problem 1 gave {shown}$"):
            landweber_kaczmarz(subs, KaczmarzConfig(), np.zeros(3))

    @pytest.mark.parametrize(
        "rows, expected",
        [(np.zeros((4, 3)), 1.0), (np.full((4, 3), 1e150), 0.9 / 12e300),
         (np.full((4, 3), 1e-100), 0.9 / 12e-200)],
        ids=["zero", "huge", "tiny"],
    )
    def test_assembled_steps_at_the_ends_of_the_range(self, rows, expected):
        """A zero block steps by 1.0; a Gram near overflow or underflow is exact."""
        omegas = _estimate_omegas([rows_subproblem(rows)], KaczmarzConfig(), np.zeros(3))
        assert omegas == [pytest.approx(expected, rel=1e-13)]

    def test_subnormal_norm_names_its_sub_problem(self):
        """Rows np.full((4, 3), 1e-160): ||F_1||^2 is about 1.2e-319, subnormal, and
        0.9 / ||F_1||^2 overflows; as the largest block the step estimate names
        sub-problem 1 instead of a residual blaming inf.  Beside a unit block it
        is rounding noise and steps by 1.  (A power iteration never gets there: its
        iterate's squared norm underflows to 0 first, which gives the unit step.)"""
        tiny = np.full((4, 3), 1e-160)
        subs = [rows_subproblem(np.eye(3)), rows_subproblem(tiny)]
        assert _estimate_omegas(subs, KaczmarzConfig(), np.zeros(3)) == [0.9, 1.0]
        subs = [rows_subproblem(np.zeros((1, 3))), rows_subproblem(tiny), rows_subproblem(tiny[:1])]
        with pytest.raises(DivergenceError, match="step estimate of sub-problem 1 gave inf$"):
            _estimate_omegas(subs, KaczmarzConfig(), np.zeros(3))
        with pytest.raises(DivergenceError, match="step estimate of sub-problem 1 gave inf$"):
            landweber_kaczmarz(subs, KaczmarzConfig(), np.zeros(3))
        free = weighted_subproblem(np.full((70, 3), 1e-160), 1.0, 1.0)
        assert _estimate_omegas([free], KaczmarzConfig(), np.zeros(3)) == [1.0]


class TestMultiDirection(KaczmarzContract):
    loop = staticmethod(kaczmarz_multi_direction)
    error_rel = 1e-10  # the Gram step's damping leaves it 1e-12 short of y

    def test_memory_one_is_optimal_scalar_step(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((5, 4))
        y = rng.standard_normal(5)
        sub = matrix_subproblem(m, y, 0.0)
        report = kaczmarz_multi_direction(
            [sub], KaczmarzConfig(memory=1, max_sweeps=1), np.zeros(4)
        )
        r = -y
        d = m.T @ r
        t = float((m @ d) @ r) / float((m @ d) @ (m @ d))
        expected = -t / (1 + 1e-12) * d
        np.testing.assert_allclose(report.reconstruction, expected, rtol=1e-12)

    def test_identity_converges_in_one_step(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal(6)
        start = rng.standard_normal(6)
        sub = matrix_subproblem(np.eye(6), y, 0.0)
        report = kaczmarz_multi_direction(
            [sub], KaczmarzConfig(memory=2, max_sweeps=2), start
        )
        assert report.trace[1][2] <= 1e-9 * report.trace[0][2]
        np.testing.assert_allclose(report.reconstruction, y, rtol=0, atol=1e-9)

    def test_more_memory_never_slower_on_consistent_pair(self):
        rng = np.random.default_rng(12)
        mats = [rng.standard_normal((10, 6)), rng.standard_normal((9, 6))]
        x_star = rng.standard_normal(6)
        ys = [m @ x_star for m in mats]
        for sweeps in range(1, 11):
            finals = {}
            for memory in (1, 3):
                subs = [matrix_subproblem(m, y, 0.0) for m, y in zip(mats, ys)]
                report = kaczmarz_multi_direction(
                    subs, KaczmarzConfig(memory=memory, max_sweeps=sweeps), np.zeros(6)
                )
                finals[memory] = stacked_residual(mats, ys, report.reconstruction)
            assert finals[3] <= finals[1] * (1 + 1e-9)

    def test_current_residual_is_reused(self):
        """Per step: one residual at x, one per earlier remembered iterate, one
        image per direction; plus one residual per sub-problem for the guard."""
        m = np.random.default_rng(14).standard_normal((6, 4))
        counts: dict = {}
        sub = counted(matrix_subproblem(m, np.ones(6), 0.0), counts)
        kaczmarz_multi_direction([sub], KaczmarzConfig(memory=3, max_sweeps=4), np.zeros(4))
        remembered = [1, 2, 3, 3]
        assert counts == {"apply": 1 + sum(2 * h for h in remembered), "adjoint": sum(remembered)}

    def test_non_finite_residual_raises(self):
        sub = nan_subproblem()
        with pytest.raises(DivergenceError):
            kaczmarz_multi_direction([sub], KaczmarzConfig(max_sweeps=5), np.zeros(2))

    @pytest.mark.parametrize("memory", [1, 3])
    def test_overflowing_adjoint_raises(self, memory):
        # the residual is finite, its direction is not: a NaN Gram trace is no stationary point
        a = np.array([[1.0, -1.0], [1.0, 1.0]])
        sub = LinearSubproblem(lambda x: a @ x, lambda r: 1e308 * (a.T @ r) * 10, [1.0, 0.0], 0.0)
        config = KaczmarzConfig(omega=1.0, memory=memory, max_sweeps=5)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match="Gram trace"
        ):
            kaczmarz_multi_direction([sub], config, np.zeros(2))

    def test_zero_operator_is_stationary(self):
        zero = np.zeros((3, 2))
        sub = matrix_subproblem(zero, np.ones(3), 0.0)
        start = np.array([1.0, -1.0])
        report = kaczmarz_multi_direction([sub], KaczmarzConfig(max_sweeps=3), start)
        np.testing.assert_array_equal(report.reconstruction, start)
        assert report.stop_reason == "max_iter"

    def test_discrepancy_stop_matches_plain_variant(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((6, 4))
        x_star = rng.standard_normal(4)
        y = m @ x_star + 1e-3 * rng.standard_normal(6)
        sub = matrix_subproblem(m, y, 5e-3)
        report = kaczmarz_multi_direction([sub], KaczmarzConfig(memory=3), np.zeros(4))
        assert report.stop_reason == "discrepancy"
        assert report.trace[-1][2] <= 2.0 * 5e-3


class TestAdjointRows:
    """LinearSubproblem.adjoint_rows: the batched form of adjoint.

    The loop over adjoint is exact by construction; an assembled time_subproblems
    block shadows it with its adjoint, one product R @ G with its scaled matrix
    G = (data_weight / unknown_weight) F: G's rows on unit vectors (the step
    estimate's input), the matrix-free adjoint to rounding on other rows."""

    @settings(max_examples=150, deadline=None)
    @given(block_subproblems())
    def test_rows_equal_stacked_adjoints_bytes(self, case):
        """Blocks of at most 45 data rows, all assembled: the matrix has the bytes
        of unit_vector_rows, the unit-vector rows are +-(data_weight / unknown_weight) F
        exactly, and every row is the per-row adjoint and the matrix-free block
        adjoint (padded rows through _adjoint_rows) within 1e-13."""
        forward, subs, blocks, weight, stacks = case
        n_in = forward.static.n_in
        for sub, (first, end), R in zip(subs, blocks, stacks):
            F, n_data = assembled_matrix(sub), len(sub.data)
            assert F.tobytes() == unit_vector_rows(forward, first, end).tobytes()
            got = sub.adjoint_rows(R)
            assert got.shape == (len(R), n_in) and got.dtype == float
            scale = sub.data_weight / sub.unknown_weight
            assert np.array_equal(got[: 2 * n_data], np.vstack([scale * F, -scale * F]))
            # each side errs by at most gamma_n |R| |scale F|, F's entries by as much again
            n = forward.time_grid.n_t + n_in + forward.static.n_out + n_data + 4
            size = 3.0 * gamma(n) * np.abs(R) @ (abs(scale) * absolute_rows(forward, first, end))
            reference = [block_adjoint_reference(forward, first, end, weight, r) for r in R]
            for k, r in enumerate(R):
                for want in (sub.adjoint(r), reference[k]):
                    assert np.all(np.abs(got[k] - want) <= size[k])

    @staticmethod
    def check_step_estimate(n_in: int, subs) -> list[bool]:
        """_estimate_omegas meets reference_steps and takes the path its data
        rows select; returns which sub-problems were assembled."""
        refs = reference_steps(subs, n_in)
        tallies = [tally_in_place(sub) for sub in subs]
        assert_steps(_estimate_omegas(subs, KaczmarzConfig(), np.zeros(n_in)), refs)
        assembled = [sub.data.shape[0] < 2 * _POWER_STEPS for sub in subs]
        for small, counts in zip(assembled, tallies):
            if small:
                assert counts == {"adjoint_rows": 1}
            else:  # two calls per step; a step mapping to zero ends the loop early
                assert counts["apply"] == counts["adjoint"] <= _POWER_STEPS
                assert set(counts) == {"apply", "adjoint"}
        return assembled

    @settings(max_examples=100, deadline=None)
    @given(block_subproblems(st.integers(1, 9) | st.integers(30, 60), max_sections=2))
    def test_step_estimate_equals_per_unit_vector_loop(self, case):
        # up to 60 nodes of 1 to 5 outputs in at most 2 sections: blocks of 1 to
        # 300 data rows, so both sides of 2 * _POWER_STEPS rows
        forward, subs, _, _, _ = case
        self.check_step_estimate(forward.static.n_in, subs)

    @pytest.mark.parametrize(
        "name, n_t, n_x, sections, assembled",
        [
            ("nonuniform", 59, 1, 1, True),
            ("nonuniform", 60, 1, 1, False),
            ("dct", 16, 8, 2, False),
            ("mpi", 59, 8, 1, True),
            ("mpi", 60, 8, 1, False),
            ("ota", 30, 2, 1, False),
            ("ota", 29, 2, 1, True),
        ],
    )
    def test_step_estimate_at_the_switch(self, name, n_t, n_x, sections, assembled):
        """Pointwise and causal blocks of 2 * _POWER_STEPS - 1 and 2 * _POWER_STEPS rows."""
        forward, data = forward_and_data(name, n_t, n_x)
        subs = time_subproblems(forward, data, 1e-2, sections=sections)
        assert self.check_step_estimate(n_x, subs) == [assembled] * sections

    def test_causal_solve_assembly_is_one_call_per_section(self):
        """The Kaczmarz call of the causal-solve benchmark: 12 data rows per section."""
        forward, data = forward_and_data("mpi", 96, 32)
        subs = time_subproblems(forward, data, 1e-3, sections=8)
        tallies = [tally_in_place(sub) for sub in subs]
        _estimate_omegas(subs, KaczmarzConfig(), np.zeros(32))
        assert tallies == [{"adjoint_rows": 1}] * 8

    def test_causal_solve_kaczmarz_steps_on_the_assembled_rows(self):
        """The whole Kaczmarz call of the causal-solve benchmark: one adjoint_rows
        call per section (the step estimate), one apply per section at the start
        and per step, and one adjoint per step, a product with the scaled matrix."""
        forward, data = forward_and_data("mpi", 96, 32)
        subs = time_subproblems(forward, add_noise(data, NoiseSpec(1e-3, 0)), 1e-3, sections=8)
        tallies = [tally_in_place(sub) for sub in subs]
        report = landweber_kaczmarz(subs, KaczmarzConfig(tau=2.0), np.zeros(32))
        assert (report.stop_reason, report.iterations) == ("discrepancy", 3)
        assert tallies == [{"adjoint_rows": 1, "apply": 4, "adjoint": 3}] * 8

    @pytest.mark.parametrize(
        "name, n_t, n_x, sections",
        [(name, 12, 8, s) for name in ("dct", "mpi", "nonuniform", "ota") for s in (None, 3)]
        + [("mpi", 96, 32, 8)],
    )
    def test_assembled_adjoint_is_the_product_with_its_rows_bytes(self, name, n_t, n_x, sections):
        """Every assembled block's adjoint, of one residual or of a stack of them, has
        the bytes of the product with the rows adjoint_rows forms from the identity,
        so the step estimate and the steps use one matrix."""
        forward, data = forward_and_data(name, n_t, n_x)
        subs = time_subproblems(forward, data, 1e-2, sections=sections)
        rng = np.random.default_rng(n_t + n_x)
        assert all(assembled_matrix(sub) is not None for sub in subs)
        for sub in subs:
            n = len(sub.data)
            rows = sub.adjoint_rows(np.eye(n))
            r, R = rng.standard_normal(n), rng.standard_normal((5, n))
            assert sub.adjoint(r).tobytes() == (r @ rows).tobytes()
            assert sub.adjoint(R).tobytes() == (R @ rows).tobytes()

    def test_causal_solve_sections_are_assembled_by_one_forward_call(self, monkeypatch):
        """The Kaczmarz call of the causal-solve benchmark: time_subproblems makes
        one _forward_rows call for all eight 12-row sections and no _adjoint_rows
        call; landweber_kaczmarz then makes neither (every product is with a
        12 x 32 matrix) and stops by discrepancy after 3 sweeps."""
        forward, data = forward_and_data("mpi", 96, 32)
        noisy = add_noise(data, NoiseSpec(1e-3, 0))
        calls: list = []
        for name in ("_forward_rows", "_adjoint_rows"):
            original = getattr(dynreg.solvers, name)
            counted_call = lambda *args, name=name, original=original: (
                calls.append(name) or original(*args)
            )
            monkeypatch.setattr(dynreg.solvers, name, counted_call)
        subs = time_subproblems(forward, noisy, 1e-3, sections=8)
        assert calls == ["_forward_rows"]
        assert all(assembled_matrix(sub).shape == (12, 32) for sub in subs)
        report = landweber_kaczmarz(subs, KaczmarzConfig(tau=2.0), np.zeros(32))
        assert calls == ["_forward_rows"]
        assert (report.stop_reason, report.iterations) == ("discrepancy", 3)

    def test_one_dimensional_callables_stack_and_solve(self):
        rng = np.random.default_rng(40)
        mats = [rng.standard_normal((3, 4)), rng.standard_normal((5, 4))]
        x_star = rng.standard_normal(4)
        subs = [matrix_subproblem(m, m @ x_star, 0.0) for m in mats]
        R = rng.standard_normal((6, 3))
        R[0] = -0.0
        rows = subs[0].adjoint_rows(R)
        assert rows.tobytes() == np.array([mats[0].T @ r for r in R]).tobytes()
        report = landweber_kaczmarz(subs, KaczmarzConfig(max_sweeps=3000, tau=1.0), np.zeros(4))
        np.testing.assert_allclose(report.reconstruction, x_star, rtol=1e-8)
        report = kaczmarz_multi_direction(subs, KaczmarzConfig(memory=2), np.zeros(4))
        assert report.stop_reason == "discrepancy"

    def test_subproblem_of_picklable_callables_pickles(self):
        sub = pickle.loads(pickle.dumps(LinearSubproblem(np.negative, np.negative, [1.0], 0.0)))
        rows = sub.adjoint_rows(np.array([[2.0], [-0.0]]))
        assert rows.tobytes() == np.array([[-2.0], [0.0]]).tobytes()

    @pytest.mark.parametrize("loop", [landweber_kaczmarz, kaczmarz_multi_direction])
    def test_batched_and_per_vector_rows_give_the_same_bytes(self, loop):
        # a dataclasses.replace copy drops the batched adjoint_rows: the loop over adjoint
        forward, data = forward_and_data("mpi", 24, 8)
        noisy = add_noise(data, NoiseSpec(1e-3, 0))
        subs = time_subproblems(forward, noisy, 1e-3, sections=4)
        config = KaczmarzConfig(memory=3, max_sweeps=20)
        batched = loop(subs, config, np.zeros(8))
        looped = loop([dataclasses.replace(sub) for sub in subs], config, np.zeros(8))
        assert batched.reconstruction.tobytes() == looped.reconstruction.tobytes()
        assert batched.trace == looped.trace


class TestTimeSubproblems:
    @pytest.mark.parametrize("make", [make_identity_problem, make_dct_analogue,
                                      make_nonuniform_example, make_mpi_analogue])
    def test_static_embedding_consistency(self, make):
        problem = make(6, 5)
        forward = problem.forward
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5)
        tiled = apply_forward(forward, forward.source_template(np.tile(x, (6, 1))))
        subs = time_subproblems(forward, problem.data_clean, 1e-2)
        for i, sub in enumerate(subs):
            np.testing.assert_allclose(sub.apply(x), tiled.values[i], rtol=1e-12, atol=1e-15)

    def test_observe_then_accumulate_kind(self):
        forward, _ = forward_and_data("ota", 5, 4)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4)
        data = apply_forward(forward, forward.source_template(np.tile(x, (5, 1))))
        subs = time_subproblems(forward, data, 1e-3)
        for i, sub in enumerate(subs):
            np.testing.assert_allclose(sub.apply(x), data.values[i], rtol=1e-12)

    @pytest.mark.parametrize(
        "name, n_t, n_x, sections",
        [("mpi", 6, 5, None), ("mpi", 6, 5, 3), ("mpi", 96, 32, 8),
         ("dct", 6, 5, 3), ("ota", 6, 5, 3)],
        ids=["None", "3", "96x32-8", "dct-3", "ota-3"],
    )
    def test_adjoint_pairing(self, name, n_t, n_x, sections):
        forward, data = forward_and_data(name, n_t, n_x)
        subs = time_subproblems(forward, data, 1e-2, sections=sections)
        rng = np.random.default_rng(2)
        for sub in subs:
            x = rng.standard_normal(n_x)
            r = rng.standard_normal(sub.data.shape[0])
            lhs = sub.data_weight * float(np.asarray(sub.apply(x)) @ r)
            rhs = sub.unknown_weight * float(x @ np.asarray(sub.adjoint(r)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize(
        "name, sections",
        [pytest.param("mpi", None, id="None"), pytest.param("mpi", 4, id="4")]
        + [(name, s) for name in ("dct", "nonuniform", "identity", "ota") for s in (None, 4)],
    )
    def test_accumulate_apply_is_forward_block(self, name, sections):
        """Blocks of at most 15 data rows, all assembled: column j of a block's
        matrix is its rows of the forward map on the tiled e_j, bit for bit, and
        apply(x) is its rows on the tiled x within 3 gamma_n of |F| |x| entry by
        entry, the bound of test_weighted_adjoint_identity_on_both_sides_of_the_switch."""
        forward, data = forward_and_data(name, 12, 5)
        x = np.random.default_rng(5).standard_normal(5)
        tiled = apply_forward(forward, forward.source_template(np.tile(x, (12, 1)))).values
        subs = time_subproblems(forward, data, 1e-2, sections=sections)
        blocks = np.array_split(np.arange(12), 12 if sections is None else sections)
        fam = forward.static
        for sub, nodes in zip(subs, blocks):
            first, end = nodes[0], nodes[-1] + 1
            matrix = unit_vector_rows(forward, first, end)
            assert assembled_matrix(sub).tobytes() == matrix.tobytes()
            g = gamma(12 + fam.n_in + fam.n_out + len(sub.data) + 4)
            bound = 3.0 * g * (absolute_rows(forward, first, end) @ np.abs(x))
            assert np.all(np.abs(sub.apply(x) - tiled[nodes].reshape(-1)) <= bound)

    @pytest.mark.parametrize(
        "name, n_t, n_x", [("mpi", 120, 4), ("dct", 24, 5), ("nonuniform", 24, 5), ("ota", 24, 5)]
    )
    def test_large_blocks_keep_the_matrix_free_rows_bytes(self, name, n_t, n_x):
        """Two sections of exactly 2 * _POWER_STEPS = 60 data rows stay matrix-free:
        apply is the tiled forward's rows and adjoint the padded rows through
        _adjoint_rows, bit for bit (signbits included), as before assembly."""
        forward, data = forward_and_data(name, n_t, n_x)
        subs = time_subproblems(forward, data, 1e-2, sections=2)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(n_x)
        tiled = apply_forward(forward, forward.source_template(np.tile(x, (n_t, 1)))).values
        half = n_t // 2
        for sub, (first, end) in zip(subs, [(0, half), (half, n_t)]):
            assert len(sub.data) == 2 * _POWER_STEPS and assembled_matrix(sub) is None
            assert sub.apply(x).tobytes() == tiled[first:end].tobytes()
            r = rng.standard_normal(len(sub.data))
            r[::7] = -0.0
            reference = block_adjoint_reference(forward, first, end, forward.time_grid.dt, r)
            assert sub.adjoint(r).tobytes() == reference.tobytes()

    def test_wide_sources_assemble_only_within_the_stack_budget(self, monkeypatch):
        """mpi 20 x 256: every per-node block has one data row, but the unit vectors'
        stack (256, end, 256) holds at most 2**20 floats only up to end = 16.  So one
        _forward_rows call assembles the first 16 blocks; the last 4 stay matrix-free."""
        forward, data = forward_and_data("mpi", 20, 256)
        shapes: list = []
        original = dynreg.solvers._forward_rows
        monkeypatch.setattr(
            dynreg.solvers, "_forward_rows", lambda f, v, *a: shapes.append(v.shape) or original(f, v, *a)
        )
        subs = time_subproblems(forward, data, 1e-2)
        assert shapes == [(256, 16, 256)]
        assert [assembled_matrix(sub) is not None for sub in subs] == [True] * 16 + [False] * 4

    def test_pointwise_assembly_starts_at_the_first_small_block(self, monkeypatch):
        """dct 23 x 5 in 2 sections of 60 and 55 data rows: only the second is assembled,
        and a pointwise map's rows need only its own nodes 12-22, so the unit vectors'
        stack is (5, 11, 5), read from node 12, and the matrix is the oracle's."""
        forward, data = forward_and_data("dct", 23, 5)
        calls: list = []
        original = dynreg.solvers._forward_rows
        monkeypatch.setattr(
            dynreg.solvers, "_forward_rows",
            lambda f, v, *a: calls.append((v.shape, *a)) or original(f, v, *a),
        )
        subs = time_subproblems(forward, data, 1e-2, sections=2)
        assert calls == [((5, 11, 5), 12)]
        assert assembled_matrix(subs[0]) is None
        assert assembled_matrix(subs[1]).tobytes() == unit_vector_rows(forward, 12, 23).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(block_subproblems(st.integers(1, 9) | st.integers(30, 60), max_sections=2))
    def test_weighted_adjoint_identity_on_both_sides_of_the_switch(self, case):
        """Blocks of 1 to 300 data rows of the three kinds, assembled below
        2 * _POWER_STEPS rows and matrix-free from there: data_weight <F x, r> =
        unknown_weight <x, F* r> within 4 gamma_n data_weight |r| |F| |x|, and an
        assembled block's apply and adjoint are the matrix-free closures' (_block
        without a matrix) within 3 gamma_n of |F| |x| and |F*| |r|, entry by entry:
        |F| the block under |kernel| and |A_j|, n the terms of the longest chain of
        sums (each side of each comparison errs by at most gamma_n times that)."""
        forward, subs, blocks, _, _ = case
        rng = np.random.default_rng(len(subs))
        for sub, (first, end) in zip(subs, blocks):
            F = assembled_matrix(sub)
            assert (F is None) == (len(sub.data) >= 2 * _POWER_STEPS)
            x, r = rng.standard_normal(forward.static.n_in), rng.standard_normal(len(sub.data))
            image, back = sub.apply(x), sub.adjoint(r)
            lhs = sub.data_weight * float(image @ r)
            rhs = sub.unknown_weight * float(x @ back)
            terms = absolute_rows(forward, first, end)
            fam = forward.static
            g = gamma(forward.time_grid.n_t + fam.n_in + fam.n_out + len(sub.data) + 4)
            assert abs(lhs - rhs) <= 4.0 * g * sub.data_weight * (np.abs(r) @ terms @ np.abs(x))
            if F is not None:
                free = _block(forward, first, end, sub.data, 0.0, None)
                scale = sub.data_weight / sub.unknown_weight
                assert np.all(np.abs(image - free.apply(x)) <= 3.0 * g * (terms @ np.abs(x)))
                bound = 3.0 * g * abs(scale) * (np.abs(r) @ terms)
                assert np.all(np.abs(back - free.adjoint(r)) <= bound)

    @pytest.mark.parametrize("name", ["mpi", "ota"])
    @pytest.mark.parametrize("n_t", [1, 2, 3, 40])
    def test_one_wide_node_blocks_form_the_forward_rows_bytes(self, name, n_t):
        """A causal map with one output (on ota also one input): _forward_rows from
        node i, the call a matrix-free block makes, forms only the rows it keeps,
        two at least, as the full forward's bytes.  The per-node blocks (one data
        row, so assembled) hold the tiled unit vector's rows bit for bit and
        apply within 3 gamma_n of |F| |x| entry by entry, the bound of
        test_weighted_adjoint_identity_on_both_sides_of_the_switch (a causal sum
        that cancels can leave an entry far below the image's largest)."""
        forward, data = forward_and_data(name, n_t, 1)
        assert forward.static.n_out == 1
        x = np.random.default_rng(6).standard_normal(1)
        source = np.tile(x, (n_t, 1))
        tiled = apply_forward(forward, forward.source_template(source)).values
        g = gamma(n_t + 1 + 1 + 1 + 4)  # n_t + n_in + n_out + data rows + 4
        for i, sub in enumerate(time_subproblems(forward, data, 1e-2)):
            assert _forward_rows(forward, source[: i + 1], i).tobytes() == tiled[i].tobytes()
            assert assembled_matrix(sub).tobytes() == unit_vector_rows(forward, i, i + 1).tobytes()
            bound = 3.0 * g * (absolute_rows(forward, i, i + 1) @ np.abs(x))
            assert np.all(np.abs(sub.apply(x) - tiled[i]) <= bound)

    @pytest.mark.parametrize("name", ["dct", "mpi", "ota"])
    def test_nodes_are_one_node_sections(self, name):
        """The default per-node split is sections = n_t byte for byte, dt weight
        included, for a pointwise, an accumulate- and an observe-then-accumulate map."""
        forward, data = forward_and_data(name, 7, 4)
        nodes = time_subproblems(forward, data, 1e-2)
        sections = time_subproblems(forward, data, 1e-2, sections=7)
        dt, rng = forward.time_grid.dt, np.random.default_rng(8)
        for node, section in zip(nodes, sections):
            assert node.data_weight == section.data_weight == dt * forward.static.out_weight
            assert node.noise_level == section.noise_level
            assert node.data.tobytes() == section.data.tobytes()
            x, R = rng.standard_normal(4), rng.standard_normal((3, len(node.data)))
            R[0, 0] = -0.0
            assert node.apply(x).tobytes() == section.apply(x).tobytes()
            assert node.adjoint(R[0]).tobytes() == section.adjoint(R[0]).tobytes()
            assert node.adjoint_rows(R).tobytes() == section.adjoint_rows(R).tobytes()

    def test_per_node_stop_follows_the_noise_budget(self):
        """Identity map, static truth, 32 x 32, delta = 1e-2: per-node residuals in
        the dt-weighted norm meet tau * delta / sqrt(32) after two sweeps, as the
        sections = 32 split does."""
        problem = make_identity_problem(32, 32)
        forward, x_star = problem.forward, problem.truth.values[16]
        clean = apply_forward(forward, forward.source_template(np.tile(x_star, (32, 1))))
        noisy = add_noise(clean, NoiseSpec(1e-2, 0))
        subs = time_subproblems(forward, noisy, 1e-2)
        report = landweber_kaczmarz(subs, KaczmarzConfig(), np.zeros(32), truth=x_star)
        assert report.stop_reason == "discrepancy" and report.iterations == 2
        assert report.error == pytest.approx(0.0184, abs=1e-4)

    def test_sections_partition_data(self):
        problem = make_identity_problem(10, 3)
        subs = time_subproblems(problem.forward, problem.data_clean, 1e-2, sections=4)
        assert [len(s.data) for s in subs] == [9, 9, 6, 6]
        recovered = np.concatenate([s.data for s in subs]).reshape(10, 3)
        np.testing.assert_array_equal(recovered, problem.data_clean.values)

    def test_section_residual_is_weighted_node_stack(self):
        problem = make_identity_problem(8, 4)
        forward = problem.forward
        dt = forward.time_grid.dt
        w = forward.static.out_weight
        subs = time_subproblems(forward, problem.data_clean, 1e-2, sections=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4)
        r = subs[0].residual(x)
        per_node = r.reshape(4, 4)
        expected = math.sqrt(sum(dt * w * float(row @ row) for row in per_node))
        assert subs[0].residual_norm(r) == pytest.approx(expected, rel=1e-14)

    def test_default_noise_split(self):
        problem = make_identity_problem(9, 2)
        subs = time_subproblems(problem.forward, problem.data_clean, 0.3)
        assert all(s.noise_level == pytest.approx(0.3 / 3.0) for s in subs)
        grouped = time_subproblems(problem.forward, problem.data_clean, 0.3, sections=4)
        assert all(s.noise_level == pytest.approx(0.15) for s in grouped)

    def test_validation(self):
        problem = make_identity_problem(4, 2)
        with pytest.raises(InvalidParameterError):
            time_subproblems(problem.forward, problem.data_clean, -1.0)
        with pytest.raises(InvalidParameterError):
            time_subproblems(problem.forward, problem.data_clean, 1e-2, sections=0)
        with pytest.raises(InvalidParameterError):
            time_subproblems(problem.forward, problem.data_clean, 1e-2, sections=5)
        with pytest.raises(DimensionError):
            time_subproblems(problem.forward, problem.data_clean, 1e-2, noise_split=[1.0])

    @pytest.mark.parametrize(
        "delta, noise_split",
        [(math.inf, None), (math.nan, None), (1e-2, [0.1, math.inf, 0.1, 0.1])],
    )
    def test_rejects_non_finite_noise_level(self, delta, noise_split):
        # with an infinite level, one sweep would stop by "discrepancy"
        problem = make_mpi_analogue(24, 8)
        with pytest.raises(InvalidParameterError, match="noise level"):
            time_subproblems(problem.forward, problem.data_clean, delta, noise_split, sections=4)

    @pytest.mark.parametrize(
        "make", [make_dct_analogue, make_nonuniform_example, make_identity_problem]
    )
    def test_tracking_residuals_are_the_per_node_blocks(self, make):
        """tikhonov_temporal's node residuals are the per-node Kaczmarz blocks'
        (assembled, 16 data rows) within 1e-13, dt weight included, and their
        squares add up to the space-time misfit."""
        problem = make(32, 16)
        forward = problem.forward
        data = add_noise(problem.data_clean, NoiseSpec(1e-2, 0))
        report = tikhonov_temporal(forward, data, 1e-3)
        subs = time_subproblems(forward, data, 1e-2)
        snapshots = report.reconstruction.values
        blocks = [sub.residual_norm(sub.residual(x)) for sub, x in zip(subs, snapshots)]
        residuals = [row[2] for row in report.trace]
        np.testing.assert_allclose(residuals, blocks, rtol=1e-13)
        misfit = bochner_norm(apply_forward(forward, report.reconstruction) - data)
        assert math.fsum(r * r for r in residuals) == pytest.approx(misfit**2, rel=1e-14)

    def test_static_identity_recovery(self):
        problem = make_identity_problem(6, 5)
        forward = problem.forward
        rng = np.random.default_rng(4)
        x_star = rng.standard_normal(5)
        data = apply_forward(forward, forward.source_template(np.tile(x_star, (6, 1))))
        subs = time_subproblems(forward, data, 1e-10)
        report = landweber_kaczmarz(subs, KaczmarzConfig(tau=1.0), np.zeros(5), truth=x_star)
        assert report.stop_reason == "discrepancy"
        assert report.error <= 1e-6


class TestDiscrepancyTermination:
    """Noisy static-source runs stop before the sweep cap on every builtin.

    The noise levels handed to the loop are the true per-sub-problem norms
    of the drawn perturbation; mpi and nonuniform group nodes into four
    sections because their frozen-time gains differ too much for per-node
    thresholds to be reachable (see the section docs in time_subproblems).
    """

    @pytest.mark.parametrize("kind", ["identity", "dct", "mpi", "nonuniform"])
    @pytest.mark.parametrize("delta", [1e-3, 1e-2])
    def test_terminates_on_builtin(self, kind, delta):
        makers = {
            "identity": make_identity_problem,
            "dct": make_dct_analogue,
            "mpi": make_mpi_analogue,
            "nonuniform": make_nonuniform_example,
        }
        n_t, n_x = (32, 32) if kind == "mpi" else (16, 16)
        problem = makers[kind](n_t, n_x)
        forward = problem.forward
        dt = forward.time_grid.dt
        w = forward.static.out_weight
        x_star = problem.truth.values[0].copy()
        clean = apply_forward(forward, forward.source_template(np.tile(x_star, (n_t, 1))))
        noisy = add_noise(clean, NoiseSpec(delta, 3))
        e = noisy.values - clean.values
        sections = 4 if kind in ("mpi", "nonuniform") else None
        blocks = np.array_split(np.arange(n_t), sections or n_t)
        split = [math.sqrt(dt * w * float(e[b].ravel() @ e[b].ravel())) for b in blocks]
        subs = time_subproblems(forward, noisy, delta, noise_split=split, sections=sections)
        report = landweber_kaczmarz(
            subs, KaczmarzConfig(tau=2.0, max_sweeps=500), np.zeros(n_x), truth=x_star
        )
        assert report.stop_reason == "discrepancy"
        assert report.iterations < 500
