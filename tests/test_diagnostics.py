"""Spectral probes, the integrability tail, and the translation modulus.

The singular-value routine wraps the LAPACK SVD.  It is checked against an
independent oracle, a Sturm-bisection eigensolver on the tridiagonalized
normal matrix written here from scratch, and against LAPACK directly for
shape handling.  The Gaussian kernel's spectrum is checked against the
continuous operator it discretizes (Gauss-Legendre Nystrom oracle).  The two
ensemble probes are checked against their node-by-node definitions, kept
here as scalar reference loops.
"""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynreg import (
    BUILTIN_PROBLEMS,
    BochnerFunction,
    DimensionError,
    DomainError,
    DynamicForward,
    InvalidInputError,
    InvalidParameterError,
    POINTWISE,
    ResourceLimitError,
    SpatialGrid,
    TimeGrid,
    UnsupportedKindError,
    apply_forward,
    assemble_dense,
    bochner_norm,
    identity_family,
    integrability_tail,
    make_dct_analogue,
    make_gaussian_smoothing,
    make_identity_problem,
    make_mpi_analogue,
    make_nonuniform_example,
    make_scaling_family,
    singular_values,
    stacked_spectrum,
    temporal_spectrum,
    translation_modulus,
)
from dynreg import diagnostics
from dynreg.bochner import _ascending_sum, _dot, _mixed_norm, _row_norms
from dynreg.diagnostics import _node_norms, forward_image
from dynreg.operators import (
    ACCUMULATE_THEN_OBSERVE,
    OBSERVE_THEN_ACCUMULATE,
    OperatorFamily,
    _adjoint_rows,
    _forward_rows,
)
from nystrom import gaussian_nystrom_spectrum


def tridiagonalize(matrix):
    """Householder reduction of a symmetric matrix to tridiagonal form."""
    a = matrix.astype(float).copy()
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1 :, k].copy()
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            continue
        v = x
        v[0] += math.copysign(norm_x, x[0] if x[0] != 0.0 else 1.0)
        v /= np.linalg.norm(v)
        h = np.eye(n)
        h[k + 1 :, k + 1 :] -= 2.0 * np.outer(v, v)
        a = h @ a @ h
    return np.diag(a).copy(), np.diag(a, 1).copy()


def sturm_count(diag, off, x):
    """Number of eigenvalues of the tridiagonal matrix strictly below x."""
    count = 0
    q = diag[0] - x
    if q < 0.0:
        count += 1
    for i in range(1, len(diag)):
        denom = q if q != 0.0 else 1e-300
        q = diag[i] - x - off[i - 1] ** 2 / denom
        if q < 0.0:
            count += 1
    return count


def bisection_singular_values(matrix):
    """Singular values via Sturm bisection on the tridiagonalized M^T M."""
    m = np.asarray(matrix, dtype=float)
    gram = m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T
    diag, off = tridiagonalize(gram)
    n = len(diag)
    pad = np.concatenate([[0.0], np.abs(off), [0.0]])
    lo = min(diag[i] - pad[i] - pad[i + 1] for i in range(n))
    hi = max(diag[i] + pad[i] + pad[i + 1] for i in range(n))
    lo, hi = min(lo, 0.0), max(hi, 0.0)
    eigs = []
    for k in range(n):
        a, b = lo, hi
        for _ in range(2000):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            if sturm_count(diag, off, mid) <= k:
                a = mid
            else:
                b = mid
        eigs.append(0.5 * (a + b))
    return np.sqrt(np.maximum(sorted(eigs, reverse=True), 0.0))


def loop_integrability_tail(forward, inputs, radii, q=1.0):
    """Tail masses node by node: sup over inputs of sum_{||f_i|| > r} dt ||f_i||^q."""
    dt = forward.time_grid.dt
    node_norms = []
    for theta in inputs:
        f = apply_forward(forward, theta)
        node_norms.append(
            [float(_row_norms(f.values[i], f.space_weight, f.space_exponent)) for i in range(f.n_t)]
        )
    table = np.empty((len(radii), 2))
    for row, r in enumerate(radii):
        sup_mass = 0.0
        for norms in node_norms:
            mass = 0.0
            for norm in norms:
                if norm > r:
                    mass += dt * norm**q
            sup_mass = max(sup_mass, mass)
        table[row] = (r, sup_mass)
    return table


def loop_translation_modulus(ensemble, shifts):
    """Moduli per shift and member: the translate f(t + z), f's rows from k = round(z / dt)
    on a grid of their own n_t - k nodes, minus f's head, as a BochnerFunction difference."""
    table = np.empty((len(shifts), 2))
    for row, z in enumerate(shifts):
        worst = 0.0
        for f in ensemble:
            k = round(z / f.grid.dt)
            grid = TimeGrid.from_dt(f.grid.dt, f.n_t - k)
            tail = BochnerFunction(grid, f.values[k:], f.p, f.space_exponent, f.space_weight)
            head = tail.with_values(f.values[: tail.n_t])
            worst = max(worst, bochner_norm(tail - head))
        table[row] = (z, worst)
    return table


def impulse_assembly(op, time_index=None, adjoint=False):
    """Dense assembly one unit impulse per column, each mapped alone: the loop
    assemble_dense ran before it mapped batches of impulses."""
    if isinstance(op, DynamicForward) and time_index is not None:
        op = op.static
    if isinstance(op, OperatorFamily):
        fam, n_t = op, 1
        image = fam.adjoint_rows if adjoint else fam.apply_rows
        column = lambda impulse: image(time_index or 0, impulse[None])
    else:
        fam, n_t = op.static, op.time_grid.n_t
        rows = _adjoint_rows if adjoint else _forward_rows
        column = lambda impulse: rows(op, impulse.reshape(n_t, -1))
    n_in, n_out = (fam.n_out, fam.n_in) if adjoint else (fam.n_in, fam.n_out)
    w_in, w_out = (fam.out_weight, fam.in_weight) if adjoint else (fam.in_weight, fam.out_weight)
    fold = math.sqrt(w_out / w_in)
    M = np.empty((n_t * n_out, n_t * n_in))
    for c in range(n_t * n_in):
        impulse = np.zeros(n_t * n_in)
        impulse[c] = 1.0
        M[:, c] = fold * np.ravel(column(impulse))
    return M


def per_node_family(n_t, n_in, n_out, seed):
    """A family given only by per-node callables: its row forms are the stacking loop."""
    mats = np.random.default_rng(seed).standard_normal((n_t, n_out, n_in))
    return OperatorFamily(
        n_in, n_out, lambda i, x: mats[i] @ x, lambda i, y: mats[i].T @ y, 0.5, 2.0
    )


def unit_ball_ensemble(forward, size, seed):
    """A constant-in-time member and size - 1 random draws, all of norm 1."""
    shape = (forward.time_grid.n_t, forward.static.n_in)
    rng = np.random.default_rng(seed)
    members = [forward.source_template(np.ones(shape))]
    members += [forward.source_template(rng.standard_normal(shape)) for _ in range(size - 1)]
    return [f * (1.0 / bochner_norm(f)) for f in members]


@st.composite
def pointwise_maps(draw):
    """A pointwise built-in (dct at a drawn window, nonuniform, identity) or a map of
    random per-node n_out x n_in matrices with weights 0.5 and 2.0, at most 12 x 24."""
    n_t, n_x = draw(st.integers(1, 12)), draw(st.integers(1, 24))
    name = draw(st.sampled_from(["dct", "nonuniform", "identity", "matrices"]))
    if name == "matrices":
        family = per_node_family(n_t, n_x, draw(st.integers(1, 24)), draw(st.integers(0, 2**32 - 1)))
        return DynamicForward(POINTWISE, family, TimeGrid(1.0, n_t))
    if name == "dct":
        return make_dct_analogue(n_t, n_x, window=draw(st.integers(1, n_x))).forward
    return BUILTIN_PROBLEMS[name](n_t, n_x).forward


class TestAssembleDense:
    def test_identity_composition_entrywise(self):
        problem = make_identity_problem(3, 2)
        m = assemble_dense(problem.forward)
        np.testing.assert_allclose(m, np.eye(6), atol=1e-15)

    @pytest.mark.parametrize("time_index", [-1, 4, 7])
    def test_rejects_time_index_off_the_grid(self, time_index):
        problem = make_dct_analogue(4, 5)
        message = rf"time index must lie in \{{0, \.\.\., 3\}}, got {time_index}"
        with pytest.raises(DomainError, match=message):
            assemble_dense(problem.forward, time_index)

    def test_family_slice(self):
        space = SpatialGrid(0.0, 1.0, 5)
        fam = make_gaussian_smoothing(space, 0.2)
        m = assemble_dense(fam)
        assert m.shape == (5, 5)
        np.testing.assert_allclose(m, m.T, rtol=1e-13)

    def test_adjoint_assembly_is_transpose(self):
        for make in (make_dct_analogue, make_mpi_analogue, make_nonuniform_example):
            problem = make(4, 5)
            fwd = assemble_dense(problem.forward)
            adj = assemble_dense(problem.forward, adjoint=True)
            np.testing.assert_allclose(adj, fwd.T, rtol=1e-13, atol=1e-16)

    def test_matvec_matches_apply(self):
        problem = make_mpi_analogue(5, 4)
        forward = problem.forward
        m = assemble_dense(forward)
        w_x = forward.static.in_weight
        w_y = forward.static.out_weight
        rng = np.random.default_rng(0)
        for _ in range(10):
            theta = rng.standard_normal((5, 4))
            out = apply_forward(forward, forward.source_template(theta))
            expected = math.sqrt(w_y / w_x) * out.values.reshape(-1)
            np.testing.assert_allclose(m @ theta.reshape(-1), expected, rtol=1e-13)

    @pytest.mark.parametrize("name", ["dct", "nonuniform", "mpi"])
    def test_time_varying_family_at_nonzero_index(self, name):
        """Node 3 of a family that changes in time: masks (dct), 1/t
        (nonuniform), moving profiles (mpi, whose weights differ)."""
        n_t, n_x, i = 6, 8, 3
        x = SpatialGrid(0.0, 1.0, n_x).nodes
        dx, t_i = 1.0 / n_x, TimeGrid(1.0, n_t).nodes[i]
        smoothing = dx * np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * 0.1**2))
        if name == "dct":
            forward = make_dct_analogue(n_t, n_x, window=3).forward
            mask = np.isin(np.arange(n_x), [(i + k) % n_x for k in range(3)])
            expected, op = mask[:, None] * smoothing, forward
        elif name == "nonuniform":
            forward = make_nonuniform_example(n_t, n_x).forward
            expected, op = smoothing / t_i, forward
        else:
            forward = make_mpi_analogue(n_t, n_x).forward
            # A_i c = dx * profile_i . c with weights dx (source) and 1 (data)
            profile = np.sin(2.0 * np.pi * (x + t_i))
            expected, op = math.sqrt(1.0 / dx) * dx * profile[None, :], forward.static
        np.testing.assert_allclose(assemble_dense(op, i), expected, rtol=1e-14, atol=1e-300)
        np.testing.assert_allclose(
            assemble_dense(op, i, adjoint=True), expected.T, rtol=1e-14, atol=1e-300
        )

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize(
        "make, n_t, n_x",
        [
            (make_dct_analogue, 7, 9),
            (make_mpi_analogue, 16, 32),  # 512 columns: four chunks under the budget
            (make_nonuniform_example, 6, 5),
            (make_identity_problem, 4, 3),
        ],
    )
    def test_batched_columns_equal_impulse_loop(self, make, n_t, n_x, adjoint):
        forward = make(n_t, n_x).forward
        stacked = assemble_dense(forward, adjoint=adjoint)
        assert stacked.tobytes() == impulse_assembly(forward, adjoint=adjoint).tobytes()
        if forward.kind == POINTWISE:
            for i in (0, n_t - 1):
                got = assemble_dense(forward, i, adjoint=adjoint)
                assert got.tobytes() == impulse_assembly(forward, i, adjoint).tobytes()
        got = assemble_dense(forward.static, n_t - 1, adjoint=adjoint)
        assert got.tobytes() == impulse_assembly(forward.static, n_t - 1, adjoint).tobytes()

    def test_real_budget_splits_the_largest_case(self):
        # mpi 16x32 above: 16 * 32 entries per impulse, so 128 impulses per chunk
        assert diagnostics._ASSEMBLY_BUDGET // (16 * 32) < 16 * 32

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("kind", [POINTWISE, OBSERVE_THEN_ACCUMULATE, ACCUMULATE_THEN_OBSERVE])
    @pytest.mark.parametrize("budget", [1, 7, 10**6])
    def test_per_node_family_in_chunks(self, kind, adjoint, budget, monkeypatch):
        monkeypatch.setattr(diagnostics, "_ASSEMBLY_BUDGET", budget)
        n_t, fam = 5, per_node_family(5, 3, 2, seed=3)
        kernel = None if kind == POINTWISE else np.exp(-np.arange(n_t) / 3.0)
        forward = DynamicForward(kind, fam, TimeGrid(1.0, n_t), kernel)
        stacked = assemble_dense(forward, adjoint=adjoint)
        assert stacked.tobytes() == impulse_assembly(forward, adjoint=adjoint).tobytes()
        frozen = assemble_dense(fam, 2, adjoint=adjoint)
        assert frozen.tobytes() == impulse_assembly(fam, 2, adjoint).tobytes()

    def test_size_guard(self):
        problem = make_identity_problem(1500, 1500)
        with pytest.raises(ResourceLimitError):
            assemble_dense(problem.forward)


class TestSingularValues:
    def test_identity(self):
        np.testing.assert_allclose(singular_values(np.eye(5)), np.ones(5), rtol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            singular_values(np.diag([3.0, 2.0, 1.0])), [3.0, 2.0, 1.0], rtol=1e-14
        )

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((8, 6))
        ours = singular_values(m)
        oracle = bisection_singular_values(m)
        np.testing.assert_allclose(ours, oracle, atol=1e-8 * oracle[0])

    def test_against_lapack_many_shapes(self):
        rng = np.random.default_rng(2)
        for shape in [(4, 4), (7, 3), (3, 7), (12, 12), (20, 5)]:
            m = rng.standard_normal(shape)
            np.testing.assert_allclose(
                singular_values(m), np.linalg.svd(m, compute_uv=False), rtol=1e-10
            )

    def test_frobenius_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.standard_normal((9, 7))
            sigma = singular_values(m)
            assert np.sum(sigma**2) == pytest.approx(np.sum(m**2), rel=1e-10)

    def test_sorted_descending_nonnegative(self):
        rng = np.random.default_rng(4)
        sigma = singular_values(rng.standard_normal((10, 10)))
        assert np.all(sigma >= 0.0)
        assert np.all(np.diff(sigma) <= 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            singular_values(np.array([[1.0, math.inf]]))

    @pytest.mark.parametrize("matrix", [np.zeros((0, 3)), np.ones(2)], ids=["empty", "1-d"])
    def test_rejects_empty_or_1d(self, matrix):
        with pytest.raises(InvalidInputError, match=r"M must have shape \(m, n\), got"):
            singular_values(matrix)


class TestTemporalSpectrum:
    def test_identity_flat_spectrum(self):
        problem = make_identity_problem(4, 6)
        report = temporal_spectrum(problem.forward, 2)
        np.testing.assert_allclose(report.singular_values, np.ones(6), rtol=1e-13)
        assert report.condition == pytest.approx(1.0, rel=1e-12)
        assert not report.rank_deficient

    def test_gaussian_decay(self):
        # the continuous operator's sigma_20/sigma_1 is 1.0657e-6 at sigma = 0.1;
        # the midpoint rule approaches it at second order in dx
        coarse = gaussian_nystrom_spectrum(100, 0.1)
        continuous = gaussian_nystrom_spectrum(200, 0.1)
        target = continuous[19] / continuous[0]
        assert coarse[19] / coarse[0] == pytest.approx(target, rel=1e-9)
        for n_x in (64, 128):
            problem = make_dct_analogue(2, n_x, sigma=0.1)
            sigma = temporal_spectrum(problem.forward, 0).singular_values
            ratio = sigma[19] / sigma[0]
            tolerance = 0.15 * (64 / n_x) ** 2  # measured 0.124, 0.032
            assert abs(ratio / target - 1.0) <= tolerance, (n_x, ratio, target)

    def test_gaussian_decay_narrow_kernel(self):
        problem = make_dct_analogue(2, 64, sigma=0.05)
        sigma = temporal_spectrum(problem.forward, 0).singular_values
        assert sigma[40] / sigma[0] <= 1e-6

    def test_condition_grows_under_refinement(self):
        conditions = []
        for n_x in (16, 32, 48):  # n_x = 64 is flagged rank deficient: condition inf
            problem = make_dct_analogue(2, n_x, sigma=0.05)
            conditions.append(temporal_spectrum(problem.forward, 0).condition)
        assert all(math.isfinite(c) for c in conditions), conditions
        assert conditions[0] <= conditions[1] <= conditions[2]

    def test_rejects_causal_kind(self):
        problem = make_mpi_analogue(4, 4)
        with pytest.raises(UnsupportedKindError):
            temporal_spectrum(problem.forward, 0)

    def test_rank_deficient_flag(self):
        grid = TimeGrid(1.0, 2)
        fam = identity_family(3, weight=1.0)
        rank_one = DynamicForward(
            POINTWISE,
            type(fam)(
                3,
                3,
                lambda i, x: np.array([x[0], 0.0, 0.0]),
                lambda i, y: np.array([y[0], 0.0, 0.0]),
                in_weight=1.0,
                out_weight=1.0,
            ),
            grid,
        )
        report = temporal_spectrum(rank_one, 0)
        assert report.rank_deficient and math.isinf(report.condition)


class TestStackedSpectrum:
    def test_identity(self):
        problem = make_identity_problem(3, 2)
        report = stacked_spectrum(problem.forward)
        np.testing.assert_allclose(report.singular_values, np.ones(6), rtol=1e-13)
        assert report.index == "stacked"

    def test_pointwise_multiset_union(self):
        problem = make_dct_analogue(5, 8, window=5)
        stacked = np.sort(stacked_spectrum(problem.forward).singular_values)
        frozen = np.sort(
            np.concatenate(
                [temporal_spectrum(problem.forward, i).singular_values for i in range(5)]
            )
        )
        np.testing.assert_allclose(stacked, frozen, atol=1e-10 * max(frozen[-1], 1.0))

    def test_rank_flag_agrees_with_frozen_time(self):
        # the full window observes everything at every node, so the stacked
        # map repeats the frozen-time spectrum; sigma_min / sigma_1 ~ 4e-19
        problem = make_dct_analogue(4, 64, window=64)
        frozen = temporal_spectrum(problem.forward, 0)
        stacked = stacked_spectrum(problem.forward)
        assert frozen.rank_deficient and stacked.rank_deficient
        assert math.isinf(frozen.condition) and math.isinf(stacked.condition)

    def test_mpi_matches_lapack_oracle(self):
        problem = make_mpi_analogue(6, 5)
        report = stacked_spectrum(problem.forward)
        oracle = np.linalg.svd(assemble_dense(problem.forward), compute_uv=False)
        np.testing.assert_allclose(report.singular_values, oracle, atol=1e-12 * oracle[0])

    @settings(max_examples=60, deadline=None)
    @given(pointwise_maps())
    def test_pointwise_union_matches_lapack_on_the_dense_matrix(self, forward):
        """The frozen-time stacks' union against LAPACK on the assembled stacked matrix:
        values within 1e-13 sigma_1, the same rank flag (unless sigma_min lies within
        that distance of the flag's threshold) and the same condition to rounding."""
        report = stacked_spectrum(forward)
        M = assemble_dense(forward)
        oracle = np.linalg.svd(M, compute_uv=False)
        band = 1e-13 * oracle[0]
        assert report.singular_values.shape == oracle.shape
        np.testing.assert_allclose(report.singular_values, oracle, rtol=0.0, atol=band)
        threshold = max(M.shape) * np.finfo(float).eps * oracle[0]
        deficient = oracle[0] == 0.0 or oracle[-1] <= threshold
        if oracle[0] == 0.0 or abs(oracle[-1] - threshold) > band:
            assert report.rank_deficient == deficient
        if not (deficient or report.rank_deficient):
            # sigma_min carries an absolute error within band: relative band / sigma_min
            rel = 2.0 * band / oracle[-1]
            assert report.condition == pytest.approx(oracle[0] / oracle[-1], rel=rel)
        elif deficient and report.rank_deficient:
            assert math.isinf(report.condition)

    def test_stack_is_the_frozen_time_assemblies_bytes(self):
        for forward in (make_dct_analogue(9, 7, window=3).forward,
                        make_nonuniform_example(5, 6).forward,
                        DynamicForward(POINTWISE, per_node_family(4, 3, 5, 1), TimeGrid(1.0, 4))):
            stack = diagnostics._frozen_stack(forward, 1, forward.time_grid.n_t)
            for k, S in enumerate(stack, start=1):
                assert S.tobytes() == assemble_dense(forward, k).tobytes()

    def test_past_the_old_size_guard(self):
        """dct 256 x 64, window 32: 16,384 x 16,384 stacked entries, far past SIZE_GUARD,
        in 16 stacks of 16 nodes; the union of all 256 frozen-time spectra."""
        forward = make_dct_analogue(256, 64, window=32).forward
        with pytest.raises(ResourceLimitError):
            assemble_dense(forward)
        report = stacked_spectrum(forward)
        sigmas = report.singular_values
        assert sigmas.shape == (16_384,) and np.all(sigmas[:-1] >= sigmas[1:])
        frozen = np.concatenate([temporal_spectrum(forward, i).singular_values for i in range(256)])
        union = np.array(sorted(frozen.tolist(), reverse=True))
        np.testing.assert_allclose(sigmas, union, rtol=0.0, atol=1e-13 * union[0])
        assert report.rank_deficient and math.isinf(report.condition)  # window 32 of 64

    def test_non_finite_family_is_named(self):
        grid = TimeGrid(1.0, 3)
        family = OperatorFamily(2, 2, lambda i, x: x / (i - 1.0), lambda i, y: y / (i - 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match="M must be finite"):
                stacked_spectrum(DynamicForward(POINTWISE, family, grid))


class TestIntegrabilityTail:
    def test_bounded_operator_zero_tail(self):
        problem = make_identity_problem(6, 3)
        rng = np.random.default_rng(5)
        draws = rng.standard_normal((4, 6, 3))
        inputs = []
        for d in draws:
            f = problem.forward.source_template(d)
            inputs.append(f * (1.0 / bochner_norm(f)))
        peak = max(
            np.linalg.norm(apply_forward(problem.forward, f).values[i] / math.sqrt(3))
            for f in inputs
            for i in range(6)
        )
        table = integrability_tail(problem.forward, inputs, [2.0 * peak, 4.0 * peak])
        np.testing.assert_array_equal(table[:, 1], [0.0, 0.0])

    def test_scaling_family_scalar_oracle(self):
        n_t = 16
        grid = TimeGrid(1.0, n_t)
        fam = make_scaling_family(grid, 1, weight=1.0)
        forward = DynamicForward(POINTWISE, fam, grid)
        constant = forward.source_template(np.ones((n_t, 1)))
        radii = [1.5, 3.0, 6.0, 12.0]
        table = integrability_tail(forward, [constant], radii, q=1.0)
        for r, mass in table:
            expected = sum(grid.dt / t for t in grid.nodes if t < 1.0 / r)
            assert mass == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_monotone_in_radius(self):
        problem = make_nonuniform_example(12, 4)
        constant = problem.truth * (1.0 / bochner_norm(problem.truth))
        table = integrability_tail(problem.forward, [constant], [0.5, 1.0, 2.0, 4.0, 8.0])
        assert np.all(np.diff(table[:, 1]) <= 0.0)

    def test_refinement_grows_tail(self):
        masses = []
        for n_t in (8, 16):
            grid = TimeGrid(1.0, n_t)
            fam = make_scaling_family(grid, 1, weight=1.0)
            forward = DynamicForward(POINTWISE, fam, grid)
            constant = forward.source_template(np.ones((n_t, 1)))
            masses.append(integrability_tail(forward, [constant], [4.0], q=1.0)[0, 1])
        assert masses[1] > masses[0]

    @pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_rejects_bad_exponent(self, q):
        problem = make_identity_problem(4, 2)
        unit = problem.truth * (1.0 / bochner_norm(problem.truth))
        with pytest.raises(InvalidParameterError):
            integrability_tail(problem.forward, [unit], [1.0], q=q)

    def test_rejects_input_outside_unit_ball(self):
        problem = make_identity_problem(4, 2)
        big = problem.forward.source_template(np.full((4, 2), 10.0))
        with pytest.raises(InvalidInputError):
            integrability_tail(problem.forward, [big], [1.0])

    def test_rejects_input_outside_unit_ball_with_its_image_formed(self):
        # an image formed earlier (for the translation probe, say) skips no check
        problem = make_identity_problem(4, 2)
        unit = problem.truth * (1.0 / bochner_norm(problem.truth))
        big = problem.forward.source_template(np.full((4, 2), 10.0))
        forward_image(problem.forward, big)
        with pytest.raises(InvalidInputError, match="input 1 lies outside the unit ball"):
            integrability_tail(problem.forward, [unit, big], [1.0])

    @pytest.mark.parametrize("q", [1.0, 2.5])
    def test_matches_node_by_node_loop(self, q):
        forward = make_nonuniform_example(24, 6).forward
        inputs = unit_ball_ensemble(forward, 6, seed=25)  # the sup switches member
        norms = [
            norm
            for f in (apply_forward(forward, theta) for theta in inputs)
            for norm in _row_norms(f.values, f.space_weight, f.space_exponent).tolist()
        ]
        radii = [*np.quantile(norms, [0.1, 0.5, 0.8, 0.9, 0.95, 0.99]), 2.0 * max(norms)]
        table = integrability_tail(forward, inputs, radii, q=q)
        expected = loop_integrability_tail(forward, inputs, radii, q=q)
        np.testing.assert_allclose(table, expected, rtol=1e-13, atol=0.0)
        masses = [loop_integrability_tail(forward, [f], radii, q=q)[:-1, 1] for f in inputs]
        assert len(set(np.argmax(masses, axis=0))) >= 2

    def test_rejects_bad_radii(self):
        problem = make_identity_problem(4, 2)
        member = problem.forward.source_template(np.zeros((4, 2)))
        with pytest.raises(InvalidParameterError):
            integrability_tail(problem.forward, [member], [2.0, 1.0])

    @pytest.mark.parametrize("radii", [[0.0, 1.0], [-1.0], [math.inf], []])
    def test_rejects_non_positive_radii(self, radii):
        problem = make_identity_problem(4, 2)
        member = problem.forward.source_template(np.zeros((4, 2)))
        with pytest.raises(InvalidParameterError, match="radii must lie in"):
            integrability_tail(problem.forward, [member], radii)

    def test_rejects_no_inputs(self):
        with pytest.raises(InvalidInputError, match="no input functions"):
            integrability_tail(make_identity_problem(4, 2).forward, [], [1.0])


class TestForwardImage:
    def test_formed_once_per_source_and_map(self):
        problem = make_nonuniform_example(6, 4)
        theta = problem.truth * (1.0 / bochner_norm(problem.truth))
        image = forward_image(problem.forward, theta)
        assert image.values.tobytes() == apply_forward(problem.forward, theta).values.tobytes()
        assert forward_image(problem.forward, theta) is image
        other = make_nonuniform_example(6, 4).forward  # an equal map, another object
        assert forward_image(other, theta) is not image

    def test_tail_and_translation_share_images(self, monkeypatch):
        problem = make_nonuniform_example(8, 4)
        ensemble = unit_ball_ensemble(problem.forward, 3, seed=1)
        calls = []
        monkeypatch.setattr(
            diagnostics, "apply_forward", lambda f, u: calls.append(u) or apply_forward(f, u)
        )
        integrability_tail(problem.forward, ensemble, [1.0])
        images = [forward_image(problem.forward, theta) for theta in ensemble]
        assert [id(u) for u in calls] == [id(theta) for theta in ensemble]
        expected = [apply_forward(problem.forward, theta) for theta in ensemble]
        assert all(a.values.tobytes() == b.values.tobytes() for a, b in zip(images, expected))

    def test_image_goes_with_its_source(self):
        problem = make_identity_problem(3, 2)
        theta = problem.forward.source_template(np.ones((3, 2)))
        forward_image(problem.forward, theta)
        assert theta in diagnostics._IMAGES
        del theta
        assert all(f is not problem.forward for f, _ in diagnostics._IMAGES.values())


class TestTranslationModulus:
    def test_constant_ensemble_zero(self):
        grid = TimeGrid(1.0, 8)
        member = BochnerFunction(grid, np.tile([1.0, 2.0], (8, 1)), space_weight=0.5)
        table = translation_modulus([member], [0.0, grid.dt, 3 * grid.dt])
        np.testing.assert_array_equal(table[:, 1], np.zeros(3))

    def test_zero_shift_zero_modulus(self):
        rng = np.random.default_rng(6)
        grid = TimeGrid(1.0, 6)
        member = BochnerFunction(grid, rng.standard_normal((6, 3)), space_weight=1 / 3)
        table = translation_modulus([member], [0.0])
        assert table[0, 1] == 0.0

    def test_single_step_matches_direct(self):
        problem = make_dct_analogue(10, 12)
        f = problem.truth
        dt = f.grid.dt
        table = translation_modulus([f], [dt])
        tail = BochnerFunction(TimeGrid.from_dt(dt, 9), f.values[1:], p=f.p, space_weight=f.space_weight)
        head = tail.with_values(f.values[:9])
        assert table[0, 1] == pytest.approx(bochner_norm(tail - head), rel=1e-13)

    def test_sup_over_ensemble(self):
        grid = TimeGrid(1.0, 5)
        quiet = BochnerFunction(grid, np.ones((5, 1)))
        loud = BochnerFunction(grid, np.outer(np.arange(5.0), [1.0]))
        solo = translation_modulus([loud], [grid.dt])[0, 1]
        both = translation_modulus([quiet, loud], [grid.dt])[0, 1]
        assert both == solo

    @pytest.mark.parametrize("p, s", [(2.0, 2.0), (3.0, 1.5), (1.0, 3.0)])
    def test_matches_translate_loop(self, p, s):
        problem = make_nonuniform_example(24, 6)
        forward = problem.forward
        images = [apply_forward(forward, f) for f in unit_ball_ensemble(forward, 5, seed=8)]
        ensemble = [
            BochnerFunction(f.grid, f.values, p=p, space_exponent=s, space_weight=f.space_weight)
            for f in images
        ]
        dt = forward.time_grid.dt
        shifts = [k * dt for k in (0, 1, 2, 5, 11, 23)]
        table = translation_modulus(ensemble, shifts)
        expected = loop_translation_modulus(ensemble, shifts)
        assert np.all(expected[1:, 1] > 0.0)
        np.testing.assert_allclose(table, expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("steps", [-1, 4, 5, 3.6])  # 3.6 lies inside [0, T), rounds to 4
    def test_rejects_shift_outside_horizon(self, steps):
        grid = TimeGrid(1.0, 4)
        member = BochnerFunction(grid, np.zeros((4, 1)))
        with pytest.raises(DomainError):
            translation_modulus([member], [steps * grid.dt])

    def test_rejects_off_grid_shift(self):
        grid = TimeGrid(1.0, 4)
        member = BochnerFunction(grid, np.zeros((4, 1)))
        with pytest.raises(DomainError):
            translation_modulus([member], [0.4 * grid.dt])

    def test_rejects_empty_or_mixed_ensemble(self):
        grid = TimeGrid(1.0, 4)
        member = BochnerFunction(grid, np.zeros((4, 1)))
        with pytest.raises(InvalidInputError, match="no ensemble members"):
            translation_modulus([], [0.0])
        with pytest.raises(DimensionError, match="different norm data"):
            translation_modulus([member, BochnerFunction(grid, np.zeros((4, 1)), p=3.0)], [0.0])


SPACE_EXPONENTS = st.sampled_from((1.0, 1.5, 2.0, 3.0))
OFF_HILBERT = st.sampled_from((1.0, 1.5, 3.0))


@st.composite
def geometries(draw, s=SPACE_EXPONENTS):
    """A random grid, width, weight, time exponent p in {1, 2, 3} and space exponent
    drawn from s, with a seeded generator for the values."""
    grid = TimeGrid(draw(st.floats(0.1, 10.0)), draw(st.integers(1, 24)))
    n_x = draw(st.integers(1, 40))
    weight = draw(st.floats(1e-3, 10.0))
    p = draw(st.sampled_from((1.0, 2.0, 3.0)))
    return grid, n_x, weight, p, draw(s), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@st.composite
def ensembles(draw, s=SPACE_EXPONENTS):
    """One to four members on one random geometry, at a random scale."""
    grid, n_x, weight, p, s, rng = draw(geometries(s))
    scale = 10.0 ** draw(st.integers(-3, 3))
    return [
        BochnerFunction(grid, scale * rng.standard_normal((grid.n_t, n_x)), p, s, weight)
        for _ in range(draw(st.integers(1, 4)))
    ]


@st.composite
def tail_cases(draw, s=SPACE_EXPONENTS):
    """A random pointwise map in that geometry, one to four unit-norm inputs and q."""
    grid, n_out, weight, p, s, rng = draw(geometries(s))
    n_in = draw(st.integers(1, 8))
    mats = rng.standard_normal((grid.n_t, n_out, n_in))
    fam = OperatorFamily(
        n_in, n_out, lambda i, x: mats[i] @ x, lambda i, y: mats[i].T @ y,
        draw(st.floats(1e-3, 10.0)), weight,
    )
    forward = DynamicForward(POINTWISE, fam, grid, None, p, s, p, s)
    members = [
        forward.source_template(rng.standard_normal((grid.n_t, n_in)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return forward, [f * (1.0 / bochner_norm(f)) for f in members], draw(st.sampled_from((1.0, 2.5)))


def separated_radii(forward, inputs):
    """Radii between the images' node norms, each far from every norm in relative terms,
    so a norm rounded either way lies on the same side of every radius."""
    norms = sorted(
        norm
        for f in (apply_forward(forward, theta) for theta in inputs)
        for norm in _row_norms(f.values, f.space_weight, f.space_exponent).tolist()
    )
    between = [0.5 * (a + b) for a, b in zip(norms, norms[1:]) if b - a > 1e-9 * b]
    return [0.5 * norms[0], *between, 2.0 * norms[-1]]


class TestNodeNorms:
    """The probes' node norms: the solvers' row dot _dot at s = 2, bochner's row norms otherwise."""

    @settings(max_examples=150, deadline=None)
    @given(ensembles(), st.data())
    def test_translation_modulus_matches_bochner_norm(self, ensemble, data):
        grid = ensemble[0].grid
        steps = data.draw(st.lists(st.integers(0, grid.n_t - 1), min_size=1, max_size=4))
        shifts = [k * grid.dt for k in steps]
        table = translation_modulus(ensemble, shifts)
        expected = loop_translation_modulus(ensemble, shifts)
        np.testing.assert_allclose(table, expected, rtol=1e-13, atol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(tail_cases())
    def test_integrability_tail_matches_node_by_node(self, case):
        forward, inputs, q = case
        radii = separated_radii(forward, inputs)
        table = integrability_tail(forward, inputs, radii, q=q)
        expected = loop_integrability_tail(forward, inputs, radii, q=q)
        np.testing.assert_allclose(table, expected, rtol=1e-13, atol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(ensembles(OFF_HILBERT), st.data())
    def test_translation_modulus_repeats_bochner_bits_off_hilbert(self, ensemble, data):
        grid = ensemble[0].grid
        steps = data.draw(st.lists(st.integers(0, grid.n_t - 1), min_size=1, max_size=4))
        moduli = [
            [_mixed_norm(f.values[k:] - f.values[: f.n_t - k], grid.dt, f.space_weight, f.p,
                         f.space_exponent) for k in steps]
            for f in ensemble
        ]
        table = translation_modulus(ensemble, [k * grid.dt for k in steps])
        assert table[:, 1].tobytes() == np.max(moduli, axis=0).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(tail_cases(OFF_HILBERT))
    def test_integrability_tail_repeats_bochner_bits_off_hilbert(self, case):
        forward, inputs, q = case
        radii = separated_radii(forward, inputs)
        dt, above = forward.time_grid.dt, np.array(radii)[:, None]
        tails = []
        for theta in inputs:
            f = apply_forward(forward, theta)
            norms = _row_norms(f.values, f.space_weight, f.space_exponent)
            tails.append(_ascending_sum(np.where(norms > above, dt * norms**q, 0.0)))
        table = integrability_tail(forward, inputs, radii, q=q)
        assert table[:, 1].tobytes() == np.max(tails, axis=0).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(ensembles())
    def test_probe_norm_is_bochner_norm(self, ensemble):
        """_probe_norm, the translation moduli's and the unit-ball check's norm: at
        s = 2 (one sum of row dots at p = 2, a dot per row otherwise) within 1e-13 of
        bochner_norm; bochner_norm's bytes at every other s."""
        for f in ensemble:
            got = diagnostics._probe_norm(f.values, f.grid.dt, f.space_weight, f.p, f.space_exponent)
            if f.space_exponent == 2.0:
                assert got == pytest.approx(bochner_norm(f), rel=1e-13, abs=0.0)
            else:
                assert np.float64(got).tobytes() == np.float64(bochner_norm(f)).tobytes()

    def test_unit_ball_check_at_the_hilbert_norm(self):
        forward = make_nonuniform_example(24, 6).forward
        inputs = unit_ball_ensemble(forward, 6, seed=4)
        integrability_tail(forward, inputs, [1.0])
        with pytest.raises(InvalidInputError, match="input 5 lies outside the unit ball"):
            integrability_tail(forward, inputs[:5] + [inputs[5] * (1.0 + 2e-9)], [1.0])

    @settings(max_examples=150, deadline=None)
    @given(ensembles(st.just(2.0)))
    def test_hilbert_norms_repeat_their_bytes_at_an_odd_offset(self, ensemble):
        values, weight = ensemble[0].values, ensemble[0].space_weight
        norms = _node_norms(values, weight, 2.0)
        assert norms.tobytes() == np.sqrt(weight * _dot(values, values)).tobytes()
        moved = np.empty(values.size + 1)[1:].reshape(values.shape)  # one float past the start
        moved[...] = values
        assert _node_norms(moved, weight, 2.0).tobytes() == norms.tobytes()
        np.testing.assert_allclose(norms, _row_norms(values, weight, 2.0), rtol=1e-13, atol=0.0)


def streamed(make, count, refs, alive):
    """Yield make(k) for k < count, one at a time.

    Each member is tracked in refs by weakref (a caller may track more there);
    before member k is made, alive records how many tracked objects still live.
    """
    for k in range(count):
        alive.append(sum(ref() is not None for ref in refs))
        member = make(k)
        refs.append(weakref.ref(member))
        yield member
        del member


class TestStreamedEnsembles:
    """Both ensemble probes hold one member, and its image, at a time."""

    def test_tail_drops_each_input_and_its_image_before_the_next(self, monkeypatch):
        forward = make_nonuniform_example(16, 4).forward
        members = unit_ball_ensemble(forward, 5, seed=3)
        refs, alive = [], []

        def tracked_image(fwd, theta):
            image = forward_image(fwd, theta)
            refs.append(weakref.ref(image))
            return image

        monkeypatch.setattr(diagnostics, "forward_image", tracked_image)
        make = lambda k: members[k].with_values(members[k].values)  # a copy only the probe holds
        table = integrability_tail(forward, streamed(make, 5, refs, alive), [0.5, 1.0, 2.0])
        assert alive == [0] * 5 and len(refs) == 10
        whole = integrability_tail(forward, members, [0.5, 1.0, 2.0])
        assert table.tobytes() == whole.tobytes()

    def test_tail_names_the_streamed_input_outside_the_unit_ball(self):
        forward = make_identity_problem(4, 2).forward
        unit = forward.source_template(np.full((4, 2), 0.25))
        make = lambda k: unit * (10.0 if k == 2 else 1.0)
        with pytest.raises(InvalidInputError, match="input 2 lies outside the unit ball"):
            integrability_tail(forward, streamed(make, 4, [], []), [1.0])

    def test_translation_drops_each_member_before_the_next(self):
        grid = TimeGrid(1.0, 12)
        make = lambda k: BochnerFunction(grid, np.random.default_rng(k).standard_normal((12, 3)))
        refs, alive = [], []
        shifts = [grid.dt, 4 * grid.dt]
        table = translation_modulus(streamed(make, 6, refs, alive), shifts)
        assert alive == [0] * 6
        whole = translation_modulus([make(k) for k in range(6)], shifts)
        assert table.tobytes() == whole.tobytes()

    def test_translation_checks_each_streamed_member(self):
        grid = TimeGrid(1.0, 4)
        make = lambda k: BochnerFunction(grid, np.zeros((4, 1)), p=3.0 if k == 2 else 2.0)
        with pytest.raises(DimensionError, match="different norm data"):
            translation_modulus(streamed(make, 3, [], []), [0.0])
