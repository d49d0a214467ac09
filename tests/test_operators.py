"""Operator families, causal compositions, and their weighted adjoints."""

import contextlib
import math
import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dynreg import (
    ACCUMULATE_THEN_OBSERVE,
    BochnerFunction,
    DimensionError,
    DynamicForward,
    InvalidInputError,
    InvalidParameterError,
    OBSERVE_THEN_ACCUMULATE,
    OperatorFamily,
    POINTWISE,
    SpatialGrid,
    TimeGrid,
    apply_adjoint,
    apply_forward,
    bochner_norm,
    compose,
    holder_pairing,
    identity_family,
    load_kernel_csv,
    load_pattern_csv,
    make_causal_kernel,
    make_dct_analogue,
    make_gaussian_smoothing,
    make_identity_problem,
    make_mpi_analogue,
    make_nonuniform_example,
    make_scaling_family,
    make_subsample_observer,
    rotating_window_pattern,
)
import dynreg.operators as operators
from dynreg.bochner import _row_norms
from dynreg.operators import _ordered_sum


def family_adjoint_gap(family, time_indices, seed, in_weight, out_weight):
    """Worst relative defect of <Ax, y>_Y = <x, A*y>_X over random pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in time_indices:
        x = rng.standard_normal(family.n_in)
        y = rng.standard_normal(family.n_out)
        lhs = out_weight * float(np.asarray(family.apply(i, x)) @ y)
        rhs = in_weight * float(x @ np.asarray(family.adjoint_apply(i, y)))
        scale = max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def dense_causal_matrix(kernel, dt, n_t):
    lower = np.zeros((n_t, n_t))
    for i in range(n_t):
        for j in range(i + 1):
            lower[i, j] = dt * kernel[i - j]
    return lower


def causal_sum_reference(kernel, dt, rows):
    """Term by term: y_i = sum_{j<=i} dt * kernel[i-j] * rows[j], ascending j."""
    n_t, dim = rows.shape
    out = np.empty((n_t, dim))
    for i in range(n_t):
        acc = np.zeros(dim)
        for j in range(i + 1):
            acc += dt * kernel[i - j] * rows[j]
        out[i] = acc
    return out


def anticausal_sum_reference(kernel, dt, rows):
    """Term by term: v_j = sum_{i>=j} dt * kernel[i-j] * rows[i], ascending i."""
    n_t, dim = rows.shape
    out = np.empty((n_t, dim))
    for j in range(n_t):
        acc = np.zeros(dim)
        for i in range(j, n_t):
            acc += dt * kernel[i - j] * rows[i]
        out[j] = acc
    return out


@st.composite
def causal_sum_inputs(draw):
    n_t = draw(st.integers(1, 24))
    dim = draw(st.integers(1, 5))
    entries = st.floats(-1e6, 1e6, allow_nan=False)
    kernel = draw(arrays(float, n_t, elements=entries))
    rows = draw(arrays(float, (n_t, dim), elements=entries))
    dt = draw(st.floats(1e-4, 10.0))
    return kernel, dt, rows


def per_node_apply(i: int, x: np.ndarray) -> np.ndarray:
    return (i + 1.0) * np.array([x[0], x[1], x[0] - x[1]])


def per_node_adjoint(i: int, y: np.ndarray) -> np.ndarray:
    return (4.0 * (i + 1.0)) * np.array([y[0] + y[2], y[1] - y[2]])  # out_weight / in_weight = 4


class TestOperatorFamily:
    def test_identity(self):
        fam = identity_family(4, weight=0.25)
        x = np.arange(4.0)
        np.testing.assert_array_equal(fam.apply(0, x), x)
        np.testing.assert_array_equal(fam.adjoint_apply(3, x), x)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            OperatorFamily(0, 1, lambda i, x: x, lambda i, y: y)

    @pytest.mark.parametrize("weight", [-1.0, 0.0, math.inf, math.nan])
    @pytest.mark.parametrize("side", ["in_weight", "out_weight"])
    def test_rejects_bad_weight(self, side, weight):
        message = rf"{side} must lie in \(0, inf\), got {weight}"
        with pytest.raises(InvalidParameterError, match=message):
            OperatorFamily(1, 1, lambda i, x: x, lambda i, y: y, **{side: weight})

    def test_family_of_top_level_callables_pickles(self):
        fam = OperatorFamily(2, 3, per_node_apply, per_node_adjoint, 0.5, 2.0)
        back = pickle.loads(pickle.dumps(fam))
        X, Y = np.arange(8.0).reshape(4, 2), np.arange(12.0).reshape(4, 3)
        assert back.apply_rows(1, X).tobytes() == fam.apply_rows(1, X).tobytes()
        assert back.adjoint_rows(1, Y).tobytes() == fam.adjoint_rows(1, Y).tobytes()

    def test_compose_checks_dimensions(self):
        a = identity_family(3, weight=1.0)
        b = identity_family(4, weight=1.0)
        with pytest.raises(DimensionError):
            compose(a, b)
        with pytest.raises(DimensionError, match="intermediate space weights differ"):
            compose(a, identity_family(3, weight=0.5))


class TestGaussianSmoothing:
    def test_zero_maps_to_zero(self):
        fam = make_gaussian_smoothing(SpatialGrid(0.0, 1.0, 8), 0.1)
        np.testing.assert_array_equal(fam.apply(0, np.zeros(8)), np.zeros(8))

    def test_flat_kernel_limit(self):
        # sigma huge on [0,1]: every output entry is close to dx*sum(x)
        space = SpatialGrid(0.0, 1.0, 16)
        fam = make_gaussian_smoothing(space, 1e3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(16)
        out = np.asarray(fam.apply(0, x))
        np.testing.assert_allclose(out, np.full(16, space.dx * x.sum()), atol=1e-6)

    def test_self_adjoint(self):
        space = SpatialGrid(0.0, 1.0, 12)
        fam = make_gaussian_smoothing(space, 0.2)
        gap = family_adjoint_gap(fam, [0], seed=1, in_weight=space.dx, out_weight=space.dx)
        assert gap <= 1e-12

    def test_rejects_bad_width(self):
        with pytest.raises(InvalidParameterError):
            make_gaussian_smoothing(SpatialGrid(0.0, 1.0, 4), 0.0)

    @pytest.mark.parametrize("sigma", [1e-200, np.float64(1e-200), 5e-324])
    def test_rejects_a_width_that_underflows(self, sigma):
        # 2 sigma^2 underflowed to 0: NumPy warned "divide by zero" and the diagonal was NaN
        message = re.escape(f"sigma must lie in [1e-150, inf), got {sigma!r}")
        with pytest.raises(InvalidParameterError, match=message):
            make_gaussian_smoothing(SpatialGrid(0.0, 1.0, 4), sigma)

    @pytest.mark.parametrize(
        "sigma, kernel", [(1e-150, np.eye(4)), (1e200, np.ones((4, 4))), (np.float64(1e200), np.ones((4, 4)))]
    )
    def test_extreme_widths_without_warning(self, sigma, kernel):
        # the far pairs' exponents overflow at the smallest sigma, 2 sigma^2 itself at a huge one
        space = SpatialGrid(0.0, 1e10, 4)
        got = make_gaussian_smoothing(space, sigma).apply_rows(0, np.eye(4))
        np.testing.assert_array_equal(got, space.dx * kernel)

    def test_kernel_bits_for_ordinary_widths(self):
        space = SpatialGrid(0.0, 1.0, 16)
        x = space.nodes
        for sigma in (0.05, 0.1, 0.3, 1e3):
            expected = space.dx * np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * sigma * sigma))
            got = make_gaussian_smoothing(space, sigma).apply_rows(0, np.eye(16))  # row k: column k
            assert np.array_equal(got.T, expected)


class TestSubsampleObserver:
    def test_full_pattern_is_identity(self):
        fam = make_subsample_observer([list(range(5))] * 3, 5, weight=0.2)
        x = np.arange(5.0)
        for i in range(3):
            np.testing.assert_array_equal(fam.apply(i, x), x)

    def test_single_component(self):
        fam = make_subsample_observer([[0]], 4, weight=0.25)
        out = np.asarray(fam.apply(0, np.array([7.0, 1.0, 2.0, 3.0])))
        np.testing.assert_array_equal(out, [7.0, 0.0, 0.0, 0.0])

    def test_rotating_window_against_loop(self):
        n_t, dim, width = 6, 5, 3
        pattern = rotating_window_pattern(n_t, dim, width)
        fam = make_subsample_observer(pattern, dim, weight=0.2)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(dim)
        for i in range(n_t):
            kept = sorted((i + l) % dim for l in range(width))
            expected = np.array([x[j] if j in kept else 0.0 for j in range(dim)])
            np.testing.assert_array_equal(np.asarray(fam.apply(i, x)), expected)

    def test_unit_norm_bound(self):
        fam = make_subsample_observer([[1, 2]], 4, weight=0.25)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(4)
            out = np.asarray(fam.apply(0, x))
            assert _row_norms(out, 0.25, 2.0) <= _row_norms(x, 0.25, 2.0) * (1 + 1e-12)

    def test_rejects_empty_set(self):
        with pytest.raises(InvalidParameterError):
            make_subsample_observer([[]], 4, weight=0.25)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            make_subsample_observer([[4]], 4, weight=0.25)

    @pytest.mark.parametrize("width", [0, 6])
    def test_rejects_window_width_out_of_range(self, width):
        with pytest.raises(InvalidParameterError, match=r"window width must lie in \{1, \.\.\., 5\}"):
            rotating_window_pattern(6, 5, width)


class TestScalingFamily:
    def test_half_node_doubles(self):
        grid = TimeGrid(1.0, 1)  # single midpoint node at t = 0.5
        fam = make_scaling_family(grid, 3, weight=1.0 / 3)
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(fam.apply(0, x), 2.0 * x)

    def test_refinement_doubles_peak(self):
        # first node t_0 = T/(2 n_t), so the largest gain is 2 n_t / T
        for n_t in (4, 8):
            grid = TimeGrid(1.0, n_t)
            fam = make_scaling_family(grid, 2, weight=0.5)
            gain = np.linalg.norm(np.asarray(fam.apply(0, np.ones(2))))
            assert gain == pytest.approx(2.0 * n_t * np.sqrt(2.0), rel=1e-13)

    def test_constant_input_norm_oracle(self):
        grid = TimeGrid(1.0, 10)
        space = SpatialGrid(0.0, 1.0, 4)
        fam = make_scaling_family(grid, 4, weight=space.dx)
        forward = DynamicForward(POINTWISE, fam, grid)
        e = np.ones(4)
        theta = forward.source_template(np.tile(e, (10, 1)))
        out_norm = bochner_norm(apply_forward(forward, theta))
        e_norm = math.sqrt(math.fsum(space.dx * e * e))
        expected = np.sqrt(sum(grid.dt * t ** (-2.0) for t in grid.nodes)) * e_norm
        assert out_norm == pytest.approx(expected, rel=1e-13)


class TestCausalKernel:
    def test_delta_kernel_is_identity(self):
        grid = TimeGrid(1.0, 5)
        samples = np.zeros(5)
        samples[0] = 1.0 / grid.dt
        kernel = make_causal_kernel(grid, samples)
        forward = DynamicForward(
            ACCUMULATE_THEN_OBSERVE, identity_family(3, weight=1.0 / 3), grid, kernel
        )
        rng = np.random.default_rng(4)
        theta = forward.source_template(rng.standard_normal((5, 3)))
        out = apply_forward(forward, theta)
        np.testing.assert_allclose(out.values, theta.values, rtol=0, atol=1e-15)

    def test_zero_input(self):
        grid = TimeGrid(1.0, 4)
        kernel = make_causal_kernel(grid, np.ones(4))
        forward = DynamicForward(
            OBSERVE_THEN_ACCUMULATE, identity_family(2, weight=0.5), grid, kernel
        )
        theta = forward.source_template(np.zeros((4, 2)))
        assert bochner_norm(apply_forward(forward, theta)) == 0.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionError):
            make_causal_kernel(TimeGrid(1.0, 4), np.ones(3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_sample(self, bad):
        message = re.escape(f"kernel must be finite, got {bad} at (2,)")
        with pytest.raises(InvalidInputError, match=message):
            make_causal_kernel(TimeGrid(1.0, 4), [1.0, 0.5, bad, 0.25])


class TestKernelCsv:
    SAMPLES = ["1e-3", "+2.5", "-3E+2", ".5"]

    @pytest.mark.parametrize("header", [None, "a", "k,a"])
    @pytest.mark.parametrize("columns", [1, 2])
    def test_samples_and_optional_header(self, tmp_path, header, columns):
        rows = [s if columns == 1 else f"{k},{s}" for k, s in enumerate(self.SAMPLES)]
        if header is not None:
            rows.insert(0, header)
        path = tmp_path / "kernel.csv"
        path.write_text("\n".join(rows) + "\n")
        kernel = load_kernel_csv(str(path), TimeGrid(1.0, 4))
        np.testing.assert_array_equal(kernel, [1e-3, 2.5, -300.0, 0.5])

    def test_unparsable_row(self, tmp_path):
        path = tmp_path / "kernel.csv"
        path.write_text("k,a\n0,1\n1,x\n")
        with pytest.raises(InvalidInputError):
            load_kernel_csv(str(path), TimeGrid(1.0, 2))

    def test_unparsable_pattern_row(self, tmp_path):
        path = tmp_path / "pattern.csv"
        path.write_text("0,1\n1,x\n")
        with pytest.raises(InvalidInputError, match="unparsable pattern row"):
            load_pattern_csv(str(path), TimeGrid(1.0, 2))


class TestApplyForward:
    def test_identity_composition(self):
        problem = make_identity_problem(5, 4)
        rng = np.random.default_rng(5)
        theta = problem.forward.source_template(rng.standard_normal((5, 4)))
        np.testing.assert_array_equal(apply_forward(problem.forward, theta).values, theta.values)

    def test_scaling_cancellation(self):
        # theta(t_i) = t_i * e passes through S(t) = (1/t) I unchanged
        grid = TimeGrid(2.0, 6)
        fam = make_scaling_family(grid, 3, weight=1.0 / 3)
        forward = DynamicForward(POINTWISE, fam, grid)
        e = np.array([1.0, -1.0, 2.0])
        theta = forward.source_template(np.outer(grid.nodes, e))
        out = apply_forward(forward, theta)
        np.testing.assert_allclose(out.values, np.tile(e, (6, 1)), rtol=1e-14)

    def test_gaussian_impulse_matches_dense_column(self):
        space = SpatialGrid(0.0, 1.0, 9)
        fam = make_gaussian_smoothing(space, 0.15)
        dense = np.empty((9, 9))
        for i in range(9):
            for j in range(9):
                dense[i, j] = space.dx * np.exp(
                    -((space.nodes[i] - space.nodes[j]) ** 2) / (2 * 0.15**2)
                )
        for j in range(9):
            impulse = np.zeros(9)
            impulse[j] = 1.0
            np.testing.assert_allclose(
                np.asarray(fam.apply(0, impulse)), dense[:, j], rtol=1e-13
            )

    def test_causal_sum_matches_toeplitz_oracle(self):
        grid = TimeGrid(1.5, 7)
        rng = np.random.default_rng(6)
        samples = rng.standard_normal(7)
        kernel = make_causal_kernel(grid, samples)
        forward = DynamicForward(
            ACCUMULATE_THEN_OBSERVE, identity_family(1, weight=1.0), grid, kernel
        )
        g = rng.standard_normal((7, 1))
        theta = forward.source_template(g)
        lower = dense_causal_matrix(samples, grid.dt, 7)
        np.testing.assert_allclose(
            apply_forward(forward, theta).values[:, 0], lower @ g[:, 0], rtol=1e-13
        )

    @pytest.mark.parametrize("kind", [ACCUMULATE_THEN_OBSERVE, OBSERVE_THEN_ACCUMULATE])
    def test_time_varying_family_order(self, kind):
        # S(t_i) = (1/t_i) I does not commute with the causal sum, so the
        # order of observation and accumulation shows in both maps
        grid = TimeGrid(1.0, 7)
        fam = make_scaling_family(grid, 3, weight=1.0 / 3)
        kernel = make_causal_kernel(grid, np.exp(-grid.nodes))
        forward = DynamicForward(kind, fam, grid, kernel)
        rng = np.random.default_rng(11)
        theta, y = rng.standard_normal((7, 3)), rng.standard_normal((7, 3))
        scale = 1.0 / grid.nodes[:, None]
        if kind == ACCUMULATE_THEN_OBSERVE:
            image = causal_sum_reference(kernel, grid.dt, scale * theta)
            back = scale * anticausal_sum_reference(kernel, grid.dt, y)
        else:
            image = scale * causal_sum_reference(kernel, grid.dt, theta)
            back = anticausal_sum_reference(kernel, grid.dt, scale * y)
        out = apply_forward(forward, forward.source_template(theta)).values
        np.testing.assert_allclose(out, image, rtol=1e-13)
        out = apply_adjoint(forward, forward.data_template(y)).values
        np.testing.assert_allclose(out, back, rtol=1e-13)

    def test_dimension_mismatch(self):
        problem = make_dct_analogue(4, 6)
        wrong = BochnerFunction(TimeGrid(1.0, 4), np.zeros((4, 5)))
        with pytest.raises(DimensionError):
            apply_forward(problem.forward, wrong)
        with pytest.raises(DimensionError, match="data must lie in the data space: 6 components .* got 5"):
            apply_adjoint(problem.forward, wrong)

    @pytest.mark.parametrize(
        "field",
        ["source_exponent", "source_space_exponent", "data_exponent", "data_space_exponent"],
    )
    @pytest.mark.parametrize("value", [float("inf"), 0.5, float("nan")])
    def test_exponents_checked_at_construction(self, field, value):
        with pytest.raises(InvalidParameterError, match=field.replace("_", " ")):
            DynamicForward(POINTWISE, identity_family(2), TimeGrid(1.0, 3), **{field: value})

    @pytest.mark.parametrize(
        "kind, kernel, fragment",
        [
            ("sideways", None, "unknown composition kind 'sideways'"),
            (POINTWISE, np.ones(3), "pointwise composition takes no kernel"),
            (ACCUMULATE_THEN_OBSERVE, None, "accumulate_then_observe needs kernel samples"),
            (OBSERVE_THEN_ACCUMULATE, None, "observe_then_accumulate needs kernel samples"),
        ],
        ids=["unknown-kind", "pointwise-with-kernel", "ato-without", "ota-without"],
    )
    def test_kind_and_kernel_checked_at_construction(self, kind, kernel, fragment):
        with pytest.raises(InvalidParameterError, match=fragment):
            DynamicForward(kind, identity_family(2), TimeGrid(1.0, 3), kernel)

    @pytest.mark.parametrize("side", ["forward", "adjoint"])
    @pytest.mark.parametrize(
        "grid, weight, fragment",
        [
            (TimeGrid(1.0, 5), 0.5, "got 2 on TimeGrid(horizon=1.0, n_t=5, dt=0.2) with weight 0.5"),
            (TimeGrid(2.0, 4), 0.5, "got 2 on TimeGrid(horizon=2.0, n_t=4, dt=0.5) with weight 0.5"),
            (TimeGrid(1.0, 4), 0.25, "got 2 on TimeGrid(horizon=1.0, n_t=4, dt=0.25) with weight 0.25"),
        ],
        ids=["n_t", "horizon", "weight"],
    )
    def test_rejects_function_of_another_space(self, side, grid, weight, fragment):
        forward = DynamicForward(POINTWISE, identity_family(2, weight=0.5), TimeGrid(1.0, 4))
        u = BochnerFunction(grid, np.ones((grid.n_t, 2)), space_weight=weight)
        apply, name = (apply_forward, "input") if side == "forward" else (apply_adjoint, "data")
        space = "source" if side == "forward" else "data"
        message = f"{name} must lie in the {space} space: 2 components on {forward.time_grid} "
        with pytest.raises(DimensionError, match=re.escape(message) + ".*" + re.escape(fragment)):
            apply(forward, u)


@st.composite
def causal_cases(draw):
    """An accumulate kind on n_t nodes, per-node matrices of a drawn width, a kernel holding
    zeros and -0.0, source rows, a cut, and a perturbation of every node after it."""
    kind = draw(st.sampled_from([ACCUMULATE_THEN_OBSERVE, OBSERVE_THEN_ACCUMULATE]))
    n_t, width, n_out = draw(st.integers(1, 24)), draw(st.integers(1, 70)), draw(st.integers(1, 3))
    cut = draw(st.integers(0, n_t - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernel = rng.standard_normal(n_t)
    kernel[rng.random(n_t) < 0.25] = 0.0
    kernel[rng.random(n_t) < 0.25] = -0.0
    mats = rng.standard_normal((n_t, n_out, width))
    fam = OperatorFamily(width, n_out, lambda i, x: mats[i] @ x, lambda i, y: mats[i].T @ y)
    forward = DynamicForward(kind, fam, TimeGrid(1.0, n_t), kernel)
    base = rng.standard_normal((n_t, width))
    return forward, base, cut, rng.standard_normal((n_t - cut - 1, width))


class TestCausality:
    """Perturbing the future must leave past outputs bit-identical."""

    @pytest.mark.parametrize("kind", [ACCUMULATE_THEN_OBSERVE, OBSERVE_THEN_ACCUMULATE])
    def test_future_perturbation_invisible(self, kind):
        n_t = 16
        grid = TimeGrid(1.0, n_t)
        space = SpatialGrid(0.0, 1.0, 5)
        rng = np.random.default_rng(7)
        kernel = make_causal_kernel(grid, rng.standard_normal(n_t))
        fam = make_gaussian_smoothing(space, 0.2)
        forward = DynamicForward(kind, fam, grid, kernel)
        base = rng.standard_normal((n_t, 5))
        out_base = apply_forward(forward, forward.source_template(base)).values
        for cut in range(n_t):
            bumped = base.copy()
            bumped[cut:] += rng.standard_normal((n_t - cut, 5))
            out = apply_forward(forward, forward.source_template(bumped)).values
            assert np.array_equal(out[:cut], out_base[:cut])

    @settings(max_examples=80, deadline=None)
    @given(causal_cases())
    def test_prefixes_bit_identical(self, case):
        forward, base, cut, bump = case
        out_base = apply_forward(forward, forward.source_template(base)).values
        bumped = base.copy()
        bumped[cut + 1 :] += bump
        out = apply_forward(forward, forward.source_template(bumped)).values
        assert np.array_equal(out[: cut + 1].view(np.int64), out_base[: cut + 1].view(np.int64))

    def test_pointwise_locality(self):
        problem = make_dct_analogue(6, 5)
        rng = np.random.default_rng(8)
        base = rng.standard_normal((6, 5))
        out_base = apply_forward(problem.forward, problem.forward.source_template(base)).values
        bumped = base.copy()
        bumped[3] += 1.0
        out = apply_forward(problem.forward, problem.forward.source_template(bumped)).values
        changed = [i for i in range(6) if not np.array_equal(out[i], out_base[i])]
        assert changed == [3]


class TestCausalSums:
    """The vectorized sums keep the reference loops' order, so they agree bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(causal_sum_inputs())
    def test_causal_sum_bit_identical_to_loop(self, args):
        assert np.array_equal(_ordered_sum(*args, True), causal_sum_reference(*args))

    @settings(max_examples=200, deadline=None)
    @given(causal_sum_inputs())
    def test_anticausal_sum_bit_identical_to_loop(self, args):
        assert np.array_equal(_ordered_sum(*args, False), anticausal_sum_reference(*args))


SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def blocked_sum_inputs(draw):
    """Sum inputs holding +0.0 and -0.0, a zero prefix (or as many causal outputs
    not formed), and a block size in source rows."""
    n_t = draw(st.integers(1, 40))
    kernel = draw(arrays(float, n_t, elements=SIGNED))
    rows = draw(arrays(float, (n_t, draw(st.integers(1, 4))), elements=SIGNED))
    start = draw(st.integers(0, n_t))
    zero_prefix = rows.copy()
    zero_prefix[:start] *= 0.0  # keeps each zero's sign
    block = draw(st.integers(1, n_t + 2))  # 1: the one-row blocks of wide rows
    return kernel, draw(st.floats(1e-4, 10.0)), rows, zero_prefix, start, block


def blocks_of(block: int, rows: np.ndarray):
    """Patch the ordered-sum kernel so that its blocks hold `block` source rows."""
    return mock.patch.object(operators, "_TERM_BUDGET", block * rows.size)


def narrow_stack(n_t: int, width: int, seed: int, dt: float):
    """A kernel and rows spanning twelve decades, a fifth of the rows -0.0 or +0.0."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n_t, width)) * 10.0 ** rng.integers(-6, 7, (n_t, 1))
    rows[rng.random(n_t) < 0.2] *= -0.0
    return rng.standard_normal(n_t), dt, rows


@st.composite
def long_narrow_inputs(draw):
    """Stacks long enough that the kernel's own budget splits them into several blocks."""
    n_t, width = draw(st.integers(182, 260)), draw(st.integers(1, 2))
    return narrow_stack(n_t, width, draw(st.integers(0, 2**32 - 1)), draw(st.floats(1e-4, 10.0)))


class TestOrderedSumKernel:
    """Blocked sums equal the term-by-term loops byte for byte, sign of zero included."""

    @settings(max_examples=200, deadline=None)
    @given(blocked_sum_inputs())
    def test_blocked_sums_match_reference_bytes(self, args):
        kernel, dt, rows, zero_prefix, start, block = args
        with blocks_of(block, rows):
            causal = _ordered_sum(kernel, dt, rows, True)
            anticausal = _ordered_sum(kernel, dt, rows, False)
            skipped = _ordered_sum(kernel, dt, zero_prefix, False, start)
            kept = operators._ordered_sum(kernel, dt, rows, True, start)
        assert causal.tobytes() == causal_sum_reference(kernel, dt, rows).tobytes()
        assert kept.tobytes() == causal[start:].tobytes()
        assert anticausal.tobytes() == anticausal_sum_reference(kernel, dt, rows).tobytes()
        assert skipped.tobytes() == anticausal_sum_reference(kernel, dt, zero_prefix).tobytes()

    @settings(max_examples=8, deadline=None)
    @given(long_narrow_inputs())
    def test_long_narrow_stacks_match_reference_bytes(self, args):
        kernel, dt, rows = args
        assert len(rows) > operators._TERM_BUDGET // rows.size  # more than one block
        assert _ordered_sum(*args, True).tobytes() == causal_sum_reference(*args).tobytes()
        assert _ordered_sum(*args, False).tobytes() == anticausal_sum_reference(*args).tobytes()

    @pytest.mark.parametrize("n_t, width", [(530, 1), (80, 256)])
    def test_long_and_wide_stacks_match_reference_bytes(self, n_t, width):
        # blocks of 61 rows, and of one row (more entries than half the budget)
        args = narrow_stack(n_t, width, n_t, 0.01)
        assert _ordered_sum(*args, True).tobytes() == causal_sum_reference(*args).tobytes()
        assert _ordered_sum(*args, False).tobytes() == anticausal_sum_reference(*args).tobytes()

    @pytest.mark.parametrize("block", [None, 2, 7])
    def test_single_lane_sums_fold_in_ascending_order(self, block):
        # 2**53 + 1 rounds back to 2**53, so only a left-to-right fold keeps 2**53
        rows = np.ones((200, 1))
        rows[0] = 2.0**53
        with blocks_of(block, rows) if block else contextlib.nullcontext():
            causal = _ordered_sum(np.ones(200), 1.0, rows, True)
            anticausal = _ordered_sum(np.ones(200), 1.0, rows, False)
        assert np.all(causal == 2.0**53)
        assert anticausal[0, 0] == 2.0**53
        np.testing.assert_array_equal(anticausal[1:, 0], np.arange(199, 0, -1))

    @pytest.mark.parametrize("block", [1, 2, 5, 64])
    def test_inf_in_a_later_row_leaves_earlier_outputs_bit_identical(self, block):
        rng = np.random.default_rng(3)
        kernel = rng.standard_normal(40)
        kernel[::3] = 0.0
        rows = rng.standard_normal((40, 2))
        with blocks_of(block, rows), np.errstate(invalid="ignore"):  # 0 * inf where reached
            causal = _ordered_sum(kernel, 0.1, rows, True)
            anticausal = _ordered_sum(kernel, 0.1, rows, False)
            for cut in range(40):
                bumped = rows.copy()
                bumped[cut] = [np.inf, -np.inf]
                earlier = _ordered_sum(kernel, 0.1, bumped, True)[:cut]
                assert earlier.tobytes() == causal[:cut].tobytes()
                later = _ordered_sum(kernel, 0.1, bumped, False)[cut + 1 :]
                assert later.tobytes() == anticausal[cut + 1 :].tobytes()

    @pytest.mark.parametrize("block", [1, 2, 5, 64])
    @pytest.mark.parametrize("width", [1, 2])
    def test_kept_rows_before_an_inf_row_are_bit_identical(self, block, width):
        # every keep, a one-wide sum's last outputs among them (one lane would fold pairwise)
        kernel, dt, rows = narrow_stack(40, width, 5, 0.1)
        kernel[::3] = 0.0
        full = _ordered_sum(kernel, dt, rows, True)
        rng = np.random.default_rng(5)
        with blocks_of(block, rows), np.errstate(invalid="ignore"):  # 0 * inf where reached
            for keep in range(40):
                assert _ordered_sum(kernel, dt, rows, True, keep).tobytes() == full[keep:].tobytes()
                cut = rng.integers(keep, 40)
                bumped = rows.copy()
                bumped[cut] = np.inf
                kept = _ordered_sum(kernel, dt, bumped, True, keep)
                assert kept.shape == (40 - keep, width)
                assert kept[: cut - keep].tobytes() == full[keep:cut].tobytes()

    @pytest.mark.parametrize("batch", [(1,), (5,), (2, 3), (2, 1, 3)])
    def test_batch_axes_fold_into_the_width(self, batch):
        # each stack's sums are its own, bit for bit, however the lanes are ordered
        kernel, dt, rows = narrow_stack(30, 2, len(batch), 0.05)
        stacks = np.random.default_rng(7).standard_normal((*batch, 30, 2)) * rows
        for causal, first in [(True, 0), (True, 29), (False, 0), (False, 11)]:
            got = operators._ordered_sum(kernel, dt, stacks, causal, first)
            for k in np.ndindex(*batch):
                alone = operators._ordered_sum(kernel, dt, stacks[k], causal, first)
                assert got[k].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0)])
    def test_empty_stacks(self, shape):
        kernel = np.ones(shape[0])
        assert _ordered_sum(kernel, 0.5, np.zeros(shape), True).shape == shape
        assert _ordered_sum(kernel, 0.5, np.zeros(shape), False).shape == shape

    def test_add_reduce_folds_two_lanes_or_more_in_ascending_order(self):
        # The kernel adds a block's terms with np.add.reduce over the leading
        # axis into a contiguous block of output rows; a single lane (the last
        # assertion) is summed pairwise, which only a one-row block reduces.
        column = np.array([2.0**53] + [1.0] * 39)
        for n_rows in (2, 3, 8, 9, 40):
            for lanes in ((1, 2), (2, 1), (3, 5), (1, 17)):
                terms = np.broadcast_to(column[:n_rows, None, None], (n_rows,) + lanes).copy()
                sums = np.zeros(lanes)
                np.add.reduce(terms, axis=0, out=sums)
                assert np.all(sums == 2.0**53)
        assert np.add.reduce(column[:9]) != 2.0**53

    @pytest.mark.parametrize("n_t, width, bound_mb", [(1024, 64, 4.0), (512, 1, 1.0)])
    def test_scratch_memory_stays_bounded(self, n_t, width, bound_mb):
        # n_t**2 * width products at once would take 512 MB and 2 MB here
        rng = np.random.default_rng(0)
        kernel, rows = rng.standard_normal(n_t), rng.standard_normal((n_t, width))
        for causal in (True, False):
            tracemalloc.start()
            try:
                _ordered_sum(kernel, 0.01, rows, causal)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound_mb * 2**20


class MaskSpy:
    """A stand-in for the operators module's np that records every np.multiply where= mask."""

    def __init__(self):
        self.masks = []

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, *args, where, **kwargs):
        self.masks.append(where)
        return np.multiply(*args, where=where, **kwargs)


def per_call_masks(n_t: int, width: int, causal: bool, start: int) -> list[np.ndarray]:
    """Each block's reach mask as a fresh comparison of node indices, block by block."""
    step = max(1, operators._TERM_BUDGET // (n_t * width))
    node = np.arange(n_t)
    reaches = np.greater_equal if causal else np.less_equal
    masks = []
    for s0 in range(start, n_t, step):
        s1 = min(s0 + step, n_t)
        span = slice(s0, None) if causal else slice(s1)
        masks.append(reaches(node[span], node[s0:s1, None])[:, :, None])
    return masks


class TestReachMasks:
    """The ordered sums take their reach masks as read-only views of one cached pattern."""

    # n_t at the one-block / two-block boundary, and around _TERM_BUDGET // width
    # (one-row blocks), for widths 1, 12 and 64
    @pytest.mark.parametrize(
        "width, n_t",
        [(1, 181), (1, 182), (12, 52), (12, 53), (12, 2730), (12, 2731), (64, 22), (64, 23),
         (64, 511), (64, 512), (64, 513)],
    )
    def test_views_equal_per_call_comparison(self, width, n_t):
        rng = np.random.default_rng(n_t)
        kernel, rows = rng.standard_normal(n_t), rng.standard_normal((n_t, width))
        for causal, start in [(True, 0), (False, 0), (False, n_t // 3)]:
            spy = MaskSpy()
            with mock.patch.object(operators, "np", spy):
                operators._ordered_sum(kernel, 0.1, rows, causal, start)
            expected = per_call_masks(n_t, width, causal, start)
            assert len(spy.masks) == len(expected)
            for got, want in zip(spy.masks, expected):
                assert got.shape == want.shape and np.array_equal(got, want)
                assert not got.flags.writeable
                assert got.base.size <= max(n_t, operators._TERM_BUDGET)

    def test_cache_has_a_fixed_bound(self):
        operators._reach_pattern.cache_clear()
        for n_t in range(1, 200):
            _ordered_sum(np.ones(n_t), 1.0, np.ones((n_t, 1)), True)
        info = operators._reach_pattern.cache_info()
        assert info.maxsize == 64 and info.currsize == 64
        pattern = operators._reach_pattern(3, 5)
        assert not pattern.flags.writeable
        np.testing.assert_array_equal(pattern, np.triu(np.ones((3, 5), bool)))

    @pytest.mark.parametrize("block", [None, 1, 3])
    def test_inf_in_a_later_row_of_a_wide_stack(self, block):
        # 40 x 64: blocks of 12 rows under the default budget
        rng = np.random.default_rng(4)
        kernel = rng.standard_normal(40)
        kernel[::3] = 0.0
        rows = rng.standard_normal((40, 64))
        with blocks_of(block, rows) if block else contextlib.nullcontext():
            causal = _ordered_sum(kernel, 0.1, rows, True)
            anticausal = _ordered_sum(kernel, 0.1, rows, False)
            for cut in range(0, 40, 3):
                bumped = rows.copy()
                bumped[cut] = np.inf
                bumped[cut, ::2] = -np.inf
                with np.errstate(invalid="ignore"):  # 0 * inf where reached
                    earlier = _ordered_sum(kernel, 0.1, bumped, True)[:cut]
                    later = _ordered_sum(kernel, 0.1, bumped, False)[cut + 1 :]
                assert earlier.tobytes() == causal[:cut].tobytes()
                assert later.tobytes() == anticausal[cut + 1 :].tobytes()


class TestAdjoints:
    def test_identity_adjoint(self):
        problem = make_identity_problem(4, 3)
        rng = np.random.default_rng(9)
        y = problem.forward.data_template(rng.standard_normal((4, 3)))
        np.testing.assert_array_equal(apply_adjoint(problem.forward, y).values, y.values)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_dct_analogue(6, 8),
            lambda: make_mpi_analogue(6, 8),
            lambda: make_nonuniform_example(6, 8),
            lambda: make_identity_problem(6, 8),
        ],
    )
    def test_forward_adjoint_pairing(self, make):
        problem = make()
        forward = problem.forward
        rng = np.random.default_rng(10)
        for _ in range(25):
            u = forward.source_template(rng.standard_normal((6, forward.static.n_in)))
            v = forward.data_template(rng.standard_normal((6, forward.static.n_out)))
            lhs = holder_pairing(apply_forward(forward, u), v)[0]
            rhs = holder_pairing(u, apply_adjoint(forward, v))[0]
            assert abs(lhs - rhs) <= 1e-10 * bochner_norm(u) * bochner_norm(v)

    def test_causal_adjoint_matches_dense_transpose(self):
        grid = TimeGrid(1.0, 8)
        rng = np.random.default_rng(11)
        samples = rng.standard_normal(8)
        kernel = make_causal_kernel(grid, samples)
        forward = DynamicForward(
            ACCUMULATE_THEN_OBSERVE, identity_family(1, weight=1.0), grid, kernel
        )
        lower = dense_causal_matrix(samples, grid.dt, 8)
        v = rng.standard_normal((8, 1))
        out = apply_adjoint(forward, forward.data_template(v))
        np.testing.assert_allclose(out.values[:, 0], lower.T @ v[:, 0], rtol=1e-13)

    def test_family_adjoints_all_builders(self):
        space = SpatialGrid(0.0, 1.0, 7)
        grid = TimeGrid(1.0, 5)
        cases = [
            (make_gaussian_smoothing(space, 0.3), space.dx, space.dx),
            (make_subsample_observer(rotating_window_pattern(5, 7, 4), 7, space.dx),
             space.dx, space.dx),
            (make_scaling_family(grid, 7, space.dx), space.dx, space.dx),
            (identity_family(7, space.dx), space.dx, space.dx),
        ]
        for fam, w_in, w_out in cases:
            gap = family_adjoint_gap(fam, range(5), seed=12, in_weight=w_in, out_weight=w_out)
            assert gap <= 1e-10


class TestLinearity:
    @pytest.mark.parametrize("make", [make_dct_analogue, make_mpi_analogue])
    def test_superposition(self, make):
        problem = make(5, 6)
        forward = problem.forward
        rng = np.random.default_rng(13)
        u = forward.source_template(rng.standard_normal((5, 6)))
        v = forward.source_template(rng.standard_normal((5, 6)))
        left = apply_forward(forward, 2.0 * u - 0.5 * v)
        right = 2.0 * apply_forward(forward, u) - 0.5 * apply_forward(forward, v)
        assert bochner_norm(left - right) <= 1e-12 * max(bochner_norm(right), 1.0)
