"""The row contract of OperatorFamily: stacked rows equal per-node calls bit for bit.

Every built-in family evaluates a stack of rows in one NumPy expression.
These tests compare each row form with the per-node expressions the
families used to evaluate node by node (the oracles below), check that the
evaluation path never falls back to the per-node stacking loop, and check
that a row form over a per-node table refuses nodes past the table's end.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynreg import (
    ACCUMULATE_THEN_OBSERVE,
    DimensionError,
    DynamicForward,
    OBSERVE_THEN_ACCUMULATE,
    OperatorFamily,
    POINTWISE,
    SpatialGrid,
    TimeGrid,
    apply_adjoint,
    apply_forward,
    compose,
    identity_family,
    make_causal_kernel,
    make_dct_analogue,
    make_gaussian_smoothing,
    make_mpi_analogue,
    make_nonuniform_example,
    make_scaling_family,
    make_subsample_observer,
    rotating_window_pattern,
    temporal_spectrum,
    tikhonov_temporal,
    time_subproblems,
)
from dynreg.operators import KINDS, _adjoint_rows, _forward_rows, _ordered_sum


def gaussian_matrix(space: SpatialGrid, sigma: float) -> np.ndarray:
    x = space.nodes
    return space.dx * np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * sigma * sigma))


def mpi_profiles(n_t: int, n_x: int) -> np.ndarray:
    space, grid = SpatialGrid(0.0, 1.0, n_x), TimeGrid(1.0, n_t)
    return np.sin(2.0 * np.pi * (space.nodes[None, :] + grid.nodes[:, None] / 1.0))


def families(n_t: int, n_x: int, sigma: float, width: int):
    """(name, family, per-node forward oracle, per-node adjoint oracle) of every
    built-in and of compositions of them; each oracle is the expression the
    family evaluated node by node before it had a row form."""
    space, grid = SpatialGrid(0.0, 1.0, n_x), TimeGrid(1.0, n_t)
    pattern = rotating_window_pattern(n_t, n_x, width)
    masks = np.zeros((n_t, n_x))
    for i, idx in enumerate(pattern):
        masks[i, idx] = 1.0
    kernel = gaussian_matrix(space, sigma)
    profiles = mpi_profiles(n_t, n_x)
    smoothing = make_gaussian_smoothing(space, sigma)
    observer = make_subsample_observer(pattern, n_x, space.dx)
    scaling = make_scaling_family(grid, n_x, space.dx)
    identity = identity_family(n_x, space.dx)
    sensing = make_mpi_analogue(n_t, n_x).forward.static

    def gauss(i, x):
        return kernel @ x

    def mask(i, x):
        return masks[i] * x

    def scale(i, x):
        return x / grid.nodes[i]

    def ident(i, x):
        return np.array(x, dtype=float)

    def sense(i, c):
        return np.array([space.dx * float(profiles[i] @ c)])

    def sense_adjoint(i, v):
        return profiles[i] * float(v[0])

    def then(f, g):
        return lambda i, x: g(i, f(i, x))

    return [
        ("gaussian", smoothing, gauss, gauss),
        ("masks", observer, mask, mask),
        ("scaling", scaling, scale, scale),
        ("identity", identity, ident, ident),
        ("mpi", sensing, sense, sense_adjoint),
        ("masks.gaussian", compose(observer, smoothing), then(gauss, mask), then(mask, gauss)),
        ("scaling.gaussian", compose(scaling, smoothing), then(gauss, scale), then(scale, gauss)),
        (
            "mpi.scaling.gaussian",
            compose(sensing, compose(scaling, smoothing)),
            then(then(gauss, scale), sense),
            then(then(sense_adjoint, scale), gauss),
        ),
        ("gaussian.identity", compose(smoothing, identity), then(ident, gauss), then(gauss, ident)),
    ]


def counted(node, counts: dict):
    """node with its calls counted in counts["node"]."""

    def call(i, x):
        counts["node"] += 1
        return node(i, x)

    return call


def stacked(node, first, X):
    return np.array([node(first + k, x) for k, x in enumerate(X)], dtype=float)


class Unrollable(np.ndarray):
    """A stack whose rows cannot be iterated: a per-node stacking loop fails on it."""

    def __iter__(self):
        raise AssertionError("a row form iterated over its rows")


@st.composite
def row_cases(draw):
    n_t = draw(st.integers(1, 9))
    n_x = draw(st.integers(1, 70))
    first = draw(st.integers(0, n_t - 1))
    count = draw(st.integers(1, n_t - first))
    sigma = draw(st.floats(0.02, 0.5))
    width = draw(st.integers(1, n_x))
    seed = draw(st.integers(0, 2**32 - 1))
    return n_t, n_x, first, count, sigma, width, seed


class TestRowContract:
    @settings(max_examples=60, deadline=None)
    @given(row_cases())
    def test_row_forms_equal_per_node_evaluation(self, case):
        n_t, n_x, first, count, sigma, width, seed = case
        rng = np.random.default_rng(seed)
        for name, fam, forward_oracle, adjoint_oracle in families(n_t, n_x, sigma, width):
            X = rng.standard_normal((count, fam.n_in))
            Y = rng.standard_normal((count, fam.n_out))
            # a built-in maps the stack whole: a stacking loop would iterate it
            rows = fam.apply_rows(first, X.view(Unrollable))
            back = fam.adjoint_rows(first, Y.view(Unrollable))
            assert np.array_equal(rows, stacked(forward_oracle, first, X)), name
            assert np.array_equal(back, stacked(adjoint_oracle, first, Y)), name
            assert np.array_equal(rows, stacked(fam.apply, first, X)), name
            assert np.array_equal(back, stacked(fam.adjoint_apply, first, Y)), name

    @settings(max_examples=30, deadline=None)
    @given(row_cases())
    def test_per_node_family_gets_its_stacking(self, case):
        n_t, n_x, first, count, _, _, seed = case
        rng = np.random.default_rng(seed)
        mats = rng.standard_normal((n_t, 3, n_x))
        fam = OperatorFamily(n_x, 3, lambda i, x: mats[i] @ x, lambda i, y: list(mats[i].T @ y))
        X = rng.standard_normal((count, n_x))
        Y = rng.standard_normal((count, 3))
        assert np.array_equal(fam.apply_rows(first, X), stacked(fam.apply, first, X))
        assert np.array_equal(fam.adjoint_rows(first, Y), stacked(fam.adjoint_apply, first, Y))

    @pytest.mark.parametrize("built_in", [True, False])
    def test_replaced_apply_is_the_one_the_rows_use(self, built_in):
        double, triple = (lambda i, x: 2.0 * x), (lambda i, x: 3.0 * x)
        if built_in:
            fam = make_gaussian_smoothing(SpatialGrid(0.0, 1.0, 4), 0.2)
        else:
            fam = OperatorFamily(4, 4, double, double)
        replaced = dataclasses.replace(fam, apply=triple)
        X = np.arange(8.0).reshape(2, 4)
        assert np.array_equal(replaced.apply_rows(0, X), 3.0 * X)
        assert np.array_equal(replaced.adjoint_rows(0, X), stacked(fam.adjoint_apply, 0, X))


class TestLeadingBatchAxes:
    """A stack of stacks maps stack by stack: each gives its bytes alone."""

    @settings(max_examples=40, deadline=None)
    @given(row_cases(), st.sampled_from([(1,), (3,), (2, 3)]))
    def test_row_forms(self, case, batch):
        n_t, n_x, first, count, sigma, width, seed = case
        rng = np.random.default_rng(seed)
        for name, fam, _, _ in families(n_t, n_x, sigma, width):
            X = rng.standard_normal((*batch, count, fam.n_in))
            Y = rng.standard_normal((*batch, count, fam.n_out))
            rows, back = fam.apply_rows(first, X), fam.adjoint_rows(first, Y)
            assert rows.shape == (*batch, count, fam.n_out), name
            assert back.shape == (*batch, count, fam.n_in), name
            for k in np.ndindex(*batch):
                assert rows[k].tobytes() == fam.apply_rows(first, X[k]).tobytes(), name
                assert back[k].tobytes() == fam.adjoint_rows(first, Y[k]).tobytes(), name

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(KINDS),
        st.integers(1, 12),
        st.integers(1, 6),
        st.integers(1, 4),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_evaluation_path(self, kind, n_t, n_x, batch, per_node, seed):
        rng = np.random.default_rng(seed)
        grid, space = TimeGrid(1.0, n_t), SpatialGrid(0.0, 1.0, n_x)
        fam = make_gaussian_smoothing(space, 0.2)
        if per_node:  # the stacking loop over per-node callables
            fam = OperatorFamily(n_x, n_x, fam.apply, fam.adjoint_apply, space.dx, space.dx)
        kernel = None if kind == POINTWISE else rng.standard_normal(n_t)
        forward = DynamicForward(kind, fam, grid, kernel)
        values = rng.standard_normal((batch, n_t, n_x))
        values[rng.random(values.shape) < 0.2] = -0.0
        first = int(rng.integers(0, n_t))  # the row window: data rows first, first+1, ...
        source = values[:, first:] if kind == POINTWISE else values  # causal rows start at 0
        data = values[:, first:]
        got = _forward_rows(forward, source, first), _adjoint_rows(forward, data, first)
        for k in range(batch):
            assert got[0][k].tobytes() == _forward_rows(forward, source[k], first).tobytes()
            assert got[1][k].tobytes() == _adjoint_rows(forward, data[k], first).tobytes()
        if kind != POINTWISE:  # the window's rows of the whole map, signbits included
            padded = np.concatenate([np.zeros((batch, first, n_x)), data], axis=1)
            assert got[0].tobytes() == _forward_rows(forward, values)[:, first:].tobytes()
            assert got[1].tobytes() == _adjoint_rows(forward, padded).tobytes()


def matrix_forward(kind, mats, kernel, w_in, w_out) -> DynamicForward:
    """The map of kind over per-node matrices mats (n_t, n_out, n_in), adjoint in the weights."""
    n_t, n_out, n_in = mats.shape
    fam = OperatorFamily(
        n_in, n_out, lambda i, x: mats[i] @ x, lambda i, y: (w_out / w_in) * (mats[i].T @ y),
        w_in, w_out,
    )
    return DynamicForward(kind, fam, TimeGrid(1.0, n_t), kernel)


@st.composite
def row_windows(draw):
    """A map of any kind with random weights, per-node matrices of random shape and
    a kernel holding -0.0; a window [first, end); batch axes; source and data rows."""
    kind = draw(st.sampled_from(KINDS))
    n_t, n_in, n_out = draw(st.integers(1, 10)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    first = draw(st.integers(0, n_t - 1))
    end = draw(st.integers(first + 1, n_t))
    weights = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    batch = draw(st.sampled_from([(), (2,), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = rng.standard_normal((n_t, n_out, n_in))
    kernel = None
    if kind != POINTWISE:
        kernel = rng.standard_normal(n_t)
        kernel[rng.random(n_t) < 0.3] = -0.0
    v = rng.standard_normal((*batch, end - (first if kind == POINTWISE else 0), n_in))
    R = rng.standard_normal((*batch, end - first, n_out))
    return kind, mats, kernel, weights, first, v, R


class TestWindowedAdjoint:
    """The row window keeps the adjoint identity: with dt on both sides,
    <_forward_rows(F, v, first), R> = <v, _adjoint_rows(F, R, first)> per stack."""

    @settings(max_examples=150, deadline=None)
    @given(row_windows())
    def test_adjoint_identity(self, case):
        kind, mats, kernel, (w_in, w_out), first, v, R = case
        forward = matrix_forward(kind, mats, kernel, w_in, w_out)
        image, back = _forward_rows(forward, v, first), _adjoint_rows(forward, R, first)
        assert image.shape == R.shape and back.shape == v.shape
        dt = forward.time_grid.dt
        lhs = dt * w_out * (image * R).sum(axis=(-2, -1))
        rhs = dt * w_in * (v * back).sum(axis=(-2, -1))
        # rounding scale: the same pairing over absolute values, no cancellation
        bound = matrix_forward(kind, np.abs(mats), None if kernel is None else np.abs(kernel),
                               w_in, w_out)
        terms = dt * w_out * (_forward_rows(bound, np.abs(v), first) * np.abs(R)).sum(axis=(-2, -1))
        np.testing.assert_array_less(np.abs(lhs - rhs), 1e-13 * terms + 1e-300)


class TestNoPerNodeFallback:
    """The evaluation path of the built-in problems never calls a per-node map."""

    def test_stacking_loop_is_caught(self):
        fam = OperatorFamily(3, 3, lambda i, x: x, lambda i, x: x)
        with pytest.raises(AssertionError, match="iterated"):
            fam.apply_rows(0, np.ones((2, 3)).view(Unrollable))

    @staticmethod
    def with_counted_nodes(forward: DynamicForward, counts: dict) -> DynamicForward:
        """forward on a copy of its family whose per-node maps count their calls;
        the copy keeps the family's row forms (dataclasses.replace would
        rebuild them as stacking loops over the counted maps)."""
        fam = forward.static
        family = copy.copy(fam)
        object.__setattr__(family, "apply", counted(fam.apply, counts))
        object.__setattr__(family, "adjoint_apply", counted(fam.adjoint_apply, counts))
        return dataclasses.replace(forward, static=family)

    @staticmethod
    def exercise(forward: DynamicForward, data) -> None:
        rng = np.random.default_rng(0)
        n_t = forward.time_grid.n_t
        apply_forward(forward, forward.source_template(rng.standard_normal((n_t, forward.n_source))))
        apply_adjoint(forward, data)
        for sections in (None, 2):
            sub = time_subproblems(forward, data, 0.1, sections=sections)[-1]
            sub.apply(rng.standard_normal(forward.n_source))
            sub.adjoint(rng.standard_normal(sub.data.shape[0]))
        if forward.kind == POINTWISE:
            tikhonov_temporal(forward, data, 1e-2)
            temporal_spectrum(forward, n_t - 1)

    @pytest.mark.parametrize("make", [make_dct_analogue, make_mpi_analogue, make_nonuniform_example])
    def test_builtin_problems(self, make):
        problem = make(6, 5)
        counts = {"node": 0}
        self.exercise(self.with_counted_nodes(problem.forward, counts), problem.data_clean)
        assert counts["node"] == 0

    def test_counters_see_a_per_node_family(self):
        counts = {"node": 0}
        double = counted(lambda i, x: 2.0 * x, counts)
        forward = DynamicForward(POINTWISE, OperatorFamily(5, 5, double, double), TimeGrid(1.0, 6))
        self.exercise(forward, forward.data_template(np.ones((6, 5))))
        assert counts["node"] > 0


class TestNodeCoverage:
    """A family built for 5 nodes, used on an 8-node grid, refuses nodes 5..7."""

    @staticmethod
    def short_families():
        grid = TimeGrid(1.0, 5)
        observer = make_subsample_observer(rotating_window_pattern(5, 4, 2), 4)
        return [
            (POINTWISE, observer),
            (POINTWISE, make_scaling_family(grid, 4)),
            (ACCUMULATE_THEN_OBSERVE, make_mpi_analogue(5, 4).forward.static),
        ]

    @pytest.mark.parametrize("index", range(3), ids=["masks", "scaling", "mpi"])
    def test_apply_past_the_table(self, index):
        kind, fam = self.short_families()[index]
        grid = TimeGrid(1.0, 8)
        kernel = None if kind == POINTWISE else np.ones(8)
        forward = DynamicForward(kind, fam, grid, kernel)
        with pytest.raises(DimensionError):
            apply_forward(forward, forward.source_template(np.ones((8, fam.n_in))))
        with pytest.raises(DimensionError):
            apply_adjoint(forward, forward.data_template(np.ones((8, fam.n_out))))
        with pytest.raises(DimensionError):
            fam.apply(5, np.ones(fam.n_in))
        with pytest.raises(DimensionError):
            fam.adjoint_rows(4, np.ones((2, fam.n_out)))

    def test_section_past_the_pattern(self):
        """masks[4:8] of a 5-row table is one row that would broadcast over four.
        Sections of 4 x 4 = 16 data rows are assembled when they are built, so
        time_subproblems refuses; sections of 4 x 16 = 64 rows are matrix-free, so
        the tail's apply and adjoint refuse and the head's apply runs."""
        for dim in (4, 16):
            observer = make_subsample_observer(rotating_window_pattern(5, dim, 2), dim)
            forward = DynamicForward(POINTWISE, observer, TimeGrid(1.0, 8))
            data = forward.data_template(np.ones((8, dim)))
            if dim == 4:
                with pytest.raises(DimensionError, match="observation pattern"):
                    time_subproblems(forward, data, 0.1, sections=2)
                continue
            head, tail = time_subproblems(forward, data, 0.1, sections=2)
            head.apply(np.ones(dim))
            with pytest.raises(DimensionError):
                tail.apply(np.ones(dim))
            with pytest.raises(DimensionError):
                tail.adjoint(np.ones(4 * dim))


@st.composite
def zero_prefix_rows(draw):
    n_t = draw(st.integers(1, 24))
    start = draw(st.integers(0, n_t))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n_t, draw(st.integers(1, 5))))
    rows[:start] = 0.0
    return rng.standard_normal(n_t), draw(st.floats(1e-4, 10.0)), rows, start


class TestZeroPrefixSkip:
    @settings(max_examples=100, deadline=None)
    @given(zero_prefix_rows())
    def test_anticausal_sum_skips_zero_rows_bit_for_bit(self, args):
        kernel, dt, rows, start = args
        assert np.array_equal(
            _ordered_sum(kernel, dt, rows, False, start), _ordered_sum(kernel, dt, rows, False)
        )

    @pytest.mark.parametrize("kind", [ACCUMULATE_THEN_OBSERVE, OBSERVE_THEN_ACCUMULATE])
    def test_causal_block_adjoint_bit_for_bit(self, kind):
        """Sections of 12 nodes x 5 outputs = 60 data rows, the fewest a block
        keeps matrix-free (smaller ones are assembled, see test_solvers)."""
        grid, space = TimeGrid(1.0, 36), SpatialGrid(0.0, 1.0, 5)
        fam = make_gaussian_smoothing(space, 0.2)
        forward = DynamicForward(kind, fam, grid, make_causal_kernel(grid, np.exp(-grid.nodes)))
        data = forward.data_template(np.ones((36, 5)))
        subs = time_subproblems(forward, data, 0.1, sections=3)
        rng = np.random.default_rng(1)
        for (first, end), sub in zip([(0, 12), (12, 24), (24, 36)], subs):
            r = rng.standard_normal((end - first) * 5)
            padded = np.zeros((end, 5))
            padded[first:] = r.reshape(end - first, 5)
            full = grid.dt * _adjoint_rows(forward, padded).sum(axis=0)
            assert np.array_equal(sub.adjoint(r), full)
