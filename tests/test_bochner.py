"""Grids, mixed norms, pairings, translation, and CSV round-trips.

The property tests hold the vectorized reductions to a math.fsum oracle.
Summing n non-negative terms one at a time in ascending order has a relative
error of at most (n - 1) * eps / 2; with a few ulps of per-term rounding
(power, weight, root) in both the result and the oracle, the asserted bound
is (n + 10) * eps, n the number of terms summed in space and in time.
Pairings have signed terms, so their bound is relative to the sum of the
absolute terms instead.
"""

import math
import os
import tempfile
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dynreg import (
    BochnerFunction,
    DimensionError,
    DomainError,
    InvalidInputError,
    InvalidParameterError,
    SpatialGrid,
    TimeGrid,
    UnsupportedGeometryError,
    bochner_inner,
    bochner_norm,
    holder_pairing,
    read_csv,
    spatial_norm,
    translate,
    write_csv,
)
from dynreg.bochner import _ascending_sum, _atomic_write_text, _mixed_norm, _row_norms


def loop_norm(u):
    """Independent double-loop quadrature, no vectorization."""
    total = 0.0
    for i in range(u.grid.n_t):
        inner = 0.0
        for x in u.values[i]:
            inner += u.space_weight * abs(x) ** u.space_exponent
        total += u.grid.dt * inner ** (u.p / u.space_exponent)
    return total ** (1.0 / u.p)


EPS = np.finfo(float).eps
EXPONENTS = (1.0, 1.5, 2.0, 3.0)


@st.composite
def bochner_functions(draw, p=None, s=None):
    """A function on a random grid with random weight, exponents and values."""
    n_t = draw(st.integers(1, 12))
    n_x = draw(st.integers(1, 16))
    horizon = draw(st.floats(0.1, 10.0))
    weight = draw(st.floats(1e-3, 10.0))
    p = draw(st.sampled_from(EXPONENTS)) if p is None else p
    s = draw(st.sampled_from(EXPONENTS)) if s is None else s
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** draw(st.integers(-3, 3))
    values = scale * rng.standard_normal((n_t, n_x))
    values[rng.random((n_t, n_x)) < draw(st.floats(0.0, 0.5))] = 0.0
    grid = TimeGrid(horizon, n_t)
    return BochnerFunction(grid, values, p=p, space_exponent=s, space_weight=weight)


@st.composite
def conjugate_pairs(draw):
    """(u, v) on one grid and weight, with conjugate exponents in time and space."""
    finite = st.sampled_from(EXPONENTS[1:])  # the conjugate of 1 is the sup norm
    u = draw(bochner_functions(p=draw(finite), s=draw(finite)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = BochnerFunction(
        u.grid,
        rng.standard_normal(u.values.shape),
        p=u.p / (u.p - 1.0),
        space_exponent=u.space_exponent / (u.space_exponent - 1.0),
        space_weight=u.space_weight,
    )
    return u, v


def fsum_spatial_norm(row, weight, s):
    return math.fsum(weight * abs(float(x)) ** s for x in row) ** (1.0 / s)


def fsum_norm(u):
    nodes = [fsum_spatial_norm(row, u.space_weight, u.space_exponent) for row in u.values]
    return math.fsum(u.grid.dt * n**u.p for n in nodes) ** (1.0 / u.p)


def fsum_pairing(u, v):
    """Exactly summed pairing and the exactly summed absolute terms."""
    terms = [
        u.grid.dt * u.space_weight * float(a) * float(b)
        for a, b in zip(u.values.flat, v.values.flat)
    ]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def random_function(seed, n_t=7, n_x=5, p=2.0, s=2.0, horizon=1.0, weight=None):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(horizon, n_t)
    if weight is None:
        weight = 1.0 / n_x
    return BochnerFunction(
        grid, rng.standard_normal((n_t, n_x)), p=p, space_exponent=s, space_weight=weight
    )


class TestGrids:
    def test_midpoint_nodes(self):
        grid = TimeGrid(2.0, 4)
        assert grid.dt == 0.5
        np.testing.assert_allclose(grid.nodes, [0.25, 0.75, 1.25, 1.75])

    def test_all_nodes_interior(self):
        grid = TimeGrid(1.0, 100)
        assert grid.nodes[0] > 0.0 and grid.nodes[-1] < 1.0

    def test_from_dt(self):
        grid = TimeGrid.from_dt(0.125, 8)
        assert grid.horizon == 1.0 and grid.n_t == 8
        assert TimeGrid.from_dt(0.1, 3).dt == 0.1  # 0.1 * 3 / 3 rounds to 0.10000000000000002

    def test_dt_is_derived(self):
        with pytest.raises(TypeError):
            TimeGrid(1.0, 4, 0.3)
        assert replace(TimeGrid(1.0, 4), n_t=8).dt == 0.125

    def test_bad_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            TimeGrid(0.0, 4)
        with pytest.raises(InvalidParameterError):
            TimeGrid(1.0, 0)
        with pytest.raises(InvalidParameterError):
            TimeGrid(math.inf, 4)

    def test_spatial_grid(self):
        space = SpatialGrid(0.0, 1.0, 4)
        assert space.dx == 0.25
        np.testing.assert_allclose(space.nodes, [0.125, 0.375, 0.625, 0.875])
        with pytest.raises(InvalidParameterError):
            SpatialGrid(1.0, 0.0, 4)
        with pytest.raises(InvalidParameterError, match="at least one cell"):
            SpatialGrid(0.0, 1.0, 0)

    @pytest.mark.parametrize("n_t", [2.5, 4.0, True, "4"])
    def test_time_grid_count_is_an_integer(self, n_t):
        # TimeGrid(1.0, 2.5) would put a node at T, and TimeGrid(1.0, True) would build
        with pytest.raises(InvalidParameterError, match="n_t must be an integer"):
            TimeGrid(1.0, n_t)
        assert TimeGrid(1.0, np.int64(4)) == TimeGrid(1.0, 4)

    @pytest.mark.parametrize("n_x", [2.5, 4.0, True, "4"])
    def test_spatial_grid_count_is_an_integer(self, n_x):
        with pytest.raises(InvalidParameterError, match="n_x must be an integer"):
            SpatialGrid(0.0, 1.0, n_x)
        assert SpatialGrid(0.0, 1.0, np.int32(4)).dx == 0.25


BAD_EXPONENTS = [math.inf, -math.inf, math.nan, 0.5, 0.0]


@pytest.mark.parametrize("exponent", BAD_EXPONENTS)
@pytest.mark.parametrize("which", ["p", "space_exponent"])
def test_bochner_function_rejects_bad_exponent(which, exponent):
    with pytest.raises(InvalidParameterError):
        BochnerFunction(TimeGrid(1.0, 2), [[0.5], [5.0]], **{which: exponent})


@pytest.mark.parametrize("exponent", BAD_EXPONENTS)
def test_spatial_norm_rejects_bad_exponent(exponent):
    with pytest.raises(InvalidParameterError):
        spatial_norm(np.array([3.0, 4.0]), 1.0, exponent)


class TestBochnerFunction:
    def test_rejects_nan(self):
        grid = TimeGrid(1.0, 2)
        with pytest.raises(InvalidInputError):
            BochnerFunction(grid, [[0.0], [math.nan]])

    def test_rejects_shape_mismatch(self):
        grid = TimeGrid(1.0, 3)
        with pytest.raises(DimensionError):
            BochnerFunction(grid, np.zeros((2, 4)))

    @pytest.mark.parametrize("shape, fragment", [((3,), "must be 2-d"), ((3, 0), "at least one")])
    def test_rejects_malformed_values(self, shape, fragment):
        with pytest.raises(DimensionError, match=fragment):
            BochnerFunction(TimeGrid(1.0, 3), np.zeros(shape))

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_space_weight(self, weight):
        with pytest.raises(InvalidParameterError, match="space weight"):
            BochnerFunction(TimeGrid(1.0, 2), [[0.5], [5.0]], space_weight=weight)

    def test_values_frozen(self):
        u = random_function(0)
        with pytest.raises(ValueError):
            u.values[0, 0] = 1.0

    def test_arithmetic(self):
        u = random_function(1)
        v = random_function(2)
        np.testing.assert_allclose((u + v).values, u.values + v.values)
        np.testing.assert_allclose((u - v).values, u.values - v.values)
        np.testing.assert_allclose((2.5 * u).values, 2.5 * u.values)


class TestNorm:
    def test_constant_function_exact(self):
        # ||x||_X = 2 constant over T = 3 at p = 2 integrates to 2*sqrt(3)
        grid = TimeGrid(3.0, 6)
        values = np.full((6, 4), 2.0)
        u = BochnerFunction(grid, values, p=2.0, space_weight=0.25)
        assert bochner_norm(u) == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-15)

    def test_zero(self):
        u = BochnerFunction(TimeGrid(1.0, 3), np.zeros((3, 2)))
        assert bochner_norm(u) == 0.0

    def test_against_loop_oracle(self):
        for seed in range(30):
            u = random_function(seed, p=3.0, s=2.0)
            assert bochner_norm(u) == pytest.approx(loop_norm(u), rel=1e-13)

    def test_against_loop_oracle_mixed_exponents(self):
        for seed in range(30):
            u = random_function(seed, n_t=5, n_x=8, p=1.5, s=4.0, horizon=2.0, weight=0.3)
            assert bochner_norm(u) == pytest.approx(loop_norm(u), rel=1e-13)

    def test_homogeneity(self):
        rng = np.random.default_rng(11)
        for seed in range(100):
            u = random_function(seed, p=2.5)
            c = float(rng.standard_normal())
            assert bochner_norm(c * u) == pytest.approx(abs(c) * bochner_norm(u), rel=1e-13)

    def test_triangle(self):
        for seed in range(50):
            u = random_function(seed, p=1.7, s=3.0)
            v = random_function(seed + 1000, p=1.7, s=3.0)
            assert bochner_norm(u + v) <= bochner_norm(u) + bochner_norm(v) + 1e-12

    def test_constant_exactness_many_p(self):
        for p in (1.0, 2.0, 3.0):
            grid = TimeGrid(2.0, 9)
            u = BochnerFunction(grid, np.full((9, 3), 1.5), p=p, space_weight=1.0 / 3)
            x_norm = spatial_norm(u.values[0], 1.0 / 3, 2.0)
            assert bochner_norm(u) == pytest.approx(2.0 ** (1.0 / p) * x_norm, rel=1e-14)


class TestInner:
    def test_matches_norm(self):
        for seed in range(20):
            u = random_function(seed)
            assert bochner_inner(u, u) == pytest.approx(bochner_norm(u) ** 2, rel=1e-13)

    def test_brute_force(self):
        u = random_function(3, n_t=4, n_x=3)
        v = random_function(4, n_t=4, n_x=3)
        expected = sum(
            u.grid.dt * u.space_weight * u.values[i, j] * v.values[i, j]
            for i in range(4)
            for j in range(3)
        )
        assert bochner_inner(u, v) == pytest.approx(expected, rel=1e-13)

    def test_zero(self):
        u = random_function(5)
        z = u.with_values(np.zeros_like(u.values))
        assert bochner_inner(u, z) == 0.0

    def test_rejects_non_hilbert(self):
        u = random_function(6, p=3.0)
        with pytest.raises(UnsupportedGeometryError):
            bochner_inner(u, u)

    def test_rejects_grid_mismatch(self):
        u = random_function(7, n_t=4)
        v = random_function(8, n_t=5)
        with pytest.raises(DimensionError):
            bochner_inner(u, v)

    def test_rejects_other_norm_data(self):
        with pytest.raises(DimensionError, match="different norm data"):
            bochner_inner(random_function(7), random_function(8, weight=0.5))


class TestHolder:
    def test_equality_case(self):
        u = random_function(9)
        pairing, bound = holder_pairing(u, u)
        assert pairing == pytest.approx(bochner_norm(u) ** 2, rel=1e-13)
        assert bound == pytest.approx(pairing, rel=1e-13)

    def test_zero(self):
        u = random_function(10)
        z = u.with_values(np.zeros_like(u.values))
        pairing, bound = holder_pairing(z, z)
        assert pairing == 0.0 and bound == 0.0

    def test_inequality_seeded(self):
        for seed in range(100):
            u = random_function(seed, p=3.0, s=2.0)
            v = random_function(seed + 500, p=1.5, s=2.0)
            pairing, bound = holder_pairing(u, v)
            assert abs(pairing) <= bound * (1.0 + 1e-12)

    def test_rejects_non_conjugate(self):
        u = random_function(11, p=3.0)
        v = random_function(12, p=2.0)
        with pytest.raises(InvalidInputError):
            holder_pairing(u, v)

    @pytest.mark.parametrize(
        "other, error, fragment",
        [({"s": 2.0}, InvalidInputError, "space exponents"),
         ({"n_t": 8}, DimensionError, "matching grids")],
        ids=["space", "grid"],
    )
    def test_rejects_non_conjugate_space_or_other_grid(self, other, error, fragment):
        u = random_function(11, p=3.0, s=3.0)
        v = random_function(12, **{"p": 1.5, "s": 1.5, **other})
        with pytest.raises(error, match=fragment):
            holder_pairing(u, v)


class TestAscendingReductions:
    @settings(max_examples=300, deadline=None)
    @given(bochner_functions())
    def test_spatial_norm_matches_fsum(self, u):
        for row in u.values:
            expected = fsum_spatial_norm(row, u.space_weight, u.space_exponent)
            got = spatial_norm(row, u.space_weight, u.space_exponent)
            assert abs(got - expected) <= (u.n_dim + 10) * EPS * expected

    @settings(max_examples=300, deadline=None)
    @given(bochner_functions())
    def test_bochner_norm_matches_fsum(self, u):
        expected = fsum_norm(u)
        assert abs(bochner_norm(u) - expected) <= (u.n_dim + u.n_t + 10) * EPS * expected

    @settings(max_examples=300, deadline=None)
    @given(bochner_functions(p=2.0, s=2.0), st.integers(0, 2**32 - 1))
    def test_inner_matches_fsum(self, u, seed):
        v = u.with_values(np.random.default_rng(seed).standard_normal(u.values.shape))
        exact, size = fsum_pairing(u, v)
        assert abs(bochner_inner(u, v) - exact) <= (u.n_dim + u.n_t + 10) * EPS * size

    @settings(max_examples=300, deadline=None)
    @given(conjugate_pairs())
    def test_holder_pairing_matches_fsum(self, pair):
        u, v = pair
        exact, size = fsum_pairing(u, v)
        pairing, bound = holder_pairing(u, v)
        assert abs(pairing - exact) <= (u.n_dim + u.n_t + 10) * EPS * size
        assert bound == bochner_norm(u) * bochner_norm(v)

    @settings(max_examples=200, deadline=None)
    @given(bochner_functions())
    def test_repeated_evaluation_bit_identical(self, u):
        # a column-major copy and a strided row view change only the memory layout
        other = u.with_values(np.asfortranarray(u.values))
        assert bochner_norm(u) == bochner_norm(u) == bochner_norm(other)
        row = u.values[-1]
        strided = np.repeat(row, 2)[::2]
        w, s = u.space_weight, u.space_exponent
        assert spatial_norm(row, w, s) == spatial_norm(row, w, s) == spatial_norm(strided, w, s)
        hilbert = BochnerFunction(u.grid, u.values, space_weight=w)
        assert bochner_inner(hilbert, hilbert) == bochner_inner(hilbert, hilbert)
        assert holder_pairing(hilbert, hilbert) == holder_pairing(hilbert, hilbert)

    @settings(max_examples=200, deadline=None)
    @given(bochner_functions(p=1.0, s=1.0), st.integers(0, 2**32 - 1))
    def test_terms_added_in_ascending_order(self, u, seed):
        # at p = s = 1 no power rounds, so only the summation order is left:
        # it must be the scalar loop's, node by node and then over the nodes
        assert bochner_norm(u) == loop_norm(u)
        for row in u.values:
            total = 0.0
            for x in row:
                total += u.space_weight * abs(x)
            assert spatial_norm(row, u.space_weight, 1.0) == total
        hilbert = BochnerFunction(u.grid, u.values, space_weight=u.space_weight)
        other = hilbert.with_values(np.random.default_rng(seed).standard_normal(u.values.shape))
        total = 0.0
        for row_u, row_v in zip(hilbert.values, other.values):
            node = 0.0
            for a, b in zip(row_u, row_v):
                node += hilbert.space_weight * a * b
            total += hilbert.grid.dt * node
        assert bochner_inner(hilbert, other) == total

    def test_not_bit_identical_to_scalar_loop(self):
        # NumPy's power is not libm's pow (Python's **), so some results round
        # differently from the scalar loop (about 7% of these vectors at s = 3)
        rng = np.random.default_rng(0)
        differ = 0
        for _ in range(500):
            v = rng.standard_normal(64)
            old = 0.0
            for x in v:
                old += (1.0 / 64) * abs(x) ** 3.0
            old **= 1.0 / 3.0
            new = spatial_norm(v, 1.0 / 64, 3.0)
            assert abs(new - old) <= 4 * math.ulp(old)
            differ += new != old
        assert differ > 0


class TestTranslate:
    def test_zero_shift_identity(self):
        u = random_function(13)
        shifted = translate(u, 0.0)
        assert shifted.grid == u.grid
        np.testing.assert_array_equal(shifted.values, u.values)

    def test_constant_function_shift(self):
        grid = TimeGrid(1.0, 8)
        u = BochnerFunction(grid, np.tile([1.0, -2.0], (8, 1)), space_weight=0.5)
        shifted = translate(u, 3 * grid.dt)
        head = BochnerFunction(shifted.grid, u.values[:5], space_weight=0.5)
        assert bochner_norm(shifted - head) == 0.0

    def test_index_shift(self):
        u = random_function(14, n_t=9)
        shifted = translate(u, 2 * u.grid.dt)
        assert shifted.n_t == 7
        np.testing.assert_array_equal(shifted.values, u.values[2:])

    def test_out_of_range(self):
        u = random_function(15)
        with pytest.raises(DomainError):
            translate(u, -0.1)
        with pytest.raises(DomainError):
            translate(u, u.grid.horizon)
        with pytest.raises(DomainError, match="leaves no overlap"):
            translate(u, u.grid.horizon - 0.4 * u.grid.dt)  # rounds to n_t steps


def per_element_csv(nodes, values) -> bytes:
    """The CSV text write_csv promises, formatted one number at a time with f"{x:.17g}"."""
    lines = ["t," + ",".join(f"x_{j}" for j in range(values.shape[1]))]
    for t, row in zip(nodes, values):
        lines.append(",".join([f"{t:.17g}"] + [f"{x:.17g}" for x in row]))
    return ("\n".join(lines) + "\n").encode()


def written_bytes(u) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "u.csv")
        write_csv(u, path)
        with open(path, "rb") as f:
            return f.read()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.7976931348623157e308]


@st.composite
def csv_functions(draw):
    n_t, n_x = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    entries = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    values = draw(arrays(float, (n_t, n_x), elements=entries))
    return BochnerFunction(TimeGrid(draw(st.floats(1e-3, 1e3)), n_t), values)


class TestCsvFormatting:
    """write_csv formats a whole row at once; the bytes are those of per-number formatting."""

    @settings(max_examples=200, deadline=None)
    @given(csv_functions())
    def test_bytes_match_per_element_formatting_and_read_back_exactly(self, u):
        text = written_bytes(u)
        assert text == per_element_csv(u.grid.nodes, u.values)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "u.csv")
            with open(path, "wb") as f:
                f.write(text)
            back = read_csv(path)
        assert back.values.tobytes() == u.values.tobytes()
        assert back.grid.nodes.tobytes() == u.grid.nodes.tobytes()

    def test_non_finite_values_format_like_per_element(self):
        # BochnerFunction refuses non-finite values; write_csv reads only the
        # grid, the values and n_dim, so a stand-in carries them.
        values = np.array([[np.inf, -np.inf, np.nan], [np.copysign(np.nan, -1.0), -0.0, 5e-324]])
        u = types.SimpleNamespace(grid=TimeGrid(1.0, 2), values=values, n_dim=3)
        assert written_bytes(u) == per_element_csv(u.grid.nodes, values)
        assert b"inf,-inf,nan\n" in written_bytes(u)


def row_by_row_csv(nodes, values) -> bytes:
    """The CSV text formatted one row at a time: one %.17g format string per row."""
    header = "t," + ",".join(f"x_{j}" for j in range(values.shape[1]))
    line = ",".join(["%.17g"] * (values.shape[1] + 1))
    rows = [line % tuple(row) for row in np.column_stack([nodes, values]).tolist()]
    return ("\n".join([header] + rows) + "\n").encode()


def read_back(text: bytes) -> BochnerFunction:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "u.csv")
        with open(path, "wb") as f:
            f.write(text)
        return read_csv(path)


@st.composite
def constant_functions(draw):
    """Functions constant in time: one drawn row, repeated at every node."""
    n_t, n_x = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    row = draw(arrays(float, n_x, elements=st.one_of(st.sampled_from(EDGE_FLOATS), finite)))
    return BochnerFunction(TimeGrid(draw(st.floats(1e-3, 1e3)), n_t), np.tile(row, (n_t, 1)))


class TestConstantRows:
    """write_csv formats the values of a time-constant function once; the bytes do not change."""

    @settings(max_examples=200, deadline=None)
    @given(constant_functions())
    def test_bytes_match_row_by_row_formatting_and_read_back(self, u):
        text = written_bytes(u)
        assert text == row_by_row_csv(u.grid.nodes, u.values)
        assert text == per_element_csv(u.grid.nodes, u.values)
        back = read_back(text)
        assert back.values.tobytes() == u.values.tobytes()
        assert back.grid.nodes.tobytes() == u.grid.nodes.tobytes()

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.0, 1.5], [-0.0, 1.5], [0.0, 1.5]],  # equal under ==, not bitwise
            [[-0.0, -0.0]] * 4,  # constant, every value -0.0
            [[0.0, 2.0]] * 3 + [[0.0, -2.0]],  # the last row differs
        ],
    )
    def test_signed_zero_rows_stay_distinct(self, rows):
        values = np.array(rows)
        u = BochnerFunction(TimeGrid(1.0, len(values)), values)
        text = written_bytes(u)
        assert text == row_by_row_csv(u.grid.nodes, values)
        back = read_back(text)
        assert back.values.tobytes() == values.tobytes()
        assert np.array_equal(np.signbit(back.values), np.signbit(values))


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        u = random_function(17, n_t=6, n_x=4, horizon=1.7, weight=0.25)
        path = os.path.join(tmp_path, "u.csv")
        write_csv(u, path)
        back = read_csv(path, space_weight=0.25)
        np.testing.assert_array_equal(back.values, u.values)
        np.testing.assert_array_equal(back.grid.nodes, u.grid.nodes)
        assert back.grid.dt == u.grid.dt

    def test_rewrite_identical_bytes(self, tmp_path):
        u = random_function(18)
        first = os.path.join(tmp_path, "a.csv")
        second = os.path.join(tmp_path, "b.csv")
        write_csv(u, first)
        write_csv(read_csv(first), second)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_header(self, tmp_path):
        u = random_function(19, n_x=3)
        path = os.path.join(tmp_path, "u.csv")
        write_csv(u, path)
        assert (tmp_path / "u.csv").read_text().splitlines()[0] == "t,x_0,x_1,x_2"

    def test_rejects_malformed(self, tmp_path):
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as f:
            f.write("t,x_0\n0.1,1.0\n0.9,2.0\n")
        with pytest.raises(InvalidInputError):
            read_csv(path)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "missing t,x_0,... header"),
            ("0.25,1.0\n0.75,2.0\n", "missing t,x_0,... header"),
            ("t\n0.25\n", r"malformed header \['t'\]"),
            ("t,x_0,x_2\n0.25,1,2\n", r"malformed header \['t', 'x_0', 'x_2'\]"),
            ("t,x_0\n\n", "no data rows"),
            ("t,x_0\n0.25,one\n", "unparsable row"),
            ("t,x_0,x_1\n0.25,1.0,2.0\n0.75,3.0\n", "ragged rows"),
            ("t,x_0,x_1\n0.25,1.0\n0.75,3.0\n", "ragged rows"),
            ("t,x_0\n-0.25,1.0\n0.25,2.0\n", "first node must be positive, got -0.25"),
            ("t,x_0\n0,1.0\n", "first node must be positive, got 0.0"),
        ],
        ids=["empty", "no-header", "no-columns", "column-names", "no-rows", "cell", "ragged",
             "short", "negative-node", "zero-node"],
    )
    def test_rejects_bad_file(self, tmp_path, text, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=fragment):
            read_csv(str(path))

    @pytest.mark.parametrize("failure", ["write", "rename"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, failure):
        target = tmp_path / "out.csv"
        text = "t,x_0\n"
        if failure == "write":
            text += "\ud800\n"  # a lone surrogate no encoding writes
        else:
            target.mkdir()  # a file cannot replace a directory
        with pytest.raises((UnicodeEncodeError, IsADirectoryError)):
            _atomic_write_text(str(target), text)
        assert [p.name for p in tmp_path.iterdir()] == (["out.csv"] if failure == "rename" else [])


def cumsum_sum(terms):
    """The reference reduction: a running sum along the last axis, last entry kept."""
    return np.cumsum(terms, axis=-1)[..., -1]


@st.composite
def term_arrays(draw):
    """Arrays to sum over the last axis: 1-D, one lane, two lanes, 3-D lanes; laid
    out C-ordered, F-ordered or as a strided view; signed zeros and wide magnitudes."""
    shape = draw(
        st.one_of(
            st.tuples(st.integers(1, 300)),
            st.tuples(st.integers(1, 300)).map(lambda s: (1, *s)),
            st.tuples(st.integers(1, 300)).map(lambda s: (2, *s)),
            st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 80)),
        )
    )
    elements = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-1e6, 1e6, allow_subnormal=True),
        st.floats(-1e-300, 1e-300, allow_subnormal=True),
    )
    values = draw(arrays(np.float64, shape, elements=elements))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "strided":
        return np.repeat(values, 2, axis=-1)[..., ::2]
    return values


class TestLaneFold:
    """_ascending_sum folds two lanes or more with np.add.reduce, one lane with
    cumsum; both must give the running sum's bytes, -0.0 included."""

    @settings(max_examples=400, deadline=None)
    @given(term_arrays())
    def test_ascending_sum_is_the_running_sum(self, terms):
        assert _ascending_sum(terms).tobytes() == cumsum_sum(terms).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(term_arrays(), st.sampled_from(EXPONENTS), st.sampled_from(EXPONENTS))
    def test_norms_are_running_sums(self, values, s, p):
        w, dt = 0.37, 0.011
        rows = cumsum_sum(w * np.abs(values) ** s) ** (1.0 / s)
        assert _row_norms(values, w, s).tobytes() == rows.tobytes()
        if values.ndim == 2:
            mixed = float(cumsum_sum(dt * rows**p) ** (1.0 / p))
            assert _mixed_norm(values, dt, w, p, s) == mixed

    def test_a_single_lane_is_not_reduced_pairwise(self):
        # NumPy sums one contiguous lane pairwise, which rounds differently
        lanes = np.random.default_rng(0).standard_normal((200, 1, 300))
        pairwise = [np.add.reduce(lane, axis=-1) != cumsum_sum(lane) for lane in lanes]
        assert sum(pairwise) > 100
        for lane in lanes:
            assert _ascending_sum(lane).tobytes() == cumsum_sum(lane).tobytes()

    def test_all_negative_zero_lanes_stay_negative(self):
        terms = np.array([[-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0]])
        assert np.signbit(_ascending_sum(terms)).tolist() == [True, False]
