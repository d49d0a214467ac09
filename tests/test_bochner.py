"""Grids, mixed norms, pairings, and CSV round-trips.

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
import re
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
    InvalidInputError,
    InvalidParameterError,
    SpatialGrid,
    TimeGrid,
    bochner_norm,
    holder_pairing,
    read_csv,
    write_csv,
)
from dynreg.bochner import _VECTOR_MIN, _ascending_sum, _atomic_write_text, _csv_text, _mixed_norm, _row_norms


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
        with pytest.raises(InvalidParameterError, match=r"n_x must lie in \{1, 2, \.\.\.\}, got 0"):
            SpatialGrid(0.0, 1.0, 0)

    @pytest.mark.parametrize("n_t", [2.5, 4.0, True, "4"])
    def test_time_grid_count_is_an_integer(self, n_t):
        # TimeGrid(1.0, 2.5) would put a node at T, and TimeGrid(1.0, True) would build
        with pytest.raises(InvalidParameterError, match=r"n_t must lie in \{1, 2, \.\.\.\}, got"):
            TimeGrid(1.0, n_t)
        assert TimeGrid(1.0, np.int64(4)) == TimeGrid(1.0, 4)

    @pytest.mark.parametrize("n_x", [2.5, 4.0, True, "4"])
    def test_spatial_grid_count_is_an_integer(self, n_x):
        with pytest.raises(InvalidParameterError, match=r"n_x must lie in \{1, 2, \.\.\.\}, got"):
            SpatialGrid(0.0, 1.0, n_x)
        assert SpatialGrid(0.0, 1.0, np.int32(4)).dx == 0.25


BAD_EXPONENTS = [math.inf, -math.inf, math.nan, 0.5, 0.0]


@pytest.mark.parametrize("exponent", BAD_EXPONENTS)
@pytest.mark.parametrize("which", ["p", "space_exponent"])
def test_bochner_function_rejects_bad_exponent(which, exponent):
    with pytest.raises(InvalidParameterError):
        BochnerFunction(TimeGrid(1.0, 2), [[0.5], [5.0]], **{which: exponent})


class TestBochnerFunction:
    def test_rejects_nan(self):
        grid = TimeGrid(1.0, 2)
        with pytest.raises(InvalidInputError):
            BochnerFunction(grid, [[0.0], [math.nan]])

    def test_rejects_shape_mismatch(self):
        grid = TimeGrid(1.0, 3)
        with pytest.raises(DimensionError):
            BochnerFunction(grid, np.zeros((2, 4)))

    @pytest.mark.parametrize("shape", [(3,), (3, 0)], ids=["shape0-must be 2-d", "shape1-at least one"])
    def test_rejects_malformed_values(self, shape):
        with pytest.raises(DimensionError, match=re.escape(f"values must have shape (3, n), got {shape}")):
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

    @settings(max_examples=200, deadline=None)
    @given(bochner_functions(), st.floats(1e-3, 1e3), st.booleans())
    def test_homogeneity_property(self, u, c, negative):
        c = -c if negative else c
        assert bochner_norm(c * u) == pytest.approx(abs(c) * bochner_norm(u), rel=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(bochner_functions(), st.integers(0, 2**32 - 1), st.booleans())
    def test_triangle_inequality_property(self, u, seed, parallel):
        # parallel: v = 2.5 u, where the inequality holds with equality
        rng = np.random.default_rng(seed)
        v = 2.5 * u if parallel else u.with_values(rng.standard_normal(u.values.shape))
        assert bochner_norm(u + v) <= (bochner_norm(u) + bochner_norm(v)) * (1.0 + 1e-13)

    def test_constant_exactness_many_p(self):
        for p in (1.0, 2.0, 3.0):
            grid = TimeGrid(2.0, 9)
            u = BochnerFunction(grid, np.full((9, 3), 1.5), p=p, space_weight=1.0 / 3)
            x_norm = fsum_spatial_norm(u.values[0], 1.0 / 3, 2.0)
            assert bochner_norm(u) == pytest.approx(2.0 ** (1.0 / p) * x_norm, rel=1e-14)


class TestInner:
    """The L^2(0, T; X) inner product: holder_pairing's pairing at p = s = 2."""

    def test_matches_norm(self):
        for seed in range(20):
            u = random_function(seed)
            assert holder_pairing(u, u)[0] == pytest.approx(bochner_norm(u) ** 2, rel=1e-13)

    def test_brute_force(self):
        u = random_function(3, n_t=4, n_x=3)
        v = random_function(4, n_t=4, n_x=3)
        expected = sum(
            u.grid.dt * u.space_weight * u.values[i, j] * v.values[i, j]
            for i in range(4)
            for j in range(3)
        )
        assert holder_pairing(u, v)[0] == pytest.approx(expected, rel=1e-13)

    def test_zero(self):
        u = random_function(5)
        z = u.with_values(np.zeros_like(u.values))
        assert holder_pairing(u, z) == (0.0, 0.0)

    def test_rejects_non_hilbert(self):
        u = random_function(6, p=3.0)
        with pytest.raises(InvalidInputError, match="time exponents 3.0 and 3.0 are not conjugate"):
            holder_pairing(u, u)

    def test_rejects_grid_mismatch(self):
        u = random_function(7, n_t=4)
        v = random_function(8, n_t=5)
        with pytest.raises(DimensionError):
            holder_pairing(u, v)

    def test_rejects_other_norm_data(self):
        with pytest.raises(DimensionError, match="matching grids and weights"):
            holder_pairing(random_function(7), random_function(8, weight=0.5))


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
        norms = _row_norms(u.values, u.space_weight, u.space_exponent)
        for row, got in zip(u.values, norms.tolist()):
            expected = fsum_spatial_norm(row, u.space_weight, u.space_exponent)
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
        assert abs(holder_pairing(u, v)[0] - exact) <= (u.n_dim + u.n_t + 10) * EPS * size

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
        assert _row_norms(row, w, s) == _row_norms(row, w, s) == _row_norms(strided, w, s)
        hilbert = BochnerFunction(u.grid, u.values, space_weight=w)
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
            assert _row_norms(row, u.space_weight, 1.0) == total
        hilbert = BochnerFunction(u.grid, u.values, space_weight=u.space_weight)
        other = hilbert.with_values(np.random.default_rng(seed).standard_normal(u.values.shape))
        total = 0.0
        for row_u, row_v in zip(hilbert.values, other.values):
            node = 0.0
            for a, b in zip(row_u, row_v):
                node += hilbert.space_weight * a * b
            total += hilbert.grid.dt * node
        assert holder_pairing(hilbert, other)[0] == total

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
            new = float(_row_norms(v, 1.0 / 64, 3.0))
            assert abs(new - old) <= 4 * math.ulp(old)
            differ += new != old
        assert differ > 0


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
    """Tables of n_t rows of 1 + n_x cells, some below _VECTOR_MIN cells (the per-row %
    format), some at or above it (the NumPy kernel)."""
    n_x = draw(st.integers(1, 5))
    above = -(-_VECTOR_MIN // (n_x + 1))  # fewest rows on the kernel's side
    n_t = draw(st.one_of(st.integers(1, 6), st.integers(above, above + 40)))
    entries = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    values = draw(arrays(float, (n_t, n_x), elements=entries))
    return BochnerFunction(TimeGrid(draw(st.floats(1e-3, 1e3)), n_t), values)


class TestCsvFormatting:
    """write_csv formats a small table one row at a time and a large one by the NumPy
    kernel; the bytes are those of per-number formatting."""

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
        large = np.tile(values, (_VECTOR_MIN, 1))
        u = types.SimpleNamespace(grid=TimeGrid(1.0, len(large)), values=large, n_dim=3)
        assert written_bytes(u) == per_element_csv(u.grid.nodes, large)


def percent_17g(table: np.ndarray) -> str:
    """The body of a table, every value formatted alone as '%.17g' % x."""
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in table.tolist())


def kernel_text(values, cols: int = 7) -> str:
    """The values as a table of cols columns (padded with 1.0), through _csv_text."""
    values = np.asarray(values, dtype=float).ravel()
    table = np.append(values, np.ones(-values.size % cols)).reshape(-1, cols)
    assert table.size >= _VECTOR_MIN
    header = ",".join(f"c{j}" for j in range(cols))
    text = _csv_text(header, table)
    assert text == header + "\n" + percent_17g(table)
    return text


SPECIAL_BITS = [
    0,  # +0
    1 << 63,  # -0
    1,  # smallest subnormal
    0x000FFFFFFFFFFFFF,  # largest subnormal
    0x0010000000000000,  # smallest normal
    0x7FEFFFFFFFFFFFFF,  # largest finite
    0x7FF0000000000000,  # inf
    0x7FF8000000000000,  # nan
    0x7FF0000000000001,  # signalling nan
]


class TestCsvKernel:
    """_cells, the NumPy %.17g kernel, against '%.17g' % x on every value: raw bit
    patterns, and the inputs where digit generation is hardest (powers of ten, exact
    ties, integers, 17-digit decimals)."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(st.sampled_from(SPECIAL_BITS), max_size=24),
        negate=st.booleans(),
        cols=st.integers(1, 9),
        rows=st.integers(0, 20000),
    )
    def test_raw_bit_patterns_match_percent_format(self, seed, specials, negate, cols, rows):
        rng = np.random.default_rng(seed)
        bits = rng.integers(-(2**63), 2**63, _VECTOR_MIN + rows, dtype=np.int64)
        spots = rng.choice(bits.size, len(specials), replace=False)
        values, special = bits.view(float), np.array(specials, np.uint64).view(float)
        values[spots] = -special if negate else special
        kernel_text(values, cols)

    def test_powers_of_ten_within_four_ulps(self):
        tens = 10.0 ** np.arange(-299, 300).astype(float)
        near = (tens[:, None].view(np.int64) + np.arange(-4, 5)).view(float)
        kernel_text(near)
        kernel_text(-near, 13)

    def test_exact_ties_at_the_eighteenth_digit(self):
        rng = np.random.default_rng(3)
        m = rng.integers(2**52, 2**53, 20000) | 1  # odd: m / 2**r has r digits after the point
        r = rng.integers(1, 9, m.size)
        ties = [int(a) * 5 ** int(b) for a, b in zip(m, r)]  # m / 2**r = this / 10**r exactly
        assert sum(len(str(t)) == 18 for t in ties) > 1000  # 18 digits ending in 5: a tie at 17
        kernel_text(m / 2.0**r)

    def test_integers(self):
        rng = np.random.default_rng(4)
        ints = [np.arange(1, 3000), rng.integers(1, 2**62, 20000), 2 ** np.arange(63), 10 ** np.arange(19)]
        values = np.concatenate(ints).astype(float)
        kernel_text(values)
        kernel_text(-values, 3)

    def test_seventeen_digit_decimals(self):
        rng = np.random.default_rng(5)
        digits = rng.integers(10**16, 10**17, 20000).astype(float)
        kernel_text(digits * 10.0 ** rng.integers(-56, 41, digits.size).astype(float))

    def test_edge_floats_and_decade_boundaries(self):
        # log10 puts 9.9999999999999997e-275 in the decade of 1e-274: without the
        # decade correction it printed as 1e-274.
        edges = EDGE_FLOATS + [9.9999999999999997e-275, 1e-280, 1e280, 9.9999999999999994e-281, 1e16, 1e17, 1e-5]
        kernel_text(np.array(edges * 60))
        assert "9.9999999999999997e-275" in kernel_text(np.full(_VECTOR_MIN, 9.9999999999999997e-275))


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
