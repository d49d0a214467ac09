"""The checks of every parameter and array input: errors._count, _real and _array.

One table lists each parameter the first two helpers check, with its bounds,
the error class it raises and a call that passes it.  Each parameter is tried
at its bounds, just inside and just outside them, at NaN and at +-inf; a count
also at 2.5, True and np.float64(2.0), which fail, and at a NumPy integer,
which passes.  A second table lists each array input _array checks, with a
valid value and its shape: each input is tried with every wrong number of axes,
every wrong length, an empty axis, and NaN and +-inf at its first and last
entry.  Calls on a forward map or on sub-problems run on maps that raise
Tripwire when they are applied, so a rejection is shown to come before any
numeric work.
"""

import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dynreg
from dynreg import (
    ACCUMULATE_THEN_OBSERVE,
    BochnerFunction,
    DimensionError,
    DomainError,
    DynamicForward,
    InvalidInputError,
    InvalidParameterError,
    KaczmarzConfig,
    LinearSubproblem,
    NoiseSpec,
    OperatorFamily,
    POINTWISE,
    ParameterRule,
    SpatialGrid,
    TikhonovConfig,
    TimeGrid,
    assemble_dense,
    choose_alpha,
    identity_family,
    integrability_tail,
    kaczmarz_multi_direction,
    landweber_kaczmarz,
    make_dct_analogue,
    make_gaussian_smoothing,
    make_mpi_analogue,
    make_scaling_family,
    make_subsample_observer,
    rotating_window_pattern,
    singular_values,
    spatial_norm,
    temporal_spectrum,
    tikhonov_temporal,
    time_subproblems,
)
from dynreg.cli import _parse_positive_float, _parse_positive_int
from dynreg.errors import _count, _real


class Tripwire(Exception):
    """Raised by the family below the moment any numeric work starts."""


def trip(*args):
    raise Tripwire


GRID = TimeGrid(1.0, 4)
FORWARD = DynamicForward(POINTWISE, OperatorFamily(2, 2, trip, trip), GRID)
DATA = FORWARD.data_template(np.ones((4, 2)))
VALUES = np.ones((4, 2))


def tripwire_members():
    raise Tripwire
    yield  # a generator: the probe pulls it only once its parameters are checked


def sub(**fields):
    args = dict(noise_level=0.0, data_weight=1.0, unknown_weight=1.0) | fields
    return LinearSubproblem(lambda x: x, lambda r: r, np.ones(2), **args)


TRIP_SUB = LinearSubproblem(trip, trip, np.ones(2), 0.0)


EXPONENTS = ("source_exponent", "source_space_exponent", "data_exponent", "data_space_exponent")
INF = math.inf


def row(bounds, call, name, error=InvalidParameterError):
    """bounds: the interval of a real as it reads, or (low, high) of a count.
    name: the parameter's name in the message (None: not checked)."""
    return bounds, call, error, name


PARAMETERS = {
    "TimeGrid.horizon": row("(0, inf)", lambda v: TimeGrid(v, 4), "horizon"),
    "TimeGrid.n_t": row((1, INF), lambda v: TimeGrid(1.0, v), "n_t"),
    "SpatialGrid.n_x": row((1, INF), lambda v: SpatialGrid(0.0, 1.0, v), "n_x"),
    "BochnerFunction.p": row("[1, inf)", lambda v: BochnerFunction(GRID, VALUES, p=v), "time exponent"),
    "BochnerFunction.space_exponent": row(
        "[1, inf)", lambda v: BochnerFunction(GRID, VALUES, space_exponent=v), "space exponent"
    ),
    "BochnerFunction.space_weight": row(
        "(0, inf)", lambda v: BochnerFunction(GRID, VALUES, space_weight=v), "space weight"
    ),
    "spatial_norm.weight": row(
        "(0, inf)", lambda v: spatial_norm(np.zeros(2), v, 2.0), "spatial weight"
    ),
    "spatial_norm.exponent": row(
        "[1, inf)", lambda v: spatial_norm(np.zeros(2), 1.0, v), "spatial exponent"
    ),
    "OperatorFamily.n_in": row((1, INF), lambda v: OperatorFamily(v, 2, trip, trip), "n_in"),
    "OperatorFamily.n_out": row((1, INF), lambda v: OperatorFamily(2, v, trip, trip), "n_out"),
    "OperatorFamily.in_weight": row(
        "(0, inf)", lambda v: OperatorFamily(2, 2, trip, trip, in_weight=v), "in_weight"
    ),
    "OperatorFamily.out_weight": row(
        "(0, inf)", lambda v: OperatorFamily(2, 2, trip, trip, out_weight=v), "out_weight"
    ),
    "make_gaussian_smoothing.sigma": row(  # from 1e-150 on, 2 sigma^2 is a normal float
        "[1e-150, inf)", lambda v: make_gaussian_smoothing(SpatialGrid(0.0, 1.0, 3), v), "sigma"
    ),
    "make_subsample_observer.dim": row((1, INF), lambda v: make_subsample_observer([[0]], v), "dim"),
    "make_subsample_observer.pattern": row(
        (0, 4), lambda v: make_subsample_observer([[1], [2, v]], 5), "observation index"
    ),
    "rotating_window_pattern.width": row(
        (1, 5), lambda v: rotating_window_pattern(6, 5, v), "window width"
    ),
    **{
        f"DynamicForward.{field}": row(
            "[1, inf)",
            lambda v, field=field: DynamicForward(POINTWISE, FORWARD.static, GRID, **{field: v}),
            field.replace("_", " "),
        )
        for field in EXPONENTS
    },
    "NoiseSpec.delta": row("(0, inf)", lambda v: NoiseSpec(v, 0), "noise level"),
    "NoiseSpec.seed": row((0, INF), lambda v: NoiseSpec(1.0, v), "seed"),
    "NoiseSpec.fraction": row("(0, 1]", lambda v: NoiseSpec(1.0, 0, v), "fraction"),
    "make_mpi_analogue.decay": row("[0, inf)", lambda v: make_mpi_analogue(4, 3, v), "decay"),
    "TikhonovConfig.tol": row("(0, 1)", lambda v: TikhonovConfig(tol=v), "tol"),
    "TikhonovConfig.max_iter": row((1, INF), lambda v: TikhonovConfig(max_iter=v), "max_iter"),
    "ParameterRule.scale": row("(0, inf)", lambda v: ParameterRule(v, 1.0), "rule scale"),
    "ParameterRule.exponent": row("(0, 2)", lambda v: ParameterRule(1.0, v), "rule exponent"),
    "choose_alpha.delta": row(
        "(0, inf)", lambda v: choose_alpha(ParameterRule(1.0, 1.0), v), "noise level"
    ),
    "KaczmarzConfig.omega": row("(0, inf)", lambda v: KaczmarzConfig(omega=v), "omega"),
    "KaczmarzConfig.tau": row("[1, inf)", lambda v: KaczmarzConfig(tau=v), "tau"),
    "KaczmarzConfig.tau[1]": row("[1, inf)", lambda v: KaczmarzConfig(tau=[2.0, v]), "tau"),
    "KaczmarzConfig.max_sweeps": row((0, INF), lambda v: KaczmarzConfig(max_sweeps=v), "max_sweeps"),
    "KaczmarzConfig.memory": row((1, INF), lambda v: KaczmarzConfig(memory=v), "memory"),
    "LinearSubproblem.noise_level": row("[0, inf)", lambda v: sub(noise_level=v), "noise level"),
    "LinearSubproblem.data_weight": row("(0, inf)", lambda v: sub(data_weight=v), "data_weight"),
    "LinearSubproblem.unknown_weight": row(
        "(0, inf)", lambda v: sub(unknown_weight=v), "unknown_weight"
    ),
    "time_subproblems.delta": row(
        "[0, inf)", lambda v: time_subproblems(FORWARD, DATA, v), "noise level"
    ),
    "time_subproblems.sections": row(
        (1, 4), lambda v: time_subproblems(FORWARD, DATA, 0.1, sections=v), "sections"
    ),
    "temporal_spectrum.time_index": row(
        (0, 3), lambda v: temporal_spectrum(FORWARD, v), "time index", DomainError
    ),
    "assemble_dense.time_index": row(
        (0, INF), lambda v: assemble_dense(FORWARD.static, v), "time index", DomainError
    ),
    "tikhonov_temporal.alpha": row("(0, inf)", lambda v: tikhonov_temporal(FORWARD, DATA, v), "alpha"),
    "integrability_tail.q": row(
        "(0, inf)", lambda v: integrability_tail(FORWARD, tripwire_members(), [1.0], v),
        "tail exponent",
    ),
    "integrability_tail.radii": row(
        "(0, inf)", lambda v: integrability_tail(FORWARD, tripwire_members(), [v]), "radii"
    ),
    "cli._parse_positive_float": row(
        "(0, inf)", lambda v: _parse_positive_float(str(v)), "value", ValueError
    ),
    # 2.5, True and 2.0 fail int() itself, with its own message
    "cli._parse_positive_int": row((1, INF), lambda v: _parse_positive_int(str(v)), None, ValueError),
}


def real_cases(interval: str) -> tuple[list, list]:
    """(accepted, rejected) values at and around the ends of a real interval."""
    low, high = (float(end) for end in interval[1:-1].split(", "))
    low_in, high_in = interval[0] == "[", interval[-1] == "]"
    accepted, rejected = [], [math.nan, -math.inf]
    for end, closed, inward in ((low, low_in, math.inf), (high, high_in, -math.inf)):
        accepted.append(float(np.nextafter(end, inward)))  # inf's neighbour is the largest float
        (accepted if closed else rejected).append(end)
        if math.isfinite(end):
            rejected.append(float(np.nextafter(end, -inward)))
    return accepted, rejected


def count_cases(low: int, high) -> tuple[list, list]:
    """(accepted, rejected) values at and around the ends of a count range."""
    accepted = [low, low + 1, np.int64(low)]
    rejected = [low - 1, 2.5, True, np.float64(2.0), math.nan, math.inf, -math.inf]
    if high != math.inf:
        accepted += [high, high - 1]
        rejected.append(high + 1)
    return accepted, rejected


@pytest.mark.parametrize("parameter", PARAMETERS)
def test_parameter_range(parameter):
    bounds, call, error, name = PARAMETERS[parameter]
    accepted, rejected = real_cases(bounds) if isinstance(bounds, str) else count_cases(*bounds)
    for value in rejected:
        with pytest.raises(error) as caught:
            call(value)
        if name is not None:
            assert str(caught.value).startswith(f"{name} must lie in "), (value, caught.value)
    for value in accepted:
        try:
            with np.errstate(all="ignore"):  # extreme reals may overflow in the work they start
                call(value)
        except Tripwire:  # the value passed its check and numeric work started
            pass


SOURCE = "".join(path.read_text() for path in Path(dynreg.__file__).parent.glob("*.py"))


def test_the_table_names_every_checked_parameter():
    """Every name a helper call of the package gives is a name the table checks."""
    names = set(re.findall(r'_(?:count|real)\([^,]+, "([^"]+)"', SOURCE))
    assert names - {name for *_, name in PARAMETERS.values()} == {"number of radii"}
    assert {"observation index", "alpha"} <= names


def array_row(valid, shape: str, call, name, error=DimensionError, nonfinite=InvalidInputError):
    """valid: an accepted value; shape: the shape the message asks for, as it reads;
    name: the input's name in the message."""
    return np.asarray(valid, dtype=float), shape, call, error, nonfinite, name


ARRAYS = {
    "BochnerFunction.values": array_row(VALUES, "(4, n)", lambda v: BochnerFunction(GRID, v), "values"),
    "spatial_norm.v": array_row(np.ones(3), "(n,)", lambda v: spatial_norm(v, 1.0, 2.0), "v"),
    "make_causal_kernel.samples": array_row(
        np.ones(4), "(4,)", lambda v: DynamicForward(ACCUMULATE_THEN_OBSERVE, FORWARD.static, GRID, v),
        "kernel",
    ),
    "LinearSubproblem.data": array_row(
        np.ones(2), "(n,)", lambda v: LinearSubproblem(trip, trip, v, 0.0), "data"
    ),
    "landweber_kaczmarz.start": array_row(
        np.zeros(2), "(n,)", lambda v: landweber_kaczmarz([TRIP_SUB], KaczmarzConfig(), v), "start"
    ),
    "kaczmarz_multi_direction.truth": array_row(
        np.ones(2), "(2,)",
        lambda v: kaczmarz_multi_direction([TRIP_SUB], KaczmarzConfig(), np.zeros(2), truth=v),
        "truth",
    ),
    "tikhonov_temporal.alpha": array_row(
        np.full(4, 0.1), "(4,)", lambda v: tikhonov_temporal(FORWARD, DATA, v), "alpha",
        nonfinite=InvalidParameterError,
    ),
    "singular_values.M": array_row(
        np.ones((2, 3)), "(m, n)", singular_values, "M", error=InvalidInputError
    ),
    "time_subproblems.noise_split": array_row(
        np.full(4, 0.1), "(4,)", lambda v: time_subproblems(FORWARD, DATA, 0.1, noise_split=v),
        "noise levels in noise_split", nonfinite=InvalidParameterError,
    ),
}


def wrong_shapes(valid: np.ndarray, shape: str) -> list[tuple]:
    """Every other number of axes (0 to ndim + 1), every fixed axis one shorter and one
    longer, and every axis empty."""
    free = [axis.strip() in "mn" for axis in shape.strip("(),").split(",")]
    ndim, shapes = valid.ndim, []
    shapes += [valid.shape[:d] if d < ndim else valid.shape + (1,) * (d - ndim)
               for d in range(ndim + 2) if d != ndim]
    for k, n in enumerate(valid.shape):
        lengths = [0] if free[k] else [n - 1, n + 1, 0]
        shapes += [valid.shape[:k] + (m,) + valid.shape[k + 1 :] for m in dict.fromkeys(lengths)]
    return shapes


@pytest.mark.parametrize("site", ARRAYS)
def test_array_input(site):
    valid, shape, call, error, nonfinite, name = ARRAYS[site]
    for bad in wrong_shapes(valid, shape):
        with pytest.raises(error) as caught:
            call(np.ones(bad))
        assert str(caught.value) == f"{name} must have shape {shape}, got {bad}", caught.value
    last = tuple(n - 1 for n in valid.shape)
    for value in (math.nan, math.inf, -math.inf):
        for at in ((0,) * valid.ndim, last):
            values = valid.copy()
            values[at] = value
            with pytest.raises(nonfinite) as caught:
                call(values)
            assert str(caught.value) == f"{name} must be finite, got {value} at {at}"
    try:
        call(valid)
    except Tripwire:  # the input passed its check and numeric work started
        pass


def test_the_array_table_names_every_checked_input():
    """Every name an _array call of the package gives is a name the array table checks."""
    names = set(re.findall(r'_array\([^,]+, "([^"]+)"', SOURCE))
    assert names == {name for *_, name in ARRAYS.values()}


class TestHelpers:
    @pytest.mark.parametrize(
        "interval, inside, outside",
        [
            ("(0, 1]", [1.0, 0.5, 5e-324], [0.0, -0.0, 1.0000000000000002, math.nan]),
            ("[0, 1)", [0.0, -0.0, 0.9999999999999999], [1.0, -5e-324, math.inf]),
            ("[1, inf)", [1.0, 1.7976931348623157e308], [math.inf, 0.9999999999999999, math.nan]),
            ("[0, inf]", [0.0, math.inf], [-5e-324, -math.inf, math.nan]),
            ("(-inf, inf)", [-1.7976931348623157e308, 0.0], [math.inf, -math.inf, math.nan]),
        ],
    )
    def test_real_open_and_closed_ends(self, interval, inside, outside):
        for value in inside:
            _real(value, "x", interval)
        for value in outside:
            message = re.escape(f"x must lie in {interval}, got {value!r}")
            with pytest.raises(InvalidParameterError, match=message):
                _real(value, "x", interval)

    def test_real_types(self):
        for value in [2, np.int64(2), np.float32(0.5), Fraction(1, 3)]:
            _real(value, "x", "[0, 2]")
        for value in [True, False, "1", None, 1j]:
            with pytest.raises(InvalidParameterError, match=re.escape(f"got {value!r}")):
                _real(value, "x", "[0, 2]")

    def test_count_ends_and_types(self):
        for value in [1, 5, np.int64(3), np.int32(1), np.uint8(5)]:
            _count(value, "w", 1, 5)
        for value in [0, 6, 2.5, 3.0, True, False, np.float64(2.0), "3", None, math.nan]:
            message = re.escape(f"w must lie in {{1, ..., 5}}, got {value!r}")
            with pytest.raises(InvalidParameterError, match=message):
                _count(value, "w", 1, 5)
        with pytest.raises(InvalidParameterError, match=re.escape("n must lie in {0, 1, ...}, got -1")):
            _count(-1, "n", 0)

    def test_error_class_is_the_callers(self):
        with pytest.raises(DomainError):
            _count(4, "time index", 0, 3, DomainError)
        with pytest.raises(DomainError):
            _real(math.nan, "shift", "[0, 1)", DomainError)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: TikhonovConfig(max_iter=2.5), InvalidParameterError),
        (lambda: TikhonovConfig(max_iter=True), InvalidParameterError),
        (lambda: KaczmarzConfig(max_sweeps=2.5), InvalidParameterError),
        (lambda: KaczmarzConfig(memory=1.5), InvalidParameterError),
        (lambda: NoiseSpec(1.0, seed=1.5), InvalidParameterError),
        (lambda: NoiseSpec(1.0, seed=True), InvalidParameterError),
        (lambda: NoiseSpec(math.inf, 0), InvalidParameterError),
        (lambda: ParameterRule(math.inf, 1.0), InvalidParameterError),
        (lambda: OperatorFamily(2.5, 2, trip, trip), InvalidParameterError),
        (lambda: identity_family(2.5), InvalidParameterError),
        (lambda: make_scaling_family(GRID, 2.5), InvalidParameterError),
        (lambda: time_subproblems(FORWARD, DATA, 0.1, sections=2.5), InvalidParameterError),
        (lambda: time_subproblems(FORWARD, DATA, 0.1, sections=True), InvalidParameterError),
        (lambda: rotating_window_pattern(4, 4, 2.5), InvalidParameterError),
        (lambda: make_dct_analogue(4, 4, window=2.5), InvalidParameterError),
        (lambda: make_subsample_observer([[0]], 2.5), InvalidParameterError),
        (lambda: temporal_spectrum(make_dct_analogue(4, 4).forward, 1.5), DomainError),
        (lambda: temporal_spectrum(make_dct_analogue(4, 4).forward, True), DomainError),
        (lambda: make_mpi_analogue(4, 4, decay=math.inf), InvalidParameterError),
        (lambda: make_gaussian_smoothing(SpatialGrid(0.0, 1.0, 4), math.inf), InvalidParameterError),
    ],
    ids=[
        "max_iter-2.5", "max_iter-True", "max_sweeps-2.5", "memory-1.5", "seed-1.5", "seed-True",
        "noise-inf", "rule-scale-inf", "family-2.5", "identity-2.5", "scaling-2.5",
        "sections-2.5", "sections-True", "window-2.5", "dct-window-2.5", "observer-dim-2.5",
        "time-index-1.5", "time-index-True", "decay-inf", "sigma-inf",
    ],
)
def test_inputs_that_used_to_pass_their_check(call, error):
    """Inputs that once built, or failed later with a bare TypeError: each raises where given."""
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: spatial_norm([math.nan, 1.0], 1.0, 2.0), InvalidInputError, "v must be finite"),
        (lambda: landweber_kaczmarz([TRIP_SUB], KaczmarzConfig(), np.zeros(2), [math.nan, 1.0]),
         InvalidInputError, "truth must be finite"),
        (lambda: landweber_kaczmarz([TRIP_SUB], KaczmarzConfig(), []), DimensionError, "start must have"),
        (lambda: make_subsample_observer([[0.5]], 4), InvalidParameterError, "observation index"),
        (lambda: make_subsample_observer([[True]], 4), InvalidParameterError, "observation index"),
        (lambda: make_subsample_observer([[True, False, True, False]], 4), InvalidParameterError,
         "observation index"),
        (lambda: assemble_dense(FORWARD.static, 1.5), DomainError, "time index"),
        (lambda: assemble_dense(FORWARD.static, True), DomainError, "time index"),
        (lambda: LinearSubproblem(trip, trip, [], 0.0), DimensionError, "data must have"),
        (lambda: tikhonov_temporal(FORWARD, DATA, [0.1, math.nan, 0.1, 0.1]), InvalidParameterError,
         "alpha must be finite, got nan at (1,)"),
        (lambda: time_subproblems(FORWARD, DATA, 0.1, noise_split=[[0.1]] * 4), DimensionError,
         "noise levels in noise_split must have shape (4,), got (4, 1)"),
        (lambda: time_subproblems(FORWARD, DATA, 0.1, noise_split=0.1), DimensionError,
         "noise levels in noise_split must have shape (4,), got ()"),
        (lambda: BochnerFunction(TimeGrid(1.0, 2), [[1.0, 2.0], [3.0]]), InvalidInputError,
         "values must be an array of reals (setting an array element with a sequence"),
        (lambda: spatial_norm([1j], 1.0, 2.0), InvalidInputError, "v must be an array of reals ("),
        (lambda: spatial_norm(["a"], 1.0, 2.0), InvalidInputError,
         "v must be an array of reals (could not convert string to float: 'a')"),
        (lambda: spatial_norm(np.array([1 + 1j]), 1.0, 2.0), InvalidInputError,
         "v must be an array of reals (got complex values)"),
        (lambda: BochnerFunction(TimeGrid(1.0, 2), [np.ones(2, complex)] * 2), InvalidInputError,
         "values must be an array of reals (got complex values)"),
    ],
    ids=[
        "spatial-norm-nan", "kaczmarz-truth-nan", "kaczmarz-empty-start", "observer-0.5",
        "observer-True", "observer-mask", "assemble-1.5", "assemble-True", "empty-data",
        "alpha-nan", "noise-split-nested", "noise-split-scalar", "ragged-values", "complex-v",
        "text-v", "complex-array-v", "complex-rows-values",
    ],
)
def test_array_inputs_that_used_to_pass_their_check(call, error, message):
    """Inputs that once ran (a NaN norm or error, a boolean mask read as indices, node 1 for
    True), or failed later with a bare NumPy error or a message naming no input."""
    with pytest.raises(error, match=re.escape(message)):
        call()
