"""Command line driver for the built-in benchmark problems.

Four subcommands, all driven by a sectioned key=value config file:

  forward   build a problem, add noise, export the instance directory
  solve     reconstruct with one of the four methods, export results
  sweep     repeat solve over a list of noise levels, export sweep.csv
  probe     run ill-posedness probes, export their tables

Unknown sections or keys are rejected.  Identical config + seed produce a
byte-identical output tree: every file is written atomically, CSV floats use
%.17g, key=value files use repr, and nothing records wall time or timestamps.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .bochner import BochnerFunction, TimeGrid, _atomic_write_text, bochner_norm, write_csv
from .diagnostics import (
    _check_radii,
    forward_image,
    integrability_tail,
    stacked_spectrum,
    temporal_spectrum,
    translation_modulus,
)
from .errors import (
    ConfigError,
    DimensionError,
    DynregError,
    InvalidInputError,
    InvalidParameterError,
    _count,
    _real,
)
from .operators import apply_forward, load_kernel_csv, load_pattern_csv
from .problems import (
    BUILTIN_PROBLEMS,
    NoiseSpec,
    ProblemInstance,
    add_noise,
    export_instance,
    make_dct_analogue,
    make_identity_problem,
    make_mpi_analogue,
    make_nonuniform_example,
)
from .solvers import (
    KaczmarzConfig,
    ParameterRule,
    SolveReport,
    TikhonovConfig,
    kaczmarz_multi_direction,
    landweber_kaczmarz,
    tikhonov_temporal,
    tikhonov_uniform,
    time_subproblems,
)
from .svgplot import line_plot

_METHODS = ("tikhonov_temporal", "tikhonov_uniform", "landweber_kaczmarz", "kaczmarz_multi")
_PROBES = ("temporal_spectrum", "stacked_spectrum", "integrability", "translation")
_POINTWISE_KINDS = ("dct", "nonuniform", "identity")


def _parse_positive_float(raw: str) -> float:
    value = float(raw)
    _real(value, "value", "(0, inf)")
    return value


def _parse_positive_int(raw: str) -> int:
    value = int(raw)
    _count(value, "value")
    return value


def _parse_omega(raw: str):
    return raw if raw == "auto" else _parse_positive_float(raw)


def _list_of(item):
    """A parser of comma-separated lists of `item`s."""

    def parse(raw: str) -> tuple:
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty list")
        return tuple(item(p) for p in parts)

    return parse


def _key(section: str, parse, default=MISSING, name: str | None = None, kind: str | None = None):
    """A config key: section, parser, file name if not the field's, and the one kind reading it."""
    return field(default=default, metadata=dict(section=section, parse=parse, name=name, kind=kind))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, flattened view of one config file, one field per key."""

    kind: str = _key("problem", str)
    n_t: int = _key("problem", _parse_positive_int, 32)
    n_x: int = _key("problem", _parse_positive_int, 32)
    horizon: float = _key("problem", _parse_positive_float, 1.0, name="T")
    sigma: float = _key("problem", _parse_positive_float, 0.1, kind="dct")
    window: int | None = _key("problem", _parse_positive_int, None, kind="dct")
    decay: float = _key("problem", float, 1.0, kind="mpi")
    pattern_csv: str | None = _key("problem", str, None, kind="dct")
    kernel_csv: str | None = _key("problem", str, None, kind="mpi")
    delta: float = _key("noise", _parse_positive_float, 0.01)
    seed: int = _key("noise", int, 0)
    fraction: float = _key("noise", _parse_positive_float, 0.99)
    method: str = _key("solver", str, "tikhonov_uniform")
    alpha: float | None = _key("solver", _parse_positive_float, None)
    rule_scale: float = _key("solver", _parse_positive_float, 1.0)
    rule_exponent: float = _key("solver", _parse_positive_float, 1.0)
    tol: float = _key("solver", _parse_positive_float, 1e-10)
    max_iter: int = _key("solver", _parse_positive_int, 5000)
    tau: float = _key("solver", _parse_positive_float, 2.0)
    omega: float | str = _key("solver", _parse_omega, "auto")
    max_sweeps: int = _key("solver", int, 500)
    # KaczmarzConfig.memory defaults to 1: see its docstring
    memory: int = _key("solver", _parse_positive_int, 3)
    sections: int | None = _key("solver", _parse_positive_int, None)
    probes: tuple[str, ...] = _key("probe", _list_of(str), _PROBES)
    time_index: int = _key("probe", int, 0)
    radii: tuple[float, ...] = _key("probe", _list_of(_parse_positive_float), (1.0, 2.0, 4.0, 8.0))
    tail_exponent: float = _key("probe", _parse_positive_float, 1.0)
    shift_steps: tuple[int, ...] = _key("probe", _list_of(_parse_positive_int), (1, 2, 4))
    ensemble: int = _key("probe", _parse_positive_int, 8)
    deltas: tuple[float, ...] = _key(
        "sweep", _list_of(_parse_positive_float), (1e-1, 1e-2, 1e-3, 1e-4)
    )
    out_dir: str = _key("output", str, "out", name="dir")


# (section, key in the file) -> field
_KEYS = {(f.metadata["section"], f.metadata["name"] or f.name): f for f in fields(ExperimentConfig)}
_SECTIONS = {section for section, _ in _KEYS}


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a config file; unknown sections or keys are errors."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keep key case, [problem] T is uppercase
    with open(path) as f:
        try:
            parser.read_file(f)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            target = _KEYS.get((section, key))
            if target is None:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
            try:
                values[target.name] = target.metadata["parse"](raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from exc
    if "kind" not in values:
        raise ConfigError(f"{path}: [problem] kind is required")
    cfg = ExperimentConfig(**values)
    _validate(cfg, path, set(values))
    return cfg


def _validate(cfg: ExperimentConfig, path: str, explicit: set[str]) -> None:
    if cfg.kind not in BUILTIN_PROBLEMS:
        raise ConfigError(
            f"{path}: unknown problem kind {cfg.kind!r}, pick one of {sorted(BUILTIN_PROBLEMS)}"
        )
    for (section, name), f in _KEYS.items():
        if f.name in explicit and f.metadata["kind"] not in (None, cfg.kind):
            raise ConfigError(f"{path}: [{section}] {name} is a key of kind {f.metadata['kind']!r}")
    if cfg.window is not None and cfg.window > cfg.n_x:
        raise ConfigError(f"{path}: window {cfg.window} exceeds n_x = {cfg.n_x}")
    if cfg.method not in _METHODS:
        raise ConfigError(f"{path}: unknown method {cfg.method!r}, pick one of {list(_METHODS)}")
    if cfg.sections is not None and cfg.sections > cfg.n_t:
        raise ConfigError(f"{path}: sections {cfg.sections} exceeds n_t = {cfg.n_t}")
    if cfg.method == "tikhonov_temporal" and cfg.kind not in _POINTWISE_KINDS:
        raise ConfigError(
            f"{path}: the tracking solver needs a pointwise problem, not {cfg.kind!r}"
        )
    for probe in cfg.probes:
        if probe not in _PROBES:
            raise ConfigError(f"{path}: unknown probe {probe!r}, pick from {list(_PROBES)}")
    _check_probe_plan(cfg, path, explicit)
    _check_library_values(cfg, path)


def _check_probe_plan(cfg: ExperimentConfig, where: str, keys) -> None:
    """The [probe] keys fit the problem; probes and shift_steps only if in keys.

    load_config passes the keys written in the file, since other commands never
    run the defaults; cmd_probe passes the ones it is about to run.
    """
    if (
        "probes" in keys
        and "temporal_spectrum" in cfg.probes
        and cfg.kind not in _POINTWISE_KINDS
    ):
        raise ConfigError(f"{where}: temporal_spectrum needs a pointwise problem, not {cfg.kind!r}")
    if not 0 <= cfg.time_index < cfg.n_t:
        raise ConfigError(f"{where}: time_index {cfg.time_index} outside [0, {cfg.n_t})")
    if "shift_steps" in keys and any(k >= cfg.n_t for k in cfg.shift_steps):
        raise ConfigError(f"{where}: shift steps must stay below n_t = {cfg.n_t}")


# The keys each library object takes, in its argument order.  A value the
# parser accepts but the object rejects (tol = 2, tau = 0.5) is a config
# error, not a numeric failure of the run.
_LIBRARY_OBJECTS = (
    ("noise", ("delta", "seed", "fraction"), NoiseSpec),
    ("solver", ("tol", "max_iter"), TikhonovConfig),
    ("solver", ("omega", "tau", "max_sweeps", "memory"), KaczmarzConfig),
    ("solver", ("rule_scale", "rule_exponent"), ParameterRule),
    ("probe", ("radii",), _check_radii),
)


def _from_config(build, cfg: ExperimentConfig):
    """build(...) called with its _LIBRARY_OBJECTS keys of cfg."""
    keys = next(keys for _, keys, entry in _LIBRARY_OBJECTS if entry is build)
    return build(*(getattr(cfg, key) for key in keys))


def _check_library_values(cfg: ExperimentConfig, path: str) -> None:
    """Build each library object from the config, one key at a time.

    The other keys keep their defaults, which every object accepts, so an
    error names the one key at fault.
    """
    defaults = ExperimentConfig(cfg.kind)
    for section, keys, build in _LIBRARY_OBJECTS:
        args = [getattr(defaults, key) for key in keys]
        for n, key in enumerate(keys):
            value = getattr(cfg, key)
            try:
                build(*args[:n], value, *args[n + 1 :])
            except InvalidParameterError as exc:
                raise ConfigError(f"{path}: [{section}] {key} = {value!r}: {exc}") from exc


def _build_problem(cfg: ExperimentConfig) -> ProblemInstance:
    try:
        grid = TimeGrid(cfg.horizon, cfg.n_t)
        if cfg.kind == "dct":
            pattern = None if cfg.pattern_csv is None else load_pattern_csv(cfg.pattern_csv, grid)
            return make_dct_analogue(
                cfg.n_t, cfg.n_x, cfg.sigma, cfg.window, cfg.horizon, pattern=pattern
            )
        if cfg.kind == "mpi":
            kernel = None if cfg.kernel_csv is None else load_kernel_csv(cfg.kernel_csv, grid)
            return make_mpi_analogue(cfg.n_t, cfg.n_x, cfg.decay, cfg.horizon, kernel=kernel)
        if cfg.kind == "nonuniform":
            return make_nonuniform_example(cfg.n_t, cfg.n_x, cfg.horizon)
        return make_identity_problem(cfg.n_t, cfg.n_x, cfg.horizon)
    except (InvalidParameterError, InvalidInputError, DimensionError) as exc:
        raise ConfigError(f"cannot build problem: {exc}") from exc


def _alpha_argument(cfg: ExperimentConfig):
    return cfg.alpha if cfg.alpha is not None else _from_config(ParameterRule, cfg)


def _embed_static(problem: ProblemInstance, x: np.ndarray) -> BochnerFunction:
    n_t = problem.forward.time_grid.n_t
    return problem.forward.source_template(np.tile(x, (n_t, 1)))


def _run_solver(
    cfg: ExperimentConfig, problem: ProblemInstance, noisy: BochnerFunction
) -> tuple[SolveReport, BochnerFunction, float, float]:
    """Dispatch on cfg.method at noise level cfg.delta.

    Returns (report, space-time reconstruction, relative error, data residual);
    static reconstructions are embedded as constant-in-time functions.
    """
    if cfg.method in ("tikhonov_temporal", "tikhonov_uniform"):
        solver = tikhonov_temporal if cfg.method == "tikhonov_temporal" else tikhonov_uniform
        report = solver(
            problem.forward,
            noisy,
            _alpha_argument(cfg),
            cfg.delta,
            _from_config(TikhonovConfig, cfg),
            truth=problem.truth,
        )
        reconstruction = report.reconstruction
        error = report.error
    else:
        subs = time_subproblems(problem.forward, noisy, cfg.delta, sections=cfg.sections)
        start = np.zeros(problem.forward.static.n_in)
        loop = landweber_kaczmarz if cfg.method == "landweber_kaczmarz" else kaczmarz_multi_direction
        report = loop(subs, _from_config(KaczmarzConfig, cfg), start)
        reconstruction = _embed_static(problem, report.reconstruction)
        error = bochner_norm(reconstruction - problem.truth) / bochner_norm(problem.truth)
    residual = bochner_norm(apply_forward(problem.forward, reconstruction) - noisy)
    return report, reconstruction, error, residual


def _write_table(path: str, header: str, rows) -> None:
    """One %.17g format per row, as write_csv: an integer below 2**53 prints as str() does."""
    line = ",".join(["%.17g"] * (header.count(",") + 1))
    _atomic_write_text(path, "\n".join([header] + [line % tuple(row) for row in rows]) + "\n")


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _plot(path: str, x, y, **labels) -> None:
    """Best-effort line plot: a failure is reported on stderr, never in the exit status."""
    try:
        line_plot(path, x, y, **labels)
    except Exception as exc:
        print(f"warning: {path} not written: {exc}", file=sys.stderr)


def cmd_forward(cfg: ExperimentConfig, quiet: bool = False) -> None:
    """Build the problem, draw noise, export the instance directory."""
    problem = _build_problem(cfg)
    spec = _from_config(NoiseSpec, cfg)
    noisy = add_noise(problem.data_clean, spec)
    export_instance(problem, noisy, spec, cfg.out_dir)
    _say(quiet, f"wrote {cfg.out_dir}/{{truth,data_clean,data_noisy}}.csv and meta.txt")


def cmd_solve(cfg: ExperimentConfig, quiet: bool = False) -> None:
    """Reconstruct from one noisy draw and export reconstruction/trace/report."""
    problem = _build_problem(cfg)
    noisy = add_noise(problem.data_clean, _from_config(NoiseSpec, cfg))
    report, reconstruction, error, residual = _run_solver(cfg, problem, noisy)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_csv(reconstruction, os.path.join(cfg.out_dir, "reconstruction.csv"))
    _write_table(
        os.path.join(cfg.out_dir, "trace.csv"),
        "iter,subproblem,residual,alpha,error",
        report.trace,
    )
    alpha = report.alphas[0] if report.alphas else math.nan
    grid = problem.forward.time_grid
    text = (
        f"kind={problem.label}\n"
        f"method={cfg.method}\n"
        f"n_t={grid.n_t}\n"
        f"n_x={problem.truth.n_dim}\n"
        f"T={float(grid.horizon)!r}\n"
        f"delta={float(cfg.delta)!r}\n"
        f"seed={cfg.seed}\n"
        f"alpha={float(alpha)!r}\n"
        f"stop_reason={report.stop_reason}\n"
        f"iterations={report.iterations}\n"
        f"residual={float(residual)!r}\n"
        f"relative_error={float(error)!r}\n"
    )
    _atomic_write_text(os.path.join(cfg.out_dir, "report.txt"), text)
    _say(quiet, f"wrote {cfg.out_dir}/{{reconstruction.csv,trace.csv,report.txt}}")


def cmd_sweep(cfg: ExperimentConfig, quiet: bool = False) -> None:
    """Solve across the configured noise levels; seeds advance with the index."""
    problem = _build_problem(cfg)
    rows = []
    for index, delta in enumerate(cfg.deltas):
        one = replace(cfg, delta=delta, seed=cfg.seed + index)
        noisy = add_noise(problem.data_clean, _from_config(NoiseSpec, one))
        report, _, error, residual = _run_solver(one, problem, noisy)
        alpha = report.alphas[0] if report.alphas else math.nan
        rows.append((delta, alpha, error, residual))
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_table(os.path.join(cfg.out_dir, "sweep.csv"), "delta,alpha,error,residual", rows)
    _plot(
        os.path.join(cfg.out_dir, "sweep.svg"),
        [r[0] for r in rows],
        [r[2] for r in rows],
        xlabel="delta",
        ylabel="relative error",
        title=f"{problem.label}: error against noise level",
        logx=True,
        logy=True,
    )
    _say(quiet, f"wrote {cfg.out_dir}/sweep.csv over {len(rows)} noise levels")


def _unit_member(forward, values: np.ndarray) -> BochnerFunction | None:
    """The source with these values scaled to norm 1, or None for a zero-norm draw."""
    draw = forward.source_template(values)
    norm = bochner_norm(draw)
    return draw * (1.0 / norm) if norm > 0.0 else None


def _probe_ensemble(cfg: ExperimentConfig, problem: ProblemInstance) -> Iterator[BochnerFunction]:
    """Unit-ball source ensemble, yielded one member at a time: one constant-in-time
    member, then the draws seeded seed + 1000 + k that have a nonzero norm."""
    forward = problem.forward
    shape = (forward.time_grid.n_t, forward.static.n_in)
    yield _unit_member(forward, np.ones(shape))
    for k in range(cfg.ensemble - 1):
        rng = np.random.default_rng(cfg.seed + 1000 + k)
        member = _unit_member(forward, rng.standard_normal(shape))
        if member is not None:
            yield member


def cmd_probe(cfg: ExperimentConfig, quiet: bool = False) -> None:
    """Run the configured probes and export one table (and plot) each."""
    keys = {"probes"} | ({"shift_steps"} if "translation" in cfg.probes else set())
    _check_probe_plan(cfg, "[probe] defaults", keys)
    problem = _build_problem(cfg)
    forward = problem.forward
    os.makedirs(cfg.out_dir, exist_ok=True)
    written = []

    def _table_with_plot(name, header, rows, xlabel, ylabel, logx, logy):
        _write_table(os.path.join(cfg.out_dir, f"{name}.csv"), header, rows)
        written.append(f"{name}.csv")
        _plot(
            os.path.join(cfg.out_dir, f"{name}.svg"),
            [r[0] for r in rows],
            [r[1] for r in rows],
            xlabel=xlabel,
            ylabel=ylabel,
            title=f"{problem.label}: {name}",
            logx=logx,
            logy=logy,
        )

    if "temporal_spectrum" in cfg.probes:
        rep = temporal_spectrum(forward, cfg.time_index)
        rows = list(enumerate(rep.singular_values, start=1))
        _table_with_plot(
            f"spectrum_t{cfg.time_index}", "k,sigma", rows, "k", "sigma", False, True
        )
    if "stacked_spectrum" in cfg.probes:
        rep = stacked_spectrum(forward)
        rows = list(enumerate(rep.singular_values, start=1))
        _table_with_plot("spectrum_stacked", "k,sigma", rows, "k", "sigma", False, True)
    shifts = [k * forward.time_grid.dt for k in cfg.shift_steps]
    ensemble_probes = {  # each maps one member to its table; the probe's table is their max
        "integrability": lambda member: integrability_tail(
            forward, [member], cfg.radii, cfg.tail_exponent
        ),
        "translation": lambda member: translation_modulus([forward_image(forward, member)], shifts),
    }
    runs = {name: run for name, run in ensemble_probes.items() if name in cfg.probes}
    worst = {}
    # member k - 1 and its image live on while member k is drawn: freeing them first empties
    # the heap each time, and malloc returns it to the system only to fault it back in
    for member in _probe_ensemble(cfg, problem) if runs else ():
        for name, run in runs.items():
            table = run(member)
            if name in worst:
                np.maximum(worst[name][:, 1], table[:, 1], out=worst[name][:, 1])
            else:
                worst[name] = table
    if "integrability" in worst:
        _table_with_plot(
            "integrability", "r,tail", worst["integrability"], "r", "tail mass", True, True
        )
    if "translation" in worst:
        _table_with_plot(
            "translation", "z,modulus", worst["translation"], "z", "modulus", False, False
        )
    _say(quiet, f"wrote {cfg.out_dir}/{{{','.join(written)}}}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process (building it takes about 1 ms)."""
    parser = argparse.ArgumentParser(
        prog="dynreg",
        description="Formulate, probe, and regularize the built-in dynamic inverse problems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    helps = {
        "forward": "export truth, clean data, and one noisy draw",
        "solve": "reconstruct from a noisy draw",
        "sweep": "solve across a list of noise levels",
        "probe": "run spectral/integrability/translation probes",
    }
    for name, help_text in helps.items():
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="sectioned key=value config file")
        sub.add_argument("--out", help="override [output] dir")
        sub.add_argument("--seed", type=int, help="override [noise] seed")
        sub.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
            try:
                _from_config(NoiseSpec, cfg)
            except InvalidParameterError as exc:
                raise ConfigError(f"--seed {args.seed}: {exc}") from exc
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        globals()[f"cmd_{args.command}"](cfg, quiet=args.quiet)  # by name: patched ones run
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except DynregError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
