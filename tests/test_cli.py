"""Config parsing, the four subcommands, exit codes, and reproducibility.

Every test drives the real entry point main(argv) against config files
written into tmp_path and inspects the emitted artifacts.
"""

import dataclasses
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dynreg import (
    NoiseSpec,
    add_noise,
    apply_forward,
    bochner_norm,
    integrability_tail,
    make_identity_problem,
    make_nonuniform_example,
    read_csv,
    rotating_window_pattern,
    translation_modulus,
)
from dynreg import cli
from dynreg.bochner import _VECTOR_MIN
from dynreg.cli import ExperimentConfig, load_config, main
from dynreg.svgplot import line_plot


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SRC = BENCHMARKS.parent / "src"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_SCRIPT = """\
import sys
from pathlib import Path
import workloads
from dynreg.cli import main
workload, out, seed = sys.argv[1:]
for call in workloads.WORKLOADS[workload]:
    config = Path(out, call.name + ".ini")
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(call.config_text())
    argv = ["--config", str(config), "--out", str(Path(out, call.name)), "--seed", seed, "--quiet"]
    assert main([call.command, *argv]) == 0
"""


def write_config(path, body: str) -> str:
    path.write_text(textwrap.dedent(body))
    return str(path)


def read_tree(root) -> dict:
    tree = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as f:
            tree[name] = f.read()
    return tree


def read_table(path) -> list[list[str]]:
    lines = path.read_text().strip().splitlines()
    return [line.split(",") for line in lines]


class TestLoadConfig:
    def test_defaults_and_overrides(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "a.ini", """\
            [problem]
            kind = dct
            n_t = 8
            n_x = 16
            T = 2.0
            window = 5

            [solver]
            method = tikhonov_temporal
            alpha = 0.5
            sections = 4

            [noise]
            delta = 0.05
            seed = 7
            """))
        assert cfg.kind == "dct" and cfg.horizon == 2.0 and cfg.window == 5
        assert cfg.alpha == 0.5 and cfg.sections == 4
        assert cfg.delta == 0.05 and cfg.seed == 7
        assert cfg.method == "tikhonov_temporal"
        assert cfg.omega == "auto" and cfg.out_dir == "out"

    def test_kind_required(self, tmp_path):
        path = write_config(tmp_path / "a.ini", "[noise]\ndelta = 0.1\n")
        with pytest.raises(Exception, match="kind is required"):
            load_config(path)

    def test_unknown_key_and_section_rejected(self, tmp_path):
        path = write_config(tmp_path / "a.ini", "[problem]\nkind = dct\nnt = 8\n")
        with pytest.raises(Exception, match="unknown key 'nt'"):
            load_config(path)
        path = write_config(tmp_path / "b.ini", "[problem]\nkind = dct\n\n[plots]\nstyle = x\n")
        with pytest.raises(Exception, match=r"unknown section \[plots\]"):
            load_config(path)
        # The field names of the two keys named otherwise in the file.
        for body, fragment in [
            ("[problem]\nkind = dct\nhorizon = 2\n", r"'horizon' in section \[problem\]"),
            ("[problem]\nkind = dct\n\n[output]\nout_dir = 1\n", r"'out_dir' in section \[output"),
        ]:
            with pytest.raises(Exception, match="unknown key " + fragment):
                load_config(write_config(tmp_path / "c.ini", body))

    def test_value_validation(self, tmp_path):
        for body, fragment in [
            ("[problem]\nkind = sinogram\n", "unknown problem kind"),
            ("[problem]\nkind = dct\nn_x = 4\nwindow = 9\n", "window"),
            ("[problem]\nkind = dct\nn_t = -2\n", "n_t"),
            ("[problem]\nkind = dct\n\n[noise]\ndelta = 0\n", "delta"),
            ("[problem]\nkind = dct\n\n[solver]\nmethod = cg\n", "unknown method"),
            ("[problem]\nkind = dct\n\n[solver]\nrule_exponent = 2\n", "rule_exponent"),
            ("[problem]\nkind = dct\nn_t = 4\n\n[solver]\nsections = 9\n", "sections"),
            ("[problem]\nkind = mpi\n\n[solver]\nmethod = tikhonov_temporal\n", "pointwise"),
            ("[problem]\nkind = mpi\n\n[probe]\nprobes = temporal_spectrum\n", "pointwise"),
            ("[problem]\nkind = dct\nn_t = 4\n\n[probe]\ntime_index = 4\n", "time_index"),
            ("[problem]\nkind = dct\nn_t = 4\n\n[probe]\nshift_steps = 1,4\n", "shift"),
            ("[problem]\nkind = dct\n\n[solver]\ntol = 2\n", r"\[solver\] tol"),
            ("[problem]\nkind = dct\n\n[solver]\ntau = 0.5\n", r"\[solver\] tau"),
            ("[problem]\nkind = dct\n\n[solver]\nmax_sweeps = -1\n", "max_sweeps"),
            ("[problem]\nkind = dct\n\n[noise]\nfraction = 1.5\n", "fraction"),
            ("[problem]\nkind = dct\n\n[noise]\nseed = -1\n", r"\[noise\] seed"),
            ("[problem]\nkind = dct\n\n[probe]\nradii = 4, 2\n", r"\[probe\] radii"),
            ("[problem]\nkind = dct\n\n[probe]\nprobes = ,\n", "empty list"),
            ("[problem]\nkind = dct\n\n[probe]\nprobes = magic\n", "unknown probe 'magic'"),
            ("kind = dct\n", "no section headers"),
        ]:
            path = write_config(tmp_path / "bad.ini", body)
            with pytest.raises(Exception, match=fragment):
                load_config(path)

    def test_every_key_at_its_default_text(self, tmp_path):
        # All 31 keys but the five whose default is None, which has no text;
        # decay is mpi's key, so it is written in a second, mpi config.
        cfg = load_config(write_config(tmp_path / "a.ini", """\
            [problem]
            kind = dct
            n_t = 32
            n_x = 32
            T = 1.0
            sigma = 0.1

            [noise]
            delta = 0.01
            seed = 0
            fraction = 0.99

            [solver]
            method = tikhonov_uniform
            rule_scale = 1.0
            rule_exponent = 1.0
            tol = 1e-10
            max_iter = 5000
            tau = 2.0
            omega = auto
            max_sweeps = 500
            memory = 3

            [probe]
            probes = temporal_spectrum, stacked_spectrum, integrability, translation
            time_index = 0
            radii = 1.0, 2.0, 4.0, 8.0
            tail_exponent = 1.0
            shift_steps = 1, 2, 4
            ensemble = 8

            [sweep]
            deltas = 0.1, 0.01, 0.001, 0.0001

            [output]
            dir = out
            """))
        assert cfg == ExperimentConfig(kind="dct")
        mpi = load_config(write_config(tmp_path / "b.ini", "[problem]\nkind = mpi\ndecay = 1.0\n"))
        assert mpi == ExperimentConfig(kind="mpi")
        unset = [f.name for f in dataclasses.fields(ExperimentConfig) if f.default is None]
        assert unset == ["window", "pattern_csv", "kernel_csv", "alpha", "sections"]
        assert len(dataclasses.fields(ExperimentConfig)) == 31

    @pytest.mark.parametrize(
        "body, key",
        [
            ("kind = dct\nkernel_csv = /nonexistent.csv\n", "kernel_csv"),
            ("kind = dct\ndecay = 2.0\n", "decay"),
            ("kind = mpi\nwindow = 4\n", "window"),
            ("kind = mpi\nsigma = 0.2\n", "sigma"),
            ("kind = mpi\npattern_csv = /nonexistent.csv\n", "pattern_csv"),
            ("kind = nonuniform\nwindow = 4\n", "window"),
            ("kind = identity\ndecay = 2.0\n", "decay"),
        ],
    )
    def test_keys_of_another_kind_exit_2_before_any_output(self, tmp_path, capsys, body, key):
        path = write_config(tmp_path / "a.ini", "[problem]\n" + body)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 2
        assert not out.exists()
        assert f"config error: {path}: [problem] {key} is a key of kind" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", sorted(cli.BUILTIN_PROBLEMS))
    def test_kind_metadata_names_the_keys_the_build_reads(self, kind):
        """The kind= metadata and _build_problem's branches name the same keys."""
        read: set = set()

        class Recording:
            def __getattr__(self, name):
                read.add(name)
                return getattr(ExperimentConfig(kind=kind, n_t=8, n_x=8), name)

        cli._build_problem(Recording())
        specific = {f.name: f.metadata["kind"] for f in dataclasses.fields(ExperimentConfig)
                    if f.metadata["kind"] is not None}
        assert {name for name in read if name in specific} == {
            name for name, owner in specific.items() if owner == kind
        }

    def test_benchmark_configs_are_accepted(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        workloads = importlib.import_module("workloads")
        calls = [call for ops in workloads.WORKLOADS.values() for call in ops]
        assert len(calls) == 6
        for call in calls:
            cfg = load_config(write_config(tmp_path / f"{call.name}.ini", call.config_text()))
            assert cfg.kind == call.problem["kind"]

    def test_probe_list_parsing(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "a.ini", """\
            [problem]
            kind = mpi

            [probe]
            probes = stacked_spectrum, integrability
            radii = 1, 2.5, 10
            """))
        assert cfg.probes == ("stacked_spectrum", "integrability")
        assert cfg.radii == (1.0, 2.5, 10.0)


class TestBenchmarkContract:
    """Each benchmark workload's CLI calls, run through main with its configs and
    seed as benchmarks/run.py runs them, pass its output checks: the properties
    that hold at every seed, and the stored references (stop reasons, CG and
    sweep counts exactly, floats within workloads.RTOL).  So a moved CG or sweep
    count fails here, not only in the benchmark."""

    SEEDS = [("causal-solve", seed) for seed in range(20)] + [
        (workload, seed) for workload in ("probe", "pointwise-sweep") for seed in range(5)
    ]

    @pytest.mark.parametrize("workload, seed", SEEDS)
    def test_workload_meets_its_references(self, tmp_path, monkeypatch, workload, seed):
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        workloads = importlib.import_module("workloads")
        references = json.loads((BENCHMARKS / "references.json").read_text())
        stored = references["workloads"][workload]
        errors = []
        for call in workloads.WORKLOADS[workload]:
            config = write_config(tmp_path / f"{call.name}.ini", call.config_text())
            out = tmp_path / call.name
            argv = ["--config", config, "--out", str(out), "--seed", str(seed), "--quiet"]
            assert main([call.command, *argv]) == 0
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            errors += workloads.property_errors(call, files)
            want = stored[str(seed if call.seeded else references["default_seed"])][call.name]
            errors += workloads.compare(workloads.summarize(call, files), want, call.name)
        assert errors == []

    @staticmethod
    def blas_thread_digests(tmp_path, workload: str, seed: int) -> list[str]:
        """SHA-256 of the workload's output tree, its calls run in a fresh process under
        OPENBLAS_NUM_THREADS (and OMP_, MKL_) = 1 and then 2."""
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(BENCHMARKS)])}
            env.update(dict.fromkeys(THREAD_VARIABLES, threads))
            run = subprocess.run(
                [sys.executable, "-c", WORKLOAD_SCRIPT, workload, str(out), str(seed)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert run.returncode == 0, run.stderr
            digest = hashlib.sha256()
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                digest.update(f"{path.relative_to(out)}\n".encode() + path.read_bytes())
            digests.append(digest.hexdigest())
        return digests

    @pytest.mark.parametrize("seed", [0, 1])
    def test_probe_trees_are_the_same_at_one_and_two_blas_threads(self, tmp_path, seed):
        """Criterion 12 across BLAS thread counts: the probe workload's trees are the
        same, so the batched SVD of the frozen-time stacks and the ensemble probes'
        row-dot sums do not depend on the thread count."""
        first, second = self.blas_thread_digests(tmp_path, "probe", seed)
        assert first == second

    @pytest.mark.parametrize("seed", [0, 1])
    def test_causal_solve_trees_are_the_same_at_one_and_two_blas_threads(self, tmp_path, seed):
        """Criterion 12 across BLAS thread counts for the causal-solve workload: the
        Tikhonov and Kaczmarz solves, their CG and sweep counts, and the %.17g text of
        their reconstructions do not depend on the thread count."""
        first, second = self.blas_thread_digests(tmp_path, "causal-solve", seed)
        assert first == second


class TestExitCodes:
    def test_missing_config_is_io_error(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "absent.ini")]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path / "a.ini", "[problem]\nkind = dct\nbogus = 1\n")
        assert main(["solve", "--config", path]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["forward", "solve", "sweep"])
    def test_negative_seed_override_is_config_error(self, tmp_path, capsys, command):
        path = write_config(tmp_path / "a.ini", "[problem]\nkind = identity\nn_t = 3\nn_x = 2\n")
        out = str(tmp_path / "out")
        assert main([command, "--config", path, "--out", out, "--seed", "-1", "--quiet"]) == 2
        assert "--seed -1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_overflowing_rule_weight_is_numeric_failure(self, tmp_path, capsys):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = identity
            n_t = 3
            n_x = 2

            [noise]
            delta = 1e300

            [solver]
            rule_exponent = 1.5
            """)
        code = main(["solve", "--config", path, "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 3
        assert "numeric failure" in err and "Traceback" not in err

    def test_infinite_decay_is_config_error_without_warning(self, tmp_path, capsys):
        # exp(-decay * tau) at decay = inf is NaN at tau = 0: NumPy warned, then the kernel failed
        path = write_config(tmp_path / "a.ini", "[problem]\nkind = mpi\ndecay = inf\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--config", path, "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        assert code == 2 and not caught and not out.exists()
        assert err == "config error: cannot build problem: decay must lie in [0, inf), got inf\n"

    def test_huge_decay_runs_without_warning(self, tmp_path, capsys):
        # -decay * k overflowed: NumPy printed "overflow encountered in multiply" on stderr
        path = write_config(tmp_path / "a.ini", "[problem]\nkind = mpi\nn_t = 8\nn_x = 4\ndecay = 1e308\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["forward", "--config", path, "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 0 and not caught and capsys.readouterr().err == ""

    def test_underflowing_sigma_is_config_error_without_warning(self, tmp_path, capsys):
        # NumPy warned "divide by zero", then the kernel's NaN diagonal blamed non-finite values
        path = write_config(tmp_path / "a.ini", "[problem]\nkind = dct\nn_t = 4\nn_x = 4\nsigma = 1e-200\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["forward", "--config", path, "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        assert code == 2 and not caught and not out.exists()
        assert err == "config error: cannot build problem: sigma must lie in [1e-150, inf), got 1e-200\n"

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = identity
            n_t = 3
            n_x = 2
            """)
        code = main(["forward", "--config", path, "--out", str(blocker / "sub")])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_help_exits_zero_from_the_one_parser(self, capsys):
        for argv in (["--help"], ["probe", "--help"]):
            with pytest.raises(SystemExit) as stop:
                main(argv)
            assert stop.value.code == 0
        assert "usage: dynreg probe" in capsys.readouterr().out
        with pytest.raises(SystemExit) as stop:
            main(["bogus"])
        assert stop.value.code == 2
        assert cli._parser() is cli._parser()

    def test_handlers_are_looked_up_at_call_time(self, tmp_path, monkeypatch):
        path = write_config(tmp_path / "a.ini", "[problem]\nkind = identity\nn_t = 3\nn_x = 2\n")
        seen = []
        cli._parser()  # built before the patch: the handler is still found
        monkeypatch.setattr(cli, "cmd_probe", lambda cfg, quiet: seen.append(cfg.out_dir))
        assert main(["probe", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert seen == [str(tmp_path / "o")]

    def test_divergent_solver_is_numeric_failure(self, tmp_path, capsys):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = identity
            n_t = 4
            n_x = 3

            [solver]
            method = landweber_kaczmarz
            omega = 1e8
            """)
        code = main(["solve", "--config", path, "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "problem, message",
        [
            ("kind = mpi\nn_t = 16\nn_x = 8\n",
             "temporal_spectrum needs a pointwise problem, not 'mpi'"),
            ("kind = dct\nn_t = 4\nn_x = 4\n", "shift steps must stay below n_t = 4"),
        ],
        ids=["mpi-spectrum", "dct-shifts"],
    )
    def test_probe_defaults_that_cannot_run_exit_2_before_any_output(
        self, tmp_path, capsys, problem, message
    ):
        path = write_config(tmp_path / "a.ini", "[problem]\n" + problem)
        out = tmp_path / "out"
        assert main(["probe", "--config", path, "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"config error: [probe] defaults: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ini"]

    def test_probe_defaults_bind_only_the_probes_that_run(self, tmp_path):
        # shift_steps 1, 2, 4 exceed n_t = 4, but no translation probe runs them;
        # and solve runs no probe at all
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = dct
            n_t = 4
            n_x = 4

            [probe]
            probes = stacked_spectrum
            """)
        assert main(["probe", "--config", path, "--out", str(tmp_path / "p"), "--quiet"]) == 0
        path = write_config(tmp_path / "b.ini", "[problem]\nkind = mpi\nn_t = 16\nn_x = 8\n")
        assert main(["solve", "--config", path, "--out", str(tmp_path / "s"), "--quiet"]) == 0


class TestPatternCsv:
    """[problem] pattern_csv: observation sets read from a file, one row per node."""

    @pytest.mark.parametrize("command", ["forward", "solve"])
    def test_window_pattern_file_equals_window_key(self, tmp_path, command):
        pattern = tmp_path / "pattern.csv"
        rows = rotating_window_pattern(8, 6, 3)
        pattern.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
        trees = []
        for name, key in [("file", f"pattern_csv = {pattern}"), ("key", "window = 3")]:
            body = f"[problem]\nkind = dct\nn_t = 8\nn_x = 6\n{key}\n"
            path = write_config(tmp_path / f"{name}.ini", body)
            out = tmp_path / name
            assert main([command, "--config", path, "--out", str(out), "--quiet"]) == 0
            trees.append(read_tree(out))
        assert trees[0] == trees[1]

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("0,1\n1,2\n2,3\n", "need one pattern row per time node"),
            ("0\n1\n2\n6\n", "observation index must lie in {0, ..., 5}, got 6"),
            ("0\n1\n,\n3\n", "empty observation set at time index 2"),
        ],
        ids=["rows", "index", "empty-row"],
    )
    def test_bad_pattern_file_exits_2(self, tmp_path, capsys, text, fragment):
        pattern = tmp_path / "pattern.csv"
        pattern.write_text(text)
        body = f"[problem]\nkind = dct\nn_t = 4\nn_x = 6\npattern_csv = {pattern}\n"
        path = write_config(tmp_path / "a.ini", body)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot build problem: ") and fragment in err
        assert not out.exists()


class TestForward:
    def test_writes_instance_and_reproduces(self, tmp_path):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = nonuniform
            n_t = 8
            n_x = 4

            [noise]
            delta = 0.1
            """)
        out = tmp_path / "out"
        assert main(["forward", "--config", path, "--out", str(out), "--quiet"]) == 0
        assert sorted(os.listdir(out)) == [
            "data_clean.csv", "data_noisy.csv", "meta.txt", "truth.csv",
        ]
        assert "delta=0.1\n" in (out / "meta.txt").read_text()
        # data geometry is caller-provided on read; nonuniform data carries dx
        clean = read_csv(str(out / "data_clean.csv"), space_weight=1.0 / 4)
        noisy = read_csv(str(out / "data_noisy.csv"), space_weight=1.0 / 4)
        assert bochner_norm(noisy - clean) == pytest.approx(0.099, rel=1e-12)
        first = read_tree(out)
        assert main(["forward", "--config", path, "--out", str(out), "--quiet"]) == 0
        assert read_tree(out) == first

    def test_large_tables_equal_per_element_formatting(self, tmp_path):
        """Tables of _VECTOR_MIN values or more are written by the NumPy %.17g kernel;
        their bytes are those of formatting each value of the instance alone."""
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = dct
            n_t = 48
            n_x = 16
            window = 8
            """)
        out = tmp_path / "out"
        assert main(["forward", "--config", path, "--out", str(out), "--quiet"]) == 0
        cfg = load_config(path)
        problem = cli._build_problem(cfg)
        noisy = add_noise(problem.data_clean, cli._from_config(NoiseSpec, cfg))
        for name, u in [("truth", problem.truth), ("data_clean", problem.data_clean), ("data_noisy", noisy)]:
            table = np.column_stack([u.grid.nodes, u.values])
            assert table.size >= _VECTOR_MIN
            lines = ["t," + ",".join(f"x_{j}" for j in range(u.n_dim))]
            lines += [",".join("%.17g" % x for x in row) for row in table.tolist()]
            assert (out / f"{name}.csv").read_text() == "\n".join(lines) + "\n"

    def test_seed_override_changes_draw(self, tmp_path):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = identity
            n_t = 4
            n_x = 3
            """)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["forward", "--config", path, "--out", str(out_a), "--quiet"])
        main(["forward", "--config", path, "--out", str(out_b), "--seed", "99", "--quiet"])
        assert (out_a / "data_noisy.csv").read_bytes() != (out_b / "data_noisy.csv").read_bytes()
        assert (out_a / "data_clean.csv").read_bytes() == (out_b / "data_clean.csv").read_bytes()
        assert "seed=99" in (out_b / "meta.txt").read_text()


class TestSolve:
    def test_identity_unit_alpha_halves_data(self, tmp_path):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = identity
            n_t = 5
            n_x = 4

            [noise]
            delta = 0.01
            seed = 3

            [solver]
            method = tikhonov_uniform
            alpha = 1.0
            """)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 0
        problem = make_identity_problem(5, 4)
        noisy = add_noise(problem.data_clean, NoiseSpec(0.01, 3))
        rec = read_csv(str(out / "reconstruction.csv"))
        np.testing.assert_allclose(rec.values, noisy.values / 2.0, rtol=1e-15)
        report = (out / "report.txt").read_text()
        assert "method=tikhonov_uniform\n" in report
        assert "alpha=1.0\n" in report
        assert "stop_reason=tolerance\n" in report
        error = float(report.split("relative_error=")[1].splitlines()[0])
        expected = bochner_norm(noisy * 0.5 - problem.truth) / bochner_norm(problem.truth)
        assert error == pytest.approx(expected, rel=1e-12)

    def test_decoupling_paired_runs(self, tmp_path):
        base = """\
            [problem]
            kind = dct
            n_t = 6
            n_x = 8

            [solver]
            method = {method}
            alpha = 0.001
            """
        outs = {}
        for method in ("tikhonov_temporal", "tikhonov_uniform"):
            path = write_config(tmp_path / f"{method}.ini", base.format(method=method))
            out = tmp_path / method
            assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 0
            outs[method] = read_csv(str(out / "reconstruction.csv"))
        gap = bochner_norm(outs["tikhonov_temporal"] - outs["tikhonov_uniform"])
        assert gap <= 1e-8 * bochner_norm(outs["tikhonov_uniform"])

    def test_kaczmarz_zero_sweeps_returns_start(self, tmp_path):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = mpi
            n_t = 6
            n_x = 5

            [solver]
            method = landweber_kaczmarz
            max_sweeps = 0
            """)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 0
        rec = read_csv(str(out / "reconstruction.csv"))
        np.testing.assert_array_equal(rec.values, np.zeros((6, 5)))
        report = (out / "report.txt").read_text()
        assert "stop_reason=max_iter\n" in report
        assert "iterations=0\n" in report

    def test_kaczmarz_sections_solve(self, tmp_path):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = mpi
            n_t = 16
            n_x = 16

            [noise]
            delta = 0.01

            [solver]
            method = landweber_kaczmarz
            sections = 4
            """)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 0
        table = read_table(out / "trace.csv")
        assert table[0] == ["iter", "subproblem", "residual", "alpha", "error"]
        assert {row[1] for row in table[1:]} == {"0", "1", "2", "3"}

    def test_trace_matches_report_for_multi(self, tmp_path):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = identity
            n_t = 4
            n_x = 3

            [solver]
            method = kaczmarz_multi
            memory = 2
            max_sweeps = 20
            """)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 0
        report = (out / "report.txt").read_text()
        # a static unknown cannot match the moving truth, so the loop runs out
        assert "stop_reason=max_iter\n" in report
        sweeps = int(report.split("iterations=")[1].splitlines()[0])
        assert sweeps == 20
        table = read_table(out / "trace.csv")
        assert len(table) - 1 == sweeps * 4

    def test_reruns_are_byte_identical(self, tmp_path):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = nonuniform
            n_t = 6
            n_x = 6

            [solver]
            method = tikhonov_uniform
            """)
        out = tmp_path / "out"
        main(["solve", "--config", path, "--out", str(out), "--quiet"])
        first = read_tree(out)
        main(["solve", "--config", path, "--out", str(out), "--quiet"])
        assert read_tree(out) == first


def per_cell_table(header: str, rows) -> str:
    """The table writer's former rule, kept as its oracle: str() of an integer cell,
    %.17g of a float() of any other."""
    lines = [header]
    for row in rows:
        cells = [str(int(c)) if isinstance(c, (int, np.integer)) else f"{float(c):.17g}" for c in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_table_rows_equal_the_per_cell_rule(tmp_path):
    trace = [
        (0, 7, 0.1, math.nan, -0.0),
        (np.int64(12), np.int32(-3), math.inf, -math.inf, 5e-324),
        (2**53 - 1, -(2**53 - 1), np.float64(1 / 3), 1e300, -2.5),
    ]
    tables = {"trace": trace, "array": np.array([[1.0, -0.0], [math.inf, math.nan]]),
              "enumerated": list(enumerate(np.array([2.0, 1e-17]), start=1))}
    for name, rows in tables.items():
        header = ",".join("abcde"[: len(rows[0])])
        cli._write_table(str(tmp_path / name), header, rows)
        assert (tmp_path / name).read_text() == per_cell_table(header, rows)


class TestSweep:
    def test_dct_errors_strictly_decrease(self, tmp_path):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = dct
            n_t = 8
            n_x = 8

            [solver]
            method = tikhonov_uniform
            rule_scale = 1.0
            rule_exponent = 1.0

            [sweep]
            deltas = 0.1, 0.01, 0.001, 0.0001
            """)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out), "--quiet"]) == 0
        table = read_table(out / "sweep.csv")
        assert table[0] == ["delta", "alpha", "error", "residual"]
        deltas = [float(row[0]) for row in table[1:]]
        alphas = [float(row[1]) for row in table[1:]]
        errors = [float(row[2]) for row in table[1:]]
        assert deltas == [0.1, 0.01, 0.001, 0.0001]
        assert alphas == deltas
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert (out / "sweep.svg").exists()

    def test_single_delta_single_row(self, tmp_path):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = identity
            n_t = 4
            n_x = 3

            [sweep]
            deltas = 0.05
            """)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out), "--quiet"]) == 0
        assert len(read_table(out / "sweep.csv")) == 2

    def test_rerun_byte_identical_tree(self, tmp_path):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = identity
            n_t = 6
            n_x = 4

            [sweep]
            deltas = 0.1, 0.01
            """)
        out = tmp_path / "out"
        main(["sweep", "--config", path, "--out", str(out), "--quiet"])
        first = read_tree(out)
        main(["sweep", "--config", path, "--out", str(out), "--quiet"])
        assert read_tree(out) == first
        assert set(first) == {"sweep.csv", "sweep.svg"}


class TestPlotFailure:
    @pytest.mark.parametrize(
        "command, section, name",
        [("sweep", "[sweep]\ndeltas = 0.1, 0.01", "sweep"),
         ("probe", "[probe]\nprobes = temporal_spectrum", "spectrum_t0")],
        ids=["sweep", "probe"],
    )
    def test_failed_plot_warns_on_stderr(self, tmp_path, capsys, monkeypatch, command, section, name):
        def broken_plot(*args, **kwargs):
            raise RuntimeError("no canvas")

        monkeypatch.setattr("dynreg.cli.line_plot", broken_plot)
        path = write_config(
            tmp_path / "a.ini", f"[problem]\nkind = identity\nn_t = 4\nn_x = 3\n\n{section}\n"
        )
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out), "--quiet"]) == 0
        assert len(read_table(out / f"{name}.csv")) > 1
        assert not (out / f"{name}.svg").exists()
        svg = os.path.join(str(out), f"{name}.svg")
        assert capsys.readouterr().err == f"warning: {svg} not written: no canvas\n"

    def test_plot_of_no_points_raises(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to plot"):
            line_plot(str(tmp_path / "a.svg"), [1.0, 2.0], [0.0, -1.0], logy=True)
        assert not list(tmp_path.iterdir())


class TestProbe:
    def test_identity_flat_spectrum_rows(self, tmp_path):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = identity
            n_t = 3
            n_x = 4

            [probe]
            probes = temporal_spectrum
            time_index = 1
            """)
        out = tmp_path / "out"
        assert main(["probe", "--config", path, "--out", str(out), "--quiet"]) == 0
        table = read_table(out / "spectrum_t1.csv")
        assert table[0] == ["k", "sigma"]
        assert [row[0] for row in table[1:]] == ["1", "2", "3", "4"]
        assert all(float(row[1]) == pytest.approx(1.0, abs=1e-12) for row in table[1:])

    def test_stacked_row_count(self, tmp_path):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = dct
            n_t = 8
            n_x = 16

            [probe]
            probes = stacked_spectrum
            """)
        out = tmp_path / "out"
        assert main(["probe", "--config", path, "--out", str(out), "--quiet"]) == 0
        assert len(read_table(out / "spectrum_stacked.csv")) - 1 == 8 * 16

    def test_integrability_tail_grows_under_refinement(self, tmp_path):
        tails = []
        for n_t in (16, 32):
            path = write_config(tmp_path / f"c{n_t}.ini", f"""\
                [problem]
                kind = nonuniform
                n_t = {n_t}
                n_x = 4

                [probe]
                probes = integrability
                radii = 4.0, 8.0
                """)
            out = tmp_path / f"out{n_t}"
            assert main(["probe", "--config", path, "--out", str(out), "--quiet"]) == 0
            table = read_table(out / "integrability.csv")
            assert table[0] == ["r", "tail"]
            tails.append(float(table[1][1]))
        assert tails[1] > tails[0]

    def test_translation_table(self, tmp_path):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = mpi
            n_t = 8
            n_x = 6

            [probe]
            probes = translation
            shift_steps = 1, 2
            """)
        out = tmp_path / "out"
        assert main(["probe", "--config", path, "--out", str(out), "--quiet"]) == 0
        table = read_table(out / "translation.csv")
        assert table[0] == ["z", "modulus"]
        assert len(table) == 3
        assert all(float(row[1]) >= 0.0 for row in table[1:])

    def test_shared_ensemble_images_write_the_same_tables(self, tmp_path):
        # both ensemble probes in one call reuse the images; each alone forms its own
        body = """\
            [problem]
            kind = nonuniform
            n_t = 24
            n_x = 6

            [probe]
            probes = {probes}
            ensemble = 5
            radii = 1, 4, 16
            shift_steps = 1, 3
            """
        trees = {}
        for probes in ("integrability,translation", "integrability", "translation"):
            path = write_config(tmp_path / f"{probes}.ini", body.format(probes=probes))
            out = tmp_path / probes
            assert main(["probe", "--config", path, "--out", str(out), "--seed", "3", "--quiet"]) == 0
            trees[probes] = read_tree(out)
        both = trees["integrability,translation"]
        for name in ("integrability", "translation"):
            for ext in (".csv", ".svg"):
                assert both[name + ext] == trees[name][name + ext]

    def test_streamed_ensemble_writes_the_whole_list_tables(self, tmp_path):
        # the CLI runs each probe on one member at a time and keeps the elementwise max
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = nonuniform
            n_t = 24
            n_x = 6

            [probe]
            probes = integrability,translation
            ensemble = 6
            radii = 0.5, 1, 2, 4
            shift_steps = 1, 2, 4, 8
            """)
        out = tmp_path / "out"
        assert main(["probe", "--config", path, "--out", str(out), "--seed", "0", "--quiet"]) == 0
        forward = make_nonuniform_example(24, 6).forward
        shape = (24, 6)
        draws = [np.ones(shape)]
        draws += [np.random.default_rng(1000 + k).standard_normal(shape) for k in range(5)]
        sources = [forward.source_template(d) for d in draws]
        members = [f * (1.0 / bochner_norm(f)) for f in sources]
        images = [apply_forward(forward, f) for f in members]
        shifts = [k * forward.time_grid.dt for k in (1, 2, 4, 8)]
        radii = [0.5, 1.0, 2.0, 4.0]
        tables = {
            "integrability": ("r,tail", integrability_tail(forward, members, radii)),
            "translation": ("z,modulus", translation_modulus(images, shifts)),
        }
        single = {
            "integrability": [integrability_tail(forward, [f], radii)[:, 1] for f in members],
            "translation": [translation_modulus([f], shifts)[:, 1] for f in images],
        }
        for name, (header, table) in tables.items():
            # the maximum moves between members across the rows
            assert len(set(np.argmax(single[name], axis=0))) >= 2
            cli._write_table(str(tmp_path / f"{name}.csv"), header, table)
            written = (out / f"{name}.csv").read_bytes()
            assert written == (tmp_path / f"{name}.csv").read_bytes()

    def test_ensemble_memory_does_not_grow_with_its_size(self, tmp_path):
        # streamed, 28 more members may cost less than one member's bytes; holding
        # every member and its image at once took 28 * 64 KiB more at 32 than at 4
        n_t, n_x = 128, 32
        member_bytes = n_t * n_x * 8

        def peak(ensemble):
            path = write_config(tmp_path / f"e{ensemble}.ini", f"""\
                [problem]
                kind = nonuniform
                n_t = {n_t}
                n_x = {n_x}

                [probe]
                probes = integrability,translation
                ensemble = {ensemble}
                """)
            argv = ["probe", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(32)  # warm-up: first-call allocations are not the ensemble's
        assert peak(32) < peak(4) + member_bytes + 16 * 2**10

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path / "a.ini", """\
            [problem]
            kind = identity
            n_t = 3
            n_x = 2

            [probe]
            probes = stacked_spectrum
            """)
        main(["probe", "--config", path, "--out", str(tmp_path / "o1"), "--quiet"])
        assert capsys.readouterr().out == ""
        main(["probe", "--config", path, "--out", str(tmp_path / "o2")])
        assert "spectrum_stacked.csv" in capsys.readouterr().out


class TestConfigDataclass:
    def test_defaults_match_documented_values(self):
        cfg = ExperimentConfig(kind="dct")
        assert cfg.n_t == 32 and cfg.n_x == 32 and cfg.horizon == 1.0
        assert cfg.delta == 0.01 and cfg.fraction == 0.99
        assert cfg.method == "tikhonov_uniform"
        assert cfg.tau == 2.0 and cfg.max_sweeps == 500
        assert cfg.deltas == (1e-1, 1e-2, 1e-3, 1e-4)
        assert math.isclose(cfg.tol, 1e-10)
