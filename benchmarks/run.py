"""dynreg benchmark: closed-loop CLI workloads, end-to-end and per layer.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload causal-solve --seed 0 --seconds 55 --trace 0

The benchmark imports `dynreg` from the checkout's `src/` and drives it the
way its users do, through `dynreg.cli.main([...])` with the fixed configs of
`workloads.py`.  It is a closed loop: one process, one op at a time, and
the next op starts when the previous one returns.  BLAS runs on one thread.

The host's speed drifts: the median op time of a 40 s window moves by up
to 25%, in phases that slow small fixed pieces of Python and NumPy work by
similar factors.  So two fixed calibration ops, independent of dynreg (a
pure-Python loop and a small-array NumPy solve, the two kinds of work
dynreg's ops are made of), run before the first and after every timed
piece of work (each set-up, each CLI call).  A calibration time is the
geometric mean of the two, and every reported time is scaled to a host on
which it is CALIB_REF_S: scaled = measured * CALIB_REF_S / calib, with
calib the geometric mean of the calibration runs just before and just
after.  The median calibration time is recorded as `host.calib_s`; the
unscaled values are printed in the `host` record.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` ops alternate between untraced and
traced (see `tracing.py`) and it holds the per-layer metrics instead.  The
lines before it list every metric with its unit and record the host.  An
op fails on an exception, a nonzero exit code, or a failed output check
(see `workloads.py`); every op of one run must write the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
REFERENCES = Path(__file__).resolve().parent / "references.json"
BLAS_THREADS = "1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALIB_LOOPS = 120_000
CALIB_SOLVES = 25
CALIB_REF_S = 0.012
SETUP_REPEATS = 15
TAIL_BEYOND = 10


def load_dynreg():
    """Import the checkout's dynreg, never an installed copy; return numpy."""
    for variable in THREAD_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    if not (SRC / "dynreg" / "__init__.py").is_file():
        sys.exit(f"no dynreg package under {SRC}: run from the root of a dynreg checkout")
    sys.path.insert(0, str(SRC))
    import numpy

    dynreg = importlib.import_module("dynreg")
    if SRC.resolve() not in Path(dynreg.__file__).resolve().parents:
        sys.exit(f"imported dynreg from {dynreg.__file__}, not from {SRC}")
    return numpy


def python_calibration() -> int:
    """Fixed pure-Python work, like dynreg's scalar loops."""
    total = 0
    for k in range(CALIB_LOOPS):
        total += (k * k) % 7
    return total


def numpy_calibration(np) -> float:
    """Fixed small-array NumPy work, like dynreg's per-node solves: CG on a
    64x64 Gaussian system, restarted CALIB_SOLVES times."""
    x0 = np.linspace(0.0, 1.0, 64)
    matrix = np.exp(-((x0[:, None] - x0[None, :]) ** 2) / 0.02) / 64 + 0.01 * np.eye(64)
    total = 0.0
    for _ in range(CALIB_SOLVES):
        x, r = np.zeros(64), np.ones(64)
        p, rs = r.copy(), 64.0
        for _ in range(40):
            ap = matrix @ p
            step = rs / float(p @ ap)
            x = x + step * p
            r = r - step * ap
            rs_next = float(r @ r)
            p = r + (rs_next / rs) * p
            rs = rs_next
        total += float(x.sum())
    return total


class Clock:
    """Times work between calibration runs and scales it to CALIB_REF_S.

    A calibration run times both calibration ops; its time is the geometric
    mean of the two, since dynreg's ops mix both kinds of work.
    """

    def __init__(self, np) -> None:
        self.np = np
        self.calib: list[float] = []
        self.expected = (python_calibration(), numpy_calibration(np))
        self._last = self._calibrate()

    def _calibrate(self) -> float:
        start = time.perf_counter()
        python_result = python_calibration()
        middle = time.perf_counter()
        numpy_result = numpy_calibration(self.np)
        end = time.perf_counter()
        if (python_result, numpy_result) != self.expected:
            raise RuntimeError("a calibration op changed its result")
        self.calib.append(math.sqrt((middle - start) * (end - middle)))
        return self.calib[-1]

    def measure(self, work):
        """Run work(); return (result, wall seconds, scale to the reference host)."""
        start = time.perf_counter()
        result = work()
        elapsed = time.perf_counter() - start
        before, self._last = self._last, self._calibrate()
        return result, elapsed, CALIB_REF_S / math.sqrt(before * self._last)


def main_exit_code(cli, argv) -> int | None:
    """dynreg's exit code for argv, or None if the call raised."""
    try:
        return cli.main(argv)
    except Exception as exc:  # a crashing call fails its op; the loop goes on
        print(f"dynreg {' '.join(argv)} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def purge_dynreg() -> None:
    for name in [n for n in sys.modules if n == "dynreg" or n.startswith("dynreg.")]:
        del sys.modules[name]


def setup_once(calls, seed: int) -> None:
    """Import dynreg, build each problem instance of the op, draw its noise."""
    purge_dynreg()
    dynreg = importlib.import_module("dynreg")
    for call in calls:
        kwargs = {k: v for k, v in call.problem.items() if k != "kind"}
        problem = dynreg.BUILTIN_PROBLEMS[call.problem["kind"]](**kwargs)
        for delta, noise_seed in call.noise_draws(seed):
            dynreg.add_noise(problem.data_clean, dynreg.NoiseSpec(delta, noise_seed))


def read_tree(work: Path, calls) -> dict[str, dict[str, bytes]]:
    tree = {}
    for call in calls:
        out = work / call.name
        tree[call.name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return tree


def tree_digest(tree) -> str:
    h = hashlib.sha256()
    for call_name, files in sorted(tree.items()):
        for name, data in sorted(files.items()):
            h.update(f"{call_name}/{name}:{len(data)}\n".encode())
            h.update(data)
    return h.hexdigest()


def check_tree(workload: str, calls, tree, seed: int, references: dict) -> list[str]:
    """Output-check errors of one op's tree; empty when the op is correct."""
    errors = []
    stored = references["workloads"].get(workload, {})
    for call in calls:
        files = tree[call.name]
        ref_seed = seed if call.seeded else references["default_seed"]
        want = stored.get(str(ref_seed), {}).get(call.name)
        try:
            errors += workloads.property_errors(call, files)
            if want is not None:
                errors += workloads.compare(workloads.summarize(call, files), want, call.name)
        except (KeyError, ValueError, IndexError, StopIteration, UnicodeDecodeError) as exc:
            errors.append(f"{call.name}: unreadable output ({type(exc).__name__}: {exc})")
    return errors


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and its value.

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies; the
    minimum is reported and the percentile printed beside it shows that.
    """
    ordered = sorted(values)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def blas_record(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


@dataclass
class Sample:
    """One op of the loop."""

    traced: bool
    seconds: float
    scale: float  # to the reference host, see Clock
    failed: bool
    bytes_written: int
    layers: dict | None  # tracer counters of a traced op


def run(args) -> int:
    np = load_dynreg()
    calls = workloads.WORKLOADS[args.workload]
    references = json.loads(REFERENCES.read_text())
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for call in calls:
        (work / f"{call.name}.ini").write_text(call.config_text())

    clock = Clock(np)
    setups = [clock.measure(lambda: setup_once(calls, args.seed))[1:] for _ in range(SETUP_REPEATS)]
    cli = importlib.import_module("dynreg.cli")  # the modules of the last setup import
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    def op():
        """Run the op's CLI calls; return exit codes, wall seconds, scaled seconds."""
        codes, seconds, scaled = [], 0.0, 0.0
        for call in calls:
            argv = [call.command, "--config", str(work / f"{call.name}.ini")]
            argv += ["--out", str(work / call.name), "--seed", str(args.seed), "--quiet"]
            code, elapsed, scale = clock.measure(lambda: main_exit_code(cli, argv))
            codes.append(code)
            seconds += elapsed
            scaled += elapsed * scale
        return codes, seconds, scaled / seconds

    verdicts: dict[str, list[str]] = {}
    first_digest = None
    samples: list[Sample] = []
    loop_start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(samples) % 2 == 1
        before = tracer.snapshot() if traced else None
        for call in calls:
            shutil.rmtree(work / call.name, ignore_errors=True)
        if tracer:
            tracer.active = traced
        codes, seconds, scale = op()
        if tracer:
            tracer.active = False
        layers = None
        if traced:
            after = tracer.snapshot()
            layers = {k: after[k] - before.get(k, 0) for k in after}
        tree = read_tree(work, calls)
        digest = tree_digest(tree)
        if digest not in verdicts:
            verdicts[digest] = check_tree(args.workload, calls, tree, args.seed, references)
            for error in verdicts[digest]:
                print(f"check failed: {error}", file=sys.stderr)
        first_digest = first_digest or digest
        failed = codes != [0] * len(calls) or bool(verdicts[digest]) or digest != first_digest
        size = sum(len(data) for files in tree.values() for data in files.values())
        samples.append(Sample(traced, seconds, scale, failed, size, layers))
        spent = time.perf_counter() - loop_start
        enough = not tracer or sum(s.traced for s in samples) >= 2
        if enough and spent * (len(samples) + 1) / len(samples) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(work, ignore_errors=True)

    errors = []
    if tracer:
        errors = trace_checks(tracer, samples, cli)
        tracer.write_spans(WORK / f"spans-{args.workload}.csv")
    attempted = len(samples)
    failed = sum(s.failed for s in samples)
    timed = [s for s in samples if not s.traced]
    rows = timing_rows([s.seconds * s.scale for s in timed], [m * k for m, k in setups])
    rows += [
        ("peak_rss_mb", peak_rss_mb, "MB", "peak resident memory of the process"),
        ("failed_frac", failed / attempted, "1", f"{failed} of {attempted} ops failed"),
    ]
    unscaled = timing_rows([s.seconds for s in timed], [m for m, _ in setups])
    metrics = rows[:5]  # failed_frac travels as "failed" / "attempted"
    if tracer:
        traced_ops = [s for s in samples if s.traced]
        overhead = statistics.median(s.seconds * s.scale for s in traced_ops) / rows[0][1] - 1.0
        metrics = layer_rows(traced_ops) + [("trace.overhead_frac", overhead, "1", "traced / untraced op_p50_s - 1")]
        rows = metrics

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  (closed loop, one client)")
    for name, value, unit, note in rows:
        print(f"  {name:28s} {value:14.6g} {unit:6s} {note}")
    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(np),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARIABLES},
        "seed": args.seed,
        "host.calib_s": statistics.median(clock.calib),
        "calib_range_s": [min(clock.calib), max(clock.calib)],
        "calib_ref_s": CALIB_REF_S,
        "unscaled": {name: value for name, value, _, _ in unscaled},
    }
    print("host " + json.dumps(host))
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in metrics},
    }
    print(json.dumps(result))
    return 0


def timing_rows(op_s: list[float], setup_s: list[float]) -> list[tuple[str, float, str, str]]:
    """The timed end-to-end metrics from per-op and per-set-up seconds."""
    percentile, tail_s = tail(op_s)
    return [
        ("op_p50_s", statistics.median(op_s), "s", f"median of {len(op_s)} ops"),
        ("op_tail_s", tail_s, "s", f"p{percentile:.1f} of {len(op_s)} ops"),
        ("ops_per_s", len(op_s) / sum(op_s), "1/s", "ops per second of op wall time"),
        ("setup_s", statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups"),
    ]


def layer_rows(traced: list[Sample]) -> list[tuple[str, float, str, str]]:
    """Median per-op value of every per-layer metric over the traced ops."""
    per_op = [layer_metrics(s.layers) for s in traced]
    rows = []
    for name, (_, unit) in per_op[0].items():
        values = [m[name][0] * (s.scale if unit == "s" else 1.0) for m, s in zip(per_op, traced)]
        rows.append((name, statistics.median(values), unit, f"median of {len(values)} traced ops"))
    rows.append(("cli.bytes_written", statistics.median(s.bytes_written for s in traced), "B", "output tree of one op"))
    return rows


def trace_checks(tracer: Tracer, samples: list[Sample], cli) -> list[str]:
    """The benchmark's own count identities on the traced run."""
    errors = []
    counts = [{k: v for k, v in s.layers.items() if k[0] in ("calls", "count")} for s in samples if s.traced]
    if any(c != counts[0] for c in counts[1:]):
        errors.append("call counts differ between traced ops")
    problem = tracer.last_problem
    tracer.restore()
    before = tracer.snapshot()
    # through a restored module name and a family wrapper that outlived tracing
    cli.apply_forward(problem.forward, problem.truth)
    if tracer.snapshot() != before:
        errors.append("a call made after tracing ended was counted")
    return tracer.errors + errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
