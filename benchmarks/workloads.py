"""The benchmark's workloads and the checks on their outputs.

A workload op is two `dynreg` CLI calls with fixed configs; the benchmark
seed is passed to both as `--seed`, so it picks the noise draw (and, for
`probe`, the source ensemble).  Every op of one run uses the same seed and
must therefore write byte-identical output trees.

Outputs are checked in two ways:

* `summarize` reduces an op's output tree to the numbers that define its
  result.  Strings and integers (stop reasons, iteration and sweep counts,
  table sizes) must equal the stored reference exactly; floats must agree
  within `RTOL`.  References exist for the seeds in `references.json`.
* `property_errors` checks what must hold for every seed: CG stopped at
  its first iterate below tolerance, Kaczmarz stopped at its first sweep
  that met the discrepancy rule, spectra are descending, tails do not grow
  with the radius.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

RTOL = 1e-6
# Singular values below this share of the largest are rounding noise of the
# SVD algorithm (Jacobi leaves ~1e-156 where LAPACK leaves ~1e-17): read as 0.
ZERO_SINGULAR = 1e-10
CG_TOL = 1e-10  # the CLI's default [solver] tol
SWEEP_DELTAS = (0.1, 0.01, 0.001, 0.0001)  # the CLI's default [sweep] deltas
PROBE_TABLES = {
    "temporal_spectrum": "spectrum_t0.csv",
    "stacked_spectrum": "spectrum_stacked.csv",
    "integrability": "integrability.csv",
    "translation": "translation.csv",
}


@dataclass(frozen=True)
class Call:
    """One `dynreg <command>` call of an op, writing to its own directory."""

    name: str
    command: str
    problem: dict
    sections: dict = field(default_factory=dict)
    seeded: bool = True  # False: the output does not depend on the seed

    def config_text(self) -> str:
        parts = {"problem": self.problem, **self.sections}
        lines = []
        for section, keys in parts.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in keys.items())
        return "\n".join(lines) + "\n"

    def noise_draws(self, seed: int) -> list[tuple[float, int]]:
        """(delta, noise seed) of every draw the call makes, as the CLI seeds them."""
        if self.command == "solve":
            return [(self.sections["noise"]["delta"], seed)]
        if self.command == "sweep":
            return [(delta, seed + k) for k, delta in enumerate(SWEEP_DELTAS)]
        return []


MPI_NOISE = {"delta": 1e-3}

WORKLOADS: dict[str, tuple[Call, ...]] = {
    # Causal kind: the O(n_t^2) causal sums and the Kaczmarz power iteration
    # through per-node closures do nearly all the work.
    "causal-solve": (
        Call(
            "tikhonov",
            "solve",
            {"kind": "mpi", "n_t": 128, "n_x": 64},
            {"noise": MPI_NOISE, "solver": {"method": "tikhonov_uniform"}},
        ),
        Call(
            "kaczmarz",
            "solve",
            {"kind": "mpi", "n_t": 96, "n_x": 32},
            {
                "noise": MPI_NOISE,
                "solver": {"method": "landweber_kaczmarz", "sections": 8, "tau": 2.0},
            },
        ),
    ),
    # Pointwise kinds only: no causal sum runs, and every Kaczmarz solve
    # runs to its sweep cap, a fixed amount of work.
    "pointwise-sweep": (
        Call(
            "temporal",
            "sweep",
            {"kind": "dct", "n_t": 256, "n_x": 64, "window": 32},
            {"solver": {"method": "tikhonov_temporal"}},
        ),
        Call(
            "kaczmarz",
            "sweep",
            {"kind": "nonuniform", "n_t": 128, "n_x": 64},
            {"solver": {"method": "landweber_kaczmarz", "sections": 8, "max_sweeps": 100}},
        ),
    ),
    # Dense assembly, the SVD, and the per-element norm loops; no solver runs.
    "probe": (
        Call(
            "spectra",
            "probe",
            {"kind": "dct", "n_t": 8, "n_x": 16, "window": 8},
            {"probe": {"probes": "temporal_spectrum,stacked_spectrum"}},
            seeded=False,
        ),
        Call(
            "ensemble",
            "probe",
            {"kind": "nonuniform", "n_t": 256, "n_x": 64},
            {
                "probe": {
                    "probes": "integrability,translation",
                    "ensemble": 16,
                    "shift_steps": "1,2,4,8,16",
                    "radii": "1,2,4,8,16,32",
                }
            },
        ),
    ),
}


def _rows(text: bytes) -> tuple[list[str], list[list[float]]]:
    reader = csv.reader(io.StringIO(text.decode()))
    header = next(reader)
    return header, [[float(cell) for cell in row] for row in reader if row]


def _report(text: bytes) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.decode().splitlines() if line)


def summarize(call: Call, files: dict[str, bytes]) -> dict:
    """The numbers that define one call's result, read from its output files."""
    if call.command == "solve":
        report = _report(files["report.txt"])
        return {
            "stop_reason": report["stop_reason"],
            "iterations": int(report["iterations"]),
            "trace_rows": len(_rows(files["trace.csv"])[1]),
            "residual": float(report["residual"]),
            "relative_error": float(report["relative_error"]),
        }
    if call.command == "sweep":
        return {"sweep": _rows(files["sweep.csv"])[1]}
    summary = {}
    for name in sorted(files):
        if not name.endswith(".csv"):
            continue
        rows = _rows(files[name])[1]
        if name.startswith("spectrum"):
            floor = ZERO_SINGULAR * rows[0][1]
            leading = [r[1] if r[1] > floor else 0.0 for r in rows[:10]]
            summary[name] = {"count": len(rows), "leading": leading}
        else:
            summary[name] = rows
    return summary


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= RTOL * max(abs(a), abs(b))
    return a == b


def compare(got, want, where: str = "") -> list[str]:
    """Differences between a summary and its reference, one message each."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}"]
        return [e for key in want for e in compare(got[key], want[key], f"{where}/{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs from the reference"]
        return [e for k, (g, w) in enumerate(zip(got, want)) for e in compare(g, w, f"{where}[{k}]")]
    return [] if _same(got, want) else [f"{where}: {got!r} != reference {want!r}"]


def _finite_positive(values, where: str) -> list[str]:
    return [f"{where}: {v!r} is not finite and positive" for v in values if not (v > 0.0 and math.isfinite(v))]


def property_errors(call: Call, files: dict[str, bytes]) -> list[str]:
    """Checks that hold for every seed, independent of stored references."""
    where = call.name
    if call.command == "solve":
        report = _report(files["report.txt"])
        trace = _rows(files["trace.csv"])[1]
        iterations = int(report["iterations"])
        residuals = [row[2] for row in trace]
        errors = _finite_positive(
            [float(report["residual"]), float(report["relative_error"])], where
        )
        method = call.sections["solver"]["method"]
        if method == "tikhonov_uniform":
            if report["stop_reason"] != "tolerance" or len(trace) != iterations:
                errors.append(f"{where}: CG did not stop on tolerance after {iterations} rows")
            elif not (residuals[-1] <= CG_TOL and all(r > CG_TOL for r in residuals[:-1])):
                errors.append(f"{where}: CG did not stop at its first iterate below {CG_TOL}")
        else:
            sections = call.sections["solver"]["sections"]
            threshold = call.sections["solver"]["tau"] * MPI_NOISE["delta"] / math.sqrt(sections)
            sweeps = [residuals[k : k + sections] for k in range(0, len(residuals), sections)]
            if report["stop_reason"] != "discrepancy" or len(sweeps) != iterations:
                errors.append(f"{where}: Kaczmarz did not stop on the discrepancy rule")
            elif max(sweeps[-1]) > threshold or any(max(s) <= threshold for s in sweeps[:-1]):
                errors.append(f"{where}: stop sweep is not the first to meet {threshold:.6g}")
        return errors
    if call.command == "sweep":
        header, rows = _rows(files["sweep.csv"])
        if header != ["delta", "alpha", "error", "residual"] or [r[0] for r in rows] != list(SWEEP_DELTAS):
            return [f"{where}: sweep.csv does not cover the deltas {SWEEP_DELTAS}"]
        return _finite_positive([v for r in rows for v in (r[2], r[3])], where)
    tables = {n for n in files if n.endswith(".csv")}
    wanted = {PROBE_TABLES[p] for p in call.sections["probe"]["probes"].split(",")}
    if tables != wanted:
        return [f"{where}: wrote {sorted(tables)}, expected {sorted(wanted)}"]
    errors = []
    for name in sorted(tables):
        rows = _rows(files[name])[1]
        values = [r[1] for r in rows]
        if name.startswith("spectrum"):
            if any(b > a for a, b in zip(values, values[1:])) or not values[-1] >= 0.0:
                errors.append(f"{where}/{name}: singular values are not descending and >= 0")
        elif name == "integrability.csv":
            if any(b > a for a, b in zip(values, values[1:])) or min(values) < 0.0:
                errors.append(f"{where}/{name}: tail mass grows with the radius or is negative")
        elif not all(v >= 0.0 and math.isfinite(v) for v in values):
            errors.append(f"{where}/{name}: moduli are not finite and >= 0")
    return errors
