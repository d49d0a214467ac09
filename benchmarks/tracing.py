"""Per-layer tracing of dynreg, installed from outside the package.

`Tracer.install` replaces dynreg's public functions with timing wrappers
under every name they are imported by (for example both
`dynreg.solvers.apply_forward` and `dynreg.cli.apply_forward`), wraps the
operator family of each problem the constructors return and the
sub-problems `time_subproblems` returns, and `restore` puts the originals
back.  Nothing under `src/` changes.

Wrapped calls become parent-linked spans kept in memory.  The two
high-frequency leaves, operator-family calls and `spatial_norm`, are
counted and timed without a span record; their time is charged to the
enclosing span as child time.  A span's self time is its duration minus
the time of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import replace

# (defining module, function, span name); leaves record no span.
SPANS = [
    ("cli", "main", "cli.main"),
    ("problems", "make_dct_analogue", "problems.build"),
    ("problems", "make_mpi_analogue", "problems.build"),
    ("problems", "make_nonuniform_example", "problems.build"),
    ("problems", "make_identity_problem", "problems.build"),
    ("problems", "add_noise", "problems.add_noise"),
    ("operators", "apply_forward", "operators.apply_forward"),
    ("operators", "apply_adjoint", "operators.apply_adjoint"),
    ("solvers", "tikhonov_temporal", "solvers.tikhonov_temporal"),
    ("solvers", "tikhonov_uniform", "solvers.tikhonov_uniform"),
    ("solvers", "landweber_kaczmarz", "solvers.landweber_kaczmarz"),
    ("solvers", "kaczmarz_multi_direction", "solvers.kaczmarz_multi_direction"),
    ("solvers", "time_subproblems", "solvers.time_subproblems"),
    ("solvers", "_cg", "solvers.cg"),
    ("diagnostics", "assemble_dense", "diagnostics.assemble_dense"),
    ("diagnostics", "singular_values", "diagnostics.singular_values"),
    ("diagnostics", "temporal_spectrum", "diagnostics.temporal_spectrum"),
    ("diagnostics", "stacked_spectrum", "diagnostics.stacked_spectrum"),
    ("diagnostics", "integrability_tail", "diagnostics.integrability_tail"),
    ("diagnostics", "translation_modulus", "diagnostics.translation_modulus"),
    ("bochner", "bochner_norm", "bochner.bochner_norm"),
    ("bochner", "spatial_norm", "bochner.spatial_norm"),
    ("bochner", "write_csv", "bochner.write_csv"),
]
LEAVES = {"bochner.spatial_norm", "operators.family"}
SOLVER_SPANS = [name for _, _, name in SPANS if name.startswith("solvers.")]


class Tracer:
    """Spans, call counts and self times of the wrapped functions.

    Counting happens only while `active` is set, so calls made outside a
    traced op, or through a wrapper that outlived `restore`, leave every
    counter unchanged.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple[int, int, str, int, int]] = []  # id, parent id, name, start, end
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.outer_ns: defaultdict[str, int] = defaultdict(int)  # outermost spans only
        self.counts: defaultdict[str, int] = defaultdict(int)  # counts read from results
        self.errors: list[str] = []
        self.last_problem = None
        self._depth: defaultdict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, child ns]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        """A stand-in for fn that records a span (or a leaf) while active.

        hook(result, calls_at_entry) may check or replace the result.
        """
        tracer = self
        if name in LEAVES:

            def leaf(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                start = time.perf_counter_ns()
                result = fn(*args, **kwargs)
                duration = time.perf_counter_ns() - start
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration
                tracer.outer_ns[name] += duration
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                return result

            return leaf

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entry = dict(tracer.calls) if hook else None
            result = tracer._span(name, fn, args, kwargs)
            return hook(result, entry) if hook else result

        return span

    def _span(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [self._next_id, 0]
        self._next_id += 1
        stack.append(frame)
        self._depth[name] += 1
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._depth[name] -= 1
            duration = end - start
            self.calls[name] += 1
            self.self_ns[name] += duration - frame[1]
            if self._depth[name] == 0:
                self.outer_ns[name] += duration
            if parent is not None:
                parent[1] += duration
            self.spans.append((frame[0], parent[0] if parent else 0, name, start, end))

    def install(self) -> None:
        """Wrap every public function of SPANS under each name it is imported by."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "dynreg" or n.startswith("dynreg.")]
        hooks = {
            "problems.build": self._trace_family,
            "solvers.time_subproblems": self._trace_subproblems,
            "solvers.tikhonov_uniform": self._check_tikhonov,
            "solvers.landweber_kaczmarz": self._count_sweeps,
            "solvers.kaczmarz_multi_direction": self._count_sweeps,
            "solvers.cg": self._count_cg,
        }
        for module, function, name in SPANS:
            original = getattr(sys.modules[f"dynreg.{module}"], function, None)
            if original is None:  # renamed or removed: its metrics read 0
                print(f"trace: dynreg.{module}.{function} not found", file=sys.stderr)
                continue
            wrapper = self.wrap(name, original, hooks.get(name))
            for owner in modules:
                if getattr(owner, function, None) is original:
                    setattr(owner, function, wrapper)
                    self._patches.append((owner, function, original))

    def restore(self) -> None:
        """Put every replaced function back; report any that did not go back."""
        self.active = False
        for owner, function, original in reversed(self._patches):
            setattr(owner, function, original)
        for owner, function, original in self._patches:
            if getattr(owner, function) is not original:
                self.errors.append(f"{owner.__name__}.{function} was not restored")
        self._patches.clear()

    def snapshot(self) -> dict[tuple[str, str], int]:
        flat = {}
        for kind, table in (
            ("calls", self.calls),
            ("self", self.self_ns),
            ("outer", self.outer_ns),
            ("count", self.counts),
        ):
            flat.update({(kind, key): value for key, value in table.items()})
        return flat

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            f.write("span,parent,name,start_ns,end_ns\n")
            f.writelines(f"{s},{p},{n},{a},{b}\n" for s, p, n, a, b in self.spans)

    # hooks: each receives the wrapped call's result and the call counts at entry

    def _trace_family(self, problem, _entry):
        fam = problem.forward.static
        family = replace(
            fam,
            apply=self.wrap("operators.family", fam.apply),
            adjoint_apply=self.wrap("operators.family", fam.adjoint_apply),
        )
        self.last_problem = replace(problem, forward=replace(problem.forward, static=family))
        return self.last_problem

    def _trace_subproblems(self, subs, _entry):
        return [
            replace(
                sub,
                apply=self.wrap("solvers.subproblem", sub.apply),
                adjoint=self.wrap("solvers.subproblem", sub.adjoint),
            )
            for sub in subs
        ]

    def _check_tikhonov(self, report, entry):
        adjoints = self.calls["operators.apply_adjoint"] - entry.get("operators.apply_adjoint", 0)
        if adjoints != report.iterations + 1:
            self.errors.append(
                f"tikhonov_uniform: {adjoints} apply_adjoint calls for "
                f"{report.iterations} CG iterations, expected iterations + 1"
            )
        return report

    def _count_sweeps(self, report, _entry):
        self.counts["solvers.kaczmarz_sweeps"] += report.iterations
        return report

    def _count_cg(self, result, _entry):
        self.counts["solvers.cg_iterations"] += result[1]
        return result


def layer_metrics(delta: dict[tuple[str, str], int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one op from the difference of two snapshots."""

    def calls(*names):
        return sum(delta.get(("calls", n), 0) for n in names)

    def self_s(*names):
        return sum(delta.get(("self", n), 0) for n in names) * 1e-9

    def outer_s(*names):
        return sum(delta.get(("outer", n), 0) for n in names) * 1e-9

    norms = ("bochner.bochner_norm", "bochner.spatial_norm")
    return {
        "operators.forward_calls": (calls("operators.apply_forward"), "count"),
        "operators.adjoint_calls": (calls("operators.apply_adjoint"), "count"),
        "operators.forward_s": (self_s("operators.apply_forward"), "s"),
        "operators.adjoint_s": (self_s("operators.apply_adjoint"), "s"),
        "operators.family_calls": (calls("operators.family"), "count"),
        "operators.family_s": (self_s("operators.family"), "s"),
        "solvers.cg_iterations": (delta.get(("count", "solvers.cg_iterations"), 0), "count"),
        "solvers.kaczmarz_sweeps": (delta.get(("count", "solvers.kaczmarz_sweeps"), 0), "count"),
        "solvers.subproblem_calls": (calls("solvers.subproblem"), "count"),
        "solvers.subproblem_s": (self_s("solvers.subproblem"), "s"),
        "solvers.self_s": (self_s(*SOLVER_SPANS), "s"),
        "diagnostics.assemble_s": (outer_s("diagnostics.assemble_dense"), "s"),
        "diagnostics.svd_calls": (calls("diagnostics.singular_values"), "count"),
        "diagnostics.svd_s": (outer_s("diagnostics.singular_values"), "s"),
        "diagnostics.tail_s": (outer_s("diagnostics.integrability_tail"), "s"),
        "diagnostics.translation_s": (outer_s("diagnostics.translation_modulus"), "s"),
        "bochner.norm_calls": (calls(*norms), "count"),
        "bochner.norm_s": (self_s(*norms), "s"),
        "bochner.csv_write_s": (outer_s("bochner.write_csv"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "problems.build_s": (outer_s("problems.build"), "s"),
        "problems.noise_s": (outer_s("problems.add_noise"), "s"),
    }
