"""Rewrite references.json from the checkout's current dynreg.

    python3 benchmarks/make_references.py

Runs one op of every workload for each of SEEDS and stores the summary of
each call (see `workloads.summarize`).  Run it
only on a commit whose outputs are trusted; the benchmark compares later
commits against what it writes.
"""

from __future__ import annotations

import importlib
import json
import shutil

import run
import workloads

SEEDS = range(20)
DEFAULT_SEED = 0
HELD_OUT_SEED = 1  # leave unused while developing a change; re-check claims on it


def main() -> None:
    run.load_dynreg()
    cli = importlib.import_module("dynreg.cli")
    stored: dict[str, dict] = {}
    for name, calls in workloads.WORKLOADS.items():
        work = run.WORK / f"references-{name}"
        for seed in SEEDS:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            for call in calls:
                config = work / f"{call.name}.ini"
                config.write_text(call.config_text())
                argv = [call.command, "--config", str(config), "--out", str(work / call.name)]
                if cli.main(argv + ["--seed", str(seed), "--quiet"]) != 0:
                    raise SystemExit(f"{name} seed {seed}: {call.name} failed")
            tree = run.read_tree(work, calls)
            for call in calls:
                errors = workloads.property_errors(call, tree[call.name])
                if errors:
                    raise SystemExit(f"{name} seed {seed}: {errors}")
            stored.setdefault(name, {})[str(seed)] = {
                call.name: workloads.summarize(call, tree[call.name]) for call in calls
            }
        shutil.rmtree(work, ignore_errors=True)
    # one line per workload and seed keeps the file diffable
    lines = [f'{{"default_seed": {DEFAULT_SEED}, "held_out_seed": {HELD_OUT_SEED}, "workloads": {{']
    for w, (name, seeds) in enumerate(stored.items()):
        lines.append(f"{json.dumps(name)}: {{")
        for k, (seed, summary) in enumerate(seeds.items()):
            comma = "," if k < len(seeds) - 1 else ""
            lines.append(f"  {json.dumps(seed)}: {json.dumps(summary)}{comma}")
        lines.append("}," if w < len(stored) - 1 else "}")
    lines.append("}}")
    run.REFERENCES.write_text("\n".join(lines) + "\n")
    print(f"wrote {run.REFERENCES}")


if __name__ == "__main__":
    main()
