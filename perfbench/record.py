"""Record the reference digests and the input properties of the benchmark.

Run from the root of a checkout of the commit whose outputs are the
reference (byte-identical output is a standing requirement, so this is
rerun only when the benchmark's inputs change):

    python3 perfbench/record.py

It runs one pass of every workload, full and smoke, over every input any
seed can produce (the composites repeat with period ``SEED_SPACE``),
stores the SHA-256 of every checked output in ``digests.json`` and the
size, largest Morse number, Morse sum and edge count of every composite
in ``inputs.json``.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from composites import SEED_SPACE  # noqa: E402
from tracing import Runner  # noqa: E402


def record(pins, name: str, seed: int, smoke: bool, fixed_inputs: bool):
    w = workloads.WORKLOADS[name](seed, smoke, pins)
    runner = Runner(traced=False)
    w.startup_checks(runner)
    items = w.items()
    if not fixed_inputs:
        # Inputs that do not depend on the seed were recorded with seed 0.
        seeded = set(w.inputs())
        items = [it for it in items if it.key.split(":")[1] in seeded]
    runner.run_pass(items, traced=False)
    if runner.failed:
        raise SystemExit(f"{name} seed {seed}: {runner.failures}")
    return w


def main() -> None:
    pins = workloads.Pins(record=True)
    inputs: dict[str, dict] = {}
    for smoke in (False, True):
        for name in ("cli_cold", "survey"):
            record(pins, name, 0, smoke, fixed_inputs=True)
        per_seed = inputs.setdefault("analyze_ladder/" + ("smoke" if smoke else "full"), {})
        for seed in range(SEED_SPACE):
            w = record(pins, "analyze_ladder", seed, smoke, fixed_inputs=seed == 0)
            per_seed[str(seed)] = w.inputs()
        print(f"recorded smoke={smoke}", flush=True)
    workloads.DIGESTS.write_text(json.dumps(pins.table, indent=0, sort_keys=True) + "\n")
    (HERE / "inputs.json").write_text(json.dumps(inputs, indent=1) + "\n")
    print(f"{len(pins.table)} digests")


if __name__ == "__main__":
    main()
