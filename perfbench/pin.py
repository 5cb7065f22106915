"""Write the pinned output digests the correctness gate checks.

    python3 perfbench/pin.py 1 10    # seeds 1..10, both serial workloads

For each seed, records the sha256 of every `repro run` stdout in the
pipeline workload and of every RunDetection in the detect-cell workload,
at the benchmark's fixed scales.  Re-pin only when a change is meant to
alter those outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import legs


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    sys.path.insert(0, legs.SRC)
    pins = {"pipeline": {"scale": legs.PIPELINE_SCALE, "seeds": {}},
            "detect-cell": {"scale": legs.CELL_SCALE, "seeds": {}}}
    for seed in range(first, last + 1):
        pipeline = legs.PipelineLeg(seed)
        cell = legs.CellLeg(seed)
        pipeline.rep()
        cell.rep()
        for leg in (pipeline, cell):
            pins[leg.name]["seeds"][str(seed)] = {
                name: leg.digest(out[0]) for name, out in leg.outputs.items()}
        problems = pipeline.check() + cell.check()
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        print(f"seed {seed} pinned", file=sys.stderr)
    with open(legs.PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
