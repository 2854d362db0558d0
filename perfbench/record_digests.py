"""Record the per-point digests the benchmark checks against.

Run from the repository root after a change that is meant to move simulated
results, or after resizing a workload::

    python3 perfbench/record_digests.py

Every workload's grid runs at the default trace seed and at the held-out
seed; ``digests.json`` keeps each point's digest (cycles, counters, path
types) and, for reading by eye, its cycles.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BUILD_DIR, DIGESTS, SRC, isolate_environment


def record(workload, seeds) -> dict:
    """The ``digests.json`` entry of one workload; raises if a point fails."""
    from workloads import run_grid

    entry = {
        "trace": workload.trace,
        "records": workload.records,
        "schemes": list(workload.schemes),
        "levels": workload.levels,
        "seeds": {},
    }
    for seed in seeds:
        grid = run_grid(workload, seed)
        for point in grid.points:
            if point.error is not None:
                raise RuntimeError(
                    f"{workload.name} {point.scheme}: {point.error}"
                )
        entry["seeds"][str(seed)] = {
            p.scheme: {"digest": p.digest, "cycles": p.cycles}
            for p in grid.points
        }
        print(f"{workload.name} seed {seed}: {len(grid.points)} points, "
              f"{grid.wall_s:.1f} s")
    return entry


def main() -> int:
    cache_dir = isolate_environment(BUILD_DIR)
    try:
        sys.path.insert(0, SRC)
        from repro.perf import native
        from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

        if not native.available():
            print("error: the native kernels did not load", file=sys.stderr)
            return 3
        out = {
            workload.name: record(workload, (DEFAULT_SEED, HELD_OUT_SEED))
            for workload in WORKLOADS.values()
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump({"workloads": out}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
