"""Whole-zoo host-time benchmark of the IR-ORAM simulator.

Run from the repository root::

    python3 perfbench/run.py --workload path-mix --seed 7 --seconds 30 --trace 0

One process runs a workload's grid of scheme x trace points serially (see
:mod:`workloads`) and prints human-readable tables, then, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` reports the end-to-end metrics, all host time: simulated
  ORAM paths per second inside ``Simulator.run``, grid wall time, set-up
  time, per-point wall time (median and slowest) and peak RSS.  Every time
  is rescaled to a reference host speed by a calibration kernel timed
  between points (:mod:`hostspeed`).  Each point's times are its medians
  over the grids run in ``--seconds`` (at least three), summed over the
  grid's points.
* ``--trace 1`` additionally runs one grid with every layer's entry points
  wrapped (:mod:`layers`) and reports per-layer self time and counts.

Correctness: every run first checks the recorded digests of the default
trace seed (``digests.json``), unless ``--seed`` itself is recorded, in
which case the measured grids are checked directly.  Every measured grid
must repeat the first one's digests, and the traced grid must equal the
untraced one.  A point that raises or mismatches counts as failed.

``--seed`` reaches trace generation only; the schemes' protocol RNG is
fixed.  The artifact disk cache is switched off and pointed at a fresh
temporary directory, the native kernels are built under ``.bench_build``
before timing starts, and the run fails if they do not load.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional

from hostspeed import REFERENCE_S, HostSpeed, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DIGESTS = os.path.join(HERE, "digests.json")

#: fewest measured grids a run reports medians over
MIN_GRIDS = 3

# Fig. 10 averages from the paper (L=25, Pin traces on USIMM) and the
# geomeans EXPERIMENTS.md measured (L=15, REPRO_RECORDS=8000).
PAPER_FIG10 = {
    "Rho": 1.11, "IR-Alloc": 1.41, "IR-Stash": 1.27, "IR-DWB": 1.05,
    "IR-ORAM": 1.57,
}
EXPERIMENTS_FIG10 = {
    "Rho": 0.62, "IR-Alloc": 1.32, "IR-Stash": 1.07, "IR-DWB": 1.01,
    "IR-ORAM": 1.30,
}


def isolate_environment(build_dir: str) -> str:
    """Pin every ``REPRO_*`` knob; returns the fresh artifact-cache dir.

    Must run before ``repro`` is imported: the native loader reads its
    cache location at import time.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.makedirs(build_dir, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="artifacts-", dir=build_dir)
    os.environ["REPRO_FASTPATH_CACHE"] = os.path.join(
        build_dir, "repro-fastpath"
    )
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    os.environ["REPRO_DISK_CACHE"] = "0"
    return cache_dir


def load_recorded(path: str = DIGESTS) -> Dict[str, Dict[str, dict]]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def recorded_digests(
    recorded: Dict[str, Dict[str, dict]], workload, seed: int
) -> Optional[Dict[str, str]]:
    """scheme -> digest recorded for ``workload`` at ``seed``, if any.

    Raises when the record was made for another grid shape, so a resized
    workload cannot pass against stale digests.
    """
    entry = recorded.get(workload.name)
    if entry is None:
        raise RuntimeError(f"no recorded digests for {workload.name}")
    shape = (entry["trace"], entry["records"], tuple(entry["schemes"]),
             entry["levels"])
    if shape != (workload.trace, workload.records, workload.schemes,
                 workload.levels):
        raise RuntimeError(
            f"recorded digests for {workload.name} are for {shape}; "
            "rerun perfbench/record_digests.py"
        )
    points = entry["seeds"].get(str(seed))
    if points is None:
        return None
    return {scheme: point["digest"] for scheme, point in points.items()}


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def end_to_end(grids) -> Dict[str, float]:
    """End-to-end metrics from the measured grids, at the reference speed.

    Each point sample's times are first rescaled by the calibration kernel
    sampled around it (:func:`hostspeed.reference_seconds`), so that a
    host running slower or faster than usual moves no metric.  Then each
    point's times are its medians over the grids, so a burst of host
    interference during one grid moves no metric either; sums run over the
    points.
    """
    per_point = [list(samples) for samples in zip(*(g.points for g in grids))]

    def at_reference(runs, attr):
        return [reference_seconds(getattr(p, attr), p.kernel_s) for p in runs]

    setup = [_median(at_reference(runs, "setup_s")) for runs in per_point]
    sim = [_median(at_reference(runs, "sim_s")) for runs in per_point]
    wall = [_median(at_reference(runs, "wall_s")) for runs in per_point]
    paths = sum(runs[0].paths for runs in per_point)
    return {
        "paths_per_s": paths / sum(sim),
        "wall_s": sum(wall),
        "setup_s": sum(setup),
        "point_wall_p50_s": _median(wall),
        "slowest_point_s": max(wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def host_seconds(grids) -> Dict[str, float]:
    """The same sums in plain host seconds, for the printed table."""
    per_point = [list(samples) for samples in zip(*(g.points for g in grids))]
    sim = sum(_median([p.sim_s for p in runs]) for runs in per_point)
    return {
        "paths_per_s": sum(runs[0].paths for runs in per_point) / sim,
        "wall_s": sum(_median([p.wall_s for p in runs]) for runs in per_point),
        "setup_s": sum(
            _median([p.setup_s for p in runs]) for runs in per_point
        ),
    }


E2E_UNITS = {
    "paths_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "point_wall_p50_s": "s",
    "slowest_point_s": "s",
    "peak_rss_mb": "MB",
}


def print_speedups(workload, grid, baseline) -> None:
    """Informational, ungated: simulated speedup over Baseline."""
    print(f"simulated speedup over Baseline, {workload.name} "
          f"({workload.trace}, seed {grid.seed}); ungated")
    print("  the model is validated only against the paper's reported "
          "figures, not against hardware")
    print(f"  {'scheme':26s} {'cycles':>10s} {'speedup':>8s} "
          f"{'paper':>6s} {'EXP.md':>7s}")
    for point in grid.points:
        if point.error is not None or baseline is None or not point.cycles:
            continue
        speedup = baseline.cycles / point.cycles
        paper = PAPER_FIG10.get(point.scheme)
        measured = EXPERIMENTS_FIG10.get(point.scheme)
        print(
            f"  {point.scheme:26s} {point.cycles:10d} {speedup:8.3f} "
            f"{'' if paper is None else f'{paper:.2f}':>6s} "
            f"{'' if measured is None else f'{measured:.2f}':>7s}"
        )
    print("  paper: Fig. 10 averages (L=25); EXP.md: EXPERIMENTS.md "
          "geomeans over Table II (L=15)")


def measure(args, recorded) -> dict:
    """Run the benchmark; returns the result object printed last."""
    from layers import SpanClock, per_layer, print_layer_table, traced
    from workloads import (
        DEFAULT_SEED,
        WORKLOADS,
        check_grid,
        run_grid,
        run_point,
    )
    from repro.config import SystemConfig
    from repro.perf.engine import ArtifactCache

    workload = WORKLOADS[args.workload]
    expected = recorded_digests(recorded, workload, args.seed)
    attempted = 0
    #: one line per failed point
    failures: List[str] = []
    #: failed whole-run checks (accounting, isolation)
    problems: List[str] = []

    def account(grid, reference, label):
        nonlocal attempted
        attempted += len(grid.points)
        for line in check_grid(grid, reference):
            failures.append(f"{label} seed {grid.seed}: {line}")

    if expected is None:
        reference = run_grid(workload, DEFAULT_SEED)
        account(reference, recorded_digests(recorded, workload, DEFAULT_SEED),
                "reference")

    host = HostSpeed()
    grids = []
    start = time.perf_counter()
    while len(grids) < MIN_GRIDS or (
        (time.perf_counter() - start) * (len(grids) + 1) / len(grids)
        <= args.seconds
    ):
        grid = run_grid(workload, args.seed, host)
        account(grid, expected if expected is not None
                else grids[0].digests() if grids else None, "measured")
        grids.append(grid)

    baseline = next(
        (p for p in grids[0].points if p.scheme == "Baseline"), None
    )
    if baseline is None:
        config = SystemConfig.scaled(levels=workload.levels)
        baseline = run_point("Baseline", workload, args.seed, config,
                             ArtifactCache())
        attempted += 1
        if baseline.error is not None:
            failures.append(f"speedup base: raised {baseline.error}")

    e2e = end_to_end(grids)
    metrics = {}
    if args.trace:
        clock = SpanClock()
        with traced(clock), clock.root():
            traced_grid = run_grid(workload, args.seed)
        account(traced_grid, grids[0].digests(), "traced")
        problems.extend(f"sum-to-wall: {p}" for p in clock.sum_to_wall())
        stepped = clock.stepped_real + clock.stepped_dummy + clock.batched
        if stepped != traced_grid.paths:
            problems.append(
                f"tier counts: {stepped} paths counted at step/batch, "
                f"{traced_grid.paths} simulated"
            )
        print_layer_table(workload.name, clock)
        layer_values = per_layer(
            clock, traced_grid, _median([g.wall_s for g in grids])
        )
        layer_values["host.kernel_s"] = (host.median(), "s")
        for name, (value, unit) in layer_values.items():
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, value in e2e.items():
            metrics[name] = {"value": value, "unit": E2E_UNITS[name]}

    print(f"{workload.name}: {len(grids)} grids x {len(workload.schemes)} "
          f"points at seed {args.seed}; point samples "
          f"{len(grids) * len(workload.schemes)}; calibration kernel "
          f"median {host.median() * 1e3:.2f} ms over {len(host.samples)} "
          f"samples (reference {REFERENCE_S * 1e3:.2f} ms)")
    plain = host_seconds(grids)
    print(f"  {'metric':18s} {'reference':>12s} {'host':>12s}")
    for name, value in e2e.items():
        raw = f"{plain[name]:12.4f}" if name in plain else f"{'':12s}"
        print(f"  {name:18s} {value:12.4f} {raw} {E2E_UNITS[name]}")
    print_speedups(workload, grids[0], baseline)
    for line in failures + problems:
        print(f"FAILED {line}")
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    cache_dir = isolate_environment(BUILD_DIR)
    try:
        sys.path.insert(0, SRC)
        from repro.perf import native

        if not native.available():
            print("error: the native kernels did not build or load; "
                  "refusing to time the pure-Python fallbacks",
                  file=sys.stderr)
            return 3
        print(f"native kernels loaded: {native.fastpath.__file__}")
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; "
                  f"options: {sorted(WORKLOADS)}", file=sys.stderr)
            return 2
        result = measure(args, load_recorded())
        leftovers = os.listdir(cache_dir)
        if leftovers:
            print(f"FAILED isolation: artifact cache wrote {leftovers}")
            result["correct"] = False
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
