"""Workload grids of the whole-zoo benchmark and the serial point runner.

Each workload is a grid of scheme x trace points on ``SystemConfig.scaled()``
(the L=15 platform behind EXPERIMENTS.md).  A point goes through the same
public calls :func:`repro.api.run` makes with an artifact cache attached,
as a campaign worker runs it: ``ArtifactCache.trace_for`` (which calls
``make_workload``), ``build_scheme``, ``ArtifactCache.attach``, then
``Simulator.run``.  The runner times each step from outside and reduces the
simulated result to a digest.

Every call into ``repro`` goes through a module attribute looked up at call
time, so the traced run (:mod:`layers`) can wrap those entry points without
this module knowing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from hostspeed import HostSpeed
from repro import stats_keys as sk
from repro.config import SystemConfig
from repro.core import schemes
from repro.perf.engine import ArtifactCache
from repro.sim import simulator

#: trace seed the recorded digests are keyed by (``repro`` CLI default)
DEFAULT_SEED = 7
#: second recorded seed, never used while the workloads were sized
HELD_OUT_SEED = 1009
#: seed of every scheme's protocol RNG.  Fixed, so the benchmark's
#: ``--seed`` changes the generated inputs and nothing else.
SCHEME_SEED = 7

PATH_FAMILY = (
    "Baseline",
    "IR-Alloc",
    "IR-Alloc1",
    "IR-Alloc2",
    "IR-Alloc3",
    "IR-Alloc4",
    "IR-Stash",
    "IR-DWB",
    "IR-ORAM",
    "LLC-D",
    "IR-Stash+IR-Alloc(LLC-D)",
    "Decoupled",
)
TWO_TREE = ("Rho", "Ring", "Ring+IR-DWB", "Pyramid")


@dataclass(frozen=True)
class Workload:
    """One grid: every scheme runs the same generated trace."""

    name: str
    trace: str
    records: int
    schemes: Tuple[str, ...]
    #: tree levels of ``SystemConfig.scaled``; smaller only in tests
    levels: int = 15


# Sizes keep one grid near 2.5 s on a quiet 2-vCPU x86 VM and near 6 s when
# its neighbours slow it down, so a 30 s run still measures the three grids
# it needs for medians after the default-seed reference grid.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # nearly every slot is a real PTd/PTp path: the Python controller,
        # the per-op native calls and the DRAM model do the work
        Workload("path-mix", "mix", 1500, PATH_FAMILY),
        # most slots are PTm dummies: the batch kernel, and for IR-DWB and
        # IR-ORAM the LLC dirty-LRU scan, do the work
        Workload("path-idle", "xal", 3200, PATH_FAMILY),
        # the two-tree controllers and per-slot layout address math
        Workload("twotree-random", "random", 520, TWO_TREE),
    )
}


@dataclass
class Point:
    """One finished (or failed) scheme x trace point."""

    scheme: str
    setup_s: float = 0.0
    sim_s: float = 0.0
    #: collecting the point's garbage once it is dropped
    teardown_s: float = 0.0
    wall_s: float = 0.0
    paths: int = 0
    cycles: int = 0
    #: calibration kernel time around the point (mean of the samples just
    #: before and after it); 0 when the grid ran without calibration
    kernel_s: float = 0.0
    digest: str = ""
    error: Optional[str] = None
    counters: Dict[str, float] = field(default_factory=dict, repr=False)


@dataclass
class Grid:
    """One pass over a workload's points with a fresh artifact cache."""

    workload: str
    seed: int
    points: List[Point]
    wall_s: float
    cache_counters: Dict[str, int]

    @property
    def setup_s(self) -> float:
        return sum(p.setup_s for p in self.points)

    @property
    def sim_s(self) -> float:
        return sum(p.sim_s for p in self.points)

    @property
    def paths(self) -> int:
        return sum(p.paths for p in self.points)

    def digests(self) -> Dict[str, str]:
        return {p.scheme: p.digest for p in self.points}


def result_digest(result) -> str:
    """Digest of what a point simulated: cycles, counters, path types."""
    payload = json.dumps(
        {
            "cycles": result.cycles,
            "counters": sorted(result.counters.items()),
            "path_counts": sorted(result.path_counts.items()),
        },
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def run_point(
    scheme: str,
    workload: Workload,
    seed: int,
    config: SystemConfig,
    artifacts: ArtifactCache,
) -> Point:
    """Run one point; a raised exception becomes ``Point.error``."""
    point = Point(scheme)
    start = time.perf_counter()
    try:
        trace = artifacts.trace_for(
            workload.trace, config, workload.records, seed
        )
        components = schemes.build_scheme(
            scheme, config, rng=random.Random(SCHEME_SEED)
        )
        artifacts.attach(components.controller)
        sim = simulator.Simulator(components, trace)
        ready = time.perf_counter()
        result = sim.run()
        done = time.perf_counter()
    except Exception as exc:  # a failing point is counted, not fatal
        point.error = f"{type(exc).__name__}: {exc}"
        point.wall_s = time.perf_counter() - start
        return point
    point.setup_s = ready - start
    point.sim_s = done - ready
    point.wall_s = done - start
    point.paths = int(result.counters.get(sk.PATHS_TOTAL, 0))
    point.cycles = result.cycles
    point.digest = result_digest(result)
    point.counters = result.counters
    return point


def run_grid(
    workload: Workload, seed: int, host: Optional[HostSpeed] = None
) -> Grid:
    """Run every point of ``workload`` serially at trace seed ``seed``.

    The artifact cache is fresh and memory-only (the disk cache is switched
    off in the environment), so no grid is warmed by an earlier one.  Each
    point's garbage is collected as its timed teardown: left to the
    collector's thresholds, it would be collected at a varying moment of a
    later point's set-up or simulation.

    With ``host``, the calibration kernel is sampled before the first point
    and after each point's teardown; those samples are not part of any
    point's times, and the grid's wall time leaves them out.
    """
    config = SystemConfig.scaled(levels=workload.levels)
    artifacts = ArtifactCache()
    gc.collect()
    before = host.sample() if host is not None else 0.0
    points = []
    for scheme in workload.schemes:
        point = run_point(scheme, workload, seed, config, artifacts)
        collect = time.perf_counter()
        gc.collect()
        point.teardown_s = time.perf_counter() - collect
        point.wall_s += point.teardown_s
        if host is not None:
            after = host.sample()
            point.kernel_s = (before + after) / 2
            before = after
        points.append(point)
    wall = sum(p.wall_s for p in points)
    return Grid(workload.name, seed, points, wall, dict(artifacts.counters))


def check_grid(grid: Grid, expected: Optional[Dict[str, str]]) -> List[str]:
    """Problems with a grid: raised points and digest mismatches.

    ``expected`` maps scheme -> digest; ``None`` checks only for errors.
    Each returned line names one failed point.
    """
    problems = []
    for point in grid.points:
        if point.error is not None:
            problems.append(f"{point.scheme}: raised {point.error}")
        elif expected is not None:
            want = expected.get(point.scheme)
            if want != point.digest:
                problems.append(
                    f"{point.scheme}: digest {point.digest} != expected {want}"
                )
    return problems
