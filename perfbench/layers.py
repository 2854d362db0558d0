"""Per-layer host self time for the traced benchmark run.

:func:`traced` wraps the public entry points of each simulator layer, as the
benchmark sees them from outside, and restores the originals on exit.  Each
wrapper records a span: on exit its elapsed time is charged to its own layer
minus the time of the spans it called, and added to its caller's child time.
With one root span around the whole grid (:meth:`SpanClock.root`, charged to
``other``), the self times of all layers sum to the root's elapsed time
exactly, in integer nanoseconds; :meth:`SpanClock.sum_to_wall` checks it the
way ``CycleBreakdown`` checks that its components sum to the run's cycles.

Nothing here changes what a point simulates: wrappers return what the
wrapped call returns, and the benchmark checks that traced digests equal
untraced ones.
"""

from __future__ import annotations

import functools
import gc
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import stats_keys as sk
from repro.cache.llc import LastLevelCache
from repro.core import ir_dwb, schemes
from repro.cpu.processor import Processor
from repro.mem import dram, layout
from repro.oram import controller, decoupled, pyramid, rho, ring, stash, tree
from repro.oram.types import PathType
from repro.perf import native
from repro.sim import runner, simulator

_now_ns = time.perf_counter_ns

OTHER = "other"

# (owner, attribute names, layer).  The owner is a class or a module; a
# class attribute that is inherited is shadowed on that class only, so e.g.
# the PLB's private SetAssocCache stays unwrapped and its time stays with
# the ORAM controller that calls it.
_TARGETS: Tuple[Tuple[object, Tuple[str, ...], str], ...] = (
    (runner, ("make_workload",), "traces.gen"),
    (schemes, ("build_scheme",), "core.schemes.build"),
    (tree.ORAMTree, ("initialize",), "oram.tree.init"),
    (
        layout.TreeLayout,
        ("__init__", "slot_address", "bucket_addresses", "path_addresses"),
        "mem.layout",
    ),
    (
        dram.DRAMModel,
        (
            "decompose",
            "decompose_batch",
            "service_batch",
            "service_addresses",
            "service_decomposed",
            "access_latency",
        ),
        "mem.dram",
    ),
    (
        Processor,
        ("__init__", "advance_to", "complete", "trace_exhausted",
         "outstanding_reads", "next_request_time"),
        "cpu",
    ),
    (
        LastLevelCache,
        ("access", "insert", "probe", "is_dirty", "mark_clean", "invalidate",
         "is_lru", "evict_for_writeback"),
        "cache",
    ),
    (LastLevelCache, ("find_dirty_lru",), "cache.dirty_scan"),
    (simulator.Simulator, ("__init__", "run"), "sim.loop"),
    (
        simulator.MemoryHierarchy,
        ("cpu_access", "on_completion", "handle_eviction"),
        "sim.loop",
    ),
    (
        controller.PathORAMController,
        ("enqueue", "has_pending_work", "has_any_real_work", "next_arrival",
         "step", "run_dummy_batch", "full_access", "fetch_posmap_block",
         "dummy_path", "adopt_artifacts", "path_type_counts"),
        "oram.controller",
    ),
    (decoupled.DecoupledPathORAMController, ("drain_background",),
     "oram.controller"),
    (rho.RhoController, ("step", "has_any_real_work"), "oram.twotree"),
    (ring.RingController, ("step", "has_any_real_work"), "oram.twotree"),
    (pyramid.PyramidController, ("step", "has_any_real_work"),
     "oram.twotree"),
    (ir_dwb.DWBEngine, ("dummy_slot",), "core.ir_dwb"),
    # the benchmark's own per-point teardown (see workloads.run_grid)
    (gc, ("collect",), "host.gc"),
)

# Modules that bind the native kernel module at import time; the traced run
# swaps in a proxy whose functions are wrapped.
_NATIVE_BINDINGS = (
    (controller, "_fastpath"),
    (dram, "_native"),
    (tree, "_native"),
    (stash, "_native"),
)

#: every layer a traced grid reports self time for, in table order
LAYERS = (
    "traces.gen",
    "core.schemes.build",
    "oram.tree.init",
    "mem.layout",
    "sim.loop",
    "cpu",
    "cache",
    "cache.dirty_scan",
    "oram.controller",
    "oram.twotree",
    "core.ir_dwb",
    "perf.native.batch",
    "perf.native.perop",
    "mem.dram",
    "host.gc",
    OTHER,
)

_DUMMY = PathType.DUMMY


class SpanClock:
    """Self time and call counts per layer, plus execution-tier counts."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: child-time accumulators of the open spans, innermost last
        self._stack: List[List[int]] = []
        self.root_ns = 0
        self.steps = 0
        self.stepped_real = 0
        self.stepped_dummy = 0
        self.batched = 0

    def wrap(
        self,
        layer: str,
        fn: Callable,
        observe: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """``fn`` timed as a span of ``layer``; ``observe`` sees results."""
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0]
            stack.append(child)
            start = _now_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _now_ns() - start
                stack.pop()
                self_ns[layer] += elapsed - child[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(result)
            return result

        return span

    @contextmanager
    def root(self) -> Iterator[None]:
        """The outermost span; its self time is charged to ``other``."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        child = [0]
        self._stack.append(child)
        start = _now_ns()
        try:
            yield
        finally:
            elapsed = _now_ns() - start
            self._stack.pop()
            self.self_ns[OTHER] += elapsed - child[0]
            self.root_ns += elapsed

    # -- execution-tier observers -----------------------------------------
    def _on_step(self, result) -> None:
        self.steps += 1
        if result is not None and result.issued_path:
            if result.path_type is _DUMMY:
                self.stepped_dummy += 1
            else:
                self.stepped_real += 1

    def _on_batch(self, result) -> None:
        self.batched += result[0]

    # -- checks --------------------------------------------------------------
    def sum_to_wall(self) -> List[str]:
        """Problems with the self-time accounting (empty when it holds)."""
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans left open")
        total = sum(self.self_ns.values())
        if total != self.root_ns:
            problems.append(
                f"layer self times sum to {total} ns, "
                f"wall is {self.root_ns} ns"
            )
        negative = sorted(k for k, v in self.self_ns.items() if v < 0)
        if negative:
            problems.append(f"negative self time in {', '.join(negative)}")
        unknown = sorted(set(self.self_ns) - set(LAYERS))
        if unknown:
            problems.append(f"unlisted layers {', '.join(unknown)}")
        return problems

    def seconds(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9


def _native_proxy(clock: SpanClock, module) -> types.SimpleNamespace:
    """The native kernel module with every function wrapped."""
    funcs = {}
    for name in dir(module):
        fn = getattr(module, name)
        if name.startswith("_") or not callable(fn):
            continue
        batch = name == "run_batch"
        layer = "perf.native.batch" if batch else "perf.native.perop"
        funcs[name] = clock.wrap(layer, fn)
    return types.SimpleNamespace(**funcs)


@contextmanager
def traced(clock: SpanClock) -> Iterator[SpanClock]:
    """Wrap every layer's entry points for the duration of the block.

    Schemes must be built inside the block: controllers bind the native
    module and some bound methods when they are constructed.
    """
    if native.fastpath is None:
        raise RuntimeError("native kernels are not loaded")
    observers = {"step": clock._on_step, "run_dummy_batch": clock._on_batch}
    saved = []
    try:
        for owner, names, layer in _TARGETS:
            for name in names:
                own = name in vars(owner)
                original = getattr(owner, name)
                saved.append((owner, name, own, vars(owner).get(name)))
                setattr(
                    owner, name,
                    clock.wrap(layer, original, observers.get(name)),
                )
        proxy = _native_proxy(clock, native.fastpath)
        for module, name in _NATIVE_BINDINGS:
            saved.append((module, name, True, getattr(module, name)))
            setattr(module, name, proxy)
        yield clock
    finally:
        for owner, name, own, original in reversed(saved):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def per_layer(
    clock: SpanClock, grid, untraced_wall: float
) -> Dict[str, tuple]:
    """Per-layer metrics of one traced grid: name -> (value, unit)."""
    totals: Dict[str, float] = {}
    for point in grid.points:
        for key, value in point.counters.items():
            totals[key] = totals.get(key, 0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    cache = grid.cache_counters
    hits = sum(v for k, v in cache.items() if k.endswith("_hits"))
    misses = sum(v for k, v in cache.items() if k.endswith("_misses"))
    llc_hits = totals.get(sk.LLC_HITS, 0)
    paths_real = clock.stepped_real
    paths_dummy = clock.stepped_dummy + clock.batched
    s = clock.seconds
    return {
        "traces.gen_s": (s("traces.gen"), "s"),
        "core.schemes.build_s": (s("core.schemes.build"), "s"),
        "oram.tree.init_s": (s("oram.tree.init"), "s"),
        "perf.engine.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "oram.controller.self_s": (s("oram.controller"), "s"),
        "oram.controller.steps": (clock.steps, "count"),
        "oram.paths_real": (paths_real, "count"),
        "oram.paths_dummy": (paths_dummy, "count"),
        "perf.native.batch_s": (s("perf.native.batch"), "s"),
        "perf.native.batch_paths": (clock.batched, "count"),
        "perf.native.batch_coverage": (
            ratio(clock.batched, paths_real + paths_dummy), "ratio",
        ),
        "perf.native.perop_calls": (
            clock.calls.get("perf.native.perop", 0), "count",
        ),
        "perf.native.perop_s": (s("perf.native.perop"), "s"),
        "mem.dram.self_s": (s("mem.dram"), "s"),
        "mem.dram.accesses": (totals.get(sk.DRAM_ACCESSES, 0), "count"),
        "mem.dram.row_hit_ratio": (
            ratio(totals.get(sk.DRAM_ROW_HITS, 0),
                  totals.get(sk.DRAM_ACCESSES, 0)),
            "ratio",
        ),
        "mem.layout.self_s": (s("mem.layout"), "s"),
        "mem.layout.calls": (clock.calls.get("mem.layout", 0), "count"),
        "oram.twotree.self_s": (s("oram.twotree"), "s"),
        "cpu.self_s": (s("cpu"), "s"),
        "cache.self_s": (s("cache"), "s"),
        "cache.llc_hit_ratio": (
            ratio(llc_hits, llc_hits + totals.get(sk.LLC_MISSES, 0)), "ratio",
        ),
        "cache.dirty_scan_s": (s("cache.dirty_scan"), "s"),
        "core.ir_dwb.self_s": (s("core.ir_dwb"), "s"),
        "core.ir_dwb.conversions": (
            totals.get(sk.DWB_CONVERTED_SLOTS, 0), "count",
        ),
        "sim.loop_self_s": (s("sim.loop"), "s"),
        "host.gc_s": (s("host.gc"), "s"),
        "other_s": (s(OTHER), "s"),
        "trace.wall_s": (clock.root_ns / 1e9, "s"),
        "trace.overhead_ratio": (grid.wall_s / untraced_wall, "ratio"),
    }


def print_layer_table(workload: str, clock) -> None:
    wall = clock.root_ns
    print(f"per-layer self time, traced {workload} grid "
          f"(wall {wall / 1e9:.3f} s)")
    print(f"  {'layer':20s} {'self_s':>9s} {'share':>7s} {'calls':>10s}")
    for layer in LAYERS:
        ns = clock.self_ns.get(layer, 0)
        print(f"  {layer:20s} {ns / 1e9:9.3f} {ns / wall:7.1%} "
              f"{clock.calls.get(layer, 0):10d}")
    total = sum(clock.self_ns.values())
    print(f"  {'sum':20s} {total / 1e9:9.3f} {total / wall:7.1%}")
