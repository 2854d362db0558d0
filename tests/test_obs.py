"""Tests for the observability layer: events, sinks, breakdowns, exporters.

The load-bearing assertions are the two invariants the docs promise:
observation never changes results (bit-identical cycles/counters), and
``CycleBreakdown`` components sum exactly to the run's cycle count.
"""

import json

import pytest

from repro import api, stats_keys as sk
from repro.config import SystemConfig
from repro.core.schemes import SCHEMES
from repro.errors import ConfigError, ReproError
from repro.obs import (
    CallbackSink,
    CycleBreakdown,
    JsonlSink,
    MemorySink,
    TraceEvent,
    Tracer,
    events as ev,
    read_jsonl,
)
from repro.obs.inspect import format_summary, summarize_trace
from repro.sim.persistence import result_from_dict, result_to_dict
from repro.stats import Stats

TINY = SystemConfig.tiny()


class TestSinks:
    def test_memory_sink_ring_overflow(self):
        sink = MemorySink(capacity=5)
        for cycle in range(8):
            sink.emit(TraceEvent(kind=ev.PROGRESS, cycle=cycle))
        kept = sink.events()
        assert len(kept) == 5
        assert [event.cycle for event in kept] == [3, 4, 5, 6, 7]
        assert sink.dropped == 3
        assert sink.total_emitted == 8

    def test_memory_sink_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            MemorySink(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        original = [
            TraceEvent(ev.PATH_READ, 10, {"leaf": 3, "path_type": "PTd"}),
            TraceEvent(ev.STASH_HWM, 25, {"occupancy": 17}),
        ]
        for event in original:
            sink.emit(event)
        sink.close()
        assert read_jsonl(str(path)) == original

    def test_callback_sink(self):
        seen = []
        tracer = Tracer(sinks=[CallbackSink(seen.append)])
        tracer.emit(ev.PLB_HIT, 5, block=42)
        assert seen == [TraceEvent(ev.PLB_HIT, 5, {"block": 42})]
        assert tracer.events_emitted == 1

    def test_event_dict_round_trip(self):
        event = TraceEvent(ev.DRAM_BATCH, 99, {"accesses": 4, "write": True})
        assert TraceEvent.from_dict(event.to_dict()) == event


class TestBitIdentical:
    @pytest.mark.parametrize("scheme", ["Baseline", "IR-ORAM"])
    def test_traced_run_is_bit_identical(self, scheme, tmp_path):
        spec = api.RunSpec(
            scheme=scheme, workload="mix", records=300, seed=13, config=TINY
        )
        plain = api.run(spec)
        traced = api.run(spec.with_obs(api.ObsOptions(
            trace_out=str(tmp_path / "t.jsonl"),
            ring_size=100,
            progress_every=25,
        )))
        assert traced.cycles == plain.cycles
        assert traced.result.counters == plain.result.counters
        assert traced.result.path_counts == plain.result.path_counts
        assert traced.breakdown.to_dict() == plain.breakdown.to_dict()
        assert traced.events()  # the ring actually captured something

    def test_untraced_run_has_no_tracer(self):
        out = api.run(api.RunSpec(records=150, config=TINY))
        assert out.stats.tracer is None
        assert out.events() == []


class TestBreakdown:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_components_sum_to_cycles(self, scheme):
        result = api.run(api.RunSpec(
            scheme=scheme, workload="mix", records=250, seed=7, config=TINY
        )).result
        breakdown = result.breakdown
        assert breakdown is not None
        assert breakdown.total == result.cycles
        assert sum(breakdown.components().values()) == result.cycles
        assert all(value >= 0 for value in breakdown.components().values())

    def test_fractions_sum_to_one(self):
        result = api.run(api.RunSpec(records=250, config=TINY)).result
        assert sum(result.breakdown.fractions().values()) == pytest.approx(1.0)

    def test_dict_round_trip(self):
        result = api.run(api.RunSpec(records=200, config=TINY)).result
        restored = CycleBreakdown.from_dict(result.breakdown.to_dict())
        assert restored == result.breakdown

    def test_persistence_round_trip(self):
        result = api.run(api.RunSpec(records=200, config=TINY)).result
        restored = result_from_dict(result_to_dict(result))
        assert restored.breakdown == result.breakdown

    def test_data_paths_dominate_demand_workload(self):
        breakdown = api.run(api.RunSpec(
            scheme="Baseline", workload="gcc", records=300, config=TINY
        )).result.breakdown
        assert breakdown.data_read + breakdown.data_write > 0


class TestTraceContents:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
        api.run(api.RunSpec(
            scheme="IR-ORAM", workload="mix", records=400, seed=7,
            config=TINY,
            obs=api.ObsOptions(trace_out=str(path), progress_every=50),
        ))
        return str(path)

    def test_expected_kinds_present(self, trace_path):
        kinds = {event.kind for event in read_jsonl(trace_path)}
        assert {
            ev.ACCESS_START, ev.ACCESS_END, ev.PATH_READ, ev.PATH_WRITE,
            ev.DRAM_BATCH, ev.LLC_MISS, ev.PROGRESS,
        } <= kinds
        assert kinds <= set(ev.ALL_KINDS)

    def test_path_events_match_result_counts(self, trace_path):
        result = api.run(api.RunSpec(
            scheme="IR-ORAM", workload="mix", records=400, seed=7, config=TINY
        )).result
        events = read_jsonl(trace_path)
        reads = sum(1 for event in events if event.kind == ev.PATH_READ)
        writes = sum(1 for event in events if event.kind == ev.PATH_WRITE)
        assert reads == writes == int(result.total_paths())

    def test_inspect_summary(self, trace_path):
        summary = summarize_trace(trace_path)
        assert summary["events"] == len(read_jsonl(trace_path))
        assert summary["accesses_completed"] > 0
        assert summary["dram"]["accesses"] > 0
        assert 0.0 < summary["dram"]["row_hit_rate"] <= 1.0
        text = format_summary(summary)
        assert "events" in text and "latency" in text

    def test_inspect_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ReproError):
            summarize_trace(str(path))


class TestExporters:
    @pytest.fixture(scope="class")
    def stats(self):
        return api.run(api.RunSpec(records=250, config=TINY)).stats

    def test_prometheus_text(self, stats):
        text = stats.to_prometheus_text()
        assert f"repro_{sk.SIM_CYCLES.replace('.', '_')} " in text
        assert "# TYPE repro_sim_cycles counter" in text
        assert 'bucket="' in text  # histograms render as labeled samples

    def test_json_export(self, stats):
        payload = json.loads(stats.to_json())
        assert payload["counters"][sk.SIM_CYCLES] > 0
        assert set(payload) == {"counters", "histograms", "series"}

    def test_namespace_views(self, stats):
        assert "dram" in stats.namespaces()
        dram = stats.namespace("dram")
        assert dram["accesses"] == stats.get(sk.DRAM_ACCESSES)

    def test_progress_series_recorded(self):
        out = api.run(api.RunSpec(
            records=300, config=TINY,
            obs=api.ObsOptions(ring_size=10, progress_every=20),
        ))
        assert out.stats.series[sk.OBS_PROGRESS]

    def test_metrics_out_written(self, tmp_path):
        path = tmp_path / "metrics.json"
        api.run(api.RunSpec(
            records=150, config=TINY,
            obs=api.ObsOptions(metrics_out=str(path)),
        ))
        assert json.loads(path.read_text())["counters"][sk.SIM_CYCLES] > 0


class TestStatsKeys:
    def test_static_keys_unique_and_namespaced(self):
        keys = sk.all_static_keys()
        assert len(keys) == len(set(keys))
        assert all("." in key for key in keys)

    def test_key_builders_match_constants(self):
        from repro.oram.types import PathType, RequestKind

        assert sk.requests_key(RequestKind.WRITEBACK) == sk.REQUESTS_WRITEBACK
        assert sk.paths_key(PathType.DATA) == "paths.PTd"
        assert sk.cache_key("llc", "misses") == sk.LLC_MISSES

    def test_run_counters_are_known_keys(self):
        from repro.oram.types import PathType, RequestKind

        known = set(sk.all_static_keys())
        for path_type in PathType:
            known.add(sk.paths_key(path_type))
            known.add(sk.mem_blocks_key(path_type))
        for kind in RequestKind:
            known.add(sk.requests_key(kind))
        for scheme in SCHEMES:
            counters = api.run(api.RunSpec(
                scheme=scheme, workload="mix", records=200, config=TINY
            )).result.counters
            unknown = set(counters) - known
            assert not unknown, f"{scheme}: unregistered stat keys {unknown}"

    def test_two_tree_key_tables_registered(self):
        from repro.oram.pyramid import PyramidController
        from repro.oram.rho import RhoController
        from repro.oram.ring import RingController

        known = set(sk.all_static_keys())
        labels = {"tag", "hit_label", "stash_hit_label"}
        for family in (RhoController, RingController, PyramidController):
            keys = {
                key for field, key in family.KEYS._asdict().items()
                if field not in labels and key is not None
            }
            assert keys <= known, f"{family.__name__}: {keys - known}"

    def test_keys_by_namespace_partition(self):
        grouped = sk.keys_by_namespace()
        flattened = sorted(key for keys in grouped.values() for key in keys)
        assert flattened == sk.all_static_keys()
        for namespace, keys in grouped.items():
            assert all(key.startswith(namespace + ".") for key in keys)


class TestSideTreeBursts:
    """Rho, Ring and Pyramid share one burst helper for their side trees.

    The digests pin each scheme's full event stream (order and payloads,
    ``tree=`` tags included), its observer records and its counters, so a
    change to the shared helper that moves any of them fails here.  The
    main tree's native stash kernel reports ``stash.hwm`` once per path
    rather than once per block, so each tier has its own digest.
    """

    #: scheme -> (side-tree tag, digest with C kernels, pure-Python digest)
    PINNED = {
        "Rho": ("small", "fe208b13a4ff7a76", "722c6aa66cc4d6cd"),
        "Ring": ("ring", "28a50c43107096fc", "7dd0d8885b8357fa"),
        "Pyramid": ("pyramid", "6f7b1bf66f083326", "96185f1afd469287"),
    }

    @pytest.mark.parametrize("scheme", sorted(PINNED))
    def test_events_records_and_counters_pinned(self, scheme):
        import hashlib
        import random

        from repro.core.schemes import build_scheme
        from repro.perf import native
        from repro.security.obliviousness import AccessRecorder
        from repro.sim.runner import make_workload
        from repro.sim.simulator import Simulator

        stats = Stats()
        tracer = Tracer()
        tracer.add_sink(MemorySink(capacity=10**7))
        stats.tracer = tracer
        components = build_scheme(scheme, TINY, stats, random.Random(5))
        recorder = AccessRecorder()
        components.controller.observer = recorder
        result = Simulator(
            components, make_workload("mix", TINY, 400, 5)
        ).run()
        events = [
            (event.kind, event.cycle, sorted(event.data.items()))
            for event in tracer.memory_events()
        ]
        records = [
            (r.issue_cycle, r.leaf, r.path_type.value,
             list(r.read_addresses), list(r.write_addresses))
            for r in recorder.records
        ]
        tree, native_digest, python_digest = self.PINNED[scheme]
        digest = native_digest if native.available() else python_digest
        assert any(
            dict(data).get("tree") == tree
            for kind, _, data in events if kind == ev.PATH_READ
        )
        payload = json.dumps(
            [events, records, sorted(result.counters.items()),
             result.cycles],
            default=str,
        )
        assert hashlib.sha256(payload.encode()).hexdigest()[:16] == digest
