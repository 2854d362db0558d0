"""Tests of the benchmark itself, on small trees so they run fast."""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import hostspeed
import layers
import record_digests
import run
import workloads
from repro.core import schemes
from repro.perf import native
from repro.perf.engine import ArtifactCache
from repro.sim import runner

# Small grids that still reach every execution tier: xal's compute phases
# give batched dummy paths, IR-ORAM the dirty-LRU scan, Decoupled the
# deferred writes, and the two-tree schemes their own controllers.
TINY_PATH = workloads.Workload(
    "tiny-path", "xal", 400, ("Baseline", "IR-ORAM", "Decoupled", "LLC-D"),
    levels=9,
)
TINY_TWO = workloads.Workload(
    "tiny-two", "random", 60, ("Rho", "Ring+IR-DWB", "Pyramid"), levels=9,
)


def _record(workload, seed):
    return {workload.name: record_digests.record(workload, (seed,))}


def _measure(workload, seed, recorded, trace=0):
    args = argparse.Namespace(
        workload=workload.name, seed=seed, seconds=0.0, trace=trace
    )
    return run.measure(args, recorded)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, TINY_PATH.name, TINY_PATH)
    monkeypatch.setitem(workloads.WORKLOADS, TINY_TWO.name, TINY_TWO)
    return _record(TINY_PATH, 7)


def test_matching_digests_pass(tiny):
    result = _measure(TINY_PATH, 7, tiny)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == run.MIN_GRIDS * len(TINY_PATH.schemes)
    assert set(result["metrics"]) == set(run.E2E_UNITS)


def test_perturbed_digest_counts_as_failed_point(tiny, capsys):
    points = tiny[TINY_PATH.name]["seeds"]["7"]
    points["LLC-D"]["digest"] = "0" * 20
    result = _measure(TINY_PATH, 7, tiny)
    assert result["correct"] is False
    assert result["failed"] == run.MIN_GRIDS
    assert "LLC-D: digest" in capsys.readouterr().out


def test_raised_point_counts_as_failed_point(tiny, monkeypatch):
    real = schemes.build_scheme

    def build(name, *args, **kwargs):
        if name == "Decoupled":
            raise RuntimeError("injected")
        return real(name, *args, **kwargs)

    monkeypatch.setattr(schemes, "build_scheme", build)
    result = _measure(TINY_PATH, 7, tiny)
    assert result["failed"] == run.MIN_GRIDS
    assert result["correct"] is False


def test_unrecorded_seed_checks_the_default_seed_reference(tiny):
    result = _measure(TINY_PATH, 8, tiny)
    assert result["failed"] == 0
    # the reference grid at the default seed is attempted too
    assert result["attempted"] == (run.MIN_GRIDS + 1) * len(TINY_PATH.schemes)


def test_stale_record_is_refused(tiny):
    tiny[TINY_PATH.name]["records"] += 1
    with pytest.raises(RuntimeError, match="record_digests"):
        _measure(TINY_PATH, 7, tiny)


@pytest.mark.parametrize(
    "workload", [TINY_PATH, TINY_TWO], ids=lambda w: w.name
)
def test_traced_wrappers_leave_digests_unchanged(workload):
    untraced = workloads.run_grid(workload, 5)
    originals = (schemes.build_scheme, runner.make_workload)
    clock = layers.SpanClock()
    with layers.traced(clock), clock.root():
        traced_grid = workloads.run_grid(workload, 5)
    assert traced_grid.digests() == untraced.digests()
    assert clock.sum_to_wall() == []
    tiers = clock.stepped_real + clock.stepped_dummy + clock.batched
    assert tiers == traced_grid.paths
    # everything is unwrapped again
    assert (schemes.build_scheme, runner.make_workload) == originals
    from repro.oram import controller

    assert controller._fastpath is native.fastpath
    if workload is TINY_PATH:
        assert clock.batched > 0
        assert clock.self_ns["cache.dirty_scan"] > 0
    else:
        assert clock.self_ns["oram.twotree"] > 0
        assert clock.batched == 0


def test_traced_run_reports_every_per_layer_metric(tiny):
    result = _measure(TINY_PATH, 7, tiny, trace=1)
    assert result["correct"] is True
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]}
    assert set(result["metrics"]) == declared


def _fake_grid(scale, kernel_s):
    points = [
        workloads.Point(scheme, setup_s=0.5 * i * scale, sim_s=i * scale,
                        wall_s=1.6 * i * scale, paths=100 * i,
                        kernel_s=kernel_s)
        for i, scheme in enumerate(("Baseline", "IR-ORAM", "Decoupled"), 1)
    ]
    return workloads.Grid("fake", 7, points, sum(p.wall_s for p in points),
                          {})


def test_end_to_end_is_rescaled_to_the_reference_speed():
    ref = hostspeed.REFERENCE_S
    at_ref = run.end_to_end([_fake_grid(1.0, ref)] * 3)
    assert at_ref["setup_s"] == pytest.approx(3.0)
    assert at_ref["paths_per_s"] == pytest.approx(100.0)
    # a host twice as slow slows the kernel as much: no metric moves
    slow = run.end_to_end([_fake_grid(2.0, 2 * ref)] * 3)
    for name in ("paths_per_s", "wall_s", "setup_s", "point_wall_p50_s",
                 "slowest_point_s"):
        assert slow[name] == pytest.approx(at_ref[name])
    # the program twice as slow on the same host: every time doubles
    slower = run.end_to_end([_fake_grid(2.0, ref)] * 3)
    assert slower["wall_s"] == pytest.approx(2 * at_ref["wall_s"])
    assert slower["paths_per_s"] == pytest.approx(at_ref["paths_per_s"] / 2)


def test_measured_points_carry_their_kernel_samples():
    host = hostspeed.HostSpeed()
    grid = workloads.run_grid(TINY_TWO, 5, host)
    assert len(host.samples) == len(TINY_TWO.schemes) + 1
    for i, point in enumerate(grid.points):
        assert point.kernel_s == pytest.approx(
            (host.samples[i] + host.samples[i + 1]) / 2
        )
    assert workloads.run_grid(TINY_TWO, 5).digests() == grid.digests()


def test_kernel_sample_leaves_the_collector_as_it_found_it():
    import gc

    host = hostspeed.HostSpeed()
    assert gc.isenabled()
    assert host.sample() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        host.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_sum_to_wall_catches_lost_time():
    clock = layers.SpanClock()
    with clock.root():
        clock.wrap("cpu", lambda: None)()
    assert clock.sum_to_wall() == []
    clock.self_ns["cpu"] += 1
    assert clock.sum_to_wall()


def test_seed_reaches_trace_generation_only(monkeypatch):
    trace_seeds = []
    rng_states = []
    real_make, real_build = runner.make_workload, schemes.build_scheme

    def make(name, config, records, seed=7):
        trace_seeds.append(seed)
        return real_make(name, config, records, seed)

    def build(name, config, stats=None, rng=None):
        rng_states.append(rng.getstate())
        return real_build(name, config, stats, rng)

    monkeypatch.setattr(runner, "make_workload", make)
    monkeypatch.setattr(schemes, "build_scheme", build)
    config = workloads.SystemConfig.scaled(levels=TINY_TWO.levels)
    for seed in (3, 4):
        point = workloads.run_point(
            "Pyramid", TINY_TWO, seed, config, ArtifactCache()
        )
        assert point.error is None
    assert trace_seeds == [3, 4]
    expected = random.Random(workloads.SCHEME_SEED).getstate()
    assert rng_states == [expected, expected]


def test_isolate_environment_pins_every_knob(tmp_path):
    saved = dict(os.environ)
    try:
        os.environ["REPRO_BATCH_SLOTS"] = "0"
        cache_dir = run.isolate_environment(str(tmp_path))
        assert "REPRO_BATCH_SLOTS" not in os.environ
        assert os.environ["REPRO_DISK_CACHE"] == "0"
        assert os.environ["REPRO_CACHE_DIR"] == cache_dir
        assert os.path.dirname(cache_dir) == str(tmp_path)
        assert os.listdir(cache_dir) == []
    finally:
        os.environ.clear()
        os.environ.update(saved)


def test_recorded_digests_cover_every_point():
    recorded = run.load_recorded()
    for workload in workloads.WORKLOADS.values():
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            digests = run.recorded_digests(recorded, workload, seed)
            assert set(digests) == set(workload.schemes)


def test_exits_without_result_when_sources_are_missing(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(
        run.HERE, bench, ignore=shutil.ignore_patterns("__pycache__", "tests")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "path-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
