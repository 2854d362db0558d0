"""Unit tests for the Rho (relaxed hierarchical ORAM) controller."""

import pytest

from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.oram.rho import RhoController, scaled_small_levels
from repro.sim.runner import make_workload
from repro.sim.simulator import Simulator

from tests.twotree_cases import FamilyProtocolCases


@pytest.fixture
def rho():
    return build_scheme("Rho", SystemConfig.tiny()).controller


class TestSizing:
    def test_small_levels_scale_with_llc(self):
        assert scaled_small_levels(25, llc_lines=32768) in (17, 18, 19)
        assert scaled_small_levels(15, llc_lines=2048) <= 14

    def test_small_tree_never_taller_than_main(self):
        assert scaled_small_levels(5, llc_lines=1 << 20) == 4


class TestPattern(FamilyProtocolCases):
    SCHEME = "Rho"
    PROMOTIONS = "rho.promotions"
    HITS = ("rho.small_hits", "rho.small_stash_hits")
    EVICTIONS = "rho.small_evictions"
    REINSERTS = "rho.main_reinserts"

    def build_small(self):
        return RhoController(SystemConfig.tiny(), small_levels=3)

    def test_pattern_alternates_main_and_small(self, rho):
        """With an empty queue, slots alternate dummy types 1:2."""
        now = 0
        for _ in range(9):
            result = rho.step(now, allow_dummy=True)
            assert result.issued_path
            now = max(now + 1, result.finish_write)
        smalls = rho.stats.get("rho.small_dummies")
        mains = rho.stats.get("paths.PTm") - smalls
        assert mains == 3
        assert smalls == 6

    def test_full_run_all_paths_same_two_shapes(self):
        config = SystemConfig.tiny()
        components = build_scheme("Rho", config)
        sizes = set()
        components.controller.observer = lambda rec: sizes.add(
            len(rec.read_addresses)
        )
        trace = make_workload("random", config, 250, seed=4)
        Simulator(components, trace).run()
        # main-tree paths and small-tree paths: exactly two public shapes
        assert len(sizes) <= 2
