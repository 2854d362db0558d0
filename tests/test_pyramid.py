"""Unit tests for the Pyramid (reshuffled level hierarchy) controller."""

from collections import Counter

from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.validate.invariants import InvariantAuditor

from tests.twotree_cases import FamilyProtocolCases, drive_blocks, flush


class TestPromotionAndSpill(FamilyProtocolCases):
    SCHEME = "Pyramid"
    PROMOTIONS = "pyramid.promotions"
    HITS = ("pyramid.hits",)
    EVICTIONS = "pyramid.spills"
    REINSERTS = "pyramid.main_reinserts"


class TestReshuffle:
    def test_reshuffle_round_trip(self, rng):
        """Reshuffles keep the newest blocks, shallowest first, within
        each level's budget; spilled blocks come back mapped."""
        controller = build_scheme("Pyramid", SystemConfig.tiny()).controller
        auditor = InvariantAuditor(controller)
        blocks = list(range(controller.side_budget + 8))
        now = drive_blocks(controller, blocks, rng)
        assert controller.stats.get("pyramid.reshuffles") > 0

        recency = list(controller.side_map)
        result = controller._reshuffle(now)
        assert result.issued_path
        kept = list(controller.side_map)
        assert kept == recency[len(recency) - len(kept):]
        assert len(kept) <= controller.side_budget
        levels = [controller.side_map[block][0] for block in reversed(kept)]
        assert levels == sorted(levels)
        for level, count in Counter(levels).items():
            assert count <= controller.level_budget[level]

        flush(controller, result.finish_write)
        auditor.audit_now()
        assert not controller._pending_main_insert
        for block in blocks:
            in_custody = block in controller.side_map
            assert in_custody != controller.posmap.is_mapped(block)
