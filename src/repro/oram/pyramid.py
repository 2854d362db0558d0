"""Pyramid: a simplified hierarchical-ORAM baseline (Goldreich-Ostrovsky
lineage, as revisited for trusted processors by the Pyramid line of work).

Where Rho pairs the main Path ORAM tree with a second *tree*, Pyramid
pairs it with a small *hierarchy of levels*: level ``i`` holds
``base << i`` buckets of ``BUCKET_SLOTS`` blocks each.  A lookup probes
one bucket per level (the real bucket on the level holding the block,
uniformly random buckets everywhere else), and a periodic *oblivious
reshuffle* rewrites the entire hierarchy — every bucket of every level is
read and written back in one fixed burst — redistributing blocks across
levels by recency and assigning every kept block a fresh random bucket.

The simplifications relative to a faithful hierarchical ORAM are timing-
model ones, not security ones:

* buckets are on-chip metadata (``side_map``); the DRAM model charges
  for the probe and reshuffle bursts, but bucket contents are not stored
  off chip, so hashing/cuckoo details are abstracted away;
* a probed block is immediately reassigned a fresh uniform level-0
  bucket, so no stored bucket is ever probed twice — the probe address
  stream is uniform i.i.d., which is the property the distinguisher
  harness (:mod:`repro.validate.distinguish`) checks;
* reshuffles trigger on a fixed count of pyramid issue slots (never on
  occupancy or request contents), so their timing is data-independent.

Scheduling is the two-tree scheduler Rho and Ring share
(:class:`~repro.oram.twotree.TwoTreeController`): issue slots alternate
in a fixed main:pyramid pattern with dummies filling empty slots, blocks
promote exclusively into the pyramid on main-tree reads, and spilled
blocks re-enter the main tree through the stash after their PosMap entry
is restored.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import List, Optional, Tuple

from .. import stats_keys as sk
from ..config import SystemConfig
from ..stats import Stats
from .controller import SlotResult
from .twotree import SideKeys, TwoTreeController
from .types import PathType

#: levels in the hierarchy
PYRAMID_LEVELS = 3
#: block slots per bucket
BUCKET_SLOTS = 4
#: probe slots between oblivious reshuffles
RESHUFFLE_PERIOD = 64


def scaled_base_buckets(main_levels: int) -> int:
    """Level-0 bucket count, scaled with the main tree's depth.

    Sized so that the pyramid's block budget (half its slots) captures a
    useful hot set at every preset: 8 buckets at the tiny config's L=9,
    16 at the scaled default, 256 at paper scale.
    """
    return 1 << max(3, main_levels // 3)


class PyramidController(TwoTreeController):
    """Main Path ORAM tree plus a small reshuffled bucket hierarchy."""

    KEYS = SideKeys(
        tag="pyramid",
        paths=sk.PATHS_PYRAMID,
        main_accesses=sk.PYRAMID_MAIN_ACCESSES,
        main_reinserts=sk.PYRAMID_MAIN_REINSERTS,
        promotions=sk.PYRAMID_PROMOTIONS,
        evictions=sk.PYRAMID_SPILLS,
        hits=sk.PYRAMID_HITS,
        dummies=sk.PYRAMID_PROBE_DUMMIES,
        hit_label="pyramid",
    )

    def __init__(
        self,
        config: SystemConfig,
        stats: Optional[Stats] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        base = scaled_base_buckets(config.oram.levels)
        level_buckets = [base << i for i in range(PYRAMID_LEVELS)]
        #: blocks each level may hold (half its slots, Path-ORAM style)
        level_budget = [
            buckets * BUCKET_SLOTS // 2 for buckets in level_buckets
        ]
        super().__init__(config, stats, rng, None, sum(level_budget))
        self.level_buckets = level_buckets
        self.level_budget = level_budget

        # Physical layout: each level is a contiguous, row-aligned block
        # region placed after the main tree (as Rho's and Ring's side
        # trees are).
        row_blocks = config.dram.row_blocks
        row_cursor = self.layout.end_row()
        self._level_base: List[int] = []
        for buckets in level_buckets:
            self._level_base.append(row_cursor * row_blocks)
            blocks = buckets * BUCKET_SLOTS
            row_cursor += -(-blocks // row_blocks)
        #: every slot address of every level — the reshuffle burst
        self._region_addresses: List[int] = []
        for level, buckets in enumerate(level_buckets):
            start = self._level_base[level]
            self._region_addresses.extend(
                range(start, start + buckets * BUCKET_SLOTS)
            )
        self._reshuffle_countdown = RESHUFFLE_PERIOD

    # ------------------------------------------------------------------
    # custody: level 0 on promotion, oldest blocks spill
    # ------------------------------------------------------------------
    def _admit(self, block: int) -> None:
        self.side_map[block] = (
            0,
            self.rng.randrange(self.level_buckets[0]),
        )

    def _enforce_budget(self) -> None:
        while len(self.side_map) > self.side_budget:
            victim, _ = self.side_map.popitem(last=False)
            self._queue_main_insert(victim)
            self.stats.inc(sk.PYRAMID_SPILLS)

    # ------------------------------------------------------------------
    # pyramid slot
    # ------------------------------------------------------------------
    def _side_slot(self, now: int) -> Optional[SlotResult]:
        if self._reshuffle_countdown <= 0:
            return self._reshuffle(now)
        result = self._probe_serve(now)
        if result is not None:
            self._reshuffle_countdown -= 1
        return result

    def _probe_serve(self, now: int) -> Optional[SlotResult]:
        request = self._first_request_needing_side(now)
        if request is None:
            return None
        self.queue.remove(request)
        block = request.block
        residence = self.side_map[block]
        result = self._probe_path(now, PathType.DATA, hit=residence)
        # Served blocks move to level 0 under a *fresh* uniform bucket, so
        # a stored bucket is probed at most once (no repeat-probe leak);
        # re-insertion at the OrderedDict end marks the block most recent.
        del self.side_map[block]
        self._admit(block)
        self._complete_side_hit(request, result)
        return result

    def _side_dummy(self, now: int) -> SlotResult:
        # Only reached when _side_slot found no real probe work, which
        # implies the reshuffle countdown was still positive.
        self._reshuffle_countdown -= 1
        self.stats.inc(sk.PYRAMID_PROBE_DUMMIES)
        return self._probe_path(now, PathType.DUMMY)

    # ------------------------------------------------------------------
    # burst machinery
    # ------------------------------------------------------------------
    def _probe_path(
        self,
        now: int,
        path_type: PathType,
        hit: Optional[Tuple[int, int]] = None,
    ) -> SlotResult:
        """One lookup burst: one bucket per pyramid level, read + write."""
        addresses: List[int] = []
        top_bucket = 0
        for level, buckets in enumerate(self.level_buckets):
            if hit is not None and hit[0] == level:
                bucket = hit[1]
            else:
                bucket = self.rng.randrange(buckets)
            if level == 0:
                top_bucket = bucket
            start = self._level_base[level] + bucket * BUCKET_SLOTS
            addresses.extend(range(start, start + BUCKET_SLOTS))
        return self._tree_burst(top_bucket, path_type, now, addresses, addresses)

    def _reshuffle(self, now: int) -> SlotResult:
        """Periodic oblivious reshuffle: rewrite the whole hierarchy.

        Externally one fixed burst over every bucket of every level,
        independent of occupancy.  Internally, kept blocks redistribute
        across levels newest-first (level 0 gets the most recent) under
        fresh uniform buckets; blocks beyond the total budget spill to the
        main-insert queue, oldest first.
        """
        self._reshuffle_countdown = RESHUFFLE_PERIOD
        blocks = list(self.side_map)  # oldest -> newest
        keep = blocks[len(blocks) - min(len(blocks), self.side_budget):]
        spill = blocks[: len(blocks) - len(keep)]
        assign: dict = {}
        level = 0
        used = 0
        for block in reversed(keep):  # newest first, shallowest first
            while used >= self.level_budget[level]:
                level += 1
                used = 0
            assign[block] = (
                level,
                self.rng.randrange(self.level_buckets[level]),
            )
            used += 1
        new_map: "OrderedDict[int, Tuple[int, int]]" = OrderedDict()
        for block in keep:  # oldest -> newest preserves recency order
            new_map[block] = assign[block]
        self.side_map = new_map
        for block in spill:
            self._queue_main_insert(block)
            self.stats.inc(sk.PYRAMID_SPILLS)
        self.stats.inc(sk.PYRAMID_RESHUFFLES)
        return self._tree_burst(
            0, PathType.EVICTION, now,
            self._region_addresses, self._region_addresses,
        )
