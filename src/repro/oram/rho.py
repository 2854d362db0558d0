"""Rho: relaxed hierarchical ORAM (Nagarajan et al., ASPLOS'19) — the
state-of-the-art baseline the paper compares against.

Rho adds a second, much smaller ORAM tree (best setting in the paper:
L=19, Z=2 at paper scale) that captures the hot working set: most accesses
are served by short, cheap paths in the small tree, and only misses (plus
PosMap traffic and small-tree evictions) touch the main tree.  To keep the
two path lengths from leaking timing information, path accesses follow a
fixed issue *pattern* — one main-tree access per two small-tree
accesses — with dummy paths of the appropriate kind inserted whenever the
scheduled slot has no matching real work.  That pattern, the exclusive
promotion into the small tree and the LRU extraction back to the main
tree are the scheduler shared with Ring and Pyramid
(:class:`~repro.oram.twotree.TwoTreeController`); the small tree's
position map is small enough to live on chip.  This module keeps only the
small tree's own read and greedy write phases.
"""

from __future__ import annotations

import random
from typing import List, Optional

from .. import stats_keys as sk
from ..config import SystemConfig
from ..errors import ProtocolError
from ..stats import Stats
from .controller import SlotResult
from .tree import ORAMTree
from .twotree import SideKeys, TwoTreeController, side_tree_config
from .types import PathType

#: slots per small-tree bucket (the paper's best setting)
SMALL_Z = 2


def scaled_small_levels(main_levels: int, llc_lines: int = 2048) -> int:
    """Small-tree depth sized so its capacity dwarfs the LLC.

    Rho only pays off when the small tree captures the post-LLC working
    set, so its block budget (half its slots at Z=2) must be several times
    the LLC.  At paper scale (32K-line LLC) this yields L=18-19, matching
    the paper's best setting; scaled configurations shrink accordingly.
    """
    return max(3, min(main_levels - 1, (4 * llc_lines).bit_length()))


class RhoController(TwoTreeController):
    """Two-tree ORAM controller with a small Path ORAM side tree."""

    KEYS = SideKeys(
        tag="small",
        paths=sk.PATHS_SMALL_TREE,
        main_accesses=sk.RHO_MAIN_ACCESSES,
        main_reinserts=sk.RHO_MAIN_REINSERTS,
        promotions=sk.RHO_PROMOTIONS,
        evictions=sk.RHO_SMALL_EVICTIONS,
        hits=sk.RHO_SMALL_HITS,
        dummies=sk.RHO_SMALL_DUMMIES,
        hit_label="small-tree",
        extractions=sk.RHO_EXTRACTIONS,
        stash_hits=sk.RHO_SMALL_STASH_HITS,
        stash_hit_label="small-stash",
    )

    def __init__(
        self,
        config: SystemConfig,
        stats: Optional[Stats] = None,
        rng: Optional[random.Random] = None,
        small_levels: Optional[int] = None,
    ) -> None:
        levels = small_levels or scaled_small_levels(
            config.oram.levels, config.llc.lines
        )
        budget = SMALL_Z * ((1 << levels) - 1) // 2
        super().__init__(
            config, stats, rng,
            side_tree_config(config.oram, levels, SMALL_Z, budget), budget,
        )
        self.small_tree = ORAMTree(self.side_oram)

    def _side_maintenance(self, now: int) -> Optional[SlotResult]:
        if self.side_stash.over_threshold(self.side_oram.eviction_threshold):
            leaf = self.rng.randrange(self.side_leaves)
            self.stats.inc(sk.RHO_SMALL_EVICTION_PATHS)
            return self._side_path(leaf, now, PathType.EVICTION)
        return None

    def _side_path(
        self,
        leaf: int,
        now: int,
        path_type: PathType,
        target: Optional[int] = None,
        extract: bool = False,
        new_leaf: Optional[int] = None,
    ) -> SlotResult:
        """One full small-tree path access (read + greedy write)."""
        return self._tree_burst(
            leaf, path_type, now, None, None,
            after_read=lambda: self._small_read_phase(
                leaf, target, extract, new_leaf
            ),
            before_write=lambda: self._small_write_phase(leaf),
            path_layout=self.side_layout,
        )

    def _small_read_phase(
        self,
        leaf: int,
        target: Optional[int],
        extract: bool,
        new_leaf: Optional[int],
    ) -> None:
        removed = self.small_tree.read_and_clear(leaf)
        found = False
        for block, _ in removed:
            if block == target:
                found = True
                if not extract:
                    self.side_stash.add(block, new_leaf)
                continue
            if block not in self.side_map:
                raise ProtocolError(f"block {block} missing from small map")
            self.side_stash.add(block, self.side_map[block])
        if target is not None and not found:
            raise ProtocolError(f"block {target} absent from its path")

    def _small_write_phase(self, leaf: int) -> None:
        levels = self.side_oram.levels
        pools: List[List[int]] = [[] for _ in range(levels)]
        for block, block_leaf in self.side_stash.items():
            depth = self.small_tree.deepest_common_level(leaf, block_leaf)
            pools[depth].append(block)
        pool: List[int] = []
        for level in range(levels - 1, -1, -1):
            pool.extend(pools[level])
            z = self.side_oram.z_per_level[level]
            if z == 0 or not pool:
                continue
            position = self.small_tree.path_position(leaf, level)
            placed = 0
            while pool and placed < z:
                block = pool.pop()
                if not self.small_tree.place(level, position, block):
                    raise ProtocolError("small bucket overflow")
                self.side_stash.remove(block)
                placed += 1
