"""The ORAM tree: buckets of (possibly non-uniform) size holding block IDs.

Only block identity is simulated — payloads, encryption, and MACs add
constant per-block cost that the DRAM model charges uniformly, so carrying
bytes around would change nothing the paper measures.

The tree supports the per-level bucket sizes that IR-Alloc introduces
(Section IV-B): ``z_per_level[l]`` slots per bucket at level ``l``, with 0
meaning the level holds no memory-backed slots at all.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import ORAMConfig
from ..errors import ProtocolError
from ..perf.native import fastpath as _native

#: Marker for an unoccupied slot (a "dummy block" once encrypted).
EMPTY = -1


class ORAMTree:
    """Binary tree of buckets addressed by ``(level, position)``.

    Every slot of the tree lives in one flat ``array('i')``, ``slots``,
    with :data:`EMPTY` marking a free slot — the array of Z-slot buckets
    the paper's controller (Section II-B) addresses.  Levels are stored
    root first, and each level's buckets left to right, so bucket
    ``(level, position)`` occupies the ``z_per_level[level]`` slots from
    ``level_base[level] + position * z_per_level[level]``; a Z=0 level
    takes no room.  The C kernels read and write the same buffer.

    ``level_used`` counts the real blocks per level.  The tree's methods
    are the only Python code that writes ``slots`` or ``level_used``;
    :meth:`bucket` and the iterators hand out copies.
    """

    def __init__(self, config: ORAMConfig) -> None:
        self.config = config
        self.levels = config.levels
        self.z_per_level = config.z_per_level
        self.level_used: List[int] = [0] * self.levels
        self.level_slots: List[int] = [
            z << level for level, z in enumerate(self.z_per_level)
        ]
        self.level_base: List[int] = []
        total = 0
        for count in self.level_slots:
            self.level_base.append(total)
            total += count
        self.slots = array("i", [EMPTY]) * total
        shift = self.levels - 1
        #: ``(level, level_base, z, leaf shift)`` of every Z>0 level, root
        #: first: a path's bucket at ``level`` starts at
        #: ``level_base + (leaf >> shift) * z``
        self._path_levels: Tuple[Tuple[int, int, int, int], ...] = tuple(
            (level, self.level_base[level], z, shift - level)
            for level, z in enumerate(self.z_per_level)
            if z
        )

    # -- bucket access -------------------------------------------------------
    @staticmethod
    def bucket_index(level: int, position: int) -> int:
        """Heap-order index of a bucket (root 0, then level by level)."""
        return (1 << level) - 1 + position

    def bucket_offset(self, level: int, position: int) -> int:
        """Index in :attr:`slots` of the first slot of a bucket."""
        if not 0 <= level < self.levels:
            raise ProtocolError(f"level {level} out of range")
        if not 0 <= position < (1 << level):
            raise ProtocolError(f"position {position} invalid at level {level}")
        return self.level_base[level] + position * self.z_per_level[level]

    def bucket(self, level: int, position: int) -> List[int]:
        """A copy of one bucket's slots."""
        start = self.bucket_offset(level, position)
        return self.slots[start:start + self.z_per_level[level]].tolist()

    # -- path geometry ----------------------------------------------------------
    def path_position(self, leaf: int, level: int) -> int:
        return leaf >> (self.levels - 1 - level)

    def path_buckets(
        self, leaf: int, from_level: int = 0
    ) -> Iterable[Tuple[int, int, List[int]]]:
        """Yield ``(level, position, slots)`` along the path to ``leaf``."""
        for level in range(from_level, self.levels):
            if self.z_per_level[level] == 0:
                continue
            position = self.path_position(leaf, level)
            yield level, position, self.bucket(level, position)

    def iter_buckets(self) -> Iterable[Tuple[int, int, List[int]]]:
        """Yield ``(level, position, slots)`` for every bucket of a Z>0
        level, root first."""
        slots = self.slots
        for level, z in enumerate(self.z_per_level):
            if z == 0:
                continue
            start = self.level_base[level]
            for position in range(1 << level):
                yield level, position, slots[start:start + z].tolist()
                start += z

    def deepest_common_level(self, leaf_a: int, leaf_b: int) -> int:
        """Deepest level shared by the paths to two leaves (0 = root only)."""
        xor = leaf_a ^ leaf_b
        return (self.levels - 1) - xor.bit_length()

    def find(self, block: int, leaf: int, below: int) -> Optional[int]:
        """The level above ``below`` whose bucket on the path to ``leaf``
        holds ``block``, or None."""
        slots = self.slots
        for level, base, z, shift in self._path_levels:
            if level >= below:
                break
            start = base + (leaf >> shift) * z
            if block in slots[start:start + z]:
                return level
        return None

    # -- slot mutation -----------------------------------------------------------
    def read_and_clear(self, leaf: int) -> List[Tuple[int, int]]:
        """Remove every real block on a path; return ``(block, level)`` pairs.

        This is the read phase of a path access: every slot is fetched, real
        blocks go to the caller (the stash), dummies are discarded.
        """
        if _native is not None:
            return _native.read_and_clear(
                self.slots, self.z_per_level, self.level_used, leaf
            )
        removed: List[Tuple[int, int]] = []
        slots = self.slots
        level_used = self.level_used
        for level, base, z, shift in self._path_levels:
            start = base + (leaf >> shift) * z
            for i in range(start, start + z):
                block = slots[i]
                if block != EMPTY:
                    removed.append((block, level))
                    slots[i] = EMPTY
                    level_used[level] -= 1
        return removed

    def place(self, level: int, position: int, block: int) -> bool:
        """Put ``block`` into the first free slot of a bucket, if any."""
        start = self.bucket_offset(level, position)
        try:
            index = self.slots.index(
                EMPTY, start, start + self.z_per_level[level]
            )
        except ValueError:
            return False
        self.slots[index] = block
        self.level_used[level] += 1
        return True

    def remove(self, level: int, position: int, block: int) -> None:
        """Take ``block`` out of a bucket (it must be there)."""
        start = self.bucket_offset(level, position)
        try:
            index = self.slots.index(
                block, start, start + self.z_per_level[level]
            )
        except ValueError:
            raise ProtocolError(
                f"block {block} not in bucket ({level}, {position})"
            ) from None
        self.slots[index] = EMPTY
        self.level_used[level] -= 1

    def free_slots(self, level: int, position: int) -> int:
        return self.bucket(level, position).count(EMPTY)

    # -- occupancy queries ----------------------------------------------------------
    def level_utilization(self) -> List[float]:
        """Fraction of slots holding real blocks, per level (Fig. 3)."""
        result = []
        for used, slots in zip(self.level_used, self.level_slots):
            result.append(used / slots if slots else 0.0)
        return result

    def total_used(self) -> int:
        return sum(self.level_used)

    def initialize(self, leaf_table: array, rng: random.Random) -> List[int]:
        """Place blocks ``0..len(leaf_table)-1`` bottom-up along their paths.

        ``leaf_table[block]`` is the block's assigned leaf.  Blocks whose
        entire path is full are returned to the caller (they start life in
        the stash).  A shuffled placement order avoids systematic bias.
        The tree must be empty.
        """
        if self.total_used():
            raise ProtocolError("initialize needs an empty tree")
        if _native is not None and type(rng) is random.Random:
            # Same getrandbits bit stream as rng.shuffle (plain Random
            # only), same placement as the loop below.
            return _native.tree_init(
                rng.getrandbits, leaf_table, self.slots, self.z_per_level,
                self.level_used,
            )
        block_list = list(range(len(leaf_table)))
        rng.shuffle(block_list)
        # Placement into a fresh tree only ever fills the first empty slot
        # of each bucket, so per-bucket fill counters stand in for slot
        # scans.
        slots = self.slots
        level_used = self.level_used
        deepest_first = self._path_levels[::-1]
        overflow: List[int] = []
        fill: Dict[int, int] = {}
        for block in block_list:
            leaf = leaf_table[block]
            for level, base, z, shift in deepest_first:
                start = base + (leaf >> shift) * z
                count = fill.get(start, 0)
                if count < z:
                    fill[start] = count + 1
                    slots[start + count] = block
                    level_used[level] += 1
                    break
            else:
                overflow.append(block)
        return overflow
