"""Subtree-aware physical layout of the ORAM tree in DRAM.

Ren et al. observed that laying out the ORAM tree level-by-level destroys
DRAM row-buffer locality: consecutive levels of one path land in different
rows.  The *subtree layout* instead packs every k-level subtree contiguously
so that a path access touches one row per k levels.  The paper's Baseline
adopts this layout ("It also adopts the subtree layout to improve row buffer
hits"), so our DRAM model implements it faithfully, generalized to the
non-uniform per-level bucket sizes that IR-Alloc introduces.

Terminology used here:

* *bucket*: a tree node, identified by ``(level, position)`` with
  ``position`` in ``[0, 2**level)``, or by its heap index
  ``(1 << level) - 1 + position``.
* *slot*: one 64-byte block inside a bucket; bucket at level ``l`` has
  ``z_per_level[l]`` slots.
* *supernode*: a k-level subtree packed contiguously and row-aligned.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import DRAMConfig, ORAMConfig
from ..errors import ConfigError
from ..perf.native import fastpath as _fastpath
from .dram import decompose_addresses


class TreeLayout:
    """Maps ``(level, position, slot)`` tree coordinates to physical blocks.

    Only levels at or below ``oram.top_cached_levels`` are backed by memory;
    the cached top lives on chip (dedicated tree-top cache or S-Stash).
    Asking for the address of a cached-level slot is a programming error.

    The layout is the one owner of its tree's geometry, including the
    per-leaf memos derived from it.  They are pure functions of ``(oram
    levels, Z vector, cached top, dram, base_row)``, so one instance may
    serve every tree with that geometry (:meth:`repro.perf.engine.
    ArtifactCache.layout_for` hands it out).  They are FIFO-capped at
    :attr:`PATH_CACHE_LIMIT` leaves and never cross a pickle, so a
    checkpoint is the same size whether they are warm or cold.
    """

    #: leaves each per-leaf memo holds before its oldest entry is dropped
    PATH_CACHE_LIMIT = 1 << 16

    def __init__(
        self, oram: ORAMConfig, dram: DRAMConfig, base_row: int = 0
    ) -> None:
        self.oram = oram
        self.dram = dram
        self.base_row = base_row
        self.first_level = oram.top_cached_levels
        self.subtree_levels = self._pick_subtree_levels()
        self._build_tables()
        #: leaf -> physical addresses of the path (:meth:`path_addresses`)
        self._addresses: dict = {}
        #: leaf -> (flat DRAM triples, block count) (:meth:`path_triples`)
        self._triples: dict = {}
        #: leaf -> ``_triples[leaf]`` in the batch kernel's packed byte
        #: form; filled by ``run_batch`` and ``warm_path_caches``
        self._packed: dict = {}

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_addresses": {}, "_triples": {},
                "_packed": {}}

    # -- construction -------------------------------------------------------
    def _pick_subtree_levels(self) -> int:
        """Largest k whose worst-case subtree fits in one DRAM row."""
        row_blocks = self.dram.row_blocks
        z_max = max(self.oram.z_per_level) if self.oram.z_per_level else 4
        z_max = max(z_max, 1)
        k = 1
        while ((1 << (k + 1)) - 1) * z_max <= row_blocks:
            k += 1
        return k

    def _build_tables(self) -> None:
        """Precompute per-superlevel slot offsets and row bases.

        Super level ``s`` groups tree levels
        ``[first_level + s*k, first_level + (s+1)*k)`` (clipped to the tree).
        Buckets at the same local depth share a bucket size, so one offset
        table per super level suffices.
        """
        oram, k = self.oram, self.subtree_levels
        depth = oram.levels - self.first_level
        if depth <= 0:
            raise ConfigError("layout requires at least one memory level")

        #: first row id of each super level's supernode array
        self.superlevel_row_base: List[int] = []
        # per super level: the slot offset of each local bucket (heap
        # order) inside a supernode, and the rows reserved per supernode
        supers: List[Tuple[List[int], int]] = []
        row_blocks = self.dram.row_blocks
        row_cursor = self.base_row
        for s in range(-(-depth // k)):
            top = self.first_level + s * k
            local_depth = min(k, oram.levels - top)
            offsets: List[int] = []
            cursor = 0
            for r in range(local_depth):
                z = oram.z_per_level[top + r]
                for _ in range(1 << r):
                    offsets.append(cursor)
                    cursor += z
            rows = max(1, -(-cursor // row_blocks))
            supers.append((offsets, rows))
            self.superlevel_row_base.append(row_cursor)
            # one supernode per bucket position at this super level's root
            row_cursor += rows * (1 << top)
        self.total_rows = row_cursor

        # Per memory level: (Z, subtree depth r, local mask — doubling as
        # the heap-index base (1 << r) - 1 — offsets table, supernode row
        # base, rows per supernode).  _level_meta is the z>0 subset with
        # each level's leaf shift in front: the path walk of
        # path_addresses() and of the native path_triples kernel.
        self._bucket_meta: List[tuple] = []
        self._level_meta: List[tuple] = []
        for level in range(self.first_level, oram.levels):
            s, r = divmod(level - self.first_level, k)
            offsets, rows = supers[s]
            meta = (
                oram.z_per_level[level],
                r,
                (1 << r) - 1,
                offsets,
                self.superlevel_row_base[s],
                rows,
            )
            self._bucket_meta.append(meta)
            if meta[0]:
                self._level_meta.append((oram.levels - 1 - level,) + meta)

    # -- queries -------------------------------------------------------------
    def slot_address(self, level: int, position: int, slot: int) -> int:
        """Physical block address of one tree slot.

        Returns ``row_id * row_blocks + offset`` so that callers (and the
        DRAM model) can recover the row with one integer division.  A
        bucket's slots are consecutive addresses.
        """
        if level < self.first_level or level >= self.oram.levels:
            raise ConfigError(f"level {level} is not backed by memory")
        z, r, mask, offsets, row_base, rows = self._bucket_meta[
            level - self.first_level
        ]
        if not 0 <= slot < z:
            raise ConfigError(f"slot {slot} out of range for Z={z}")
        row = row_base + (position >> r) * rows
        return (
            row * self.dram.row_blocks + offsets[mask + (position & mask)]
            + slot
        )

    def bucket_addresses(self, level: int, position: int) -> List[int]:
        """Physical block addresses of every slot in a bucket."""
        z = self.oram.z_per_level[level]
        if z == 0:
            return []
        base = self.slot_address(level, position, 0)
        return list(range(base, base + z))

    def path_addresses(self, leaf: int) -> List[int]:
        """Memoized physical addresses of all memory-backed slots on a path.

        Returned in root-to-leaf order; within the subtree layout this order
        is already monotone per supernode, giving the row-hit behaviour the
        subtree layout exists for.
        """
        cached = self._addresses.get(leaf)
        if cached is None:
            row_blocks = self.dram.row_blocks
            cached = []
            extend = cached.extend
            for shift, z, r, mask, offsets, row_base, rows in self._level_meta:
                position = leaf >> shift
                base = (
                    (row_base + (position >> r) * rows) * row_blocks
                    + offsets[mask + (position & mask)]
                )
                extend(range(base, base + z))
            self._remember(self._addresses, leaf, cached)
        return cached

    def path_triples(self, leaf: int) -> Tuple[List[int], int]:
        """Memoized ``(flat DRAM triples, block count)`` of one path.

        The triples are ``decompose_batch(path_addresses(leaf))`` — flat
        bank index, channel, row per slot — valid for every DRAM model
        built from this layout's config.  The native kernel fuses the two
        steps without building the address list.
        """
        cached = self._triples.get(leaf)
        if cached is None:
            dram = self.dram
            if _fastpath is not None:
                triples = _fastpath.path_triples(
                    leaf,
                    self._level_meta,
                    dram.row_blocks,
                    dram.channels,
                    dram.banks_per_channel,
                )
            else:
                triples = decompose_addresses(dram, self.path_addresses(leaf))
            cached = (triples, len(triples) // 3)
            self._remember(self._triples, leaf, cached)
        return cached

    def _remember(self, memo: dict, leaf: int, value) -> None:
        """Insert into a per-leaf memo, dropping its oldest entry (dicts
        keep insertion order) when full, so hot leaves survive pressure
        instead of being wiped with everything else."""
        if len(memo) >= self.PATH_CACHE_LIMIT:
            del memo[next(iter(memo))]
        memo[leaf] = value

    def end_row(self) -> int:
        """First row beyond this layout's region."""
        return self.total_rows
