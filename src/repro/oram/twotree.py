"""The shared scheduler of the two-tree families: Rho, Ring and Pyramid.

Each family pairs the Freecursive Path ORAM main tree with a small second
structure that captures the hot working set: Rho a small Path ORAM tree,
Ring a Ring ORAM tree, Pyramid a reshuffled hierarchy of bucket levels.
Their scheduling is one protocol, written once here:

* issue slots follow a fixed pattern, one main-tree slot per
  ``SIDE_PER_MAIN`` side slots, with a dummy of the matching kind filling
  every slot that has no real work of its kind, so the public sequence of
  path shapes never depends on where a block lives.  This defense is what
  hurts read-intensive programs like mcf in Fig. 10: with a cold side
  structure almost every request needs main-tree slots, which only come
  around once per pattern period;
* a main-tree read moves its block *exclusively* into side custody (its
  main mapping is discarded), tracked by the on-chip ``side_map``, whose
  insertion order is LRU order;
* when custody exceeds ``side_budget`` the LRU block leaves: at once when
  it sits in the on-chip side stash, else through an extraction (a side
  path that pulls it out).  Either way it joins the main-insert queue and
  re-enters the main tree through the stash once its PosMap entry can be
  restored (main-tree PosMap paths as needed).

A family supplies only its own protocol: ``_side_maintenance`` (eviction
work due before any other side work), ``_side_path`` (one side access,
optionally targeting a block), and a :class:`SideKeys` table naming its
counters and hit-level labels.  Pyramid, whose side holds no off-chip
blocks, replaces ``_side_slot``, ``_side_dummy``, ``_admit`` and
``_enforce_budget`` instead.
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
from typing import Callable, Deque, NamedTuple, Optional, Sequence, Tuple

from .. import stats_keys as sk
from ..config import ORAMConfig, SystemConfig
from ..errors import ProtocolError
from ..mem.layout import TreeLayout
from ..obs import events as ev
from ..stats import Stats
from .controller import ONCHIP_LATENCY, PathORAMController, SlotResult
from .stash import Stash
from .types import PathAccessRecord, PathType, Request, RequestKind

#: side issue slots per main-tree slot (the fixed 1:2 main:side pattern)
SIDE_PER_MAIN = 2


class SideKeys(NamedTuple):
    """One family's counter keys and ``hit.level`` labels."""

    #: ``tree=`` tag of side path events; also names side holders in audits
    tag: str
    #: ``paths.*`` subset counting side paths
    paths: str
    main_accesses: str
    main_reinserts: str
    promotions: str
    #: custody blocks sent back over the budget (Pyramid: spills)
    evictions: str
    hits: str
    dummies: str
    hit_label: str
    extractions: Optional[str] = None
    stash_hits: Optional[str] = None
    stash_hit_label: Optional[str] = None


def side_tree_config(
    main: ORAMConfig, levels: int, z: int, budget: int
) -> ORAMConfig:
    """A side tree of ``z``-slot buckets: no tree-top cache, and the main
    tree's stash and timing parameters."""
    return ORAMConfig(
        levels=levels,
        user_blocks=max(1, budget),
        z_per_level=(z,) * levels,
        top_cached_levels=0,
        stash_capacity=main.stash_capacity,
        eviction_threshold=main.eviction_threshold,
        timing_protection=main.timing_protection,
        issue_interval=main.issue_interval,
    )


class TwoTreeController(PathORAMController):
    """Main Freecursive tree plus a side structure on a fixed issue pattern."""

    #: Slots alternate between two structures; the native batch kernel
    #: only models the single main tree, so batches step per slot.
    SUPPORTS_NATIVE_BATCH = False

    KEYS: SideKeys

    def __init__(
        self,
        config: SystemConfig,
        stats: Optional[Stats],
        rng: Optional[random.Random],
        side_oram: Optional[ORAMConfig],
        side_budget: int,
    ) -> None:
        super().__init__(config, stats, rng)
        #: side-tree geometry; None for Pyramid's level hierarchy
        self.side_oram = side_oram
        #: blocks side custody may hold before the LRU one must leave
        self.side_budget = side_budget
        #: on-chip custody map: block -> side leaf (Pyramid: its
        #: (level, bucket)); insertion order is LRU order
        self.side_map: OrderedDict = OrderedDict()
        #: on-chip stash of the side tree; None for Pyramid
        self.side_stash: Optional[Stash] = None
        if side_oram is not None:
            self.side_stash = Stash(side_oram.stash_capacity, self.stats)
            self.side_leaves = 1 << (side_oram.levels - 1)
            #: laid out right after the main tree; an artifact cache
            #: swaps in its shared instance (ArtifactCache.attach)
            self.side_layout = TreeLayout(
                side_oram, config.dram, base_row=self.layout.end_row()
            )
        self._pattern_pos = 0
        #: custody victims awaiting extraction (still mapped until done)
        self.extraction_queue: Deque[int] = deque()
        self._evicting: set = set()
        #: blocks that left side custody, awaiting main re-insertion
        self.main_insert_queue: Deque[int] = deque()
        self._pending_main_insert: set = set()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def has_any_real_work(self) -> bool:
        return (
            super().has_any_real_work()
            or bool(self.extraction_queue)
            or bool(self.main_insert_queue)
        )

    def step(self, now: int, allow_dummy: bool = True) -> Optional[SlotResult]:
        self._drain_posmap_reinserts()
        completions = self._drain_instant(now)
        self._drain_main_inserts()

        result: Optional[SlotResult]
        if allow_dummy and self.oram.timing_protection:
            if self._pattern_pos % (SIDE_PER_MAIN + 1) == 0:
                # _dummy_slot (not dummy_path) so an attached DWB engine
                # can convert idle main slots (Ring+IR-DWB).
                result = self._main_slot(now) or self._dummy_slot(now)
            else:
                result = self._side_slot(now) or self._side_dummy(now)
        else:
            result = self._main_slot(now) or self._side_slot(now)

        if result is not None:
            if result.issued_path:
                self._pattern_pos += 1
            result.completions = completions + result.completions
        elif completions:
            result = SlotResult(False, None, now, now, now, completions)
        else:
            return None
        observer = self.slot_observer
        if observer is not None:
            observer(result)
        return result

    def _try_instant(self, request: Request, now: int) -> bool:
        block = request.block
        side_stash = self.side_stash
        if side_stash is not None and block in side_stash:
            request.completion = now + ONCHIP_LATENCY
            self.stats.inc(self.KEYS.stash_hits)
            if request.kind is RequestKind.READ:
                self.stats.bump(sk.HIT_LEVEL, self.KEYS.stash_hit_label)
            return True
        if block in self.side_map or block in self._pending_main_insert:
            # Side resident: wait for a side slot.  Mid-migration back to
            # the main tree: wait for the re-insert.
            return False
        return super()._try_instant(request, now)

    # ------------------------------------------------------------------
    # migration back to the main tree
    # ------------------------------------------------------------------
    def _queue_main_insert(self, block: int) -> None:
        self.main_insert_queue.append(block)
        self._pending_main_insert.add(block)

    def _drain_main_inserts(self) -> None:
        """Re-insert migrated blocks whose translation is already free."""
        while self.main_insert_queue:
            block = self.main_insert_queue[0]
            if self._translation_chain(block):
                break
            self.main_insert_queue.popleft()
            self._pending_main_insert.discard(block)
            leaf = self.posmap.restore(block)
            parent = self.namespace.parent_block(block)
            if parent is not None:
                self.plb.mark_dirty(parent)
            self.stash.add(block, leaf)
            self.stats.inc(self.KEYS.main_reinserts)

    # ------------------------------------------------------------------
    # main-tree slot
    # ------------------------------------------------------------------
    def _main_slot(self, now: int) -> Optional[SlotResult]:
        if self.internal_queue:
            return self._step_posmap_writeback(now)
        if self.stash.over_threshold(self.oram.eviction_threshold):
            return self._eviction_path(now)
        if self.main_insert_queue:
            chain = self._translation_chain(self.main_insert_queue[0])
            if chain:
                return self.fetch_posmap_block(chain[0], now)
            self._drain_main_inserts()
            # fall through: restoring was free; look for other main work
        request = self._first_request_needing_main(now)
        if request is None:
            return None
        chain = self._translation_chain(request.block)
        if chain:
            return self.fetch_posmap_block(chain[0], now)
        self._count_translation(request)
        leaf = self.posmap.leaf_of(request.block)
        location = self._find_in_treetop(request.block, leaf)
        self.queue.remove(request)
        if location is not None:
            self._serve_treetop_hit(request, leaf, location, now)
            return SlotResult(False, None, now, now, now, [request])
        promote = request.kind is RequestKind.READ
        result = self.full_access(
            request.block,
            PathType.DATA,
            now,
            serve_request=request,
            extract_block=promote,
        )
        self.stats.inc(self.KEYS.main_accesses)
        if promote:
            self._promote(request.block)
        return result

    def _first_request_needing_main(self, now: int) -> Optional[Request]:
        for request in self.queue:
            if request.arrival > now:
                break
            if request.block in self.side_map:
                continue
            if request.block in self._pending_main_insert:
                continue
            return request
        return None

    # ------------------------------------------------------------------
    # side custody
    # ------------------------------------------------------------------
    def _promote(self, block: int) -> None:
        """Move a freshly extracted block into side custody."""
        if self.posmap.is_mapped(block):
            raise ProtocolError(f"block {block} was not extracted")
        self._admit(block)
        self.stats.inc(self.KEYS.promotions)
        self._enforce_budget()

    def _admit(self, block: int) -> None:
        """Take custody of ``block`` in the side stash under a fresh leaf."""
        leaf = self.rng.randrange(self.side_leaves)
        self.side_map[block] = leaf
        self.side_stash.add(block, leaf)

    def _enforce_budget(self) -> None:
        """Send LRU blocks over the budget back toward the main tree.

        A victim in the side stash leaves at once; any other is queued for
        an extraction path and stays in custody until that path runs.
        """
        overflow = len(self.side_map) - len(self._evicting) - self.side_budget
        for candidate in list(self.side_map):
            if overflow <= 0:
                break
            if candidate in self._evicting:
                continue
            overflow -= 1
            self.stats.inc(self.KEYS.evictions)
            if candidate in self.side_stash:
                self.side_stash.remove(candidate)
                del self.side_map[candidate]
                self._queue_main_insert(candidate)
            else:
                self._evicting.add(candidate)
                self.extraction_queue.append(candidate)

    def _next_extraction(self) -> Optional[Tuple[int, int]]:
        """Next still-valid victim and its current side leaf."""
        while self.extraction_queue:
            victim = self.extraction_queue.popleft()
            if victim not in self._evicting or victim not in self.side_map:
                continue  # cancelled by a demand access
            if victim in self.side_stash:
                # It drifted into the stash meanwhile: extract for free.
                self.side_stash.remove(victim)
                del self.side_map[victim]
                self._evicting.discard(victim)
                self._queue_main_insert(victim)
                continue
            return victim, self.side_map[victim]
        return None

    # ------------------------------------------------------------------
    # side slot
    # ------------------------------------------------------------------
    def _side_slot(self, now: int) -> Optional[SlotResult]:
        """Side-tree work: maintenance, an extraction, then a demand."""
        result = self._side_maintenance(now)
        if result is not None:
            return result
        extraction = self._next_extraction()
        if extraction is not None:
            victim, leaf = extraction
            result = self._side_path(
                leaf, now, PathType.EVICTION, target=victim, extract=True
            )
            del self.side_map[victim]
            self._evicting.discard(victim)
            self._queue_main_insert(victim)
            self.stats.inc(self.KEYS.extractions)
            return result
        request = self._first_request_needing_side(now)
        if request is None:
            return None
        self.queue.remove(request)
        block = request.block
        if block in self.side_stash:
            # Resident in the on-chip side stash: served with no path.
            request.completion = now + ONCHIP_LATENCY
            self.stats.inc(self.KEYS.stash_hits)
            return SlotResult(False, None, now, now, now, [request])
        leaf = self.side_map[block]
        # A demand access cancels any pending eviction of this block.
        self._evicting.discard(block)
        self.side_map.move_to_end(block)
        new_leaf = self.rng.randrange(self.side_leaves)
        self.side_map[block] = new_leaf
        result = self._side_path(
            leaf, now, PathType.DATA, target=block, new_leaf=new_leaf
        )
        self._complete_side_hit(request, result)
        return result

    def _first_request_needing_side(self, now: int) -> Optional[Request]:
        for request in self.queue:
            if request.arrival > now:
                break
            if request.block in self.side_map:
                return request
        return None

    def _complete_side_hit(self, request: Request, result: SlotResult) -> None:
        request.completion = result.finish_read
        result.completions.append(request)
        self.stats.inc(self.KEYS.hits)
        if request.kind is RequestKind.READ:
            self.stats.bump(sk.HIT_LEVEL, self.KEYS.hit_label)

    def _side_dummy(self, now: int) -> SlotResult:
        leaf = self.rng.randrange(self.side_leaves)
        self.stats.inc(self.KEYS.dummies)
        return self._side_path(leaf, now, PathType.DUMMY)

    def _side_maintenance(self, now: int) -> Optional[SlotResult]:
        """A side eviction path, when one is due (family protocol)."""
        raise NotImplementedError

    def _side_path(
        self,
        leaf: int,
        now: int,
        path_type: PathType,
        target: Optional[int] = None,
        extract: bool = False,
        new_leaf: Optional[int] = None,
    ) -> SlotResult:
        """One side path to ``leaf`` (family protocol).

        ``target`` leaves the side tree on this path: into the side stash
        under ``new_leaf``, or out of custody when ``extract``.
        """
        raise NotImplementedError

    def _tree_burst(
        self,
        leaf: int,
        path_type: PathType,
        now: int,
        read_addresses: Optional[Sequence[int]],
        write_addresses: Optional[Sequence[int]],
        after_read: Optional[Callable[[], None]] = None,
        before_write: Optional[Callable[[], None]] = None,
        path_layout: Optional[TreeLayout] = None,
    ) -> SlotResult:
        """One read+write DRAM burst on the side structure.

        Services the read burst, runs ``after_read`` (the caller's
        functional read phase), counts the path (``paths.*``,
        ``paths.total``, the family's side subset, ``mem.blocks_read``),
        emits ``PATH_READ`` tagged ``tree=``, reports to the observer, runs
        ``before_write`` (placement), then services the write burst with
        its ``PATH_WRITE`` event; an empty ``write_addresses`` skips it.

        With ``path_layout`` (and no address lists) the burst is the whole
        path to ``leaf`` in that layout, read and then written back: it is
        serviced from the layout's memoized DRAM triples, and the
        cleartext addresses are built only for an attached observer.
        """
        dram = self.dram
        if path_layout is not None:
            read_triples, read_blocks = path_layout.path_triples(leaf)
            write_triples, write_blocks = read_triples, read_blocks
        else:
            read_triples = dram.decompose_batch(read_addresses)
            read_blocks = len(read_addresses)
            write_triples = dram.decompose_batch(write_addresses)
            write_blocks = len(write_addresses)
        finish_read = dram.service_decomposed(read_triples, False, now)
        if after_read is not None:
            after_read()
        self.path_count += 1
        stats = self.stats
        tree = self.KEYS.tag
        stats.inc(sk.paths_key(path_type))
        stats.inc(sk.PATHS_TOTAL)
        stats.inc(self.KEYS.paths)
        stats.inc(sk.MEM_BLOCKS_READ, read_blocks)
        tracer = stats.tracer
        if tracer is not None:
            tracer.emit(
                ev.PATH_READ,
                now,
                path_type=path_type.value,
                leaf=leaf,
                finish=finish_read,
                blocks=read_blocks,
                tree=tree,
            )
        if self.observer is not None:
            if path_layout is not None:
                read_addresses = write_addresses = path_layout.path_addresses(
                    leaf
                )
            self.observer(
                PathAccessRecord(
                    issue_cycle=now,
                    leaf=leaf,
                    path_type=path_type,
                    read_addresses=list(read_addresses),
                    write_addresses=list(write_addresses),
                )
            )
        if before_write is not None:
            before_write()
        finish_write = finish_read
        if write_blocks:
            finish_write = dram.service_decomposed(
                write_triples, True, finish_read
            )
            stats.inc(sk.MEM_BLOCKS_WRITTEN, write_blocks)
            if tracer is not None:
                tracer.emit(
                    ev.PATH_WRITE,
                    finish_read,
                    path_type=path_type.value,
                    leaf=leaf,
                    finish=finish_write,
                    blocks=write_blocks,
                    tree=tree,
                )
        return SlotResult(True, path_type, now, finish_read, finish_write)
