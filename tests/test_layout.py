"""Unit tests for the subtree-aware physical layout."""

import random

import pytest

import repro.mem.layout as layout_mod
from repro.config import DRAMConfig, SystemConfig
from repro.core.schemes import build_scheme
from repro.errors import ConfigError
from repro.mem.dram import DRAMModel
from repro.mem.layout import TreeLayout
from repro.perf import native

from tests.conftest import make_oram


class TestSubtreeSelection:
    def test_k_fits_row(self):
        layout = TreeLayout(make_oram(), DRAMConfig())
        k = layout.subtree_levels
        # a k-level subtree of worst-case buckets must fit one row
        assert ((1 << k) - 1) * 4 <= DRAMConfig().row_blocks
        assert ((1 << (k + 1)) - 1) * 4 > DRAMConfig().row_blocks

    def test_wider_rows_pack_deeper_subtrees(self):
        narrow = TreeLayout(make_oram(), DRAMConfig(row_bytes=2048))
        wide = TreeLayout(make_oram(), DRAMConfig(row_bytes=8192))
        assert wide.subtree_levels > narrow.subtree_levels


class TestAddressing:
    def test_addresses_unique_across_tree(self):
        oram = make_oram(levels=8, top=2)
        layout = TreeLayout(oram, DRAMConfig())
        seen = set()
        for level in range(2, 8):
            for position in range(1 << level):
                for addr in layout.bucket_addresses(level, position):
                    assert addr not in seen
                    seen.add(addr)
        assert len(seen) == sum(4 << level for level in range(2, 8))

    def test_cached_level_rejected(self):
        layout = TreeLayout(make_oram(top=3), DRAMConfig())
        with pytest.raises(ConfigError):
            layout.slot_address(1, 0, 0)

    def test_slot_out_of_range_rejected(self):
        layout = TreeLayout(make_oram(top=3), DRAMConfig())
        with pytest.raises(ConfigError):
            layout.slot_address(4, 0, 4)

    def test_zero_z_levels_skipped_in_path(self):
        oram = make_oram(levels=8, top=2)
        oram = oram.with_z_vector((4, 4, 0, 4, 4, 4, 4, 4))
        layout = TreeLayout(oram, DRAMConfig())
        assert len(layout.path_addresses(0)) == 5 * 4

    def test_path_addresses_length(self):
        oram = make_oram(levels=9, top=3)
        layout = TreeLayout(oram, DRAMConfig())
        assert len(layout.path_addresses(0)) == oram.blocks_per_path()

    def test_path_addresses_cached(self):
        layout = TreeLayout(make_oram(), DRAMConfig())
        first = layout.path_addresses(7)
        second = layout.path_addresses(7)
        assert first is second

    def test_subtree_locality(self):
        """A path touches at most ceil(depth/k) + small padding rows."""
        oram = make_oram(levels=9, top=3)
        dram = DRAMConfig()
        layout = TreeLayout(oram, dram)
        depth = 9 - 3
        max_rows = -(-depth // layout.subtree_levels) + 1
        for leaf in (0, 5, (1 << 8) - 1):
            rows = {addr // dram.row_blocks for addr in layout.path_addresses(leaf)}
            assert len(rows) <= max_rows

    def test_base_row_offsets_addresses(self):
        oram = make_oram(levels=8, top=2)
        dram = DRAMConfig()
        base = TreeLayout(oram, dram)
        shifted = TreeLayout(oram, dram, base_row=base.end_row())
        overlap = set(base.path_addresses(3)) & set(shifted.path_addresses(3))
        assert not overlap

    def test_capacity_covers_memory_slots(self):
        oram = make_oram(levels=9, top=3)
        layout = TreeLayout(oram, DRAMConfig())
        region = (layout.end_row() - layout.base_row) * layout.dram.row_blocks
        assert region >= oram.memory_slots()


class TestPathMemos:
    def test_address_memo_is_fifo_too(self, monkeypatch):
        monkeypatch.setattr(TreeLayout, "PATH_CACHE_LIMIT", 2)
        layout = TreeLayout(make_oram(), DRAMConfig())
        for leaf in (5, 6, 7):
            layout.path_addresses(leaf)
        assert list(layout._addresses) == [6, 7]

    def test_memos_never_cross_a_pickle(self):
        import pickle

        layout = TreeLayout(make_oram(), DRAMConfig())
        cold = len(pickle.dumps(layout))
        for leaf in range(64):
            layout.path_addresses(leaf)
            layout.path_triples(leaf)
        layout._packed[0] = b"x"
        copy = pickle.loads(pickle.dumps(layout))
        assert len(pickle.dumps(layout)) == cold
        assert (copy._addresses, copy._triples, copy._packed) == ({}, {}, {})
        assert layout._triples  # the original keeps its memos
        assert copy.path_triples(9) == layout.path_triples(9)


def _scaled_layouts():
    config = SystemConfig.scaled()
    rho = build_scheme("Rho", config).controller
    ring = build_scheme("Ring", config).controller
    return [rho.layout, rho.side_layout, ring.side_layout]


def _geometry_cases():
    """(name, layout factory): main, Rho-side and Ring-side trees of the
    tiny and scaled presets, an IR-Alloc-style Z vector with zero levels,
    and narrow rows where buckets straddle row boundaries."""
    cases = []
    tiny = SystemConfig.tiny()
    for scheme in ("Baseline", "Rho", "Ring"):
        def tiny_layouts(scheme=scheme):
            controller = build_scheme(scheme, tiny).controller
            side = getattr(controller, "side_layout", None)
            return [controller.layout] + ([side] if side else [])
        cases.append((f"tiny-{scheme}", tiny_layouts))
    cases.append(("scaled", _scaled_layouts))
    zero_levels = (4, 4, 4, 4, 4, 4, 1, 0, 1, 1, 2, 0, 4, 4, 4)
    cases.append((
        "ir-alloc-zero-levels",
        lambda: [TreeLayout(
            SystemConfig.scaled().oram.with_z_vector(zero_levels),
            DRAMConfig(),
        )],
    ))
    narrow = DRAMConfig(row_bytes=3 * 64, channels=2, banks_per_channel=3)
    cases.append((
        "narrow-rows",
        lambda: [
            TreeLayout(make_oram(levels=8, top=2), narrow),
            TreeLayout(
                make_oram(levels=8, top=2).with_z_vector(
                    (4, 4, 5, 0, 3, 7, 2, 10)
                ),
                narrow,
                base_row=11,
            ),
        ],
    ))
    return cases


def _leaves(layout, count=48):
    leaves = 1 << (layout.oram.levels - 1)
    rng = random.Random(layout.oram.levels)
    picks = {0, leaves - 1} | {rng.randrange(leaves) for _ in range(count)}
    return sorted(picks)


class TestGeometryDifferential:
    """Every memoized view of a layout agrees with its plain definition."""

    @pytest.fixture(params=_geometry_cases(), ids=lambda case: case[0])
    def layouts(self, request):
        return request.param[1]()

    def _check_triples(self, layout):
        dram = DRAMModel(layout.dram)
        for leaf in _leaves(layout):
            addresses = layout.path_addresses(leaf)
            expected = (dram.decompose_batch(addresses), len(addresses))
            triples, blocks = layout.path_triples(leaf)
            assert (list(triples), blocks) == expected

    @pytest.mark.skipif(native.fastpath is None,
                        reason="native kernels unavailable")
    def test_native_triples_match_decomposed_addresses(self, layouts):
        for layout in layouts:
            layout._triples.clear()
            self._check_triples(layout)

    def test_python_triples_match_decomposed_addresses(
        self, layouts, monkeypatch
    ):
        monkeypatch.setattr(layout_mod, "_fastpath", None)
        for layout in layouts:
            layout._triples.clear()
            self._check_triples(layout)

    def test_slots_are_consecutive_from_the_bucket_base(self, layouts):
        for layout in layouts:
            oram = layout.oram
            for leaf in _leaves(layout, count=8):
                for level in range(layout.first_level, oram.levels):
                    position = leaf >> (oram.levels - 1 - level)
                    bucket = layout.bucket_addresses(level, position)
                    assert len(bucket) == oram.z_per_level[level]
                    for slot in range(len(bucket)):
                        assert (
                            layout.slot_address(level, position, slot)
                            == bucket[0] + slot
                        )

    def test_path_is_its_buckets_in_order(self, layouts):
        for layout in layouts:
            oram = layout.oram
            for leaf in _leaves(layout, count=8):
                walk = []
                for level in range(layout.first_level, oram.levels):
                    position = leaf >> (oram.levels - 1 - level)
                    walk.extend(layout.bucket_addresses(level, position))
                assert layout.path_addresses(leaf) == walk
