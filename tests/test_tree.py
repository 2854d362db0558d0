"""Unit tests for the ORAM tree."""

import pickle
import random
from array import array

import pytest

from repro.errors import ProtocolError
from repro.oram.posmap import PositionMap
from repro.oram.tree import EMPTY, ORAMTree
from repro.oram.types import Namespace

from tests.conftest import make_oram


@pytest.fixture
def tree():
    return ORAMTree(make_oram(levels=6, top=2))


class TestGeometry:
    def test_bucket_index_heap_order(self):
        assert ORAMTree.bucket_index(0, 0) == 0
        assert ORAMTree.bucket_index(1, 1) == 2
        assert ORAMTree.bucket_index(3, 5) == 12

    def test_bucket_bounds_checked(self, tree):
        with pytest.raises(ProtocolError):
            tree.bucket(6, 0)
        with pytest.raises(ProtocolError):
            tree.bucket(2, 4)

    def test_path_position(self, tree):
        # leaf 5 = 0b00101 over 6 levels (leaf bits = 5 of 32 leaves)
        assert tree.path_position(5, 0) == 0
        assert tree.path_position(5, 5) == 5
        assert tree.path_position(31, 1) == 1

    def test_path_buckets_skips_zero_z(self):
        oram = make_oram(levels=6, top=2).with_z_vector((4, 4, 0, 4, 4, 4))
        tree = ORAMTree(oram)
        levels = [level for level, _, _ in tree.path_buckets(0)]
        assert 2 not in levels
        assert levels == [0, 1, 3, 4, 5]

    def test_deepest_common_level(self, tree):
        assert tree.deepest_common_level(0, 0) == 5
        assert tree.deepest_common_level(0, 31) == 0
        assert tree.deepest_common_level(0b10000, 0b10001) == 4

    def test_tree_above_21_levels_is_addressable(self):
        oram = make_oram(levels=22, top=8, user_blocks=1 << 18)
        tree = ORAMTree(oram)
        assert len(tree.slots) == oram.tree_slots()
        assert tree.bucket(21, 12345) == [EMPTY] * 4
        assert tree.place(21, 12345, 7)
        assert tree.place(3, 12345 >> 18, 8)
        assert tree.slots[tree.bucket_offset(21, 12345)] == 7
        assert sorted(tree.read_and_clear(12345)) == [(7, 21), (8, 3)]
        assert tree.total_used() == 0
        assert tree.slots.count(EMPTY) == len(tree.slots)


class TestFlatStorage:
    def test_bucket_offsets_follow_level_bases(self):
        oram = make_oram(levels=6, top=2).with_z_vector((2, 0, 3, 4, 4, 1))
        tree = ORAMTree(oram)
        assert tree.level_base == [0, 2, 2, 14, 46, 110]
        assert len(tree.slots) == oram.tree_slots() == 142
        assert tree.bucket_offset(3, 5) == 14 + 5 * 4
        assert tree.bucket_offset(5, 31) == 141
        assert tree.bucket(1, 1) == []

    def test_remove_takes_block_out_of_its_bucket(self, tree):
        tree.place(4, 3, 11)
        tree.place(4, 3, 12)
        tree.remove(4, 3, 11)
        assert tree.bucket(4, 3) == [EMPTY, 12, EMPTY, EMPTY]
        assert tree.level_used[4] == 1
        with pytest.raises(ProtocolError):
            tree.remove(4, 3, 11)

    def test_find_searches_only_above_the_limit(self, tree):
        tree.place(1, 0, 5)
        tree.place(4, 1, 6)
        assert tree.find(5, 3, 2) == 1
        assert tree.find(6, 3, 2) is None
        assert tree.find(6, 3, 6) == 4
        assert tree.find(5, 31, 6) is None

    def test_pickle_round_trip(self):
        oram = make_oram(levels=8, top=2)
        rng = random.Random(4)
        posmap = PositionMap(Namespace(oram), oram.leaves, rng)
        tree = ORAMTree(oram)
        tree.initialize(posmap._leaf_of, rng)
        tree_copy, posmap_copy = pickle.loads(pickle.dumps((tree, posmap)))
        assert tree_copy.slots == tree.slots
        assert tree_copy.level_used == tree.level_used
        assert posmap_copy._leaf_of == posmap._leaf_of
        assert list(tree_copy.iter_buckets()) == list(tree.iter_buckets())
        leaf = posmap.leaf_of(0)
        assert tree_copy.read_and_clear(leaf) == tree.read_and_clear(leaf)


class TestPlacement:
    def test_place_fills_first_free_slot(self, tree):
        assert tree.place(3, 2, 77)
        assert tree.bucket(3, 2)[0] == 77
        assert tree.level_used[3] == 1

    def test_place_rejects_full_bucket(self, tree):
        for block in range(4):
            assert tree.place(3, 2, block)
        assert not tree.place(3, 2, 99)
        assert tree.level_used[3] == 4

    def test_free_slots(self, tree):
        assert tree.free_slots(2, 1) == 4
        tree.place(2, 1, 5)
        assert tree.free_slots(2, 1) == 3

    def test_read_and_clear_returns_blocks_with_levels(self, tree):
        tree.place(0, 0, 10)
        tree.place(5, 7, 20)
        removed = dict(tree.read_and_clear(7))
        assert removed == {10: 0, 20: 5}
        assert tree.total_used() == 0

    def test_read_and_clear_misses_other_paths(self, tree):
        tree.place(5, 7, 20)
        removed = tree.read_and_clear(8)
        assert removed == []
        assert tree.level_used[5] == 1

    def test_utilization_accounting(self, tree):
        tree.place(1, 0, 1)
        tree.place(1, 1, 2)
        util = tree.level_utilization()
        assert util[1] == pytest.approx(2 / 8)
        tree.read_and_clear(0)
        assert tree.level_utilization()[1] == pytest.approx(1 / 8)


class TestInitialize:
    def test_all_blocks_placed_or_overflowed(self):
        oram = make_oram(levels=8, top=2)
        tree = ORAMTree(oram)
        rng = random.Random(7)
        leaves = array(
            "i", [rng.randrange(oram.leaves) for _ in range(oram.user_blocks)]
        )
        overflow = tree.initialize(leaves, rng)
        assert tree.total_used() + len(overflow) == oram.user_blocks
        # at ~50% provisioning, overflow should be rare
        assert len(overflow) < oram.user_blocks * 0.02

    def test_initialized_blocks_lie_on_their_paths(self):
        oram = make_oram(levels=7, top=2)
        tree = ORAMTree(oram)
        rng = random.Random(3)
        leaves = array("i", [rng.randrange(oram.leaves) for _ in range(200)])
        tree.initialize(leaves, rng)
        for level in range(7):
            for position in range(1 << level):
                for block in tree.bucket(level, position):
                    if block == EMPTY:
                        continue
                    assert tree.path_position(leaves[block], level) == position

    def test_bottom_heavy_placement(self):
        oram = make_oram(levels=8, top=2)
        tree = ORAMTree(oram)
        rng = random.Random(5)
        leaves = array(
            "i", [rng.randrange(oram.leaves) for _ in range(oram.user_blocks)]
        )
        tree.initialize(leaves, rng)
        util = tree.level_utilization()
        assert util[7] > util[3]

    def test_rejects_occupied_tree(self, tree):
        tree.place(5, 0, 1)
        with pytest.raises(ProtocolError):
            tree.initialize(array("i", [0, 1, 2]), random.Random(1))
