"""Directed coverage of the pure-Python fallback paths.

CI runs the whole tier-1 suite twice — once with the C kernels, once with
``REPRO_FASTPATH=0`` — so every fallback is exercised end to end.  These
tests additionally pin each fallback against its native twin *within one
process* (skipped where the kernels are unavailable, i.e. on the
``REPRO_FASTPATH=0`` leg itself, where the fallbacks are the only
implementation and the whole suite covers them).
"""

import random

import pytest

from repro import api
from repro.config import DRAMConfig, ORAMConfig, SystemConfig
from repro.core.ir_alloc import PAPER_ALLOC_CONFIGS, apply_alloc_plan
from repro.errors import ConfigError
from repro.mem.dram import DRAMModel
from repro.oram import posmap as posmap_mod
from repro.oram import tree as tree_mod
from repro.oram.controller import PathORAMController
from repro.oram.posmap import PositionMap
from repro.oram.tree import ORAMTree
from repro.oram.types import Namespace
from repro.perf import native


def _random_triples(rng, count, config):
    triples = []
    n_banks = config.channels * config.banks_per_channel
    for _ in range(count):
        bank = rng.randrange(n_banks)
        triples += [bank, bank // config.banks_per_channel,
                    rng.randrange(64)]
    return triples


class TestServicePyOracle:
    @pytest.mark.skipif(native.fastpath is None,
                        reason="native kernels unavailable")
    def test_service_py_matches_native_kernel(self):
        config = DRAMConfig()
        rng = random.Random(42)
        with_native = DRAMModel(config)
        pure = DRAMModel(config)
        finish_native = finish_pure = 0
        for _ in range(20):
            triples = _random_triples(rng, rng.randrange(1, 12), config)
            finish_native = with_native.service_decomposed(
                triples, False, finish_native
            )
            now_dram = -(-finish_pure // config.cpu_cycles_per_dram_cycle)
            finish, hits, conflicts = pure._service_py(triples, now_dram)
            finish_pure = finish * config.cpu_cycles_per_dram_cycle
            assert finish_native == finish_pure
        assert with_native.stats.get("dram.row_hits") > 0
        assert with_native.bank_open_row == pure.bank_open_row
        assert with_native.bank_ready == pure.bank_ready

    def test_service_py_runs_without_native(self, monkeypatch):
        import repro.mem.dram as dram_mod

        monkeypatch.setattr(dram_mod, "_native", None)
        dram = DRAMModel(DRAMConfig())
        finish = dram.service_addresses([0, 1, 2, 3], False, 0)
        assert finish > 0
        assert dram.stats.get("dram.row_hits") == 3


class TestControllerFallbacks:
    def _dummy_loop(self, controller, paths=40):
        now = 0
        for _ in range(paths):
            now = controller.dummy_path(now).finish_write
        return now, dict(controller.stats.counters)

    @pytest.mark.skipif(native.fastpath is None,
                        reason="native kernels unavailable")
    def test_non_native_stash_add_identical(self):
        config = SystemConfig.tiny()
        fast = PathORAMController(config, rng=random.Random(9))
        slow = PathORAMController(config, rng=random.Random(9))
        slow._native_bulk = None
        slow._native = None
        fast_out = self._dummy_loop(fast)
        slow_out = self._dummy_loop(slow)
        assert fast_out == slow_out

    @pytest.mark.skipif(native.fastpath is None,
                        reason="native kernels unavailable")
    def test_python_triples_branch_identical(self, monkeypatch):
        import repro.mem.layout as layout_mod

        config = SystemConfig.tiny()
        fast = PathORAMController(config, rng=random.Random(5))
        native_triples = {
            leaf: fast.layout.path_triples(leaf) for leaf in range(8)
        }
        monkeypatch.setattr(layout_mod, "_fastpath", None)
        slow = PathORAMController(config, rng=random.Random(5))
        for leaf, expected in native_triples.items():
            triples, blocks = slow.layout.path_triples(leaf)
            assert list(triples) == list(expected[0])
            assert blocks == expected[1]

    def test_reference_write_phase_runs(self, monkeypatch):
        # _write_path_reference is the retained oracle; make sure it still
        # drives a full dummy-path loop on its own.
        monkeypatch.setattr(
            PathORAMController,
            "_write_path",
            PathORAMController._write_path_reference,
        )
        controller = PathORAMController(
            SystemConfig.tiny(), rng=random.Random(2)
        )
        now, counters = self._dummy_loop(controller, paths=20)
        assert now > 0
        assert counters["paths.total"] == 20


def _init_oram(levels, pattern):
    """A tree filled to ~90% of its slots, so some paths overflow."""
    if pattern == "uniform":
        z = (4,) * levels
    elif pattern == "zero-top":
        # IR-Alloc style: the top levels hold no memory-backed slots.
        top = min(2, levels - 1)
        z = (0,) * top + (4,) * (levels - top)
    else:
        # Z=1 levels with Z=0 gaps and a Z=2 bottom: heavy overflow.
        z = tuple(0 if level % 3 == 1 else 1 for level in range(levels - 1))
        z += (2,)
    slots = sum(zl << level for level, zl in enumerate(z))
    user_blocks = max(1, slots * 9 // 10)
    while True:
        try:
            return ORAMConfig(
                levels=levels, user_blocks=user_blocks, z_per_level=z
            )
        except ConfigError:
            user_blocks -= max(1, user_blocks // 20)


def _initial_state(oram, rng):
    posmap = PositionMap(Namespace(oram), oram.leaves, rng)
    tree = ORAMTree(oram)
    overflow = tree.initialize(posmap._leaf_of, rng)
    return posmap, tree, overflow


class _KernelSpy:
    """Records which kernels a module-level ``_native`` binding served."""

    def __init__(self, module):
        self._module = module
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self._module, name)


@pytest.mark.skipif(native.fastpath is None,
                    reason="native kernels unavailable")
class TestInitialStateKernels:
    """posmap_leaves + tree_init against the Python spec they replace."""

    @staticmethod
    def _python_state(oram, rng, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(tree_mod, "_native", None)
            patch.setattr(posmap_mod, "_native", None)
            return _initial_state(oram, rng)

    @pytest.mark.parametrize("seed", [7, 1009])
    @pytest.mark.parametrize("pattern", ["uniform", "zero-top", "thin"])
    @pytest.mark.parametrize("levels", list(range(2, 13)) + [15])
    def test_native_matches_python(self, levels, pattern, seed, monkeypatch):
        oram = _init_oram(levels, pattern)
        fast_rng = random.Random(seed)
        fast_map, fast_tree, fast_overflow = _initial_state(oram, fast_rng)
        slow_rng = random.Random(seed)
        slow_map, slow_tree, slow_overflow = self._python_state(
            oram, slow_rng, monkeypatch
        )
        assert fast_map._leaf_of == slow_map._leaf_of
        assert fast_tree.slots == slow_tree.slots
        assert fast_tree.level_used == slow_tree.level_used
        assert fast_overflow == slow_overflow
        assert fast_rng.getstate() == slow_rng.getstate()
        assert fast_tree.total_used() + len(fast_overflow) == len(
            fast_map._leaf_of
        )
        if pattern == "thin" and levels >= 4:
            assert fast_overflow  # the overflow order is exercised

    def test_random_subclass_takes_python_path(self, monkeypatch):
        class Subclassed(random.Random):
            pass

        oram = _init_oram(8, "thin")
        expected = _initial_state(oram, random.Random(3))
        spy = _KernelSpy(native.fastpath)
        monkeypatch.setattr(tree_mod, "_native", spy)
        monkeypatch.setattr(posmap_mod, "_native", spy)
        posmap, tree, overflow = _initial_state(oram, Subclassed(3))
        assert spy.calls == []
        assert posmap._leaf_of == expected[0]._leaf_of
        assert tree.slots == expected[1].slots
        assert tree.level_used == expected[1].level_used
        assert overflow == expected[2]

    @pytest.mark.parametrize("z_vector", ["uniform", "ir-alloc"])
    def test_scaled_tree_takes_native_path(self, z_vector, monkeypatch):
        # The scaled geometry, uniform and with an IR-Alloc vector whose
        # cached top levels hold no slots (Z=0): the kernels write the
        # same slot buffer and leaf table as the Python spec, leaving the
        # RNG in the same state.
        oram = SystemConfig.scaled().oram
        if z_vector == "ir-alloc":
            top = oram.top_cached_levels
            z = apply_alloc_plan(oram, PAPER_ALLOC_CONFIGS["IR-Alloc3"])
            oram = oram.with_z_vector(
                (0,) * top + z.z_per_level[top:]
            )
            assert 1 in oram.z_per_level
        spy = _KernelSpy(native.fastpath)
        monkeypatch.setattr(tree_mod, "_native", spy)
        monkeypatch.setattr(posmap_mod, "_native", spy)
        fast_rng = random.Random(11)
        posmap, tree, overflow = _initial_state(oram, fast_rng)
        assert spy.calls == ["posmap_leaves", "tree_init"]
        slow_rng = random.Random(11)
        expected = self._python_state(oram, slow_rng, monkeypatch)
        assert posmap._leaf_of == expected[0]._leaf_of
        assert tree.slots == expected[1].slots
        assert tree.level_used == expected[1].level_used
        assert overflow == expected[2]
        assert fast_rng.getstate() == slow_rng.getstate()


class TestNativeStatus:
    def test_status_matches_availability(self):
        from repro import options

        assert (native.status == "ok") == native.available()
        if not options.fastpath():
            assert native.status == "disabled"

    def test_failed_build_says_why(self, tmp_path):
        """A compiler that fails leaves the fallbacks on and says so."""
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env.pop("REPRO_FASTPATH", None)
        env.update(
            CC="false",
            REPRO_FASTPATH_CACHE=str(tmp_path / "cache"),
            PYTHONPATH=os.pathsep.join(sys.path),
        )
        probe = (
            "from repro.perf import native\n"
            "print(native.fastpath is None)\n"
            "print(native.status)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout.splitlines()
        assert out[0] == "True"
        assert out[1].startswith("build failed: ")
        assert "false" in out[1]

    def test_run_result_carries_status(self):
        out = api.run(api.RunSpec(
            scheme="Baseline", workload="random", records=60,
            config=SystemConfig.tiny(),
        ))
        assert out.native_status == native.status
        if native.available():
            assert out.native_status == "ok"

    def test_run_result_says_disabled(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ, REPRO_FASTPATH="0",
                   PYTHONPATH=os.pathsep.join(sys.path))
        probe = (
            "from repro import api\n"
            "from repro.config import SystemConfig\n"
            "out = api.run(api.RunSpec(scheme='Baseline', workload='random',"
            " records=60, config=SystemConfig.tiny()))\n"
            "print(out.native_status)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split()
        assert out == ["disabled"]
