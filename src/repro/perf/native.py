"""On-demand build and load of the optional C hot-path kernels.

The simulator's innermost loops (batch DRAM timing, path read-and-clear)
and the initial-state build (PosMap leaf draws, shuffled tree placement)
have bit-identical C implementations in ``_fastpath.c``.  This module
compiles them with the system C compiler on first use, caches the shared
object under ``~/.cache/repro-fastpath/`` keyed by source hash and Python
ABI, and exposes the loaded module as :data:`fastpath`.

Everything degrades gracefully: no compiler, a failed build, a failed
self-test, or ``REPRO_FASTPATH=0`` in the environment all yield
``fastpath = None`` and the simulator runs on its pure-Python fallbacks.
:data:`status` says which of those happened (``repro bench`` reports it
as ``native_status``).  No third-party packages are involved — only the
system toolchain.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import random
import struct
import subprocess
import sys
import sysconfig
from array import array
from typing import Optional, Tuple

from .. import options

_MODULE_NAME = "_repro_fastpath"
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_fastpath.c")


def _cache_dir() -> str:
    override = options.fastpath_cache()
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-fastpath")


def _self_test(module) -> bool:
    """Run the kernels on tiny inputs with known-good answers."""
    # One bank, one channel, two accesses to the same fresh row:
    # activate (t_rcd=3) + 2 bursts of 2, finish = 3 + 2 + 5 = 10 with
    # cas_burst=5; second access is a row hit issuing at t=5, done at 10.
    ready = [0]
    open_row = [-1]
    bus_free = [0]
    finish, hits, conflicts = module.dram_service(
        [0, 0, 7, 0, 0, 7], ready, open_row, bus_free, 0, 4, 3, 2, 5
    )
    if (finish, hits, conflicts) != (10, 1, 0):
        return False
    if ready != [7] or open_row != [7] or bus_free != [7]:
        return False

    # Two levels, Z = (1, 3): the path to leaf 1 is slot 0 and slots
    # 4..6; the bucket of leaf 0 (slots 1..3) is off the path.
    slots = array("i", [-1, 8, -1, -1, 3, -1, 9])
    level_used = [0, 3]
    removed = module.read_and_clear(slots, (1, 3), level_used, 1)
    if not (
        removed == [(3, 1), (9, 1)]
        and slots.tolist() == [-1, 8, -1, -1, -1, -1, -1]
        and level_used == [0, 1]
    ):
        return False

    # Stash bulk add: two fresh blocks, leaves 6 and 3, prefix shift 2;
    # block 5 was read from level 0 (< top=1).
    entries: dict = {}
    seq: dict = {}
    by_prefix: dict = {}
    leaf_table = array("i", [0] * 10)
    leaf_table[5] = 6
    leaf_table[9] = 3
    next_seq, top_blocks = module.stash_bulk_add(
        [(5, 0), (9, 1)], entries, seq, by_prefix, 2, 0, leaf_table, 1
    )
    if not (
        (next_seq, top_blocks) == (2, [5])
        and entries == {5: 6, 9: 3}
        and seq == {5: 0, 9: 1}
        and by_prefix == {1: {0: 5}, 0: {1: 9}}
    ):
        return False

    # Pool grouping alone: same two blocks against target leaf 1 in a
    # 3-level tree (prefix covers the whole 2-bit leaf).
    pools = [[7], [], []]
    module.path_pools_fill(1, {5: 1, 9: 3}, {1: {0: 5}, 3: {1: 9}},
                           0, 2, 3, pools)
    if pools != [[9], [], [5]]:
        return False

    # Write-phase placement: 3 levels, z=1 everywhere, target leaf 1.
    # Block 5 (leaf 1) belongs at the bottom, block 9 (leaf 3) diverges
    # at the root; both place and leave the stash empty.
    entries = {5: 1, 9: 3}
    seq = {5: 0, 9: 1}
    by_prefix = {1: {0: 5}, 3: {1: 9}}
    slots = array("i", [-1] * 7)
    level_used = [0, 0, 0]
    placed_top = module.write_path_place(
        1, entries, seq, by_prefix, 0, 2, slots, [1, 1, 1], level_used, 0
    )
    if not (
        placed_top == 0
        and entries == {}
        and seq == {}
        and by_prefix == {}
        and slots.tolist() == [9, -1, -1, -1, 5, -1, -1]
        and level_used == [1, 0, 1]
    ):
        return False

    # Fused path->triples: one level, Z=2, offset 5 in a 4-block row at
    # row base 3 -> both slots land in row 4 of channel 0, bank 0.
    meta = [(0, 2, 0, 0, [5], 3, 1)]
    triples = module.path_triples(0, meta, 4, 2, 2)
    if triples != [0, 0, 4, 0, 0, 4]:
        return False

    # Initial state: 7 blocks, 3 levels with Z = (1, 0, 2), seed 24.  The
    # leaf draws and the shuffle must leave the RNG exactly where
    # randrange and shuffle would; one bucket stays empty, two are half
    # full, and blocks 1 and 5 overflow, in that order.
    rng = random.Random(24)
    ref = random.Random(24)
    leaves = array("i", [-1] * 7)
    module.posmap_leaves(rng.getrandbits, 4, leaves)
    if leaves.tolist() != [3, 1, 1, 1, 1, 1, 0]:
        return False
    slots = array("i", [-1] * 9)
    level_used = [0, 0, 0]
    overflow = module.tree_init(
        rng.getrandbits, leaves, slots, (1, 0, 2), level_used
    )
    for _ in range(7):
        ref.randrange(4)
    ref.shuffle(list(range(7)))
    if not (
        overflow == [1, 5]
        and slots.tolist() == [2, 6, -1, 3, 4, -1, -1, 0, -1]
        and level_used == [1, 0, 4]
        and rng.getstate() == ref.getstate()
    ):
        return False

    # Whole-path batch: 2 leaves, 2 levels, block 3 sits at the root of
    # leaf 1's path mapped to leaf 0 -> read at t=0 finishes at 10
    # (activate 3 + two row-hit bursts), write finishes at 17, and the
    # block is placed back at the root (diverges from its leaf at level
    # 1), leaving the stash empty again.
    entries = {}
    seq = {}
    by_prefix = {}
    leaf_table = array("i", [-1, -1, -1, 0])
    level_used = [1, 0]
    ready = [0]
    open_row = [-1]
    bus_free = [0]
    slots = array("i", [3, -1, -1])
    batch_ctx = (
        (lambda n: 1),                     # randrange
        2,                                 # leaves
        {1: ([0, 0, 7, 0, 0, 7], 2)},      # triples cache
        (lambda leaf: None),               # triples fallback (unused)
        slots,                             # tree slots, Z = (1, 1)
        entries, seq, by_prefix,
        0,                                 # prefix shift
        1,                                 # prefix levels
        leaf_table,
        [1, 1],                            # z per level
        level_used,
        0,                                 # top (no tree-top cache)
        ready, open_row, bus_free,
        (1, 4, 3, 2, 5),                   # ratio, t_rp, t_rcd, t_burst, cas+burst
        0,                                 # treetop mode: counter cache
        None, None, None, 0,               # S-Stash slots unused
        {},                                # packed triple arrays
        None, 0,                           # getrandbits leg disabled
    )
    result = module.run_batch(batch_ctx, 0, 0, 0, 1, -1, -1, 10, 1, 0)
    if result != (1, 17, 1, 1, [0, 10, 17],
                  (2, 3, 0, 0, 0, 0, 0, 0, 0), None):
        return False
    packed = batch_ctx[23].get(1)
    if packed != struct.pack("=7q", 2, 0, 0, 7, 0, 0, 7):
        return False
    if module.pack_triples(([0, 0, 7, 0, 0, 7], 2), 1, 1) != packed:
        return False
    return (
        entries == {}
        and seq == {}
        and by_prefix == {}
        and slots.tolist() == [3, -1, -1]
        and level_used == [1, 0]
        and ready == [14]
        and open_row == [7]
        and bus_free == [14]
    )


def _build(so_path: str) -> Optional[str]:
    """Compile the kernels to ``so_path``; return why that failed, or None."""
    cc = (
        os.environ.get("CC")
        or sysconfig.get_config_var("CC")
        or "cc"
    ).split()
    include = sysconfig.get_paths()["include"]
    tmp_path = f"{so_path}.{os.getpid()}.tmp"
    cmd = cc + [
        "-O2",
        "-shared",
        "-fPIC",
        f"-I{include}",
        _SOURCE,
        "-o",
        tmp_path,
    ]
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            errors="replace",
            timeout=120,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return str(exc)
    if proc.returncode != 0 or not os.path.exists(tmp_path):
        lines = proc.stderr.strip().splitlines()
        return lines[-1] if lines else (
            f"{cc[0]} exited with status {proc.returncode}"
        )
    os.replace(tmp_path, so_path)
    return None


def _load() -> Tuple[Optional[object], str]:
    """The kernel module (or None) and the :data:`status` string."""
    if not options.fastpath():
        return None, "disabled"
    cache = _cache_dir()
    try:
        with open(_SOURCE, "rb") as handle:
            source = handle.read()
        tag = hashlib.sha256(
            source + sys.implementation.cache_tag.encode()
        ).hexdigest()[:16]
        os.makedirs(cache, exist_ok=True)
        so_path = os.path.join(cache, f"{_MODULE_NAME}-{tag}.so")
        if not os.path.exists(so_path):
            error = _build(so_path)
            if error is not None:
                return None, f"build failed: {error}"
        loader = importlib.machinery.ExtensionFileLoader(_MODULE_NAME, so_path)
        spec = importlib.util.spec_from_loader(
            _MODULE_NAME, loader, origin=so_path
        )
        if spec is None:
            return None, f"load failed: no module spec for {so_path}"
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
        if not _self_test(module):
            return None, "self-test failed"
        return module, "ok"
    except Exception as exc:
        return None, f"load failed: {exc}"


#: the loaded C kernel module, or None when unavailable; ``status`` is
#: "ok", "disabled" (REPRO_FASTPATH=0), "build failed: <last compiler
#: stderr line>", "self-test failed" or "load failed: <exception>"
fastpath, status = _load()


def available() -> bool:
    """Whether the C kernels are active in this process."""
    return fastpath is not None
