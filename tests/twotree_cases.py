"""Protocol cases shared by the two-tree families: Rho, Ring and Pyramid.

The three families run one scheduler (:mod:`repro.oram.twotree`), so the
custody protocol is tested once here: ``tests/test_rho.py``,
``tests/test_ring.py`` and ``tests/test_pyramid.py`` each subclass
:class:`FamilyProtocolCases`, naming the scheme and the literal counter
keys it must report.  The cases check that a main-tree read moves a block
exclusively into side custody, that a second access is served on the
side, that custody stays within its budget, and that every block that
leaves custody comes back mapped in the main tree.
"""

from typing import Tuple

from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.oram.types import Request, RequestKind


def drive(controller, request, now=0, limit=200):
    """Step ``controller`` until ``request`` completes; return the time."""
    controller.enqueue(request)
    slots = 0
    while request.completion is None and slots < limit:
        result = controller.step(now, allow_dummy=True)
        assert result is not None
        now = max(now + 1, result.finish_write)
        slots += 1
    assert request.completion is not None
    return now


def drive_blocks(controller, blocks, rng, now=0):
    """One read per block, in order, a random 40% of them dirty."""
    for block in blocks:
        request = Request(
            block=block,
            kind=RequestKind.READ,
            arrival=now,
            is_write=rng.random() < 0.4,
        )
        now = drive(controller, request, now=now, limit=400)
    return now


def flush(controller, now, limit=600):
    """Step until the controller has no real work left; return the time."""
    for _ in range(limit):
        if not controller.has_any_real_work():
            break
        result = controller.step(now, allow_dummy=True)
        if result is None:
            break
        now = max(now + 1, result.finish_write)
    return now


class FamilyProtocolCases:
    """Custody protocol cases; subclasses set the family's names."""

    #: zoo scheme name
    SCHEME: str
    #: counter keys, spelled out so a renamed key fails here
    PROMOTIONS: str
    HITS: Tuple[str, ...]
    EVICTIONS: str
    REINSERTS: str

    def build(self):
        return build_scheme(self.SCHEME, SystemConfig.tiny()).controller

    def build_small(self):
        """A controller whose budget a test can overflow quickly."""
        return self.build()

    def test_promotion_after_main_access(self):
        controller = self.build()
        drive(controller, Request(block=3, kind=RequestKind.READ, arrival=0))
        assert 3 in controller.side_map
        assert not controller.posmap.is_mapped(3)
        assert controller.stats.get(self.PROMOTIONS) >= 1

    def test_second_access_hits_side_structures(self):
        controller = self.build()
        first = Request(block=3, kind=RequestKind.READ, arrival=0)
        now = drive(controller, first)
        second = Request(block=3, kind=RequestKind.READ, arrival=now)
        drive(controller, second, now=now)
        assert sum(controller.stats.get(key) for key in self.HITS) >= 1

    def test_side_budget_enforced(self, rng):
        controller = self.build_small()
        drive_blocks(controller, range(controller.side_budget + 20), rng)
        active = len(controller.side_map) - len(controller._evicting)
        assert active <= controller.side_budget
        assert controller.stats.get(self.EVICTIONS) > 0

    def test_extraction_round_trip(self, rng):
        controller = self.build_small()
        blocks = list(range(controller.side_budget + 8))
        now = drive_blocks(controller, blocks, rng)
        flush(controller, now)
        assert controller.stats.get(self.REINSERTS) > 0
        assert not controller.main_insert_queue
        assert not controller._pending_main_insert
        # every block is in side custody or mapped in the main tree,
        # never both (promotion is exclusive)
        for block in blocks:
            in_custody = block in controller.side_map
            assert in_custody != controller.posmap.is_mapped(block)
