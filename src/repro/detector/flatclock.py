"""Dense thread numbering for the flat vector clocks.

:class:`~repro.detector.vectorclock.VectorClock` is a dict keyed by raw
thread ids — flexible, but every component read is a hash lookup and every
clock is a dict object.  The detector hot path (:mod:`repro.detector.flat`)
instead numbers threads densely in order of first appearance
(:class:`TidSlots`) and stores each clock as a flat list indexed by that
slot: component reads are integer indexing and joins are tight
pointwise-max loops — the flat epoch/timestamp representation of
*Efficient Timestamping for Sampling-based Race Detection* (PAPERS.md).
The detector keeps every clock at exactly ``len(slots)`` entries (growing
all of them when a new thread appears), so inner loops index without
bounds checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["TidSlots"]


class TidSlots:
    """Dense numbering of thread ids in order of first appearance."""

    __slots__ = ("_slot_of", "tids")

    def __init__(self):
        self._slot_of: Dict[int, int] = {}
        #: slot -> tid (the inverse mapping, used when reporting races).
        self.tids: List[int] = []

    def __len__(self) -> int:
        return len(self.tids)

    def __contains__(self, tid: int) -> bool:
        return tid in self._slot_of

    def get(self, tid: int) -> Optional[int]:
        """The slot for ``tid``, or None if it was never assigned."""
        return self._slot_of.get(tid)

    def assign(self, tid: int) -> int:
        """The slot for ``tid``, assigning the next dense slot if new."""
        slot = self._slot_of.get(tid)
        if slot is None:
            slot = len(self.tids)
            self._slot_of[tid] = slot
            self.tids.append(tid)
        return slot

    def tid_of(self, slot: int) -> int:
        return self.tids[slot]
