"""In-memory event logs produced by the profiling harness.

An :class:`EventLog` records the stream of events of one execution in true
temporal order (the order the serialized simulator produced them), which is
also what the paper's per-thread buffers flushed to disk represent.  It
supports the two views the offline detector needs:

* the *global stream* (oracle order, used by the online detector and by
  tests), and
* *per-thread streams* (what is actually written to disk), from which the
  offline detector must reconstruct a valid order using the logical
  timestamps (§4.2).

It also implements the §5.3 comparison methodology: every memory event
carries a bitmask of which evaluated samplers logged it, and
:meth:`filtered` produces the sub-log a given sampler would have written —
all sync events, plus exactly its memory events.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from .events import Event, MemoryEvent, SyncEvent, SyncKind, SyncVar

__all__ = ["EventLog"]


class EventLog:
    """An append-only log of sync and memory events."""

    def __init__(self):
        self.events: List[Event] = []
        self.sync_count = 0
        self.memory_count = 0
        #: mask value -> count of logged memory events carrying it; one
        #: increment per event, however many sampler bits the mask holds
        self._mask_counts: Dict[int, int] = {}

    # -- appends ---------------------------------------------------------
    def append_sync(self, tid: int, kind: SyncKind, var: SyncVar,
                    timestamp: int, pc: int) -> SyncEvent:
        event = SyncEvent(tid, kind, var, timestamp, pc)
        self.events.append(event)
        self.sync_count += 1
        return event

    def append_memory(self, tid: int, addr: int, pc: int, is_write: bool,
                      mask: int = 1) -> MemoryEvent:
        event = MemoryEvent(tid, addr, pc, is_write, mask)
        self.events.append(event)
        self.memory_count += 1
        counts = self._mask_counts
        counts[mask] = counts.get(mask, 0) + 1
        return event

    # -- views -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def per_thread(self) -> Dict[int, List[Event]]:
        """Events grouped by thread, preserving each thread's program order."""
        streams: Dict[int, List[Event]] = {}
        for event in self.events:
            streams.setdefault(event.tid, []).append(event)
        return streams

    def filtered(self, sampler_bit: int) -> "EventLog":
        """The sub-log sampler ``sampler_bit`` would have produced.

        All synchronization events are retained (they are never sampled,
        §3.2); memory events are retained iff the sampler's bit is set in
        their mask.
        """
        sub = EventLog()
        want = 1 << sampler_bit
        for event in self.events:
            if isinstance(event, SyncEvent):
                sub.events.append(event)
                sub.sync_count += 1
            elif event.mask & want:
                sub.events.append(
                    MemoryEvent(event.tid, event.addr, event.pc,
                                event.is_write, 1)
                )
                sub.memory_count += 1
        return sub

    def memory_logged_by(self, sampler_bit: int) -> int:
        """How many memory events carry the given sampler's bit."""
        return sum(count for mask, count in self._mask_counts.items()
                   if mask >> sampler_bit & 1)

    def sync_vars(self) -> Tuple[SyncVar, ...]:
        """The distinct SyncVars appearing in the log, in first-seen order."""
        seen: Dict[SyncVar, None] = {}
        for event in self.events:
            if isinstance(event, SyncEvent):
                seen.setdefault(event.var)
        return tuple(seen)
