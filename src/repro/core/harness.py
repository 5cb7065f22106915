"""Profiling harnesses: the glue between the executor and the event log.

A harness implements the :class:`repro.runtime.Harness` hook interface.  Two
are provided:

* :class:`ProfilingHarness` — a production run with one sampler: the
  dispatch check consults the sampler state, memory events from
  instrumented activations and *all* sync events are appended to the log,
  and every hook returns its cycle cost for the executor's Figure-6 buckets.
  An optional online sink (e.g. :class:`repro.detector.OnlineRaceDetector`)
  receives events as they are produced.

* :class:`MarkedHarness` — the §5.3 comparison methodology: full logging
  with the dispatch logic of *several* samplers executed side by side at
  every function entry, marking each memory event with the bitmask of
  samplers that would have logged it.  One marked run therefore yields, for
  every evaluated sampler, exactly the sub-log it would have produced on
  this precise interleaving — the only fair way to compare samplers, since
  two separate executions of a multithreaded program need not interleave
  identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..eventlog.events import SyncKind, SyncVar
from ..eventlog.log import EventLog
from ..runtime.cost import CostModel, DEFAULT_COST_MODEL
from ..runtime.executor import Harness
from .samplers import Sampler, SamplerState
from .tracker import TimestampTracker

__all__ = ["ProfilingHarness", "MarkedHarness"]


class ProfilingHarness(Harness):
    """Single-sampler profiling: what a deployed LiteRace run does."""

    def __init__(
        self,
        sampler: Sampler,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        tracker: Optional[TimestampTracker] = None,
        log_sync: bool = True,
        seed: int = 0,
        sink=None,
    ):
        self.sampler = sampler
        self.state: SamplerState = sampler.make_state(seed)
        self.cost = cost_model
        self.tracker = tracker if tracker is not None else TimestampTracker()
        self.log_sync = log_sync
        self.log = EventLog()
        self.sink = sink

    def enter_function(self, tid: int, func_name: str) -> Tuple[bool, int]:
        decision = self.state.should_sample(tid, func_name)
        return decision, self.state.dispatch_cost

    def memory_event(self, tid: int, addr: int, pc: int, is_write: bool) -> int:
        event = self.log.append_memory(tid, addr, pc, is_write)
        if self.sink is not None:
            self.sink.feed(event)
        return self.cost.log_memory

    def sync_event(self, tid: int, kind: SyncKind, var: SyncVar, pc: int,
                   active_threads: int) -> int:
        if not self.log_sync:
            return 0
        may_tear = kind is SyncKind.ATOMIC
        timestamp = self.tracker.stamp(var, may_tear=may_tear)
        event = self.log.append_sync(tid, kind, var, timestamp, pc)
        if self.sink is not None:
            self.sink.feed(event)
        cycles = self.cost.log_sync
        cycles += self.cost.contention_cost(active_threads,
                                            self.tracker.num_counters)
        if may_tear and self.tracker.atomic:
            # The critical section wrapped around atomic machine ops (§4.2).
            cycles += self.cost.log_atomic_extra
        return cycles


class MarkedHarness(Harness):
    """Full logging plus side-by-side dispatch simulation of many samplers."""

    def __init__(
        self,
        samplers: Sequence[Sampler],
        cost_model: CostModel = DEFAULT_COST_MODEL,
        tracker: Optional[TimestampTracker] = None,
        seed: int = 0,
    ):
        if not samplers:
            raise ValueError("at least one sampler is required")
        self.samplers = list(samplers)
        self.states: List[SamplerState] = [
            sampler.make_state(seed + index)
            for index, sampler in enumerate(self.samplers)
        ]
        self.cost = cost_model
        self.tracker = tracker if tracker is not None else TimestampTracker()
        self.log = EventLog()
        self._mask_stacks: Dict[int, List[int]] = {}

    def sampler_bit(self, short_name: str) -> int:
        """The mask bit assigned to the sampler with this short name."""
        for index, sampler in enumerate(self.samplers):
            if sampler.short_name == short_name:
                return index
        raise KeyError(short_name)

    def enter_function(self, tid: int, func_name: str) -> Tuple[bool, int]:
        mask = 0
        for index, state in enumerate(self.states):
            if state.should_sample(tid, func_name):
                mask |= 1 << index
        self._mask_stacks.setdefault(tid, []).append(mask)
        # Full logging: always run the instrumented copy, and (like the
        # paper's full-logging build) charge no dispatch cost — marked runs
        # measure detection, not overhead.
        return True, 0

    def exit_function(self, tid: int) -> None:
        self._mask_stacks[tid].pop()

    def memory_event(self, tid: int, addr: int, pc: int, is_write: bool) -> int:
        # Accesses are logged only inside an activation enter_function
        # opened, so the thread's mask stack is never empty here.
        self.log.append_memory(tid, addr, pc, is_write,
                               self._mask_stacks[tid][-1])
        return self.cost.log_memory

    def sync_event(self, tid: int, kind: SyncKind, var: SyncVar, pc: int,
                   active_threads: int) -> int:
        timestamp = self.tracker.stamp(var, may_tear=kind is SyncKind.ATOMIC)
        self.log.append_sync(tid, kind, var, timestamp, pc)
        return self.cost.log_sync
