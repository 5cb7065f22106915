"""Per-thread interpreter state: threads, frames, and loop stacks."""

from __future__ import annotations

import enum
from typing import Generator, List, Optional, Tuple

from ..layout import tls_base_for

__all__ = ["ThreadStatus", "ThreadState", "Frame"]


class ThreadStatus(enum.Enum):
    """Lifecycle of a simulated thread."""

    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    FINISHED = "finished"


class ThreadState:
    """One simulated thread: identity, TLS base, status and its interpreter.

    ``generator`` is the thread's interpreter, created by the executor: each
    ``next()`` on it runs one step of the thread.
    """

    __slots__ = (
        "tid",
        "tls_base",
        "status",
        "generator",
        "joiners",
        "entry_function",
    )

    def __init__(self, tid: int, entry_function: str):
        self.tid = tid
        self.tls_base = tls_base_for(tid)
        self.status = ThreadStatus.RUNNABLE
        self.generator: Optional[Generator] = None
        #: tids blocked in ``Join`` waiting for this thread to finish.
        self.joiners: List[int] = []
        self.entry_function = entry_function

    @property
    def finished(self) -> bool:
        return self.status is ThreadStatus.FINISHED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadState(tid={self.tid}, {self.status.value}, entry={self.entry_function!r})"


class Frame:
    """One activation record: parameters, slots, and the loop-index stack.

    Address expressions (:mod:`repro.tir.addr`) resolve against frames:
    ``Param`` reads :attr:`params`, ``HeapSlot`` reads :attr:`slots`,
    ``Tls`` reads ``thread.tls_base`` and ``Indexed`` reads
    :meth:`loop_index`.
    """

    __slots__ = ("thread", "function_name", "params", "slots", "_loop_indices")

    def __init__(self, thread: ThreadState, function_name: str,
                 params: Tuple[int, ...], num_slots: int):
        self.thread = thread
        self.function_name = function_name
        self.params = params
        self.slots: List[int] = [0] * num_slots
        self._loop_indices: List[int] = []

    def push_loop(self) -> None:
        self._loop_indices.append(0)

    def pop_loop(self) -> None:
        self._loop_indices.pop()

    def advance_loop(self) -> None:
        self._loop_indices[-1] += 1

    def loop_index(self, depth: int = 0) -> int:
        """Induction variable of the ``depth``-th enclosing loop (0=innermost)."""
        return self._loop_indices[-1 - depth]

    @property
    def loop_depth(self) -> int:
        return len(self._loop_indices)
