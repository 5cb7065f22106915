"""In-memory span tracing around calls into the repro package's layers.

The benchmark attributes wall time to the repo's modules without changing
them: :func:`instrument` swaps selected public functions (module globals
and class methods, looked up at call time by their callers) for wrappers
that open a span around each call, and puts the originals back on exit.
Spans stay in memory (:class:`Tracer`) and are written out once, at the end
of a run (:meth:`Tracer.dump`).

Accounting (:func:`attribute`): a span's *self time* is its duration minus
the durations of its direct children (children nest inside their parent on
the same thread).  Time inside the measured window that no top-level span
covers is *uncovered*.  Summed over every span in the window, self time plus
uncovered time equals ``lanes x window`` exactly, where a lane is a thread
that issues spans -- one for the serial workloads, one per connection for
the serve load generator.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    #: Shared by every span of one operation (one `repro run`, one cell,
    #: one telemetry submission); top-level spans open a new one.
    request: int
    #: The thread that opened the span.
    lane: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts; thread-safe for concurrent lanes."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = parent.request if parent else next(self._requests)
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    parent.id if parent else None, request,
                    threading.get_ident())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def window(self, start: float, end: float) -> List[Span]:
        """Spans that began inside ``[start, end]``."""
        return [s for s in self.spans if start <= s.start <= end]

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        ordered = sorted(self.spans, key=lambda s: s.start)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**(extra or {}),
                       "spans": [asdict(s) for s in ordered]}, handle)


Hook = Tuple[Any, str, Any, Optional[Callable]]


def _wrap(tracer: Tracer, fn: Callable, name: Any,
          on_result: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label = name(tracer) if callable(name) else name
        with tracer.span(label) as span:
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(span, args, result)
        return result
    return traced


@contextmanager
def instrument(tracer: Tracer, hooks: Iterable[Hook]):
    """Trace every ``(owner, attribute, span name, on_result)`` hook.

    ``span name`` is a string or a callable of the tracer (for names that
    depend on the enclosing span); ``on_result(span, args, result)`` copies
    counts from the call into ``span.attrs`` before the span closes.
    """
    saved = []
    try:
        for owner, attr, name, on_result in hooks:
            original = getattr(owner, attr)
            saved.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, _wrap(tracer, original, name, on_result))
        yield tracer
    finally:
        for owner, attr, original, own in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _detect_name(tracer: Tracer) -> str:
    """The first HB pass inside a §5.3 cell judges the full log; the rest
    judge one sampler's marked subset each."""
    parent = tracer.current()
    if parent is None or parent.name != "analysis.cell":
        return "detector.detect"
    passes = parent.attrs.get("passes", 0)
    parent.attrs["passes"] = passes + 1
    return "detector.full_detect" if passes == 0 else "detector.sampler_detect"


def _attrs(**getters: Callable) -> Callable:
    """Record ``getter(result)`` under each key."""
    def record(span: Span, args, result) -> None:
        for key, get in getters.items():
            span.attrs[key] = get(result)
    return record


def _argv(span: Span, args, result) -> None:
    span.attrs["argv"] = " ".join(args[0])


def layer_hooks() -> List[Hook]:
    """The public entry points of each layer, as their callers see them."""
    from importlib import import_module

    # import_module, not `import a.b as c`: some packages re-export a
    # function under the name of its submodule (repro.core.triage).
    cli = import_module("repro.__main__")
    detection = import_module("repro.analysis.detection")
    literace = import_module("repro.core.literace")
    triage = import_module("repro.core.triage")
    merge = import_module("repro.detector.merge")
    segment = import_module("repro.eventlog.segment")
    catalog = import_module("repro.scenarios.catalog")
    workloads = import_module("repro.workloads")
    HappensBeforeDetector = import_module("repro.detector.hb") \
        .HappensBeforeDetector
    TelemetryClient = import_module("repro.service.client").TelemetryClient

    run_counts = _attrs(steps=lambda r: r.steps,
                        memory_ops=lambda r: r.memory_ops)
    merge_counts = _attrs(events=lambda m: len(m.events),
                          inconsistencies=lambda m: m.inconsistencies)
    return [
        (cli, "main", "cli.run", _argv),
        (workloads, "build", "workloads.build", None),
        (catalog, "compile_scenario", "scenarios.compile", None),
        (cli, "run_baseline", "runtime.baseline", run_counts),
        (literace.LiteRace, "run", "core.run", None),
        (literace.LiteRace, "profile", "core.profile", _attrs(
            steps=lambda r: r[0].steps,
            memory_ops=lambda r: r[0].memory_ops,
            sampled_memory_ops=lambda r: r[0].sampled_memory_ops,
            logged_events=lambda r: len(r[1].events))),
        (literace.LiteRace, "analyze_log", "core.analyze_log", None),
        (literace, "merge_thread_logs", "detector.merge", merge_counts),
        (merge, "merge_thread_logs", "detector.merge", merge_counts),
        (HappensBeforeDetector, "feed_all", _detect_name, None),
        (literace, "encoded_size", "eventlog.encode",
         _attrs(bytes=lambda n: n)),
        (triage, "render_triage", "core.triage", None),
        (detection, "run_detection_cell", "analysis.cell",
         _attrs(benchmark=lambda r: r.benchmark)),
        (detection, "run_marked", "core.marked",
         _attrs(events=lambda m: len(m.log.events),
                steps=lambda m: m.run.steps)),
        (segment, "split_log", "eventlog.split_log", None),
        (TelemetryClient, "hello", "service.hello", None),
        (TelemetryClient, "send_segment", "service.segment", None),
        (TelemetryClient, "end_log", "service.end", None),
    ]


def attribute(spans: List[Span], start: float, end: float,
              lanes: Iterable[int]) -> Tuple[Dict[str, float], float]:
    """Self time per span name, and the window time no span covers.

    ``spans`` are those of the window; ``lanes`` the threads that issued
    work in it (every lane contributes ``end - start`` of capacity).
    """
    children: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) \
                + span.duration
    self_time: Dict[str, float] = {}
    covered: Dict[int, float] = {}
    for span in spans:
        self_time[span.name] = self_time.get(span.name, 0.0) \
            + span.duration - children.get(span.id, 0.0)
        if span.parent is None:
            covered[span.lane] = covered.get(span.lane, 0.0) + span.duration
    uncovered = sum((end - start) - covered.get(lane, 0.0)
                    for lane in set(lanes))
    return self_time, uncovered


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
