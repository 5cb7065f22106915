"""The marked single pass: Full and every sampler judged in one HB pass.

:meth:`repro.detector.flat.FlatDetector.feed_marked` replaces the 1 + K
reference happens-before passes of the §5.3 methodology.  Its contract is
byte identity, view by view: the report for view 0 (the whole marked log)
and for view ``1 + b`` (sync events plus the memory events carrying
sampler bit ``b``) must equal a reference
:class:`~repro.detector.hb.HappensBeforeDetector` run over that stream —
occurrence counts, kept examples and racy addresses.

Three layers of evidence:

* hypothesis-randomized marked streams with K in {1, 7, 9} samplers (more
  than the seven of ``SAMPLER_ORDER``: nothing may assume a view count)
  and both ``alloc_as_sync`` modes;
* pinned :class:`~repro.analysis.detection.RunDetection` digests for every
  race-eval workload at scale 0.03, seeds 1 and 2.  The table was produced
  by the 1 + 7-pass reference implementation this pass replaced, by
  running this module as a script on that commit::

      PYTHONPATH=src python tests/test_marked_pass.py

* ``EventLog.memory_logged_by`` (now counted per mask value) against a
  per-bit count over random masks.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import workloads
from repro.analysis.detection import run_detection_cell
from repro.detector.flat import FlatDetector
from repro.detector.hb import HappensBeforeDetector
from repro.eventlog.events import MemoryEvent, SyncEvent, SyncKind
from repro.eventlog.log import EventLog

SCALE = 0.03
SEEDS = (1, 2)


def cell_digest(name: str, seed: int) -> str:
    """Short sha256 digest of every field of one detection cell."""
    cell = run_detection_cell(name, seed, scale=SCALE)
    doc = {
        "memory_ops": cell.memory_ops,
        "nonstack_memory_ops": cell.nonstack_memory_ops,
        "full_races": sorted(cell.full_races),
        "rare": sorted(cell.rare),
        "frequent": sorted(cell.frequent),
        "samplers": {sampler: [sorted(outcome.detected),
                               outcome.memory_logged]
                     for sampler, outcome in cell.samplers.items()},
    }
    encoded = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


GOLDEN = {
    ('dryad-stdlib', 1): '2351be6d04d2ee10',
    ('dryad-stdlib', 2): '104251460e26ed32',
    ('dryad', 1): 'cc102d0ba9157d6b',
    ('dryad', 2): 'b72d31ebeb59e404',
    ('apache-1', 1): '0df980b8096dface',
    ('apache-1', 2): '3d63be30bb64712b',
    ('apache-2', 1): '69aa84b6cb0776b4',
    ('apache-2', 2): '0532ad1d10a9735b',
    ('firefox-start', 1): 'f014cdf2ae15bc0e',
    ('firefox-start', 2): '227d24f64b62d62d',
    ('firefox-render', 1): '1d33c5ca1d159e65',
    ('firefox-render', 2): '2061d81045da0171',
}


def report_key(report):
    return (dict(report.occurrences), dict(report.examples),
            set(report.addresses))


# -- randomized marked streams -----------------------------------------------

_SYNC_CHOICES = [
    (SyncKind.LOCK, "mutex"), (SyncKind.UNLOCK, "mutex"),
    (SyncKind.WAIT, "event"), (SyncKind.NOTIFY, "event"),
    (SyncKind.FORK, "thread"), (SyncKind.JOIN, "thread"),
    (SyncKind.THREAD_START, "thread"), (SyncKind.THREAD_EXIT, "thread"),
    (SyncKind.ATOMIC, "atomic"),
    (SyncKind.ALLOC_PAGE, "page"), (SyncKind.FREE_PAGE, "page"),
]


@st.composite
def marked_streams(draw, samplers, max_events=300):
    """Sync/memory streams over a collision-rich space, with random masks.

    Masks may carry bits above the sampler count: the pass must ignore
    them, as a view exists only per declared sampler.
    """
    n = draw(st.integers(0, max_events))
    events = []
    ts = 0
    for _ in range(n):
        tid = draw(st.integers(0, 3))
        if draw(st.integers(0, 5)) == 0:
            kind, domain = draw(st.sampled_from(_SYNC_CHOICES))
            ts += 1
            events.append(SyncEvent(tid, kind, (domain,
                                                draw(st.integers(0, 2))),
                                    ts, draw(st.integers(0, 40))))
        else:
            events.append(MemoryEvent(
                tid, draw(st.integers(0, 7)), draw(st.integers(0, 40)),
                draw(st.booleans()),
                draw(st.integers(0, (1 << (samplers + 1)) - 1))))
    return events


def reference_view(events, bit, alloc_as_sync):
    """One reference HB pass over view ``bit`` (None = the whole log)."""
    stream = events if bit is None else [
        event for event in events
        if isinstance(event, SyncEvent) or event.mask >> bit & 1]
    detector = HappensBeforeDetector(alloc_as_sync=alloc_as_sync)
    return detector.feed_all(stream).report


def assert_views_match(events, samplers, alloc_as_sync):
    detector = FlatDetector("hb", alloc_as_sync=alloc_as_sync,
                            use_numpy=False)
    reports = detector.feed_marked(events, samplers)
    assert len(reports) == 1 + samplers
    assert reports[0] is detector.report
    assert detector.events_processed == len(events)
    for view, bit in enumerate([None] + list(range(samplers))):
        expected = reference_view(events, bit, alloc_as_sync)
        assert report_key(reports[view]) == report_key(expected), view


class TestRandomizedMarkedStreams:
    @pytest.mark.parametrize("samplers", [1, 7, 9])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), alloc=st.booleans())
    def test_every_view_matches_reference(self, samplers, data, alloc):
        events = data.draw(marked_streams(samplers))
        assert_views_match(events, samplers, alloc)

    def test_no_samplers_is_the_full_log(self):
        events = [MemoryEvent(0, 0x10, 1, True, 0),
                  MemoryEvent(1, 0x10, 2, False, 0)]
        assert_views_match(events, 0, True)

    def test_rejects_fasttrack_and_used_detectors(self):
        with pytest.raises(ValueError):
            FlatDetector("fasttrack", use_numpy=False).feed_marked([], 1)
        used = FlatDetector("hb", use_numpy=False)
        used.feed(MemoryEvent(0, 0x10, 1, True))
        with pytest.raises(ValueError):
            used.feed_marked([], 1)


# -- pinned detection cells --------------------------------------------------

def test_golden_covers_every_race_eval_workload():
    assert sorted({name for name, _ in GOLDEN}) == sorted(
        workloads.race_eval_names())
    assert {seed for _, seed in GOLDEN} == set(SEEDS)


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_cell_digest_matches_pinned(name, seed):
    assert cell_digest(name, seed) == GOLDEN[name, seed]


# -- per-mask logging counts -------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_memory_logged_by_matches_per_bit_count(seed):
    rng = random.Random(seed)
    log = EventLog()
    masks = [rng.randrange(1 << 9) for _ in range(500)]
    for index, mask in enumerate(masks):
        log.append_memory(index % 3, index, index, bool(index & 1), mask)
    for bit in range(11):
        assert log.memory_logged_by(bit) == sum(
            1 for mask in masks if mask >> bit & 1)


if __name__ == "__main__":
    print("GOLDEN = {")
    for workload in workloads.race_eval_names():
        for run_seed in SEEDS:
            print(f"    ({workload!r}, {run_seed}): "
                  f"{cell_digest(workload, run_seed)!r},", flush=True)
    print("}")
