"""Self-tests of the benchmark (not part of the repo's tier-1 suite).

    python3 -m pytest perfbench -q

Tiny-scale runs of every workload through the same code path as
``run.py``, the correctness gate rejecting tampered digests, and the span
accounting identity (self times plus uncovered time equal the wall time).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import legs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, legs.SRC)

TINY = 0.01


def _declared(section):
    return set(run.declared_metrics()[section])


def _identity(result):
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    covered = sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS)
    return covered + metrics["trace.uncovered_s"], metrics["trace.lane_s"]


def test_tiny_pipeline_passes_gate():
    leg = legs.PipelineLeg(seed=1, scale=TINY)
    result = run.execute(leg, seconds=0.1, trace=False)
    assert result["correct"], leg.problems
    assert result["attempted"] == len(legs.PIPELINE_RUNS)
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_detect_cell_passes_gate():
    leg = legs.CellLeg(seed=2, scale=TINY)
    result = run.execute(leg, seconds=0.1, trace=False)
    assert result["correct"], leg.problems
    assert result["attempted"] == len(legs.CELL_BENCHMARKS)


def test_tiny_serve_passes_gate():
    leg = legs.ServeLeg(seed=3)
    result = run.execute(leg, seconds=1.5, trace=False)
    assert result["correct"], leg.problems
    assert result["failed"] == 0 and result["attempted"] > 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert leg._proc is None


def test_traced_serial_run_accounts_for_its_wall_time():
    leg = legs.PipelineLeg(seed=1, scale=TINY, runs=("apache-1",))
    result = run.execute(leg, seconds=0.1, trace=True)
    assert result["correct"], leg.problems
    assert set(result["metrics"]) == _declared("per_layer")
    total, lane_s = _identity(result)
    assert total == pytest.approx(lane_s, rel=1e-9)
    metrics = result["metrics"]
    assert metrics["runtime.steps"]["value"] > 0
    assert metrics["detector.merge_inconsistencies"]["value"] == 0


def test_traced_serve_run_accounts_for_its_lane_time():
    leg = legs.ServeLeg(seed=1)
    result = run.execute(leg, seconds=2.0, trace=True)
    assert result["correct"], leg.problems
    total, lane_s = _identity(result)
    assert total == pytest.approx(lane_s, rel=1e-9)
    assert result["metrics"]["service.end_p50_ms"]["value"] > 0


def _pinned_pipeline(digests):
    return {"pipeline": {"scale": TINY, "seeds": {"1": digests}}}


def test_tampered_pipeline_digest_fails_gate():
    leg = legs.PipelineLeg(seed=1, scale=TINY, runs=("apache-1",))
    leg.rep()
    digest = legs.sha256(leg.outputs["apache-1"][0])
    leg.pins = _pinned_pipeline({"apache-1": digest})
    assert leg.check() == []
    leg.pins = _pinned_pipeline({"apache-1": "0" + digest[1:]})
    assert leg.check() and leg.failed == 1


def test_tampered_cell_digest_fails_gate():
    leg = legs.CellLeg(seed=1, scale=TINY, benchmarks=("apache-1",))
    leg.rep()
    digest = leg.digest(leg.outputs["apache-1"][0])
    leg.pins = {"detect-cell": {"scale": TINY,
                                "seeds": {"1": {"apache-1": digest[::-1]}}}}
    assert leg.check() and leg.failed == 1


def test_unplanted_race_fails_gate():
    leg = legs.PipelineLeg(seed=1, scale=TINY, runs=("apache-1",))
    leg.outputs["apache-1"].append(
        "[1] nowhere+0 (Read) <-> nowhere+1 (Write) [read-write, rare, 1x]\n")
    assert leg.check() and leg.failed == 1


def test_self_times_and_uncovered_add_up_to_the_window():
    tracer = tracing.Tracer()
    with tracer.span("cli.run"):
        with tracer.span("core.profile"):
            with tracer.span("runtime.baseline"):
                pass
        with tracer.span("detector.detect"):
            pass
    end = tracer.spans[-1].end + 0.5
    start = min(s.start for s in tracer.spans) - 0.25
    self_time, uncovered = tracing.attribute(
        tracer.spans, start, end, {tracer.spans[0].lane})
    assert uncovered == pytest.approx(0.75, abs=1e-9)
    assert sum(self_time.values()) + uncovered == pytest.approx(end - start)
    assert all(seconds >= 0 for seconds in self_time.values())
    parents = {s.id: s for s in tracer.spans}
    assert all(parents[s.parent].request == s.request
               for s in tracer.spans if s.parent is not None)


def test_instrument_restores_the_originals():
    from repro.core.literace import LiteRace
    from repro.detector.hb import HappensBeforeDetector

    before = (LiteRace.profile, HappensBeforeDetector.feed_all)
    with tracing.instrument(tracing.Tracer(), tracing.layer_hooks()):
        assert LiteRace.profile is not before[0]
    assert (LiteRace.profile, HappensBeforeDetector.feed_all) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(legs.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
    with open(tmp_path / "BENCHMARK.json", encoding="utf-8") as handle:
        assert json.load(handle)["command"][1] == "perfbench/run.py"
