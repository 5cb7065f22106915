"""End-to-end benchmark of the LiteRace reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 40 --trace 0

Workloads (see NOTES.md for why each was chosen):

* ``pipeline``    -- serial `repro run --sampler TL-Ad` of apache-1, lkrhash
  and firefox-start, driven in-process through the CLI;
* ``detect-cell`` -- the §5.3 detection cell for apache-1 and firefox-start;
* ``serve``       -- a live `repro serve` daemon fed replayed kv-store
  submissions: a closed-loop phase, then an open-loop phase.

With ``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it prints the per-layer metrics instead, attributed from
spans recorded around calls into the repo's modules, and writes the spans
to ``perfbench/_work/``.  The last stdout line is the JSON result; the
exit status is nonzero when the correctness gate fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from typing import Dict, List

import legs
from legs import median, percentile

#: Layers the spans are attributed to (the first component of a span name).
LAYERS = ("cli", "workloads", "scenarios", "runtime", "core", "detector",
          "eventlog", "analysis", "service", "loadgen")


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """Units of every metric BENCHMARK.json declares, by section."""
    with open(os.path.join(legs.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(leg, tracer=None) -> List[float]:
    from tracing import instrument, layer_hooks

    times = []
    with (instrument(tracer, layer_hooks()) if tracer is not None
          else contextlib.nullcontext()):
        for _ in range(leg.setup_rounds):
            leg.reset()
            began = time.perf_counter()
            leg.setup_round()
            times.append(time.perf_counter() - began)
    return times


def _sum_spans(spans, name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def _attrs(spans, name: str, key: str) -> List:
    return [s.attrs[key] for s in spans if s.name == name]


def layer_metrics(windows, tracer) -> Dict[str, float]:
    """Self time and share of each layer over the traced windows.

    ``windows`` is a list of ``(start, end, lanes)``; every lane offers
    ``end - start`` of wall time, and self times plus the uncovered rest add
    up to ``trace.lane_s``.
    """
    from tracing import attribute, layer_of

    self_by_layer = {layer: 0.0 for layer in LAYERS}
    uncovered = lane_s = 0.0
    spans = []
    for start, end, lanes in windows:
        inside = tracer.window(start, end)
        spans.extend(inside)
        by_name, rest = attribute(inside, start, end, lanes)
        for name, seconds in by_name.items():
            self_by_layer[layer_of(name)] += seconds
        uncovered += rest
        lane_s += (end - start) * len(set(lanes))
    metrics = {}
    for layer, seconds in self_by_layer.items():
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.share"] = seconds / lane_s
    metrics.update({"trace.lane_s": lane_s, "trace.uncovered_s": uncovered,
                    "trace.uncovered_share": uncovered / lane_s,
                    "trace.spans": len(spans)})
    return metrics


def _setup_layers(tracer, setup_end: float, rounds: int) -> Dict[str, float]:
    """Per-round time of the set-up layers, from the spans before
    ``setup_end``."""
    spans = tracer.window(0.0, setup_end)
    per_round = {
        "workloads.build_s": _sum_spans(spans, "workloads.build"),
        "scenarios.compile_s": _sum_spans(spans, "scenarios.compile"),
        "eventlog.split_log_s": _sum_spans(spans, "eventlog.split_log"),
    }
    return {name: seconds / rounds for name, seconds in per_round.items()}


def run_serial(leg, seconds: float, trace: bool):
    """pipeline / detect-cell: repeated identical repetitions."""
    if not trace:
        setup = _timed_setup(leg)
        walls = leg.measure(seconds, bursts=legs.REFERENCE_BURSTS)
        return {"setup_s": median(setup),
                "work_s": _scaled(leg, median(walls)),
                "peak_rss_mb": _rss_mb()}

    from repro import workloads
    from tracing import Tracer, instrument, layer_hooks

    tracer = Tracer()
    # The set-up rounds run in fresh interpreters, out of the tracer's
    # reach; time the in-process builds they consist of instead.
    with instrument(tracer, layer_hooks()):
        for _ in range(leg.setup_rounds):
            for name in leg.programs():
                workloads.build(name, seed=leg.seed, scale=leg.scale)
    metrics = _setup_layers(tracer, time.perf_counter(), leg.setup_rounds)
    untraced = leg.measure(seconds / 2, bursts=legs.REFERENCE_BURSTS)
    metrics["host.reference_ms"] = median(leg.bursts) * 1e3
    with instrument(tracer, layer_hooks()):
        start = time.perf_counter()
        traced = leg.measure(seconds / 2)
        end = time.perf_counter()
    reps = len(traced)
    spans = tracer.window(start, end)
    metrics.update(layer_metrics([(start, end, {s.lane for s in spans})],
                                 tracer))
    per_rep = {
        "runtime.baseline_s": _sum_spans(spans, "runtime.baseline"),
        "core.profile_s": _sum_spans(spans, "core.profile"),
        "detector.merge_s": _sum_spans(spans, "detector.merge"),
        "detector.detect_s": _sum_spans(spans, "detector.detect"),
        "eventlog.encode_s": _sum_spans(spans, "eventlog.encode"),
        "eventlog.log_bytes": sum(_attrs(spans, "eventlog.encode", "bytes")),
        "core.triage_s": _sum_spans(spans, "core.triage"),
        "core.logged_events": sum(_attrs(spans, "core.profile",
                                         "logged_events")),
        "runtime.steps": sum(_attrs(spans, "runtime.baseline", "steps")),
        "core.marked_s": _sum_spans(spans, "core.marked"),
        "core.marked_events": sum(_attrs(spans, "core.marked", "events")),
        "detector.full_detect_s": _sum_spans(spans, "detector.full_detect"),
        "detector.sampler_detect_s": _sum_spans(spans,
                                                "detector.sampler_detect"),
        "detector.passes": sum(1 for s in spans
                               if s.name.endswith("detect")),
    }
    metrics.update({name: value / reps for name, value in per_rep.items()})
    metrics["core.harness_s"] = (metrics["core.profile_s"]
                                 - metrics["runtime.baseline_s"])
    baseline_steps = _attrs(spans, "runtime.baseline", "steps")
    if baseline_steps != _attrs(spans, "core.profile", "steps"):
        leg.problems.append("baseline and profiled runs took different "
                            "step counts")
    if baseline_steps:
        metrics["runtime.steps_per_s"] = (
            sum(baseline_steps) / _sum_spans(spans, "runtime.baseline"))
    memory_ops = sum(_attrs(spans, "core.profile", "memory_ops"))
    if memory_ops:
        metrics["core.esr"] = sum(_attrs(spans, "core.profile",
                                         "sampled_memory_ops")) / memory_ops
        metrics["core.esr_base"] = memory_ops / reps
    merged = sum(_attrs(spans, "detector.merge", "events"))
    if merged:
        metrics["detector.events_per_s"] = merged / _sum_spans(
            spans, "detector.detect")
    inconsistencies = sum(_attrs(spans, "detector.merge", "inconsistencies"))
    metrics["detector.merge_inconsistencies"] = inconsistencies
    if inconsistencies:
        leg.problems.append(f"{inconsistencies} timestamp-merge "
                            f"inconsistencies")
    metrics.update(_overhead(median(untraced), median(traced)))
    return metrics, tracer


def _scaled(leg, wall_s: float) -> float:
    """``wall_s`` at the reference host speed; the raw figures go to the
    ``info:`` lines."""
    leg.info.update({"work_wall_s": wall_s,
                     "reference_burst_ms": median(leg.bursts) * 1e3})
    return legs.normalized(wall_s, leg.bursts)


def _overhead(untraced_s: float, traced_s: float) -> Dict[str, float]:
    """Traced minus untraced wall time of one unit of work."""
    return {"trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_frac": traced_s / untraced_s - 1.0}


def run_serve(leg, seconds: float, trace: bool):
    """serve: a closed loop (CPU cost), then an open loop (latency).

    ``work_s`` is the CPU time the load generator, the daemon and its
    workers spend per ``SERVE_BATCH`` closed-loop completions.  Their wall
    time, and the open-loop ack latencies, are not end-to-end metrics: on a
    shared 2-vCPU host they follow the host's wake-up delays more than the
    program (see NOTES.md).  The untraced run prints them for reading; the
    traced run reports the latencies as ``loadgen.ack_p*_ms``.
    """
    from tracing import Tracer, instrument, layer_hooks

    tracer = Tracer() if trace else None
    setup = _timed_setup(leg, tracer=tracer)
    if not trace:
        cpu_s = leg.cpu_s()
        closed = leg.phase(leg.closed_loop, seconds / 2)
        cpu_s = leg.cpu_s() - cpu_s
        acks = leg.phase(leg.open_loop, seconds / 2)["acks"]
        leg.info.update(_ack_metrics(acks))
        leg.info["batch_wall_s"] = median(closed["batches"])
        per_batch = cpu_s * legs.SERVE_BATCH / max(1, closed["completed"])
        return {"setup_s": median(setup), "work_s": per_batch,
                "peak_rss_mb": leg.peak_rss_mb()}

    metrics = _setup_layers(tracer, time.perf_counter(), leg.setup_rounds)
    metrics["service.daemon_start_s"] = median(leg.daemon_start_s)
    bursts = 10 * legs.REFERENCE_BURSTS
    before = legs.reference_bursts(bursts)
    untraced = leg.phase(leg.closed_loop, seconds / 4)
    metrics["host.reference_ms"] = median(
        before + legs.reference_bursts(bursts)) * 1e3
    with instrument(tracer, layer_hooks()):
        closed = leg.phase(leg.closed_loop, seconds / 4, tracer, poll=True)
        opened = leg.phase(leg.open_loop, seconds / 2, tracer, poll=True)
    windows = []
    for phase in (closed, opened):
        spans = tracer.window(phase["start"], phase["end"])
        windows.append((phase["start"], phase["end"],
                        {s.lane for s in spans if s.parent is None}))
    metrics.update(layer_metrics(windows, tracer))
    spans = tracer.window(closed["start"], opened["end"])
    for name, key in (("service.hello", "service.hello_ms"),
                      ("service.segment", "service.segment_ack"),
                      ("service.end", "service.end")):
        durations = [s.duration * 1e3 for s in spans if s.name == name]
        if not durations:
            continue
        if name == "service.hello":
            metrics[key] = median(durations)
        else:
            metrics[f"{key}_p50_ms"] = percentile(durations, 50)
            metrics[f"{key}_p95_ms"] = percentile(durations, 95)
    for label, phase in (("closed", closed), ("open", opened)):
        for counter, value in phase["counters"].items():
            metrics[f"service.{label}.{counter}"] = value
        metrics[f"service.{label}.queue_depth_max"] = phase["queue_depth_max"]
        metrics[f"service.{label}.shard_lag_max"] = phase["shard_lag_max"]
    late = opened["late"] or [0.0]
    metrics["loadgen.late_p50_ms"] = percentile(late, 50) * 1e3
    metrics["loadgen.late_max_ms"] = max(late) * 1e3
    metrics.update(_ack_metrics(opened["acks"]))
    metrics.update(_overhead(median(untraced["batches"]) / legs.SERVE_BATCH,
                             median(closed["batches"]) / legs.SERVE_BATCH))
    return metrics, tracer


def _ack_metrics(acks) -> Dict[str, float]:
    """Open-loop ack latency from each submission's due time."""
    return {"loadgen.ack_p50_ms": legs.window_percentile(acks, 50) * 1e3,
            "loadgen.ack_p95_ms": legs.window_percentile(acks, 95) * 1e3,
            "loadgen.ack_samples": sum(a is not None for a in acks)}


def report(metrics: Dict[str, float], units: Dict[str, str],
           leg) -> Dict:
    unknown = set(metrics) - set(units)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: "
                       f"{sorted(unknown)}")
    values = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
              for name, unit in units.items()}
    return {"correct": not leg.problems and leg.failed == 0,
            "attempted": max(1, leg.attempted), "failed": leg.failed,
            "metrics": values}


def make_leg(workload: str, seed: int):
    if workload == "pipeline":
        return legs.PipelineLeg(seed, pins=legs.load_pins())
    if workload == "detect-cell":
        return legs.CellLeg(seed, pins=legs.load_pins())
    if workload == "serve":
        return legs.ServeLeg(seed)
    raise SystemExit(f"unknown workload {workload!r}")


def execute(leg, seconds: float, trace: bool) -> Dict:
    """Set up, measure and gate ``leg``; returns the result document."""
    units = declared_metrics()["per_layer" if trace else "end_to_end"]
    tracer = None
    try:
        if isinstance(leg, legs.ServeLeg):
            outcome = run_serve(leg, seconds, trace)
        else:
            outcome = run_serial(leg, seconds, trace)
        leg.check()
    finally:
        if isinstance(leg, legs.ServeLeg):
            leg.stop_daemon()
    if trace:
        metrics, tracer = outcome
    else:
        metrics = outcome
        metrics["ok_frac"] = 1.0 - leg.failed / max(1, leg.attempted)
    result = report(metrics, units, leg)
    if tracer is not None:
        os.makedirs(legs.WORK, exist_ok=True)
        tracer.dump(os.path.join(legs.WORK, f"trace-{leg.name}-"
                                 f"seed{leg.seed}.json"),
                    {"workload": leg.name, "seed": leg.seed,
                     "metrics": {k: v["value"]
                                 for k, v in result["metrics"].items()}})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "detect-cell", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(legs.SRC, "repro")):
        print(f"perfbench: no repro sources under {legs.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, legs.SRC)
    leg = make_leg(args.workload, args.seed)
    result = execute(leg, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in getattr(leg, "info", {}).items():
        print(f"info: {name} = {value:.6g} (not a metric)")
    for problem in leg.problems:
        print(f"GATE: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
