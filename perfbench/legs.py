"""The benchmark's three workloads and their correctness gates.

Each workload object has the same life cycle, driven by ``run.py``:

* ``reset()`` then ``setup_round()`` -- one set-up round; ``run.py`` times
  several and reports their median as ``setup_s``;
* the timed work -- ``measure(seconds)`` repetitions for the serial
  workloads, ``phase(closed_loop | open_loop, ...)`` for serve;
* ``check()`` -- the correctness gate, returning a list of problems;
* ``attempted`` / ``failed`` -- operations tried and failed so far.

The program only ever sees generated inputs: the benchmark ``--seed`` is
the workload seed of every ``repro run``, detection cell and replay
template.  Outputs for pinned seeds must match the digests in
``pins.json``; for any other seed the gate falls back to the paper's
no-false-positive guarantee (every reported race is a planted one).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
PINS = os.path.join(HERE, "pins.json")

#: Programs of the serial workloads.  Each repetition takes about 3 s, so a
#: run fits a dozen and ``work_s`` is a median over all of them.
#: dryad is left out: it cannot shrink below 740,162 steps (8-10 s per run
#: or cell), too few of those fit in a run for their median to be steady on
#: a shared host (see NOTES.md).  lkrhash is the pipeline's sync-dense
#: program.
PIPELINE_RUNS = ("apache-1", "lkrhash", "firefox-start")
PIPELINE_SCALE = 0.05
CELL_BENCHMARKS = ("apache-1", "firefox-start")
CELL_SCALE = 0.05

#: One reference burst: a fixed pure-Python integer loop that shares no code
#: with the program.  The host's speed drifts by a third over minutes (see
#: NOTES.md); the median burst time within a run tracks that drift, so the
#: serial workloads' wall times are divided by it.
REFERENCE_LOOPS = 400_000
#: The median burst time on the 2-vCPU VM the benchmark was defined on; the
#: serial workloads' ``work_s`` is wall time scaled to that host speed.
REFERENCE_NOMINAL_S = 0.032
#: Bursts after each serial repetition (about 3% of its time); traced serve
#: runs ten times as many before and after its untraced closed loop.
REFERENCE_BURSTS = 3

SERVE_SCENARIO = "kv-store"
#: The loadgen template scale: a full-length kv-store run (4,712 events,
#: 7 races) per submission.
SERVE_TEMPLATE_SCALE = 0.02
SERVE_TEMPLATES = 2
SERVE_SEGMENT_EVENTS = 512
SERVE_CONNECTIONS = 2
#: Closed-loop completions per timed batch; ``work_s`` on serve is the CPU
#: time of this many completions.
SERVE_BATCH = 100
#: Open-loop rate in submissions/s: about half the closed-loop capacity at
#: 2 connections measured at the seed commit (~150/s on a 2-vCPU VM),
#: frozen here so every later commit is offered the same load.
SERVE_OPEN_RATE = 75.0
#: Open-loop submissions per latency window (p95 then has 12 samples beyond
#: it).  Ack percentiles are medians over windows, so a slow spell of the
#: host moves one window, not the whole figure.
SERVE_WINDOW = 250
#: STATUS sampling interval of traced runs.  Each STATUS merges the whole
#: fleet report under the server lock: polling at 4 Hz cost ~13% of the
#: closed-loop throughput at the seed commit, at 1 Hz it is within noise.
SERVE_POLL_S = 1.0
SERVE_COUNTERS = ("segments_ingested", "events_analyzed", "bytes_ingested",
                  "segment_errors", "protocol_errors", "worker_failures",
                  "clients_aborted", "connections_torn")

_RACE_LINE = re.compile(r"^\[\d+\] (.+?) <-> (.+?) \[", re.MULTILINE)


def load_pins() -> Dict:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def window_percentile(samples: Sequence[Optional[float]], q: float) -> float:
    """Median over runs of ``SERVE_WINDOW`` consecutive samples of each
    run's ``q``-th percentile (missing samples skipped; a short tail joins
    no window unless it is the only one)."""
    values = [v for v in samples if v is not None] or [0.0]
    windows = [values[i:i + SERVE_WINDOW]
               for i in range(0, len(values), SERVE_WINDOW)]
    if len(windows) > 1 and len(windows[-1]) < SERVE_WINDOW:
        windows.pop()
    return statistics.median(percentile(window, q) for window in windows)


def reference_bursts(count: int) -> List[float]:
    """Wall seconds of ``count`` reference bursts."""
    times = []
    for _ in range(count):
        began = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOPS):
            total += (i * 7) % 13
        times.append(time.perf_counter() - began)
    return times


def normalized(wall_s: float, bursts: Sequence[float]) -> float:
    """``wall_s`` scaled to the reference host speed."""
    return wall_s * REFERENCE_NOMINAL_S / statistics.median(bursts)


def planted_keys(program) -> set:
    return {key for site in program.planted_races for key in site.keys}


def cold_start(programs: Sequence[str], seed: int, scale: float) -> None:
    """Import the CLI and build ``programs`` in a fresh interpreter -- what
    every `repro run` pays before it executes."""
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import repro.__main__, repro.analysis.detection\n"
            "from repro import workloads\n"
            "for name in sys.argv[4:]:\n"
            "    workloads.build(name, seed=int(sys.argv[2]),"
            " scale=float(sys.argv[3]))\n")
    subprocess.run([sys.executable, "-c", code, SRC, str(seed), str(scale),
                    *programs], check=True, stdin=subprocess.DEVNULL)


class SerialLeg:
    """A workload made of repeated, identical, serial repetitions."""

    name = ""
    #: Set-up rounds per run (cold starts are cheap).
    setup_rounds = 5

    def __init__(self, seed: int, scale: float, pins: Optional[Dict],
                 names: Sequence[str]):
        self.seed = seed
        self.scale = scale
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Reference burst times taken between repetitions.
        self.bursts: List[float] = []
        #: Figures printed for reading but not reported as metrics.
        self.info: Dict[str, float] = {}
        #: Every repetition's output, per program, in order.
        self.outputs: Dict[str, list] = {name: [] for name in names}

    def programs(self) -> Sequence[str]:
        return tuple(self.outputs)

    def reset(self) -> None:
        pass

    def setup_round(self) -> None:
        cold_start(self.programs(), self.seed, self.scale)

    def rep(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, bursts: int = 0) -> List[float]:
        """Wall time of each repetition; a new one starts only if the last
        one's duration still fits in ``seconds``.  ``bursts`` reference
        bursts follow each repetition (see ``self.bursts``)."""
        walls: List[float] = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            self.rep()
            walls.append(time.perf_counter() - began)
            self.bursts.extend(reference_bursts(bursts))
            if time.perf_counter() - start + walls[-1] > seconds:
                return walls

    def digest(self, output) -> str:
        raise NotImplementedError

    def unplanted(self, program, output) -> list:
        """Races ``output`` reports that ``program`` does not plant."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Repetitions must agree; pinned seeds must match their digest,
        other seeds may report planted races only."""
        from repro import workloads

        pinned = self._pinned()
        for name, outputs in self.outputs.items():
            digests = [self.digest(output) for output in outputs]
            if len(set(digests)) > 1:
                self._fail(f"{name}: output differs between repetitions")
            if not outputs:
                continue
            if pinned is not None:
                if digests[0] != pinned.get(name):
                    self._fail(f"{name}: digest {digests[0][:16]} does not "
                               f"match the pinned one")
                continue
            extra = self.unplanted(workloads.build(
                name, seed=self.seed, scale=self.scale), outputs[0])
            if extra:
                self._fail(f"{name}: {len(extra)} reported race(s) are not "
                           f"planted: {extra}")
        return self.problems

    def _pinned(self) -> Optional[Dict[str, str]]:
        if self.pins is None:
            return None
        table = self.pins.get(self.name, {})
        if table.get("scale") != self.scale:
            return None
        return table.get("seeds", {}).get(str(self.seed))

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


class PipelineLeg(SerialLeg):
    """Serial `repro run --sampler TL-Ad` invocations through the CLI."""

    name = "pipeline"

    def __init__(self, seed: int, scale: float = PIPELINE_SCALE,
                 pins: Optional[Dict] = None,
                 runs: Sequence[str] = PIPELINE_RUNS):
        super().__init__(seed, scale, pins, runs)

    def rep(self) -> None:
        import repro.__main__ as cli

        for name in self.programs():
            self.attempted += 1
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(["run", name, "--sampler", "TL-Ad",
                                 "--seed", str(self.seed),
                                 "--scale", str(self.scale)])
            if code != 0:
                self._fail(f"repro run {name} exited {code}")
            self.outputs[name].append(buffer.getvalue())

    def digest(self, output: str) -> str:
        return sha256(output)

    def unplanted(self, program, output: str) -> list:
        planted = {frozenset((program.symbolize(a), program.symbolize(b)))
                   for a, b in planted_keys(program)}
        return sorted(sorted(pair) for pair in _RACE_LINE.findall(output)
                      if frozenset(pair) not in planted)


def cell_digest(result) -> str:
    """Digest of a RunDetection: the full race set, per-sampler detected
    sets and logged counts, and the op counts they are judged against."""
    doc = {
        "benchmark": result.benchmark,
        "seed": result.seed,
        "memory_ops": result.memory_ops,
        "nonstack_memory_ops": result.nonstack_memory_ops,
        "full_races": sorted(result.full_races),
        "rare": sorted(result.rare),
        "frequent": sorted(result.frequent),
        "samplers": {name: {"detected": sorted(outcome.detected),
                            "memory_logged": outcome.memory_logged}
                     for name, outcome in result.samplers.items()},
    }
    return sha256(json.dumps(doc, sort_keys=True))


class CellLeg(SerialLeg):
    """The §5.3 detection cell: one marked execution, 1 + 7 HB passes."""

    name = "detect-cell"

    def __init__(self, seed: int, scale: float = CELL_SCALE,
                 pins: Optional[Dict] = None,
                 benchmarks: Sequence[str] = CELL_BENCHMARKS):
        super().__init__(seed, scale, pins, benchmarks)

    def rep(self) -> None:
        import repro.analysis.detection as detection

        for name in self.programs():
            self.attempted += 1
            self.outputs[name].append(detection.run_detection_cell(
                name, self.seed, scale=self.scale))

    def digest(self, output) -> str:
        return cell_digest(output)

    def unplanted(self, program, output) -> list:
        return sorted(output.full_races - planted_keys(program))


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> List[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children",
                      encoding="ascii") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
    return found


def _cpu_s(pid: int) -> float:
    """User plus system CPU seconds of ``pid`` (all its threads)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def tree_cpu_s(pid: int) -> float:
    """CPU seconds of ``pid`` and its live descendants."""
    total, pending = 0.0, [pid]
    while pending:
        current = pending.pop()
        total += _cpu_s(current)
        pending.extend(_children(current))
    return total


def tree_peak_rss_kb(pid: int) -> int:
    """Sum of the peak resident sizes of ``pid`` and its descendants."""
    total, pending = 0, [pid]
    while pending:
        current = pending.pop()
        total += _vm_hwm_kb(current)
        pending.extend(_children(current))
    return total


class ServeLeg:
    """A live `repro serve` daemon fed by one load-generator process.

    Submissions replay full-length kv-store Full-logging templates through
    ``TelemetryClient`` -- one connection per submission (hello, segments,
    END), at most ``SERVE_CONNECTIONS`` at a time.
    """

    name = "serve"
    #: Each round restarts the daemon.
    setup_rounds = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: (frames, reference race count) per template.
        self.templates: List[Tuple[List[bytes], int]] = []
        picker = random.Random(seed)
        self._picks = [picker.randrange(SERVE_TEMPLATES)
                       for _ in range(4096)]
        self._proc: Optional[subprocess.Popen] = None
        os.makedirs(WORK, exist_ok=True)
        self._socket = os.path.relpath(
            os.path.join(WORK, f"serve-{os.getpid()}.sock"))
        self.address = f"unix:{self._socket}"
        self._lock = threading.Lock()
        self.daemon_start_s: List[float] = []
        #: Figures printed for reading but not reported as metrics.
        self.info: Dict[str, float] = {}

    # -- set-up ------------------------------------------------------------
    def _record_templates(self) -> None:
        import repro.detector.merge as merge
        import repro.eventlog.segment as segment
        from repro import workloads
        from repro.core.literace import LiteRace
        from repro.detector.hb import HappensBeforeDetector
        from repro.eventlog.log import EventLog

        templates = []
        for index in range(SERVE_TEMPLATES):
            seed = self.seed + index
            program = workloads.build(SERVE_SCENARIO, seed=seed,
                                      scale=SERVE_TEMPLATE_SCALE)
            result = LiteRace(sampler="Full", seed=seed).run(program)
            merged = merge.merge_thread_logs(result.log)
            ordered = EventLog()
            ordered.events = merged.events
            frames = segment.split_log(
                ordered, segment_events=SERVE_SEGMENT_EVENTS)
            reference = HappensBeforeDetector()
            reference.feed_all(merged.events)
            races = reference.report.static_races
            if not races:
                self.problems.append("template has no races: the per-"
                                     "submission race check would be vacuous")
            extra = races - planted_keys(program)
            if extra:
                self.problems.append(f"template races not planted: "
                                     f"{sorted(extra)}")
            templates.append((frames, len(races)))
        self.templates = templates

    def _start_daemon(self) -> None:
        from repro.service.client import TelemetryClient

        start = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=SRC)
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--unix", self._socket],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=env,
            start_new_session=True)
        ready, _, _ = select.select([self._proc.stdout], [], [], 60)
        line = self._proc.stdout.readline() if ready else ""
        if "listening" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        with TelemetryClient(self.address, timeout=30) as client:
            client.status()
        self.daemon_start_s.append(time.perf_counter() - start)

    def stop_daemon(self) -> None:
        """SHUTDOWN the daemon (SIGKILL its process group if that fails)
        and wait until every process of the group has exited."""
        from repro.service.client import TelemetryClient
        from repro.service.protocol import ProtocolError

        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            with TelemetryClient(self.address, timeout=10) as client:
                client.shutdown_server()
            proc.wait(timeout=30)
        except (OSError, ProtocolError, subprocess.TimeoutExpired):
            pass
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stdout.close()
            # The shard workers share the daemon's process group.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._socket)

    def reset(self) -> None:
        """Undo the previous set-up round (untimed)."""
        self.stop_daemon()

    def setup_round(self) -> None:
        """Record the templates and bring up a fresh daemon."""
        self._record_templates()
        self._start_daemon()

    # -- load --------------------------------------------------------------
    def status(self) -> Dict:
        from repro.service.client import TelemetryClient

        with TelemetryClient(self.address, timeout=30) as client:
            return client.status()

    def _submit(self, index: int, tracer) -> bool:
        from repro.service.client import TelemetryClient

        frames, expected = self.templates[self._picks[index % 4096]]
        span = (tracer.span("loadgen.request") if tracer is not None
                else contextlib.nullcontext())
        with self._lock:
            self.attempted += 1
        try:
            with span, TelemetryClient(self.address, timeout=60) as client:
                client.hello(f"perfbench#{index}")
                for frame in frames:
                    client.send_segment(frame)
                races = int(client.end_log(len(frames)).get("races", -1))
        except Exception as exc:  # a failed request is counted, not fatal
            problem = f"submission {index}: {type(exc).__name__}: {exc}"
        else:
            if races == expected:
                return True
            problem = (f"submission {index}: server found {races} races, "
                       f"the reference detector {expected}")
        with self._lock:
            self.failed += 1
            self.problems.append(problem)
        return False

    def _lanes(self, body) -> None:
        threads = [threading.Thread(target=body)
                   for _ in range(SERVE_CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def closed_loop(self, seconds: float, tracer=None) -> Dict:
        """Back-to-back submissions on every connection for ``seconds``;
        ``batches`` are the wall seconds of each run of ``SERVE_BATCH``
        consecutive completions."""
        counter = iter(range(10 ** 9))
        finished: List[float] = []
        start = time.perf_counter()
        stop = start + seconds

        def body() -> None:
            while time.perf_counter() < stop:
                with self._lock:
                    index = next(counter)
                if self._submit(index, tracer):
                    with self._lock:
                        finished.append(time.perf_counter())

        self._lanes(body)
        marks = [start] + sorted(finished)[SERVE_BATCH - 1::SERVE_BATCH]
        batches = [b - a for a, b in zip(marks, marks[1:])]
        if not batches and finished:
            # Too slow for one whole batch: extrapolate the rate.
            batches = [(max(finished) - start) * SERVE_BATCH / len(finished)]
        return {"batches": batches, "completed": len(finished),
                "attempted": next(counter)}

    def open_loop(self, seconds: float, tracer=None) -> Dict:
        """``SERVE_OPEN_RATE`` submissions/s on a fixed schedule; each is timed from
        when it was due, so a stall also delays the ones queued behind."""
        total = max(1, int(SERVE_OPEN_RATE * seconds))
        cursor = iter(range(total))
        acks: List[Optional[float]] = [None] * total
        late: List[float] = []
        start = time.perf_counter() + 0.05

        def body() -> None:
            while True:
                with self._lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = start + index / SERVE_OPEN_RATE
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                began = time.perf_counter()
                ok = self._submit(index, tracer)
                done = time.perf_counter()
                with self._lock:
                    late.append(began - due)
                    if ok:
                        acks[index] = done - due

        self._lanes(body)
        return {"acks": acks, "late": late, "attempted": total}

    def phase(self, loop, seconds: float, tracer=None,
              poll: bool = False) -> Dict:
        """Run one load phase between two STATUS snapshots.

        Gates the phase on STATUS ``clients_completed`` matching the
        submissions attempted; with ``poll`` also samples STATUS every
        ``SERVE_POLL_S`` for the queue-depth and shard-lag peaks.
        """
        before = self.status()
        peaks = {"queue_depth_max": 0, "shard_lag_max": 0}
        done = threading.Event()

        def sample() -> None:
            while not done.wait(SERVE_POLL_S):
                status = self.status()
                peaks["queue_depth_max"] = max(peaks["queue_depth_max"],
                                               status["queue_depth"])
                peaks["shard_lag_max"] = max(
                    [peaks["shard_lag_max"], *status["shard_lag"].values()])

        poller = threading.Thread(target=sample) if poll else None
        if poller is not None:
            poller.start()
        start = time.perf_counter()
        try:
            result = loop(seconds, tracer)
        finally:
            end = time.perf_counter()
            done.set()
            if poller is not None:
                poller.join()
        after = self.status()
        completed = after["clients_completed"] - before["clients_completed"]
        if completed != result["attempted"]:
            self.problems.append(
                f"STATUS clients_completed grew by {completed}, "
                f"{result['attempted']} submissions were attempted")
        return {**result, **peaks, "start": start, "end": end,
                "counters": counter_delta(before, after)}

    def cpu_s(self) -> float:
        """CPU seconds used so far by the load generator, the daemon and
        its shard workers."""
        return time.process_time() + tree_cpu_s(self._proc.pid)

    def peak_rss_mb(self) -> float:
        own = _vm_hwm_kb(os.getpid())
        daemon = tree_peak_rss_kb(self._proc.pid) if self._proc else 0
        return (own + daemon) / 1024.0

    def check(self) -> List[str]:
        return self.problems


def counter_delta(before: Dict, after: Dict) -> Dict[str, int]:
    return {key: int(after[key]) - int(before[key]) for key in SERVE_COUNTERS}


def median(values: Sequence[float]) -> float:
    return statistics.median(values)
