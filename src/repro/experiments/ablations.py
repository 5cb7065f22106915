"""Ablations of LiteRace's design decisions.

The paper motivates several implementation choices qualitatively; these
experiments measure each:

1. **Atomic timestamping of CAS operations** (§4.2).  Programs that build
   their own locks from compare-and-exchange must have the CAS and its
   timestamp taken atomically; the paper reports that omitting the extra
   critical section "results in hundreds of false data races".  We run a
   correctly synchronized CAS-lock program with and without atomic
   timestamping and count the false races and merge inconsistencies.

2. **Allocation as page synchronization** (§4.3).  Without treating
   allocation routines as synchronization on the containing page, memory
   recycled between threads produces false races.

3. **128 hashed timestamp counters** (§4.2).  A single global counter
   serializes every sync op on one cache line; the hashed array removes
   the contention.  We sweep the counter count on the sync-heavy LKRHash.

4. **Sampler parameter sweep** (§3.4 / Table 3).  Burst length and
   back-off schedule trade detection for sampling rate.

5. **Loop-granularity sampling** (§7, future work).  Function-granularity
   sampling degenerates on compute kernels with hot inline loops; the
   ``split_loops`` rewriting restores a low effective sampling rate while
   preserving detection of the planted cold race.

6. **Lockset as the log consumer** (§2/§4.4).  The same sampled logs fed
   to an Eraser-style detector: sampling transfers, but the precision gap
   that made the paper choose happens-before is plainly visible.
"""

from __future__ import annotations

from typing import Iterable

from ..analysis.tables import format_percent, format_slowdown, format_table
from ..core.instrument import split_loops
from ..core.literace import LiteRace, run_baseline, run_marked
from ..core.samplers import thread_local_adaptive
from ..runtime.scheduler import RandomInterleaver
from ..workloads.parsec_like import build_parsec_like
from ..workloads.synthetic import cas_lock_program, heap_churn_program
from .. import workloads
from .common import experiment_main, paper_note

__all__ = ["run", "atomic_timestamps", "alloc_as_sync",
           "counter_contention", "sampler_sweep", "loop_granularity",
           "lockset_consumer"]


def atomic_timestamps(scale: float = 1.0, seeds: Iterable[int] = (1, 2, 3)) -> str:
    """False races caused by torn CAS timestamps (§4.2)."""
    rows = []
    for seed in seeds:
        program = cas_lock_program(seed, threads=6,
                                   iterations=max(20, int(400 * scale)))
        for atomic in (True, False):
            tool = LiteRace(sampler="Full", atomic_timestamps=atomic,
                            seed=seed)
            result = tool.run(program)
            rows.append([
                seed,
                "atomic (extra critical section)" if atomic
                else "torn (no critical section)",
                result.report.num_static,
                result.report.num_dynamic,
                result.merge_inconsistencies,
            ])
    table = format_table(
        ["seed", "timestamping", "false static races",
         "false dynamic races", "merge inconsistencies"],
        rows,
        title="Ablation 1 (§4.2): atomic timestamping of user-level CAS locks",
    )
    return table + paper_note(
        "The program is correctly synchronized, so every reported race is "
        "false.  \"Our experience shows that this additional effort is "
        "absolutely essential in practice and otherwise results in hundreds "
        "of false data races.\""
    )


def alloc_as_sync(scale: float = 1.0, seeds: Iterable[int] = (1, 2, 3)) -> str:
    """False races on recycled heap memory (§4.3)."""
    rows = []
    for seed in seeds:
        program = heap_churn_program(seed, threads=6,
                                     iterations=max(10, int(250 * scale)))
        for enabled in (True, False):
            tool = LiteRace(sampler="Full", alloc_as_sync=enabled, seed=seed)
            result = tool.run(program)
            rows.append([
                seed,
                "alloc = page sync" if enabled else "alloc ignored",
                result.report.num_static,
                result.report.num_dynamic,
            ])
    table = format_table(
        ["seed", "allocation handling", "false static races",
         "false dynamic races"],
        rows,
        title="Ablation 2 (§4.3): allocation routines as page "
              "synchronization",
    )
    return table + paper_note(
        "\"A naive detector might report a data-race between accesses to "
        "the reallocated memory with accesses performed during a prior "
        "allocation.\""
    )


def counter_contention(scale: float = 1.0,
                       seeds: Iterable[int] = (1,)) -> str:
    """Timestamp-counter contention on the sync-heavy LKRHash (§4.2)."""
    seed = next(iter(seeds))
    program = workloads.build("lkrhash", seed=seed, scale=max(scale, 0.05))
    base = run_baseline(program, seed=seed)
    rows = []
    for counters in (1, 8, 128, 1024):
        tool = LiteRace(sampler="TL-Ad", num_counters=counters, seed=seed)
        result = tool.run(program)
        rows.append([
            counters,
            format_slowdown(result.run.clock / base.baseline_time),
            f"{result.run.sync_log_cycles:,}",
        ])
    table = format_table(
        ["timestamp counters", "LiteRace slowdown", "sync-log cycles"],
        rows,
        title="Ablation 3 (§4.2): one global timestamp counter vs 128 "
              "hashed counters (LKRHash)",
    )
    return table + paper_note(
        "\"The contention introduced by this global counter can "
        "dramatically slow down the performance of LiteRace-instrumented "
        "programs on multi-processors.\""
    )


def sampler_sweep(scale: float = 0.5, seeds: Iterable[int] = (1,)) -> str:
    """Burst length and back-off schedule sweep on Apache-1."""
    seed = next(iter(seeds))
    program = workloads.build("apache-1", seed=seed, scale=scale)
    variants = []
    for burst in (2, 5, 10, 20):
        variants.append((f"burst={burst}, paper schedule",
                         thread_local_adaptive(burst_length=burst)))
    for label, schedule in [
        ("burst=10, floor 1%", (1.0, 0.1, 0.01)),
        ("burst=10, floor 0.01%", (1.0, 0.1, 0.01, 0.001, 0.0001)),
        ("burst=10, steep (100%, 1%, 0.1%)", (1.0, 0.01, 0.001)),
    ]:
        variants.append((label, thread_local_adaptive(schedule=schedule)))
    # Distinct short names so the marked harness can tell them apart.
    samplers = []
    for index, (label, sampler) in enumerate(variants):
        sampler.short_name = f"V{index}"
        samplers.append(sampler)
    marked = run_marked(program, samplers,
                        scheduler=RandomInterleaver(seed), seed=seed)
    full_report, by_sampler = marked.detect()
    full = full_report.static_races
    rows = []
    for index, (label, _) in enumerate(variants):
        detected = by_sampler[f"V{index}"].static_races & full
        esr = (marked.sampler_memory_count(f"V{index}")
               / max(1, marked.log.memory_count))
        rows.append([
            label,
            format_percent(esr),
            f"{len(detected)}/{len(full)}",
            format_percent(len(detected) / len(full) if full else 1.0),
        ])
    table = format_table(
        ["TL-Ad variant", "ESR", "races", "detection"],
        rows,
        title="Ablation 4 (§3.4): burst length and back-off schedule "
              "(Apache-1)",
    )
    return table + paper_note(
        "The paper fixes burst length 10 and schedule 100%/10%/1%/0.1%; "
        "this sweep shows the trade-off those defaults buy."
    )


def loop_granularity(scale: float = 0.5, seeds: Iterable[int] = (1,)) -> str:
    """§7: loop splitting restores sampling on compute kernels."""
    seed = next(iter(seeds))
    program = build_parsec_like(seed=seed, scale=scale)
    split = split_loops(program, min_trip_count=1000, chunk=100)
    rows = []
    for label, prog in (("function granularity", program),
                        ("loop granularity (split_loops)", split)):
        # split_loops re-finalizes PCs and translates the ground truth.
        planted = {k for p in prog.planted_races for k in p.keys}
        base = run_baseline(prog, seed=seed)
        result = LiteRace(sampler="TL-Ad", seed=seed).run(prog)
        found = len(planted & result.report.static_races)
        rows.append([
            label,
            prog.num_functions,
            format_percent(result.effective_sampling_rate),
            format_slowdown(result.run.clock / base.baseline_time),
            f"{found}/{len(planted)}",
        ])
    table = format_table(
        ["configuration", "#fns", "ESR", "LiteRace slowdown",
         "planted races found"],
        rows,
        title="Ablation 5 (§7): loop-granularity sampling on a "
              "PARSEC-like kernel",
    )
    return table + paper_note(
        "\"Sampling at a loop-level granularity might help improve the "
        "efficiency of LiteRace for these applications.\""
    )


def lockset_consumer(scale: float = 0.5, seeds: Iterable[int] = (1,)) -> str:
    """§2/§4.4: the sampler feeding a lockset detector instead.

    The paper chose happens-before for the offline analysis but notes the
    sampling approach "could equally well be applied to a lockset-based
    algorithm".  This ablation runs Eraser over the same marked log: the
    thread-local sampler preserves most of lockset's detections too — and
    the precision gap (false positives on non-lock synchronization) is
    visible in the extra reports.
    """
    from ..detector.lockset import LocksetDetector

    seed = next(iter(seeds))
    program = workloads.build("apache-1", seed=seed, scale=scale)
    marked = run_marked(program, ["TL-Ad"],
                        scheduler=RandomInterleaver(seed), seed=seed)
    planted = {k for p in program.planted_races for k in p.keys}

    hb_full, hb_by_sampler = marked.detect()
    hb_sampled = hb_by_sampler["TL-Ad"]
    ls_full = LocksetDetector().feed_all(marked.log.events).report
    ls_sampled = LocksetDetector().feed_all(
        marked.sampler_log("TL-Ad").events).report

    def row(label, hb_report, ls_report):
        hb_true = len(hb_report.static_races & planted)
        ls_addrs = ls_report.addresses
        true_addrs = {hb_report.examples[k].addr
                      for k in hb_report.static_races}
        return [
            label,
            f"{hb_true}/{len(planted)}",
            len(hb_report.static_races - planted),
            len(ls_addrs),
            len(ls_addrs - hb_full.addresses),
        ]

    table = format_table(
        ["log", "HB races (true)", "HB false", "lockset racy addrs",
         "lockset-only (imprecise)"],
        [row("full", hb_full, ls_full),
         row("TL-Ad sampled", hb_sampled, ls_sampled)],
        title="Ablation 6 (§2/§4.4): happens-before vs lockset as the "
              "log consumer (Apache-1)",
    )
    return table + paper_note(
        "\"Our approach to sampling could equally well be applied to a "
        "lockset-based algorithm\" — but lockset cannot see event/fork "
        "synchronization and reports extra (false) racy addresses even on "
        "the full log, which is why LiteRace uses happens-before."
    )


def run(scale: float = 1.0, seeds: Iterable[int] = (1, 2, 3),
        jobs: int = None, use_cache: bool = None) -> str:
    # The ablations vary tool internals (cost constants, custom sampler
    # objects, instrumentation passes), so they run outside the engine's
    # cell cache; ``jobs``/``use_cache`` are accepted for CLI uniformity.
    seeds = tuple(seeds)
    parts = [
        atomic_timestamps(scale, seeds),
        alloc_as_sync(scale, seeds),
        # Contention is a per-sync-op ratio, independent of run length; a
        # reduced scale keeps the 4-configuration sweep quick.
        counter_contention(min(scale, 0.3), seeds[:1]),
        sampler_sweep(min(scale, 0.5), seeds[:1]),
        loop_granularity(min(scale, 0.5), seeds[:1]),
        lockset_consumer(min(scale, 0.5), seeds[:1]),
    ]
    return "\n\n".join(parts)


if __name__ == "__main__":
    experiment_main(run, __doc__.splitlines()[0])
