"""Phase-II impact-analysis performance: snapshot-resume vs full rerun,
plus the predecoded interpreter fast path.

The dominant Phase-II cost is re-executing the sample once per candidate ×
mechanism; snapshot-resume checkpoints the guest at each candidate's first
interception site and replays only the divergent suffix.  This bench pins:

* **equivalence** — snapshot-resume and full reruns produce identical
  outcomes on a crafted sample whose compute preamble dwarfs its payload;
* **speedup** — ≥2× end-to-end on a sample with ≥6 candidate-mechanism runs
  (the paper-shaped case: long unpack loop, several infection markers);
* **interpreter** — the untainted fast path beats the recording interpreter
  by a healthy margin on straight-line compute (≥1.15× asserted; the real
  number lands in the artifact).

Artifacts: ``_artifacts/impact.txt`` (human-readable numbers),
``_artifacts/impact_baseline.json`` (machine-readable per-sample latency
baseline for regression eyeballing), and ``_artifacts/impact_profile.txt``
(per-family hot-path attribution, so a BENCH_impact regression names the
handler/tier/phase that moved).
"""

from __future__ import annotations

import gc
import json
import time

from repro import obs
from repro.core.candidate import select_candidates
from repro.core.impact import ImpactAnalyzer
from repro.core.pipeline import AutoVac
from repro.corpus import all_families
from repro.vm import superblock as vm_superblock
from repro.corpus.builder import (
    MUTEX_ALL_ACCESS,
    AsmBuilder,
    frag_beacon,
    frag_exit,
    frag_persist_run_key,
)
from repro.vm import CPU, assemble
from repro.winapi import Dispatcher
from repro.winenv import SystemEnvironment

from benchutil import min_wall_seconds, paired_overhead, write_artifact

#: 6-instruction unpack loop body → 24k-step compute preamble.
UNPACK_ROUNDS = 4000

#: Profiled analyses per family behind the environment-restore share that
#: CI gates at 2% (see test_write_artifacts).
PROFILE_REPEATS = 5


def _bench_sample():
    """Paper-shaped worst case for full reruns: a long unpacking loop, then
    three infection-marker checks (6 candidate-mechanism runs), then a
    beacon + persistence payload."""
    b = AsmBuilder("impact_bench")
    b.comment("unpack-style compute preamble")
    b.emit(f"    mov ecx, {UNPACK_ROUNDS}")
    loop = b.label("unpack")
    b.emit(
        "    mov eax, ecx",
        "    imul eax, 13",
        "    xor eax, 0x5a5a",
        "    add ebx, eax",
        "    dec ecx",
        f"    jnz {loop}",
    )
    infected = "infected"
    for i in (1, 2, 3):
        name = b.string(f"Global\\impact-bench-{i}")
        b.call("OpenMutexA", hex(MUTEX_ALL_ACCESS), "0", name)
        b.emit("    test eax, eax", f"    jnz {infected}")
        b.call("CreateMutexA", "0", "0", name)
    frag_beacon(b, "bench.badguy-domain.biz", rounds=4, payload="SCAN")
    frag_persist_run_key(b, "benchsvc", "c:\\windows\\system32\\bench.exe")
    b.emit("    halt")
    b.label(infected)
    frag_exit(b, 0)
    return b.build(family="bench", category="bench")


def _full_rerun(program, candidates, natural, analyzer=None):
    """The full-rerun path (the restore-failure fallback) for every
    candidate: a loop of :meth:`ImpactAnalyzer.analyze` calls."""
    analyzer = analyzer or ImpactAnalyzer()
    return [o for c in candidates for o in analyzer.analyze(program, c, natural)]


def _outcome_fingerprint(analyze):
    """Each outcome of ``analyze(analyzer)`` on a fresh analyzer, with the
    step count and API-call context keys of the mutated trace its
    ``_classify`` got."""
    analyzer = ImpactAnalyzer()
    classify = analyzer._classify
    mutated = []

    def recording_classify(candidate, mechanism, trace, natural, *args, **kwargs):
        mutated.append((trace.steps, [e.context_key() for e in trace.api_calls]))
        return classify(candidate, mechanism, trace, natural, *args, **kwargs)

    analyzer._classify = recording_classify
    outcomes = analyze(analyzer)
    assert len(mutated) == len(outcomes)
    return [
        (
            o.candidate.key,
            o.mechanism.value,
            o.immunization.value,
            sorted(e.value for e in o.effects),
            o.mutation_hits,
            steps,
            calls,
        )
        for o, (steps, calls) in zip(outcomes, mutated)
    ]


def test_snapshot_speedup():
    program = _bench_sample()
    report = select_candidates(program)
    candidates = [
        c for c in report.candidates if c.influences_control_flow or c.had_failure
    ]
    assert len(candidates) >= 3, "bench sample must yield >=6 candidate-mechanisms"

    # Superblocks are held off for the legacy-vs-snapshot comparison: they
    # speed up full reruns (the long unpack preamble is exactly what they
    # compile), which would understate the *snapshot mechanism's* own win.
    # The combined number (both optimizations on) is recorded alongside.
    def snapshot_resume(analyzer):
        return analyzer.analyze_candidates(program, candidates, report.trace)

    with obs.disabled(), vm_superblock.overridden(False):
        legacy = _outcome_fingerprint(
            lambda analyzer: _full_rerun(program, candidates, report.trace, analyzer)
        )
        assert _outcome_fingerprint(snapshot_resume) == legacy
        legacy_s, _ = min_wall_seconds(
            lambda: _full_rerun(program, candidates, report.trace),
            repeats=3,
        )
        snap_s, _ = min_wall_seconds(
            lambda: snapshot_resume(ImpactAnalyzer()),
            repeats=3,
        )
    with obs.disabled():
        assert _outcome_fingerprint(snapshot_resume) == legacy
        combined_s, _ = min_wall_seconds(
            lambda: snapshot_resume(ImpactAnalyzer()),
            repeats=3,
        )
    speedup = legacy_s / snap_s
    assert speedup >= 2.0, f"snapshot-resume speedup {speedup:.2f}x < 2x"

    lines = [
        "Phase-II impact analysis: snapshot-resume vs full rerun",
        f"sample: {UNPACK_ROUNDS * 6:,}-step unpack preamble, "
        f"{len(candidates)} candidates x 2 mechanisms",
        f"full-rerun wall (superblocks off):      {legacy_s * 1e3:8.2f} ms",
        f"snapshot-resume wall (superblocks off): {snap_s * 1e3:8.2f} ms",
        f"snapshot-mechanism speedup:             {speedup:8.2f}x",
        f"snapshot + superblocks wall:            {combined_s * 1e3:8.2f} ms",
        f"combined speedup vs full rerun:         {legacy_s / combined_s:8.2f}x",
        "",
    ]
    test_snapshot_speedup.lines = lines
    test_snapshot_speedup.numbers = {
        "candidates": len(candidates),
        "legacy_seconds": legacy_s,
        "snapshot_seconds": snap_s,
        "speedup": speedup,
        "combined_seconds": combined_s,
        "combined_speedup": legacy_s / combined_s,
    }


#: Paired full-rerun/snapshot rounds per family (the median ratio is the
#: speedup), each side the best of ``SPEEDUP_REPEATS`` runs.
SPEEDUP_PAIRS = 21
SPEEDUP_REPEATS = 3


def test_per_family_snapshot_speedup(family_analyses):
    """Snapshot-resume vs full rerun on the real corpus families.

    Equivalence first — snapshot-resume and the full rerun must yield
    identical outcomes — then the wall-clock claim: snapshot-resume beats
    full reruns by >=1.3x on at least two families (the crafted sample
    above pins >=2x; real families carry more API-call payload per step,
    so the floor is lower).  The speedup is the median of
    ``SPEEDUP_PAIRS`` paired full-rerun/snapshot wall-time ratios
    (:func:`benchutil.paired_overhead`: warm, alternating order, GC off
    inside a pair); the equivalence runs warm both sides up."""
    results = {}
    with obs.disabled(), vm_superblock.overridden(False):
        for family, (program, _analysis) in sorted(family_analyses.items()):
            report = select_candidates(program)
            candidates = [
                c
                for c in report.candidates
                if c.influences_control_flow or c.had_failure
            ]
            if not candidates:
                continue

            def full_rerun(analyzer=None):
                return _full_rerun(program, candidates, report.trace, analyzer)

            def snapshot_resume(analyzer=None):
                return (analyzer or ImpactAnalyzer()).analyze_candidates(
                    program, candidates, report.trace
                )

            legacy = _outcome_fingerprint(full_rerun)
            assert _outcome_fingerprint(snapshot_resume) == legacy
            overhead, legacy_s, snap_s, _ = paired_overhead(
                full_rerun,
                snapshot_resume,
                pairs=SPEEDUP_PAIRS,
                side_repeats=SPEEDUP_REPEATS,
            )
            results[family] = {
                "legacy_seconds": legacy_s,
                "snapshot_seconds": snap_s,
                "speedup": 1.0 + overhead,
            }

    assert results
    fast_enough = [f for f, r in results.items() if r["speedup"] >= 1.3]
    assert len(fast_enough) >= 2, {
        f: round(r["speedup"], 2) for f, r in results.items()
    }

    lines = [
        "Per-family snapshot-resume speedup (superblocks off; best times, "
        f"median ratio of {SPEEDUP_PAIRS} pairs):"
    ]
    for family, r in results.items():
        lines.append(
            f"  {family:<12} full rerun {r['legacy_seconds'] * 1e3:8.2f} ms"
            f"   resume {r['snapshot_seconds'] * 1e3:8.2f} ms"
            f"   {r['speedup']:5.2f}x"
        )
    lines.append("")
    test_per_family_snapshot_speedup.lines = lines
    test_per_family_snapshot_speedup.numbers = results


SPIN = """
    mov ecx, 60000
spin:
    mov eax, ecx
    imul eax, 17
    xor eax, 0x1234
    add edx, eax
    shr eax, 3
    dec ecx
    jnz spin
    halt
"""


def test_interpreter_fast_path():
    program = assemble(SPIN, name="spin")

    def run(force_slow: bool):
        env = SystemEnvironment()
        proc = env.spawn_process("b.exe")
        cpu = CPU(
            program,
            environment=env,
            process=proc,
            dispatcher=Dispatcher(env, proc),
            max_steps=600_000,
            record_instructions=False,
        )
        if force_slow:
            cpu._allow_fast = False
        started = time.perf_counter()
        cpu.run()
        elapsed = time.perf_counter() - started
        return elapsed, cpu.steps

    with obs.disabled():
        slow_s, (_, n_steps) = min_wall_seconds(lambda: run(True), repeats=3)
        fast_s, (_, fast_steps) = min_wall_seconds(lambda: run(False), repeats=3)
    assert n_steps == fast_steps  # both paths executed the same instructions
    speedup = slow_s / fast_s
    assert speedup >= 1.15, f"fast-path speedup {speedup:.2f}x < 1.15x"

    fast_rate = n_steps / fast_s / 1e6
    slow_rate = n_steps / slow_s / 1e6
    lines = [
        "Predecoded interpreter: untainted fast path vs recording path",
        f"workload: {n_steps:,} straight-line ALU steps",
        f"recording path:  {slow_rate:8.2f} Msteps/s",
        f"fast path:       {fast_rate:8.2f} Msteps/s",
        f"per-step speedup:{speedup:8.2f}x",
        "",
    ]
    test_interpreter_fast_path.lines = lines
    test_interpreter_fast_path.numbers = {
        "steps": n_steps,
        "slow_msteps_per_s": slow_rate,
        "fast_msteps_per_s": fast_rate,
        "speedup": speedup,
    }


def test_write_artifacts(family_analyses):
    """Render impact.txt + the per-sample latency baseline (runs last).

    Per-family timing is best-of-3 with observability off (the committed
    baseline regenerates under the same protocol, so the regression gate
    compares like with like).
    """
    per_sample = {}
    with obs.disabled():
        for family, (program, _analysis) in sorted(family_analyses.items()):
            seconds, _ = min_wall_seconds(
                lambda: AutoVac().analyze(program), repeats=3
            )
            per_sample[family] = seconds

    snap = getattr(test_snapshot_speedup, "numbers", {})
    per_family_snap = getattr(test_per_family_snapshot_speedup, "numbers", {})
    interp = getattr(test_interpreter_fast_path, "numbers", {})
    lines = list(getattr(test_snapshot_speedup, "lines", []))
    lines += list(getattr(test_per_family_snapshot_speedup, "lines", []))
    lines += list(getattr(test_interpreter_fast_path, "lines", []))
    lines.append("Per-sample end-to-end pipeline latency (best of 3, obs off):")
    for family, seconds in per_sample.items():
        lines.append(f"  {family:<12} {seconds * 1e3:8.2f} ms")
    write_artifact("impact.txt", "\n".join(lines) + "\n")

    write_artifact(
        "impact_baseline.json",
        json.dumps(
            {
                "snapshot_resume": snap,
                "snapshot_resume_per_family": per_family_snap,
                "interpreter": interp,
                "per_sample_seconds": per_sample,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )

    # Attribution rider: profiled analyses per family, outside the timed
    # section — a per_sample_seconds regression then comes with the
    # handler/tier/phase that moved.
    from repro.core.stages import ANALYZE_PATH
    from repro.obs.prof import _self_cells, render_table

    # Benchmark-wide share of the environment snapshot/restore paths.  The
    # per-family tables below can't carry this: the smallest families run
    # for ~2ms total, so a fixed ~40µs restore is a big *percentage* there
    # while being noise in absolute terms — the honest gate (CI perf-smoke)
    # is the share across the whole benchmark.  Each path is summed over
    # the stages it ran under (``pipeline.analyze;<stage>;snapshot;…``).
    # The denominator is the self time of the hot-path cells only: the
    # ``pipeline.analyze`` and ``pipeline.analyze;<stage>`` cells' self
    # time is stage work no hot-path site covers, and counting it would
    # loosen the 2% gate.
    ENV_PATHS = (
        "snapshot;capture;env_snapshot",
        "snapshot;resume;env_restore",
    )
    env_self = {path: 0.0 for path in ENV_PATHS}
    grand_self = 0.0
    stage_prefix = ANALYZE_PATH + ";"

    # The rider measures *attribution*, not wall-clock (the timed sections
    # above keep GC on): a gen-2 collection pause (~150µs here) lands on
    # whichever profile node is active when the collector fires, and inside
    # a ~20µs restore it would swamp the node's self-time.  Collection is
    # deferred around each profiled analysis so self-times name the code
    # that ran, not the allocator's amortized debt.
    #
    # The shares sum PROFILE_REPEATS analyses per family: with one, both
    # the numerator and the denominator swing from run to run (the
    # restore share read 1.23-1.63% over seven runs of the same code).
    # Five give the same mean on the same code with a narrower spread.
    sections = [
        f"Per-family hot paths (last of {PROFILE_REPEATS} profiled analyses"
        " each, GC deferred)"
    ]
    for family, (program, _analysis) in sorted(family_analyses.items()):
        for _ in range(PROFILE_REPEATS):
            obs.prof.reset()
            gc.disable()
            try:
                with obs.profiled():
                    profiled = AutoVac().analyze(program)
            finally:
                gc.enable()
                gc.collect()
            for path, (_count, self_seconds) in _self_cells(profiled.profile).items():
                if not path.startswith(stage_prefix):
                    if path != ANALYZE_PATH:
                        grand_self += self_seconds
                    continue
                suffix = path[len(stage_prefix):].partition(";")[2]
                if suffix:
                    grand_self += self_seconds
                if suffix in env_self:
                    env_self[suffix] += self_seconds
        sections.append("")
        sections.append(f"[{family}]")
        sections.append(render_table(profiled.profile, top=10).rstrip("\n"))
    obs.prof.reset()

    sections.append("")
    sections.append("[aggregate]")
    sections.append(
        f"benchmark self = hot-path cells only, stage cells excluded:"
        f" {grand_self * 1e3:.1f} ms"
    )
    sections.append(
        "path (summed over stages)                          self   share-of-benchmark-self"
    )
    for path in ENV_PATHS:
        if env_self[path] > 0.0:
            share = 100.0 * env_self[path] / (grand_self or 1.0)
            label = f"{stage_prefix}*;{path}"
            sections.append(f"{label:<48} {env_self[path] * 1e6:9.1f}us  {share:5.2f}%")
    write_artifact("impact_profile.txt", "\n".join(sections) + "\n")
