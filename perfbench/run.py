#!/usr/bin/env python3
"""AUTOVAC benchmark: end-to-end and per-layer numbers for three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload families --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload population --seed 42 --seconds 10 --trace 1
    python3 perfbench/run.py --workload all        # every workload, one table

``--trace 0`` measures the program at its shipped defaults and reports the
end-to-end metrics.  ``--trace 1`` measures the same way first (for the
tracing overhead), then wraps each layer's public functions
(``layers.py``) and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("families", "population", "protected_host")
#: Variables that select a different program than the shipped one.
REFUSED_ENV = (
    "REPRO_SUPERBLOCKS",
    "REPRO_SNAPSHOT_PICKLE",
    "REPRO_FAULT_PLAN",
    "REPRO_FAULT_ENV_RESTORE",
    "REPRO_FAULT_HANG_SECONDS",
)
#: Timed set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"families": 31, "population": 9, "protected_host": 15}

#: Spans each workload must exercise (calls > 0) in a traced run.
MUST_FIRE = {
    "families": (
        "stage.phase1", "stage.exclusiveness", "stage.impact", "stage.determinism",
        "stage.policy", "vm.run", "winapi.invoke", "winenv.clone", "snapshot.capture",
        "snapshot.restore", "analysis.align", "determinism.analyze",
        "taint.backward_slice", "taint.replay_slice", "policy.synthesize",
        "exclusiveness.filter",
    ),
    "population": (
        "stage.phase1", "stage.exclusiveness", "stage.impact", "stage.determinism",
        "stage.policy", "vm.run", "winapi.invoke", "winenv.clone", "snapshot.capture",
        "snapshot.restore", "analysis.align", "determinism.analyze",
        "policy.synthesize", "exclusiveness.filter",
    ),
    "protected_host": ("vm.run", "winapi.invoke", "winenv.clone", "delivery.decide"),
}
#: Spans (and counts) that must stay at 0 where the workload map predicts no work.
MUST_BE_ZERO = {
    "families": ("delivery.decide",),
    "population": ("delivery.decide",),
    "protected_host": (
        "stage.phase1", "stage.exclusiveness", "stage.impact", "stage.determinism",
        "stage.policy", "snapshot.capture", "snapshot.restore", "analysis.align",
        "determinism.analyze", "taint.backward_slice", "taint.replay_slice",
        "policy.synthesize", "exclusiveness.filter",
    ),
}


def fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment_error() -> Optional[str]:
    refused = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if refused:
        named = [k for k in refused if k in REFUSED_ENV]
        return (
            f"refusing to measure a different program: {', '.join(refused)} set"
            + (f" (selects another tier, codec or fault plan: {', '.join(named)})" if named else "")
        )
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program to measure: {SRC / 'repro'} is missing"
    return None


def provenance() -> Dict[str, str]:
    """Python version, nproc, and the commit (or, outside git, a digest of
    the measured sources)."""
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    from workloads import source_digest

    return {
        "python": platform.python_version(),
        "nproc": str(os.cpu_count()),
        "commit": commit,
        "src_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Measurement:
    """What one measuring phase saw, op by op and pass by pass."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        #: Seconds spent inside operations: the benchmark's own checks and
        #: per-pass bookkeeping between them are not the program's time.
        self.op_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Per pass: a digest of every operation's output.
        self.output_digests: List[str] = []
        #: Per pass (traced phase only): every exact count.
        self.pass_counts: List[Dict[str, int]] = []

    @property
    def throughput(self) -> float:
        return self.attempted / self.op_seconds


class CpuRotation:
    """Pins the process to each CPU it may run on, round robin.

    On a shared virtual machine each vCPU's speed swings on its own, by up
    to 1.6x for 10-20 s at a time.  Moving on to the next CPU between
    operations every ``PIN_SECONDS`` spreads every part of a run over all
    of them, so one contended vCPU does not set the run's figures.  The
    move happens outside the timed operations."""

    PIN_SECONDS = 0.1

    def __init__(self) -> None:
        self._cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
        self._pinned_at = -math.inf

    def next(self) -> None:
        os.sched_setaffinity(0, {next(self._cpus)})
        self._pinned_at = time.perf_counter()

    def tick(self) -> None:
        """Move on if this CPU has had its share."""
        if time.perf_counter() - self._pinned_at >= self.PIN_SECONDS:
            self.next()


def run_pass(workload, m: Measurement, cpus: CpuRotation, tracer=None) -> None:
    """One pass, moving over the CPUs.  Only the operations are timed, not
    building the pass's inputs nor checking its outputs."""
    from repro import obs
    from workloads import output_digest

    op = workload.run if tracer is None else tracer.op(workload.run)
    clock = time.perf_counter
    ops = workload.next_pass()
    # The library keeps finished spans; drop them per pass as the CLI does
    # between runs, so memory does not grow with run length.
    obs.reset()
    before = tracer.snapshot()[1] if tracer is not None else None
    sums = {"impact.outcomes": 0, "impact.effective": 0, "determinism.vaccines": 0}
    outputs = []
    failed = 0
    for item in ops:
        cpus.tick()
        t0 = clock()
        try:
            result = op(item)
        except Exception as exc:  # a crashing operation is a failed one
            m.latencies.append(clock() - t0)
            m.errors.append(f"{item.name}: {type(exc).__name__}: {exc}")
            failed += 1
            continue
        m.latencies.append(clock() - t0)
        output = workload.output(item, result)
        outputs.append((item.name, output))
        if not workload.check(item, output):
            m.errors.append(f"{item.name}: output differs from the expected one")
            failed += 1
        if tracer is not None:
            counts = workload.counts(result)
            sums["impact.outcomes"] += counts.outcomes
            sums["impact.effective"] += counts.effective
            sums["determinism.vaccines"] += counts.vaccines
    problem = workload.end_pass()
    m.op_seconds += sum(m.latencies[-len(ops):])
    if problem is not None:
        m.errors.append(problem)
        failed = len(ops)
    m.attempted += len(ops)
    m.failed += failed
    m.output_digests.append(output_digest(outputs))
    if tracer is not None:
        after = tracer.snapshot()[1]
        counts = {k: after[k] - before[k] for k in after}
        counts.update(sums)
        counts["vm.fast_steps"] = int(obs.metrics.total("vm.fast_steps"))
        counts["vm.superblock_entries"] = int(obs.metrics.total("vm.superblocks.entries"))
        counts["snapshot.resume_failures"] = int(obs.metrics.total("snapshot.resume_failures"))
        counts.update(workload.pass_counts())
        m.pass_counts.append(counts)


def timed_setup(workload, times: List[float], cpus: CpuRotation) -> None:
    """One set-up, on the next CPU and started with no garbage left from
    the pass before it."""
    cpus.next()
    gc.collect()
    t0 = time.perf_counter()
    workload.setup()
    times.append(time.perf_counter() - t0)


def measure(workload, seconds: float, setup_times: List[float],
            cpus: CpuRotation) -> Measurement:
    """Whole untraced passes until ``seconds`` have gone by.

    The timed set-ups are spread over the run between passes: this
    machine's speed drifts on a scale of seconds, and ``setup_s`` should
    see the same drift as the operations do."""
    repeats = SETUP_REPEATS[workload.name]
    m = Measurement()
    start = time.perf_counter()
    while not m.output_digests or time.perf_counter() < start + seconds:
        if time.perf_counter() - start >= seconds * len(setup_times) / repeats:
            timed_setup(workload, setup_times, cpus)
        run_pass(workload, m, cpus)
    while len(setup_times) < repeats:
        timed_setup(workload, setup_times, cpus)
    return m


def measure_traced(workload, seconds: float, tracer, cpus: CpuRotation):
    """Untraced and traced passes, alternating, for about ``seconds`` and
    at least two of each: pairing them keeps drift on a shared machine out
    of the tracing overhead, and two traced passes let the exact counts be
    compared.  Which pass of a pair goes first alternates, so whatever the
    first pass after a switch pays falls on both alike."""
    untraced, traced = Measurement(), Measurement()

    def traced_pass() -> None:
        tracer.install(workload.autovac)
        try:
            run_pass(workload, traced, cpus, tracer)
        finally:
            tracer.uninstall()

    deadline = time.perf_counter() + seconds
    for pair in itertools.count():
        if len(traced.pass_counts) >= 2 and time.perf_counter() >= deadline:
            break
        if pair % 2:
            traced_pass()
            run_pass(workload, untraced, cpus)
        else:
            run_pass(workload, untraced, cpus)
            traced_pass()
    return untraced, traced


def end_to_end(m: Measurement, setup_s: float) -> Dict[str, dict]:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "latency_p50_ms": {"value": statistics.median(m.latencies) * 1e3, "unit": "ms"},
        "latency_p95_ms": {"value": statistics.quantiles(m.latencies, n=100)[94] * 1e3,
                           "unit": "ms"},
        "throughput_per_s": {"value": m.throughput, "unit": "1/s"},
        "ok_ratio": {"value": (m.attempted - m.failed) / m.attempted, "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def per_layer(untraced: Measurement, traced: Measurement, tracer) -> Dict[str, dict]:
    from layers import SPANS

    ops = traced.attempted
    self_s, _ = tracer.snapshot()
    total = {k: sum(p[k] for p in traced.pass_counts) for k in traced.pass_counts[0]}
    metrics: Dict[str, dict] = {}
    for span in SPANS:
        metrics[f"{span}.self_ms"] = {"value": self_s[span] * 1e3 / ops, "unit": "ms"}
        metrics[f"{span}.calls"] = {"value": total[f"{span}.calls"] / ops, "unit": "count"}
    for name in ("vm.steps", "vm.recorded_steps", "vm.fast_steps", "vm.superblock_entries",
                 "impact.outcomes", "snapshot.resume_failures"):
        metrics[name] = {"value": total[name] / ops, "unit": "count"}

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    metrics["impact.effective_ratio"] = {
        "value": ratio(total["impact.effective"], total["impact.outcomes"]), "unit": "ratio"}
    metrics["determinism.vaccine_ratio"] = {
        "value": ratio(total["determinism.vaccines"], total["determinism.analyze.calls"]),
        "unit": "ratio"}
    metrics["delivery.match_ratio"] = {
        "value": ratio(total.get("delivery.calls_matched", 0), total.get("delivery.calls_seen", 0)),
        "unit": "ratio"}
    metrics["trace.latency_ms"] = {
        "value": statistics.fmean(traced.latencies) * 1e3, "unit": "ms"}
    metrics["trace.overhead_pct"] = {
        "value": (untraced.throughput / traced.throughput - 1.0) * 100.0, "unit": "%"}
    return metrics


def binding_problems(workload: str, metrics: Dict[str, dict]) -> List[str]:
    problems = []
    for span in MUST_FIRE[workload]:
        if metrics[f"{span}.calls"]["value"] <= 0:
            problems.append(f"{span} never fired on {workload}: wrapper not bound")
    for span in MUST_BE_ZERO[workload]:
        if metrics[f"{span}.calls"]["value"] != 0:
            problems.append(f"{span} fired on {workload}, where no work is predicted")
    recorded = metrics["vm.recorded_steps"]["value"]
    if (workload == "protected_host") != (recorded == 0):
        problems.append(f"vm.recorded_steps is {recorded} on {workload}")
    return problems


def count_problems(workload: str, seed: int, passes: List[Dict[str, int]]) -> List[str]:
    """Exact counts must repeat pass by pass, and run by run for a seed
    (earlier runs of the same sources leave theirs under ``.state``)."""
    from workloads import remembered

    first = passes[0]
    problems = []
    for i, counts in enumerate(passes[1:], start=2):
        problems.extend(_diff(first, counts, "pass 1", f"pass {i}"))
    earlier = remembered("counts", f"{workload}-{seed}", first)
    problems.extend(_diff(earlier, first, "earlier run", "this run"))
    return problems


def _diff(a: Dict[str, int], b: Dict[str, int], name_a: str, name_b: str) -> List[str]:
    return [
        f"count {key}: {name_a} {a.get(key)} != {name_b} {b.get(key)}"
        for key in sorted(set(a) | set(b))
        if a.get(key) != b.get(key)
    ]


def vm_share_note(metrics: Dict[str, dict]) -> str:
    """Compare the traced ``vm.run`` self share with the profiler artifact's
    ``vm;slow`` share and say whether they agree."""
    share = 100.0 * metrics["vm.run.self_ms"]["value"] / metrics["trace.latency_ms"]["value"]
    artifact = ROOT / "benchmarks" / "_artifacts" / "impact_profile.txt"
    if not artifact.is_file():
        return f"vm.run self share {share:.1f}% (no impact_profile.txt to compare with)"
    slow = [
        float(line.split()[-1].rstrip("%"))
        for line in artifact.read_text().splitlines()
        if line.startswith("vm;slow ")
    ]
    if not slow:
        return f"vm.run self share {share:.1f}% (impact_profile.txt has no vm;slow rows)"
    lo, hi = min(slow), max(slow)
    verdict = "agrees with" if lo <= share <= hi else "DISAGREES with"
    return (
        f"vm.run self share {share:.1f}% {verdict} impact_profile.txt vm;slow "
        f"{lo:.1f}-{hi:.1f}% (the profiler's share excludes unprofiled pipeline "
        f"work and counts the slow tier only; vm.run here covers every tier)"
    )


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def cpu_ticks() -> Optional[List[int]]:
    """The machine's (steal, total) CPU ticks so far, where Linux says."""
    try:
        fields = [int(f) for f in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return None
    return [fields[7], sum(fields)] if len(fields) == 8 else None


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from workloads import WORKLOADS, load_expected

    workload = WORKLOADS[name](seed, load_expected())
    cpus = CpuRotation()
    ticks = cpu_ticks()
    setup_times: List[float] = []
    timed_setup(workload, setup_times, cpus)
    workload.prepare_check()
    gc.collect()

    if not traced:
        untraced = measure(workload, seconds, setup_times, cpus)
        problems = list(untraced.errors)
        metrics = end_to_end(untraced, statistics.median(setup_times))
        attempted, failed = untraced.attempted, untraced.failed
        print(f"# {name}: {untraced.attempted} ops in {len(untraced.output_digests)} passes, "
              f"{len(setup_times)} set-ups, failed_ratio {failed / attempted:g}")
    else:
        from layers import SPANS, LayerTracer

        tracer = LayerTracer()
        untraced, traced_m = measure_traced(workload, seconds, tracer, cpus)
        metrics = per_layer(untraced, traced_m, tracer)
        problems = untraced.errors + traced_m.errors
        problems += binding_problems(name, metrics)
        problems += count_problems(name, seed, traced_m.pass_counts)
        digests = set(untraced.output_digests) | set(traced_m.output_digests)
        if len(digests) != 1:
            problems.append(f"output digests differ across passes and tracing: {sorted(digests)}")
        attempted = untraced.attempted + traced_m.attempted
        failed = untraced.failed + traced_m.failed
        print(f"# {name}: {traced_m.attempted} traced ops in {len(traced_m.pass_counts)} passes")
        latency = metrics["trace.latency_ms"]["value"]
        self_ms = {span: metrics[f"{span}.self_ms"]["value"] for span in SPANS}
        self_ms["(outside spans)"] = latency - sum(self_ms.values())
        for span, ms in self_ms.items():
            print(f"# share {span:<22s} {100.0 * ms / latency:6.2f}% of traced latency")
        if name != "protected_host":
            print(f"# {vm_share_note(metrics)}")
    after = cpu_ticks()
    if ticks and after and after[1] > ticks[1]:
        # Time the hypervisor gave to other guests: high values mean the
        # run's figures are the machine's, not the program's.
        steal = 100.0 * (after[0] - ticks[0]) / (after[1] - ticks[1])
        print(f"# cpu steal {steal:.1f}% of the machine's CPU time during the run")
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"perfbench: ... and {len(problems) - 20} more", file=sys.stderr)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own process (so each has its own peak RSS)."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return fail(f"{name} exited with {proc.returncode}")
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, row in rows.items():
        print(f"== {name}: correct={row['correct']} attempted={row['attempted']} "
              f"failed={row['failed']} failed_ratio={row['failed'] / row['attempted']:g}")
        for metric, value in row["metrics"].items():
            print(f"  {metric:<32s} {value['value']:14.4f} {value['unit']}")
    print(json.dumps(rows, sort_keys=True))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    problem = environment_error()
    if problem is not None:
        return fail(problem)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        return fail(f"imported repro from {repro.__file__}, not from {SRC}")
    info = provenance()
    print("# " + " ".join(f"{k}={v}" for k, v in info.items())
          + f" workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
          + f" trace={args.trace}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, value in result["metrics"].items():
        print(f"# {metric} {value['value']:.6g} {value['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
