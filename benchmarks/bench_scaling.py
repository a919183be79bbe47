"""Population-executor scaling — speedup vs worker count, cache resume.

The paper's workload is 1,716 samples through Phase I–III; the executor
fans hermetic per-sample analyses out to worker processes and caches
results content-addressed on disk.  This bench records:

* wall time and speedup for ``jobs = 1, 2, 4`` (asserting the ≥2× target at
  4 jobs only on machines with ≥4 CPUs — correctness is asserted on every
  machine: all jobs levels and cache states must produce identical tables
  and the same per-sample fingerprints, in input order);
* cold vs warm cache wall time, and that a warm run is all cache hits;
* the fault-tolerance machinery's cost on an all-healthy run, and that a
  survey with injected failures keeps every healthy analysis.

Artifacts: ``_artifacts/scaling.txt``, ``_artifacts/fault_tolerance.txt``.
Scale knob: ``REPRO_SCALING_SIZE`` (default 48 samples).
"""

import multiprocessing
import os
import time

from repro import obs
from repro.core.executor import PipelineConfig, ResultCache, analyze_population
from repro.core.faults import FaultPlan
from repro.corpus import GeneratorConfig, generate_population
from repro.tracing.serialize import analysis_fingerprint

from benchutil import write_artifact

SCALING_SIZE = int(os.environ.get("REPRO_SCALING_SIZE", "48"))
SCALING_SEED = 21


def _tables(result):
    return (
        result.count_by_resource_and_immunization(),
        result.count_by_identifier_kind(),
        result.count_by_delivery(),
        result.occurrence_stats(),
        [v.to_dict() for v in result.vaccines],
    )


def _fingerprints(result):
    return [analysis_fingerprint(a) for a in result.analyses]


def test_scaling_speedup(tmp_path):
    programs = [
        s.program
        for s in generate_population(GeneratorConfig(size=SCALING_SIZE, seed=SCALING_SEED))
    ]
    config = PipelineConfig()
    cores = multiprocessing.cpu_count() or 1

    wall = {}
    base_tables = base_fingerprints = None
    for jobs in (1, 2, 4):
        obs.reset()
        started = time.perf_counter()
        result = analyze_population(programs, config=config, jobs=jobs)
        wall[jobs] = time.perf_counter() - started
        tables = _tables(result)
        if base_tables is None:
            base_tables, base_fingerprints = tables, _fingerprints(result)
        else:
            # Identical tables and per-sample results at every jobs level,
            # on every machine.
            assert tables == base_tables, f"jobs={jobs} diverged from jobs=1"
            assert _fingerprints(result) == base_fingerprints, f"jobs={jobs}"
        assert len(result.analyses) + len(result.failures) == SCALING_SIZE

    cache_dir = tmp_path / "cache"
    obs.reset()
    started = time.perf_counter()
    cache = ResultCache(cache_dir)
    cold = analyze_population(programs, config=config, jobs=1, cache=cache)
    cold_s = time.perf_counter() - started
    cold_misses = cache.misses

    obs.reset()
    started = time.perf_counter()
    cache = ResultCache(cache_dir)
    warm = analyze_population(programs, config=config, jobs=1, cache=cache)
    warm_s = time.perf_counter() - started
    warm_hits = cache.hits

    lines = [
        f"Population-executor scaling ({SCALING_SIZE} samples, "
        f"{cores}-CPU machine)",
        f"{'jobs':>6s}{'wall':>10s}{'speedup':>9s}",
    ]
    for jobs in (1, 2, 4):
        lines.append(
            f"{jobs:6d}{wall[jobs]:9.2f}s{wall[1] / wall[jobs]:8.2f}x"
        )
    lines += [
        "",
        f"cache cold: {cold_s:6.2f}s  ({cold_misses} misses, all analyzed + stored)",
        f"cache warm: {warm_s:6.2f}s  ({warm_hits} hits, no analysis)",
        f"warm speedup: {cold_s / warm_s:.1f}x",
    ]
    write_artifact("scaling.txt", "\n".join(lines) + "\n")

    assert _tables(cold) == base_tables and _tables(warm) == base_tables
    assert _fingerprints(cold) == base_fingerprints
    assert _fingerprints(warm) == base_fingerprints
    assert warm_hits == SCALING_SIZE and warm_s < cold_s
    if cores >= 4:
        # The acceptance target: >=2x at 4 jobs on a 4-core runner.
        assert wall[1] / wall[4] >= 2.0


def test_fault_tolerance_keeps_healthy_results():
    """A survey with injected failures completes, quarantines exactly the
    planned samples, and the healthy vaccine set matches a fault-free run
    minus the quarantined samples' contributions."""
    size = min(SCALING_SIZE, 24)
    programs = [
        s.program
        for s in generate_population(GeneratorConfig(size=size, seed=SCALING_SEED))
    ]
    config = PipelineConfig(sample_retries=0, retry_backoff=0.0)

    started = time.perf_counter()
    clean = analyze_population(programs, config=config, jobs=2)
    clean_s = time.perf_counter() - started

    plan = FaultPlan.parse("crash:1,hang:4", hang_seconds=0.0)
    started = time.perf_counter()
    faulted = analyze_population(programs, config=config, jobs=2, faults=plan)
    faulted_s = time.perf_counter() - started

    assert sorted(f.index for f in faulted.failed()) == [1, 4]
    assert len(faulted.succeeded()) == size - 2
    failed_names = {f.sample for f in faulted.failed()}
    expected = [
        v.to_dict()
        for a in clean.analyses
        if a.program.name not in failed_names
        for v in a.vaccines
    ]
    assert [v.to_dict() for v in faulted.vaccines] == expected

    write_artifact(
        "fault_tolerance.txt",
        "\n".join(
            [
                f"Fault-tolerant survey ({size} samples, jobs=2)",
                f"all-healthy run:        {clean_s:6.2f}s",
                f"crash+hang injected:    {faulted_s:6.2f}s "
                f"({len(faulted.failed())} quarantined, "
                f"{len(faulted.succeeded())} healthy kept)",
            ]
        )
        + "\n",
    )
