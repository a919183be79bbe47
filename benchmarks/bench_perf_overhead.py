"""§VI-F — performance overhead.

Paper numbers (their hardware): ~789 s full analysis per sample, ~214 s
backward slicing per identifier, 2-3 min impact verification per case;
deployment: 373 static vaccines installed in 34 s total, slice vaccines
~25.7 s each, daemon hooking <4.5% runtime overhead for 119 partial-static
vaccines.  We measure our analogues and verify the *relations*: generation
cost >> deployment cost; static injection ~ negligible; daemon overhead a
small multiplier.
"""

import time
from contextlib import contextmanager

import pytest

from repro import AutoVac, SystemEnvironment, VaccinePackage, deploy, obs
from repro.core import run_sample, select_candidates
from repro.core.candidate import run_phase1
from repro.core.determinism import analyze_determinism
from repro.core.runner import record_prefix
from repro.corpus import benign_suite, build_family
from repro.delivery import DirectInjector
from repro.taint.backward import backward_slice
from repro.taint.replay import replay_slice

from benchutil import min_wall_seconds, paired_overhead, write_artifact


@pytest.mark.benchmark(group="perf-generation")
def test_perf_full_pipeline_per_sample(benchmark):
    """Vaccine generation is a one-time analysis cost (paper: ~789 s).

    The per-phase breakdown is pulled from the pipeline's own timing tree
    (``SampleAnalysis.timings``) instead of re-timing each phase here."""
    result = benchmark(lambda: AutoVac().analyze(build_family("zeus")))
    assert result.vaccines
    breakdown = "".join(
        f"{phase:>14s}: {seconds * 1000:8.2f} ms\n"
        for phase, seconds in result.timings.items()
    )
    write_artifact(
        "perf_phases.txt",
        "Per-phase wall time for one zeus analysis (stage cells, §VI-F)\n"
        + breakdown,
    )


@pytest.mark.benchmark(group="perf-generation")
def test_perf_backward_slicing_per_identifier(benchmark):
    """Backward slicing cost per identifier (paper: ~214 s).

    Phase I keeps no def/use records, so the records come from the same
    prefix re-run determinism analysis makes; only the slice is timed."""
    program = build_family("conficker")
    run = run_phase1(program)
    event = next(e for e in run.trace.api_calls
                 if e.api == "OpenMutexA" and e.identifier)
    records = record_prefix(program, run, event)

    benchmark(lambda: backward_slice(records, event, memory=run.cpu.memory))


@pytest.mark.benchmark(group="perf-generation")
def test_perf_impact_verification_per_case(benchmark):
    """One mutated run + alignment (paper: 2-3 min per case)."""
    from repro.core import Mechanism
    from repro.core.impact import ImpactAnalyzer

    program = build_family("zeus")
    report = select_candidates(program)
    cand = next(c for c in report.candidates if c.influences_control_flow)
    analyzer = ImpactAnalyzer()
    benchmark(lambda: analyzer.analyze_mechanism(
        program, cand, report.trace, Mechanism.SIMULATE_PRESENCE))


@pytest.mark.benchmark(group="perf-deploy")
def test_perf_static_injection(benchmark, family_analyses):
    """Static vaccine installation (paper: 373 vaccines in 34 s)."""
    from repro.core import DeliveryKind

    vaccines = [v for _, a in family_analyses.values() for v in a.vaccines
                if v.delivery is DeliveryKind.DIRECT_INJECTION]

    def install_all():
        injector = DirectInjector(SystemEnvironment())
        injector.inject_all(vaccines)
        return injector

    injector = benchmark(install_all)
    assert len(injector.records) == len(vaccines)


@pytest.mark.benchmark(group="perf-deploy")
def test_perf_slice_replay(benchmark, family_analyses):
    """Algorithm-deterministic vaccine deployment (paper: ~25.7 s each)."""
    from repro.core import IdentifierKind

    _, analysis = family_analyses["conficker"]
    vaccine = next(v for v in analysis.vaccines
                   if v.identifier_kind is IdentifierKind.ALGORITHM_DETERMINISTIC)
    host = SystemEnvironment()
    benchmark(lambda: replay_slice(vaccine.slice, host.clone()))


def test_perf_daemon_hook_overhead(family_analyses, benign_programs):
    """Daemon interception overhead on benign workloads (paper: <4.5% for
    119 partial-static vaccines).

    The hook cost comes from the daemon's own accounting (its attributes:
    time spent inside ``intercept``, calls seen and matched) rather than
    subtracting two noisy wall-clock measurements of the whole workload."""
    from repro.core import DeliveryKind

    vaccines = [v for _, a in family_analyses.values() for v in a.vaccines
                if v.delivery is DeliveryKind.DAEMON]
    vaccinated = SystemEnvironment()
    deployment = deploy(VaccinePackage(vaccines=vaccines), vaccinated)
    daemon = deployment.daemon
    assert daemon is not None

    def workload():
        started = time.perf_counter()
        for _ in range(8):
            for program in benign_programs:
                run_sample(program, environment=vaccinated,
                           record_instructions=False)
        return time.perf_counter() - started

    workload()  # warm-up
    daemon.calls_seen = daemon.calls_matched = 0
    daemon.seconds_intercepting = 0.0
    wall = min(workload() for _ in range(3))

    hook_seconds = daemon.seconds_intercepting / 3  # per pass
    overhead = hook_seconds / wall
    write_artifact(
        "perf_daemon.txt",
        "Daemon hook overhead (paper: <4.5% for 119 partial-static vaccines)\n"
        f"daemon vaccines: {len(vaccines)}\n"
        f"rules active:    {len(daemon.engine)}\n"
        f"calls hooked:    {daemon.calls_seen}\n"
        f"calls matched:   {daemon.calls_matched}\n"
        f"benign workload wall: {wall * 1000:.1f} ms/pass\n"
        f"time inside hook:     {hook_seconds * 1000:.2f} ms/pass\n"
        f"hook overhead: {overhead:.1%}\n",
    )
    assert daemon.calls_seen > 0
    # The hook's share of the workload stays a small multiplier.
    assert overhead < 0.45


def test_perf_rule_engine_matching():
    """Rule-engine matching micro-bench (the daemon hot path).

    One synthetic engine — 100 exact rules, 20 pattern rules, one
    operation-restricted policy rule — probed with the four match shapes
    that exercise its structure: exact-map hit, exact-map miss, pattern
    hit (alternation gate + attribution scan), and a pattern *prefix*
    miss (the alternation gate rejecting in one regex test).  Per-case
    batch times land in ``engine_baseline.json`` with the same
    ``per_sample_seconds`` schema as the impact baseline, so
    ``check_bench_regression.py`` gates both with one comparator."""
    import json

    from repro.core.policy import PolicyRule, TemporalApiPolicy
    from repro.core.vaccine import (
        IdentifierKind,
        Immunization,
        Mechanism,
        Vaccine,
    )
    from repro.delivery.engine import RuleEngine
    from repro.winenv.objects import Operation, ResourceType

    from benchutil import ARTIFACTS

    def vaccine(i, kind=IdentifierKind.STATIC, pattern=None):
        return Vaccine(
            malware="bench",
            resource_type=ResourceType.MUTEX,
            identifier=f"BenchMutex{i:04d}",
            identifier_kind=kind,
            mechanism=Mechanism.SIMULATE_PRESENCE,
            immunization=Immunization.FULL,
            pattern=pattern,
        )

    vaccines = [vaccine(i) for i in range(100)]
    vaccines += [
        vaccine(100 + i, IdentifierKind.PARTIAL_STATIC, rf"bm{i:02d}[a-f0-9]{{8}}")
        for i in range(20)
    ]
    policy = TemporalApiPolicy(
        sample="bench",
        boundary_seq=0,
        deny=[
            PolicyRule(
                ResourceType.SERVICE,
                "benchsvc",
                operations=frozenset({Operation.CREATE}),
            )
        ],
    )
    engine = RuleEngine.compile(vaccines=vaccines, policies=[policy])
    assert len(engine) == 121

    matches = 20_000
    probes = {
        "exact_hit": (ResourceType.MUTEX, "BenchMutex0042", Operation.CHECK, True),
        "exact_miss": (ResourceType.MUTEX, "NoSuchMutex9999", Operation.CHECK, False),
        "pattern_hit": (ResourceType.MUTEX, "bm07deadbeef", Operation.CHECK, True),
        "pattern_prefix_miss": (
            ResourceType.MUTEX, "bm07deadbeef00", Operation.CHECK, False,
        ),
    }

    per_case = {}
    for case, (rtype, identifier, operation, should_hit) in probes.items():
        assert (engine.match(rtype, identifier, operation) is not None) == should_hit

        def batch(rtype=rtype, identifier=identifier, operation=operation):
            match = engine.match
            for _ in range(matches):
                match(rtype, identifier, operation)

        per_case[case], _ = min_wall_seconds(batch, repeats=5)

    (ARTIFACTS / "engine_baseline.json").write_text(
        json.dumps(
            {"matches_per_case": matches, "per_sample_seconds": per_case},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    lines = [
        f"RuleEngine matching micro-bench ({len(engine)} rules, "
        f"{matches} matches/case, best of 5)"
    ]
    for case, seconds in per_case.items():
        lines.append(f"  {case:<20s} {seconds / matches * 1e9:8.0f} ns/match")
    write_artifact("engine.txt", "\n".join(lines) + "\n")
    # structural sanity: the exact map must stay cheaper than the pattern scan
    assert per_case["exact_hit"] < per_case["pattern_hit"] * 3


# Instrumentation modes for the overhead cases.


@contextmanager
def _default():
    yield


@contextmanager
def _disabled():
    with obs.disabled():
        yield


@contextmanager
def _flight_off():
    obs.flight.enabled = False
    try:
        yield
    finally:
        obs.flight.enabled = True


@contextmanager
def _profiling():
    with _flight_off(), obs.profiled():
        yield


#: case -> (artifact, title, instrumented side, its baseline, budget); a
#: side is a label and a mode.  Every case uses the same paired estimator,
#: ``benchutil.paired_overhead``:
#:
#: * ``obs`` — metrics, the stage cells and every disabled hook site against
#:   ``obs.disabled()``; the flight recorder is off in both sides, it has
#:   its own case.
#: * ``flight`` — the journal alone (metrics on in both sides).  Known to be
#:   noisy: on a shared 2-vCPU guest it reads 2-8% from run to run, at the
#:   5% budget, because the effect it resolves is small.
#: * ``profiler`` — hot-path attribution on against the default (flight off
#:   in both).  Attribution is opt-in diagnostics timed per tier segment,
#:   API call and region dispatch; the loose bound catches a regression to
#:   per-instruction timing, which measures far above it.
OVERHEAD_CASES = {
    "obs": (
        "obs_overhead.txt",
        "repro.obs instrumentation overhead on the full pipeline (zeus)",
        ("instrumented (metrics, stage cells)", _flight_off),
        ("obs.disabled() baseline", _disabled),
        0.05,
    ),
    "flight": (
        "flight_overhead.txt",
        "flight-recorder journal overhead on the full pipeline (zeus)",
        ("journal on", _default),
        ("journal off", _flight_off),
        0.05,
    ),
    "profiler": (
        "prof_overhead.txt",
        "hot-path profiler overhead on the full pipeline (zeus)",
        ("profiler collecting", _profiling),
        ("default (profiler off)", _flight_off),
        0.25,
    ),
}


@pytest.mark.parametrize("case", sorted(OVERHEAD_CASES))
def test_instrumentation_overhead(case):
    """An instrumentation layer's cost on the full pipeline stays within its
    budget: 5% for the always-on layers, 25% for opt-in hot-path profiling
    (see :data:`OVERHEAD_CASES`)."""
    artifact, title, (a_label, a_mode), (b_label, b_mode), budget = OVERHEAD_CASES[case]
    program = build_family("zeus")
    reps = 6  # analyses per timed side (amortizes timer granularity)

    def side(mode):
        def run():
            obs.reset()  # steady state, not accumulated data
            with mode():
                for _ in range(reps):
                    result = AutoVac().analyze(program)
            return result

        return run

    run_a, run_b = side(a_mode), side(b_mode)
    run_a(), run_b()  # warm-up both paths
    overhead, a_s, b_s, result = paired_overhead(run_a, run_b)
    assert result.vaccines
    if case == "flight":
        assert result.journal is not None and len(result.journal) > 0
    elif case == "profiler":
        assert any(path.count(";") > 1 for path in result.profile)
    write_artifact(
        artifact,
        f"{title}\n"
        f"{a_label + ':':<40} {a_s * 1000:.2f} ms\n"
        f"{b_label + ':':<40} {b_s * 1000:.2f} ms\n"
        f"overhead: {overhead:+.2%}  (budget: <={budget:.0%}; median of 11 "
        "paired alternating-order ratios, best of 2 per side)\n",
    )
    assert overhead <= budget


def test_instrumentation_overhead_flight_steady():
    """``flight_steady`` — the journal in a long-lived process: a 48-sample
    population slice (seed 42) analyzed with nothing reset between
    samples, against the same slice with the flight recorder reset before
    every sample.  A recorder that kept analysis events past their
    sample's window would grow here and make every collection walk them,
    so each side runs with the collector on (``paired_overhead`` turns it
    off around a pair).  Only the recorder is reset on the baseline side:
    ``obs.reset()`` also drops the metric handles and the timing tree,
    which costs that side more than a retained journal would cost the
    other.  Budget 5%."""
    import gc

    from repro.corpus import GeneratorConfig, generate_population

    budget = 0.05
    programs = [
        s.program for s in generate_population(GeneratorConfig(size=48, seed=42))
    ]
    autovac = AutoVac()

    @contextmanager
    def collector_on():
        gc.enable()
        try:
            yield
        finally:
            gc.disable()

    def steady():
        with collector_on():
            for program in programs:
                result = autovac.analyze(program)
        return result

    def reset_per_sample():
        with collector_on():
            for program in programs:
                obs.flight.reset()
                autovac.analyze(program)

    obs.reset()
    # Warm up with as many samples as one 240-sample population pass, so
    # the recorder starts in the state a survey leaves it in.
    for _ in range(5):
        steady()
    reset_per_sample()
    overhead, a_s, b_s, result = paired_overhead(steady, reset_per_sample)
    assert result.journal is not None and len(result.journal) > 0
    assert obs.flight.window is None and not obs.flight.outside_window()
    write_artifact(
        "flight_steady_overhead.txt",
        "flight-recorder journal in steady state (48-sample population "
        "slice, seed 42)\n"
        f"{'no reset between samples:':<40} {a_s * 1000:.2f} ms\n"
        f"{'recorder reset before every sample:':<40} {b_s * 1000:.2f} ms\n"
        f"overhead: {overhead:+.2%}  (budget: <={budget:.0%}; median of 11 "
        "paired alternating-order ratios, best of 2 per side, collector on)\n",
    )
    assert overhead <= budget
