"""Snapshot-resume equivalence: resumed mutated runs must be
indistinguishable from full reruns.

The snapshot path is a pure optimization; the full-rerun path
(:meth:`ImpactAnalyzer.analyze`) is the fallback a candidate-mechanism
takes when its capture or restore fails.  Outcomes must match either way.
Whole-pipeline equivalence per family is pinned against committed
fingerprints in ``tests/test_golden.py``.
"""

from __future__ import annotations

import gc

import pytest

from repro.core import snapshot as snapshot_mod
from repro.core.candidate import select_candidates
from repro.core.impact import ImpactAnalyzer
from repro.core.pipeline import AutoVac
from repro.core.runner import run_sample
from repro.core.snapshot import SnapshotRecorder, mutation_matches
from repro.corpus import GeneratorConfig, generate_population
from repro.winapi.dispatcher import Interception


def rerun_all(analyzer, program, candidates, natural):
    """The restore-failure fallback taken for every candidate: a loop of
    full-rerun :meth:`ImpactAnalyzer.analyze` calls."""
    return [o for c in candidates for o in analyzer.analyze(program, c, natural)]


def observe(analyzer):
    """Record what ``analyzer`` classifies: per (candidate key, mechanism),
    the mutated trace its ``_classify`` got, the natural trace, and the
    alignment its aligner returned for them."""
    classify, aligner = analyzer._classify, analyzer.aligner
    alignments = []
    seen = {}

    def recording_aligner(mutated, natural):
        alignments.append(aligner(mutated, natural))
        return alignments[-1]

    def recording_classify(candidate, mechanism, mutated, natural, *args, **kwargs):
        outcome = classify(candidate, mechanism, mutated, natural, *args, **kwargs)
        seen[candidate.key, mechanism] = (mutated, natural, alignments.pop())
        return outcome

    analyzer.aligner = recording_aligner
    analyzer._classify = recording_classify
    return seen


def context_keys(events):
    return [e.context_key() for e in events]


@pytest.fixture(scope="module")
def snapshot_analyses(family_programs):
    av = AutoVac()
    return {name: av.analyze(p) for name, p in family_programs.items()}


def test_families_produce_vaccines(snapshot_analyses):
    # Guard against vacuous equivalence: the snapshot path must still be
    # exercising real Phase-II work for the corpus.
    assert any(a.vaccines for a in snapshot_analyses.values())
    assert any(
        o.mutation_hits > 0 for a in snapshot_analyses.values() for o in a.impacts
    )


class TestAnalyzeCandidatesDirect:
    def _candidates(self, program):
        report = select_candidates(program)
        return report, [
            c for c in report.candidates if c.influences_control_flow or c.had_failure
        ]

    @pytest.mark.parametrize("family", ["conficker", "zeus"])
    def test_outcomes_match_legacy_loop(self, family, family_programs):
        program = family_programs[family]
        report, candidates = self._candidates(program)
        assert candidates

        natural = report.trace
        fast_analyzer, legacy_analyzer = ImpactAnalyzer(), ImpactAnalyzer()
        resumed, rerun = observe(fast_analyzer), observe(legacy_analyzer)
        fast = fast_analyzer.analyze_candidates(program, candidates, natural)
        legacy = rerun_all(legacy_analyzer, program, candidates, natural)

        assert len(fast) == len(legacy) == 2 * len(candidates)
        for f, l in zip(fast, legacy):
            assert f.candidate.key == l.candidate.key
            assert f.mechanism == l.mechanism
            assert f.immunization == l.immunization
            assert f.effects == l.effects
            assert f.mutation_hits == l.mutation_hits

        assert resumed.keys() == rerun.keys()
        for key, (r, r_natural, fa) in resumed.items():
            full, full_natural, la = rerun[key]
            assert r_natural is full_natural is natural
            assert context_keys(fa.delta_mutated) == context_keys(la.delta_mutated)
            assert context_keys(fa.delta_natural) == context_keys(la.delta_natural)
            assert r.exit_status == full.exit_status
            assert r.steps == full.steps

    def test_resumed_traces_are_complete(self, family_programs):
        """A resumed run's trace contains the shared prefix events too —
        alignment consumes it exactly like a full rerun's trace."""
        program = family_programs["conficker"]
        report, candidates = self._candidates(program)
        fast_analyzer, legacy_analyzer = ImpactAnalyzer(), ImpactAnalyzer()
        resumed, rerun = observe(fast_analyzer), observe(legacy_analyzer)
        fast_analyzer.analyze_candidates(program, candidates, report.trace)
        rerun_all(legacy_analyzer, program, candidates, report.trace)
        assert resumed.keys() == rerun.keys()
        for key, (r, _, _) in resumed.items():
            full = rerun[key][0]
            assert context_keys(r.api_calls) == context_keys(full.api_calls)
            assert [e.event_id for e in r.api_calls] == [
                e.event_id for e in full.api_calls
            ]

    def test_unmatched_candidates_are_classified_against_phase1(self, family_programs):
        """A candidate no API call matches at intercept time never fires its
        mutation; its outcome reuses Phase I's run, which must agree call
        for call with the full rerun it stands in for."""
        program = family_programs["conficker"]
        report, candidates = self._candidates(program)
        natural = report.trace
        fast_analyzer, legacy_analyzer = ImpactAnalyzer(), ImpactAnalyzer()
        classified, rerun_of = observe(fast_analyzer), observe(legacy_analyzer)
        fast = fast_analyzer.analyze_candidates(program, candidates, natural)
        legacy = {
            (o.candidate.key, o.mechanism): o
            for o in rerun_all(legacy_analyzer, program, candidates, natural)
        }
        unmatched = [
            o for o in fast if classified[o.candidate.key, o.mechanism][0] is natural
        ]
        assert unmatched  # conficker has such a candidate
        for outcome in unmatched:
            key = (outcome.candidate.key, outcome.mechanism)
            full = legacy[key]
            assert outcome.mutation_hits == full.mutation_hits == 0
            assert outcome.immunization == full.immunization
            run, rerun = classified[key][0], rerun_of[key][0]
            assert context_keys(run.api_calls) == context_keys(rerun.api_calls)
            assert [e.event_id for e in run.api_calls] == [
                e.event_id for e in rerun.api_calls
            ]
            assert (run.steps, run.exit_status) == (rerun.steps, rerun.exit_status)

    def test_no_candidates_short_circuits(self, family_programs):
        program = family_programs["conficker"]
        report, _ = self._candidates(program)
        assert ImpactAnalyzer().analyze_candidates(program, [], report.trace) == []


class _Spy:
    """Interceptor recording, per API call it sees, which candidates the
    call matches at intercept time."""

    def __init__(self, candidates) -> None:
        self.candidates = candidates
        self.seen = []

    def intercept(self, apidef, event):
        matched = {c.key for c in self.candidates if mutation_matches(c, event)}
        self.seen.append(((event.event_id, event.api, event.caller_pc), matched))
        return Interception.PASS


@pytest.mark.parametrize("family", ["conficker", "zeus"])
def test_capture_run_ends_at_last_candidates_first_match(family, family_programs):
    program = family_programs[family]
    report = select_candidates(program)
    natural = report.trace.api_calls
    probe = _Spy(report.candidates)
    run_sample(program, interceptors=[probe], record_instructions=False)
    # Only candidates some call matches at intercept time can end the run.
    candidates = [
        c for c in report.candidates if any(c.key in m for _, m in probe.seen)
    ]
    assert len(candidates) >= 2
    first = {}
    for i, (_, matched) in enumerate(probe.seen):
        for key in matched:
            first.setdefault(key, i)
    last = max(first[c.key] for c in candidates)
    assert last + 1 < len(natural)  # the stop is not the run's natural end

    spy = _Spy(candidates)
    recorder = SnapshotRecorder(candidates)
    with pytest.raises(snapshot_mod._CapturesTaken):
        run_sample(
            program,
            interceptors=[spy, recorder],
            record_instructions=False,
            on_cpu=recorder.bind,
        )
    assert not recorder.pending
    assert set(recorder.snapshots) == {c.key for c in candidates}
    assert all(snap is not None for snap in recorder.snapshots.values())
    # The interceptor ahead of the recorder saw exactly the natural run's
    # calls up to and including the last first match, and none after it.
    assert [call for call, _ in spy.seen] == [
        (e.event_id, e.api, e.caller_pc) for e in natural[: last + 1]
    ]


def test_analysis_leaves_no_cyclic_garbage(family_programs):
    """An analysis is freed by reference counting alone: the capture run's
    machine (CPU, cloned environment, snapshots) must not sit in a
    recorder <-> CPU cycle, and Phase I's run goes with the analysis
    context.  With the cyclic GC off, nothing is left for it to find."""
    programs = list(family_programs.values()) + [
        s.program for s in generate_population(GeneratorConfig(size=10, seed=5))
    ]
    av = AutoVac()
    outcomes = 0
    gc.collect()
    gc.disable()
    try:
        for program in programs:
            analysis = av.analyze(program)
            outcomes += len(analysis.impacts)
            del analysis
        garbage = gc.collect()
    finally:
        gc.enable()
    assert outcomes  # mutated runs were made and freed
    assert garbage == 0
