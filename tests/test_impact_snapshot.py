"""Snapshot-resume equivalence: resumed mutated runs must be
indistinguishable from full reruns.

The snapshot path is a pure optimization; the full-rerun path
(:meth:`ImpactAnalyzer.analyze`) is the fallback a candidate-mechanism
takes when its capture or restore fails.  Outcomes must match either way.
Whole-pipeline equivalence per family is pinned against committed
fingerprints in ``tests/test_golden.py``.
"""

from __future__ import annotations

import pytest

from repro.core.candidate import select_candidates
from repro.core.impact import ImpactAnalyzer
from repro.core.pipeline import AutoVac


def rerun_all(analyzer, program, candidates, natural):
    """The restore-failure fallback taken for every candidate: a loop of
    full-rerun :meth:`ImpactAnalyzer.analyze` calls."""
    return [o for c in candidates for o in analyzer.analyze(program, c, natural)]


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

        fast = ImpactAnalyzer().analyze_candidates(program, candidates, report.trace)
        legacy = rerun_all(ImpactAnalyzer(), program, candidates, report.trace)

        assert len(fast) == len(legacy) == 2 * len(candidates)
        for f, l in zip(fast, legacy):
            assert f.candidate.key == l.candidate.key
            assert f.mechanism == l.mechanism
            assert f.immunization == l.immunization
            assert f.effects == l.effects
            assert f.mutation_hits == l.mutation_hits
            assert [e.context_key() for e in f.alignment.delta_mutated] == [
                e.context_key() for e in l.alignment.delta_mutated
            ]
            assert [e.context_key() for e in f.alignment.delta_natural] == [
                e.context_key() for e in l.alignment.delta_natural
            ]
            assert (
                f.mutated_run.trace.exit_status == l.mutated_run.trace.exit_status
            )
            assert f.mutated_run.trace.steps == l.mutated_run.trace.steps

    def test_resumed_traces_are_complete(self, family_programs):
        """A resumed run's trace contains the shared prefix events too —
        alignment consumes it exactly like a full rerun's trace."""
        program = family_programs["conficker"]
        report, candidates = self._candidates(program)
        fast = ImpactAnalyzer().analyze_candidates(program, candidates, report.trace)
        legacy = rerun_all(ImpactAnalyzer(), program, candidates, report.trace)
        for f, l in zip(fast, legacy):
            assert [e.context_key() for e in f.mutated_run.trace.api_calls] == [
                e.context_key() for e in l.mutated_run.trace.api_calls
            ]
            assert [e.event_id for e in f.mutated_run.trace.api_calls] == [
                e.event_id for e in l.mutated_run.trace.api_calls
            ]

    def test_no_candidates_short_circuits(self, family_programs):
        program = family_programs["conficker"]
        report, _ = self._candidates(program)
        assert ImpactAnalyzer().analyze_candidates(program, [], report.trace) == []
