"""The versioned SampleAnalysis codec (repro.tracing.serialize).

This is the payload that crosses the worker-process boundary and lives in
the result cache, so the round-trip has to preserve everything the
population tables, vaccine deployment, and profile-derived timings consume —
while dropping live VM state (runs, alignments, backward-slice raw output).
"""

from __future__ import annotations

import json

import pytest

from repro.core import AutoVac
from repro.corpus import benign_suite, build_family
from repro.tracing import serialize


@pytest.fixture(scope="module")
def zeus_analysis():
    return AutoVac().analyze(build_family("zeus"))


@pytest.fixture(scope="module")
def filtered_analysis():
    office = next(p for p in benign_suite() if p.name == "benign_office")
    analysis = AutoVac().analyze(office)
    assert analysis.filtered_reason  # no resource-dependent branch
    return analysis


class TestRoundTrip:
    def test_vaccines_survive_exactly(self, zeus_analysis):
        decoded = serialize.analysis_from_json(
            serialize.analysis_to_json(zeus_analysis)
        )
        assert [v.to_dict() for v in decoded.vaccines] == [
            v.to_dict() for v in zeus_analysis.vaccines
        ]
        assert decoded.vaccines  # zeus does yield vaccines

    def test_program_summary_survives(self, zeus_analysis):
        decoded = serialize.analysis_from_json(
            serialize.analysis_to_json(zeus_analysis)
        )
        assert decoded.program.name == zeus_analysis.program.name
        assert decoded.program.metadata["family"] == "zeus"
        # The decoded program is a summary stub, not an executable image.
        assert decoded.program.instructions == []

    def test_phase1_stats_survive(self, zeus_analysis):
        decoded = serialize.analysis_from_json(
            serialize.analysis_to_json(zeus_analysis)
        )
        original = zeus_analysis.phase1
        assert decoded.phase1.total_occurrences == original.total_occurrences
        assert decoded.phase1.influential_occurrences == original.influential_occurrences
        assert len(decoded.phase1.candidates) == len(original.candidates)
        assert [c.key for c in decoded.phase1.candidates] == [
            c.key for c in original.candidates
        ]
        assert (
            decoded.phase1.trace.count_by_resource_operation()
            == original.trace.count_by_resource_operation()
        )
        # The report holds data only, so all of it round-trips.
        assert decoded.phase1.candidates == original.candidates
        assert decoded.phase1.trace.api_calls == original.trace.api_calls
        assert decoded.phase1.trace.predicates == original.trace.predicates

    def test_phase2_payloads_survive(self, zeus_analysis):
        decoded = serialize.analysis_from_json(
            serialize.analysis_to_json(zeus_analysis)
        )
        assert len(decoded.exclusiveness) == len(zeus_analysis.exclusiveness)
        assert [(d.exclusive, d.reason) for d in decoded.exclusiveness] == [
            (d.exclusive, d.reason) for d in zeus_analysis.exclusiveness
        ]
        assert [
            (o.candidate.key, o.mechanism, o.immunization, o.mutation_hits)
            for o in decoded.impacts
        ] == [
            (o.candidate.key, o.mechanism, o.immunization, o.mutation_hits)
            for o in zeus_analysis.impacts
        ]
        assert decoded.determinism.keys() == zeus_analysis.determinism.keys()
        for key, det in decoded.determinism.items():
            assert det.kind is zeus_analysis.determinism[key].kind
            assert det.pattern == zeus_analysis.determinism[key].pattern

    def test_profile_and_timings_survive(self, zeus_analysis):
        decoded = serialize.analysis_from_json(
            serialize.analysis_to_json(zeus_analysis)
        )
        assert decoded.profile == zeus_analysis.profile
        assert decoded.timings == zeus_analysis.timings
        assert "phase1" in decoded.timings and "impact" in decoded.timings

    def test_filtered_sample_round_trips(self, filtered_analysis):
        decoded = serialize.analysis_from_json(
            serialize.analysis_to_json(filtered_analysis)
        )
        assert decoded.filtered_reason == filtered_analysis.filtered_reason
        assert decoded.vaccines == []
        assert decoded.phase1 is not None
        # Skipped stages record no cell, so timings stay empty of them.
        assert list(decoded.timings) == ["phase1"]

    def test_encoding_is_stable(self, zeus_analysis):
        text = serialize.analysis_to_json(zeus_analysis)
        again = serialize.analysis_to_json(serialize.analysis_from_json(text))
        assert again == text

    def test_policy_survives_exactly(self, zeus_analysis):
        assert zeus_analysis.policy is not None
        decoded = serialize.analysis_from_json(
            serialize.analysis_to_json(zeus_analysis)
        )
        assert decoded.policy is not None
        assert decoded.policy.to_dict() == zeus_analysis.policy.to_dict()
        assert decoded.policy.boundary_seq == zeus_analysis.policy.boundary_seq
        assert [r.to_dict() for r in decoded.policy.deny] == [
            r.to_dict() for r in zeus_analysis.policy.deny
        ]

    def test_analysis_without_policy_round_trips(self, filtered_analysis):
        assert filtered_analysis.policy is None
        decoded = serialize.analysis_from_json(
            serialize.analysis_to_json(filtered_analysis)
        )
        assert decoded.policy is None


class TestVersioning:
    def test_version_is_embedded(self, zeus_analysis):
        data = serialize.analysis_to_dict(zeus_analysis)
        assert data["format_version"] == serialize.ANALYSIS_FORMAT_VERSION

    def test_unknown_version_rejected(self, zeus_analysis):
        # Older payloads (v1-v3) are rejected like future ones, naming the
        # version found and the supported one.
        supported = serialize.ANALYSIS_FORMAT_VERSION
        for version in (1, 2, 3, 999):
            data = serialize.analysis_to_dict(zeus_analysis)
            data["format_version"] = version
            with pytest.raises(ValueError, match=rf"version {version} .*{supported}"):
                serialize.analysis_from_dict(data)

    def test_v2_payload_rejected(self, zeus_analysis):
        # A genuine v2 payload (no policy) no longer decodes.
        payload = serialize.analysis_to_dict(zeus_analysis)
        payload.pop("policy")
        payload["format_version"] = 2
        supported = serialize.ANALYSIS_FORMAT_VERSION
        with pytest.raises(ValueError, match=rf"version 2 .*{supported}"):
            serialize.analysis_from_dict(payload)

    def test_missing_version_rejected(self):
        with pytest.raises(ValueError, match="format version"):
            serialize.analysis_from_dict({"program": {"name": "x"}})

    def test_payload_is_plain_json(self, zeus_analysis):
        text = serialize.analysis_to_json(zeus_analysis)
        assert isinstance(json.loads(text), dict)


class TestPolicyDeterminism:
    """Policies must come out identical whether the population ran
    sequentially or across worker processes (the codec carries them over
    the process boundary)."""

    def _policies(self, jobs):
        from repro.core.executor import PipelineConfig, analyze_population
        from repro.corpus import GeneratorConfig, generate_population

        programs = [
            s.program for s in generate_population(GeneratorConfig(size=4, seed=11))
        ]
        result = analyze_population(programs, config=PipelineConfig(), jobs=jobs)
        return [
            a.policy.to_dict() if a.policy is not None else None
            for a in result.analyses
        ]

    def test_parallel_matches_sequential(self):
        seq = self._policies(jobs=1)
        par = self._policies(jobs=2)
        assert len(seq) == 4
        assert par == seq
        assert any(p is not None for p in seq)
