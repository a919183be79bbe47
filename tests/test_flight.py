"""Flight recorder + decision provenance (repro.obs.flight).

Covers the PR's acceptance surface: the per-sample journal forms a walkable
DAG from each vaccine back to the originating API interception, journals
merge deterministically across process-pool workers, the versioned analysis
codec round-trips them (and still loads v1 payloads without one), and the
``repro explain`` CLI narrates a real chain.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.core import AutoVac
from repro.core.executor import PipelineConfig, analyze_population
from repro.core.faults import FaultPlan
from repro.core.stages import ImpactStage
from repro.corpus import GeneratorConfig, build_family, generate_population
from repro.obs import FlightRecorder, Journal, render_chain, summarize_event
from repro.obs.flight import FlightEvent
from repro.tracing import serialize


@pytest.fixture(scope="module")
def conficker_analysis():
    return AutoVac().analyze(build_family("conficker"))


# ---------------------------------------------------------------------------
# recorder mechanics
# ---------------------------------------------------------------------------


class TestRecorder:
    def test_record_assigns_sequential_ids_and_drops_none_causes(self):
        rec = FlightRecorder()
        a = rec.record("x")
        b = rec.record("y", causes=(a, None), note="hi")
        assert (a, b) == (0, 1)
        events = rec.outside_window()
        assert events[1].causes == (a,)
        assert events[1].attrs == {"note": "hi"}

    def test_disabled_recorder_returns_none_and_records_nothing(self):
        rec = FlightRecorder()
        rec.enabled = False
        assert rec.record("x") is None
        assert rec.begin_sample("s") is None
        assert rec.end_sample(None) is None
        assert rec.outside_window() == []

    def test_ring_drops_oldest_and_counts(self):
        # Only the out-of-window log is bounded; a sample's journal is not.
        rec = FlightRecorder(capacity=4)
        for i in range(6):
            rec.record("e", i=i)
        assert rec.dropped == 2
        assert [e.attrs["i"] for e in rec.outside_window()] == [2, 3, 4, 5]
        token = rec.begin_sample("s")
        for i in range(6):
            rec.record("w", i=i)
        assert len(rec.end_sample(token)) == 6
        assert rec.dropped == 2

    def test_remember_is_first_wins(self):
        rec = FlightRecorder()
        a, b = rec.record("x"), rec.record("y")
        rec.remember(("k",), a)
        rec.remember(("k",), b)
        assert rec.recall(("k",)) == a

    def test_window_ids_start_at_zero(self):
        rec = FlightRecorder()
        rec.record("noise")  # pre-window event
        token = rec.begin_sample("s")
        a = rec.record("root")
        rec.record("child", causes=(a,))
        journal = rec.end_sample(token)
        assert [e.event_id for e in journal.events] == [0, 1]
        assert journal.events[1].causes == (0,)
        assert journal.sample == "s"
        # The pre-window event stays out of the journal, and events after
        # the window closes go to the out-of-window log.
        rec.record("after")
        assert [e.kind for e in journal.events] == ["root", "child"]
        assert [e.kind for e in rec.outside_window()] == ["noise", "after"]

    def test_begin_sample_discards_a_stale_window(self):
        rec = FlightRecorder()
        rec.begin_sample("failed")  # an analysis that raised never closes it
        rec.record("partial")
        token = rec.begin_sample("next")
        rec.record("fresh")
        journal = rec.end_sample(token)
        assert journal.sample == "next"
        assert [(e.event_id, e.kind) for e in journal.events] == [(0, "fresh")]
        assert rec.window is None and rec.outside_window() == []

    def test_end_sample_returns_none_when_toggled_off_mid_window(self):
        rec = FlightRecorder()
        token = rec.begin_sample("s")
        rec.enabled = False
        assert rec.end_sample(token) is None
        assert rec.window is None

    def test_begin_sample_clears_correlation_keys(self):
        rec = FlightRecorder()
        rec.remember(("stale",), rec.record("x"))
        rec.begin_sample("s")
        assert rec.recall(("stale",)) is None

    def test_ancestors_walks_the_dag_inclusive(self):
        journal = Journal(
            "s",
            [
                FlightEvent(0, "root"),
                FlightEvent(1, "mid", causes=(0,)),
                FlightEvent(2, "leaf", causes=(1, 0)),
            ],
        )
        assert journal.ancestors(2) == [2, 1, 0]

    def test_obs_disabled_turns_the_flight_recorder_off(self):
        assert obs.flight.enabled
        with obs.disabled():
            assert not obs.flight.enabled
            assert obs.flight.record("x") is None
        assert obs.flight.enabled


# ---------------------------------------------------------------------------
# pipeline journaling: vaccine -> ... -> API interception
# ---------------------------------------------------------------------------


class TestPipelineJournal:
    def test_analysis_carries_a_journal(self, conficker_analysis):
        journal = conficker_analysis.journal
        assert journal is not None and len(journal) > 0
        assert journal.sample == "conficker"

    def test_every_vaccine_has_a_journal_event(self, conficker_analysis):
        journal = conficker_analysis.journal
        for vaccine in conficker_analysis.vaccines:
            assert journal.find(
                "vaccine",
                resource=vaccine.resource_type.value,
                identifier=vaccine.identifier,
                mechanism=vaccine.mechanism.value,
            )

    def test_vaccine_chain_reaches_the_api_interception(self, conficker_analysis):
        """Acceptance: walking a mutex vaccine backwards reaches the taint
        seed of the API call that checked the infection marker, with every
        hop a real journal event."""
        journal = conficker_analysis.journal
        vaccine = next(
            e for e in journal.find("vaccine") if e.attrs["resource"] == "mutex"
        )
        ancestor_ids = journal.ancestors(vaccine.event_id)
        kinds = {journal.get(i).kind for i in ancestor_ids}
        assert {
            "vaccine",
            "verdict.impact",
            "mutation",
            "candidate",
            "api.taint_seed",
        } <= kinds
        seeds = [
            journal.get(i)
            for i in ancestor_ids
            if journal.get(i).kind == "api.taint_seed"
        ]
        assert any(s.attrs.get("api") == "OpenMutexA" for s in seeds)

    def test_chain_renders_with_event_ids(self, conficker_analysis):
        journal = conficker_analysis.journal
        vaccine = journal.find("vaccine")[0]
        text = render_chain(journal, vaccine.event_id)
        assert text.startswith(f"[e{vaccine.event_id}] vaccine:")
        assert "(see above)" in text or "[e" in text

    def test_summaries_are_kind_specific(self, conficker_analysis):
        journal = conficker_analysis.journal
        summaries = {e.kind: summarize_event(e) for e in journal.events}
        assert "seeded taint" in summaries["api.taint_seed"]
        assert "tainted branch predicate" in summaries["predicate.tainted"]
        assert "mutated" in summaries["mutation"]

    def test_journal_off_under_obs_disabled(self):
        with obs.disabled():
            analysis = AutoVac().analyze(build_family("ibank"))
        assert analysis.journal is None


# ---------------------------------------------------------------------------
# codec: versioned round-trip
# ---------------------------------------------------------------------------


class TestCodec:
    def test_journal_round_trips(self, conficker_analysis):
        decoded = serialize.analysis_from_json(
            serialize.analysis_to_json(conficker_analysis)
        )
        original = conficker_analysis.journal
        assert decoded.journal is not None
        assert decoded.journal.to_dict() == original.to_dict()

    def test_journal_none_round_trips(self):
        with obs.disabled():
            analysis = AutoVac().analyze(build_family("ibank"))
        decoded = serialize.analysis_from_json(serialize.analysis_to_json(analysis))
        assert decoded.journal is None

    def test_v1_payload_rejected(self, conficker_analysis):
        # A genuine v1 payload (no journal) no longer decodes.
        payload = serialize.analysis_to_dict(conficker_analysis)
        payload.pop("journal")
        payload["format_version"] = 1
        supported = serialize.ANALYSIS_FORMAT_VERSION
        with pytest.raises(ValueError, match=rf"version 1 .*{supported}"):
            serialize.analysis_from_dict(payload)

    def test_unknown_version_rejected(self, conficker_analysis):
        payload = serialize.analysis_to_dict(conficker_analysis)
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="version 99"):
            serialize.analysis_from_dict(payload)


# ---------------------------------------------------------------------------
# executor: deterministic merge across workers
# ---------------------------------------------------------------------------


class TestExecutorMerge:
    SIZE = 6

    def _programs(self):
        return [
            s.program
            for s in generate_population(GeneratorConfig(size=self.SIZE, seed=9))
        ]

    def _run(self, jobs, cache=None, faults=None):
        obs.reset()
        result = analyze_population(
            self._programs(),
            config=PipelineConfig(sample_retries=0),
            jobs=jobs,
            cache=cache,
            faults=faults,
        )
        journals = [
            a.journal.to_dict() for a in result.analyses if a.journal is not None
        ]
        # Analysis events live only in the returned journals; the recorder
        # keeps the quarantine records, outside any sample window.
        assert obs.flight.window is None
        outside = [(e.kind, e.attrs) for e in obs.flight.outside_window()]
        return journals, outside

    def test_parallel_journals_match_sequential(self):
        seq_journals, _ = self._run(jobs=1)
        par_journals, _ = self._run(jobs=2)
        assert len(seq_journals) == self.SIZE
        assert par_journals == seq_journals

    def test_journals_and_failures_match_across_jobs_and_cache(self, tmp_path):
        plan = FaultPlan.parse("crash:1,crash:4")
        cache = tmp_path / "cache"
        reference = self._run(jobs=1, faults=plan)
        journals, outside = reference
        assert len(journals) == self.SIZE - 2
        programs = self._programs()
        assert [(kind, attrs["sample"]) for kind, attrs in outside] == [
            ("sample.failed", programs[1].name),
            ("sample.failed", programs[4].name),
        ]
        assert self._run(jobs=2, faults=plan) == reference
        assert self._run(jobs=2, cache=cache, faults=plan) == reference  # cold
        assert self._run(jobs=1, cache=cache, faults=plan) == reference  # warm

    def test_failed_analysis_leaves_no_open_window(self, monkeypatch):
        # A stage that raises mid-analysis leaves its partial journal open;
        # the executor closes it, so the quarantine record lands outside.
        def boom(self, ctx):
            raise RuntimeError("impact stage exploded")

        monkeypatch.setattr(ImpactStage, "run", boom)
        programs = [build_family("conficker")]
        obs.reset()
        result = analyze_population(
            programs, config=PipelineConfig(sample_retries=0), jobs=1
        )
        assert [f.sample for f in result.failures] == ["conficker"]
        assert obs.flight.window is None
        assert [e.kind for e in obs.flight.outside_window()] == ["sample.failed"]


# ---------------------------------------------------------------------------
# explain CLI
# ---------------------------------------------------------------------------


class TestExplainCli:
    def test_explain_conficker_prints_chains(self, capsys):
        assert main(["explain", "conficker"]) == 0
        out = capsys.readouterr().out
        assert "decision(s) to explain" in out
        assert "[e" in out and "vaccine:" in out

    def test_explain_vaccine_filter_reaches_interception(self, capsys):
        assert main(["explain", "conficker", "--vaccine", "WORKSTATION"]) == 0
        out = capsys.readouterr().out
        assert "OpenMutexA" in out
        assert "seeded taint" in out

    def test_explain_json_export(self, capsys, tmp_path):
        path = tmp_path / "prov.json"
        assert main(["explain", "conficker", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["sample"] == "conficker"
        assert doc["anchors"]
        assert doc["journal"]["events"]

    def test_explain_no_match_exits_nonzero(self, capsys):
        assert main(["explain", "conficker", "--vaccine", "no-such-thing"]) == 1

    def test_stats_flame_flags(self, capsys, tmp_path):
        snap = tmp_path / "m.json"
        assert main(["analyze", "ibank", "--metrics", str(snap)]) == 0
        capsys.readouterr()
        assert main(["stats", str(snap), "--depth", "2", "--top", "1"]) == 0
        tree = capsys.readouterr().out.split("== profile ==\n", 1)[1].splitlines()
        assert tree[0].startswith("pipeline.analyze ")
        assert tree[1].startswith("  ") and not tree[1].startswith("   ")
        assert tree[2].strip().startswith("... +")
