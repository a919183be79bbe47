"""``repro.obs`` — the named-count registry, the snapshot file, the
pipeline's timing tree, and the pipeline/CLI integration."""

import json

import pytest

from repro import AutoVac, obs
from repro.corpus import build_family
from repro.obs.metrics import MetricsRegistry
from repro.core.pipeline import STAGES

#: The counts the registry keeps (perfbench and the survey's summary line
#: read them); every other count lives with the object that counts it.
KEPT = {
    "vm.fast_steps",
    "vm.superblocks.compiled",
    "vm.superblocks.entries",
    "snapshot.capture_failures",
    "snapshot.resume_failures",
}


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test sees an empty global registry/profiler and leaves it enabled."""
    obs.reset()
    obs.metrics.enabled = True
    yield
    obs.reset()


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------


class TestCounters:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        reg.add("x")
        reg.add("x", 2)
        assert reg.total("x") == 3
        assert reg.total("never") == 0

    def test_snapshot_is_a_flat_dict_and_reset_clears_it(self):
        reg = MetricsRegistry()
        reg.add("vm.fast_steps", 5)
        reg.add("snapshot.resume_failures")
        assert reg.snapshot() == {"vm.fast_steps": 5, "snapshot.resume_failures": 1}
        reg.reset()
        assert reg.snapshot() == {}


class TestDisabled:
    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry()
        reg.enabled = False
        reg.add("n")
        assert reg.snapshot() == {}

    def test_obs_disabled_context(self):
        with obs.disabled():
            assert not obs.metrics.enabled
            obs.metrics.add("hidden")
            obs.prof.add("invisible", 1.0)
        assert obs.metrics.enabled
        assert obs.metrics.total("hidden") == 0
        assert len(obs.prof) == 0


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------


class TestExporters:
    def _populate(self):
        obs.metrics.add("vm.fast_steps", 7)
        obs.metrics.add("snapshot.resume_failures", 3)
        obs.prof.record("pipeline.analyze", 0.02)
        obs.prof.record("pipeline.analyze;phase1", 0.015)

    def test_json_roundtrip(self, tmp_path):
        self._populate()
        path = tmp_path / "snap.json"
        written = obs.export_json(path)
        loaded = obs.load(path)
        assert loaded == json.loads(json.dumps(written))
        assert loaded["version"] == 2
        assert loaded["metrics"] == {"vm.fast_steps": 7, "snapshot.resume_failures": 3}
        assert loaded["profile"] == {
            "pipeline.analyze": [1, 0.02],
            "pipeline.analyze;phase1": [1, 0.015],
        }

    def test_load_rejects_non_snapshot(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            obs.load(bad)

    def test_load_refuses_a_version_1_snapshot(self, tmp_path):
        # The labelled-family layout: no reader is kept for it.
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"version": 1, "metrics": {"pipeline.cache_hits": {
            "kind": "counter", "series": [{"labels": {}, "value": 4}]
        }}}))
        with pytest.raises(ValueError, match="version 1 is not supported"):
            obs.load(path)

    def test_render_stats_text(self):
        self._populate()
        text = obs.render_stats(obs.export_snapshot())
        (fast,) = [line for line in text.splitlines() if "vm.fast_steps" in line]
        assert fast.split() == ["vm.fast_steps", "7"]
        assert "== profile ==" in text
        (phase1,) = [line for line in text.splitlines() if "phase1" in line]
        assert phase1.startswith("  phase1")  # one level below the root
        assert phase1.split()[1:] == [
            "n=1", "total=", "15.00ms", "self=", "15.00ms", "75.0%"
        ]


# ----------------------------------------------------------------------
# pipeline integration
# ----------------------------------------------------------------------


class TestPipelineIntegration:
    def test_every_executed_stage_records_one_cell_per_sample(self):
        for family in ("zeus", "conficker"):
            analysis = AutoVac().analyze(build_family(family))
            profile = analysis.profile
            assert profile["pipeline.analyze"][0] == 1
            stages = {
                path.split(";")[1]: cell
                for path, cell in profile.items()
                if path.startswith("pipeline.analyze;")
            }
            assert set(stages) == {
                "phase1", "exclusiveness", "impact", "determinism", "policy"
            }, family  # clinic is skipped: no clinic programs
            assert set(stages) <= set(STAGES)
            assert all(count == 1 for count, _ in stages.values())
            # Stages run inside analyze, one after another.
            assert sum(s for _, s in stages.values()) <= profile["pipeline.analyze"][1]

    def test_filtered_sample_records_only_phase1(self):
        from repro.vm.assembler import assemble

        inert = assemble("main:\n    nop\n    halt\n", name="inert")
        analysis = AutoVac().analyze(inert)
        assert analysis.filtered_reason
        assert set(analysis.profile) == {"pipeline.analyze", "pipeline.analyze;phase1"}
        assert list(analysis.timings) == ["phase1"]

    def test_timings_property_derives_from_profile(self):
        analysis = AutoVac().analyze(build_family("zeus"))
        timings = analysis.timings
        assert list(timings) == ["phase1", "exclusiveness", "impact", "determinism", "policy"]
        for stage, seconds in timings.items():
            assert seconds == analysis.profile[f"pipeline.analyze;{stage}"][1] > 0

    def test_dispatcher_and_vm_counters_populate(self):
        AutoVac().analyze(build_family("conficker"))
        assert obs.metrics.total("vm.fast_steps") > 0

    def test_default_analysis_writes_only_these_families(self):
        # Per-run counts live in the trace, the journal and the timing
        # tree, per-sample facts in the SampleAnalysis; the registry holds
        # only the counts perfbench reads.  A copy creeping back shows up
        # here.
        AutoVac().analyze(build_family("conficker"))
        snapshot = obs.metrics.snapshot()
        assert "vm.fast_steps" in snapshot
        assert set(snapshot) <= KEPT

    @pytest.mark.parametrize("mode", ["jobs1", "jobs2", "warm_cache"])
    def test_survey_writes_only_counts_nothing_else_records(self, mode, tmp_path):
        # Survey facts live in the PopulationResult, the journal and the
        # timing tree, cache traffic on the ResultCache; the registry keeps
        # only its five counts, whatever jobs or cache state.
        from repro.core.executor import ResultCache, analyze_population
        from repro.corpus import GeneratorConfig, generate_population

        population = generate_population(GeneratorConfig(size=60, seed=42))  # golden
        programs = [s.program for s in population]
        cache = None
        if mode == "warm_cache":
            analyze_population(programs, cache=tmp_path)
            obs.reset()
            cache = ResultCache(tmp_path)
        result = analyze_population(programs, jobs=2 if mode == "jobs2" else 1, cache=cache)
        assert len(result.analyses) + len(result.failures) == 60
        assert set(obs.metrics.snapshot()) <= KEPT
        assert result.retries == result.respawns == 0
        if cache is not None:
            assert cache.hits == len(result.analyses) > 0
            assert cache.negative_hits == len(result.failures)
            assert cache.misses == cache.stores == 0

    def test_runs_ended_by_raising_are_counted(self):
        # Impact's capture run and determinism's slice re-run end when an
        # interceptor raises; their fast steps still reach the metrics, so
        # the total agrees with the profile tree's ``vm;fast`` counts.
        with obs.profiled():
            analysis = AutoVac().analyze(build_family("conficker"))
        fast = sum(
            n for path, (n, _s) in analysis.profile.items()
            if path.endswith(";vm;fast")
        )
        assert fast > 0
        assert obs.metrics.total("vm.fast_steps") == fast

    def test_analysis_without_span_has_empty_timings(self):
        from repro.core.pipeline import SampleAnalysis

        assert SampleAnalysis(program=build_family("zeus")).timings == {}

    def test_disabled_pipeline_produces_no_telemetry_but_same_result(self):
        program = build_family("zeus")
        with obs.disabled():
            analysis = AutoVac().analyze(program)
        assert analysis.vaccines  # behaviour unchanged
        assert analysis.journal is None
        # The stage cells are part of the result; no hot-path cell is.
        assert all(path.count(";") <= 1 for path in analysis.profile)
        assert "impact" in analysis.timings
        assert obs.metrics.total("vm.fast_steps") == 0

    def test_campaign_and_protected_host_write_only_these_counters(self):
        # The infection curve and counts live on the CampaignResult, the
        # daemon's hook accounting and matches in its attributes; the
        # registry keeps only the VM tier counts.  A mirror creeping back
        # shows up here.
        from repro import SystemEnvironment, VaccinePackage
        from repro.campaign import Fleet, simulate_outbreak
        from repro.core import run_sample
        from repro.corpus import all_families
        from repro.delivery.daemon import VaccineDaemon

        families = all_families()
        analyses = [AutoVac().analyze(p) for p in families]
        worm = build_family("zeus")
        package = VaccinePackage(vaccines=AutoVac().analyze(worm).vaccines)
        obs.reset()
        result = simulate_outbreak(worm, Fleet(size=6, seed=1), rounds=2,
                                   vaccine_package=package, vaccinate_at_round=1,
                                   max_steps=50_000)
        daemon = VaccineDaemon(
            vaccines=[v for a in analyses for v in a.vaccines],
            policies=[a.policy for a in analyses if a.policy is not None],
        )
        host = SystemEnvironment()
        daemon.install(host)
        for program in families:
            run_sample(program, environment=host, record_instructions=False)

        snapshot = obs.metrics.snapshot()
        assert "vm.fast_steps" in snapshot
        assert set(snapshot) <= KEPT
        assert result.infection_attempts == (
            result.infections + result.attempts_blocked
        ) > 0
        assert result.attempts_blocked > 0
        # Each attributed block names the first rule the worm hit.
        assert 0 < sum(result.blocked_by.values()) <= result.attempts_blocked
        assert {origin for origin, _ in result.blocked_by} <= {"vaccine", "policy"}
        assert result.history[-1].round == 2
        assert sum(daemon.matches.values()) == daemon.calls_matched > 0
        assert daemon.calls_seen >= daemon.calls_matched


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


class TestCliMetrics:
    def test_analyze_metrics_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "m.json"
        assert main(["analyze", "conficker", "--metrics", str(path)]) == 0
        data = obs.load(path)
        # Acceptance: per-stage cells and the VM tier counters.
        profile = data["profile"]
        assert profile["pipeline.analyze"][0] == 1
        for stage in ("phase1", "exclusiveness", "impact", "determinism", "policy"):
            assert profile[f"pipeline.analyze;{stage}"][0] == 1
        assert "pipeline.analyze;clinic" not in profile  # no clinic programs
        assert data["metrics"]["vm.fast_steps"] > 0
        assert set(data["metrics"]) <= KEPT

        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "pipeline.analyze" in out and "phase1" in out
        assert "vm.fast_steps" in out

    def test_survey_metrics(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "survey.json"
        assert main(["survey", "--size", "6", "--seed", "3",
                     "--metrics", str(path)]) == 0
        data = obs.load(path)
        assert data["profile"]["pipeline.analyze"][0] == 6

    @pytest.mark.parametrize(
        "value",
        [
            # Labelled families of the version 1 layout inside a v2 file.
            {"kind": "counter"},
            {"kind": "counter", "series": [{"labels": {}}]},
            {"kind": "gauge", "series": [{"labels": {}, "value": 3}]},
            {"kind": "histogram", "help": "", "series": [
                {"labels": {}, "count": 1, "sum": 0.5, "max": 0.5, "bucket_counts": [1]}
            ]},
            "3",
            True,
            None,
        ],
        ids=["no_series", "no_value", "gauge", "histogram", "string", "bool", "null"],
    )
    def test_stats_rejects_malformed_count(self, tmp_path, value):
        from repro.cli import main

        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 2, "metrics": {"x.count": value}}))
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(path)])
        message = str(exc.value)
        assert message.startswith("error: ")
        assert str(path) in message and "'x.count'" in message

    @pytest.mark.parametrize("version", [None, 1, 3])
    def test_stats_refuses_other_snapshot_versions(self, tmp_path, version):
        from repro.cli import main

        path = tmp_path / "m.json"
        doc = {"metrics": {}} if version is None else {"version": version, "metrics": {}}
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(path)])
        message = str(exc.value)
        assert message.startswith("error: ") and str(path) in message
        assert f"version {version!r} is not supported" in message

    def test_stats_on_garbage_path_errors(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["stats", "/nonexistent/m.json"])
