"""``repro.obs`` — metrics registry, exporters, the pipeline's timing
tree, and the pipeline/CLI integration."""

import json

import pytest

from repro import AutoVac, obs
from repro.corpus import build_family
from repro.obs.metrics import MetricsRegistry
from repro.core.pipeline import STAGES


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
        reg.counter("x").inc()
        reg.counter("x").inc(2.5)
        assert reg.value("x") == 3.5

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("calls", api="OpenMutexA").inc()
        reg.counter("calls", api="CreateFileA").inc(4)
        assert reg.value("calls", api="OpenMutexA") == 1
        assert reg.value("calls", api="CreateFileA") == 4
        assert reg.total("calls") == 5

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("c", a="1", b="2").inc()
        assert reg.value("c", b="2", a="1") == 1


class TestDisabled:
    def test_disabled_registry_hands_out_nulls(self):
        reg = MetricsRegistry()
        reg.enabled = False
        reg.counter("n").inc()
        assert list(reg.families()) == []

    def test_obs_disabled_context(self):
        with obs.disabled():
            assert not obs.is_enabled()
            obs.metrics.counter("hidden").inc()
            obs.prof.add("invisible", 1.0)
        assert obs.is_enabled()
        assert obs.metrics.total("hidden") == 0
        assert len(obs.prof) == 0


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------


class TestExporters:
    def _populate(self):
        obs.metrics.counter(
            "daemon.calls_matched", resource="mutex", mechanism="simulate_presence"
        ).inc(7)
        obs.metrics.counter("campaign.infections").inc(3)
        obs.prof.record("pipeline.analyze", 0.02)
        obs.prof.record("pipeline.analyze;phase1", 0.015)

    def test_json_roundtrip(self, tmp_path):
        self._populate()
        path = tmp_path / "snap.json"
        written = obs.export_json(path)
        loaded = obs.load(path)
        assert loaded == json.loads(json.dumps(written))
        calls = loaded["metrics"]["daemon.calls_matched"]
        assert calls["kind"] == "counter"
        assert calls["series"][0]["value"] == 7
        assert loaded["profile"] == {
            "pipeline.analyze": [1, 0.02],
            "pipeline.analyze;phase1": [1, 0.015],
        }

    def test_load_rejects_non_snapshot(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            obs.load(bad)

    def test_load_accepts_snapshot_with_help_strings(self, tmp_path):
        # Snapshots written before the registry dropped help strings.
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"metrics": {"pipeline.cache_hits": {
            "kind": "counter", "help": "", "series": [{"labels": {}, "value": 4}]
        }}}))
        text = obs.render_prometheus(obs.load(path))
        assert text == "# TYPE repro_pipeline_cache_hits counter\nrepro_pipeline_cache_hits_total 4\n"

    def test_prometheus_text(self):
        self._populate()
        text = obs.render_prometheus(obs.export_snapshot())
        assert "# TYPE repro_daemon_calls_matched counter" in text
        assert (
            'repro_daemon_calls_matched_total{mechanism="simulate_presence",'
            'resource="mutex"} 7' in text
        )
        assert "repro_campaign_infections_total 3" in text

    def test_render_stats_text(self):
        self._populate()
        text = obs.render_stats(obs.export_snapshot())
        assert "daemon.calls_matched{mechanism=simulate_presence,resource=mutex}" in text
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
        # only the tier counters perfbench reads.  A copy creeping back
        # shows up here.
        AutoVac().analyze(build_family("conficker"))
        assert set(obs.metrics.snapshot()) == {
            "vm.fast_steps",
            "vm.superblocks.compiled",
            "vm.superblocks.entries",
            "vm.superblocks.guard_exits",
        }

    @pytest.mark.parametrize("mode", ["jobs1", "jobs2", "warm_cache"])
    def test_survey_writes_only_counts_nothing_else_records(self, mode, tmp_path):
        # Survey facts live in the PopulationResult, the journal and the
        # timing tree; only cache/pool traffic and the tier counters are
        # left to the registry, whatever jobs or cache state.
        from repro.core.executor import analyze_population
        from repro.corpus import GeneratorConfig, generate_population

        population = generate_population(GeneratorConfig(size=60, seed=42))  # golden
        programs = [s.program for s in population]
        cache = tmp_path if mode == "warm_cache" else None
        if cache is not None:
            analyze_population(programs, cache=cache)
            obs.reset()
        result = analyze_population(programs, jobs=2 if mode == "jobs2" else 1, cache=cache)
        assert len(result.analyses) + len(result.failures) == 60
        written = {
            name for name in obs.metrics.snapshot()
            if not name.startswith("pipeline.cache_") and name != "pipeline.pool_respawns"
        }
        assert written <= {
            "vm.fast_steps",
            "vm.superblocks.compiled",
            "vm.superblocks.entries",
            "vm.superblocks.guard_exits",
        }

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
        # The infection curve lives in CampaignResult.history and the
        # daemon's hook accounting in its attributes; the registry keeps
        # only the infection and match counts nothing else records.  A
        # gauge or an attribute mirror creeping back shows up here.
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
        assert set(snapshot) == {
            "campaign.attempts_blocked",
            "campaign.blocked_by",
            "campaign.infection_attempts",
            "campaign.infections",
            "daemon.calls_matched",
            "vm.fast_steps",
            "vm.superblocks.compiled",
            "vm.superblocks.entries",
            "vm.superblocks.guard_exits",
        }
        assert {family["kind"] for family in snapshot.values()} == {"counter"}
        attempts = obs.metrics.total("campaign.infection_attempts")
        assert attempts == (
            obs.metrics.total("campaign.infections")
            + obs.metrics.total("campaign.attempts_blocked")
        ) > 0
        assert result.history[-1].round == 2
        assert obs.metrics.total("daemon.calls_matched") == daemon.calls_matched > 0
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
        assert data["metrics"]["vm.fast_steps"]["series"][0]["value"] > 0

        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "pipeline.analyze" in out and "phase1" in out
        assert main(["stats", str(path), "--prom"]) == 0
        assert "repro_vm_fast_steps_total" in capsys.readouterr().out

    def test_survey_metrics(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "survey.json"
        assert main(["survey", "--size", "6", "--seed", "3",
                     "--metrics", str(path)]) == 0
        data = obs.load(path)
        assert data["profile"]["pipeline.analyze"][0] == 6

    @pytest.mark.parametrize("prom", [False, True], ids=["plain", "prom"])
    @pytest.mark.parametrize(
        "family",
        [
            {"kind": "counter"},
            {"kind": "counter", "series": [{"labels": {}}]},
            # A family written before the registry dropped gauges.
            {"kind": "gauge", "series": [{"labels": {}, "value": 3}]},
            # A family written before the registry dropped histograms.
            {"kind": "histogram", "help": "", "series": [
                {"labels": {}, "count": 1, "sum": 0.5, "max": 0.5, "bucket_counts": [1]}
            ]},
        ],
        ids=["no_series", "no_value", "gauge", "histogram"],
    )
    def test_stats_rejects_malformed_family(self, tmp_path, family, prom):
        from repro.cli import main

        path = tmp_path / "m.json"
        path.write_text(json.dumps({"metrics": {"x.family": family}}))
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(path)] + (["--prom"] if prom else []))
        message = str(exc.value)
        assert message.startswith("error: ")
        assert str(path) in message and "'x.family'" in message

    def test_stats_on_garbage_path_errors(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["stats", "/nonexistent/m.json"])
