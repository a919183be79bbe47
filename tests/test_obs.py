"""``repro.obs`` — metrics registry, structured logging, exporters, the
pipeline's timing tree, and the pipeline/CLI integration."""

import json
import logging

import pytest

from repro import AutoVac, obs
from repro.corpus import build_family
from repro.obs.metrics import MAX_LABEL_SETS, Histogram, MetricsRegistry
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

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("dual").inc()
        with pytest.raises(TypeError):
            reg.gauge("dual")

    def test_cardinality_cap(self):
        reg = MetricsRegistry()
        for i in range(MAX_LABEL_SETS + 25):
            reg.counter("wild", key=str(i)).inc()
        family = next(f for f in reg.families() if f.name == "wild")
        assert len(family.children) == MAX_LABEL_SETS
        assert reg.dropped_label_sets == 25
        # Overflow label sets get a null instrument, not an exception.
        reg.counter("wild", key="overflow-again").inc()

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("fleet.infected")
        g.set(10)
        g.inc(3)
        g.dec()
        assert reg.value("fleet.infected") == 12


class TestHistogram:
    def test_bucketing(self):
        h = Histogram(buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0, 0.5):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 2, 1]  # last slot = +Inf overflow
        assert h.count == 5
        assert h.sum == pytest.approx(6.055)
        assert h.min == 0.005 and h.max == 5.0
        assert h.mean == pytest.approx(6.055 / 5)

    def test_boundary_lands_in_lower_bucket(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.bucket_counts == [1, 0, 0]


class TestDisabled:
    def test_disabled_registry_hands_out_nulls(self):
        reg = MetricsRegistry()
        reg.enabled = False
        reg.counter("n").inc()
        reg.gauge("n2").set(5)
        reg.histogram("n3").observe(1)
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
# structured logging
# ----------------------------------------------------------------------


class TestLogging:
    def test_key_value_format(self, capsys):
        from repro.obs.log import KeyValueFormatter

        record = logging.LogRecord("repro.t", logging.INFO, __file__, 1,
                                   "did a thing", (), None)
        record.kv_fields = {"sample": "zeus", "note": "two words"}
        line = KeyValueFormatter().format(record)
        assert "level=info" in line
        assert 'msg="did a thing"' in line
        assert "sample=zeus" in line
        assert 'note="two words"' in line

    def test_env_switch_sets_level(self, monkeypatch):
        from repro.obs import log as obslog

        monkeypatch.setenv(obslog.ENV_VAR, "debug")
        obslog.configure()
        assert obslog.get_logger("t").level == logging.DEBUG
        monkeypatch.delenv(obslog.ENV_VAR)
        obslog.configure()
        assert obslog.get_logger("t").level == logging.WARNING


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------


class TestExporters:
    def _populate(self):
        obs.metrics.counter("winapi.calls", api="OpenMutexA", outcome="success").inc(7)
        obs.metrics.gauge("campaign.infected").set(3)
        obs.metrics.histogram("pipeline.analyze_seconds").observe(0.02)
        obs.prof.record("pipeline.analyze", 0.02)
        obs.prof.record("pipeline.analyze;phase1", 0.015)

    def test_json_roundtrip(self, tmp_path):
        self._populate()
        path = tmp_path / "snap.json"
        written = obs.export_json(path)
        loaded = obs.load(path)
        assert loaded == json.loads(json.dumps(written))
        calls = loaded["metrics"]["winapi.calls"]
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

    def test_prometheus_text(self):
        self._populate()
        text = obs.metrics.to_prometheus()
        assert "# TYPE repro_winapi_calls counter" in text
        assert 'repro_winapi_calls_total{api="OpenMutexA",outcome="success"} 7' in text
        assert "repro_campaign_infected 3" in text
        assert "repro_pipeline_analyze_seconds_count 1" in text
        assert 'le="+Inf"' in text

    def test_prometheus_histogram_is_cumulative(self):
        h = obs.metrics.histogram("h", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        text = obs.metrics.to_prometheus()
        assert 'repro_h_bucket{le="1.0"} 1' in text
        assert 'repro_h_bucket{le="2.0"} 2' in text
        assert 'repro_h_bucket{le="+Inf"} 2' in text

    def test_render_stats_text(self):
        self._populate()
        text = obs.render_stats(obs.export_snapshot())
        assert "winapi.calls{api=OpenMutexA,outcome=success}" in text
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
        assert obs.metrics.total("winapi.calls") > 0
        assert obs.metrics.total("winapi.resource_ops") > 0
        assert obs.metrics.total("vm.instructions") > 0
        assert obs.metrics.total("vm.tainted_predicates") > 0
        assert obs.metrics.value("pipeline.samples") == 1

    def test_runs_ended_by_raising_are_counted(self):
        # Impact's capture run and determinism's slice re-run end when an
        # interceptor raises; their steps and calls still reach the metrics,
        # so the totals agree with the profile tree's counts.
        with obs.profiled():
            analysis = AutoVac().analyze(build_family("conficker"))

        def count(parent):
            return sum(
                n for path, (n, _s) in analysis.profile.items()
                if path.split(";")[-2:-1] == [parent]
            )

        assert obs.metrics.total("vm.instructions") == count("vm")
        assert obs.metrics.total("vm.api_calls") == count("api")
        assert obs.metrics.total("winapi.calls") == count("api")
        assert obs.metrics.value("vm.runs", status="interrupted") > 0

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
        assert obs.metrics.total("vm.instructions") == 0

    def test_campaign_gauges(self):
        from repro.campaign import Fleet, simulate_outbreak

        worm = build_family("conficker")
        result = simulate_outbreak(worm, Fleet(size=6, seed=1), rounds=2,
                                   max_steps=50_000)
        assert obs.metrics.value("campaign.round") == 2
        assert obs.metrics.value("campaign.infected") == result.history[-1].infected
        assert obs.metrics.total("campaign.infection_attempts") > 0

    def test_daemon_flush_metrics(self):
        from repro import SystemEnvironment, VaccinePackage, deploy
        from repro.core import DeliveryKind, run_sample

        analysis = AutoVac().analyze(build_family("conficker"))
        host = SystemEnvironment()
        deployment = deploy(VaccinePackage(vaccines=analysis.vaccines), host)
        assert deployment.daemon is not None
        run_sample(build_family("conficker"), environment=host,
                   record_instructions=False)
        deployment.daemon.flush_metrics()
        assert obs.metrics.value("daemon.calls_seen") > 0
        assert obs.metrics.value("daemon.hook_seconds") >= 0


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


class TestCliMetrics:
    def test_analyze_metrics_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "m.json"
        assert main(["analyze", "conficker", "--metrics", str(path)]) == 0
        data = obs.load(path)
        # Acceptance: per-stage cells, per-API counters, VM instruction counts.
        profile = data["profile"]
        assert profile["pipeline.analyze"][0] == 1
        for stage in ("phase1", "exclusiveness", "impact", "determinism", "policy"):
            assert profile[f"pipeline.analyze;{stage}"][0] == 1
        assert "pipeline.analyze;clinic" not in profile  # no clinic programs
        assert any(k.startswith("winapi.calls") for k in data["metrics"])
        assert data["metrics"]["vm.instructions"]["series"][0]["value"] > 0

        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "pipeline.analyze" in out and "phase1" in out
        assert main(["stats", str(path), "--prom"]) == 0
        assert "repro_vm_instructions_total" in capsys.readouterr().out

    def test_survey_metrics(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "survey.json"
        assert main(["survey", "--size", "6", "--seed", "3",
                     "--metrics", str(path)]) == 0
        data = obs.load(path)
        assert data["profile"]["pipeline.analyze"][0] == 6
        assert data["metrics"]["pipeline.samples"]["series"][0]["value"] == 6

    def test_stats_on_garbage_path_errors(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["stats", "/nonexistent/m.json"])
