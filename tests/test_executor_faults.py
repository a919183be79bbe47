"""Failure semantics of the population executor (fault-injection harness).

The invariants pinned here: a failing sample never aborts a survey, healthy
analyses are unaffected by their neighbours' failures, the retry/timeout/
quarantine machinery behaves identically at jobs=1 and jobs>1 under the
same fault plan, and a quarantined sample's negative cache entry prevents
hot re-crashing on restart.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.core.executor import PipelineConfig, analyze_population
from repro.core.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedCrash,
    InjectedHang,
)
from repro.core.pipeline import SampleFailure
from repro.core.report import render_failure_summary
from repro.corpus import GeneratorConfig, generate_population
from repro.tracing import serialize

SIZE = 8
SEED = 5


@pytest.fixture(scope="module")
def programs():
    return [
        s.program for s in generate_population(GeneratorConfig(size=SIZE, seed=SEED))
    ]


def fast_config(**kw) -> PipelineConfig:
    kw.setdefault("retry_backoff", 0.0)
    return PipelineConfig(**kw)


def failure_table(result):
    return [(f.sample, f.kind, f.attempts) for f in result.failed()]


class TestFaultPlanParsing:
    def test_directives_parse(self):
        plan = FaultPlan.parse("crash:3@1, hang:7; abort:zeus")
        assert plan.specs == (
            FaultSpec("crash", "3", 1),
            FaultSpec("hang", "7", None),
            FaultSpec("abort", "zeus", None),
        )
        assert bool(plan)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.parse("")
        assert not FaultPlan.from_env(environ={})

    def test_applies_by_index_name_and_attempt(self):
        spec = FaultSpec("crash", "3", 2)
        assert spec.applies(3, "x", 2)
        assert not spec.applies(3, "x", 1)
        assert not spec.applies(4, "x", 2)
        named = FaultSpec("crash", "zeus", None)
        assert named.applies(0, "zeus", 5)
        assert not named.applies(0, "zeus-2", 1)

    @pytest.mark.parametrize(
        "text", ["explode:3", "crash", "crash:", "crash:3@x", "crash:3@0"]
    )
    def test_bad_directives_raise(self, text):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(text)

    def test_from_env_reads_plan_and_hang_seconds(self):
        plan = FaultPlan.from_env(
            environ={FAULT_PLAN_ENV: "hang:1", "REPRO_FAULT_HANG_SECONDS": "0.25"}
        )
        assert plan.specs == (FaultSpec("hang", "1", None),)
        assert plan.hang_seconds == 0.25

    def test_raise_inline_kinds(self):
        plan = FaultPlan.parse("crash:0,hang:1")
        with pytest.raises(InjectedCrash):
            plan.raise_inline(0, "a", 1)
        with pytest.raises(InjectedHang):
            plan.raise_inline(1, "b", 1)
        plan.raise_inline(2, "c", 1)  # no directive: no-op


class TestInlineFailures:
    def test_crash_yields_failure_not_aborted_survey(self, programs):
        obs.reset()
        plan = FaultPlan.parse("crash:3")
        result = analyze_population(
            programs, config=fast_config(sample_retries=0), jobs=1, faults=plan
        )
        assert len(result.succeeded()) == SIZE - 1
        assert failure_table(result) == [(programs[3].name, "crash", 1)]
        failure = result.failed()[0]
        assert failure.error_type == "InjectedCrash"
        assert failure.index == 3
        assert len(result.failures) == 1
        assert len(result.analyses) + len(result.failures) == SIZE

    def test_retry_succeeds_on_attempt_two(self, programs):
        obs.reset()
        plan = FaultPlan.parse("crash:2@1")
        result = analyze_population(
            programs, config=fast_config(sample_retries=1), jobs=1, faults=plan
        )
        assert not result.failed()
        assert len(result.succeeded()) == SIZE
        assert obs.metrics.value("pipeline.sample_retries") == 1

    def test_quarantine_consumes_full_retry_budget(self, programs):
        obs.reset()
        plan = FaultPlan.parse("crash:1")
        result = analyze_population(
            programs, config=fast_config(sample_retries=2), jobs=1, faults=plan
        )
        assert failure_table(result) == [(programs[1].name, "crash", 3)]
        assert obs.metrics.value("pipeline.sample_retries") == 2

    def test_inline_hang_classified_as_timeout(self, programs):
        plan = FaultPlan.parse("hang:0")
        result = analyze_population(
            programs[:2], config=fast_config(sample_retries=0), jobs=1, faults=plan
        )
        assert failure_table(result) == [(programs[0].name, "timeout", 1)]
        assert result.failed()[0].error_type == "InjectedHang"

    def test_timeout_is_refused_at_jobs1(self, programs):
        # jobs=1 cannot kill an overrunning sample: a set timeout is an
        # error, not silently ignored.
        with pytest.raises(ValueError, match="sample_timeout"):
            analyze_population(
                programs[:2], config=fast_config(sample_timeout=1.0), jobs=1
            )
        with pytest.raises(SystemExit, match="error: sample_timeout"):
            main(["survey", "--size", "2", "--timeout", "5"])

    def test_plan_from_environment(self, programs, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "crash:0")
        result = analyze_population(
            programs[:2], config=fast_config(sample_retries=0), jobs=1
        )
        assert failure_table(result) == [(programs[0].name, "crash", 1)]


class TestParallelFailures:
    def test_crash_keeps_healthy_results_identical(self, programs):
        plan = FaultPlan.parse("crash:3,hang:5", hang_seconds=0.0)
        baseline = analyze_population(programs, config=fast_config(), jobs=1)
        result = analyze_population(
            programs, config=fast_config(sample_retries=0), jobs=2, faults=plan
        )
        assert failure_table(result) == [
            (programs[3].name, "crash", 1),
            (programs[5].name, "timeout", 1),
        ]
        failed_names = {f.sample for f in result.failed()}
        expected = [
            serialize.analysis_fingerprint(a)
            for a in baseline.analyses
            if a.program.name not in failed_names
        ]
        assert [serialize.analysis_fingerprint(a) for a in result.analyses] == expected

    def test_retry_succeeds_on_attempt_two(self, programs):
        obs.reset()
        plan = FaultPlan.parse("crash:2@1")
        result = analyze_population(
            programs, config=fast_config(sample_retries=1), jobs=2, faults=plan
        )
        assert not result.failed()
        assert len(result.succeeded()) == SIZE
        assert obs.metrics.value("pipeline.sample_retries") == 1

    def test_timeout_fires_on_hung_worker(self, programs):
        obs.reset()
        plan = FaultPlan.parse("hang:1", hang_seconds=60.0)
        result = analyze_population(
            programs[:4],
            config=fast_config(sample_timeout=1.0, sample_retries=0),
            jobs=2,
            faults=plan,
        )
        assert failure_table(result) == [(programs[1].name, "timeout", 1)]
        assert result.failed()[0].error_type == "TimeoutError"
        assert len(result.succeeded()) == 3
        # the hung worker's pool was killed and respawned for the others
        assert obs.metrics.value("pipeline.pool_respawns") >= 1

    def test_timeout_bounds_a_lone_pending_sample(self, programs, tmp_path):
        # A warm cache leaves exactly one sample pending; with a timeout set
        # it still runs in the pool, where its hang can be killed.
        config = fast_config(sample_timeout=1.0, sample_retries=0)
        analyze_population(programs[:2], config=config, jobs=2, cache=tmp_path)
        obs.reset()
        plan = FaultPlan.parse("hang:2", hang_seconds=60.0)
        result = analyze_population(
            programs[:3], config=config, jobs=2, cache=tmp_path, faults=plan
        )
        assert obs.metrics.value("pipeline.cache_hits") == 2
        assert failure_table(result) == [(programs[2].name, "timeout", 1)]
        assert result.failed()[0].error_type == "TimeoutError"
        assert obs.metrics.value("pipeline.pool_respawns") >= 1

    def test_worker_death_breaks_pool_but_not_survey(self, programs):
        obs.reset()
        plan = FaultPlan.parse("abort:2")
        result = analyze_population(
            programs[:6], config=fast_config(sample_retries=0), jobs=2, faults=plan
        )
        assert failure_table(result) == [(programs[2].name, "pool", 1)]
        assert result.failed()[0].error_type == "BrokenProcessPool"
        assert len(result.succeeded()) == 5
        assert obs.metrics.value("pipeline.pool_respawns") >= 1

    def test_pool_breaking_before_submit_requeues_uncharged(self, programs, monkeypatch):
        """A worker can die after ``wait()`` returns and before the next
        ``submit``, which then raises BrokenProcessPool itself — with
        nothing in flight (first submit) and with futures in flight (third).
        Both requeue the sample instead of letting the error escape."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        from repro.core import executor

        submits = []

        class BreakingPool(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(kwargs["index"])
                if len(submits) in (1, 3):
                    raise BrokenProcessPool("worker died")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(executor, "ProcessPoolExecutor", BreakingPool)
        result = analyze_population(
            programs[:6], config=fast_config(sample_retries=0), jobs=2
        )
        assert not result.failed()
        assert [a.program.name for a in result.analyses] == [
            p.name for p in programs[:6]
        ]
        assert len(submits) == 8  # every sample once, plus the two refused


class TestJobsParity:
    def test_same_plan_same_tables_any_jobs(self, programs):
        plan = FaultPlan.parse("crash:3,hang:5,crash:6@1", hang_seconds=0.0)
        config = fast_config(sample_retries=1)
        seq = analyze_population(programs, config=config, jobs=1, faults=plan)
        par = analyze_population(programs, config=config, jobs=2, faults=plan)
        assert failure_table(seq) == failure_table(par)
        assert json.dumps(
            [v.to_dict() for v in seq.vaccines], sort_keys=True
        ) == json.dumps([v.to_dict() for v in par.vaccines], sort_keys=True)
        assert (
            seq.count_by_resource_and_immunization()
            == par.count_by_resource_and_immunization()
        )
        assert seq.count_by_identifier_kind() == par.count_by_identifier_kind()
        assert seq.count_by_delivery() == par.count_by_delivery()


class TestNegativeCache:
    def test_restart_reports_failure_without_recrashing(self, programs, tmp_path):
        plan = FaultPlan.parse("crash:0")
        config = fast_config(sample_retries=0)
        first = analyze_population(
            programs, config=config, jobs=1, cache=tmp_path, faults=plan
        )
        assert failure_table(first) == [(programs[0].name, "crash", 1)]

        obs.reset()
        second = analyze_population(
            programs, config=config, jobs=1, cache=tmp_path, faults=FaultPlan()
        )
        assert failure_table(second) == [(programs[0].name, "crash", 1)]
        assert obs.metrics.value("pipeline.cache_negative_hits") == 1
        assert obs.metrics.value("pipeline.cache_hits") == SIZE - 1
        assert obs.metrics.total("vm.fast_steps") == 0  # no guest instruction ran
        assert len(second.analyses) + len(second.failures) == SIZE

    def test_execution_knobs_do_not_change_cache_keys(self):
        base = PipelineConfig()
        tweaked = PipelineConfig(
            sample_timeout=5.0, sample_retries=9, retry_backoff=1.0
        )
        assert base.fingerprint() == tweaked.fingerprint()

    def test_entries_from_an_older_cache_generation_miss(
        self, programs, tmp_path, monkeypatch
    ):
        from repro.core import executor

        monkeypatch.setattr(executor, "_CACHE_GENERATION", 1)
        analyze_population(programs[:2], config=fast_config(), jobs=1, cache=tmp_path)
        monkeypatch.undo()
        obs.reset()
        analyze_population(programs[:2], config=fast_config(), jobs=1, cache=tmp_path)
        assert obs.metrics.value("pipeline.cache_hits") == 0
        assert obs.metrics.value("pipeline.cache_misses") == 2
        assert obs.prof.snapshot()["pipeline.analyze"][0] == 2


class TestFailureSurfacing:
    def test_failure_round_trips_through_dict(self):
        failure = SampleFailure(
            sample="s", index=4, kind="timeout", error_type="TimeoutError",
            message="exceeded 2s wall clock", traceback="tb", attempts=3,
        )
        assert SampleFailure.from_dict(failure.to_dict()) == failure

    def test_describe_mentions_kind_and_attempts(self):
        failure = SampleFailure(
            sample="s", index=0, kind="crash", error_type="ValueError", attempts=2
        )
        text = failure.describe()
        assert "crash" in text and "2 attempt" in text

    def test_render_failure_summary(self):
        failures = [
            SampleFailure(
                sample="a", index=0, kind="crash", error_type="ValueError",
                message="boom", attempts=2,
            ),
            SampleFailure(
                sample="b", index=3, kind="timeout", error_type="TimeoutError",
                attempts=1,
            ),
        ]
        text = render_failure_summary(failures)
        assert "crash=1" in text and "timeout=1" in text
        assert "| `a` | crash | ValueError | 2 | boom |" in text
        empty = render_failure_summary([])
        assert "No failures" in empty

    def test_merge_concatenates_failures(self, programs):
        plan = FaultPlan.parse("crash:0")
        config = fast_config(sample_retries=0)
        a = analyze_population(programs[:2], config=config, jobs=1, faults=plan)
        b = analyze_population(programs[2:4], config=config, jobs=1, faults=plan)
        merged = a.merge(b)
        assert len(merged.failures) == 2
        assert len(a.failures) == 1 and len(b.failures) == 1
