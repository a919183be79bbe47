"""Parallel executor, result cache, metrics merging, shard merging.

The determinism regression at the heart of this module: the same seeded
population must produce byte-identical vaccine sets and identical
PopulationResult tables for any ``jobs`` level and for cold vs warm cache —
that is what makes fanning the paper's 1,716-sample workload out to worker
processes a pure speedup.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.campaign import build_fleet_package
from repro.core import AutoVac
from repro.core.executor import (
    PipelineConfig,
    ResultCache,
    analyze_population,
    config_for,
)
from repro.core.pipeline import PopulationResult
from repro.core.stages import ExclusivenessStage, default_stages
from repro.corpus import GeneratorConfig, all_families, build_family, generate_population
from repro.obs.metrics import MetricsRegistry
from repro.search.engine import SearchEngine
from repro.winenv import MachineIdentity, ResourceType, SystemEnvironment

SIZE = 12
SEED = 5


@pytest.fixture(scope="module")
def programs():
    return [
        s.program for s in generate_population(GeneratorConfig(size=SIZE, seed=SEED))
    ]


@pytest.fixture(scope="module")
def config():
    return PipelineConfig()


def vaccine_bytes(result: PopulationResult) -> str:
    """Canonical byte form of the whole vaccine set (order-sensitive)."""
    return json.dumps([v.to_dict() for v in result.vaccines], sort_keys=True)


def tables(result: PopulationResult) -> dict:
    return {
        "resource_immunization": result.count_by_resource_and_immunization(),
        "identifier_kind": result.count_by_identifier_kind(),
        "delivery": result.count_by_delivery(),
        "occurrences": result.occurrence_stats(),
        "resource_ops": result.resource_operation_stats(),
        "category_resource": result.count_by_category_and_resource(),
        "category_delivery": result.count_by_category_and_delivery(),
    }


class TestParallelDeterminism:
    def test_jobs4_matches_jobs1(self, programs, config):
        seq = analyze_population(programs, config=config, jobs=1)
        par = analyze_population(programs, config=config, jobs=4)
        assert vaccine_bytes(par) == vaccine_bytes(seq)
        assert tables(par) == tables(seq)

    def test_parallel_metrics_and_profile(self, programs, config):
        obs.reset()
        result = analyze_population(programs, config=config, jobs=4)
        assert len(result.analyses) == SIZE
        # Worker snapshots folded into the parent registry.
        assert obs.metrics.value("pipeline.samples") == SIZE
        assert obs.metrics.value("pipeline.vaccines") == len(result.vaccines)
        snapshot = obs.metrics.snapshot()
        hist = snapshot["pipeline.analyze_seconds"]["series"][0]
        assert hist["count"] == SIZE
        assert hist["sum"] > 0
        # Worker timing trees absorbed: one pipeline.analyze cell per sample.
        assert obs.prof.snapshot()["pipeline.analyze"][0] == SIZE
        # The progress gauge ends at the population size even though worker
        # completion order is arbitrary.
        assert obs.metrics.value("pipeline.population_analyzed") == SIZE

    def test_parallel_results_keep_input_order(self, programs, config):
        result = analyze_population(programs, config=config, jobs=4)
        assert [a.program.name for a in result.analyses] == [
            p.name for p in programs
        ]

    def test_sequential_gauge_reaches_population_size(self, programs, config):
        obs.reset()
        analyze_population(programs, config=config, jobs=1)
        assert obs.metrics.value("pipeline.population_analyzed") == SIZE


class TestResultCache:
    def test_cold_then_warm_is_identical_and_all_hits(self, programs, config, tmp_path):
        obs.reset()
        cold = analyze_population(programs, config=config, jobs=1, cache=tmp_path)
        assert obs.metrics.value("pipeline.cache_misses") == SIZE
        assert obs.metrics.value("pipeline.cache_stores") == SIZE

        obs.reset()
        warm = analyze_population(programs, config=config, jobs=1, cache=tmp_path)
        assert obs.metrics.value("pipeline.cache_hits") == SIZE
        assert obs.metrics.value("pipeline.samples") == 0  # nothing re-analyzed
        assert obs.metrics.value("pipeline.population_analyzed") == SIZE
        assert vaccine_bytes(warm) == vaccine_bytes(cold)
        assert tables(warm) == tables(cold)

    def test_interrupted_survey_resumes_missing_samples_only(
        self, programs, config, tmp_path
    ):
        # "Interrupted" run: only the first half made it into the cache.
        analyze_population(programs[: SIZE // 2], config=config, jobs=1, cache=tmp_path)
        obs.reset()
        full = analyze_population(programs, config=config, jobs=2, cache=tmp_path)
        assert obs.metrics.value("pipeline.cache_hits") == SIZE // 2
        assert obs.metrics.value("pipeline.cache_misses") == SIZE - SIZE // 2
        # Only the missing half went through the pipeline.
        assert obs.metrics.value("pipeline.samples") == SIZE - SIZE // 2
        assert len(full.analyses) == SIZE
        reference = analyze_population(programs, config=config, jobs=1)
        assert vaccine_bytes(full) == vaccine_bytes(reference)

    def test_key_depends_on_program_and_config(self, config, tmp_path):
        cache = ResultCache(tmp_path)
        zeus, conficker = build_family("zeus"), build_family("conficker")
        assert cache.key(zeus, config) != cache.key(conficker, config)
        other = PipelineConfig(explore_paths=True)
        assert cache.key(zeus, config) != cache.key(zeus, other)
        assert cache.key(zeus, config) == cache.key(build_family("zeus"), config)

    def test_corrupt_entry_reads_as_miss_and_is_evicted(self, config, tmp_path):
        obs.reset()
        cache = ResultCache(tmp_path)
        program = build_family("zeus")
        key = cache.key(program, config)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        assert cache.load_entry(key) is None
        # The undecodable file is unlinked, not left to be re-read forever.
        assert not path.exists()
        assert obs.metrics.value("pipeline.cache_evictions") == 1
        # A second probe is a plain miss on an absent file: no double-evict.
        assert cache.load_entry(key) is None
        assert obs.metrics.value("pipeline.cache_evictions") == 1

    def test_version_skewed_entry_is_evicted(self, config, tmp_path):
        cache = ResultCache(tmp_path)
        program = build_family("zeus")
        key = cache.key(program, config)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Valid JSON, but not a decodable analysis payload.
        path.write_text(json.dumps({"format_version": 99}))
        assert cache.load_entry(key) is None
        assert not path.exists()

    def test_stale_tmp_litter_swept_on_open(self, config, tmp_path):
        obs.reset()
        cache = ResultCache(tmp_path)
        program = build_family("zeus")
        key = cache.key(program, config)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Orphan left by a writer that died between write_text and replace
        # (a pid far above any kernel pid_max, so definitely not running).
        dead = path.with_suffix(".tmp.999999999")
        dead.write_text("{partial")
        # A live writer's tmp (our own pid) must be left alone.
        ours = path.with_suffix(f".tmp.{os.getpid()}")
        ours.write_text("{in progress")
        removed = cache.sweep_stale()
        assert removed == 1
        assert not dead.exists()
        assert ours.exists()
        assert obs.metrics.value("pipeline.cache_tmp_swept") == 1
        ours.unlink()

    def test_sweep_runs_on_cache_open(self, config, tmp_path):
        cache = ResultCache(tmp_path)
        program = build_family("zeus")
        path = cache._path(cache.key(program, config))
        path.parent.mkdir(parents=True, exist_ok=True)
        orphan = path.with_suffix(".tmp.999999999")
        orphan.write_text("{partial")
        ResultCache(tmp_path)  # re-open sweeps
        assert not orphan.exists()


class TestPopulationResultMerge:
    def test_merge_then_count_equals_count_then_sum(self, programs, config):
        whole = analyze_population(programs, config=config, jobs=1)
        shards = [
            analyze_population(programs[i : i + 4], config=config, jobs=1)
            for i in range(0, SIZE, 4)
        ]
        merged = shards[0].merge(*shards[1:])
        assert len(merged.analyses) == SIZE
        assert tables(merged) == tables(whole)

        # count-then-sum over shards reproduces every merged table cell.
        for name in ("count_by_resource_and_immunization", "resource_operation_stats"):
            summed: dict = {}
            for shard in shards:
                for row_key, row in getattr(shard, name)().items():
                    acc = summed.setdefault(row_key, {})
                    for col, n in row.items():
                        acc[col] = acc.get(col, 0) + n
            assert summed == getattr(merged, name)()
        summed_occ = {"total": 0, "influential": 0}
        for shard in shards:
            for key, n in shard.occurrence_stats().items():
                summed_occ[key] += n
        assert summed_occ == merged.occurrence_stats()

    def test_merge_does_not_mutate_inputs(self, programs, config):
        a = analyze_population(programs[:2], config=config, jobs=1)
        b = analyze_population(programs[2:4], config=config, jobs=1)
        merged = a.merge(b)
        assert len(a.analyses) == 2 and len(b.analyses) == 2
        assert len(merged.analyses) == 4


class TestMetricsMerge:
    def test_counters_and_gauges_add(self):
        worker = MetricsRegistry()
        worker.counter("c", help="h").inc(3)
        worker.counter("c", api="X").inc(2)
        worker.gauge("g").set(5)
        parent = MetricsRegistry()
        parent.counter("c").inc(1)
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())
        assert parent.value("c") == 7  # 1 + 3 + 3
        assert parent.value("c", api="X") == 4
        assert parent.value("g") == 10
        assert parent.total("c") == 11

    def test_histograms_merge_elementwise(self):
        worker = MetricsRegistry()
        for v in (0.001, 0.2, 50.0):
            worker.histogram("h").observe(v)
        parent = MetricsRegistry()
        parent.histogram("h").observe(0.001)
        parent.merge(worker.snapshot())
        series = parent.snapshot()["h"]["series"][0]
        assert series["count"] == 4
        assert series["min"] == 0.001 and series["max"] == 50.0
        assert abs(series["sum"] - 50.202) < 1e-9
        assert sum(series["bucket_counts"]) == 4
        assert series["bucket_counts"][-1] == 1  # the 50s overflow observation

    def test_histograms_rebin_on_foreign_buckets(self):
        worker = MetricsRegistry()
        worker.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
        worker.histogram("h", buckets=(1.0, 10.0)).observe(5.0)
        worker.histogram("h", buckets=(1.0, 10.0)).observe(100.0)
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(2.0, 20.0)).observe(1.5)
        parent.merge(worker.snapshot())
        series = parent.snapshot()["h"]["series"][0]
        assert series["count"] == 4
        assert sum(series["bucket_counts"]) == 4
        # 0.5 and 1.5 land <=2.0; the 1-10 bucket re-bins to <=20; 100 overflows.
        assert series["bucket_counts"] == [2, 1, 1]

    def test_merged_totals_equal_sum_of_worker_snapshots(self):
        workers = []
        for i in range(3):
            reg = MetricsRegistry()
            reg.counter("pipeline.samples").inc(i + 1)
            reg.histogram("t").observe(0.01 * (i + 1))
            workers.append(reg.snapshot())
        parent = MetricsRegistry()
        for snap in workers:
            parent.merge(snap)
        assert parent.value("pipeline.samples") == sum(
            s["pipeline.samples"]["series"][0]["value"] for s in workers
        )
        merged_hist = parent.snapshot()["t"]["series"][0]
        assert merged_hist["count"] == 3
        assert abs(merged_hist["sum"] - 0.06) < 1e-12

    def test_disabled_registry_ignores_merge(self):
        worker = MetricsRegistry()
        worker.counter("c").inc()
        parent = MetricsRegistry()
        parent.enabled = False
        parent.merge(worker.snapshot())
        parent.enabled = True
        assert parent.value("c") == 0.0


class TestConfigPlumbing:
    def test_autovac_analyze_population_accepts_jobs(self, programs):
        result = AutoVac().analyze_population(programs[:4], jobs=2)
        reference = AutoVac().analyze_population(programs[:4])
        assert vaccine_bytes(result) == vaccine_bytes(reference)

    def test_config_for_rejects_clinic(self):
        autovac = AutoVac(clinic_programs=[build_family("zeus")])
        with pytest.raises(ValueError, match="clinic"):
            config_for(autovac)

    def test_cached_sequential_refusal_names_the_cache(self, tmp_path):
        """jobs=1 with a cache goes through config_for too: the refusal must
        say to drop the cache, not to run with jobs=1 (which it already is)."""
        autovac = AutoVac(clinic_programs=[build_family("zeus")])
        with pytest.raises(ValueError, match="clinic.*jobs=1 and no cache"):
            autovac.analyze_population([build_family("sality")], jobs=1, cache=tmp_path)

    @pytest.mark.parametrize("setup", ["environment", "search_engine"])
    def test_config_for_rejects_custom_machine(self, setup):
        custom = {"environment": SystemEnvironment(), "search_engine": SearchEngine()}
        autovac = AutoVac(**{setup: custom[setup]})
        with pytest.raises(ValueError, match="custom analysis machine"):
            config_for(autovac)

    def test_parallel_survey_refuses_custom_machine(self):
        """Workers rebuild the pipeline from a config, which carries no
        machine: they would analyse on the default one (another computer
        name, another conficker mutex) and the cache would key both alike."""
        machine = SystemEnvironment(
            identity=MachineIdentity(computer_name="OTHER-HOST-77"), rng_seed=7
        )
        autovac = AutoVac(environment=machine)
        with pytest.raises(ValueError, match="custom analysis machine"):
            autovac.analyze_population(all_families(), jobs=2)
        mutexes = {
            v.identifier
            for a in autovac.analyze_population([build_family("conficker")]).analyses
            for v in a.vaccines
            if v.resource_type is ResourceType.MUTEX
        }
        assert mutexes == {"Global\\OTHER-HOST-77-3a062d"}

    def test_config_for_rejects_reparameterized_stage(self):
        """Stage lists compare by value: a default-typed list whose
        exclusiveness stage lets everything through must not ship the
        filtering default to workers."""
        stages = tuple(
            ExclusivenessStage(enforce=False) if isinstance(s, ExclusivenessStage) else s
            for s in default_stages()
        )
        programs = [build_family("sality"), build_family("zeus")]
        with pytest.raises(ValueError, match="custom stage lists"):
            AutoVac(stages=stages).analyze_population(programs, jobs=2)

    def test_config_for_round_trips_flags(self):
        autovac = AutoVac(explore_paths=True, profile_budget=12_345)
        cfg = config_for(autovac)
        assert cfg == PipelineConfig(profile_budget=12_345, explore_paths=True)


def test_build_fleet_package_matches_direct_analysis(programs):
    package = build_fleet_package(programs[:4], jobs=2)
    reference = analyze_population(programs[:4], config=PipelineConfig(), jobs=1)
    assert [v.to_dict() for v in package.vaccines] == [
        v.to_dict() for v in reference.vaccines
    ]
    assert package.description == "fleet vaccination campaign"
