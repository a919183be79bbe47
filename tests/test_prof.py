"""Hot-path profiler (``repro.obs.prof``): collection, determinism, merge,
export formats, and the CLI/report surfaces (PR 9).

The load-bearing property is *determinism*: a profile's path set and counts
depend only on what executed, so ``jobs=1`` and ``jobs=2`` runs of the same
corpus slice produce identical trees (wall times differ, structure and
counts do not).  That is what makes profiles mergeable across workers the
way metrics snapshots already are.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import AutoVac, SystemEnvironment, obs
from repro.cli import main as cli_main
from repro.core.executor import PipelineConfig, ResultCache, analyze_population
from repro.core.report import render_report
from repro.core.stages import ImpactStage
from repro.corpus import (
    FAMILIES,
    GeneratorConfig,
    all_families,
    build_family,
    generate_population,
)
from repro.delivery.daemon import VaccineDaemon
from repro.obs.prof import (
    Profiler,
    merge_profiles,
    render_table,
    render_tree,
    to_folded,
    to_tree,
)
from repro.tracing import serialize
from repro.vm.cpu import CPU
from repro.winapi.dispatcher import Dispatcher


@pytest.fixture(autouse=True)
def _clean_prof():
    """Profiling is opt-in; every test starts and ends with it off/empty."""
    obs.prof.enabled = False
    obs.prof.reset()
    yield
    obs.prof.enabled = False
    obs.prof.reset()


def counts(profile):
    """The deterministic projection of a profile: path -> count."""
    return {path: cell[0] for path, cell in profile.items()}


def overflowing_nodes(profile):
    """Nodes whose children's totals sum to more than the node's own total,
    beyond the rounding ``to_tree`` applies (1 ns per value)."""
    bad = []

    def walk(nodes):
        for node in nodes:
            children = node["children"]
            below = sum(child["total_seconds"] for child in children)
            if below > node["total_seconds"] + 1e-9 * (len(children) + 1):
                bad.append((node["path"], below, node["total_seconds"]))
            walk(children)

    walk(to_tree(profile))
    return bad


# ---------------------------------------------------------------------------
# unit: Profiler core
# ---------------------------------------------------------------------------


class TestProfilerCore:
    def test_disabled_add_is_noop(self):
        p = Profiler()
        p.add("vm;slow", 1.0)
        assert len(p) == 0 and p.snapshot() == {}

    def test_add_accumulates(self):
        p = Profiler()
        p.enabled = True
        p.add("vm;slow", 0.5, count=3)
        p.add("vm;slow", 0.25)
        assert p.snapshot() == {"vm;slow": [4, 0.75]}

    def test_timed_context(self):
        p = Profiler()
        p.enabled = True
        with p.timed("rules;daemon"):
            pass
        ((count, seconds),) = p.snapshot().values()
        assert count == 1 and seconds >= 0.0

    def test_mark_since_delta(self):
        p = Profiler()
        p.enabled = True
        p.add("api;X", 1.0)
        mark = p.mark()
        p.add("api;X", 0.5)
        p.add("api;Y", 0.25, count=2)
        assert p.since(mark) == {"api;X": [1, 0.5], "api;Y": [2, 0.25]}

    def test_absorb_not_gated_on_enabled(self):
        p = Profiler()  # disabled: absorb is data plumbing, not collection
        p.absorb({"vm;fast": [7, 0.5]})
        p.absorb({"vm;fast": [3, 0.25], "vm;slow": [1, 0.1]})
        assert p.snapshot() == {"vm;fast": [10, 0.75], "vm;slow": [1, 0.1]}

    def test_merge_profiles_commutative(self):
        a = {"vm;slow": [2, 0.2], "api;X": [1, 0.1]}
        b = {"vm;slow": [3, 0.3], "api;Y": [4, 0.4]}
        assert merge_profiles(a, b) == merge_profiles(b, a, None)

    def test_reset_keeps_enabled(self):
        p = Profiler()
        p.enabled = True
        p.add("x", 1.0)
        p.reset()
        assert p.enabled and len(p) == 0

    def test_add_nested_records_and_grows_the_claim(self):
        p = Profiler()
        p.add_nested("api;X", 1.0)
        assert len(p) == 0 and p.nested == 0.0  # disabled: no-op
        p.enabled = True
        p.prefix = "stage;"
        p.add_nested("api;X", 0.25)
        p.add_nested("api;X", 0.5)
        assert p.snapshot() == {"stage;api;X": [2, 0.75]}
        assert p.nested == 0.75
        p.reset()
        assert p.nested == 0.0


class TestExportFormats:
    PROFILE = {
        "api;Open": [4, 0.4],
        "api;Open;read_args": [4, 0.1],
        "vm;slow": [100, 1.0],
    }

    def test_tree_self_time(self):
        tree = to_tree(self.PROFILE)
        by_name = {node["name"]: node for node in tree}
        api = by_name["api"]  # synthesized interior frame
        assert api["total_seconds"] == pytest.approx(0.4)
        assert api["self_seconds"] == 0.0
        open_node = api["children"][0]
        assert open_node["count"] == 4
        # own cell minus the read_args child
        assert open_node["self_seconds"] == pytest.approx(0.3)
        assert by_name["vm"]["children"][0]["self_seconds"] == pytest.approx(1.0)

    def test_folded_is_self_microseconds(self):
        lines = dict(
            line.rsplit(" ", 1) for line in to_folded(self.PROFILE).splitlines()
        )
        assert lines["api;Open"] == "300000"  # 0.4 total - 0.1 child
        assert lines["api;Open;read_args"] == "100000"
        assert lines["vm;slow"] == "1000000"

    def test_render_table_top(self):
        text = render_table(self.PROFILE, top=1)
        assert "vm;slow" in text and "api;Open" not in text

    def test_render_table_empty(self):
        assert "no profile data" in render_table({})

    def test_self_time_skips_unrecorded_interior_frames(self):
        # A stage cell loses its grandchildren's time although no
        # ``…;impact;vm`` cell exists between them.
        profile = {
            "pipeline.analyze": [1, 1.0],
            "pipeline.analyze;impact": [1, 0.8],
            "pipeline.analyze;impact;vm;slow": [50, 0.5],
            "pipeline.analyze;impact;vm;fast": [9, 0.1],
        }
        lines = dict(line.rsplit(" ", 1) for line in to_folded(profile).splitlines())
        assert lines["pipeline.analyze"] == "200000"
        assert lines["pipeline.analyze;impact"] == "200000"
        assert lines["pipeline.analyze;impact;vm;slow"] == "500000"
        (root,) = to_tree(profile)
        (impact,) = root["children"]
        assert impact["self_seconds"] == pytest.approx(0.2)

    def test_render_tree_depth_and_top(self):
        profile = {
            "pipeline.analyze": [2, 1.0],
            "pipeline.analyze;phase1": [2, 0.3],
            "pipeline.analyze;impact": [2, 0.6],
            "pipeline.analyze;impact;vm;slow": [40, 0.5],
        }
        rows = [line.split()[0] for line in render_tree(profile).splitlines()]
        assert rows == ["pipeline.analyze", "impact", "vm", "slow", "phase1"]
        shallow = render_tree(profile, max_depth=2, top=1).splitlines()
        assert [line.split()[0] for line in shallow] == [
            "pipeline.analyze", "impact", "..."
        ]
        assert shallow[-1].strip() == "... +1 more"


# ---------------------------------------------------------------------------
# pipeline collection + codec
# ---------------------------------------------------------------------------


class TestPipelineCollection:
    def test_analysis_carries_profile_with_expected_nodes(self):
        with obs.profiled():
            analysis = AutoVac().analyze(build_family("conficker"))
        profile = analysis.profile
        assert profile
        paths = set(profile)
        # Every hot path sits under the stage that ran it.
        assert all(p.startswith("pipeline.analyze") for p in paths)
        assert "pipeline.analyze;phase1;vm;slow" in paths
        assert any(p.startswith("pipeline.analyze;phase1;api;") for p in paths)
        assert any(p.endswith(";read_args") for p in paths)
        assert "pipeline.analyze;impact;snapshot;capture;env_snapshot" in paths
        assert "pipeline.analyze;impact;snapshot;resume;env_restore" in paths

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_children_never_exceed_their_node(self, family):
        """Each timed second is counted once: a handler's time is not also
        in the slow step that called it, nor a capture's in its handler."""
        with obs.profiled():
            analysis = AutoVac().analyze(build_family(family))
        assert overflowing_nodes(analysis.profile) == []

    def test_host_run_counts_each_second_once(self):
        """On a protected host the daemon's rule match runs inside the
        handler, which runs inside the slow step: the root nodes (``vm``,
        ``api``, ``rules``) share out the runs' wall time."""
        analyses = [AutoVac().analyze(p) for p in all_families()]
        daemon = VaccineDaemon(vaccines=[v for a in analyses for v in a.vaccines])
        host = SystemEnvironment()
        daemon.install(host)
        obs.prof.reset()
        wall = 0.0
        with obs.profiled():
            for program in all_families():
                env = host.clone()
                process = env.spawn_process(f"{program.name}.exe")
                dispatcher = Dispatcher(env, process, interceptors=env.global_interceptors)
                cpu = CPU(program, env, process, dispatcher, record_instructions=False)
                started = time.perf_counter()
                cpu.run()
                wall += time.perf_counter() - started
        profile = obs.prof.snapshot()
        assert daemon.calls_seen and "rules;daemon" in profile
        roots = to_tree(profile)
        assert {node["name"] for node in roots} == {"api", "rules", "vm"}
        assert sum(node["total_seconds"] for node in roots) <= wall

    def test_profile_off_analysis_has_only_stage_cells(self):
        analysis = AutoVac().analyze(build_family("sality"))
        assert set(analysis.profile) == {"pipeline.analyze"} | {
            f"pipeline.analyze;{stage}" for stage in analysis.timings
        }
        assert obs.prof.snapshot() == analysis.profile

    def test_codec_roundtrip_preserves_profile(self):
        with obs.profiled():
            analysis = AutoVac().analyze(build_family("sality"))
        decoded = serialize.analysis_from_dict(
            json.loads(serialize.analysis_to_json(analysis))
        )
        assert decoded.profile == analysis.profile


class TestDeterminismAcrossJobs:
    SIZE = 4
    SEED = 11

    def _survey(self, jobs, run_dir=None):
        programs = [
            s.program
            for s in generate_population(GeneratorConfig(size=self.SIZE, seed=self.SEED))
        ]
        obs.reset()
        obs.prof.enabled = False
        result = analyze_population(
            programs,
            config=PipelineConfig(profile=True),
            jobs=jobs,
            run_dir=run_dir,
        )
        return result, obs.prof.snapshot()

    def test_jobs2_tree_matches_jobs1(self):
        seq, seq_profile = self._survey(jobs=1)
        par, par_profile = self._survey(jobs=2)
        assert not seq.failures and not par.failures
        assert set(seq_profile) == set(par_profile)
        assert counts(seq_profile) == counts(par_profile)
        # per-sample deltas are identical too (by sample name)
        seq_by_name = {a.program.name: a.profile for a in seq.analyses}
        par_by_name = {a.program.name: a.profile for a in par.analyses}
        assert {n: counts(p) for n, p in seq_by_name.items()} == {
            n: counts(p) for n, p in par_by_name.items()
        }

    def test_merged_tree_is_the_sum_of_sample_profiles(self, tmp_path):
        # Per-sample profiles live in each SampleAnalysis; the run tree is
        # their merge, and a profiled survey's run directory stays the ledger.
        run_dir = tmp_path / "run"
        result, profile = self._survey(jobs=1, run_dir=run_dir)
        assert profile
        merged = merge_profiles(*(a.profile for a in result.analyses))
        assert counts(merged) == counts(profile)
        assert [p.name for p in run_dir.iterdir()] == ["ledger.jsonl"]


class TestCacheStateIndependence:
    """The timing tree a survey leaves in ``obs.prof`` depends on neither
    jobs nor cache state: a cache hit absorbs the cached sample's profile
    just as the parent absorbs a worker's."""

    def test_cold_and_warm_surveys_leave_the_same_tree(self, tmp_path):
        programs = [
            s.program for s in generate_population(GeneratorConfig(size=6, seed=3))
        ]

        def survey(jobs, root):
            obs.reset()
            cache = ResultCache(root)
            result = analyze_population(programs, jobs=jobs, cache=cache)
            assert not result.failures
            return counts(obs.prof.snapshot()), cache

        cold_seq, _ = survey(1, tmp_path / "seq")
        cold_par, _ = survey(2, tmp_path / "par")
        warm, cache = survey(1, tmp_path / "seq")
        assert cache.hits == 6
        assert cold_seq == cold_par == warm
        assert cold_seq["pipeline.analyze"] == 6

    def test_failing_stage_leaves_the_same_tree_for_any_jobs(
        self, tmp_path, monkeypatch
    ):
        """A sample whose impact stage raises (every attempt) is
        quarantined; its attempts' phase1/exclusiveness cells must not
        linger in the jobs=1 tree, since a jobs=2 run drops the failed
        worker's payload."""
        programs = [
            s.program for s in generate_population(GeneratorConfig(size=6, seed=3))
        ]
        victim = programs[2].name
        run = ImpactStage.run

        def failing_run(self, ctx):
            if ctx.program.name == victim:
                raise RuntimeError("impact failed")
            return run(self, ctx)

        monkeypatch.setattr(ImpactStage, "run", failing_run)

        def survey(jobs, cache):
            obs.reset()
            result = analyze_population(
                programs,
                config=PipelineConfig(retry_backoff=0.0),
                jobs=jobs,
                cache=str(cache),
            )
            assert [f.sample for f in result.failures] == [victim]
            return counts(obs.prof.snapshot())

        cold_seq = survey(1, tmp_path / "seq")
        cold_par = survey(2, tmp_path / "par")
        warm = survey(1, tmp_path / "seq")
        assert cold_seq == cold_par == warm
        assert cold_seq["pipeline.analyze"] == 5
        assert cold_seq["pipeline.analyze;phase1"] == 5

    def test_raising_stage_still_records_its_root(self, monkeypatch):
        def failing_run(self, ctx):
            raise RuntimeError("impact failed")

        monkeypatch.setattr(ImpactStage, "run", failing_run)
        with pytest.raises(RuntimeError):
            AutoVac().analyze(build_family("conficker"))
        tree = counts(obs.prof.snapshot())
        assert tree["pipeline.analyze"] == 1
        assert tree["pipeline.analyze;impact"] == 1
        assert "pipeline.analyze;determinism" not in tree
        assert obs.prof.prefix == ""


# ---------------------------------------------------------------------------
# surfaces: CLI, report, stats
# ---------------------------------------------------------------------------


class TestSurfaces:
    def test_cli_profile_table(self, capsys):
        assert cli_main(["profile", "conficker", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "hot paths for conficker" in out
        assert "vm;slow" in out

    def test_cli_profile_json_tree(self, capsys):
        assert cli_main(["profile", "conficker", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sample"] == "conficker"
        (root,) = doc["tree"]
        assert root["name"] == "pipeline.analyze" and root["count"] == 1
        stages = {node["name"]: node for node in root["children"]}
        assert {"vm", "api"} <= {node["name"] for node in stages["phase1"]["children"]}
        assert {"vm", "api", "snapshot"} <= {
            node["name"] for node in stages["impact"]["children"]
        }

    def test_cli_profile_folded(self, capsys):
        assert cli_main(["profile", "conficker", "--folded"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            path, value = line.rsplit(" ", 1)
            assert path.startswith("pipeline.analyze") and int(value) >= 0

    def test_report_hot_paths_section(self):
        with obs.profiled():
            analysis = AutoVac().analyze(build_family("conficker"))
        report = render_report(analysis)
        assert "## Hot paths" in report
        assert "vm;slow" in report
        unprofiled = render_report(AutoVac().analyze(build_family("conficker")))
        assert "## Timings" in unprofiled and "## Hot paths" not in unprofiled

    def test_stats_renders_profile_and_tiers(self, tmp_path, capsys):
        with obs.profiled():
            AutoVac().analyze(build_family("conficker"))
        snap = tmp_path / "m.json"
        obs.export_json(snap)
        assert cli_main(["stats", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "== profile ==" in out
        # The execution tiers are the tree's vm; nodes under each stage.
        tree = out.split("== profile ==", 1)[1].strip().splitlines()
        nodes = {line.split()[0] for line in tree}
        assert {"phase1", "impact", "vm", "slow", "fast"} <= nodes
        # Analysis runs compile no superblock regions.
        assert "superblock" not in nodes

    def test_tail_interval_in_help(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["tail", "--help"])
        assert "--interval" in capsys.readouterr().out
