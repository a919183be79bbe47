"""Run-telemetry layer: the parent's ledger writer, fold, tail readers.

The invariants pinned here (DESIGN.md §12): the ledger's terminal events
exactly mirror ``PopulationResult`` — one ``sample.completed`` or
``sample.failed`` per sample, no losses and no duplicates, even under
injected worker crashes and pool deaths; its ``sample.phase`` events are
the stage cells of the timing tree, for any jobs; readers tolerate a
partial trailing line from an in-flight (or killed) writer; the run
directory holds only the ledger, and every view of a run (status,
identity, counts) is a fold of its last ``run.started`` segment; and a
finished run round-trips through ``repro tail`` / ``repro runs``.
"""

from __future__ import annotations

import json
import os
import subprocess

import pytest

from repro import AutoVac, obs
from repro.cli import main
from repro.core.executor import PipelineConfig, analyze_population
from repro.core.faults import FaultPlan
from repro.core.stages import ImpactStage, default_stages
from repro.corpus import FAMILIES, GeneratorConfig, build_family, generate_population
from repro.obs import ledger
from repro.obs.ledger import (
    LedgerFold,
    ProgressView,
    RunTelemetry,
    describe_run,
    iter_ledger,
    list_runs,
    read_ledger,
    read_run,
    render_event,
)

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


#: Terminal per-sample kinds — exactly one per sample per run.
TERMINAL_KINDS = ("sample.completed", "sample.failed")


def terminal_events(events):
    return [e for e in events if e["kind"] in TERMINAL_KINDS]


class TestEmit:
    def test_emit_appends_a_flushed_line_and_folds_it(self, tmp_path):
        telemetry = RunTelemetry.begin(tmp_path, population=1)
        telemetry.emit("sample.started", sample="zeus", index=0, attempt=1)
        # Flushed per event: a reader sees it before the run finishes.
        events = read_ledger(tmp_path)
        assert [e["kind"] for e in events] == ["run.started", "sample.started"]
        assert events[1]["sample"] == "zeus" and events[1]["attempt"] == 1
        assert set(events[1]) == {"t", "kind", "sample", "index", "attempt"}
        assert len(telemetry.fold.active) == 1
        telemetry.finish()
        assert read_ledger(tmp_path)[-1]["kind"] == "run.finished"
        assert [p.name for p in tmp_path.iterdir()] == [ledger.LEDGER_NAME]

    def test_run_events_carry_identity_and_outcome(self, tmp_path):
        telemetry = RunTelemetry.begin(
            tmp_path, population=2, config_fingerprint="abc", run_id="run-x"
        )
        telemetry.emit("sample.completed", sample="a", index=0)
        telemetry.emit("sample.failed", sample="b", index=1)
        telemetry.finish()
        started, *_, finished = read_ledger(tmp_path)
        assert set(started) == {
            "t", "kind", "run_id", "population", "config_fingerprint", "pid"
        }
        assert (started["run_id"], started["population"]) == ("run-x", 2)
        assert started["config_fingerprint"] == "abc"
        assert started["pid"] == os.getpid()
        assert set(finished) == {
            "t", "kind", "run_id", "completed", "failed", "duration_seconds"
        }
        assert (finished["completed"], finished["failed"]) == (1, 1)
        assert finished["duration_seconds"] >= 0.0


class TestPartialLineTolerance:
    def test_tail_while_writing_partial_trailing_line(self, tmp_path):
        path = tmp_path / ledger.LEDGER_NAME
        whole = json.dumps({"t": 1.0, "kind": "sample.started", "sample": "a"})
        partial = '{"t": 2.0, "kind": "sample.comp'
        path.write_text(whole + "\n" + partial)

        events = read_ledger(tmp_path)
        assert [e["kind"] for e in events] == ["sample.started"]

        # The writer finishes the line: a re-read sees both events — the
        # partial tail was never consumed or half-parsed.
        path.write_text(whole + "\n" + partial + 'leted", "sample": "a"}\n')
        events = read_ledger(tmp_path)
        assert [e["kind"] for e in events] == ["sample.started", "sample.completed"]

    def test_read_ledger_skips_malformed_complete_line(self, tmp_path):
        (tmp_path / ledger.LEDGER_NAME).write_text(
            json.dumps({"t": 1.0, "kind": "sample.started", "sample": "a"})
            + "\n:::garbage:::\n"
        )
        events = read_ledger(tmp_path)
        assert [e["kind"] for e in events] == ["sample.started"]

    def test_iter_ledger_follow_stops_when_run_finishes(self, tmp_path, programs):
        analyze_population(programs[:2], config=fast_config(), jobs=1, run_dir=tmp_path)
        events = list(iter_ledger(tmp_path, follow=True, timeout=5.0))
        assert events[0]["kind"] == "run.started"
        assert events[-1]["kind"] == "run.finished"

    def test_follow_stops_at_run_finished_of_a_live_writer(self, tmp_path):
        # Our own pid is alive, so only run.finished can end the follow —
        # well before the timeout.
        import time as _time

        telemetry = RunTelemetry.begin(tmp_path, population=0)
        telemetry.finish()
        began = _time.monotonic()
        events = list(iter_ledger(tmp_path, follow=True, timeout=30.0))
        assert _time.monotonic() - began < 5.0
        assert [e["kind"] for e in events] == ["run.started", "run.finished"]

    def test_follow_stops_when_the_writer_died(self, tmp_path):
        write_ledger(tmp_path, {"kind": "run.started", "pid": DEAD_PID})
        events = list(iter_ledger(tmp_path, follow=True, timeout=30.0))
        assert [e["kind"] for e in events] == ["run.started"]


class TestLedgerRoundTrip:
    def test_survey_writes_only_the_ledger(self, tmp_path, programs):
        result = analyze_population(
            programs, config=fast_config(), jobs=1, run_dir=tmp_path
        )
        events = read_ledger(tmp_path)
        terminals = terminal_events(events)
        assert len(terminals) == SIZE
        assert {e["sample"] for e in terminals} == {p.name for p in programs}
        assert all(e["kind"] == "sample.completed" for e in terminals)
        # every analyzed sample also started and ran its phases
        started = [e for e in events if e["kind"] == "sample.started"]
        assert {e["sample"] for e in started} == {p.name for p in programs}
        assert any(e["kind"] == "sample.phase" for e in events)

        run = read_run(tmp_path)
        assert run.status == "finished"
        assert run.population == SIZE
        assert run.config_fingerprint == fast_config().fingerprint()
        assert run.completed == events[-1]["completed"] == len(result.succeeded())
        assert run.failed == events[-1]["failed"] == 0
        assert run.done == SIZE
        assert [p.name for p in tmp_path.iterdir()] == [ledger.LEDGER_NAME]

    def test_terminal_order_follows_completion(self, tmp_path, programs):
        # `repro tail` replays terminal events in the order the parent
        # finalized them — the ledger file itself is the order authority.
        analyze_population(programs[:4], config=fast_config(), jobs=1, run_dir=tmp_path)
        terminals = terminal_events(read_ledger(tmp_path))
        assert [e["index"] for e in terminals] == sorted(e["index"] for e in terminals)

    def test_cache_hits_are_terminal_too(self, tmp_path, programs):
        cache = tmp_path / "cache"
        analyze_population(programs[:3], config=fast_config(), jobs=1, cache=cache)
        run_dir = tmp_path / "run"
        result = analyze_population(
            programs[:3], config=fast_config(), jobs=1, cache=cache, run_dir=run_dir
        )
        events = read_ledger(run_dir)
        assert len([e for e in events if e["kind"] == "cache.hit"]) == 3
        terminals = terminal_events(events)
        assert len(terminals) == len(result.succeeded()) == 3
        assert all(e["cached"] for e in terminals)


class TestCollectorUnderFaults:
    def test_no_lost_failed_and_no_duplicate_completed_events(
        self, tmp_path, programs
    ):
        """Worker crash + hard pool death: the ledger's terminal events
        still match ``PopulationResult.succeeded()/failed()`` exactly."""
        plan = FaultPlan.parse("crash:3,abort:5")
        result = analyze_population(
            programs,
            config=fast_config(sample_retries=0),
            jobs=2,
            faults=plan,
            run_dir=tmp_path,
        )
        events = read_ledger(tmp_path)
        completed = [e for e in events if e["kind"] == "sample.completed"]
        failed = [e for e in events if e["kind"] == "sample.failed"]
        assert sorted(e["sample"] for e in completed) == sorted(
            a.program.name for a in result.succeeded()
        )
        assert sorted(e["sample"] for e in failed) == sorted(
            f.sample for f in result.failed()
        )
        # exactly one terminal event per sample — no duplicates
        terminal_samples = [e["sample"] for e in completed + failed]
        assert len(terminal_samples) == len(set(terminal_samples)) == SIZE
        run = read_run(tmp_path)
        assert run.completed == events[-1]["completed"] == SIZE - 2
        assert run.failed == events[-1]["failed"] == 2

    def test_retry_events_recorded(self, tmp_path, programs):
        plan = FaultPlan.parse("crash:2@1")
        result = analyze_population(
            programs,
            config=fast_config(sample_retries=1),
            jobs=2,
            faults=plan,
            run_dir=tmp_path,
        )
        assert not result.failed()
        events = read_ledger(tmp_path)
        retries = [e for e in events if e["kind"] == "sample.retry"]
        assert len(retries) == 1
        assert retries[0]["sample"] == programs[2].name
        assert len(terminal_events(events)) == SIZE

    def test_jobs_parity_of_terminal_events(self, tmp_path, programs):
        plan = FaultPlan.parse("crash:3,hang:5", hang_seconds=0.0)
        config = fast_config(sample_retries=0)
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        analyze_population(programs, config=config, jobs=1, faults=plan, run_dir=seq_dir)
        analyze_population(programs, config=config, jobs=2, faults=plan, run_dir=par_dir)

        def terminal_table(run_dir):
            return sorted(
                (e["sample"], e["kind"]) for e in terminal_events(read_ledger(run_dir))
            )

        assert terminal_table(seq_dir) == terminal_table(par_dir)


def phase_events(events):
    return [e for e in events if e["kind"] == "sample.phase"]


class TestLedgerEqualsTree:
    """The ledger's ``sample.phase`` events are the stage cells the timing
    tree holds: a failed attempt leaves neither, and the seconds are the
    same numbers ``SampleAnalysis.timings`` reads."""

    def test_failed_attempt_leaves_no_phase_events(self, tmp_path):
        class ZeusImpactFails(ImpactStage):
            name = "impact"

            def run(self, ctx):
                if ctx.program.name == "zeus":
                    raise RuntimeError("impact failed")
                super().run(ctx)

        stages = tuple(
            ZeusImpactFails() if isinstance(s, ImpactStage) else s
            for s in default_stages()
        )
        obs.reset()
        result = analyze_population(
            [build_family(name) for name in FAMILIES],
            config=fast_config(sample_retries=0),
            jobs=1,
            autovac=AutoVac(stages=stages),
            run_dir=tmp_path,
        )
        assert [f.sample for f in result.failures] == ["zeus"]
        phase1 = [e for e in phase_events(read_ledger(tmp_path)) if e["phase"] == "phase1"]
        cells = obs.prof.snapshot()["pipeline.analyze;phase1"][0]
        assert len(phase1) == cells == 5
        assert "zeus" not in {e["sample"] for e in phase1}

    def test_phase_seconds_are_the_stage_cells_for_any_jobs(self, tmp_path):
        programs = [
            s.program for s in generate_population(GeneratorConfig(size=6, seed=3))
        ]
        plan = FaultPlan.parse("crash:2@1")
        pairs, attempts = {}, {}
        for jobs in (1, 2):
            run_dir = tmp_path / f"jobs{jobs}"
            result = analyze_population(
                programs, config=fast_config(), jobs=jobs, faults=plan, run_dir=run_dir
            )
            assert len(result.analyses) == len(programs)
            events = read_ledger(run_dir)
            phases = phase_events(events)
            for e in phases:
                assert e["seconds"] == result.analyses[e["index"]].timings[e["phase"]]
            pairs[jobs] = {(e["index"], e["phase"]) for e in phases}
            # Only the successful second attempt of sample 2 reports phases.
            assert {e["attempt"] for e in phases if e["index"] == 2} == {2}
            attempts[jobs] = sorted(
                (e["index"], e["attempt"]) for e in events if e["kind"] == "sample.started"
            )
        assert pairs[1] == pairs[2]
        # One sample.started per attempt, the crashed one included.
        assert attempts[1] == attempts[2]
        assert attempts[1].count((2, 1)) == attempts[1].count((2, 2)) == 1


class TestFold:
    def test_duplicate_terminal_events_counted_once(self):
        fold = LedgerFold(population=2)
        fold.apply({"kind": "sample.completed", "index": 0})
        fold.apply({"kind": "sample.completed", "index": 0})
        fold.apply({"kind": "sample.failed", "index": 1})
        assert fold.completed == 1 and fold.failed == 1
        assert fold.done == 2 and fold.queued == 0

    def test_lifecycle_counts(self):
        fold = LedgerFold(population=3, started_unix=0.0)
        fold.apply({"kind": "sample.started", "index": 0})
        assert len(fold.active) == 1 and fold.queued == 2
        fold.apply({"kind": "sample.phase", "phase": "impact", "seconds": 0.5})
        fold.apply({"kind": "sample.retry", "index": 0, "attempt": 1})
        assert fold.retries == 1 and len(fold.retrying) == 1 and not fold.active
        fold.apply({"kind": "sample.started", "index": 0})
        assert not fold.retrying and len(fold.active) == 1
        fold.apply({"kind": "sample.completed", "index": 0})
        assert fold.completed == 1 and not fold.active
        assert "impact" in fold.phase_summary()
        line = fold.progress_line(now=10.0)
        assert "1/3 done" in line and "impact" in line

    def test_rate_uses_monotonic_clock_not_wall(self):
        import time as _time

        ticks = iter([100.0, 110.0, 110.0])  # created at 100, queried at 110
        fold = LedgerFold(population=4, clock=lambda: next(ticks))
        # Simulate a wall-clock step: started_unix lands in the future.  A
        # wall-based elapsed would be negative and the rate would clamp to 0.
        fold.started_unix = _time.time() + 3600.0
        fold.apply({"kind": "sample.completed", "index": 0})
        assert fold.rate() == pytest.approx(0.1)
        assert fold.eta_seconds() == pytest.approx(30.0)
        # An explicit now= stays on the caller's timeline (deterministic
        # test path): elapsed is measured against started_unix.
        assert fold.rate(now=fold.started_unix + 20.0) == pytest.approx(0.05)

    def test_telemetry_duration_uses_monotonic_clock(self, tmp_path):
        ticks = iter([1000.0, 1017.25])  # fold created, run finished
        fold = LedgerFold(population=0, clock=lambda: next(ticks))
        RunTelemetry(tmp_path, "run-test-monotonic", fold).finish()
        (finished,) = read_ledger(tmp_path)
        # Duration is measured on the injected monotonic clock, while the
        # event's own "t" stays wall-clock.
        assert finished["duration_seconds"] == pytest.approx(17.25)
        assert finished["t"] > 1e9

    def test_progress_view_non_tty(self):
        import io

        out = io.StringIO()
        view = ProgressView(out=out, interval=0.0)
        fold = LedgerFold(population=2, started_unix=0.0)
        view.update(fold, force=True)
        fold.apply({"kind": "sample.completed", "index": 0})
        view.close(fold)
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("0/2 done")
        assert lines[-1].startswith("1/2 done")


#: Certainly not a live pid.
DEAD_PID = 2**30


def write_ledger(run_dir, *events):
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / ledger.LEDGER_NAME, "a") as fh:
        for event in events:
            fh.write(json.dumps({"t": 1.0, **event}) + "\n")


class TestRunSummary:
    """Status, identity and counts are derived from the ledger alone."""

    def test_read_run_errors_are_clear(self, tmp_path):
        with pytest.raises(ValueError, match="not a run directory"):
            read_run(tmp_path)
        (tmp_path / ledger.LEDGER_NAME).write_text("{half\n")
        with pytest.raises(ValueError, match="no run.started event"):
            read_run(tmp_path)

    def test_stale_run_detected_by_dead_pid(self, tmp_path):
        telemetry = RunTelemetry.begin(tmp_path, population=1)
        assert read_run(tmp_path).status == "running"  # we are alive
        telemetry.finish()
        assert read_run(tmp_path).status == "finished"

        stale = tmp_path / "stale"
        write_ledger(
            stale,
            {"kind": "run.started", "run_id": "r", "population": 3, "pid": DEAD_PID},
            {"kind": "sample.completed", "index": 0},
        )
        run = read_run(stale)
        assert run.status == "stale"
        assert run.completed == 1 and run.duration_seconds is None
        assert "stale" in describe_run(run)

    def test_finish_is_idempotent(self, tmp_path):
        telemetry = RunTelemetry.begin(tmp_path, population=0)
        telemetry.finish()
        telemetry.finish()
        kinds = [e["kind"] for e in read_ledger(tmp_path)]
        assert kinds == ["run.started", "run.finished"]

    def test_reused_run_dir_is_summarised_from_its_last_run(self, tmp_path, programs):
        plan = FaultPlan.parse("crash:1")
        config = fast_config(sample_retries=0)
        analyze_population(programs[:3], config=config, jobs=1, faults=plan, run_dir=tmp_path)
        analyze_population(programs[:2], config=config, jobs=1, run_dir=tmp_path)
        events = read_ledger(tmp_path)
        assert [e["kind"] for e in events].count("run.started") == 2
        run = read_run(tmp_path)
        assert (run.population, run.completed, run.failed) == (2, 2, 0)
        assert run.status == "finished"
        last = max(i for i, e in enumerate(events) if e["kind"] == "run.started")
        assert run.events_seen == len(events) - last
        assert run.started_unix == events[last]["t"]

    def test_list_runs_skips_unreadable_ledgers(self, tmp_path, programs):
        analyze_population(
            programs[:1], config=fast_config(), jobs=1, run_dir=tmp_path / "good"
        )
        write_ledger(tmp_path / "bad", {"kind": "sample.started", "index": 0})
        (tmp_path / "torn").mkdir()
        (tmp_path / "torn" / ledger.LEDGER_NAME).write_text("{nope")
        runs = list_runs(tmp_path)
        assert len(runs) == 1
        assert runs[0].status == "finished"
        assert "finished" in describe_run(runs[0])


class TestRenderEvent:
    def test_known_kinds_render_compactly(self):
        events = [
            {"t": 1.5, "kind": "run.started", "run_id": "r", "population": 4},
            {"t": 2.0, "kind": "sample.started", "sample": "zeus", "attempt": 1},
            {"t": 2.1, "kind": "sample.phase", "sample": "zeus", "phase": "impact",
             "seconds": 0.034},
            {"t": 2.2, "kind": "sample.timeout", "sample": "zeus", "attempt": 1},
            {"t": 2.3, "kind": "sample.retry", "sample": "zeus", "attempt": 1,
             "failure_kind": "timeout", "error": "TimeoutError"},
            {"t": 2.4, "kind": "cache.hit", "sample": "zeus", "negative": True},
            {"t": 2.5, "kind": "sample.completed", "sample": "zeus", "vaccines": 2,
             "cached": True},
            {"t": 2.6, "kind": "sample.failed", "sample": "zeus",
             "failure_kind": "crash", "error": "ValueError", "attempts": 2},
            {"t": 2.7, "kind": "run.finished", "completed": 3, "failed": 1},
            {"t": 2.8, "kind": "mystery.kind", "detail": 1},
        ]
        lines = [render_event(e, started_unix=1.0) for e in events]
        assert "over 4 samples" in lines[0]
        assert "impact" in lines[2] and "34.0ms" in lines[2]
        assert "negative cache" in lines[5]
        assert "[cached]" in lines[6]
        assert "after 2 attempt(s)" in lines[7]
        assert "mystery.kind" in lines[9] and "detail=1" in lines[9]


class TestCliIntegration:
    def test_survey_run_dir_then_tail_and_runs(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert (
            main(
                ["survey", "--size", "6", "--seed", "3", "--jobs", "2",
                 "--run-dir", str(run_dir)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "run dir:" in out

        assert main(["tail", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "run.started" in out
        assert out.count("sample.completed") == 6
        assert "run.finished" in out
        assert "finished" in out.splitlines()[-1]

        assert main(["tail", str(run_dir), "--json"]) == 0
        out = capsys.readouterr().out
        events = [json.loads(line) for line in out.splitlines()]
        assert events[0]["kind"] == "run.started"

        assert main(["runs", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "finished" in out and "samples=6" in out

        assert main(["runs", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Run ") and "| completed | 6 |" in out
        assert "* status: **finished**" in out and "* population: 6 samples" in out

    def test_runs_reports_a_stale_run(self, tmp_path, capsys):
        write_ledger(
            tmp_path / "killed",
            {"kind": "run.started", "run_id": "run-killed", "population": 4,
             "pid": DEAD_PID},
        )
        assert main(["runs", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "run-killed" in out and "stale" in out and "samples=4" in out
        assert main(["tail", str(tmp_path / "killed"), "--follow"]) == 0
        assert "stale" in capsys.readouterr().out.splitlines()[-1]

    def test_tail_replays_only_the_last_run_of_a_reused_dir(
        self, tmp_path, programs, capsys
    ):
        analyze_population(programs[:2], config=fast_config(), jobs=1, run_dir=tmp_path)
        analyze_population(programs[:3], config=fast_config(), jobs=1, run_dir=tmp_path)
        assert main(["tail", str(tmp_path)]) == 0
        *body, footer = capsys.readouterr().out.splitlines()
        assert "run.started" in body[0] and "over 3 samples" in body[0]
        assert sum("run.started" in line for line in body) == 1
        # Offsets count from the replayed run's own start.
        assert all(float(line[1:line.index("s")]) >= 0 for line in body)
        assert footer.startswith(f"-- {len(body)} event(s) |")
        assert len(body) == read_run(tmp_path).events_seen

        followed = list(iter_ledger(tmp_path, follow=True, timeout=5.0))
        assert [e["kind"] for e in followed].count("run.started") == 1
        assert followed[0]["population"] == 3
        assert followed[-1]["kind"] == "run.finished"

    def test_tail_into_a_closed_pipe_exits_quietly(self, tmp_path, programs, repro_command):
        # ``repro tail DIR | head -1``: piped stdout is block-buffered, so
        # the reader's exit surfaces at the footer or the final flush.
        analyze_population(programs[:2], config=fast_config(), jobs=1, run_dir=tmp_path)
        argv, env = repro_command
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader has already left
        try:
            tail = subprocess.run(
                argv + ["tail", str(tmp_path)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert tail.stderr == b""
        assert tail.returncode == 0

    def test_tail_rejects_non_run_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="not a run directory"):
            main(["tail", str(tmp_path)])

    def test_runs_empty_dir(self, tmp_path, capsys):
        assert main(["runs", str(tmp_path)]) == 1
        assert "no runs under" in capsys.readouterr().out

    def test_survey_progress_without_run_dir_uses_tempdir(self, capsys, monkeypatch):
        import tempfile

        made = {}
        real = tempfile.mkdtemp

        def tracking_mkdtemp(**kw):
            made["dir"] = real(**kw)
            return made["dir"]

        monkeypatch.setattr(tempfile, "mkdtemp", tracking_mkdtemp)
        assert main(["survey", "--size", "4", "--seed", "3", "--progress"]) == 0
        assert "run dir:" in capsys.readouterr().out
        run = read_run(made["dir"])
        assert run.status == "finished"
        assert run.completed == 4
