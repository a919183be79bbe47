"""CLI tests (``python -m repro``)."""

import subprocess

import pytest

from repro.cli import main


class TestFamiliesCommand:
    def test_lists_all_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        for family in ("zeus", "conficker", "sality", "qakbot", "ibank", "poisonivy"):
            assert family in out

    def test_family_module_without_docstring_does_not_crash(self, capsys, monkeypatch):
        # Regression: an empty docstring used to raise IndexError on
        # ``module.__doc__.strip().splitlines()[0]``.
        import types

        from repro.corpus import FAMILIES

        undocumented = types.SimpleNamespace(CATEGORY="worm", __doc__="")
        nodoc = types.SimpleNamespace(CATEGORY="trojan", __doc__=None)
        monkeypatch.setitem(FAMILIES, "undocumented", undocumented)
        monkeypatch.setitem(FAMILIES, "nodoc", nodoc)
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "undocumented" in out and "nodoc" in out
        assert "(no description)" in out


class TestAnalyzeCommand:
    def test_analyze_family(self, capsys):
        assert main(["analyze", "zeus"]) == 0
        out = capsys.readouterr().out
        assert "sdra64.exe" in out and "_AVIRA_2109" in out

    def test_analyze_writes_package(self, capsys, tmp_path):
        path = tmp_path / "pack.json"
        assert main(["analyze", "conficker", "-o", str(path)]) == 0
        from repro.delivery import VaccinePackage

        package = VaccinePackage.load(path)
        assert len(package) >= 1

    def test_analyze_minimal(self, capsys):
        assert main(["analyze", "zeus", "--minimal"]) == 0
        out = capsys.readouterr().out
        assert "minimal set" in out

    def test_analyze_asm_file(self, capsys, tmp_path):
        src = tmp_path / "sample.asm"
        src.write_text(
            '.section .rdata\nm: .asciz "CliMtx"\n.section .text\nmain:\n'
            "    push m\n    push 0\n    push 0x1F0001\n    call @OpenMutexA\n"
            "    test eax, eax\n    jnz i\n"
            "    push m\n    push 0\n    push 0\n    call @CreateMutexA\n"
            "    halt\ni:\n    push 0\n    call @ExitProcess\n"
        )
        assert main(["analyze", str(src)]) == 0
        assert "CliMtx" in capsys.readouterr().out

    def test_analyze_filtered_sample_exit_code(self, capsys, tmp_path):
        src = tmp_path / "inert.asm"
        src.write_text("main:\n    nop\n    halt\n")
        assert main(["analyze", str(src)]) == 1

    def test_unknown_sample_errors(self):
        with pytest.raises(SystemExit):
            main(["analyze", "not-a-family-or-file"])


class TestDeployCommand:
    def test_deploy_and_attack(self, capsys, tmp_path):
        path = tmp_path / "pack.json"
        main(["analyze", "zeus", "-o", str(path)])
        capsys.readouterr()
        assert main(["deploy", str(path), "--attack", "zeus"]) == 0
        out = capsys.readouterr().out
        assert "PROTECTED" in out

    def test_deploy_custom_name(self, capsys, tmp_path):
        path = tmp_path / "pack.json"
        main(["analyze", "conficker", "-o", str(path)])
        capsys.readouterr()
        assert main(["deploy", str(path), "--computer-name", "CLI-BOX",
                     "--attack", "conficker"]) == 0
        assert "CLI-BOX" in capsys.readouterr().out


class TestSurveyCommand:
    def test_survey_small(self, capsys):
        assert main(["survey", "--size", "12", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "12 samples" in out and "identifier kinds" in out

    def test_retries_print_on_stdout_and_stderr_stays_empty(self, repro_command):
        argv, env = repro_command
        run = subprocess.run(
            argv + ["survey", "--size", "4", "--seed", "3"],
            env={**env, "REPRO_FAULT_PLAN": "crash:1@1"},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert "4 samples (4 analyzed, 0 failed)" in run.stdout
        assert "retries: 1, pool respawns: 0, snapshot fallbacks: 0" in run.stdout
        assert run.stderr == ""

    @pytest.mark.parametrize(
        "fault, line",
        [
            (("REPRO_FAULT_PLAN", "crash:3@1"),
             "retries: 1, pool respawns: 0, snapshot fallbacks: 0"),
            (("REPRO_FAULT_ENV_RESTORE", "3"),
             "retries: 0, pool respawns: 0, snapshot fallbacks: 15"),
        ],
        ids=["crash", "env_restore"],
    )
    def test_retries_line_is_the_same_at_any_jobs(self, repro_command, fault, line):
        # Retries and respawns come from the PopulationResult, fallbacks
        # from the merged worker counts: the whole report, summary line
        # included, does not depend on jobs.
        argv, env = repro_command
        name, value = fault
        outputs = []
        for jobs in ("1", "2"):
            run = subprocess.run(
                argv + ["survey", "--size", "20", "--retries", "1", "--jobs", jobs],
                env={**env, name: value},
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert run.returncode == 0, run.stderr
            assert run.stderr == ""
            assert "20 samples (20 analyzed, 0 failed)" in run.stdout
            outputs.append(run.stdout)
        assert line in outputs[0].splitlines()
        assert outputs[0] == outputs[1]


class TestExplainCommand:
    def test_explain_failed_analysis_prints_failure_record(
        self, capsys, monkeypatch
    ):
        # Regression: `repro explain` on a sample whose analysis dies used
        # to escape as an unhandled traceback. It now prints the failure
        # record (plus any partial journal) and exits 1.
        monkeypatch.setenv("REPRO_FAULT_PLAN", "crash:conficker")
        assert main(["explain", "conficker"]) == 1
        out = capsys.readouterr().out
        assert "analysis failed — no SampleAnalysis to explain" in out
        assert "crash" in out and "InjectedCrash" in out

    def test_explain_failure_json_document(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "journal.json"
        monkeypatch.setenv("REPRO_FAULT_PLAN", "hang:zeus")
        assert main(["explain", "zeus", "--json", str(path)]) == 1
        capsys.readouterr()
        import json

        doc = json.loads(path.read_text())
        assert doc["failure"]["kind"] == "timeout"
        assert doc["failure"]["error_type"] == "InjectedHang"
        assert "events" in doc["journal"]

    def test_explain_still_works_without_faults(self, capsys):
        assert main(["explain", "zeus"]) == 0
        out = capsys.readouterr().out
        assert "decision(s) to explain" in out

    def test_explain_failure_shows_only_the_failed_samples_journal(
        self, capsys, monkeypatch, tmp_path
    ):
        # An earlier analysis in the same process must not leak into the
        # partial journal of a sample whose analysis dies mid-way.
        import json

        from repro.core.stages import ImpactStage

        assert main(["explain", "zeus"]) == 0

        def boom(self, ctx):
            raise RuntimeError("impact stage exploded")

        monkeypatch.setattr(ImpactStage, "run", boom)
        path = tmp_path / "partial.json"
        assert main(["explain", "conficker", "--json", str(path)]) == 1
        out = capsys.readouterr().out
        assert "RuntimeError" in out and "partial journal" in out
        events = json.loads(path.read_text())["journal"]["events"]
        assert events and [e["id"] for e in events] == list(range(len(events)))
        assert not any("zeus" in json.dumps(e).lower() for e in events)
        assert any(e["kind"] == "candidate" for e in events)


class TestStatsCommand:
    def test_corrupt_snapshot_names_file_and_reason(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text('{"counters": {"a"')
        with pytest.raises(SystemExit) as exc_info:
            main(["stats", str(path)])
        message = str(exc_info.value)
        assert str(path) in message
        assert "corrupt or truncated metrics snapshot" in message

    def test_empty_snapshot_reports_empty(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text("")
        with pytest.raises(SystemExit, match="file is empty"):
            main(["stats", str(path)])
