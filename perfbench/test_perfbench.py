"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench -q

They drive ``run.py`` end to end on the two fast workloads, run the
population workload in-process on a small corpus, and check the metric
names, the self-time sum, the output check and the refusals.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import SPANS, LayerTracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def cli(*args, extra_env=None, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd, env=env,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


@pytest.mark.parametrize("workload", ["families", "protected_host"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(cli("--workload", workload, "--seed", "3", "--seconds", "0.2"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["families", "protected_host"])
def test_traced_run_reports_every_layer_and_self_times_fit(workload):
    result = result_of(cli("--workload", workload, "--seed", "3", "--seconds", "0.2",
                           "--trace", "1"))
    assert result["correct"], "binding, exact-count or output check failed"
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    for metric in BENCHMARK["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    self_sum = sum(metrics[f"{span}.self_ms"]["value"] for span in SPANS)
    assert 0 < self_sum <= metrics["trace.latency_ms"]["value"]


def test_population_smallest_size_traced(monkeypatch, tmp_path):
    """Eight generated samples: two traced passes agree exactly, the
    uncommitted-seed digest is remembered, the traced and untraced passes
    produce the same outputs, and self times fit in the traced latency."""
    monkeypatch.setattr(workloads, "POPULATION_SIZE", 8)
    monkeypatch.setattr(workloads, "STATE_DIR", tmp_path)
    workload = workloads.Population(5, {"population": {}})
    workload.setup()
    tracer = LayerTracer()
    untraced, traced = run.measure_traced(workload, 0.0, tracer, run.CpuRotation())
    assert untraced.failed == traced.failed == 0, untraced.errors + traced.errors
    assert len(set(untraced.output_digests + traced.output_digests)) == 1
    assert traced.pass_counts[0] == traced.pass_counts[1]
    assert traced.pass_counts[0]["stage.phase1.calls"] == 8
    assert list(tmp_path.glob("population-5-*.json"))
    metrics = run.per_layer(untraced, traced, tracer)
    assert "delivery.decide" not in [s for s in SPANS if metrics[f"{s}.calls"]["value"]]
    self_sum = sum(metrics[f"{span}.self_ms"]["value"] for span in SPANS)
    assert self_sum <= metrics["trace.latency_ms"]["value"]


def test_output_mismatch_counts_as_failed():
    expected = workloads.load_expected()
    first = sorted(expected["families"])[0]
    expected["families"][first] = {"deny": -1, "filtered": False, "vaccines": []}
    workload = workloads.Families(0, expected)
    workload.setup()
    m = run.Measurement()
    run.run_pass(workload, m, run.CpuRotation())
    assert m.attempted == 6 and m.failed == 1
    assert any(first in e for e in m.errors)


def test_population_digest_mismatch_fails_the_whole_pass(monkeypatch):
    monkeypatch.setattr(workloads, "POPULATION_SIZE", 4)
    workload = workloads.Population(1, {"population": {"1": {"digest": "0"}}})
    workload.setup()
    m = run.Measurement()
    run.run_pass(workload, m, run.CpuRotation())
    assert m.attempted == m.failed == 4


def test_protected_host_passes_run_warm():
    """After set-up's warm-up no superblock region compiles during a pass,
    so every pass of the host workload does the same work."""
    from repro import obs

    workload = workloads.ProtectedHost(2, workloads.load_expected())
    workload.setup()
    workload.prepare_check()
    m = run.Measurement()
    cpus = run.CpuRotation()
    for _ in range(2):
        run.run_pass(workload, m, cpus)  # resets the obs counters first
        assert obs.metrics.total("vm.superblocks.compiled") == 0
        assert obs.metrics.total("vm.superblocks.entries") > 0
    assert m.failed == 0, m.errors


def test_refuses_a_different_program():
    for var in run.REFUSED_ENV:
        proc = cli("--workload", "families", "--seconds", "0.1", extra_env={var: "1"})
        assert proc.returncode != 0 and var in proc.stderr
        assert not proc.stdout.strip()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".state", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = cli("--workload", "families", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
