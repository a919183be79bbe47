"""Hot-path profiler (``repro.obs.prof``) latency baseline.

Per-case batch times for the profiled pipeline and the export path (merge
+ tree + folded + table over a realistic profile) land in
``prof_baseline.json`` under the shared ``per_sample_seconds`` schema,
gated by ``check_bench_regression.py`` (→ ``BENCH_prof.json``).  The
profiler's overhead, off and on, is a case of
``bench_perf_overhead.py::test_instrumentation_overhead``.

Artifacts: ``_artifacts/prof.txt``, ``_artifacts/prof_baseline.json``.
"""

from __future__ import annotations

import json

from repro import AutoVac, obs
from repro.corpus import build_family
from repro.obs.prof import merge_profiles, render_table, to_folded, to_tree

from benchutil import min_wall_seconds, write_artifact


def _synthetic_profile(n_handlers: int = 40, n_regions: int = 30) -> dict:
    """A population-scale-shaped profile: a few VM tier nodes, many API
    handler nodes with read_args children, region nodes, snapshot nodes."""
    profile = {
        "vm;slow": [500_000, 4.0],
        "vm;fast": [2_000_000, 1.5],
        "vm;superblock;guard_exit": [900, 0.0],
        "snapshot;capture": [200, 0.4],
        "snapshot;capture;env_snapshot": [200, 0.3],
        "snapshot;resume": [600, 1.1],
        "snapshot;resume;env_restore": [600, 0.8],
        "rules;daemon": [4_000, 0.05],
    }
    for i in range(n_handlers):
        profile[f"api;Handler{i:03d}"] = [i + 10, 0.002 * (i + 1)]
        profile[f"api;Handler{i:03d};read_args"] = [i + 10, 0.0005 * (i + 1)]
    for i in range(n_regions):
        profile[f"vm;superblock;region@0x{0x401000 + 7 * i:08x}"] = [
            50 + i,
            0.001 * (i + 1),
        ]
    return profile


def test_prof_latency_baseline():
    """Per-case latencies for ``prof_baseline.json`` (gated in CI):

    * ``pipeline_off`` / ``pipeline_profiled`` — one conficker analysis
      with the profiler off vs collecting (their *relative* drift is the
      regression the gate normalizes out hardware to see);
    * ``export`` — merge 8 per-sample profiles and render every export
      format (tree, folded, table) from the merged result.
    """
    program = build_family("conficker")
    per_case = {}

    def run(profiled: bool):
        obs.reset()
        obs.prof.enabled = profiled
        try:
            return AutoVac().analyze(program)
        finally:
            obs.prof.enabled = False

    per_case["pipeline_off"], _ = min_wall_seconds(lambda: run(False), repeats=5)
    per_case["pipeline_profiled"], analysis = min_wall_seconds(
        lambda: run(True), repeats=5
    )
    assert analysis.profile

    shards = [_synthetic_profile() for _ in range(8)]

    def export():
        merged = merge_profiles(*shards)
        return to_tree(merged), to_folded(merged), render_table(merged)

    per_case["export"], (tree, folded, table) = min_wall_seconds(export, repeats=5)
    assert tree and folded and table

    write_artifact(
        "prof_baseline.json",
        json.dumps({"per_sample_seconds": per_case}, indent=2, sort_keys=True) + "\n",
    )
    lines = ["hot-path profiler latency baseline (best of 5)"]
    for case, seconds in sorted(per_case.items()):
        lines.append(f"  {case:<20s} {seconds * 1e3:8.2f} ms")
    lines.append("")
    lines.append("attribution for one profiled conficker analysis:")
    lines.append(render_table(analysis.profile, top=12).rstrip("\n"))
    write_artifact("prof.txt", "\n".join(lines) + "\n")
