"""``repro.obs`` — metrics, the timing tree, and the journal for the pipeline.

The paper's §VI-F evaluation is entirely *measured* behaviour (per-sample
generation time, per-identifier slicing time, daemon hook overhead <4.5%);
this package is the instrumentation substrate those measurements come from:

* :data:`metrics` — process-local named counts (:mod:`repro.obs.metrics`),
  written with the timing tree as a flat JSON snapshot
  (:mod:`repro.obs.export`, ``--metrics``).  It keeps five counts: the VM
  tier counters perfbench reads (flushed once per run) and snapshot
  capture/resume failures.  Every other count lives with its owner: cache
  traffic on ``ResultCache``, retries and pool respawns on
  ``PopulationResult``, matches per resource and mechanism on
  ``VaccineDaemon``, infection attempts on ``CampaignResult``;
* :data:`flight` — flight recorder journaling analysis-causal events
  into one provenance DAG per sample (:mod:`repro.obs.flight`), rendered
  by ``repro explain``;
* :data:`prof` — the one timing tree (:mod:`repro.obs.prof`): wall time
  and counts per path, rooted at ``pipeline.analyze`` and its stages
  (always recorded; ``SampleAnalysis.timings`` reads them), refined by
  opt-in hot-path attribution per VM tier, API handler, snapshot
  capture/restore, and rule-engine consumer; rendered by ``repro profile``
  and ``repro stats`` and exportable as a JSON tree or folded stacks for
  flamegraph tooling;
* :mod:`~repro.obs.ledger` — run telemetry: the executor parent writes
  every per-sample lifecycle event into a persistent JSONL run ledger
  (``--run-dir``), watched live via ``survey --progress`` / ``repro tail``
  and listed by ``repro runs``.

Instrumented code must stay cheap when observability is off::

    with obs.disabled():
        AutoVac().analyze(program)   # no counts, no journal, no hot paths

``benchmarks/bench_perf_overhead.py`` holds the enabled-vs-disabled pipeline
overhead to <=5% (artifact ``obs_overhead.txt``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

from . import ledger
from .export import load, render_stats, snapshot, write_json
from .flight import FlightEvent, FlightRecorder, Journal, render_chain, summarize_event
from .ledger import LedgerFold, ProgressView, RunTelemetry
from .metrics import MetricsRegistry
from .prof import Profiler, merge_profiles, render_table, render_tree, to_folded, to_tree

#: The process-global registry, flight recorder, and profiler every layer
#: reports into.
metrics = MetricsRegistry()
flight = FlightRecorder()
prof = Profiler()


@contextmanager
def disabled() -> Iterator[None]:
    """Turn all instrumentation off inside the block (overhead baseline).
    The pipeline's stage cells are part of its result and stay on."""
    saved = (metrics.enabled, flight.enabled, prof.enabled)
    metrics.enabled = False
    flight.enabled = False
    prof.enabled = False
    try:
        yield
    finally:
        metrics.enabled, flight.enabled, prof.enabled = saved


@contextmanager
def profiled() -> Iterator[None]:
    """Turn the hot-path profiler on inside the block (it is off by
    default); collected data stays in :data:`prof` afterwards."""
    saved = prof.enabled
    prof.enabled = True
    try:
        yield
    finally:
        prof.enabled = saved


def reset() -> None:
    """Drop all collected metrics, flight events, and profile data (tests /
    between CLI runs / worker start)."""
    metrics.reset()
    flight.reset()
    prof.reset()


def export_snapshot() -> Dict[str, object]:
    """JSON-safe dump of the global registry + profiler."""
    return snapshot(metrics, prof)


def export_json(path) -> Dict[str, object]:
    """Write the global snapshot to ``path``; returns the written dict."""
    return write_json(path, metrics, prof)


__all__ = [
    "FlightEvent",
    "FlightRecorder",
    "Journal",
    "LedgerFold",
    "MetricsRegistry",
    "Profiler",
    "ProgressView",
    "RunTelemetry",
    "disabled",
    "export_json",
    "export_snapshot",
    "flight",
    "ledger",
    "load",
    "merge_profiles",
    "metrics",
    "prof",
    "profiled",
    "render_chain",
    "render_stats",
    "render_table",
    "render_tree",
    "reset",
    "snapshot",
    "summarize_event",
    "to_folded",
    "to_tree",
    "write_json",
]
