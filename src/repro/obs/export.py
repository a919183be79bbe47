"""Combined metrics + profile snapshot: JSON file format and text renderers.

One captured file round-trips through the CLI::

    python -m repro analyze conficker --metrics m.json
    python -m repro stats m.json            # metric tables + profile tree
    python -m repro stats m.json --prom     # Prometheus exposition text
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional

from .metrics import MetricsRegistry, prometheus_text
from .prof import Profiler, render_tree

SNAPSHOT_VERSION = 1


def snapshot(
    registry: MetricsRegistry, profiler: Optional[Profiler] = None
) -> Dict[str, object]:
    return {
        "version": SNAPSHOT_VERSION,
        "generated_unix": time.time(),
        "metrics": registry.snapshot(),
        "profile": profiler.snapshot() if profiler is not None else {},
    }


def write_json(
    path, registry: MetricsRegistry, profiler: Optional[Profiler] = None
) -> Dict[str, object]:
    data = snapshot(registry, profiler)
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True))
    return data


def load(path) -> Dict[str, object]:
    """Parse a snapshot file; raises :class:`ValueError` naming the file
    and the reason on truncated/corrupt JSON (``SystemExit``-friendly for
    ``repro stats``) instead of leaking a bare ``json.JSONDecodeError``."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        reason = "file is empty" if not text.strip() else f"{exc.msg} at line {exc.lineno}"
        raise ValueError(
            f"{path}: corrupt or truncated metrics snapshot ({reason})"
        ) from None
    if not isinstance(data, dict) or "metrics" not in data:
        raise ValueError(f"{path}: not a repro metrics snapshot")
    return data


# ----------------------------------------------------------------------
# text rendering (the `stats` subcommand)
# ----------------------------------------------------------------------


def render_stats(
    data: Dict[str, object], max_depth: int = 6, top: Optional[int] = None
) -> str:
    """Human-readable summary of a snapshot: counters/gauges table, a VM
    execution-tier digest, histogram summaries, then the profile tree
    (``max_depth`` frames deep, ``top`` widest nodes per level)."""
    metrics: Dict[str, Dict] = data.get("metrics", {})  # type: ignore[assignment]
    lines: List[str] = []

    scalars: List[str] = []
    histograms: List[str] = []
    for name in sorted(metrics):
        family = metrics[name]
        for series in family["series"]:
            label_text = _labels_text(series["labels"])
            if family["kind"] == "histogram":
                histograms.append(
                    f"  {name}{label_text}  count={series['count']} "
                    f"sum={_fmt_s(series['sum'])} mean={_fmt_s(_mean(series))} "
                    f"max={_fmt_s(series['max'] or 0.0)}"
                )
            else:
                value = series["value"]
                scalars.append(f"  {name + label_text:<56s} {value:>12g}")

    if scalars:
        lines.append("== counters / gauges ==")
        lines.extend(scalars)
    tiers = _render_vm_tiers(metrics)
    if tiers:
        lines.append("")
        lines.append("== vm execution tiers ==")
        lines.extend(tiers)
    if histograms:
        lines.append("")
        lines.append("== histograms ==")
        lines.extend(histograms)

    profile = data.get("profile") or {}
    if profile:
        lines.append("")
        lines.append("== profile ==")
        lines.append(render_tree(profile, max_depth=max_depth, top=top).rstrip("\n"))
    return "\n".join(lines) + "\n"


def _metric_total(metrics: Dict[str, Dict], name: str) -> float:
    family = metrics.get(name)
    if not family:
        return 0.0
    return sum(series.get("value", 0.0) for series in family.get("series", []))


def _render_vm_tiers(metrics: Dict[str, Dict]) -> List[str]:
    """Digest of the three-tier interpreter counters (PR 8): how many steps
    avoided the slow path, and what the superblock compiler did."""
    instructions = _metric_total(metrics, "vm.instructions")
    if not instructions:
        return []
    fast = _metric_total(metrics, "vm.fast_steps")
    share = 100.0 * fast / instructions
    lines = [
        f"  instructions {instructions:>14,.0f}",
        f"  fast+superblock steps {fast:>5,.0f} ({share:.1f}% off the slow path)",
    ]
    compiled = _metric_total(metrics, "vm.superblocks.compiled")
    entries = _metric_total(metrics, "vm.superblocks.entries")
    guard_exits = _metric_total(metrics, "vm.superblocks.guard_exits")
    if compiled or entries or guard_exits:
        lines.append(
            f"  superblocks: {compiled:,.0f} compiled, {entries:,.0f} entries, "
            f"{guard_exits:,.0f} guard exits"
        )
    return lines


def render_prometheus(data: Dict[str, object]) -> str:
    """Prometheus exposition text: the metric families, then the profile
    tree as two counters per recorded path, ``repro_profile_seconds_total``
    (total wall seconds, children included) and
    ``repro_profile_calls_total``.  Per-sample latency quantiles come from
    the ``pipeline.analyze_seconds`` histogram."""
    text = prometheus_text(data.get("metrics", {}))  # type: ignore[arg-type]
    profile: Dict[str, List] = data.get("profile") or {}  # type: ignore[assignment]
    if not profile:
        return text
    lines = [text.rstrip("\n")] if text.strip() else []
    for metric, column, what in (
        ("repro_profile_calls_total", 0, "events"),
        ("repro_profile_seconds_total", 1, "wall seconds (children included)"),
    ):
        lines.append(f"# HELP {metric} {what} per profile path")
        lines.append(f"# TYPE {metric} counter")
        for path in sorted(profile):
            lines.append(f'{metric}{{path="{path}"}} {profile[path][column]:.9g}')
    return "\n".join(lines) + "\n"


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def _mean(series: Dict[str, object]) -> float:
    count = series.get("count") or 0
    return (series.get("sum") or 0.0) / count if count else 0.0  # type: ignore[operator]


def _fmt_s(seconds: Optional[float]) -> str:
    seconds = seconds or 0.0
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 0.001:
        return f"{seconds * 1000:.2f}ms"
    return f"{seconds * 1_000_000:.1f}us"
