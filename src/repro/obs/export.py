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
    and the reason on truncated/corrupt JSON or a malformed metric family
    (``SystemExit``-friendly for ``repro stats``) instead of leaking a bare
    ``json.JSONDecodeError`` or ``KeyError``."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        reason = "file is empty" if not text.strip() else f"{exc.msg} at line {exc.lineno}"
        raise ValueError(
            f"{path}: corrupt or truncated metrics snapshot ({reason})"
        ) from None
    if not isinstance(data, dict) or not isinstance(data.get("metrics"), dict):
        raise ValueError(f"{path}: not a repro metrics snapshot")
    for name, family in data["metrics"].items():
        reason = _family_error(family)
        if reason:
            raise ValueError(f"{path}: metric family {name!r} {reason}")
    return data


def _family_error(family: object) -> str:
    """Why ``family`` is not a counter snapshot family ('' if it is)."""
    kind = family.get("kind") if isinstance(family, dict) else None
    if kind != "counter":
        return f"has kind {kind!r}, not counter"
    series = family.get("series")
    if not isinstance(series, list):
        return "has no series list"
    for s in series:
        if not (
            isinstance(s, dict)
            and isinstance(s.get("labels"), dict)
            and isinstance(s.get("value"), (int, float))
        ):
            return "has a series without labels and a numeric value"
    return ""


# ----------------------------------------------------------------------
# text rendering (the `stats` subcommand)
# ----------------------------------------------------------------------


def render_stats(
    data: Dict[str, object], max_depth: int = 6, top: Optional[int] = None
) -> str:
    """Human-readable summary of a snapshot: counters table, then
    the profile tree (``max_depth`` frames deep, ``top`` widest nodes per
    level; VM tiers are its ``vm;`` nodes)."""
    metrics: Dict[str, Dict] = data.get("metrics", {})  # type: ignore[assignment]
    lines: List[str] = []
    scalars = [
        f"  {name + _labels_text(series['labels']):<56s} {series['value']:>12g}"
        for name in sorted(metrics)
        for series in metrics[name]["series"]
    ]
    if scalars:
        lines.append("== counters ==")
        lines.extend(scalars)

    profile = data.get("profile") or {}
    if profile:
        lines.append("")
        lines.append("== profile ==")
        lines.append(render_tree(profile, max_depth=max_depth, top=top).rstrip("\n"))
    return "\n".join(lines) + "\n"


def render_prometheus(data: Dict[str, object]) -> str:
    """Prometheus exposition text: the metric families, then the profile
    tree as two counters per recorded path, ``repro_profile_seconds_total``
    (total wall seconds, children included) and
    ``repro_profile_calls_total``.  Per-sample analysis time is the
    ``pipeline.analyze`` path: one call per sample, measured in the process
    that analyzed it."""
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
