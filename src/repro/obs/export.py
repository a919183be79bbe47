"""Combined metrics + profile snapshot: JSON file format and text renderer.

One captured file round-trips through the CLI::

    python -m repro analyze conficker --metrics m.json
    python -m repro stats m.json            # counts table + profile tree

The file is ``{"version": 2, "generated_unix": …, "metrics": {name: count},
"profile": {path: [count, seconds]}}``.  Files of another version are
refused; there is no reader for older layouts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional

from .metrics import MetricsRegistry
from .prof import Profiler, render_tree

SNAPSHOT_VERSION = 2


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
    and the reason on truncated/corrupt JSON, another snapshot version or a
    non-numeric count (``SystemExit``-friendly for ``repro stats``) instead
    of leaking a bare ``json.JSONDecodeError`` or ``KeyError``."""
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
    if data.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"{path}: metrics snapshot version {data.get('version')!r} is not "
            f"supported (expected {SNAPSHOT_VERSION})"
        )
    for name, value in data["metrics"].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path}: metric {name!r} has no numeric count")
    return data


def render_stats(
    data: Dict[str, object], max_depth: int = 6, top: Optional[int] = None
) -> str:
    """Human-readable summary of a snapshot: counts table, then the profile
    tree (``max_depth`` frames deep, ``top`` widest nodes per level; VM
    tiers are its ``vm;`` nodes)."""
    metrics: Dict[str, float] = data.get("metrics", {})  # type: ignore[assignment]
    lines: List[str] = []
    if metrics:
        lines.append("== counters ==")
        lines.extend(f"  {name:<56s} {metrics[name]:>12g}" for name in sorted(metrics))

    profile = data.get("profile") or {}
    if profile:
        lines.append("")
        lines.append("== profile ==")
        lines.append(render_tree(profile, max_depth=max_depth, top=top).rstrip("\n"))
    return "\n".join(lines) + "\n"
