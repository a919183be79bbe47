"""Deterministic hierarchical profiler (``obs.prof``): the one timing tree.

The paper's §VI-F numbers — per-sample generation time, per-phase cost,
per-intercepted-call daemon overhead — are *attributions*: which named
component of the pipeline the wall-clock went to.  This module holds them
all in one ``path -> [count, seconds]`` map whose paths are ``;``-joined
frames:

* **pipeline stages** (always recorded) — ``pipeline.analyze`` once per
  sample and ``pipeline.analyze;<stage>`` once per executed stage
  (:func:`~repro.core.stages.run_stages`); ``SampleAnalysis.timings`` is a
  view over these cells;
* **hot paths** (opt-in, ``prof.enabled``), recorded under the active
  stage's prefix (``pipeline.analyze;impact;vm;slow``) or unprefixed
  outside any stage (daemon, campaign, a bare ``run_sample``):

  - VM execution by tier — ``vm;slow`` (every step of a recorded run,
    the API calls of an unrecorded one), ``vm;fast`` (predecoded untainted
    loop), and — outside analysis only, since ``AutoVac.analyze`` compiles
    no regions — ``vm;superblock;region@0x…`` (one node per compiled hot
    region) plus ``vm;superblock;guard_exit`` (count-only: budget-refused
    dispatches; their time stays on the region node);
  - API dispatch per handler — ``api;<Name>`` total with
    ``api;<Name>;read_args`` (the ``read_stack_args`` pre-read) split out,
    so body time is the handler node's *self* time;
  - snapshot capture/resume — ``snapshot;capture`` / ``snapshot;resume``
    with the structured environment walk as ``env_snapshot`` /
    ``env_restore`` child nodes;
  - determinism's slice re-run — ``slice_rerun`` (the whole re-run, see
    :func:`~repro.core.runner.record_prefix`) with its own ``vm;slow`` and
    ``api;<Name>`` children;
  - rule matching — ``rules;daemon`` / ``rules;clinic`` /
    ``rules;campaign``, one node per
    :class:`~repro.delivery.engine.RuleEngine` consumer.

Design rules (the cheap-hook contract, like metrics and flight):

* Hot-path sites gate on ``prof.enabled`` (or a cached ``None``-or-profiler
  attribute) *once per run or call*, never per instruction; with the
  profiler off they cost nothing and only the stage cells are written
  (``benchmarks/bench_perf_overhead.py`` holds the default pipeline within
  5% of ``obs.disabled()``).
* **Deterministic**: path sets and counts depend only on what executed —
  merging per-sample deltas is commutative addition, so ``jobs=1`` and
  ``jobs=N`` runs of the same corpus, cold or warm cache, produce identical
  trees (times differ, structure and counts do not; ``tests/test_prof.py``
  pins this).
* Paths follow the collapsed/folded-stack convention, so ``to_folded()``
  output feeds ``flamegraph.pl`` / speedscope directly.

Each timed second is counted on one node.  Some timers run inside an
enclosing timer whose node is not their ancestor in the tree: an API
handler (``api;<Name>``) runs inside the ``vm;slow`` step that called it,
and a snapshot capture (``snapshot;capture``) or the daemon's rule match
(``rules;daemon``) inside a handler.  Such a timer records through
:meth:`Profiler.add_nested`, and the enclosing timer subtracts what was
recorded that way during its span, so ``vm;slow`` is step time outside
the handlers and ``api;<Name>`` is handler time outside captures and rule
matches.  ``snapshot;resume`` is reconstruction only: the resumed run's
execution lands on the ``vm;*`` tiers.  A node's children therefore sum to
at most its total, and its self time is the difference (clamped at zero
against float rounding).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Frame separator (folded-stack convention); frame names must not contain it.
SEP = ";"

#: A profile snapshot: path -> [count, seconds].  JSON-safe by construction.
ProfileDict = Dict[str, List]


class Profiler:
    """Process-local accumulator of ``path -> [count, seconds]`` cells.

    One global instance lives at ``repro.obs.prof``.  Hot sites accumulate
    locally (plain ints/floats) and flush once per run/call via :meth:`add`;
    :meth:`mark`/:meth:`since` carve out per-sample deltas, which merge
    across executor workers through :meth:`absorb` (commutative, so worker
    completion order cannot change the result).
    """

    __slots__ = ("enabled", "prefix", "nested", "_paths")

    def __init__(self) -> None:
        #: Off by default — hot-path profiling is opt-in (``repro profile``,
        #: ``survey --profile``); stage cells are recorded regardless.
        self.enabled = False
        #: Frames :meth:`add` records under: ``""`` outside a pipeline
        #: stage, ``"pipeline.analyze;<stage>;"`` while one runs.
        self.prefix = ""
        #: Running total of the seconds :meth:`add_nested` has recorded.  A
        #: timer enclosing such nodes reads it at both ends of its span and
        #: subtracts the growth from its own time.
        self.nested = 0.0
        self._paths: ProfileDict = {}

    # -- collection (hot-ish; callers gate on .enabled first) ----------------

    def add(self, path: str, seconds: float = 0.0, count: int = 1) -> None:
        """Fold ``count`` events and ``seconds`` of wall time into ``path``
        under the active stage prefix (no-op when disabled)."""
        if self.enabled:
            self.record(self.prefix + path, seconds, count)

    def add_nested(self, path: str, seconds: float, count: int = 1) -> None:
        """:meth:`add` for a timer that runs inside an enclosing timer whose
        node is not its tree ancestor (a handler inside a slow step): the
        seconds also grow :attr:`nested`, which the enclosing timer
        subtracts, so they are counted once."""
        if self.enabled:
            self.record(self.prefix + path, seconds, count)
            self.nested += seconds

    def record(self, path: str, seconds: float, count: int = 1) -> None:
        """Fold into the absolute ``path``, whether or not hot-path
        profiling is on — how the pipeline writes its stage cells."""
        cell = self._paths.get(path)
        if cell is None:
            self._paths[path] = [count, seconds]
        else:
            cell[0] += count
            cell[1] += seconds

    @contextmanager
    def timed(self, path: str) -> Iterator[None]:
        """Time a block into ``path`` (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(path, time.perf_counter() - started)

    # -- snapshots, deltas, merging ------------------------------------------

    def snapshot(self) -> ProfileDict:
        """JSON-safe copy of everything collected so far."""
        return {path: [cell[0], cell[1]] for path, cell in self._paths.items()}

    def mark(self) -> ProfileDict:
        """Checkpoint for :meth:`since` (per-sample delta extraction)."""
        return self.snapshot()

    def since(self, mark: ProfileDict) -> ProfileDict:
        """What was collected after ``mark`` — the per-sample profile the
        pipeline attaches to :class:`~repro.core.pipeline.SampleAnalysis`."""
        delta: ProfileDict = {}
        for path, (count, seconds) in self._paths.items():
            base = mark.get(path)
            d_count = count - (base[0] if base else 0)
            d_seconds = seconds - (base[1] if base else 0.0)
            if d_count or d_seconds > 0.0:
                delta[path] = [d_count, d_seconds]
        return delta

    def restore(self, mark: ProfileDict) -> None:
        """Roll collected data back to ``mark`` (a failed attempt's cells
        are dropped, as a failed worker's payload is)."""
        self._paths = {path: [cell[0], cell[1]] for path, cell in mark.items()}

    def absorb(self, profile: Optional[ProfileDict]) -> None:
        """Fold a snapshot/delta from another process (or a cache hit) in.

        Not gated on ``enabled``: this is data plumbing, not collection —
        the executor parent folds worker profiles the same way
        ``MetricsRegistry.merge`` folds worker metric snapshots.
        """
        for path, (count, seconds) in (profile or {}).items():
            self.record(path, seconds, count)

    def reset(self) -> None:
        """Drop collected data (the ``enabled`` flag is left alone, matching
        ``MetricsRegistry.reset``)."""
        self._paths.clear()
        self.prefix = ""
        self.nested = 0.0

    def __len__(self) -> int:
        return len(self._paths)


def merge_profiles(*profiles: Optional[ProfileDict]) -> ProfileDict:
    """Commutative sum of profile snapshots (``None`` entries skipped)."""
    merged = Profiler()
    for profile in profiles:
        merged.absorb(profile)
    return merged._paths


# ---------------------------------------------------------------------------
# export: JSON tree, text tree, folded stacks, hot-paths table
# ---------------------------------------------------------------------------


def to_tree(profile: ProfileDict) -> List[dict]:
    """Nested-node view of a flat profile, children sorted by name.

    Each node: ``{name, path, count, total_seconds, self_seconds,
    children}``.  Interior frames without their own cell (e.g. ``api`` when
    only ``api;X`` was recorded) are synthesized with the sum of their
    children and zero self time; a frame *with* its own cell gets
    ``self = total - sum(children totals)`` clamped at zero.
    """
    root: dict = {"children": {}}
    for path in sorted(profile):
        count, seconds = profile[path]
        node = root
        frames = path.split(SEP)
        for depth, frame in enumerate(frames):
            node = node["children"].setdefault(
                frame,
                {
                    "name": frame,
                    "path": SEP.join(frames[: depth + 1]),
                    "count": 0,
                    "total_seconds": 0.0,
                    "own": False,
                    "children": {},
                },
            )
        node["count"] = count
        node["total_seconds"] = seconds
        node["own"] = True

    def finalize(node: dict) -> dict:
        children = [finalize(child) for _, child in sorted(node["children"].items())]
        child_total = sum(c["total_seconds"] for c in children)
        child_count = sum(c["count"] for c in children)
        if not node["own"]:
            node["total_seconds"] = child_total
            node["count"] = child_count
        node["self_seconds"] = round(max(0.0, node["total_seconds"] - child_total), 9)
        node["total_seconds"] = round(node["total_seconds"], 9)
        node["children"] = children
        node.pop("own")
        return node

    return [
        finalize(child) for _, child in sorted(root["children"].items())
    ]


def render_tree(
    profile: ProfileDict, max_depth: int = 6, top: Optional[int] = None
) -> str:
    """Indented text view of :func:`to_tree`: each node's count, total and
    self time, and its total's share of all root time.  Siblings are widest
    first; ``max_depth`` limits the frames shown and ``top`` keeps the
    ``top`` widest nodes per level, with a ``+k more`` marker."""
    roots = to_tree(profile)
    if not roots:
        return "(no profile data)\n"
    grand = sum(node["total_seconds"] for node in roots) or 1.0
    rows: List[tuple] = []

    def walk(nodes: List[dict], depth: int) -> None:
        ordered = sorted(nodes, key=lambda n: (-n["total_seconds"], n["name"]))
        shown = ordered if top is None else ordered[: max(1, top)]
        indent = "  " * depth
        for node in shown:
            rows.append((indent + node["name"], node))
            if depth + 1 < max_depth:
                walk(node["children"], depth + 1)
        if len(shown) < len(ordered):
            rows.append((f"{indent}... +{len(ordered) - len(shown)} more", None))

    walk(roots, 0)
    width = max(len(label) for label, _ in rows)
    lines = []
    for label, node in rows:
        if node is None:
            lines.append(label)
            continue
        lines.append(
            f"{label:<{width}}  n={node['count']:<9,}  "
            f"total={_fmt_seconds(node['total_seconds']):>9}  "
            f"self={_fmt_seconds(node['self_seconds']):>9}  "
            f"{100.0 * node['total_seconds'] / grand:5.1f}%"
        )
    return "\n".join(lines) + "\n"


def _self_cells(profile: ProfileDict) -> Dict[str, List]:
    """path -> [count, self_seconds]: total minus the totals of the nearest
    recorded descendants (``pipeline.analyze;impact`` loses
    ``pipeline.analyze;impact;vm;slow`` although no ``…;impact;vm`` cell
    exists), clamped at zero — the same self time :func:`to_tree` gives."""
    cells = {path: [cell[0], cell[1]] for path, cell in profile.items()}
    for path, cell in profile.items():
        parent = path
        while SEP in parent:
            parent = parent.rsplit(SEP, 1)[0]
            if parent in cells:
                cells[parent][1] -= cell[1]
                break
    for cell in cells.values():
        cell[1] = max(0.0, cell[1])
    return cells


def to_folded(profile: ProfileDict) -> str:
    """Collapsed/folded-stack text: one ``path value`` line per frame with
    *self* time in integer microseconds — the format ``flamegraph.pl`` and
    speedscope ingest directly."""
    lines = []
    for path, (_count, self_seconds) in sorted(_self_cells(profile).items()):
        lines.append(f"{path} {int(round(self_seconds * 1_000_000))}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_table(profile: ProfileDict, top: Optional[int] = None) -> str:
    """Human-readable hot-paths table, widest self time first."""
    if not profile:
        return "(no profile data)\n"
    self_cells = _self_cells(profile)
    grand = sum(cell[1] for cell in self_cells.values()) or 1.0
    rows = sorted(
        self_cells.items(), key=lambda item: (-item[1][1], item[0])
    )
    if top is not None:
        rows = rows[: max(0, top)]
    width = max(len("path"), max(len(path) for path, _ in rows))
    lines = [
        f"{'path':<{width}}  {'count':>10}  {'total':>10}  {'self':>10}  {'self%':>6}"
    ]
    for path, (count, self_seconds) in rows:
        total = profile[path][1]
        lines.append(
            f"{path:<{width}}  {count:>10,}  {_fmt_seconds(total):>10}  "
            f"{_fmt_seconds(self_seconds):>10}  {100.0 * self_seconds / grand:>5.1f}%"
        )
    return "\n".join(lines) + "\n"


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 0.001:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


__all__ = [
    "Profiler",
    "SEP",
    "merge_profiles",
    "render_table",
    "render_tree",
    "to_folded",
    "to_tree",
]
