"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import os
import time
from pathlib import Path

ARTIFACTS = Path(__file__).parent / "_artifacts"
ARTIFACTS.mkdir(exist_ok=True)

POPULATION_SIZE = int(os.environ.get("REPRO_POPULATION_SIZE", "240"))
POPULATION_SEED = 42
#: Worker processes for the shared population run (1 = sequential).
POPULATION_JOBS = int(os.environ.get("REPRO_JOBS", "1"))
#: Optional result-cache directory for the shared population run.
POPULATION_CACHE = os.environ.get("REPRO_CACHE") or None


def write_artifact(name: str, text: str) -> None:
    (ARTIFACTS / name).write_text(text)


def min_wall_seconds(fn, repeats: int = 5):
    """Best-of-N wall time for ``fn`` (min is the noise-robust estimator for
    overhead ratios). Returns (seconds, last_result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best, result


def paired_overhead(side_a, side_b, pairs: int = 11, side_repeats: int = 2):
    """Relative cost of ``side_a`` over ``side_b``: the median of ``pairs``
    paired a/b wall-time ratios.  Pairs alternate which side runs first
    (cancelling CPU-frequency drift), each side is the best of
    ``side_repeats`` runs (one scheduler tail cannot poison a ratio), and
    the collector is off inside a pair so its pauses never land on one
    side.  Returns (overhead, best a seconds, best b seconds, last result
    of ``side_a``)."""
    import gc
    import statistics

    ratios = []
    a_best = b_best = float("inf")
    last = None
    for i in range(pairs):
        gc.collect()
        gc.disable()
        try:
            if i % 2:
                b, _ = min_wall_seconds(side_b, repeats=side_repeats)
                a, last = min_wall_seconds(side_a, repeats=side_repeats)
            else:
                a, last = min_wall_seconds(side_a, repeats=side_repeats)
                b, _ = min_wall_seconds(side_b, repeats=side_repeats)
        finally:
            gc.enable()
        ratios.append(a / b)
        a_best = min(a_best, a)
        b_best = min(b_best, b)
    return statistics.median(ratios) - 1.0, a_best, b_best, last


def render_table(title: str, table: dict, total_label: str = "total") -> str:
    columns = sorted({c for row in table.values() for c in row})
    lines = [title, "resource".ljust(12) + "".join(c[:18].rjust(20) for c in columns)
             + total_label.rjust(8)]
    col_totals = {c: 0 for c in columns}
    for name in sorted(table):
        row = table[name]
        cells = "".join(str(row.get(c, 0)).rjust(20) for c in columns)
        lines.append(name.ljust(12) + cells + str(sum(row.values())).rjust(8))
        for c in columns:
            col_totals[c] += row.get(c, 0)
    lines.append("TOTAL".ljust(12) + "".join(str(col_totals[c]).rjust(20) for c in columns)
                 + str(sum(col_totals.values())).rjust(8))
    return "\n".join(lines) + "\n"
