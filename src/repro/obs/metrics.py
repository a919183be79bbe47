"""Process-local metrics registry (counters).

Zero-dependency analogue of a Prometheus client: metric *families* are
registered by name, each family holds one counter per label set, and the
whole registry exports as JSON or Prometheus text exposition format.

The registry keeps only counts nothing else records: the VM tier counters
perfbench reads, snapshot capture/resume failures, cache/retry/pool traffic,
the daemon's matches per resource and mechanism, and the campaign's
infection attempts and what blocked them.  Per-sample facts live in the
result (``SampleAnalysis``, ``PopulationResult``), the journal and the
timing tree; the daemon's hook accounting lives in its own attributes.

* counter handles are plain objects with an ``inc`` method — callers may
  cache them and skip the registry lookup entirely (the CPU flushes its
  tier counters once per run through cached handles);
* when the registry is disabled (``obs.disabled()``), accessors hand out
  a shared null counter so instrumented code pays one attribute check;
* label values come from closed enums (resource type, mechanism, rule
  origin), so a family holds a handful of series.

Everything is process-local and GIL-consistent; a single lock guards only
family/child *creation*, never the increment fast path.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class _NullCounter:
    """Absorbs every increment; handed out when disabled."""

    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


NULL = _NullCounter()


class Family:
    """All counters sharing one metric name, keyed by label set."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.children: Dict[LabelKey, Counter] = {}

    def get(self, labels: Dict[str, object], lock: threading.Lock) -> Counter:
        key = _label_key(labels)
        child = self.children.get(key)
        if child is None:
            with lock:
                child = self.children.get(key)
                if child is None:
                    child = self.children[key] = Counter()
        return child


class MetricsRegistry:
    """The process-local registry. One global instance lives at ``obs.metrics``."""

    def __init__(self) -> None:
        self.enabled = True
        #: Bumped on every reset(); callers holding cached instrument handles
        #: compare generations to know when their handles went stale.
        self.generation = 0
        self._families: Dict[str, Family] = {}
        self._lock = threading.Lock()

    # -- accessors ---------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        if not self.enabled:
            return NULL  # type: ignore[return-value]
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = self._families[name] = Family(name)
        return family.get(labels, self._lock)

    # -- reads -------------------------------------------------------------

    def value(self, name: str, **labels) -> float:
        """Current value of a counter (0.0 when absent)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        child = family.children.get(_label_key(labels))
        return child.value if child is not None else 0.0

    def total(self, name: str) -> float:
        """Sum of a family across all label sets."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        return sum(c.value for c in family.children.values())

    def families(self) -> Iterator[Family]:
        return iter(list(self._families.values()))

    def reset(self) -> None:
        with self._lock:
            self._families.clear()
            self.generation += 1

    # -- merging -----------------------------------------------------------

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` dict (e.g. from a worker process) into
        this registry: counters add, so merged totals are the sum of the
        worker snapshots.  No-op when the registry is disabled."""
        if not self.enabled:
            return
        for name in sorted(snapshot):
            for series in snapshot[name]["series"]:
                self.counter(name, **series["labels"]).inc(float(series["value"]))

    # -- exporters ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe dump of every family."""
        return {
            family.name: {
                "kind": "counter",
                "series": [
                    {"labels": dict(key), "value": child.value}
                    for key, child in sorted(family.children.items())
                ],
            }
            for family in self.families()
        }


def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _prom_labels(labels: Dict[str, str]) -> str:
    parts = [f'{k}="{v}"' for k, v in sorted(labels.items())]
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(snapshot: Dict[str, object]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as Prometheus text.

    Works on live registries and on snapshots loaded back from JSON, so the
    ``stats`` subcommand can re-emit scrapable text from a captured file.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        for series in snapshot[name]["series"]:
            lines.append(f"{prom}_total{_prom_labels(series['labels'])} {series['value']}")
    return "\n".join(lines) + "\n"
