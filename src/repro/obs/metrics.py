"""Process-local metrics registry (counters and gauges).

Zero-dependency analogue of a Prometheus client: metric *families* are
registered by name, each family holds one instrument per label set, and the
whole registry exports as JSON or Prometheus text exposition format.

The registry keeps only counts nothing else records: the VM tier counters
perfbench reads, snapshot capture/resume failures, cache/retry/pool traffic,
and the daemon and campaign gauges.  Per-sample facts live in the result
(``SampleAnalysis``, ``PopulationResult``), the journal and the timing tree.

* instrument handles are plain objects with an ``inc``/``set`` method —
  callers may cache them and skip the registry lookup entirely (the CPU
  flushes its tier counters once per run through cached handles);
* when the registry is disabled (``obs.disabled()``), accessors hand out
  a shared null instrument so instrumented code pays one attribute check;
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


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class _NullInstrument:
    """Absorbs every instrument operation; handed out when disabled."""

    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass


NULL = _NullInstrument()


class Family:
    """All instruments sharing one metric name, keyed by label set."""

    def __init__(self, name: str, kind: str, factory) -> None:
        self.name = name
        self.kind = kind
        self._factory = factory
        self.children: Dict[LabelKey, object] = {}

    def get(self, labels: Dict[str, object], lock: threading.Lock):
        key = _label_key(labels)
        child = self.children.get(key)
        if child is None:
            with lock:
                child = self.children.get(key)
                if child is None:
                    child = self.children[key] = self._factory()
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
        return self._family(name, "counter", Counter).get(labels, self._lock)

    def gauge(self, name: str, **labels) -> Gauge:
        if not self.enabled:
            return NULL  # type: ignore[return-value]
        return self._family(name, "gauge", Gauge).get(labels, self._lock)

    def _family(self, name: str, kind: str, factory) -> Family:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = self._families[name] = Family(name, kind, factory)
        if family.kind != kind:
            raise TypeError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        return family

    # -- reads -------------------------------------------------------------

    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge (0.0 when absent)."""
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
        this registry.

        Counters add; gauges fold *additively* as well, which makes "merged
        totals == sum of worker snapshots" hold uniformly — the gauges whose
        last-writer semantics matter (daemon, campaign) are set in the
        process that owns them and never appear in worker snapshots.  No-op
        when the registry is disabled.
        """
        if not self.enabled:
            return
        for name in sorted(snapshot):
            family = snapshot[name]
            instrument = self.counter if family["kind"] == "counter" else self.gauge
            for series in family["series"]:
                instrument(name, **series["labels"]).inc(float(series["value"]))

    # -- exporters ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe dump of every family."""
        return {
            family.name: {
                "kind": family.kind,
                "series": [
                    {"labels": dict(key), "value": child.value}
                    for key, child in sorted(family.children.items())
                ],
            }
            for family in self.families()
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (``repro_`` namespace)."""
        return prometheus_text(self.snapshot())


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
        family = snapshot[name]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} {family['kind']}")
        suffix = "_total" if family["kind"] == "counter" else ""
        for series in family["series"]:
            lines.append(f"{prom}{suffix}{_prom_labels(series['labels'])} {series['value']}")
    return "\n".join(lines) + "\n"
