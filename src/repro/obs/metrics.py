"""Process-local metrics registry (counters, gauges, histograms).

Zero-dependency analogue of a Prometheus client: metric *families* are
registered by name, each family holds one instrument per label set, and the
whole registry exports as JSON or Prometheus text exposition format.

Design constraints (this sits on hot paths — the API dispatcher and the
vaccine daemon call into it once per guest API call):

* instrument handles are plain objects with an ``inc``/``set``/``observe``
  method — callers may cache them and skip the registry lookup entirely;
* when the registry is disabled (``obs.disabled()``), accessors hand out
  shared null instruments so instrumented code pays one attribute check;
* label cardinality is capped per family (:data:`MAX_LABEL_SETS`); overflow
  label sets share one null instrument and are counted in
  ``registry.dropped_label_sets`` instead of growing without bound.

Everything is process-local and GIL-consistent; a single lock guards only
family/child *creation*, never the increment fast path.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .log import get_logger

#: Hard cap on distinct label sets per metric family (cardinality guard).
MAX_LABEL_SETS = 512

#: Side-channel counter: label sets dropped by the cap, one series per
#: overflowing family — so a runaway-cardinality bug is visible in every
#: snapshot instead of failing silently.
DROPPED_LABEL_SETS_METRIC = "obs.dropped_label_sets"

_log = get_logger("obs.metrics")

#: Default histogram buckets — tuned for sub-second pipeline phases
#: (seconds): 100µs … 30s, roughly log-spaced.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

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

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``; one overflow
    slot at the end counts the rest (the ``+Inf`` bucket).  Counts are
    *non-cumulative* internally; the Prometheus exporter accumulates.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge_series(self, series: Dict[str, object]) -> None:
        """Fold one snapshot histogram series (see
        :meth:`MetricsRegistry.snapshot`) into this histogram.

        Identical bucket layouts merge element-wise; a foreign layout is
        re-binned by upper bound (each foreign bucket's count lands in the
        first local bucket whose bound covers it — a conservative coarsening,
        never a loss: count/sum/min/max stay exact either way).
        """
        self.count += int(series.get("count", 0))
        self.sum += float(series.get("sum", 0.0))
        for attr in ("min", "max"):
            other = series.get(attr)
            if other is None:
                continue
            mine = getattr(self, attr)
            pick = min if attr == "min" else max
            setattr(self, attr, float(other) if mine is None else pick(mine, float(other)))
        bounds = tuple(float(b) for b in series.get("buckets", ()))
        counts = [int(c) for c in series.get("bucket_counts", ())]
        if len(counts) != len(bounds) + 1:
            return
        if bounds == self.buckets:
            for i, c in enumerate(counts):
                self.bucket_counts[i] += c
            return
        for bound, c in zip(bounds, counts):
            for i, own_bound in enumerate(self.buckets):
                if bound <= own_bound:
                    self.bucket_counts[i] += c
                    break
            else:
                self.bucket_counts[-1] += c
        self.bucket_counts[-1] += counts[-1]


class _NullInstrument:
    """Absorbs every instrument operation; handed out when disabled or when
    a family overflowed its label-set cap."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL = _NullInstrument()


class Family:
    """All instruments sharing one metric name, keyed by label set."""

    def __init__(self, name: str, kind: str, help: str, factory) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self._factory = factory
        self.children: Dict[LabelKey, object] = {}
        self._warned_overflow = False

    def get(self, labels: Dict[str, object], registry: "MetricsRegistry"):
        key = _label_key(labels)
        child = self.children.get(key)
        if child is None:
            overflowed = warn = False
            with registry._lock:
                child = self.children.get(key)
                if child is None:
                    if len(self.children) >= MAX_LABEL_SETS:
                        registry.dropped_label_sets += 1
                        overflowed = True
                        warn = not self._warned_overflow
                        self._warned_overflow = True
                        child = NULL
                    else:
                        child = self._factory()
                        self.children[key] = child
            if overflowed:
                # Outside the lock: _note_overflow creates another family and
                # the creation lock is non-reentrant.
                registry._note_overflow(self.name, warn)
        return child


class MetricsRegistry:
    """The process-local registry. One global instance lives at ``obs.metrics``."""

    def __init__(self) -> None:
        self.enabled = True
        self.dropped_label_sets = 0
        #: Bumped on every reset(); callers holding cached instrument handles
        #: compare generations to know when their handles went stale.
        self.generation = 0
        self._families: Dict[str, Family] = {}
        self._lock = threading.Lock()

    # -- accessors ---------------------------------------------------------

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        if not self.enabled:
            return NULL  # type: ignore[return-value]
        return self._family(name, "counter", help, Counter).get(labels, self)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        if not self.enabled:
            return NULL  # type: ignore[return-value]
        return self._family(name, "gauge", help, Gauge).get(labels, self)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        if not self.enabled:
            return NULL  # type: ignore[return-value]
        family = self._family(name, "histogram", help, lambda: Histogram(buckets))
        return family.get(labels, self)

    def _note_overflow(self, name: str, warn: bool) -> None:
        """Count (and, once per family, warn about) a dropped label set.

        Skips the side channel when the overflowing family *is* the overflow
        counter itself — otherwise a pathological run with more than
        :data:`MAX_LABEL_SETS` overflowing families would recurse.
        """
        if name != DROPPED_LABEL_SETS_METRIC:
            self.counter(
                DROPPED_LABEL_SETS_METRIC,
                help="label sets dropped by the per-family cardinality cap",
                metric=name,
            ).inc()
        if warn:
            _log.warning(
                "label-set cap hit; further series dropped",
                metric=name,
                cap=MAX_LABEL_SETS,
            )

    def _family(self, name: str, kind: str, help: str, factory) -> Family:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = Family(name, kind, help, factory)
                    self._families[name] = family
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
        return getattr(child, "value", 0.0) if child is not None else 0.0

    def total(self, name: str) -> float:
        """Sum of a counter family across all label sets."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        return sum(getattr(c, "value", 0.0) for c in family.children.values())

    def families(self) -> Iterator[Family]:
        return iter(list(self._families.values()))

    def reset(self) -> None:
        with self._lock:
            self._families.clear()
            self.dropped_label_sets = 0
            self.generation += 1

    # -- merging -----------------------------------------------------------

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` dict (e.g. from a worker process) into
        this registry.

        Counters and histograms add; gauges fold *additively* as well, which
        makes "merged totals == sum of worker snapshots" hold uniformly —
        gauges whose last-writer semantics matter (population progress) are
        owned by the parent and never appear in worker snapshots.  No-op when
        the registry is disabled.
        """
        if not self.enabled:
            return
        for name in sorted(snapshot):
            family = snapshot[name]
            kind = family.get("kind")
            help_text = str(family.get("help", ""))
            for series in family.get("series", ()):
                labels = {str(k): v for k, v in series.get("labels", {}).items()}
                if kind == "counter":
                    self.counter(name, help=help_text, **labels).inc(
                        float(series.get("value", 0.0))
                    )
                elif kind == "gauge":
                    self.gauge(name, help=help_text, **labels).inc(
                        float(series.get("value", 0.0))
                    )
                elif kind == "histogram":
                    hist = self.histogram(
                        name,
                        help=help_text,
                        buckets=tuple(series.get("buckets", DEFAULT_BUCKETS)),
                        **labels,
                    )
                    if isinstance(hist, Histogram):
                        hist.merge_series(series)

    # -- exporters ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe dump of every family."""
        out: Dict[str, object] = {}
        for family in self.families():
            series = []
            for key, child in sorted(family.children.items()):
                labels = dict(key)
                if isinstance(child, Histogram):
                    series.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "min": child.min,
                        "max": child.max,
                        "buckets": list(child.buckets),
                        "bucket_counts": list(child.bucket_counts),
                    })
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series,
            }
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (``repro_`` namespace)."""
        return prometheus_text(self.snapshot())


def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _prom_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
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
        if family["help"]:
            lines.append(f"# HELP {prom} {family['help']}")
        lines.append(f"# TYPE {prom} {family['kind']}")
        for series in family["series"]:
            labels = series["labels"]
            if family["kind"] == "histogram":
                cumulative = 0
                bounds = list(series["buckets"]) + ["+Inf"]
                for bound, bucket_count in zip(bounds, series["bucket_counts"]):
                    cumulative += bucket_count
                    le = bound if bound == "+Inf" else repr(float(bound))
                    le_label = 'le="%s"' % le
                    lines.append(
                        f"{prom}_bucket{_prom_labels(labels, le_label)} {cumulative}"
                    )
                lines.append(f"{prom}_sum{_prom_labels(labels)} {series['sum']}")
                lines.append(f"{prom}_count{_prom_labels(labels)} {series['count']}")
            else:
                suffix = "_total" if family["kind"] == "counter" else ""
                lines.append(f"{prom}{suffix}{_prom_labels(labels)} {series['value']}")
    return "\n".join(lines) + "\n"
