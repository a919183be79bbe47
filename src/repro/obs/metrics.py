"""Process-local named counts.

Every other count has an owner: the result cache counts its hits and
misses, ``PopulationResult`` its retries and pool respawns, the daemon its
matches, ``CampaignResult`` its infection attempts.  The registry keeps the
five counts that belong to no single object and that perfbench and the
survey's summary line read:

* ``vm.fast_steps``, ``vm.superblocks.compiled``,
  ``vm.superblocks.entries`` — flushed once per CPU run;
* ``snapshot.capture_failures``, ``snapshot.resume_failures`` — one per
  impact fallback to a full rerun.

A worker process ships its :meth:`MetricsRegistry.snapshot` back with its
result and the parent merges it in, so the totals are the same at any
``jobs``.  When the registry is disabled
(``obs.disabled()``), :meth:`~MetricsRegistry.add` records nothing.
"""

from __future__ import annotations

from typing import Dict, Mapping


class MetricsRegistry:
    """The process-local registry. One global instance lives at ``obs.metrics``."""

    def __init__(self) -> None:
        self.enabled = True
        self._counts: Dict[str, int] = {}

    def add(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self._counts[name] = self._counts.get(name, 0) + n

    def total(self, name: str) -> int:
        """Current count (0 when never added)."""
        return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """``{name: count}``, JSON-safe."""
        return dict(self._counts)

    def merge(self, counts: Mapping[str, int]) -> None:
        """Add a :meth:`snapshot` (e.g. from a worker process) into this
        registry.  No-op when the registry is disabled."""
        for name, n in counts.items():
            self.add(name, n)

    def reset(self) -> None:
        self._counts.clear()
