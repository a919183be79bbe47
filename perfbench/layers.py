"""Per-layer spans, wrapped around the public functions of each layer from
the benchmark's side (nothing under ``src/`` is instrumented).

A span's *self time* is its duration minus the time its child spans
cover.  Spans nest through one explicit stack: the benchmark is a single
client running one operation at a time, so there is no concurrency to
separate.  Every operation is itself the root span ``op``.

Some callers bind a layer's function at import or construction time, so
patching the defining module alone would miss them.  Each such name is
patched where the caller looks it up:

* ``core.pipeline.analyze_determinism`` (imported by name),
* ``core.determinism.backward_slice`` / ``replay_slice`` and
  ``delivery.daemon.replay_slice`` (imported by name),
* ``core.stages.synthesize_policy`` (imported by name),
* ``ImpactAnalyzer.aligner`` (an instance attribute set in ``__init__``),
* ``core.impact.resume_sample`` reaches ``VmSnapshot.build_cpu`` through
  the class, so the class-level patch covers it.

The binding check in ``run.py`` proves every span fired where the
workload map says it must.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

from repro.core import determinism, pipeline, snapshot, stages
from repro.core.exclusiveness import ExclusivenessAnalyzer
from repro.delivery import daemon
from repro.delivery.engine import RuleEngine
from repro.vm.cpu import CPU
from repro.winapi.dispatcher import Dispatcher
from repro.winenv.environment import SystemEnvironment

#: Stage span name -> default stage type whose ``run`` it wraps.
STAGE_SPANS = {
    "stage.phase1": stages.Phase1Stage,
    "stage.exclusiveness": stages.ExclusivenessStage,
    "stage.impact": stages.ImpactStage,
    "stage.determinism": stages.DeterminismStage,
    "stage.policy": stages.PolicyStage,
}

#: Every wrapped span, in report order.
SPANS = tuple(STAGE_SPANS) + (
    "vm.run",
    "winapi.invoke",
    "winenv.clone",
    "snapshot.capture",
    "snapshot.restore",
    "analysis.align",
    "determinism.analyze",
    "taint.backward_slice",
    "taint.replay_slice",
    "policy.synthesize",
    "exclusiveness.filter",
    "delivery.decide",
)

#: Step counts the ``vm.run`` wrapper keeps (per CPU run, from ``cpu.steps``).
STEP_COUNTS = ("vm.steps", "vm.recorded_steps")


class LayerTracer:
    """Installs the span wrappers and accumulates self time and calls."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(SPANS + ("op",), 0.0)
        self.calls: Counter = Counter()
        self.steps: Counter = Counter()
        # One frame per open span: the seconds its children have covered.
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration

        span.__wrapped__ = fn
        return span

    def op(self, fn: Callable) -> Callable:
        """The root span around one whole operation."""
        return self.wrap("op", fn)

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, autovac) -> None:
        """Patch every layer; ``autovac`` is the pipeline whose impact
        analyzer holds the aligner."""
        for name, cls in STAGE_SPANS.items():
            self._patch(cls, "run", self.wrap(name, cls.__dict__["run"]))

        original_run = CPU.__dict__["run"]
        steps = self.steps

        def counted_run(cpu):
            before = cpu.steps
            trace = original_run(cpu)
            executed = cpu.steps - before
            steps["vm.steps"] += executed
            if cpu.record_instructions:
                steps["vm.recorded_steps"] += executed
            return trace

        self._patch(CPU, "run", self.wrap("vm.run", counted_run))
        self._patch(Dispatcher, "invoke", self.wrap("winapi.invoke", Dispatcher.__dict__["invoke"]))
        self._patch(
            SystemEnvironment, "clone", self.wrap("winenv.clone", SystemEnvironment.__dict__["clone"])
        )
        capture = snapshot.VmSnapshot.__dict__["capture"].__func__
        self._patch(
            snapshot.VmSnapshot, "capture", classmethod(self.wrap("snapshot.capture", capture))
        )
        self._patch(
            snapshot.VmSnapshot,
            "build_cpu",
            self.wrap("snapshot.restore", snapshot.VmSnapshot.__dict__["build_cpu"]),
        )
        self._patch(
            autovac.impact, "aligner", self.wrap("analysis.align", autovac.impact.aligner)
        )
        self._patch(
            pipeline,
            "analyze_determinism",
            self.wrap("determinism.analyze", pipeline.analyze_determinism),
        )
        backward = self.wrap("taint.backward_slice", determinism.backward_slice)
        self._patch(determinism, "backward_slice", backward)
        replay = self.wrap("taint.replay_slice", determinism.replay_slice)
        self._patch(determinism, "replay_slice", replay)
        self._patch(daemon, "replay_slice", replay)
        self._patch(
            stages, "synthesize_policy", self.wrap("policy.synthesize", stages.synthesize_policy)
        )
        self._patch(
            ExclusivenessAnalyzer,
            "filter",
            self.wrap("exclusiveness.filter", ExclusivenessAnalyzer.__dict__["filter"]),
        )
        self._patch(RuleEngine, "decide", self.wrap("delivery.decide", RuleEngine.__dict__["decide"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading --------------------------------------------------------------

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self seconds per span, and every exact count (calls and steps)."""
        counts = {f"{name}.calls": self.calls[name] for name in SPANS}
        counts.update({name: self.steps[name] for name in STEP_COUNTS})
        return dict(self.self_s), counts


__all__ = ["LayerTracer", "SPANS", "STAGE_SPANS", "STEP_COUNTS"]
