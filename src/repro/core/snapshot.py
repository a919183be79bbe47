"""Snapshot-resume checkpoints for Phase-II impact analysis.

The paper's dominant cost is re-executing the sample once per candidate
mutation (§IV-B): every mutated run replays the full natural prefix up to
the first API call that touches the mutated resource, then diverges.  A
:class:`VmSnapshot` captures the complete guest state — VM machine state
plus the Windows environment — at exactly that first interception site, so
each mutated run resumes from the checkpoint and pays only for the
divergent suffix: O(candidates × suffix) instead of O(candidates × trace).

Why capture at intercept time is sound: the dispatcher resolves arguments
and identifiers *before* consulting interceptors, and that pre-intercept
phase only reads guest state.  Rewinding ``pc`` to the call site and the
step/event-id counters to the call's own values therefore reproduces the
call bit-for-bit when the resumed run re-executes it — this time with the
mutation interceptor attached, which fires on the identical
:func:`mutation_matches` predicate the recorder used.

State is split two ways:

* **VM machine state** (registers, flags, sparse memory, call stack, the
  event log so far) is shallow-copied — dict/list copies over immutable
  ints and already-final events.  Snapshots are taken on unrecorded runs,
  which carry no taint, so there is no taint state to copy.
* **Guest environment state** (filesystem, registry, mutexes, the process
  and its handle table, the RNG mid-sequence) is captured as a structured
  :class:`~repro.winenv.snapshot.EnvSnapshot`: plain-data rows walked once
  at capture, rebuilt per resume via real constructors, with
  handle→resource identity preserved through an explicit id-map — no
  pickle round-trip on either side.  ``SystemEnvironment.clone()`` cannot
  be used here: it reseeds the RNG and drops handle tables, both of which
  only reset correctly at process spawn, not mid-run.

A capture that fails degrades to the full-rerun path per candidate, and
so does a resume whose restore raises — never to a wrong answer.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .. import obs
from ..tracing.events import ApiCallEvent
from ..tracing.trace import Trace
from ..vm.cpu import CPU
from ..vm.memory import Memory
from ..winapi.dispatcher import Dispatcher, Interception
from ..winenv.snapshot import EnvSnapshot
from .vaccine import normalize_identifier

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..winapi.labels import ApiDef
    from .candidate import CandidateResource


def mutation_matches(candidate: "CandidateResource", event: ApiCallEvent) -> bool:
    """Does this API call touch the candidate resource?

    The single matching predicate shared by :class:`SnapshotRecorder` and
    :class:`~repro.core.impact.ResourceMutation` — the snapshot is taken at
    the first event the mutation would have intercepted, by construction.
    Only intercept-time identifiers participate (identifiers resolved late
    by the API implementation are invisible to interceptors on both paths).
    """
    if event.resource_type is not candidate.resource_type:
        return False
    if event.identifier is None:
        return False
    norm = normalize_identifier(event.resource_type, event.identifier)
    return norm == candidate.identifier


@dataclass
class VmSnapshot:
    """Complete guest state at one API interception site."""

    program_name: str
    #: Rewound to the call site: the resumed run re-executes the API call.
    pc: int
    steps: int
    next_event_id: int
    regs: Dict[str, int]
    flags: Dict[str, int]
    callstack: List[int]
    mem_bytes: Dict[int, int]
    mem_regions: List[Tuple[int, int]]
    mem_readonly: List[Tuple[int, int]]
    api_calls: List[ApiCallEvent]
    #: Structured environment capture: plain-data rows with
    #: handle->resource identity carried by an explicit id-map.
    env_state: EnvSnapshot

    @classmethod
    def capture(
        cls, cpu: CPU, event: ApiCallEvent, restores: List[int]
    ) -> "VmSnapshot":
        """Checkpoint ``cpu`` as of the *start* of the API call ``event``.
        ``restores`` is the capture run's shared restore counter
        (:attr:`EnvSnapshot.restores`).

        Called from inside the dispatcher's interceptor phase, where guest
        state is untouched since the call instruction began: only ``pc``,
        ``steps`` and the trace's event-id counter have advanced, and all
        three are rewound to the event's own values.
        """
        memory = cpu.memory
        prof = obs.prof if obs.prof.enabled else None
        t_start = time.perf_counter() if prof is not None else 0.0
        if prof is not None:
            t0 = time.perf_counter()
            env_state = EnvSnapshot.capture(cpu.environment, cpu.process, restores)
            prof.add("snapshot;capture;env_snapshot", time.perf_counter() - t0)
        else:
            env_state = EnvSnapshot.capture(cpu.environment, cpu.process, restores)
        snapshot = cls(
            program_name=cpu.program.name,
            pc=event.caller_pc,
            steps=event.seq,
            next_event_id=event.event_id,
            regs=dict(cpu.regs),
            flags=dict(cpu.flags),
            callstack=list(cpu.callstack),
            mem_bytes=dict(memory._bytes),
            mem_regions=list(memory._regions),
            mem_readonly=list(memory.readonly_ranges),
            api_calls=list(cpu.trace.api_calls),
            env_state=env_state,
        )
        if prof is not None:
            # Taken inside the handler being intercepted: claimed from it.
            prof.add_nested("snapshot;capture", time.perf_counter() - t_start)
        return snapshot

    def build_cpu(
        self,
        program,
        interceptors=None,
        max_steps: int = 200_000,
    ) -> CPU:
        """Reconstruct a runnable (unrecorded) CPU from this checkpoint.

        Each call restores an independent environment (the structured rows
        are rebuilt fresh), so one snapshot can seed both mutation mechanisms without
        cross-contamination.
        """
        prof = obs.prof if obs.prof.enabled else None
        t_start = time.perf_counter() if prof is not None else 0.0
        if prof is not None:
            t0 = time.perf_counter()
            environment, process = self.env_state.restore()
            prof.add("snapshot;resume;env_restore", time.perf_counter() - t0)
        else:
            environment, process = self.env_state.restore()
        all_interceptors = list(environment.global_interceptors)
        all_interceptors.extend(interceptors or [])
        dispatcher = Dispatcher(environment, process, interceptors=all_interceptors)

        memory = Memory.restore(
            bytes_map=self.mem_bytes,
            regions=self.mem_regions,
            readonly_ranges=self.mem_readonly,
        )

        trace = Trace(program_name=program.name)
        trace.api_calls = list(self.api_calls)
        trace._event_ids = itertools.count(self.next_event_id)

        cpu = CPU.resume(
            program,
            environment,
            process,
            dispatcher,
            memory=memory,
            regs=dict(self.regs),
            flags=dict(self.flags),
            pc=self.pc,
            steps=self.steps,
            callstack=list(self.callstack),
            trace=trace,
            max_steps=max_steps,
        )
        if prof is not None:
            # Reconstruction only — the resumed run's execution time lands on
            # the vm;* tiers, not here.
            prof.add("snapshot;resume", time.perf_counter() - t_start)
        return cpu


class _CapturesTaken(Exception):
    """Raised by :class:`SnapshotRecorder` once every candidate has its
    checkpoint: the rest of the capture run could take no other."""


class SnapshotRecorder:
    """Interceptor capturing one snapshot per candidate during a single
    natural run.

    Sits in the interceptor chain exactly where the mutation would sit (so
    it observes the same pre-intercept event state), always PASSes, and on
    each candidate's *first* match checkpoints the machine.  Candidates
    sharing a first interception site share one snapshot object.  Once the
    last candidate is checkpointed it ends the run by raising
    :class:`_CapturesTaken` from inside that API call, before the call
    executes; the run's caller catches it.
    """

    def __init__(self, candidates) -> None:
        self.pending: Dict[tuple, "CandidateResource"] = {
            c.key: c for c in candidates
        }
        #: candidate.key -> VmSnapshot (None: capture failed, rerun in full).
        self.snapshots: Dict[tuple, Optional[VmSnapshot]] = {}
        self.cpu: Optional[CPU] = None
        #: One restore counter for every snapshot of this capture run.
        self.restores: List[int] = [0]

    def bind(self, cpu: CPU) -> None:
        self.cpu = cpu

    def intercept(self, apidef: "ApiDef", event: ApiCallEvent) -> Interception:
        if self.pending:
            matched = [
                key
                for key, candidate in self.pending.items()
                if mutation_matches(candidate, event)
            ]
            if matched:
                snapshot: Optional[VmSnapshot]
                # Only a failed capture journals an ``error``, so fault-free
                # journals keep their bytes.
                failure: Dict[str, str] = {}
                try:
                    snapshot = VmSnapshot.capture(self.cpu, event, self.restores)
                except Exception as exc:
                    snapshot = None
                    failure["error"] = str(exc)
                    obs.metrics.add("snapshot.capture_failures")
                flight = obs.flight
                if flight.enabled:
                    flight_id = flight.record(
                        "snapshot.capture",
                        causes=(flight.recall(("api", event.event_id)),),
                        api=event.api,
                        identifier=event.identifier,
                        ok=snapshot is not None,
                        candidates=len(matched),
                        **failure,
                    )
                    for key in matched:
                        flight.remember(("snapshot",) + key, flight_id)
                for key in matched:
                    del self.pending[key]
                    self.snapshots[key] = snapshot
                if not self.pending:
                    raise _CapturesTaken
        return Interception.PASS


__all__ = [
    "SnapshotRecorder",
    "VmSnapshot",
    "mutation_matches",
]
