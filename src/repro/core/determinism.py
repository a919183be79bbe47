"""Phase II, step III — determinism analysis (paper §IV-C, Figure 2).

Decides whether a resource identifier can be reproduced on another machine:

* **static** — every byte comes from read-only data or constants
  (Fig. 2 left: ``"\\\\.PIPE\\_AVIRA_2109"`` from ``.rdata``);
* **partial static** — static skeleton around unpredictable bytes → anchored
  regex (deployable by the daemon's interception matcher);
* **algorithm-deterministic** — derived from stable machine inputs
  (Fig. 2 middle: computer name through ``_snprintf``) → extract the
  executable generation slice via backward taint tracking;
* **non-deterministic** — all unpredictable (Fig. 2 right:
  ``GetTempFileName``); discarded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import obs
from ..taint.backward import BackwardResult, backward_slice
from ..taint.labels import TagSet, TaintClass
from ..taint.replay import SliceReplayError, replay_slice
from ..taint.slicing import VaccineSlice, extract_slice
from ..tracing.events import ApiCallEvent
from ..tracing.trace import Trace
from ..vm.program import Program
from .runner import RunResult, record_prefix
from .vaccine import IdentifierKind

#: Minimum literal characters for a partial-static pattern to be
#: distinguishable (avoids over-broad wildcard vaccines).
MIN_STATIC_CONTEXT = 3


@dataclass
class DeterminismResult:
    """An identifier's verdict and its deployable artifact (the pattern or
    the slice).  The backward walk behind a verdict is not kept."""

    kind: IdentifierKind
    pattern: Optional[str] = None
    slice: Optional[VaccineSlice] = None
    notes: str = ""
    #: Flight-recorder id of the "verdict.determinism" event (process-local).
    flight_id: Optional[int] = None


def _byte_class(tags: TagSet) -> str:
    """Classify one identifier byte: random > env > static (priority)."""
    classes = {tag.klass for tag in tags}
    if TaintClass.RANDOM in classes or TaintClass.RESOURCE in classes:
        return "random"
    if TaintClass.ENV_DETERMINISTIC in classes:
        return "env"
    return "static"


def byte_classes(event: ApiCallEvent) -> List[str]:
    if not event.identifier or event.identifier_taints is None:
        return []
    return [_byte_class(tags) for tags in event.identifier_taints]


def build_pattern(identifier: str, classes: List[str]) -> Optional[str]:
    """Anchored regex: static runs literal, other runs wildcarded.

    Unpredictable *and* merely machine-dependent (env) bytes both become
    wildcards so the pattern transfers across machines.
    """
    if len(identifier) != len(classes):
        return None
    pieces: List[str] = []
    static_chars = 0
    i = 0
    while i < len(identifier):
        if classes[i] == "static":
            j = i
            while j < len(identifier) and classes[j] == "static":
                j += 1
            pieces.append(re.escape(identifier[i:j]))
            static_chars += j - i
            i = j
        else:
            j = i
            while j < len(identifier) and classes[j] != "static":
                j += 1
            pieces.append(".+")
            i = j
    if static_chars < MIN_STATIC_CONTEXT:
        return None
    return "^" + "".join(pieces) + "$"


def analyze_determinism(
    program: Program,
    run: RunResult,
    event: ApiCallEvent,
) -> DeterminismResult:
    """Classify ``event``'s identifier and build its deployable artifact."""
    result, backward = _classify_identifier(program, run, event)
    flight = obs.flight
    if flight.enabled:
        result.flight_id = flight.record(
            "verdict.determinism",
            causes=(
                flight.recall(("api", event.event_id)),
                backward.flight_id if backward is not None else None,
                result.slice.flight_id if result.slice is not None else None,
            ),
            identifier=event.identifier,
            identifier_kind=result.kind.value,
            pattern=result.pattern,
            notes=result.notes,
        )
    return result


def _classify_identifier(
    program: Program,
    run: RunResult,
    event: ApiCallEvent,
) -> Tuple[DeterminismResult, Optional[BackwardResult]]:
    """The verdict, and the backward walk it took (``None`` if none)."""
    classes = byte_classes(event)
    if not classes:
        # Identifier came through the handle map (no in-memory string);
        # treat as static if non-empty — the name-carrying open event is the
        # canonical one and is analyzed separately.
        kind = IdentifierKind.STATIC if event.identifier else IdentifierKind.NON_DETERMINISTIC
        return DeterminismResult(kind=kind, notes="handle-resolved identifier"), None

    has_random = "random" in classes
    has_env = "env" in classes

    if not has_random and not has_env:
        return DeterminismResult(kind=IdentifierKind.STATIC), None

    if has_random:
        pattern = build_pattern(event.identifier, classes)
        if pattern is None:
            return DeterminismResult(
                kind=IdentifierKind.NON_DETERMINISTIC,
                notes="insufficient static context around random bytes",
            ), None
        return DeterminismResult(kind=IdentifierKind.PARTIAL_STATIC, pattern=pattern), None

    # env-deterministic bytes, no random: algorithm-deterministic.  A run
    # without def/use records (Phase I's) is re-recorded up to the event.
    records = run.trace if run.trace.instructions else record_prefix(program, run, event)
    backward = backward_slice(records, event, memory=run.cpu.memory)
    if backward.has_random_sources:
        # Over-approximation in byte classes; the root cause says random.
        pattern = build_pattern(event.identifier, classes)
        if pattern is not None:
            result = DeterminismResult(kind=IdentifierKind.PARTIAL_STATIC, pattern=pattern)
            return result, backward
        return DeterminismResult(kind=IdentifierKind.NON_DETERMINISTIC), backward

    output_addr = event.extra.get("identifier_addr")
    if output_addr is None:
        return DeterminismResult(
            kind=IdentifierKind.NON_DETERMINISTIC, notes="no identifier address recorded"
        ), backward
    slice_ = extract_slice(program, run.trace, backward, output_addr, target_event=event)

    # Sanity: replaying on a clone of the analysis machine must
    # regenerate the very identifier observed.
    try:
        regenerated = replay_slice(slice_, run.environment.clone(), program=program)
    except SliceReplayError as exc:
        return DeterminismResult(
            kind=IdentifierKind.NON_DETERMINISTIC, notes=f"slice replay failed: {exc}"
        ), backward
    if regenerated != event.identifier:
        return DeterminismResult(
            kind=IdentifierKind.NON_DETERMINISTIC,
            notes=f"slice replay mismatch: {regenerated!r}",
        ), backward

    return DeterminismResult(
        kind=IdentifierKind.ALGORITHM_DETERMINISTIC,
        slice=slice_,
        notes=f"inputs: {', '.join(slice_.env_inputs)}",
    ), backward
