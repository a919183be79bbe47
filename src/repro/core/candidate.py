"""Phase I — candidate selection (paper §III).

Profile the sample in a normal environment, taint resource-API results,
propagate, and flag the sample iff some branch predicate consumed
resource-derived data.  Output: the normal-run trace plus the list of
candidate resources (grouped by resource type + normalized identifier) that
can affect the malware's control flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .. import obs
from ..taint.labels import TaintClass
from ..tracing.events import ApiCallEvent
from ..tracing.trace import Trace
from ..vm.program import Program
from ..winenv.environment import SystemEnvironment
from ..winenv.objects import Operation, ResourceType
from .runner import DEFAULT_BUDGET, RunResult, run_sample
from .vaccine import normalize_identifier


@dataclass
class CandidateResource:
    """One resource whose access result reaches malware branch logic."""

    resource_type: ResourceType
    identifier: str
    operations: Set[Operation] = field(default_factory=set)
    apis: Set[str] = field(default_factory=set)
    event_ids: List[int] = field(default_factory=list)
    #: True when a predicate consumed this resource's taint.
    influences_control_flow: bool = False
    #: True when some access to this resource failed in the normal run.
    had_failure: bool = False

    @property
    def key(self) -> Tuple[ResourceType, str]:
        return (self.resource_type, self.identifier)


@dataclass
class CandidateReport:
    """Phase-I output for one sample: the normal run's trace and what was
    read from it.  The machine that produced the trace is not kept."""

    program_name: str
    trace: Trace
    candidates: List[CandidateResource] = field(default_factory=list)
    #: Resource-API occurrences whose taint reached a predicate (paper: 80.3%).
    influential_occurrences: int = 0
    total_occurrences: int = 0

    @property
    def has_vaccine_potential(self) -> bool:
        """The Phase-I filter: no resource-dependent branch → no vaccine."""
        return any(c.influences_control_flow for c in self.candidates)

    def candidate(self, rtype: ResourceType, identifier: str) -> Optional[CandidateResource]:
        norm = normalize_identifier(rtype, identifier)
        for c in self.candidates:
            if c.resource_type is rtype and c.identifier == norm:
                return c
        return None


def run_phase1(
    program: Program,
    environment: Optional[SystemEnvironment] = None,
    max_steps: int = DEFAULT_BUDGET,
    taint_addresses: bool = False,
) -> RunResult:
    """Phase I's profiling run of one sample.

    ``taint_addresses`` enables the pointer-taint policy (see
    :class:`~repro.vm.cpu.CPU`) — catches table-lookup taint laundering at
    the cost of over-tainting.

    The run tracks taint but builds no def/use records: only the tainted
    predicates decide candidates.  Determinism analysis re-records the
    prefix a backward slice needs (:func:`~repro.core.runner.record_prefix`).
    """
    return run_sample(
        program,
        environment=environment,
        max_steps=max_steps,
        taint_addresses=taint_addresses,
        def_use=False,
    )


def select_candidates(
    program: Program,
    environment: Optional[SystemEnvironment] = None,
    max_steps: int = DEFAULT_BUDGET,
    taint_addresses: bool = False,
) -> CandidateReport:
    """Run Phase I on one sample (:func:`run_phase1`, then
    :func:`analyze_trace`)."""
    run = run_phase1(program, environment, max_steps, taint_addresses)
    return analyze_trace(program.name, run.trace)


def analyze_trace(program_name: str, trace: Trace) -> CandidateReport:
    """Candidate extraction from an already-collected normal run's trace."""
    influential_ids = _influential_event_ids(trace)

    grouped: Dict[Tuple[ResourceType, str], CandidateResource] = {}
    influential_occurrences = 0
    total = 0
    for event in trace.resource_events():
        if event.identifier is None:
            continue
        total += 1
        if event.event_id in influential_ids or _origin_influential(event, influential_ids):
            influential_occurrences += 1
        identifier = normalize_identifier(event.resource_type, event.identifier)
        key = (event.resource_type, identifier)
        cand = grouped.get(key)
        if cand is None:
            cand = CandidateResource(resource_type=event.resource_type, identifier=identifier)
            grouped[key] = cand
        if event.operation is not None:
            cand.operations.add(event.operation)
        cand.apis.add(event.api)
        cand.event_ids.append(event.event_id)
        if event.event_id in influential_ids:
            cand.influences_control_flow = True
        if not event.success:
            cand.had_failure = True

    # Handle-based accesses (ReadFile …) influence the resource opened
    # earlier; propagate the influence to the opening identifier.
    for event in trace.resource_events():
        origin = event.extra.get("origin_event")
        if origin is None or event.event_id not in influential_ids:
            continue
        for cand in grouped.values():
            if origin in cand.event_ids:
                cand.influences_control_flow = True

    report = CandidateReport(
        program_name=program_name,
        trace=trace,
        candidates=sorted(
            grouped.values(), key=lambda c: (c.resource_type.value, c.identifier)
        ),
        influential_occurrences=influential_occurrences,
        total_occurrences=total,
    )
    flight = obs.flight
    if flight.enabled:
        for cand in report.candidates:
            causes = []
            for event_id in cand.event_ids[:8]:
                causes.append(flight.recall(("api", event_id)))
                causes.append(flight.recall(("predicate_for", event_id)))
            flight_id = flight.record(
                "candidate",
                causes=tuple(dict.fromkeys(c for c in causes if c is not None)),
                resource=cand.resource_type.value,
                identifier=cand.identifier,
                influences_control_flow=cand.influences_control_flow,
                had_failure=cand.had_failure,
                apis=sorted(cand.apis),
            )
            flight.remember(
                ("candidate", cand.resource_type.value, cand.identifier), flight_id
            )
    return report


def _influential_event_ids(trace: Trace) -> Set[int]:
    """Events whose RESOURCE taint reached any cmp/test predicate."""
    ids: Set[int] = set()
    for predicate in trace.predicates:
        for tag in predicate.tags:
            if tag.klass is TaintClass.RESOURCE:
                ids.add(tag.event_id)
    return ids


def _origin_influential(event: ApiCallEvent, influential_ids: Set[int]) -> bool:
    origin = event.extra.get("origin_event")
    return origin is not None and origin in influential_ids
