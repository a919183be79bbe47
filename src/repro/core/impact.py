"""Phase II, step II — impact analysis (paper §IV-B).

For each candidate resource, re-run the malware with that resource's API
results mutated (one resource at a time, both directions: simulate presence /
enforce failure), align the mutated trace against the natural trace
(Algorithm 1 / LCS), and classify the immunization effect of the difference
set: full immunization, partial Types I–IV, or none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..analysis.alignment import AlignmentResult, align_myers
from ..tracing.events import ApiCallEvent
from ..tracing.trace import Trace
from ..vm.program import Program
from ..winapi import INJECTION_APIS, NETWORK_APIS, TERMINATION_APIS
from ..winapi.dispatcher import Interception
from ..winapi.labels import ApiDef
from ..winenv.environment import SystemEnvironment
from ..winenv.filesystem import STARTUP_FOLDER, SYSTEM_INI
from ..winenv.objects import Operation, ResourceType
from ..winenv.processes import STANDARD_PROCESSES
from ..winenv.registry import is_persistence_key
from .candidate import CandidateResource
from .runner import DEFAULT_BUDGET, resume_sample, run_sample
from .snapshot import SnapshotRecorder, _CapturesTaken, mutation_matches
from .vaccine import Immunization, Mechanism, normalize_identifier


class ResourceMutation:
    """Interceptor mutating every API access to one candidate resource.

    ``SIMULATE_PRESENCE`` makes existence checks succeed and create
    operations report "already exists"; ``ENFORCE_FAILURE`` makes every
    access fail with the API's labelled failure encoding.
    """

    def __init__(self, candidate: CandidateResource, mechanism: Mechanism) -> None:
        self.candidate = candidate
        self.mechanism = mechanism
        self.hits = 0
        #: Flight-recorder id of this mutation's "mutation" event; the
        #: dispatcher cites it as the cause of each "api.intercept" event.
        self.flight_id: Optional[int] = None

    def matches(self, event: ApiCallEvent) -> bool:
        # Shared with SnapshotRecorder: the snapshot is captured at the
        # first event this predicate accepts, so a resumed run's first
        # interception is the same event a full rerun's would be.
        return mutation_matches(self.candidate, event)

    def intercept(self, apidef: ApiDef, event: ApiCallEvent) -> Interception:
        if not self.matches(event):
            return Interception.PASS
        self.hits += 1
        if self.mechanism is Mechanism.ENFORCE_FAILURE:
            return Interception.FORCE_FAIL
        if event.operation is Operation.CREATE:
            return Interception.FORCE_FAIL_EXISTS
        return Interception.FORCE_SUCCESS


@dataclass
class ImpactOutcome:
    """Result of mutating one resource with one mechanism: the verdict.
    The mutated run's trace and its alignment are not kept."""

    candidate: CandidateResource
    mechanism: Mechanism
    immunization: Immunization
    effects: Set[Immunization] = field(default_factory=set)
    mutation_hits: int = 0
    #: Flight-recorder id of the "verdict.impact" event (process-local,
    #: not serialized — provenance ships via the journal itself).
    flight_id: Optional[int] = None

    @property
    def is_effective(self) -> bool:
        return self.immunization is not Immunization.NONE


#: analyze_candidates sentinel: the candidate's resource never matched an
#: API call at intercept time, so a mutated run would be the natural run.
_UNMATCHED = object()


def _candidate_flight_id(candidate: CandidateResource) -> Optional[int]:
    return obs.flight.recall(
        ("candidate", candidate.resource_type.value, candidate.identifier)
    )


class ImpactAnalyzer:
    """Runs mutated executions and classifies the behavioural difference.

    :meth:`analyze_candidates` re-executes the natural run with a
    :class:`~repro.core.snapshot.SnapshotRecorder` attached only as far as
    the last candidate's first interception site, checkpointing the guest at
    each candidate's site on the way, and resumes every mutated run from its
    checkpoint — identical outcomes, a fraction of the re-executed
    instructions.  A candidate no API call matches is classified against
    Phase I's run, which its mutated run would repeat call for call.
    :meth:`analyze` is the full-rerun path: one complete re-execution per
    candidate and mechanism, used per candidate-mechanism when a capture or
    a restore fails.
    """

    def __init__(
        self,
        environment: Optional[SystemEnvironment] = None,
        max_steps: int = DEFAULT_BUDGET,
    ) -> None:
        self.environment = environment
        #: Held per instance, so one analyzer's aligner can be wrapped.
        self.aligner = align_myers
        self.max_steps = max_steps

    def analyze(
        self,
        program: Program,
        candidate: CandidateResource,
        natural: Trace,
        mechanisms: Iterable[Mechanism] = (Mechanism.SIMULATE_PRESENCE, Mechanism.ENFORCE_FAILURE),
    ) -> List[ImpactOutcome]:
        outcomes = []
        for mechanism in mechanisms:
            outcomes.append(self.analyze_mechanism(program, candidate, natural, mechanism))
        return outcomes

    def analyze_mechanism(
        self,
        program: Program,
        candidate: CandidateResource,
        natural: Trace,
        mechanism: Mechanism,
        resume_error: Optional[str] = None,
    ) -> ImpactOutcome:
        """Full-rerun path: one complete re-execution of the sample.
        ``resume_error`` is the exception text of the failed snapshot
        resume this rerun replaces; it is journaled as the ``mutation``
        event's ``error``."""
        mutation = ResourceMutation(candidate, mechanism)
        flight = obs.flight
        if flight.enabled:
            failure = {} if resume_error is None else {"error": resume_error}
            mutation.flight_id = flight.record(
                "mutation",
                causes=(_candidate_flight_id(candidate),),
                resource=candidate.resource_type.value,
                identifier=candidate.identifier,
                mechanism=mechanism.value,
                resumed=False,
                **failure,
            )
        mutated_run = run_sample(
            program,
            environment=self.environment,
            interceptors=[mutation],
            max_steps=self.max_steps,
            record_instructions=False,
        )
        return self._classify(
            candidate,
            mechanism,
            mutated_run.trace,
            natural,
            mutation.hits,
            flight_causes=(mutation.flight_id,),
        )

    def analyze_candidates(
        self,
        program: Program,
        candidates: Sequence[CandidateResource],
        natural: Trace,
        mechanisms: Iterable[Mechanism] = (Mechanism.SIMULATE_PRESENCE, Mechanism.ENFORCE_FAILURE),
    ) -> List[ImpactOutcome]:
        """Analyze every candidate, sharing prefix execution when possible.

        ``natural`` is the trace of Phase I's run of ``program`` (same
        environment and budget as this analyzer's runs): the alignment
        baseline, and the mutated trace of a candidate no call matches.
        Outcome order matches a loop of :meth:`analyze` calls exactly:
        candidate-major, mechanism-minor.
        """
        candidates = list(candidates)
        mechanisms = tuple(mechanisms)
        if not candidates:
            return []

        recorder = SnapshotRecorder(candidates)
        try:
            run_sample(
                program,
                environment=self.environment,
                interceptors=[recorder],
                max_steps=self.max_steps,
                record_instructions=False,
                on_cpu=recorder.bind,
            )
        except _CapturesTaken:
            pass
        finally:
            # The capture run's CPU holds its dispatcher, whose interceptor
            # chain holds the recorder: unbound, the run's machine (cloned
            # environment, memory, trace) is freed by reference counting
            # instead of waiting for the cyclic GC.
            recorder.cpu = None

        outcomes: List[ImpactOutcome] = []
        for candidate in candidates:
            snapshot = recorder.snapshots.get(candidate.key, _UNMATCHED)
            for mechanism in mechanisms:
                if snapshot is None:
                    # Capture failed: full rerun.
                    outcomes.append(
                        self.analyze_mechanism(program, candidate, natural, mechanism)
                    )
                    continue
                if snapshot is _UNMATCHED:
                    # No API call ever matched at intercept time, so the
                    # mutation can never fire: the mutated run *is* the
                    # natural run.  Phase I's run executes the same API
                    # sequence (the tiers agree on every call).
                    outcomes.append(
                        self._classify(
                            candidate,
                            mechanism,
                            natural,
                            natural,
                            0,
                            flight_causes=(_candidate_flight_id(candidate),),
                        )
                    )
                    continue
                mutation = ResourceMutation(candidate, mechanism)
                flight = obs.flight
                resume_id = None
                if flight.enabled:
                    snap_id = flight.recall(("snapshot",) + candidate.key)
                    mutation.flight_id = flight.record(
                        "mutation",
                        causes=(_candidate_flight_id(candidate), snap_id),
                        resource=candidate.resource_type.value,
                        identifier=candidate.identifier,
                        mechanism=mechanism.value,
                        resumed=True,
                    )
                    resume_id = flight.record(
                        "snapshot.resume",
                        causes=(snap_id, mutation.flight_id),
                        identifier=candidate.identifier,
                        mechanism=mechanism.value,
                    )
                try:
                    mutated_run = resume_sample(
                        program,
                        snapshot,
                        interceptors=[mutation],
                        max_steps=self.max_steps,
                    )
                except Exception as exc:
                    # A failing restore degrades this one candidate-mechanism
                    # to the full rerun — the survey never aborts.
                    obs.metrics.add("snapshot.resume_failures")
                    outcomes.append(
                        self.analyze_mechanism(
                            program, candidate, natural, mechanism, resume_error=str(exc)
                        )
                    )
                    continue
                outcomes.append(
                    self._classify(
                        candidate,
                        mechanism,
                        mutated_run.trace,
                        natural,
                        mutation.hits,
                        flight_causes=(mutation.flight_id, resume_id),
                    )
                )
        return outcomes

    def _classify(
        self,
        candidate: CandidateResource,
        mechanism: Mechanism,
        mutated: Trace,
        natural: Trace,
        mutation_hits: int,
        flight_causes: Tuple[Optional[int], ...] = (),
    ) -> ImpactOutcome:
        alignment = self.aligner(mutated.api_calls, natural.api_calls)
        effects = classify_deltas(natural, mutated, alignment)
        outcome = ImpactOutcome(
            candidate=candidate,
            mechanism=mechanism,
            immunization=primary_immunization(effects),
            effects=effects,
            mutation_hits=mutation_hits,
        )
        flight = obs.flight
        if flight.enabled:
            divergence_id = None
            if not alignment.is_identical:
                divergence_id = flight.record(
                    "align.divergence",
                    causes=flight_causes,
                    lost=len(alignment.delta_natural),
                    gained=len(alignment.delta_mutated),
                    first_lost=(
                        alignment.delta_natural[0].api if alignment.delta_natural else None
                    ),
                    first_gained=(
                        alignment.delta_mutated[0].api if alignment.delta_mutated else None
                    ),
                )
            outcome.flight_id = flight.record(
                "verdict.impact",
                causes=tuple(flight_causes) + (divergence_id,),
                resource=candidate.resource_type.value,
                identifier=candidate.identifier,
                mechanism=mechanism.value,
                immunization=outcome.immunization.value,
                effects=sorted(e.value for e in effects),
                hits=mutation_hits,
            )
        return outcome


# ---------------------------------------------------------------------------
# delta classification
# ---------------------------------------------------------------------------

#: Priority order for picking the headline immunization class.
_PRIORITY = (
    Immunization.FULL,
    Immunization.TYPE_I_KERNEL,
    Immunization.TYPE_II_NETWORK,
    Immunization.TYPE_III_PERSISTENCE,
    Immunization.TYPE_IV_INJECTION,
)


def primary_immunization(effects: Set[Immunization]) -> Immunization:
    for effect in _PRIORITY:
        if effect in effects:
            return effect
    return Immunization.NONE


def classify_deltas(
    natural: Trace, mutated: Trace, alignment: AlignmentResult
) -> Set[Immunization]:
    """Classify what the mutation disabled (paper §IV-B definitions)."""
    effects: Set[Immunization] = set()
    delta_n = alignment.delta_natural  # behaviour lost under mutation
    delta_m = alignment.delta_mutated  # behaviour gained under mutation

    if _terminated_early(natural, mutated, delta_m):
        effects.add(Immunization.FULL)

    if _has_kernel_injection(delta_n):
        effects.add(Immunization.TYPE_I_KERNEL)

    natural_net = _network_count(natural.api_calls)
    mutated_net = _network_count(mutated.api_calls)
    if natural_net >= 3 and mutated_net <= natural_net // 3:
        effects.add(Immunization.TYPE_II_NETWORK)

    if _has_persistence(delta_n):
        effects.add(Immunization.TYPE_III_PERSISTENCE)

    if _has_process_injection(delta_n):
        effects.add(Immunization.TYPE_IV_INJECTION)

    return effects


def _terminated_early(natural: Trace, mutated: Trace, delta_m: Sequence[ApiCallEvent]) -> bool:
    """Full immunization: the malware killed itself under mutation."""
    if any(e.api in TERMINATION_APIS for e in delta_m):
        return True
    # Termination that the naive delta misses (same Caller-PC exit stub):
    # the mutated run terminated while losing most of its behaviour.
    if mutated.terminated and not natural.terminated:
        return len(mutated.api_calls) < max(2, len(natural.api_calls) // 2)
    return False


def _has_kernel_injection(events: Sequence[ApiCallEvent]) -> bool:
    for event in events:
        if event.api == "NtLoadDriver":
            return True
        if event.extra.get("kernel_driver"):
            return True
        if (
            event.resource_type is ResourceType.FILE
            and event.operation in (Operation.CREATE, Operation.WRITE)
            and (event.identifier or "").lower().endswith(".sys")
        ):
            return True
    return False


def _network_count(events: Sequence[ApiCallEvent]) -> int:
    return sum(1 for e in events if e.api in NETWORK_APIS)


def _has_persistence(events: Sequence[ApiCallEvent]) -> bool:
    for event in events:
        identifier = (event.identifier or "").lower()
        if event.resource_type is ResourceType.REGISTRY and is_persistence_key(identifier):
            if event.operation in (Operation.WRITE, Operation.CREATE, Operation.DELETE):
                return True
        if event.resource_type is ResourceType.FILE and event.operation in (
            Operation.CREATE,
            Operation.WRITE,
        ):
            if identifier.startswith(STARTUP_FOLDER) or identifier == SYSTEM_INI:
                return True
        if event.api == "CreateServiceA" and not event.extra.get("kernel_driver"):
            return True
        if event.resource_type is ResourceType.REGISTRY and "winlogon" in identifier:
            return True
    return False


def _has_process_injection(events: Sequence[ApiCallEvent]) -> bool:
    standard = set(STANDARD_PROCESSES)
    for event in events:
        if event.api not in INJECTION_APIS:
            continue
        target = str(event.extra.get("target_process") or event.identifier or "").lower()
        if target in standard:
            return True
    return False
