"""Enforced execution — exploring resource-sensitive dormant paths.

The paper (§VIII): "prior research has explored the enforced execution and
reverting to trigger malware's dormant functions … Our enforced execution
applies similar techniques introduced in the forced execution [31] but we
focus on these environment/system resource sensitive branches."

One profiling run only sees one side of each resource check: a sample that
probes ``mutexA`` *and then, only if infected,* checks ``fileB`` never reveals
``fileB`` on a clean machine.  :func:`explore_resource_paths` takes Phase I's
report of that run and re-runs the sample with individual resource-API
call-site outcomes flipped (success↔failure), discovering candidate
resources on the dormant sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.candidate import CandidateReport, CandidateResource, analyze_trace
from ..core.runner import DEFAULT_BUDGET, run_sample
from ..tracing.events import ApiCallEvent
from ..vm.program import Program
from ..winapi.dispatcher import Interception
from ..winapi.labels import ApiDef
from ..winenv.environment import SystemEnvironment


class _FlipOutcome:
    """Interceptor flipping one call site's natural outcome."""

    def __init__(self, api: str, caller_pc: int, to_success: bool) -> None:
        self.api = api
        self.caller_pc = caller_pc
        self.to_success = to_success
        self.fired = 0

    def intercept(self, apidef: ApiDef, event: ApiCallEvent) -> Interception:
        if event.api != self.api or event.caller_pc != self.caller_pc:
            return Interception.PASS
        self.fired += 1
        return Interception.FORCE_SUCCESS if self.to_success else Interception.FORCE_FAIL


@dataclass
class ExplorationResult:
    """Phase-I output enriched by dormant-path discovery."""

    base: CandidateReport
    #: Candidates only visible on flipped paths, keyed like base candidates.
    discovered: List[CandidateResource] = field(default_factory=list)
    #: Runs whose traces the result covers: Phase I's plus one per flip.
    runs: int = 1
    flipped_sites: List[Tuple[str, int, bool]] = field(default_factory=list)

    @property
    def all_candidates(self) -> List[CandidateResource]:
        return list(self.base.candidates) + list(self.discovered)


def explore_resource_paths(
    program: Program,
    base: CandidateReport,
    environment: Optional[SystemEnvironment] = None,
    max_steps: int = DEFAULT_BUDGET,
    max_flips: int = 16,
) -> ExplorationResult:
    """Flip each resource-sensitive call site of Phase I's run once.

    ``base`` is Phase I's report for ``program`` on ``environment``
    (:func:`~repro.core.candidate.select_candidates`).  Only sites whose
    result reached a predicate (they can steer execution) are flipped, and
    each flip inverts the site's natural outcome — the cheap, targeted
    subset of full multi-path exploration.
    """
    result = ExplorationResult(base=base)

    known: Set[Tuple] = {c.key for c in base.candidates}
    discovered: Dict[Tuple, CandidateResource] = {}

    sites = _flippable_sites(base)[:max_flips]
    for api, caller_pc, natural_success in sites:
        flip = _FlipOutcome(api, caller_pc, to_success=not natural_success)
        run = run_sample(
            program,
            environment=environment,
            interceptors=[flip],
            max_steps=max_steps,
            def_use=False,
        )
        result.runs += 1
        result.flipped_sites.append((api, caller_pc, not natural_success))
        report = analyze_trace(program.name, run.trace)
        for candidate in report.candidates:
            if candidate.key in known or candidate.key in discovered:
                existing = discovered.get(candidate.key)
                if existing is not None:
                    existing.operations |= candidate.operations
                    existing.apis |= candidate.apis
                continue
            if candidate.influences_control_flow or candidate.had_failure:
                discovered[candidate.key] = candidate

    result.discovered = sorted(
        discovered.values(), key=lambda c: (c.resource_type.value, c.identifier)
    )
    return result


def _flippable_sites(report: CandidateReport) -> List[Tuple[str, int, bool]]:
    """(api, caller_pc, natural_success) for influential resource call sites."""
    influential_ids = set()
    for candidate in report.candidates:
        if candidate.influences_control_flow:
            influential_ids.update(candidate.event_ids)
    sites: Dict[Tuple[str, int], bool] = {}
    for event in report.trace.resource_events():
        if event.event_id not in influential_ids:
            continue
        key = (event.api, event.caller_pc)
        sites.setdefault(key, event.success)
    return [(api, pc, success) for (api, pc), success in sites.items()]
