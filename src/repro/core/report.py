"""Human-readable analysis reports (markdown).

Renders a :class:`~repro.core.pipeline.SampleAnalysis` the way an analyst
would publish it: profiling summary, candidate decisions, extracted vaccines
with deployment guidance, timings.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs import render_chain
from ..obs.ledger import LedgerFold
from ..obs.prof import SEP
from ..obs.prof import render_table as _prof_table
from .pipeline import SampleAnalysis, SampleFailure
from .vaccine import DeliveryKind, IdentifierKind


def render_report(analysis: SampleAnalysis, title: Optional[str] = None) -> str:
    program = analysis.program
    lines: List[str] = []
    push = lines.append

    push(f"# {title or f'AUTOVAC analysis: {program.name}'}")
    push("")
    meta = program.metadata
    if meta:
        facts = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()) if k != "markers")
        push(f"*Sample metadata:* {facts}")
        push("")

    if analysis.filtered_reason:
        push(f"**Filtered in Phase I** — {analysis.filtered_reason}.")
        push("")
        return "\n".join(lines)

    phase1 = analysis.phase1
    push("## Phase I — profiling")
    push("")
    push(f"* exit: `{phase1.trace.exit_status}` after {phase1.trace.steps} steps")
    push(f"* resource-API occurrences: {phase1.total_occurrences} "
         f"({phase1.influential_occurrences} influence control flow)")
    push(f"* tainted predicates: {len(phase1.trace.predicates)}")
    push(f"* candidate resources: {len(phase1.candidates)}")
    push("")

    if analysis.exclusiveness:
        push("## Phase II — exclusiveness decisions")
        push("")
        push("| resource | identifier | exclusive | reason |")
        push("|---|---|---|---|")
        for decision in analysis.exclusiveness:
            c = decision.candidate
            mark = "yes" if decision.exclusive else "no"
            push(f"| {c.resource_type.value} | `{c.identifier}` | {mark} | {decision.reason} |")
        push("")

    push("## Vaccines")
    push("")
    if not analysis.vaccines:
        push("_No deployable vaccines: every candidate failed impact or "
             "determinism analysis._")
        push("")
    for i, vaccine in enumerate(analysis.vaccines, 1):
        push(f"### {i}. {vaccine.resource_type.value} `{vaccine.identifier}`")
        push("")
        push(f"* immunization: **{vaccine.immunization.value}**")
        push(f"* identifier kind: {vaccine.identifier_kind.value}")
        push(f"* mechanism: {vaccine.mechanism.value}")
        push(f"* delivery: {vaccine.delivery.value}")
        if vaccine.operations:
            push(f"* operations observed: {', '.join(sorted(o.value for o in vaccine.operations))}")
        if vaccine.pattern:
            push(f"* daemon match pattern: `{vaccine.pattern}`")
        if vaccine.slice is not None:
            push(f"* generation slice: {len(vaccine.slice)} steps, "
                 f"inputs {', '.join(vaccine.slice.env_inputs) or 'none'}, "
                 f"re-execution={'yes' if vaccine.slice.requires_reexecution else 'no'}")
        if vaccine.bdr is not None:
            push(f"* measured BDR: {vaccine.bdr:.0%}")
        push(f"* deployment: {_deployment_hint(vaccine)}")
        if vaccine.notes:
            push(f"* notes: {vaccine.notes}")
        push("")
        evidence = _evidence(analysis, vaccine)
        if evidence:
            push("#### Evidence")
            push("")
            push("```")
            push(evidence)
            push("```")
            push("")

    if analysis.policy is not None:
        policy = analysis.policy
        push("## Temporal API policy")
        push("")
        push(
            f"* boundary: first interception at `{policy.boundary_api}` "
            f"(trace seq {policy.boundary_seq})"
        )
        push(
            f"* init phase: {policy.init_identifiers} identifier(s) allowed; "
            f"steady state: {policy.steady_identifiers} observed"
        )
        if policy.certified is None:
            push("* clinic certification: not run")
        else:
            push(
                "* clinic certification: "
                + ("**clean**" if policy.certified else "**failed**")
            )
        push("")
        if policy.deny:
            push("| deny | identifier | operations | via |")
            push("|---|---|---|---|")
            for rule in policy.deny:
                ops = ", ".join(sorted(o.value for o in rule.operations)) or "any"
                apis = ", ".join(rule.apis)
                push(
                    f"| {rule.resource_type.value} | `{rule.identifier}` "
                    f"| {ops} | {apis} |"
                )
            push("")
        else:
            push("_No enforceable deny rules survived subtraction._")
            push("")
        for sub in policy.subtracted:
            push(
                f"* subtracted {sub.resource_type.value} `{sub.identifier}` "
                f"— {sub.reason}"
            )
        if policy.subtracted:
            push("")
        evidence = _policy_evidence(analysis)
        if evidence:
            push("#### Evidence")
            push("")
            push("```")
            push(evidence)
            push("```")
            push("")

    if analysis.clinic is not None:
        push("## Clinic test")
        push("")
        push(f"* benign programs: {analysis.clinic.programs_tested}")
        push(f"* incidents: {len(analysis.clinic.incidents)}")
        push(f"* vaccines passed: {len(analysis.clinic.passed)}")
        push("")

    if analysis.timings:
        push("## Timings")
        push("")
        for phase, seconds in analysis.timings.items():
            push(f"* {phase}: {seconds * 1000:.1f} ms")
        push("")

    # Hot-path cells sit below the stage cells; only a profiled run has them.
    if any(path.count(SEP) > 1 for path in analysis.profile):
        push("## Hot paths")
        push("")
        push("```")
        push(_prof_table(analysis.profile, top=12).rstrip("\n"))
        push("```")
        push("")

    return "\n".join(lines)


def render_failure_summary(failures: List[SampleFailure]) -> str:
    """Markdown summary of the samples a population survey quarantined
    (``PopulationResult.failures``) — what failed, how, and how hard the
    executor tried."""
    lines: List[str] = ["# Survey failures", ""]
    push = lines.append
    if not failures:
        push("_No failures: every sample analyzed successfully._")
        return "\n".join(lines)
    kinds: dict = {}
    for failure in failures:
        kinds[failure.kind] = kinds.get(failure.kind, 0) + 1
    breakdown = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
    push(f"{len(failures)} sample(s) quarantined ({breakdown}).")
    push("")
    push("| sample | kind | error | attempts | message |")
    push("|---|---|---|---|---|")
    for failure in failures:
        message = failure.message.replace("|", "\\|").replace("\n", " ")
        push(
            f"| `{failure.sample}` | {failure.kind} | {failure.error_type} "
            f"| {failure.attempts} | {message} |"
        )
    push("")
    return "\n".join(lines)


def render_run_summary(fold: LedgerFold) -> str:
    """Markdown summary of one run directory (``repro runs`` pointed at a
    single run): identity, status, and outcome counts, from the fold of
    its ledger's last run."""
    import time as _time

    lines: List[str] = [f"# Run {fold.run_id or '(unknown)'}", ""]
    push = lines.append
    push(f"* status: **{fold.status}**")
    push(f"* population: {fold.population} samples")
    if fold.config_fingerprint:
        push(f"* config fingerprint: `{fold.config_fingerprint[:16]}`")
    push(
        "* started: "
        + _time.strftime("%Y-%m-%d %H:%M:%S", _time.localtime(fold.started_unix))
    )
    if fold.duration_seconds is not None:
        push(f"* duration: {fold.duration_seconds:.1f}s")
    push("")
    push("| outcome | count |")
    push("|---|---|")
    for key, count in (
        ("cache_hits", fold.cache_hits),
        ("completed", fold.completed),
        ("events", fold.events_seen),
        ("failed", fold.failed),
        ("retries", fold.retries),
        ("timeouts", fold.timeouts),
    ):
        push(f"| {key} | {count} |")
    push("")
    return "\n".join(lines)


def _evidence(analysis: SampleAnalysis, vaccine) -> Optional[str]:
    """Causal chain (flight-recorder journal) behind one vaccine, or None
    when no journal was recorded or no matching event exists."""
    journal = analysis.journal
    if journal is None:
        return None
    events = journal.find(
        "vaccine",
        resource=vaccine.resource_type.value,
        identifier=vaccine.identifier,
        mechanism=vaccine.mechanism.value,
    )
    if not events:
        return None
    return render_chain(journal, events[0].event_id, max_depth=8, max_lines=40)


def _policy_evidence(analysis: SampleAnalysis) -> Optional[str]:
    """Causal chain behind the synthesized policy, mirroring vaccine
    evidence blocks."""
    journal = analysis.journal
    if journal is None:
        return None
    events = journal.find("policy.synthesized")
    if not events:
        return None
    return render_chain(journal, events[0].event_id, max_depth=8, max_lines=40)


def _deployment_hint(vaccine) -> str:
    if vaccine.delivery is DeliveryKind.DIRECT_INJECTION:
        from .vaccine import Mechanism

        if vaccine.mechanism is Mechanism.SIMULATE_PRESENCE:
            return ("create the marker once, owned by a super user, "
                    "read-only for everyone else")
        return "plant a locked decoy (or remove the resource) once"
    if vaccine.identifier_kind is IdentifierKind.ALGORITHM_DETERMINISTIC:
        return ("daemon replays the generation slice per host and injects "
                "the computed marker; re-run when machine identity changes")
    return "daemon intercepts matching resource accesses at runtime"
