"""Trace and analysis-result serialization.

The paper performs differential and backward analysis "offline on logged
traces"; this module provides the log format — JSON with enough fidelity to
re-run alignment and statistics (instruction-level def/use records are
intentionally omitted: they are bulky and only consumed in-process).

It also provides the **analysis codec**: a versioned JSON encoding of a
whole :class:`~repro.core.pipeline.SampleAnalysis` (candidates, impacts,
determinism, vaccines, the per-sample timing tree).  This is what crosses the
process boundary in the parallel executor and what the content-addressed
result cache stores on disk.  A ``SampleAnalysis`` holds no live VM state,
so the codec ships every field it has except ``program`` (a decoded one
is a name-and-metadata stub) and the process-local ``flight_id`` ints: an
in-process result and its round trip hold the same data.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Dict, List, Optional

from ..obs import Journal
from ..taint.labels import TaintClass, TaintTag
from ..winenv.objects import Operation, ResourceType
from .events import ApiCallEvent, TaintedPredicateEvent
from .trace import Trace

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.candidate import CandidateReport, CandidateResource
    from ..core.clinic import ClinicReport
    from ..core.determinism import DeterminismResult
    from ..core.exclusiveness import ExclusivenessDecision
    from ..core.impact import ImpactOutcome
    from ..core.pipeline import SampleAnalysis, SampleFailure

FORMAT_VERSION = 1

#: Version of the :func:`analysis_to_dict` payload.  Bump on any change to
#: the encoded shape; the result cache keys on it, so stale cache entries
#: from an older layout can never be decoded by mistake.
#: v2 added the optional flight-recorder ``journal``; v3 the optional
#: temporal API ``policy``; v4 the optional hot-path ``profile``.  Only the
#: current version decodes.
ANALYSIS_FORMAT_VERSION = 4


def _tagset_to_list(tags) -> List[dict]:
    return [
        {"event_id": t.event_id, "api": t.api, "klass": t.klass.value}
        for t in sorted(tags, key=lambda t: (t.event_id, t.api))
    ]


def _tagset_from_list(data) -> frozenset:
    return frozenset(
        TaintTag(event_id=d["event_id"], api=d["api"], klass=TaintClass(d["klass"]))
        for d in data
    )


def event_to_dict(event: ApiCallEvent) -> dict:
    return {
        "event_id": event.event_id,
        "seq": event.seq,
        "api": event.api,
        "caller_pc": event.caller_pc,
        "args": list(event.args),
        "callstack": list(event.callstack),
        "identifier": event.identifier,
        "identifier_taints": (
            [_tagset_to_list(t) for t in event.identifier_taints]
            if event.identifier_taints is not None
            else None
        ),
        "resource_type": event.resource_type.value if event.resource_type else None,
        "operation": event.operation.value if event.operation else None,
        "retval": event.retval,
        "success": event.success,
        "error": event.error,
        "mutated": event.mutated,
        "extra": {k: v for k, v in event.extra.items() if _jsonable(v)},
    }


def event_from_dict(data: dict) -> ApiCallEvent:
    return ApiCallEvent(
        event_id=data["event_id"],
        seq=data["seq"],
        api=data["api"],
        caller_pc=data["caller_pc"],
        args=tuple(data.get("args", ())),
        callstack=tuple(data.get("callstack", ())),
        identifier=data.get("identifier"),
        identifier_taints=(
            [_tagset_from_list(t) for t in data["identifier_taints"]]
            if data.get("identifier_taints") is not None
            else None
        ),
        resource_type=(
            ResourceType(data["resource_type"]) if data.get("resource_type") else None
        ),
        operation=Operation(data["operation"]) if data.get("operation") else None,
        retval=data.get("retval", 0),
        success=data.get("success", True),
        error=data.get("error", 0),
        mutated=data.get("mutated", False),
        extra=dict(data.get("extra", {})),
    )


def predicate_to_dict(pred: TaintedPredicateEvent) -> dict:
    return {
        "seq": pred.seq,
        "pc": pred.pc,
        "instr_text": pred.instr_text,
        "tags": _tagset_to_list(pred.tags),
        "lhs": pred.lhs,
        "rhs": pred.rhs,
    }


def predicate_from_dict(data: dict) -> TaintedPredicateEvent:
    return TaintedPredicateEvent(
        seq=data["seq"],
        pc=data["pc"],
        instr_text=data["instr_text"],
        tags=_tagset_from_list(data.get("tags", [])),
        lhs=data.get("lhs", 0),
        rhs=data.get("rhs", 0),
    )


def trace_to_dict(trace: Trace) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "program_name": trace.program_name,
        "exit_status": trace.exit_status,
        "exit_code": trace.exit_code,
        "steps": trace.steps,
        "api_calls": [event_to_dict(e) for e in trace.api_calls],
        "predicates": [predicate_to_dict(p) for p in trace.predicates],
    }


def trace_from_dict(data: dict) -> Trace:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {version!r}")
    trace = Trace(program_name=data.get("program_name", ""))
    trace.exit_status = data.get("exit_status", "unknown")
    trace.exit_code = data.get("exit_code")
    trace.steps = data.get("steps", 0)
    trace.api_calls = [event_from_dict(e) for e in data.get("api_calls", [])]
    trace.predicates = [predicate_from_dict(p) for p in data.get("predicates", [])]
    return trace


def trace_to_json(trace: Trace, indent: Optional[int] = None) -> str:
    return json.dumps(trace_to_dict(trace), indent=indent)


def trace_from_json(text: str) -> Trace:
    return trace_from_dict(json.loads(text))


def _jsonable(value) -> bool:
    return isinstance(value, (str, int, float, bool, type(None)))


# ---------------------------------------------------------------------------
# Analysis codec (SampleAnalysis and its payload)
#
# Core types are imported inside the functions: ``repro.core`` imports
# ``repro.tracing`` at module load, so top-level imports here would cycle.
# ---------------------------------------------------------------------------


def candidate_to_dict(candidate: "CandidateResource") -> dict:
    return {
        "resource_type": candidate.resource_type.value,
        "identifier": candidate.identifier,
        "operations": sorted(op.value for op in candidate.operations),
        "apis": sorted(candidate.apis),
        "event_ids": list(candidate.event_ids),
        "influences_control_flow": candidate.influences_control_flow,
        "had_failure": candidate.had_failure,
    }


def candidate_from_dict(data: dict) -> "CandidateResource":
    from ..core.candidate import CandidateResource

    return CandidateResource(
        resource_type=ResourceType(data["resource_type"]),
        identifier=data["identifier"],
        operations={Operation(op) for op in data.get("operations", [])},
        apis=set(data.get("apis", [])),
        event_ids=list(data.get("event_ids", [])),
        influences_control_flow=data.get("influences_control_flow", False),
        had_failure=data.get("had_failure", False),
    )


def report_to_dict(report: "CandidateReport") -> dict:
    return {
        "program_name": report.program_name,
        "trace": trace_to_dict(report.trace),
        "candidates": [candidate_to_dict(c) for c in report.candidates],
        "influential_occurrences": report.influential_occurrences,
        "total_occurrences": report.total_occurrences,
    }


def report_from_dict(data: dict) -> "CandidateReport":
    from ..core.candidate import CandidateReport

    return CandidateReport(
        program_name=data["program_name"],
        trace=trace_from_dict(data["trace"]),
        candidates=[candidate_from_dict(c) for c in data.get("candidates", [])],
        influential_occurrences=data.get("influential_occurrences", 0),
        total_occurrences=data.get("total_occurrences", 0),
    )


def decision_to_dict(decision: "ExclusivenessDecision") -> dict:
    return {
        "candidate": candidate_to_dict(decision.candidate),
        "exclusive": decision.exclusive,
        "reason": decision.reason,
        "hits": decision.hits,
    }


def decision_from_dict(data: dict) -> "ExclusivenessDecision":
    from ..core.exclusiveness import ExclusivenessDecision

    return ExclusivenessDecision(
        candidate=candidate_from_dict(data["candidate"]),
        exclusive=data["exclusive"],
        reason=data.get("reason", ""),
        hits=data.get("hits", 0),
    )


def impact_to_dict(outcome: "ImpactOutcome") -> dict:
    return {
        "candidate": candidate_to_dict(outcome.candidate),
        "mechanism": outcome.mechanism.value,
        "immunization": outcome.immunization.value,
        "effects": sorted(e.value for e in outcome.effects),
        "mutation_hits": outcome.mutation_hits,
    }


def impact_from_dict(data: dict) -> "ImpactOutcome":
    from ..core.impact import ImpactOutcome
    from ..core.vaccine import Immunization, Mechanism

    return ImpactOutcome(
        candidate=candidate_from_dict(data["candidate"]),
        mechanism=Mechanism(data["mechanism"]),
        immunization=Immunization(data["immunization"]),
        effects={Immunization(e) for e in data.get("effects", [])},
        mutation_hits=data.get("mutation_hits", 0),
    )


def determinism_to_dict(result: "DeterminismResult") -> dict:
    return {
        "kind": result.kind.value,
        "pattern": result.pattern,
        "slice": result.slice.to_dict() if result.slice else None,
        "notes": result.notes,
    }


def determinism_from_dict(data: dict) -> "DeterminismResult":
    from ..core.determinism import DeterminismResult
    from ..core.vaccine import IdentifierKind
    from ..taint.slicing import VaccineSlice

    return DeterminismResult(
        kind=IdentifierKind(data["kind"]),
        pattern=data.get("pattern"),
        slice=VaccineSlice.from_dict(data["slice"]) if data.get("slice") else None,
        notes=data.get("notes", ""),
    )


def clinic_to_dict(report: "ClinicReport") -> dict:
    return {
        "programs_tested": report.programs_tested,
        "incidents": [
            {
                "program": inc.program,
                "api": inc.api,
                "identifier": inc.identifier,
                "detail": inc.detail,
                "implicated": [v.to_dict() for v in inc.implicated],
            }
            for inc in report.incidents
        ],
        "passed": [v.to_dict() for v in report.passed],
        "rejected": [v.to_dict() for v in report.rejected],
    }


def clinic_from_dict(data: dict) -> "ClinicReport":
    from ..core.clinic import ClinicIncident, ClinicReport
    from ..core.vaccine import Vaccine

    return ClinicReport(
        programs_tested=data.get("programs_tested", 0),
        incidents=[
            ClinicIncident(
                program=inc["program"],
                api=inc["api"],
                identifier=inc.get("identifier"),
                detail=inc.get("detail", ""),
                implicated=[Vaccine.from_dict(v) for v in inc.get("implicated", [])],
            )
            for inc in data.get("incidents", [])
        ],
        passed=[Vaccine.from_dict(v) for v in data.get("passed", [])],
        rejected=[Vaccine.from_dict(v) for v in data.get("rejected", [])],
    )


def analysis_to_dict(analysis: "SampleAnalysis") -> dict:
    """Encode a full per-sample analysis as a JSON-safe (and pickle-cheap)
    dict.  The decoded twin carries a summary :class:`Program` stub (name +
    metadata, no instructions) — enough for every population-level helper."""
    return {
        "format_version": ANALYSIS_FORMAT_VERSION,
        "program": {
            "name": analysis.program.name,
            "metadata": {
                k: v for k, v in analysis.program.metadata.items() if _jsonable(v)
            },
        },
        "phase1": report_to_dict(analysis.phase1) if analysis.phase1 else None,
        "exclusiveness": [decision_to_dict(d) for d in analysis.exclusiveness],
        "impacts": [impact_to_dict(o) for o in analysis.impacts],
        "determinism": {
            key: determinism_to_dict(det) for key, det in analysis.determinism.items()
        },
        "vaccines": [v.to_dict() for v in analysis.vaccines],
        "clinic": clinic_to_dict(analysis.clinic) if analysis.clinic else None,
        "policy": analysis.policy.to_dict() if analysis.policy is not None else None,
        "filtered_reason": analysis.filtered_reason,
        "journal": analysis.journal.to_dict() if analysis.journal is not None else None,
        "profile": analysis.profile,
    }


def analysis_fingerprint(analysis: "SampleAnalysis") -> str:
    """sha256 of the analysis result: the :func:`analysis_to_dict` payload
    without ``journal`` and ``profile`` (wall-clock timings and
    records of *how* the run executed), as ``sort_keys`` JSON.  Two runs
    that reached the same candidates, impacts, determinism verdicts and
    vaccines share a fingerprint."""
    payload = analysis_to_dict(analysis)
    for key in ("journal", "profile"):
        del payload[key]
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def analysis_from_dict(data: dict) -> "SampleAnalysis":
    from ..core.pipeline import SampleAnalysis
    from ..core.policy import TemporalApiPolicy
    from ..core.vaccine import Vaccine
    from ..vm.program import Program

    version = data.get("format_version")
    if version != ANALYSIS_FORMAT_VERSION:
        raise ValueError(
            f"unsupported analysis format version {version!r} "
            f"(supported: {ANALYSIS_FORMAT_VERSION})"
        )
    program = data.get("program", {})
    journal = data.get("journal")
    policy = data.get("policy")
    return SampleAnalysis(
        program=Program(
            name=program.get("name", ""),
            instructions=[],
            labels={},
            metadata=dict(program.get("metadata", {})),
        ),
        phase1=report_from_dict(data["phase1"]) if data.get("phase1") else None,
        exclusiveness=[decision_from_dict(d) for d in data.get("exclusiveness", [])],
        impacts=[impact_from_dict(o) for o in data.get("impacts", [])],
        determinism={
            key: determinism_from_dict(det)
            for key, det in data.get("determinism", {}).items()
        },
        vaccines=[Vaccine.from_dict(v) for v in data.get("vaccines", [])],
        clinic=clinic_from_dict(data["clinic"]) if data.get("clinic") else None,
        policy=TemporalApiPolicy.from_dict(policy) if policy is not None else None,
        filtered_reason=data.get("filtered_reason"),
        journal=Journal.from_dict(journal) if journal is not None else None,
        profile=data.get("profile") or {},
    )


def analysis_to_json(analysis: "SampleAnalysis", indent: Optional[int] = None) -> str:
    return json.dumps(analysis_to_dict(analysis), indent=indent)


def analysis_from_json(text: str) -> "SampleAnalysis":
    return analysis_from_dict(json.loads(text))


def failure_to_entry(failure: "SampleFailure") -> dict:
    """Encode a quarantined sample as a *negative* cache entry — stored at
    the same content-addressed key its healthy analysis would use, so a
    restarted survey reports the failure instead of re-crashing on the
    sample.  Versioned like the analysis payload: a codec bump (which also
    changes every cache key) orphans stale negatives along with stale
    analyses."""
    return {
        "negative": True,
        "format_version": ANALYSIS_FORMAT_VERSION,
        "failure": failure.to_dict(),
    }


def failure_from_entry(data: dict) -> Optional["SampleFailure"]:
    """Decode a negative cache entry; ``None`` when ``data`` is not one."""
    if not (isinstance(data, dict) and data.get("negative")):
        return None
    from ..core.pipeline import SampleFailure

    return SampleFailure.from_dict(data.get("failure", {}))
