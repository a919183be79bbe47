"""The end-to-end AUTOVAC pipeline (paper Figure 1).

``AutoVac.analyze(program)`` runs:

1. **Phase I** candidate selection (profiling + taint),
2. **Phase II** exclusiveness → impact (both mutation mechanisms) →
   determinism (backward slicing) → optional clinic test,
3. emits :class:`~repro.core.vaccine.Vaccine` objects ready for Phase III
   delivery.

``AutoVac.analyze_population`` maps the pipeline over a corpus and aggregates
the statistics the paper reports (Tables IV/V, Figure 3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..obs import Journal
from ..search.engine import SearchEngine
from ..vm import superblock as vm_superblock
from ..vm.program import Program
from ..winenv.environment import SystemEnvironment
from .candidate import CandidateReport, CandidateResource
from .clinic import ClinicReport
from .determinism import DeterminismResult, analyze_determinism
from .exclusiveness import ExclusivenessAnalyzer, ExclusivenessDecision
from .impact import ImpactAnalyzer, ImpactOutcome
from .policy import TemporalApiPolicy
from .runner import DEFAULT_BUDGET
from .stages import ANALYZE_PATH, AnalysisContext, Stage, default_stages, run_stages
from .vaccine import IdentifierKind, Vaccine

#: Every Phase I/II stage, in pipeline order.  ``analyze`` records one
#: ``pipeline.analyze;<stage>`` profile cell per executed stage per sample;
#: ``exploration`` only runs when enforced execution is on.
STAGES = (
    "phase1",
    "exploration",
    "exclusiveness",
    "impact",
    "determinism",
    "policy",
    "clinic",
)


@dataclass
class SampleAnalysis:
    """Everything the pipeline produced for one sample."""

    program: Program
    phase1: Optional[CandidateReport] = None
    exclusiveness: List[ExclusivenessDecision] = field(default_factory=list)
    impacts: List[ImpactOutcome] = field(default_factory=list)
    determinism: Dict[str, DeterminismResult] = field(default_factory=dict)
    vaccines: List[Vaccine] = field(default_factory=list)
    clinic: Optional[ClinicReport] = None
    #: Temporal API policy (second deliverable); ``None`` when no effective
    #: impact gave the synthesizer a boundary.
    policy: Optional[TemporalApiPolicy] = None
    filtered_reason: Optional[str] = None
    #: Flight-recorder journal for this sample (None when the recorder is
    #: disabled): the provenance DAG ``repro explain`` walks.
    journal: Optional[Journal] = None
    #: This sample's timing tree (``{path: [count, seconds]}``): the
    #: ``pipeline.analyze`` and stage cells always, hot-path cells under
    #: them when ``obs.prof`` is enabled — merged across workers by the
    #: executor and rendered by ``repro profile`` / the report.
    profile: Dict[str, List] = field(default_factory=dict)

    @property
    def has_vaccines(self) -> bool:
        return bool(self.vaccines)

    @property
    def timings(self) -> Dict[str, float]:
        """Per-stage wall seconds in pipeline order: the seconds of each
        ``pipeline.analyze;<stage>`` profile cell.  Only stages that
        executed appear."""
        timings: Dict[str, float] = {}
        for stage in STAGES:
            cell = self.profile.get(f"{ANALYZE_PATH};{stage}")
            if cell is not None:
                timings[stage] = cell[1]
        return timings


@dataclass
class SampleFailure:
    """A sample the executor gave up on (quarantined after its retry
    budget): what failed, how, and how many attempts it consumed.

    Kinds: ``crash`` (the analysis raised), ``timeout`` (a per-sample
    wall-clock deadline fired, or an injected hang surfaced), ``pool``
    (the worker process died hard — OOM-kill analogue).
    """

    sample: str
    index: int
    kind: str
    error_type: str
    message: str = ""
    traceback: str = ""
    attempts: int = 1

    def to_dict(self) -> dict:
        return {
            "sample": self.sample,
            "index": self.index,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }

    @staticmethod
    def from_dict(data: dict) -> "SampleFailure":
        return SampleFailure(
            sample=str(data.get("sample", "")),
            index=int(data.get("index", -1)),
            kind=str(data.get("kind", "crash")),
            error_type=str(data.get("error_type", "")),
            message=str(data.get("message", "")),
            traceback=str(data.get("traceback", "")),
            attempts=int(data.get("attempts", 1)),
        )

    def describe(self) -> str:
        return (
            f"{self.sample}: {self.kind} ({self.error_type}"
            f"{': ' + self.message if self.message else ''}) "
            f"after {self.attempts} attempt(s)"
        )


@dataclass
class PopulationResult:
    """Aggregate over a corpus run.

    ``analyses`` holds the healthy samples in input order; ``failures``
    holds the quarantined ones (also input order).  Every stat helper runs
    over the healthy set only, so a survey with failures reports the same
    numbers a fault-free survey of the surviving samples would.
    ``retries`` and ``respawns`` count the executor's extra attempts and
    worker-pool restarts.
    """

    analyses: List[SampleAnalysis] = field(default_factory=list)
    failures: List[SampleFailure] = field(default_factory=list)
    retries: int = 0
    respawns: int = 0

    def succeeded(self) -> List[SampleAnalysis]:
        """The healthy analyses, in input order."""
        return list(self.analyses)

    def failed(self) -> List[SampleFailure]:
        """The quarantined samples, in input order."""
        return list(self.failures)

    @property
    def vaccines(self) -> List[Vaccine]:
        return [v for a in self.analyses for v in a.vaccines]

    @property
    def samples_with_vaccines(self) -> int:
        return sum(1 for a in self.analyses if a.has_vaccines)

    @property
    def policies(self) -> List[TemporalApiPolicy]:
        return [a.policy for a in self.analyses if a.policy is not None]

    def count_by_resource_and_immunization(self) -> Dict[str, Dict[str, int]]:
        """Paper Table IV: rows = resource type, columns = Full/Type I-IV."""
        table: Dict[str, Dict[str, int]] = {}
        for vaccine in self.vaccines:
            row = table.setdefault(vaccine.resource_type.value, {})
            col = vaccine.immunization.value
            row[col] = row.get(col, 0) + 1
        return table

    def count_by_identifier_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for vaccine in self.vaccines:
            counts[vaccine.identifier_kind.value] = (
                counts.get(vaccine.identifier_kind.value, 0) + 1
            )
        return counts

    def count_by_delivery(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for vaccine in self.vaccines:
            counts[vaccine.delivery.value] = counts.get(vaccine.delivery.value, 0) + 1
        return counts

    def resource_operation_stats(self) -> Dict[str, Dict[str, int]]:
        """Figure 3: resource-type x operation access counts over the
        whole population's profiling runs."""
        stats: Dict[str, Dict[str, int]] = {}
        for analysis in self.analyses:
            if analysis.phase1 is None:
                continue
            for rtype, per_op in analysis.phase1.trace.count_by_resource_operation().items():
                row = stats.setdefault(rtype.value, {})
                for op, count in per_op.items():
                    row[op.value] = row.get(op.value, 0) + count
        return stats

    def occurrence_stats(self) -> Dict[str, int]:
        """Phase-I §VI-B numbers: total resource-API occurrences and how
        many influenced control flow (paper: 460,323 / 80.3%)."""
        total = sum(a.phase1.total_occurrences for a in self.analyses if a.phase1)
        influential = sum(
            a.phase1.influential_occurrences for a in self.analyses if a.phase1
        )
        return {"total": total, "influential": influential}

    def count_by_category_and_resource(self) -> Dict[str, Dict[str, int]]:
        """Table V upper half: vaccine resource mix per malware category."""
        table: Dict[str, Dict[str, int]] = {}
        for analysis in self.analyses:
            category = str(analysis.program.metadata.get("category", "unknown"))
            for vaccine in analysis.vaccines:
                row = table.setdefault(category, {})
                key = vaccine.resource_type.value
                row[key] = row.get(key, 0) + 1
        return table

    def count_by_category_and_delivery(self) -> Dict[str, Dict[str, int]]:
        """Table V lower half: delivery mix per malware category."""
        table: Dict[str, Dict[str, int]] = {}
        for analysis in self.analyses:
            category = str(analysis.program.metadata.get("category", "unknown"))
            for vaccine in analysis.vaccines:
                row = table.setdefault(category, {})
                key = vaccine.delivery.value
                row[key] = row.get(key, 0) + 1
        return table

    def merge(self, *others: "PopulationResult") -> "PopulationResult":
        """Combine shard results (sample order: self, then each shard).

        Every stat helper is a sum over per-sample contributions, so
        merge-then-count equals count-then-sum — the property the shard
        tests pin down.  Failure lists concatenate in the same order;
        retries and respawns add.
        """
        merged = PopulationResult(
            analyses=list(self.analyses),
            failures=list(self.failures),
            retries=self.retries,
            respawns=self.respawns,
        )
        for other in others:
            merged.analyses.extend(other.analyses)
            merged.failures.extend(other.failures)
            merged.retries += other.retries
            merged.respawns += other.respawns
        return merged


class AutoVac:
    """The AUTOVAC analysis system.

    Parameters mirror the paper's setup: a pristine analysis machine, the
    search engine for exclusiveness, and the profiling budget (1-minute
    analogue); traces are aligned with
    :func:`~repro.analysis.alignment.align_myers`.  The clinic test runs
    when ``clinic_programs`` is non-empty.

    ``stages`` makes the pipeline order explicit and reorderable: pass a
    sequence of :class:`~repro.core.stages.Stage` objects to replace the
    default Figure-1 order (:func:`~repro.core.stages.default_stages`) —
    e.g. with ``ExclusivenessStage(enforce=False)`` for the exclusiveness
    ablation.
    """

    def __init__(
        self,
        environment: Optional[SystemEnvironment] = None,
        search_engine: Optional[SearchEngine] = None,
        profile_budget: int = DEFAULT_BUDGET,
        clinic_programs: Sequence[Program] = (),
        explore_paths: bool = False,
        stages: Optional[Sequence[Stage]] = None,
    ) -> None:
        self.environment = environment if environment is not None else SystemEnvironment()
        #: A caller-supplied machine or search engine cannot travel in a
        #: :class:`~repro.core.executor.PipelineConfig`, so
        #: :func:`~repro.core.executor.config_for` refuses such a pipeline.
        self.custom_setup = environment is not None or search_engine is not None
        self.exclusiveness = ExclusivenessAnalyzer(search=search_engine or SearchEngine())
        self.impact = ImpactAnalyzer(
            environment=self.environment,
            max_steps=profile_budget,
        )
        self.profile_budget = profile_budget
        self.clinic_programs = list(clinic_programs)
        #: Enforced execution (§VIII): flip resource-check outcomes to find
        #: candidates on dormant paths before Phase II.
        self.explore_paths = explore_paths
        self.stages: Tuple[Stage, ...] = (
            tuple(stages) if stages is not None else default_stages()
        )

    # ------------------------------------------------------------------

    def analyze(self, program: Program) -> SampleAnalysis:
        journal_token = obs.flight.begin_sample(program.name)
        prof_mark = obs.prof.mark()
        started = time.perf_counter()
        analysis = SampleAnalysis(program=program)
        try:
            # Every program an analysis runs is cold, so compiling regions
            # never pays off: the stages run without tier 3, and an
            # analysis's tier mix depends only on ``record_instructions``.
            with vm_superblock.overridden(False):
                self._analyze(program, analysis)
        finally:
            # Recorded even when a stage raises, so every stage cell
            # already written has its root.
            obs.prof.record(ANALYZE_PATH, time.perf_counter() - started)
        # Reached only on success: a stage that raised left the window open
        # for `repro explain` to print, and the next begin_sample drops it.
        analysis.journal = obs.flight.end_sample(journal_token)
        analysis.profile = obs.prof.since(prof_mark)
        return analysis

    def _analyze(self, program: Program, analysis: SampleAnalysis) -> None:
        ctx = AnalysisContext(program=program, analysis=analysis, pipeline=self)
        run_stages(self.stages, ctx)

    def analyze_population(
        self,
        programs: Iterable[Program],
        jobs: int = 1,
        cache: Optional[object] = None,
    ) -> PopulationResult:
        """Analyze a corpus; ``jobs>1`` fans out to worker processes and
        ``cache`` (a directory path) skips samples whose result is already
        on disk.  See :func:`repro.core.executor.analyze_population`."""
        from .executor import analyze_population

        return analyze_population(programs, jobs=jobs, cache=cache, autovac=self)

    # ------------------------------------------------------------------

    def _build_vaccine(
        self, ctx: AnalysisContext, outcome: ImpactOutcome
    ) -> Optional[Vaccine]:
        program, analysis = ctx.program, ctx.analysis
        candidate = outcome.candidate
        event = self._representative_event(analysis.phase1, candidate)
        if event is None:
            return None

        det_key = f"{candidate.resource_type.value}:{candidate.identifier}"
        det = analysis.determinism.get(det_key)
        if det is None:
            det = analyze_determinism(program, ctx.phase1_run, event)
            analysis.determinism[det_key] = det

        flight = obs.flight
        if det.kind is IdentifierKind.NON_DETERMINISTIC:
            if flight.enabled:
                flight.record(
                    "vaccine.rejected",
                    causes=(outcome.flight_id, det.flight_id),
                    resource=candidate.resource_type.value,
                    identifier=candidate.identifier,
                    reason=det.notes or "non-deterministic identifier",
                )
            return None

        vaccine = Vaccine(
            malware=program.name,
            resource_type=candidate.resource_type,
            identifier=candidate.identifier,
            identifier_kind=det.kind,
            mechanism=outcome.mechanism,
            immunization=outcome.immunization,
            operations=frozenset(candidate.operations),
            pattern=det.pattern,
            slice=det.slice,
            apis=tuple(sorted(candidate.apis)),
            notes=det.notes,
        )
        if flight.enabled:
            flight.record(
                "vaccine",
                causes=(
                    outcome.flight_id,
                    det.flight_id,
                    flight.recall(
                        ("exclusive", candidate.resource_type.value, candidate.identifier)
                    ),
                ),
                resource=candidate.resource_type.value,
                identifier=candidate.identifier,
                immunization=vaccine.immunization.value,
                mechanism=vaccine.mechanism.value,
                identifier_kind=det.kind.value,
                pattern=det.pattern,
            )
        return vaccine

    @staticmethod
    def _representative_event(phase1: CandidateReport, candidate: CandidateResource):
        """Pick the name-carrying event for determinism analysis."""
        ids = set(candidate.event_ids)
        best = None
        for event in phase1.trace.api_calls:
            if event.event_id not in ids:
                continue
            if event.identifier_taints is not None:
                return event
            best = best or event
        return best
