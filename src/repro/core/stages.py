"""Composable pipeline stages (paper Figure 1, one object per box).

``AutoVac`` executes a constructor-visible sequence of :class:`Stage`
objects over a shared :class:`AnalysisContext` instead of one monolithic
method.  Each stage decides:

* :meth:`Stage.active` — does the stage appear in this sample's span tree at
  all?  (``exploration`` only exists when enforced execution is on);
* :meth:`Stage.ready` — does it run, or emit a ``skipped=True`` span?
  (everything after Phase I is skipped once the sample is filtered);
* :meth:`Stage.run` — the actual work, reading and writing the context.

The default order reproduces the paper's pipeline exactly; ablation benches
pass a reduced, reordered or reparameterized stage list.  Stages compare
by value (type and attributes), so a pipeline can tell whether its list is
the default one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .. import obs
from .candidate import CandidateResource, select_candidates
from .clinic import clinic_test
from .policy import synthesize_policy, validate_policy
from .vaccine import Mechanism, Vaccine

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..obs import Span
    from ..vm.program import Program
    from .pipeline import AutoVac, SampleAnalysis


@dataclass
class AnalysisContext:
    """Mutable state threaded through the stages for one sample.

    ``candidates`` is the working set each Phase-II stage refines;
    ``done`` short-circuits the remaining stages (they still emit
    ``skipped=True`` spans so every sample's span tree has the same shape).
    """

    program: "Program"
    analysis: "SampleAnalysis"
    pipeline: "AutoVac"
    candidates: List[CandidateResource] = field(default_factory=list)
    done: bool = False


class Stage:
    """One pipeline step.  Subclasses override ``run`` (and optionally
    ``active``/``ready``); ``name`` becomes the stage's span name."""

    name: str = "stage"

    def active(self, ctx: AnalysisContext) -> bool:
        """Whether this stage appears in the sample's span tree at all."""
        return True

    def ready(self, ctx: AnalysisContext) -> bool:
        """Whether the stage runs; otherwise it emits a skipped span."""
        return not ctx.done

    def run(self, ctx: AnalysisContext, span: "Span") -> None:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.name!r})"


class Phase1Stage(Stage):
    """Phase I — profiling + taint candidate selection; applies the
    no-resource-dependent-branch filter."""

    name = "phase1"

    def ready(self, ctx: AnalysisContext) -> bool:
        return True

    def run(self, ctx: AnalysisContext, span: "Span") -> None:
        pipeline = ctx.pipeline
        phase1 = select_candidates(
            ctx.program,
            environment=pipeline.environment,
            max_steps=pipeline.profile_budget,
        )
        ctx.analysis.phase1 = phase1
        if not phase1.has_vaccine_potential:
            ctx.analysis.filtered_reason = (
                "no resource-dependent branch (Phase I filter)"
            )
            ctx.done = True
            return
        ctx.candidates = [
            c for c in phase1.candidates if c.influences_control_flow or c.had_failure
        ]


class ExplorationStage(Stage):
    """Enforced execution (§VIII): discover candidates on dormant paths.

    Only present in the span tree when ``explore_paths`` is on and the
    sample passed the Phase-I filter (matches the pre-stage behaviour)."""

    name = "exploration"

    def active(self, ctx: AnalysisContext) -> bool:
        return ctx.pipeline.explore_paths and not ctx.done

    def run(self, ctx: AnalysisContext, span: "Span") -> None:
        from ..analysis.forced_execution import explore_resource_paths

        pipeline = ctx.pipeline
        exploration = explore_resource_paths(
            ctx.program,
            environment=pipeline.environment,
            max_steps=pipeline.profile_budget,
        )
        ctx.candidates.extend(exploration.discovered)
        span.set(discovered=len(exploration.discovered))


class ExclusivenessStage(Stage):
    """Phase II step I — drop candidates benign software also uses.

    ``enforce=False`` keeps the span (with its ``kept`` attribute) but lets
    every candidate through — the exclusiveness ablation."""

    name = "exclusiveness"

    def __init__(self, enforce: bool = True) -> None:
        self.enforce = enforce

    def run(self, ctx: AnalysisContext, span: "Span") -> None:
        if self.enforce:
            ctx.analysis.exclusiveness = ctx.pipeline.exclusiveness.filter(
                ctx.candidates
            )
            ctx.candidates = [
                d.candidate for d in ctx.analysis.exclusiveness if d.exclusive
            ]
        span.set(kept=len(ctx.candidates))


class ImpactStage(Stage):
    """Phase II step II — mutated runs + trace alignment per candidate."""

    name = "impact"

    def run(self, ctx: AnalysisContext, span: "Span") -> None:
        pipeline = ctx.pipeline
        phase1 = ctx.analysis.phase1
        ctx.analysis.impacts.extend(
            pipeline.impact.analyze_candidates(ctx.program, ctx.candidates, phase1.trace)
        )
        span.set(outcomes=len(ctx.analysis.impacts))


class DeterminismStage(Stage):
    """Phase II step III — backward slicing / identifier classification;
    builds the vaccine set from effective impact outcomes."""

    name = "determinism"

    def run(self, ctx: AnalysisContext, span: "Span") -> None:
        pipeline = ctx.pipeline
        analysis = ctx.analysis
        built: Dict[tuple, Vaccine] = {}
        ordered = sorted(
            (o for o in analysis.impacts if o.is_effective),
            key=lambda o: o.mechanism is not Mechanism.SIMULATE_PRESENCE,
        )
        for outcome in ordered:
            vaccine = pipeline._build_vaccine(
                ctx.program, analysis.phase1, outcome, analysis
            )
            if vaccine is None:
                continue
            # Both mutation directions of a create-checked resource deploy as
            # the same artifact (a locked marker); keep one per effect.
            key = (vaccine.resource_type, vaccine.identifier, vaccine.immunization)
            if key not in built:
                built[key] = vaccine
        analysis.vaccines = list(built.values())


class PolicyStage(Stage):
    """Temporal API-policy synthesis — the second deliverable.  Splits the
    Phase I log at the first-interception boundary, derives init vs
    steady-state allowlists, and distils benign-subtracted steady-state
    deny rules (see :mod:`repro.core.policy`).  Pure trace analysis: no
    extra executions, so it is cheap enough to always run."""

    name = "policy"

    def ready(self, ctx: AnalysisContext) -> bool:
        return not ctx.done and any(o.is_effective for o in ctx.analysis.impacts)

    def run(self, ctx: AnalysisContext, span: "Span") -> None:
        analysis = ctx.analysis
        policy = synthesize_policy(
            ctx.program.name,
            analysis.phase1.trace,
            analysis.impacts,
            exclusiveness=ctx.pipeline.exclusiveness,
        )
        analysis.policy = policy
        if policy is None:
            span.set(synthesized=False)
            return
        obs.metrics.counter("pipeline.policies").inc()
        span.set(
            boundary_seq=policy.boundary_seq,
            deny=len(policy.deny),
            subtracted=len(policy.subtracted),
        )


class ClinicStage(Stage):
    """Phase II step IV — benign-interference test; discards implicated
    vaccines and clinic-certifies the temporal policy.  Skipped unless the
    pipeline has clinic programs and there is something to test."""

    name = "clinic"

    def ready(self, ctx: AnalysisContext) -> bool:
        return (
            not ctx.done
            and bool(ctx.analysis.vaccines or ctx.analysis.policy)
            and bool(ctx.pipeline.clinic_programs)
        )

    def run(self, ctx: AnalysisContext, span: "Span") -> None:
        pipeline = ctx.pipeline
        if ctx.analysis.vaccines:
            ctx.analysis.clinic = clinic_test(
                ctx.analysis.vaccines,
                pipeline.clinic_programs,
                environment=pipeline.environment,
            )
            ctx.analysis.vaccines = list(ctx.analysis.clinic.passed)
        if ctx.analysis.policy is not None:
            validation = validate_policy(
                ctx.analysis.policy,
                pipeline.clinic_programs,
                environment=pipeline.environment,
            )
            span.set(
                policy_certified=bool(ctx.analysis.policy.certified),
                policy_rules_removed=len(validation.removed),
            )


def default_stages() -> Tuple[Stage, ...]:
    """The paper's pipeline order (Figure 1), plus policy synthesis after
    determinism — both deliverables come out of one pass."""
    return (
        Phase1Stage(),
        ExplorationStage(),
        ExclusivenessStage(),
        ImpactStage(),
        DeterminismStage(),
        PolicyStage(),
        ClinicStage(),
    )


def run_stages(stages: Sequence[Stage], ctx: AnalysisContext) -> None:
    """Execute a stage sequence: one span per active stage, ``skipped=True``
    on stages that declined to run.  When a run-telemetry emitter is
    installed (``survey --run-dir``), each executed stage also spools a
    ``sample.phase`` transition event — the ``stream.enabled()`` guard
    keeps the telemetry-off path within the cheap-hook budget."""
    for stage in stages:
        if not stage.active(ctx):
            continue
        ran = False
        with obs.trace.span(stage.name) as span:
            if stage.ready(ctx):
                stage.run(ctx, span)
                ran = True
            else:
                span.set(skipped=True)
        if ran and obs.stream.enabled():
            obs.stream.emit(
                "sample.phase",
                sample=ctx.program.name,
                phase=stage.name,
                seconds=span.total_seconds(),
            )


__all__ = [
    "AnalysisContext",
    "Stage",
    "Phase1Stage",
    "ExplorationStage",
    "ExclusivenessStage",
    "ImpactStage",
    "DeterminismStage",
    "PolicyStage",
    "ClinicStage",
    "default_stages",
    "run_stages",
]
