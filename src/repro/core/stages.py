"""Composable pipeline stages (paper Figure 1, one object per box).

``AutoVac`` executes a constructor-visible sequence of :class:`Stage`
objects over a shared :class:`AnalysisContext` instead of one monolithic
method.  Each stage decides:

* :meth:`Stage.active` — does the stage apply to this pipeline at all?
  (``exploration`` only exists when enforced execution is on);
* :meth:`Stage.ready` — does it run on this sample?  (everything after
  Phase I is skipped once the sample is filtered);
* :meth:`Stage.run` — the actual work, reading and writing the context.

Each executed stage records one ``pipeline.analyze;<stage>`` cell in the
profiler's timing tree (:mod:`repro.obs.prof`); skipped stages record
nothing.

The default order reproduces the paper's pipeline exactly; ablation benches
pass a reduced, reordered or reparameterized stage list.  Stages compare
by value (type and attributes), so a pipeline can tell whether its list is
the default one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .. import obs
from .candidate import CandidateResource, analyze_trace, run_phase1
from .clinic import clinic_test
from .policy import synthesize_policy, validate_policy
from .vaccine import Mechanism, Vaccine

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..vm.program import Program
    from .pipeline import AutoVac, SampleAnalysis
    from .runner import RunResult


#: Root frame of every sample's timing tree; stage cells sit one frame below.
ANALYZE_PATH = "pipeline.analyze"


@dataclass
class AnalysisContext:
    """Mutable state threaded through the stages for one sample.

    ``phase1_run`` is Phase I's run, machine included, for the stages
    that re-execute from it; it lives only as long as the context, so a
    :class:`SampleAnalysis` never holds it.  ``candidates`` is the working
    set each Phase-II stage refines; ``done`` short-circuits the remaining
    stages.
    """

    program: "Program"
    analysis: "SampleAnalysis"
    pipeline: "AutoVac"
    phase1_run: Optional["RunResult"] = None
    candidates: List[CandidateResource] = field(default_factory=list)
    done: bool = False


class Stage:
    """One pipeline step.  Subclasses override ``run`` (and optionally
    ``active``/``ready``); ``name`` is the stage's frame in the timing
    tree."""

    name: str = "stage"

    def active(self, ctx: AnalysisContext) -> bool:
        """Whether this stage applies to the sample at all."""
        return True

    def ready(self, ctx: AnalysisContext) -> bool:
        """Whether the stage runs; otherwise it is skipped."""
        return not ctx.done

    def run(self, ctx: AnalysisContext) -> None:
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

    def run(self, ctx: AnalysisContext) -> None:
        pipeline = ctx.pipeline
        ctx.phase1_run = run_phase1(
            ctx.program,
            environment=pipeline.environment,
            max_steps=pipeline.profile_budget,
        )
        phase1 = analyze_trace(ctx.program.name, ctx.phase1_run.trace)
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

    Only runs when ``explore_paths`` is on and the sample passed the
    Phase-I filter."""

    name = "exploration"

    def active(self, ctx: AnalysisContext) -> bool:
        return ctx.pipeline.explore_paths and not ctx.done

    def run(self, ctx: AnalysisContext) -> None:
        from ..analysis.forced_execution import explore_resource_paths

        pipeline = ctx.pipeline
        exploration = explore_resource_paths(
            ctx.program,
            ctx.analysis.phase1,
            environment=pipeline.environment,
            max_steps=pipeline.profile_budget,
        )
        ctx.candidates.extend(exploration.discovered)


class ExclusivenessStage(Stage):
    """Phase II step I — drop candidates benign software also uses.

    ``enforce=False`` keeps the stage but lets every candidate through —
    the exclusiveness ablation."""

    name = "exclusiveness"

    def __init__(self, enforce: bool = True) -> None:
        self.enforce = enforce

    def run(self, ctx: AnalysisContext) -> None:
        if self.enforce:
            ctx.analysis.exclusiveness = ctx.pipeline.exclusiveness.filter(
                ctx.candidates
            )
            ctx.candidates = [
                d.candidate for d in ctx.analysis.exclusiveness if d.exclusive
            ]


class ImpactStage(Stage):
    """Phase II step II — mutated runs + trace alignment per candidate."""

    name = "impact"

    def run(self, ctx: AnalysisContext) -> None:
        ctx.analysis.impacts.extend(
            ctx.pipeline.impact.analyze_candidates(
                ctx.program, ctx.candidates, ctx.phase1_run.trace
            )
        )


class DeterminismStage(Stage):
    """Phase II step III — backward slicing / identifier classification;
    builds the vaccine set from effective impact outcomes."""

    name = "determinism"

    def run(self, ctx: AnalysisContext) -> None:
        analysis = ctx.analysis
        built: Dict[tuple, Vaccine] = {}
        ordered = sorted(
            (o for o in analysis.impacts if o.is_effective),
            key=lambda o: o.mechanism is not Mechanism.SIMULATE_PRESENCE,
        )
        for outcome in ordered:
            vaccine = ctx.pipeline._build_vaccine(ctx, outcome)
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

    def run(self, ctx: AnalysisContext) -> None:
        analysis = ctx.analysis
        policy = synthesize_policy(
            ctx.program.name,
            analysis.phase1.trace,
            analysis.impacts,
            exclusiveness=ctx.pipeline.exclusiveness,
        )
        analysis.policy = policy


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

    def run(self, ctx: AnalysisContext) -> None:
        pipeline = ctx.pipeline
        if ctx.analysis.vaccines:
            ctx.analysis.clinic = clinic_test(
                ctx.analysis.vaccines,
                pipeline.clinic_programs,
                environment=pipeline.environment,
            )
            ctx.analysis.vaccines = list(ctx.analysis.clinic.passed)
        if ctx.analysis.policy is not None:
            validate_policy(
                ctx.analysis.policy,
                pipeline.clinic_programs,
                environment=pipeline.environment,
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
    """Execute a stage sequence.  Each executed stage records its wall time
    as one ``pipeline.analyze;<stage>`` profile cell, and hot-path cells
    recorded while it runs land under that path."""
    prof = obs.prof
    outer = prof.prefix
    clock = time.perf_counter
    for stage in stages:
        if not stage.active(ctx) or not stage.ready(ctx):
            continue
        path = f"{ANALYZE_PATH};{stage.name}"
        prof.prefix = path + ";"
        started = clock()
        try:
            stage.run(ctx)
        finally:
            prof.prefix = outer
            prof.record(path, clock() - started)


__all__ = [
    "ANALYZE_PATH",
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
