"""AUTOVAC core: the three-phase vaccine extraction pipeline."""

from .bdr import BdrResult, EFFECT_BUDGET, measure_bdr
from .candidate import CandidateReport, CandidateResource, select_candidates
from .clinic import ClinicIncident, ClinicReport, clinic_test
from .determinism import DeterminismResult, analyze_determinism, build_pattern
from .exclusiveness import ExclusivenessAnalyzer, ExclusivenessDecision
from .executor import PipelineConfig, ResultCache, analyze_population
from .faults import FaultPlan, FaultPlanError, FaultSpec
from .impact import ImpactAnalyzer, ImpactOutcome, ResourceMutation, classify_deltas
from .pipeline import AutoVac, PopulationResult, SampleAnalysis, SampleFailure
from .policy import (
    PolicyRule,
    PolicySubtraction,
    PolicyValidation,
    TemporalApiPolicy,
    synthesize_policy,
    validate_policy,
)
from .report import render_failure_summary, render_report, render_run_summary
from .stages import (
    AnalysisContext,
    ClinicStage,
    DeterminismStage,
    ExclusivenessStage,
    ExplorationStage,
    ImpactStage,
    Phase1Stage,
    PolicyStage,
    Stage,
    default_stages,
)
from .runner import DEFAULT_BUDGET, RunResult, run_sample
from .selection import SelectionResult, rank, score, select_minimal, select_with_backups
from .verification import VerificationReport, VerificationResult, verify_all, verify_vaccine
from .vaccine import (
    DeliveryKind,
    IdentifierKind,
    Immunization,
    Mechanism,
    Vaccine,
    normalize_identifier,
)

__all__ = [
    "AnalysisContext",
    "AutoVac",
    "BdrResult",
    "CandidateReport",
    "CandidateResource",
    "ClinicIncident",
    "ClinicReport",
    "ClinicStage",
    "DEFAULT_BUDGET",
    "DeliveryKind",
    "DeterminismResult",
    "DeterminismStage",
    "EFFECT_BUDGET",
    "ExclusivenessAnalyzer",
    "ExclusivenessDecision",
    "ExclusivenessStage",
    "ExplorationStage",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "IdentifierKind",
    "ImpactAnalyzer",
    "ImpactOutcome",
    "ImpactStage",
    "Immunization",
    "Mechanism",
    "Phase1Stage",
    "PolicyRule",
    "PolicyStage",
    "PolicySubtraction",
    "PolicyValidation",
    "PipelineConfig",
    "PopulationResult",
    "ResourceMutation",
    "ResultCache",
    "RunResult",
    "SelectionResult",
    "SampleAnalysis",
    "SampleFailure",
    "Stage",
    "TemporalApiPolicy",
    "Vaccine",
    "VerificationReport",
    "VerificationResult",
    "analyze_determinism",
    "analyze_population",
    "build_pattern",
    "classify_deltas",
    "clinic_test",
    "default_stages",
    "measure_bdr",
    "normalize_identifier",
    "rank",
    "score",
    "select_minimal",
    "select_with_backups",
    "run_sample",
    "select_candidates",
    "synthesize_policy",
    "render_failure_summary",
    "render_report",
    "render_run_summary",
    "validate_policy",
    "verify_all",
    "verify_vaccine",
]
