"""Post-generation vaccine verification.

Impact analysis predicts a vaccine's effect by *mutating API results*;
deployment changes the *environment*.  The two mechanisms should agree, but
over-tainting, shared call sites or partial interception can break the
correspondence — the paper verifies effects by (manually) comparing
vaccinated executions.  This module automates that closure: deploy the
vaccine for real, re-run the sample, classify the behavioural delta with the
same classifier, and check the claimed immunization actually materializes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..analysis.alignment import align_myers
from ..delivery.package import VaccinePackage, deploy
from ..vm.program import Program
from ..winenv.environment import SystemEnvironment
from .impact import classify_deltas, primary_immunization
from .runner import DEFAULT_BUDGET, run_sample
from .vaccine import Immunization, Vaccine


@dataclass
class VerificationResult:
    """Outcome of verifying one vaccine against one sample."""

    vaccine: Vaccine
    claimed: Immunization
    observed: Immunization
    observed_effects: frozenset = frozenset()
    bdr: float = 0.0

    @property
    def verified(self) -> bool:
        """The deployed vaccine achieves at least its claimed effect.

        A stronger observed effect (e.g. FULL where TYPE_III was claimed)
        also verifies: the prediction was conservative, not wrong.
        """
        if self.claimed is self.observed:
            return True
        if self.observed is Immunization.FULL:
            return True
        return self.claimed in self.observed_effects


@dataclass
class VerificationReport:
    results: List[VerificationResult] = field(default_factory=list)

    @property
    def all_verified(self) -> bool:
        return all(r.verified for r in self.results)

    @property
    def verified_count(self) -> int:
        return sum(1 for r in self.results if r.verified)

    def failures(self) -> List[VerificationResult]:
        return [r for r in self.results if not r.verified]


def verify_vaccine(
    program: Program,
    vaccine: Vaccine,
    environment: Optional[SystemEnvironment] = None,
    max_steps: int = DEFAULT_BUDGET,
) -> VerificationResult:
    """Deploy ``vaccine`` alone and measure what it actually disables.

    The runs are diffed with :func:`~repro.analysis.alignment.align_myers`,
    the aligner impact analysis classified the claim with by default.
    """
    base = environment if environment is not None else SystemEnvironment()

    natural = run_sample(
        program, environment=base, max_steps=max_steps, record_instructions=False
    )

    vaccinated_env = base.clone()
    deploy(VaccinePackage(vaccines=[vaccine]), vaccinated_env)
    vaccinated = run_sample(
        program,
        environment=vaccinated_env,
        max_steps=max_steps,
        record_instructions=False,
        clone_environment=False,
    )

    alignment = align_myers(vaccinated.trace.api_calls, natural.trace.api_calls)
    effects = classify_deltas(natural.trace, vaccinated.trace, alignment)
    calls_n = len(natural.trace.api_calls)
    calls_v = len(vaccinated.trace.api_calls)
    bdr = (calls_n - calls_v) / calls_n if calls_n else 0.0
    return VerificationResult(
        vaccine=vaccine,
        claimed=vaccine.immunization,
        observed=primary_immunization(effects),
        observed_effects=frozenset(effects),
        bdr=bdr,
    )


def verify_all(
    program: Program,
    vaccines: Sequence[Vaccine],
    environment: Optional[SystemEnvironment] = None,
    max_steps: int = DEFAULT_BUDGET,
) -> VerificationReport:
    report = VerificationReport()
    for vaccine in vaccines:
        report.results.append(
            verify_vaccine(program, vaccine, environment=environment, max_steps=max_steps)
        )
    return report
