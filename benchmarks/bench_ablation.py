"""Ablations for the design choices called out in DESIGN.md §5.

* alignment granularity: full context key vs API-name-only;
* per-byte vs whole-string identifier taint (partial static recovery);
* exclusiveness analysis on/off (false-positive vaccines);
* limitation reproduction: control-dependence evasion (paper §VII).
"""

import pytest

from repro import AutoVac
from repro.analysis import align_lcs
from repro.core import run_sample, select_candidates
from repro.core.determinism import build_pattern, byte_classes
from repro.core.impact import ResourceMutation
from repro.corpus import build_control_dependence_evader, build_family

from benchutil import write_artifact


@pytest.mark.benchmark(group="ablation")
def test_ablation_alignment_granularity(benchmark, family_analyses):
    """Name-only alignment over-aligns: distinct call sites collapse, so the
    diff underestimates the behaviour lost (missed-impact risk the paper
    avoids by keying on Caller-PC + static params)."""
    program, analysis = family_analyses["zeus"]
    natural = analysis.phase1.trace
    outcome = analysis.impacts[0]
    mutation = ResourceMutation(outcome.candidate, outcome.mechanism)
    mutated = run_sample(program, interceptors=[mutation], record_instructions=False).trace

    full_key = align_lcs(mutated.api_calls, natural.api_calls)

    def name_only(mut, nat):
        import copy

        def strip(events):
            out = []
            for e in events:
                clone = copy.copy(e)
                clone.caller_pc = 0
                clone.identifier = None
                out.append(clone)
            return out

        return align_lcs(strip(mut), strip(nat))

    coarse = name_only(mutated.api_calls, natural.api_calls)
    write_artifact(
        "ablation_alignment.txt",
        "Alignment granularity ablation (zeus, first mutated run)\n"
        f"context-key delta: mutated={len(full_key.delta_mutated)} "
        f"natural={len(full_key.delta_natural)}\n"
        f"name-only delta:   mutated={len(coarse.delta_mutated)} "
        f"natural={len(coarse.delta_natural)}\n",
    )
    assert len(coarse.delta_natural) <= len(full_key.delta_natural)

    benchmark(lambda: align_lcs(mutated.api_calls, natural.api_calls))


def test_ablation_byte_vs_whole_string_taint():
    """Whole-string taint collapses partial static into non-deterministic:
    per-byte labels are what make the regex vaccine possible."""
    program = build_family("qakbot")
    report = select_candidates(program)
    event = next(e for e in report.trace.api_calls
                 if e.api == "CreateMutexA" and e.identifier
                 and e.identifier.startswith("qbot-"))
    classes = byte_classes(event)
    per_byte = build_pattern(event.identifier, classes)
    assert per_byte is not None

    # Whole-string ablation: every byte carries the union classification.
    collapsed = ["random"] * len(classes)
    whole = build_pattern(event.identifier, collapsed)
    write_artifact(
        "ablation_taint.txt",
        "Byte-level vs whole-string taint (qakbot partial-static mutex)\n"
        f"identifier: {event.identifier}\n"
        f"per-byte pattern:     {per_byte}\n"
        f"whole-string pattern: {whole}\n",
    )
    assert whole is None  # vaccine lost without byte-level taint


def test_ablation_exclusiveness_off_produces_risky_vaccines(benign_programs):
    """Without exclusiveness analysis, shared resources become vaccines and
    the clinic catches the fallout — quantifying what the filter prevents."""
    from repro.core import clinic_test
    from repro.core.stages import ExclusivenessStage, default_stages

    program = build_family("sality")  # loads the shared wmdrtc32-style dll
    no_filter = tuple(
        ExclusivenessStage(enforce=False) if isinstance(s, ExclusivenessStage) else s
        for s in default_stages()
    )
    with_filter = AutoVac().analyze(program)
    without = AutoVac(stages=no_filter).analyze(program)
    extra = len(without.vaccines) - len(with_filter.vaccines)
    report = clinic_test(without.vaccines, benign_programs)
    write_artifact(
        "ablation_exclusiveness.txt",
        "Exclusiveness ablation (sality)\n"
        f"vaccines with filter:    {len(with_filter.vaccines)}\n"
        f"vaccines without filter: {len(without.vaccines)} (+{extra})\n"
        f"clinic incidents without filter: {len(report.incidents)}\n",
    )
    assert extra >= 0


def test_mutation_vs_deployment_agreement(family_analyses):
    """Impact analysis predicts effects by mutating API results; deployment
    changes the environment.  The two must agree for every shipped vaccine —
    the property that makes mutation a valid vaccine test."""
    from repro.core import verify_all

    total = verified = 0
    lines = ["Mutation-predicted vs deployed effect"]
    for family, (program, analysis) in sorted(family_analyses.items()):
        report = verify_all(program, analysis.vaccines)
        total += len(report.results)
        verified += report.verified_count
        for r in report.results:
            lines.append(f"{family:10s} {r.vaccine.identifier:45s} "
                         f"claimed={r.claimed.value:28s} observed={r.observed.value}")
    write_artifact("ablation_verification.txt",
                   "\n".join(lines) + f"\nagreement: {verified}/{total}\n")
    assert verified == total


def test_future_work_pointer_taint_policy():
    """Paper §VII future work, implemented: table-lookup taint laundering
    beats the default data-flow policy but not the pointer-taint option —
    at a measurable over-tainting cost."""
    from repro.core import select_candidates
    from repro.corpus import build_family, build_index_launder_evader

    evader = build_index_launder_evader()
    default_miss = not select_candidates(evader).has_vaccine_potential
    recovered = select_candidates(evader, taint_addresses=True).has_vaccine_potential

    # Over-tainting cost on a normal sample: pointer taint can only add
    # influential occurrences, never remove them.
    zeus = build_family("zeus")
    strict = select_candidates(zeus)
    loose = select_candidates(zeus, taint_addresses=True)
    write_artifact(
        "ablation_pointer_taint.txt",
        "Pointer-taint policy (paper §VII future work)\n"
        f"index-launder evader missed by default policy: {default_miss}\n"
        f"recovered with taint_addresses=True: {recovered}\n"
        f"zeus influential occurrences: strict={strict.influential_occurrences} "
        f"pointer-taint={loose.influential_occurrences}\n",
    )
    assert default_miss and recovered
    assert loose.influential_occurrences >= strict.influential_occurrences


def test_limitation_control_dependence_evasion():
    """Paper §VII: propagation through control dependence (or none at all)
    evades the tainted-predicate detector — reproduce the miss."""
    evader = build_control_dependence_evader()
    report = select_candidates(evader)
    analysis = AutoVac().analyze(evader)
    write_artifact(
        "ablation_evasion.txt",
        "Control-dependence evasion (paper §VII limitation)\n"
        f"resource accesses observed: {report.total_occurrences}\n"
        f"tainted predicates: {len(report.trace.predicates)}\n"
        f"flagged by Phase I: {report.has_vaccine_potential}\n"
        f"vaccines: {len(analysis.vaccines)}\n",
    )
    assert report.total_occurrences > 0          # it *is* resource-sensitive
    assert not report.has_vaccine_potential      # …but the detector misses it
    assert not analysis.vaccines
