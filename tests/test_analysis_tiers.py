"""Which execution tiers an analysis runs on, and which a host run does.

Every program the pipeline executes is cold: Phase I profiles it once and
Phase II re-runs it a few times.  ``AutoVac.analyze`` therefore runs its
stages with compiled superblock regions off, and an analysis picks its tier
from ``record_instructions`` alone — recorded runs take slow steps,
unrecorded runs the predecoded fast loop.  Warm host-side runs (the
protected host, the campaign, a bare ``run_sample``) keep compiled regions.
These tests pin both sides of that rule on the six named families, and
that the two sides agree on every host run.

A recorded run's taint and its def/use records are separate: Phase I keeps
the taint and builds no records, and determinism re-runs only the prefix a
backward slice reads, with records on, stopping at the sliced API call.
"""

from __future__ import annotations

import pytest

from repro import SystemEnvironment, obs
from repro.core import AutoVac, determinism, run_sample
from repro.core.candidate import run_phase1
from repro.core.runner import record_prefix
from repro.core.vaccine import IdentifierKind
from repro.corpus import FAMILIES, build_family
from repro.vm import superblock as vm_superblock
from repro.vm.superblock import DEFAULT_THRESHOLD


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def _counts(profile):
    return {path: cell[0] for path, cell in profile.items()}


def _outcomes(trace):
    return [
        (e.api, e.identifier, e.retval, e.success, e.error) for e in trace.api_calls
    ]


def _warm_host_run(program):
    """The last of ``DEFAULT_THRESHOLD + 1`` unrecorded runs: every region
    entered on each run has compiled by then."""
    for _ in range(DEFAULT_THRESHOLD):
        run_sample(program, record_instructions=False)
    return run_sample(program, record_instructions=False)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reanalysis_of_one_program_repeats_its_profile(family):
    program = build_family(family)
    with obs.profiled():
        first = AutoVac().analyze(program)
        second = AutoVac().analyze(program)
    assert _counts(first.profile) == _counts(second.profile)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_analysis_compiles_no_regions_but_host_runs_do(family):
    program = build_family(family)
    with obs.profiled():
        analysis = AutoVac().analyze(program)
    assert not [path for path in analysis.profile if ";vm;superblock" in path]
    assert obs.metrics.total("vm.superblocks.compiled") == 0
    assert obs.metrics.total("vm.superblocks.entries") == 0

    _warm_host_run(program)
    assert obs.metrics.total("vm.superblocks.compiled") > 0
    assert obs.metrics.total("vm.superblocks.entries") > 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_host_run_agrees_with_and_without_regions(family):
    program = build_family(family)
    warm = _warm_host_run(program)
    with vm_superblock.overridden(False):
        plain = run_sample(program, record_instructions=False)
    assert warm.cpu._sb_entries > 0  # the comparison is not vacuous
    assert plain.cpu._superblocks is None
    assert _outcomes(warm.trace) == _outcomes(plain.trace)
    assert warm.trace.exit_status == plain.trace.exit_status
    assert warm.trace.steps == plain.trace.steps


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_phase1_tracks_taint_without_def_use_records(family):
    with obs.profiled():
        analysis = AutoVac().analyze(build_family(family))
    trace = analysis.phase1.trace
    assert trace.instructions == []
    assert trace.predicates  # the taint still reaches the predicates
    # Every Phase I step still runs on the slow tier.
    assert analysis.profile["pipeline.analyze;phase1;vm;slow"][0] == trace.steps


def test_slice_rerun_stops_at_the_sliced_event(monkeypatch):
    """conficker's mutex name is computed from the computer name, so its
    determinism verdict needs a backward slice: the re-run takes exactly the
    steps before the sliced call and records one def/use record each."""
    walks = []
    walk = determinism.backward_slice

    def recorded_walk(*args, **kwargs):
        walks.append(walk(*args, **kwargs))
        return walks[-1]

    monkeypatch.setattr(determinism, "backward_slice", recorded_walk)
    with obs.profiled():
        analysis = AutoVac().analyze(build_family("conficker"))
    sliced = [
        d for d in analysis.determinism.values()
        if d.kind is IdentifierKind.ALGORITHM_DETERMINISTIC
    ]
    assert len(sliced) == 1
    profile = analysis.profile
    assert profile["pipeline.analyze;determinism;slice_rerun"][0] == 1
    assert profile["pipeline.analyze;determinism;slice_rerun;vm;slow"][0] == 131
    assert profile["pipeline.analyze;phase1;vm;slow"][0] == 349
    assert len(walks) == 1
    assert walks[0].slice_records[-1].seq < 131


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_record_prefix_matches_a_fully_recorded_run(family):
    """For every identifier-carrying call of Phase I, the re-recorded
    prefix holds exactly the def/use records and API events a run recorded
    in full holds before that call."""
    program = build_family(family)
    phase1 = run_phase1(program)
    full = run_sample(program).trace
    events = [e for e in phase1.trace.api_calls if e.identifier]
    assert events
    for event in events:
        prefix = record_prefix(program, phase1, event)
        cut = next(
            i for i, r in enumerate(full.instructions) if r.api_event_id == event.event_id
        )
        assert prefix.instructions == full.instructions[:cut]
        assert len(prefix.instructions) == event.seq
        assert prefix.api_calls == full.api_calls[: full.api_calls.index(event)]
        assert prefix.predicates == [p for p in full.predicates if p.seq < event.seq]


def test_run_without_def_use_records_must_clone_its_environment():
    """Such a run must be repeatable for record_prefix."""
    with pytest.raises(ValueError, match="must clone"):
        run_sample(
            build_family("zeus"),
            environment=SystemEnvironment(),
            clone_environment=False,
            def_use=False,
        )
