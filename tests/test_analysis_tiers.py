"""Which execution tiers an analysis runs on, and which a host run does.

Every program the pipeline executes is cold: Phase I profiles it once and
Phase II re-runs it a few times.  ``AutoVac.analyze`` therefore runs its
stages with compiled superblock regions off, and an analysis picks its tier
from ``record_instructions`` alone — recorded runs take slow steps,
unrecorded runs the predecoded fast loop.  Warm host-side runs (the
protected host, the campaign, a bare ``run_sample``) keep compiled regions.
These tests pin both sides of that rule on the six named families, and
that the two sides agree on every host run.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import AutoVac, run_sample
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
