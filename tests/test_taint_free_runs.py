"""Unrecorded runs are taint-free.

Taint is consumed only where the trace is recorded: Phase I's tainted
predicates and determinism's backward walk.  Every other run — impact's
capture, resume and rerun runs, slice replays, clinic, the protected host —
is unrecorded, mints no taint, and so executes on the fast tier (plus
compiled superblocks on host runs), taking a slow step only for an
instruction without a fast form (an API call).  These tests pin both halves of that contract on the six named
families.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import AutoVac, run_sample
from repro.corpus import FAMILIES, build_family


def _outcomes(trace):
    return [
        (e.api, e.identifier, e.retval, e.success, e.error) for e in trace.api_calls
    ]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_unrecorded_run_carries_no_taint(family):
    program = build_family(family)
    recorded = run_sample(program, record_instructions=True)
    unrecorded = run_sample(program, record_instructions=False)
    cpu = unrecorded.cpu
    assert unrecorded.trace.predicates == []
    assert not any(cpu.reg_taint.values())
    assert not cpu.flag_taint
    assert not cpu.memory._taint
    assert recorded.trace.predicates  # the analysis run still sees taint
    assert _outcomes(unrecorded.trace) == _outcomes(recorded.trace)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("stage", ["impact", "determinism"])
def test_unrecorded_stages_take_slow_steps_only_for_api_calls(family, stage):
    with obs.profiled():
        analysis = AutoVac().analyze(build_family(family))
    prefix = f"pipeline.analyze;{stage};"
    profile = analysis.profile
    slow = profile.get(prefix + "vm;slow", [0])[0]
    api_calls = sum(
        cell[0]
        for path, cell in profile.items()
        if path.startswith(prefix + "api;") and not path.endswith(";read_args")
    )
    assert slow == api_calls
