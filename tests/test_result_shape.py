"""A ``SampleAnalysis`` is data, whichever way it was produced.

The six families and the golden 60-sample population are analysed in
process (``jobs=1``), by worker processes (``jobs=2``) and from a warm
result cache.  Every result must hold the same fields, with the same
None-ness, as its own codec round trip, and no machine state: the only way
to a ``CPU``, a ``SystemEnvironment`` or a def/use record is through
``program``.
"""

from __future__ import annotations

import dataclasses
import gc
import types

import pytest

from repro.analysis.alignment import AlignmentResult
from repro.core import AutoVac
from repro.core.candidate import run_phase1
from repro.core.runner import RunResult
from repro.corpus import FAMILIES, GeneratorConfig, build_family, generate_population
from repro.taint.backward import BackwardResult
from repro.tracing import serialize
from repro.tracing.events import InstructionRecord
from repro.vm.cpu import CPU
from repro.vm.memory import Memory
from repro.winenv.environment import SystemEnvironment

#: Golden population (``tests/test_golden.py``).
POPULATION = GeneratorConfig(size=60, seed=42)

#: Fields the codec does not ship: a decoded ``program`` is a
#: name-and-metadata stub, and flight ids are process-local journal ids.
UNSHIPPED = {"program", "flight_id"}

MACHINE_STATE = (
    CPU,
    Memory,
    SystemEnvironment,
    RunResult,
    AlignmentResult,
    BackwardResult,
    InstructionRecord,
)

#: Objects whose references lead out of the result into shared program
#: state (classes, modules, code), not into data the result holds.
_NOT_DATA = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.CodeType,
)


def shape(value):
    """Public dataclass field names, recursively, with None-ness at the
    leaves."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: shape(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if not f.name.startswith("_") and f.name not in UNSHIPPED
        }
    if isinstance(value, dict):
        return {key: shape(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [shape(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((shape(item) for item in value), key=repr)
    return None if value is None else "set"


def machine_state(analysis) -> set:
    """Names of the machine-state types reachable from ``analysis``
    other than through its ``program``."""
    seen = {id(analysis.program)}
    stack = [analysis]
    found = set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _NOT_DATA):
            continue
        seen.add(id(obj))
        if isinstance(obj, MACHINE_STATE):
            found.add(type(obj).__name__)
        stack.extend(gc.get_referents(obj))
    return found


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    programs = [build_family(name) for name in sorted(FAMILIES)] + [
        sample.program for sample in generate_population(POPULATION)
    ]
    cache = tmp_path_factory.mktemp("cache")
    autovac = AutoVac()
    in_process = autovac.analyze_population(programs)
    workers = autovac.analyze_population(programs, jobs=2, cache=cache)
    cached = autovac.analyze_population(programs, cache=cache)
    for result in (in_process, workers, cached):
        assert not result.failures
        assert len(result.analyses) == len(programs)
    return {"jobs=1": in_process, "jobs=2": workers, "warm cache": cached}


@pytest.mark.parametrize("mode", ["jobs=1", "jobs=2", "warm cache"])
def test_result_holds_what_its_codec_ships(results, mode):
    for analysis in results[mode].analyses:
        decoded = serialize.analysis_from_dict(serialize.analysis_to_dict(analysis))
        assert shape(analysis) == shape(decoded), analysis.program.name


@pytest.mark.parametrize("mode", ["jobs=1", "jobs=2", "warm cache"])
def test_result_holds_no_machine_state(results, mode):
    for analysis in results[mode].analyses:
        assert machine_state(analysis) == set(), analysis.program.name


def test_the_walk_finds_machine_state():
    """Guard against a vacuous walk: Phase I's run, held next to a
    program, is found."""
    program = build_family("zeus")
    holder = types.SimpleNamespace(program=program, run=run_phase1(program))
    assert {"CPU", "Memory", "SystemEnvironment", "RunResult"} <= machine_state(holder)
