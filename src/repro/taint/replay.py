"""Slice replay: regenerate an algorithm-deterministic identifier on a
(possibly different) target machine.

Strategy selection is automatic:

* **Per-instance replay** (loop-free slices): execute each recorded instance
  in order, pinning ``esp``/``ebp`` to the recorded values and re-dispatching
  API pseudo-steps against the *target* environment — ``GetComputerNameA``
  yields the target's name, the formatting instructions rebuild the
  identifier from it.
* **Forced re-execution** (slices with loops, e.g. hashing a variable-length
  computer name): the whole original program re-runs in a sandbox on the
  target, with every resource-API call site forced to its outcome from the
  analysis run (so an already-injected vaccine or other environment deltas
  cannot divert the path), and stops the moment the target call site consumes
  the regenerated identifier.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..tracing.events import ApiCallEvent
from ..vm.assembler import assemble
from ..vm.cpu import CPU, ExitStatus
from ..vm.memory import TEXT_BASE
from ..vm.program import Program
from ..winenv.acl import IntegrityLevel
from ..winenv.environment import SystemEnvironment
from .slicing import VaccineSlice


class SliceReplayError(Exception):
    """Replay could not complete (missing instruction, guest fault …)."""


def replay_slice(
    slice_: VaccineSlice,
    environment: SystemEnvironment,
    max_steps: Optional[int] = None,
    program: Optional[Program] = None,
) -> str:
    """Execute the slice against ``environment``; return the regenerated
    identifier string.

    ``program``, when given and textually identical to the slice's recorded
    source, is executed directly instead of re-assembling — replay-validation
    during analysis then reuses the sample's decode cache (a target-machine
    daemon has only the source and still assembles)."""
    if slice_.requires_reexecution and slice_.target_api:
        return _forced_reexecution(slice_, environment, max_steps, program)
    return _replay_instances(slice_, environment, max_steps, program)


def _slice_program(slice_: VaccineSlice, program: Optional[Program], suffix: str) -> Program:
    if program is not None and program.source == slice_.program_source:
        return program
    return assemble(slice_.program_source, name=f"{slice_.program_name}-{suffix}")


# ---------------------------------------------------------------------------
# strategy 1: straight-line per-instance replay
# ---------------------------------------------------------------------------

def _replay_instances(
    slice_: VaccineSlice,
    environment: SystemEnvironment,
    max_steps: Optional[int],
    original: Optional[Program] = None,
) -> str:
    from ..winapi.dispatcher import Dispatcher

    program = _slice_program(slice_, original, "slice")
    process = environment.spawn_process("vaccine-slice.exe", integrity=IntegrityLevel.SYSTEM)
    dispatcher = Dispatcher(environment, process)
    cpu = CPU(
        program,
        environment=environment,
        process=process,
        dispatcher=dispatcher,
        record_instructions=False,
    )

    budget = max_steps if max_steps is not None else max(10_000, 4 * len(slice_.steps))
    if len(slice_.steps) > budget:
        raise SliceReplayError("replay budget exhausted")
    for i, step in enumerate(slice_.steps):
        cpu.regs["esp"] = step.esp
        cpu.regs["ebp"] = step.ebp
        cpu.pc = step.pc
        if step.api is not None:
            dispatcher.invoke(cpu, step.api, caller_pc=step.pc, seq=i)
            continue
        idx = step.pc - TEXT_BASE
        if not 0 <= idx < len(cpu._decoded):
            raise SliceReplayError(f"no instruction at pc 0x{step.pc:08x}")
        try:
            cpu._decoded[idx][0](cpu, step.pc, i)
        except Exception as exc:  # MemoryFault / CpuFault
            raise SliceReplayError(f"replay fault at 0x{step.pc:08x}: {exc}") from exc

    try:
        text, _ = cpu.memory.read_cstring(slice_.output_addr)
    except Exception as exc:  # MemoryFault: bad/unset output address
        raise SliceReplayError(f"cannot read slice output: {exc}") from exc
    if not text:
        raise SliceReplayError("slice produced an empty identifier")
    return text


# ---------------------------------------------------------------------------
# strategy 2: forced re-execution up to the consuming call site
# ---------------------------------------------------------------------------

class _IdentifierCaptured(Exception):
    def __init__(self, identifier: str) -> None:
        super().__init__(identifier)
        self.identifier = identifier


class _ForcedPathInterceptor:
    """Pins resource-API outcomes and captures the target identifier."""

    def __init__(self, slice_: VaccineSlice) -> None:
        from ..winapi.dispatcher import Interception

        self._interception = Interception
        self.target = (slice_.target_api, slice_.target_caller_pc)
        self.target_occurrence = slice_.target_occurrence
        self._target_seen = 0
        self._outcomes: Dict[Tuple[str, int], List[bool]] = {}
        for pin in slice_.pinned_outcomes:
            self._outcomes.setdefault((pin.api, pin.caller_pc), []).append(pin.success)
        self._cursor: Dict[Tuple[str, int], int] = {}

    def intercept(self, apidef, event: ApiCallEvent):
        key = (event.api, event.caller_pc)
        if key == self.target:
            if self._target_seen == self.target_occurrence:
                raise _IdentifierCaptured(event.identifier or "")
            self._target_seen += 1
        if apidef.resource_type is None:
            return self._interception.PASS
        outcomes = self._outcomes.get(key)
        if not outcomes:
            return self._interception.PASS
        i = self._cursor.get(key, 0)
        self._cursor[key] = i + 1
        success = outcomes[min(i, len(outcomes) - 1)]
        return self._interception.FORCE_SUCCESS if success else self._interception.FORCE_FAIL


def _forced_reexecution(
    slice_: VaccineSlice,
    environment: SystemEnvironment,
    max_steps: Optional[int],
    original: Optional[Program] = None,
) -> str:
    from ..winapi.dispatcher import Dispatcher

    program = _slice_program(slice_, original, "reexec")
    sandbox = environment.clone()
    sandbox.global_interceptors = []  # a deployed daemon must not see this run
    process = sandbox.spawn_process("vaccine-reexec.exe", integrity=IntegrityLevel.LOW)
    interceptor = _ForcedPathInterceptor(slice_)
    dispatcher = Dispatcher(sandbox, process, interceptors=[interceptor])
    cpu = CPU(
        program,
        environment=sandbox,
        process=process,
        dispatcher=dispatcher,
        max_steps=max_steps if max_steps is not None else 500_000,
        record_instructions=False,
    )
    try:
        cpu.run()
    except _IdentifierCaptured as captured:
        if not captured.identifier:
            raise SliceReplayError("target call site carried no identifier")
        return captured.identifier
    raise SliceReplayError(
        f"re-execution never reached {slice_.target_api}@0x{slice_.target_caller_pc:x} "
        f"(exit: {cpu.status.value})"
    )
