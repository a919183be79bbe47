"""Shared sample-execution harness.

Every phase runs guest programs the same way: clone a pristine environment,
spawn a low-integrity process (malware's state at initial infection), attach
the dispatcher (optionally with interceptors), execute under a step budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Tuple

from .. import obs
from ..tracing.trace import Trace
from ..vm.cpu import CPU, ExitStatus
from ..vm.program import Program
from ..winapi.dispatcher import Dispatcher, Interceptor
from ..winenv.acl import IntegrityLevel
from ..winenv.environment import SystemEnvironment

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .snapshot import VmSnapshot

#: Default per-run instruction budget (the paper's 1-minute cap analogue).
DEFAULT_BUDGET = 100_000


@dataclass
class RunResult:
    """Everything one guest run produced."""

    trace: Trace
    cpu: CPU
    environment: SystemEnvironment

    @property
    def process(self):
        return self.cpu.process


def run_sample(
    program: Program,
    environment: Optional[SystemEnvironment] = None,
    interceptors: Optional[Iterable[Interceptor]] = None,
    max_steps: int = DEFAULT_BUDGET,
    record_instructions: bool = True,
    integrity: IntegrityLevel = IntegrityLevel.MEDIUM,
    clone_environment: bool = True,
    taint_addresses: bool = False,
    on_cpu: Optional[Callable[[CPU], None]] = None,
) -> RunResult:
    """Execute ``program`` in a fresh (or supplied) environment.

    ``clone_environment`` keeps the caller's environment pristine so repeated
    runs are reproducible — the property trace alignment depends on.
    Malware runs at MEDIUM integrity (launched by the logged-in user at
    initial infection); vaccine resources are SYSTEM-owned, so they still
    out-rank it.

    ``on_cpu`` is called with the constructed CPU before execution starts —
    the hook interceptors that need machine state (the snapshot recorder)
    use to bind themselves to the run.
    """
    if environment is None:
        env = SystemEnvironment()
    elif clone_environment:
        env = environment.clone()
    else:
        env = environment
    process = env.spawn_process(
        f"{program.name}.exe", image_path=f"c:\\temp\\{program.name}.exe", integrity=integrity
    )
    all_interceptors = list(env.global_interceptors)
    all_interceptors.extend(interceptors or [])
    dispatcher = Dispatcher(env, process, interceptors=all_interceptors)
    cpu = CPU(
        program,
        environment=env,
        process=process,
        dispatcher=dispatcher,
        max_steps=max_steps,
        record_instructions=record_instructions,
        taint_addresses=taint_addresses,
    )
    if on_cpu is not None:
        on_cpu(cpu)
    trace = cpu.run()
    if obs.metrics.enabled and cpu.status is ExitStatus.BUDGET:
        obs.metrics.counter("runner.budget_exhausted").inc()
    return RunResult(trace=trace, cpu=cpu, environment=env)


def resume_sample(
    program: Program,
    snapshot: "VmSnapshot",
    interceptors: Optional[Iterable[Interceptor]] = None,
    max_steps: int = DEFAULT_BUDGET,
) -> RunResult:
    """Resume ``program`` unrecorded from a mid-run :class:`VmSnapshot`.

    The counterpart of :func:`run_sample` for Phase-II mutated runs: the
    restored state already contains the environment evolved through the
    shared prefix, so only the divergent suffix executes.  The returned
    trace is a *complete* trace (prefix events + suffix events) — alignment
    and delta classification consume it exactly like a full rerun's.
    """
    cpu = snapshot.build_cpu(program, interceptors=interceptors, max_steps=max_steps)
    trace = cpu.run()
    if obs.metrics.enabled:
        obs.metrics.counter("runner.resumes").inc()
        obs.metrics.counter("runner.instructions_skipped").inc(snapshot.steps)
        if cpu.status is ExitStatus.BUDGET:
            obs.metrics.counter("runner.budget_exhausted").inc()
    return RunResult(trace=trace, cpu=cpu, environment=cpu.environment)
