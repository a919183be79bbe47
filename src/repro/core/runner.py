"""Shared sample-execution harness.

Every phase runs guest programs the same way: clone a pristine environment,
spawn a low-integrity process (malware's state at initial infection), attach
the dispatcher (optionally with interceptors), execute under a step budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .. import obs
from ..tracing.events import ApiCallEvent
from ..tracing.trace import Trace
from ..vm.cpu import CPU, ExitStatus
from ..vm.program import Program
from ..winapi.dispatcher import Dispatcher, Interception, Interceptor
from ..winenv.acl import IntegrityLevel
from ..winenv.environment import SystemEnvironment

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..winapi.labels import ApiDef
    from .snapshot import VmSnapshot

#: Default per-run instruction budget (the paper's 1-minute cap analogue).
DEFAULT_BUDGET = 100_000


@dataclass
class RunResult:
    """Everything one guest run produced."""

    trace: Trace
    cpu: CPU
    environment: SystemEnvironment
    #: The environment the run's machine was cloned from, left as it was
    #: (``None``: a fresh default machine) — what :func:`record_prefix`
    #: repeats the run on.
    pristine: Optional[SystemEnvironment] = None

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
    def_use: bool = True,
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

    ``record_instructions`` runs with taint and def/use records;
    ``def_use=False`` drops the records and keeps the taint (Phase I).  A
    backward slice over such a run re-records the prefix it needs with
    :func:`record_prefix`, so the run must be repeatable: it may not run on
    the caller's environment in place.
    """
    if environment is None:
        env = SystemEnvironment()
    elif clone_environment:
        env = environment.clone()
    elif not def_use and record_instructions:
        raise ValueError("a run without def/use records must clone its environment")
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
        def_use=def_use,
    )
    if on_cpu is not None:
        on_cpu(cpu)
    trace = cpu.run()
    if obs.metrics.enabled and cpu.status is ExitStatus.BUDGET:
        obs.metrics.counter("runner.budget_exhausted").inc()
    return RunResult(
        trace=trace,
        cpu=cpu,
        environment=env,
        pristine=environment if env is not environment else None,
    )


class _PrefixRecorded(Exception):
    """Raised by :class:`_StopBefore` at the sliced API call: every def/use
    record a backward slice from that call reads is in the trace."""


class _StopBefore:
    """Interceptor ending a run at one API call, before it executes; it
    keeps the run's trace, never the CPU, so the run's machine is freed by
    reference counting."""

    def __init__(self, event_id: int) -> None:
        self.event_id = event_id
        self.trace: Optional[Trace] = None

    def bind(self, cpu: CPU) -> None:
        self.trace = cpu.trace

    def intercept(self, apidef: "ApiDef", event: ApiCallEvent) -> Interception:
        if event.event_id == self.event_id:
            raise _PrefixRecorded
        return Interception.PASS


def record_prefix(program: Program, run: RunResult, event: ApiCallEvent) -> Trace:
    """The def/use records of ``run`` up to the API call ``event``.

    ``run`` recorded taint but no def/use records (Phase I).  The sample
    runs again on ``run``'s pristine environment with the same budget,
    integrity and pointer-taint policy, with records on, and stops when it
    reaches ``event`` — the same call, since the machine is deterministic.
    The returned trace holds every record before that call and the API
    events that produced them, which is all a backward slice from
    ``event`` reads.  Under profiling the re-run is one ``slice_rerun``
    node with its own ``vm;*`` and ``api;*`` children.
    """
    stop = _StopBefore(event.event_id)
    prof = obs.prof
    outer = prof.prefix
    prof.prefix = outer + "slice_rerun;"
    started = time.perf_counter()
    try:
        run_sample(
            program,
            environment=run.pristine,
            interceptors=[stop],
            max_steps=run.cpu.max_steps,
            integrity=run.process.integrity,
            taint_addresses=run.cpu.taint_addresses,
            on_cpu=stop.bind,
        )
    except _PrefixRecorded:
        pass
    finally:
        prof.prefix = outer
        prof.add("slice_rerun", time.perf_counter() - started)
    return stop.trace


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
