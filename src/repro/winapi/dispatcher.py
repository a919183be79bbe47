"""API dispatcher: the single choke point between guest code and the
environment.

This is where DynamoRIO-style instrumentation lives in the reproduction:
argument capture, identifier resolution through the labelling DB, taint
minting, event logging with calling context — and *interception*, used both by
Phase-II impact analysis (mutate one API's result) and by the Phase-III
vaccine daemon (block matching identifiers at runtime).
"""

from __future__ import annotations

import enum
import time
from collections import Counter
from typing import Iterable, List, Optional, Protocol

from .. import obs
from ..taint.labels import EMPTY, union
from ..tracing.events import ApiCallEvent
from ..vm.cpu import CpuFault
from ..winenv.environment import SystemEnvironment
from ..winenv.errors import NtStatus, ResourceFault, Win32Error
from ..winenv.objects import HandleKind, Resource
from ..winenv.processes import Process
from ..winenv.registry import normalize_key
from .context import ApiContext
from .labels import HIVE_NAMES, REGISTRY, ApiDef, Calling, Returns, lookup


class Interception(enum.Enum):
    """An interceptor's verdict on one API call."""

    PASS = "pass"
    FORCE_FAIL = "force_fail"
    #: Fail with an already-exists flavour (simulating the marker's presence
    #: against a *create* operation).
    FORCE_FAIL_EXISTS = "force_fail_exists"
    FORCE_SUCCESS = "force_success"


class Interceptor(Protocol):
    """Implemented by mutation specs (Phase II) and the vaccine daemon."""

    def intercept(self, apidef: ApiDef, event: ApiCallEvent) -> Interception:
        ...  # pragma: no cover


class _FlushCache:
    """Counter handles reused across flush_obs() calls.

    Keyed by the registry generation: ``obs.reset()`` discards the families
    these handles point into, so a generation mismatch drops the cache."""

    __slots__ = ("generation", "handles")

    def __init__(self) -> None:
        self.generation = -1
        self.handles: dict = {}


_FLUSH_CACHE = _FlushCache()

#: api name -> ("api;Name", "api;Name;read_args").  Interned once: the
#: profiled invoke() path must not pay string formatting per call.
_API_PROF_PATHS: dict = {}


class Dispatcher:
    """Executes ``call @Api`` instructions against a SystemEnvironment."""

    def __init__(
        self,
        environment: SystemEnvironment,
        process: Process,
        interceptors: Optional[Iterable[Interceptor]] = None,
    ) -> None:
        self.env = environment
        self.process = process
        self.interceptors: List[Interceptor] = list(interceptors or [])
        # Observability is sampled once per dispatcher (== once per guest
        # run).  The invoke() hot path records nothing extra: per-API
        # counters are derived from the event log in flush_obs() at end of
        # run (the cheap-hook rule — the trace already has every field).
        self._obs_enabled = obs.metrics.enabled
        # Hot-path profiler handle, or None: invoke() pays exactly one
        # attribute load when profiling is off.
        self._prof = obs.prof if obs.prof.enabled else None

    def add_interceptor(self, interceptor: Interceptor) -> None:
        self.interceptors.append(interceptor)

    # ------------------------------------------------------------------

    def invoke(self, cpu, name: str, caller_pc: int, seq: int) -> None:
        """Execute one ``call @Api``: pre-read the declared arguments,
        resolve the identifier, offer the event to the interceptors, run the
        handler (or the forced outcome), then set ``eax``, last-error and
        the stdcall stack pop.

        Recorded and unrecorded runs share this one path.  Minting taint
        sits behind ``cpu.record_instructions``; the register def/use
        records of ``eax``/``esp`` and the API pseudo-step's
        ``InstructionRecord`` sit behind ``cpu.def_use``.  A run without
        def/use records writes ``eax`` and the stack pop straight into
        ``cpu.regs``.

        Under profiling the handler's time goes to ``api;<Name>``, less what
        nested timers (a snapshot capture, the daemon's rule match) recorded
        themselves, and is claimed from the slow step that called it (see
        :mod:`repro.obs.prof`).
        """
        apidef = REGISTRY.get(name)
        if apidef is None:
            # An unresolvable import is a *guest* fault (crashed process),
            # not a host error.
            raise CpuFault(f"unknown API {name!r}; is repro.winapi imported?") from None
        prof = self._prof
        if prof is not None:
            nested0 = prof.nested
            t_start = time.perf_counter()
        args_seconds = 0.0
        trace = cpu.trace
        event_id = trace.next_event_id()
        ctx = ApiContext(cpu, self.env, self.process, apidef, event_id)

        # Pre-read the declared arguments (records their stack-slot uses).
        if apidef.argc:
            if prof is not None:
                t0 = time.perf_counter()
                ctx.prefetch_args(apidef.argc)
                args_seconds = time.perf_counter() - t0
            else:
                ctx.prefetch_args(apidef.argc)

        event = ApiCallEvent(
            event_id=event_id,
            seq=seq,
            api=name,
            caller_pc=caller_pc,
            args=tuple(ctx.args),
            callstack=tuple(cpu.callstack),
            resource_type=apidef.resource_type,
            operation=apidef.operation,
        )
        if apidef.resolves_identifier:
            self._resolve_identifier(ctx, apidef, event)

        verdict = Interception.PASS
        hit: Optional[Interceptor] = None
        for interceptor in self.interceptors:
            verdict = interceptor.intercept(apidef, event)
            if verdict is not Interception.PASS:
                event.mutated = True
                hit = interceptor
                break

        if verdict is Interception.PASS:
            try:
                retval = apidef.impl(ctx)
                retval = int(retval) if retval is not None else 0
                success, error = True, 0
            except ResourceFault as fault:
                retval = apidef.failure.retval
                # NT APIs return the specific status; Win32 APIs use the
                # labelled failure retval and report detail via GetLastError.
                if apidef.returns is Returns.NTSTATUS:
                    retval = _nt_status_for(fault.error)
                success, error = False, int(fault.error)
        else:
            retval, success, error = self._forced_outcome(ctx, apidef, event, verdict)

        event.retval = retval
        event.success = success
        event.error = error
        trace.api_calls.append(event)

        record = cpu.record_instructions
        tag = ctx.mint_tag() if record and apidef.taint_class is not None else EMPTY
        if not success:
            ctx.set_last_error(error, tag)
        elif not ctx.explicit_last_error:
            ctx.set_last_error(0, EMPTY)

        def_use = cpu.def_use
        if def_use:
            # Return value in eax, tainted per the label.
            cpu.set_reg("eax", retval, union(tag, ctx.retval_taint))
            # stdcall: callee pops its arguments.
            if apidef.calling is Calling.STDCALL:
                esp, esp_taint = cpu.get_reg("esp")
                cpu.set_reg("esp", esp + 4 * apidef.argc, esp_taint)
        else:
            regs = cpu.regs
            regs["eax"] = retval & 0xFFFFFFFF
            cpu.reg_taint["eax"] = (
                union(tag, ctx.retval_taint) if tag else ctx.retval_taint or EMPTY
            )
            if apidef.stack_pop:
                regs["esp"] = (regs["esp"] + apidef.stack_pop) & 0xFFFFFFFF

        if event.identifier is None and ctx.identifier is not None:
            # Implementations may resolve identifiers themselves (OpenProcess).
            event.identifier = ctx.identifier
            event.identifier_taints = ctx.identifier_taints
        if ctx.operation_override is not None:
            event.operation = ctx.operation_override
        if ctx.extra:
            event.extra.update(ctx.extra)
        if obs.flight.enabled:
            self._flight_record(event, tag, verdict, hit)
        if def_use:
            cpu.record_api_step(seq=seq, pc=caller_pc, text=f"call @{name}", event_id=event_id)
        if prof is not None:
            # Handler total; the argument pre-read is split out as a child so
            # the handler node's *self* time is its body cost.
            paths = _API_PROF_PATHS.get(name)
            if paths is None:
                paths = _API_PROF_PATHS[name] = (
                    f"api;{name}",
                    f"api;{name};read_args",
                )
            elapsed = time.perf_counter() - t_start
            prof.add_nested(paths[0], elapsed - (prof.nested - nested0))
            if args_seconds:
                prof.add(paths[1], args_seconds)

    @staticmethod
    def _flight_record(event: ApiCallEvent, tag, verdict: Interception, hit) -> None:
        """Journal this API call into the flight recorder (provenance roots).

        Three kinds, in priority order: an interception (the event the
        mutation/daemon acted on), a taint seed (the event whose tag can
        reach branch predicates), or a plain identified resource access.
        Unlabelled, untainted, uninstrumented calls stay off the journal.
        """
        flight = obs.flight
        if not event.mutated:
            if not tag and (event.resource_type is None or event.identifier is None):
                return
            if flight.recall(("api", event.event_id)) is not None:
                # Re-runs (capture, resumed mutations, determinism) replay
                # the same trace event ids; the first-wins binding below
                # already journaled this call, so a duplicate would add no
                # provenance.
                return
        if event.mutated:
            flight_id = flight.record(
                "api.intercept",
                causes=(
                    getattr(hit, "flight_id", None),
                    flight.recall(("api", event.event_id)),
                ),
                api=event.api,
                identifier=event.identifier,
                verdict=verdict.value,
                success=event.success,
                trace_event_id=event.event_id,
            )
        elif tag:
            flight_id = flight.record(
                "api.taint_seed",
                api=event.api,
                identifier=event.identifier,
                resource=event.resource_type.value if event.resource_type else None,
                success=event.success,
                trace_event_id=event.event_id,
            )
        else:
            flight_id = flight.record(
                "api.call",
                api=event.api,
                identifier=event.identifier,
                resource=event.resource_type.value,
                operation=event.operation.value if event.operation else None,
                success=event.success,
                trace_event_id=event.event_id,
            )
        # First-wins: the phase-1 run's binding is canonical (capture and
        # resumed runs replay the same event ids — see repro.core.snapshot).
        flight.remember(("api", event.event_id), flight_id)

    def flush_obs(self, api_calls: Iterable[ApiCallEvent]) -> None:
        """Publish per-API call counts into the metrics registry — the
        §VI-B / Figure 3 accounting the paper derives from its DynamoRIO
        hook log.  Called once per guest run (see ``CPU._flush_obs``) with
        the run's event log; aggregation happens here, off the hot path,
        through a generation-checked handle cache (registry label lookups
        are ~10x a dict get, and the label universe is small and stable)."""
        if not self._obs_enabled:
            return
        counts = Counter(
            (e.api, e.success, e.resource_type, e.operation, e.mutated)
            for e in api_calls
        )
        metrics = obs.metrics
        cache = _FLUSH_CACHE
        if cache.generation != metrics.generation:
            cache.generation = metrics.generation
            cache.handles = {}
        handles = cache.handles
        for key, n in counts.items():
            triple = handles.get(key)
            if triple is None:
                name, success, rtype, op, mutated = key
                triple = (
                    metrics.counter(
                        "winapi.calls",
                        api=name,
                        outcome="success" if success else "failure",
                    ),
                    metrics.counter(
                        "winapi.resource_ops", resource=rtype.value, operation=op.value
                    )
                    if rtype is not None and op is not None
                    else None,
                    metrics.counter("winapi.intercepted", api=name) if mutated else None,
                )
                handles[key] = triple
            calls, resource_ops, intercepted = triple
            calls.inc(n)
            if resource_ops is not None:
                resource_ops.inc(n)
            if intercepted is not None:
                intercepted.inc(n)

    # ------------------------------------------------------------------

    def _resolve_identifier(self, ctx: ApiContext, apidef: ApiDef, event: ApiCallEvent) -> None:
        if apidef.identifier_arg is not None:
            addr = ctx.arg(apidef.identifier_arg)
            if addr:
                text, taints = ctx.read_string(addr)
                ctx.identifier, ctx.identifier_taints = text, taints
                event.identifier, event.identifier_taints = text, taints
                event.extra["identifier_addr"] = addr
        elif apidef.registry_path_args is not None:
            hkey_arg, subkey_arg = apidef.registry_path_args
            hkey = ctx.arg(hkey_arg)
            subkey, taints = ctx.read_string_arg(subkey_arg)
            base = None
            if hkey in HIVE_NAMES:
                base = HIVE_NAMES[hkey]
            else:
                handle = self.process.handles.get(hkey)
                if handle is not None and handle.resource is not None:
                    base = handle.resource.name
            if base is not None:
                full = normalize_key(f"{base}\\{subkey}") if subkey else normalize_key(base)
                ctx.identifier, ctx.identifier_taints = full, taints
                event.identifier, event.identifier_taints = full, taints
                event.extra["identifier_addr"] = ctx.arg(subkey_arg)
        elif apidef.identifier_handle_arg is not None:
            value = ctx.arg(apidef.identifier_handle_arg)
            handle = self.process.handles.get(value)
            if handle is not None and handle.resource is not None:
                ctx.identifier = handle.resource.identifier
                event.identifier = ctx.identifier
                origin = handle.state.get("opened_by_event")
                if origin is not None:
                    event.extra["origin_event"] = origin

    def _forced_outcome(self, ctx, apidef: ApiDef, event: ApiCallEvent, verdict: Interception):
        """An interceptor's verdict in place of the implementation.

        Returns ``(retval, success, error)`` following the API's labelled
        encodings.
        """
        if verdict is Interception.FORCE_FAIL:
            return apidef.failure.retval, False, int(apidef.failure.last_error)

        if verdict is Interception.FORCE_FAIL_EXISTS:
            error = (
                Win32Error.FILE_EXISTS if "File" in apidef.name else Win32Error.ALREADY_EXISTS
            )
            retval = apidef.failure.retval
            if apidef.returns is Returns.NTSTATUS:
                retval = _nt_status_for(error)
            return retval, False, int(error)

        return self._fabricate_success(ctx, apidef, event), True, 0

    def _fabricate_success(self, ctx: ApiContext, apidef: ApiDef, event: ApiCallEvent) -> int:
        """Simulate success without touching the environment.

        Used when impact analysis tests "what if the resource were present":
        e.g. a phantom mutex handle makes ``OpenMutex`` appear to succeed.
        """
        if apidef.returns is Returns.HANDLE:
            phantom: Optional[Resource] = None
            if apidef.resource_type is not None and ctx.identifier:
                phantom = Resource(name=ctx.identifier, rtype=apidef.resource_type)
            kind = _PHANTOM_KINDS.get(
                apidef.resource_type.value if apidef.resource_type else "", HandleKind.FILE
            )
            handle = ctx.alloc_handle(kind, phantom)
            handle.state["phantom"] = True
            return handle.value
        if apidef.returns is Returns.BOOL:
            return 1
        if apidef.returns in (Returns.NTSTATUS, Returns.ERRCODE):
            return 0
        return 1


_PHANTOM_KINDS = {
    "file": HandleKind.FILE,
    "registry": HandleKind.REGISTRY,
    "mutex": HandleKind.MUTEX,
    "process": HandleKind.PROCESS,
    "service": HandleKind.SERVICE,
    "window": HandleKind.WINDOW,
    "library": HandleKind.LIBRARY,
}


_NT_STATUS_FOR = {
    Win32Error.FILE_NOT_FOUND: NtStatus.OBJECT_NAME_NOT_FOUND,
    Win32Error.PATH_NOT_FOUND: NtStatus.OBJECT_PATH_NOT_FOUND,
    Win32Error.ACCESS_DENIED: NtStatus.ACCESS_DENIED,
    Win32Error.FILE_EXISTS: NtStatus.OBJECT_NAME_COLLISION,
    Win32Error.ALREADY_EXISTS: NtStatus.OBJECT_NAME_COLLISION,
    Win32Error.INVALID_HANDLE: NtStatus.INVALID_HANDLE,
    Win32Error.SHARING_VIOLATION: NtStatus.SHARING_VIOLATION,
}


def _nt_status_for(error: Win32Error) -> int:
    return int(_NT_STATUS_FOR.get(error, NtStatus.UNSUCCESSFUL))
