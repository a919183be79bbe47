"""Backward taint tracking over a recorded trace (paper §IV-C).

Starting from the bytes of a resource identifier at the moment the labelled
API consumed it, walk the instruction trace backward collecting every
execution instance that contributed to those bytes, until all remaining
demands terminate at a *root cause*:

* a read-only / initialized-data byte (``.rdata``/``.data``) → **static**,
* a never-defined location (zeroed stack, zeroed register) → **constant**,
* an API pseudo-step → classified by the API's taint class
  (``GetComputerNameA`` → deterministic environment input;
  ``GetTickCount`` → random).

The result doubles as the *dynamic program slice* for the identifier
generation logic: replaying the included instances (with esp/ebp pinned to
their recorded values) on another machine regenerates the identifier there —
the paper's Inspector-Gadget-style vaccine slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .. import obs
from ..tracing.events import ApiCallEvent, InstructionRecord
from ..tracing.trace import Trace
from ..winapi.labels import REGISTRY
from .labels import TaintClass

#: Register/flag locations never chased (stack discipline is pinned instead).
_UNCHASED = {("reg", "esp"), ("reg", "ebp"), ("flags",)}


@dataclass
class BackwardResult:
    """Outcome of one backward walk."""

    #: Execution instances (forward order) contributing to the identifier.
    slice_records: List[InstructionRecord] = field(default_factory=list)
    #: APIs (by name) acting as deterministic environment sources.
    env_sources: List[str] = field(default_factory=list)
    #: APIs acting as random sources.
    random_sources: List[str] = field(default_factory=list)
    #: APIs acting as resource-data sources (file/registry contents).
    resource_sources: List[str] = field(default_factory=list)
    #: Demanded locations that terminated in read-only/initialized data.
    static_terminals: int = 0
    #: Demanded locations that terminated as never-written (zero constants).
    constant_terminals: int = 0
    #: Flight-recorder id of this walk's "slice.walk" event (process-local).
    flight_id: Optional[int] = None

    @property
    def has_env_sources(self) -> bool:
        return bool(self.env_sources)

    @property
    def has_random_sources(self) -> bool:
        return bool(self.random_sources or self.resource_sources)

    @property
    def is_pure_static(self) -> bool:
        return not self.env_sources and not self.has_random_sources


def identifier_locations(event: ApiCallEvent) -> Set[Tuple]:
    """Byte locations of the identifier string at call time."""
    addr = event.extra.get("identifier_addr")
    if addr is None or event.identifier is None:
        return set()
    return {("mem", addr + i) for i in range(len(event.identifier))}


def backward_slice(
    trace: Trace,
    event: ApiCallEvent,
    memory=None,
    start_locations: Optional[Set[Tuple]] = None,
) -> BackwardResult:
    """Backward taint tracking + dynamic slicing for ``event``'s identifier.

    ``memory`` (the CPU memory after the run) is used only to classify
    terminal addresses as read-only; pass ``cpu.memory``.
    """
    result = BackwardResult()
    workset: Set[Tuple] = set(start_locations or identifier_locations(event))
    if not workset:
        return result
    if not trace.instructions:
        raise ValueError(
            "trace has no def/use records; re-record the run's prefix with "
            "repro.core.runner.record_prefix(program, run, event)"
        )

    # Index of the consuming API step; the walk starts just before it.
    start_idx = len(trace.instructions)
    for i, record in enumerate(trace.instructions):
        if record.api_event_id == event.event_id:
            start_idx = i
            break

    picked: List[InstructionRecord] = []
    source_event_ids: List[int] = []
    for record in reversed(trace.instructions[:start_idx]):
        defs = set(record.defs)
        if not (defs & workset):
            continue
        picked.append(record)
        workset -= defs
        if record.api_event_id is not None:
            source = trace.event_by_id(record.api_event_id)
            klass = _api_class(source.api if source else "")
            if klass is TaintClass.ENV_DETERMINISTIC:
                result.env_sources.append(source.api)
                source_event_ids.append(record.api_event_id)
            elif klass is TaintClass.RANDOM:
                result.random_sources.append(source.api)
                source_event_ids.append(record.api_event_id)
            elif klass is TaintClass.RESOURCE:
                result.resource_sources.append(source.api)
                source_event_ids.append(record.api_event_id)
        # Note: uses are added *after* removing defs so read-modify-write
        # instructions (``add dst, src``) correctly chase dst's previous def.
        for use in record.uses:
            if use in _UNCHASED:
                continue
            workset.add(use)

    for location in workset:
        if location[0] == "mem" and memory is not None and memory.is_readonly(location[1]):
            result.static_terminals += 1
        elif location[0] == "mem" and _in_initialized_data(location[1]):
            result.static_terminals += 1
        else:
            result.constant_terminals += 1

    picked.reverse()
    result.slice_records = picked

    flight = obs.flight
    if flight.enabled:
        causes = [flight.recall(("api", event.event_id))]
        causes.extend(
            flight.recall(("api", source_id)) for source_id in source_event_ids
        )
        result.flight_id = flight.record(
            "slice.walk",
            causes=tuple(dict.fromkeys(c for c in causes if c is not None)),
            identifier=event.identifier,
            records=len(picked),
            env_sources=list(dict.fromkeys(result.env_sources)),
            random_sources=list(dict.fromkeys(result.random_sources)),
            resource_sources=list(dict.fromkeys(result.resource_sources)),
            static_terminals=result.static_terminals,
            constant_terminals=result.constant_terminals,
        )
    return result


def _api_class(api_name: str) -> Optional[TaintClass]:
    apidef = REGISTRY.get(api_name)
    return apidef.taint_class if apidef is not None else None


def _in_initialized_data(addr: int) -> bool:
    from ..vm.memory import DATA_BASE, RDATA_BASE

    return RDATA_BASE <= addr < RDATA_BASE + 0x10000 or DATA_BASE <= addr < DATA_BASE + 0x10000
