"""Flight recorder: one journal of analysis-causal events per sample.

``repro.obs`` answers *how fast* (metrics, the timing tree); this module
answers *why* — which API interception seeded the taint that reached which
branch, which mutation produced which trace divergence, why an identifier
was classed algorithm-deterministic.  Every pipeline decision point records a
:class:`FlightEvent` carrying the ids of the events that caused it, so each
sample's journal forms a provenance DAG walkable from a vaccine back to the
originating API call (``repro explain``).

Design constraints (mirroring the rest of ``repro.obs``):

* one process-global :class:`FlightRecorder` lives at ``obs.flight``;
  recording is a single ``enabled`` check plus a list append — the
  interpreter fast path never touches it, and emission sites on warmer
  paths (the API dispatcher, tainted predicates) guard on
  ``flight.enabled`` before building attrs;
* an event goes straight into the open sample's :class:`Journal`, whose ids
  count from 0, so a sample journals identically wherever (and in whichever
  worker process) it is analyzed; ``end_sample`` hands that journal back
  as it is;
* an event recorded while no window is open (the daemon's
  ``policy.violation`` on host runs) goes to a small bounded log
  (:data:`MAX_FLIGHT_EVENTS`) that drops the *oldest* events and counts
  them in ``recorder.dropped``;
* cross-layer correlation goes through ``remember(key, id)`` /
  ``recall(key)`` with **first-wins** semantics: trace event ids restart
  per run (the phase-1 run, the snapshot-capture run, and every resumed
  mutated run each count from their own origin), and first-wins makes the
  phase-1 timeline canonical — the capture run reproduces a prefix of it
  identically and resumed runs re-execute the interception call with the same rewound
  event id, so the first binding is the right one;
* worker and cache-hit journals travel inside the versioned
  ``SampleAnalysis`` codec; the parent keeps no copy of them.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

#: Capacity of the out-of-window log (events recorded while no sample
#: window is open).
MAX_FLIGHT_EVENTS = 1_024


class FlightEvent:
    """One causal event: what happened, what caused it, and details."""

    __slots__ = ("event_id", "kind", "causes", "attrs")

    def __init__(
        self,
        event_id: int,
        kind: str,
        causes: Tuple[int, ...] = (),
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.event_id = event_id
        self.kind = kind
        self.causes = causes
        self.attrs: Dict[str, object] = attrs if attrs is not None else {}

    def to_dict(self) -> dict:
        out: Dict[str, object] = {"id": self.event_id, "kind": self.kind}
        if self.causes:
            out["causes"] = list(self.causes)
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    @staticmethod
    def from_dict(data: dict) -> "FlightEvent":
        return FlightEvent(
            event_id=int(data["id"]),
            kind=str(data["kind"]),
            causes=tuple(int(c) for c in data.get("causes", ())),
            attrs=dict(data.get("attrs", {})),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"FlightEvent(e{self.event_id}, {self.kind!r}, causes={self.causes})"


class Journal:
    """One sample's slice of the flight log: an id-indexed provenance DAG."""

    __slots__ = ("sample", "events", "_by_id")

    def __init__(self, sample: str, events: List[FlightEvent]) -> None:
        self.sample = sample
        self.events = events
        self._by_id: Optional[Dict[int, FlightEvent]] = None

    def __len__(self) -> int:
        return len(self.events)

    def get(self, event_id: int) -> Optional[FlightEvent]:
        if self._by_id is None:
            self._by_id = {e.event_id: e for e in self.events}
        return self._by_id.get(event_id)

    def find(self, kind: Optional[str] = None, **attrs: object) -> List[FlightEvent]:
        """Events matching ``kind`` (exact) and every given attr (equality)."""
        out = []
        for event in self.events:
            if kind is not None and event.kind != kind:
                continue
            if all(event.attrs.get(k) == v for k, v in attrs.items()):
                out.append(event)
        return out

    def ancestors(self, event_id: int) -> List[int]:
        """Every event id reachable backwards from ``event_id`` (inclusive),
        in discovery order — the full evidence set behind one decision."""
        seen: List[int] = []
        seen_set = set()
        stack = [event_id]
        while stack:
            current = stack.pop(0)
            if current in seen_set:
                continue
            seen_set.add(current)
            event = self.get(current)
            if event is None:
                continue
            seen.append(current)
            stack.extend(event.causes)
        return seen

    def to_dict(self) -> dict:
        return {"sample": self.sample, "events": [e.to_dict() for e in self.events]}

    @staticmethod
    def from_dict(data: dict) -> "Journal":
        return Journal(
            sample=str(data.get("sample", "")),
            events=[FlightEvent.from_dict(e) for e in data.get("events", ())],
        )


class FlightRecorder:
    """Process-global event journal. Lives at ``obs.flight``."""

    def __init__(self, capacity: int = MAX_FLIGHT_EVENTS) -> None:
        self.enabled = True
        #: Out-of-window events the bounded log has pushed out.
        self.dropped = 0
        #: The open sample's journal (None between samples).
        self.window: Optional[Journal] = None
        self._outside: deque = deque(maxlen=capacity)
        #: Cross-layer correlation map; see module docstring (first-wins).
        self._corr: Dict[tuple, int] = {}

    # -- recording ---------------------------------------------------------

    def record(
        self, kind: str, causes: Iterable[Optional[int]] = (), **attrs: object
    ) -> Optional[int]:
        """Journal one event; returns its id, or None while disabled.

        ``causes`` may contain None entries (failed ``recall``) — they are
        silently dropped so call sites can cite optional evidence inline.
        """
        if not self.enabled:
            return None
        causes = tuple(c for c in causes if c is not None)
        window = self.window
        if window is not None:
            events = window.events
            event_id = len(events)
            events.append(FlightEvent(event_id, kind, causes, attrs))
            return event_id
        # Out-of-window ids count every such event since the last reset.
        outside = self._outside
        event_id = self.dropped + len(outside)
        if len(outside) == outside.maxlen:
            self.dropped += 1
        outside.append(FlightEvent(event_id, kind, causes, attrs))
        return event_id

    def remember(self, key: tuple, event_id: Optional[int]) -> None:
        """Bind a correlation key to an event id — first binding wins."""
        if self.enabled and event_id is not None:
            self._corr.setdefault(key, event_id)

    def recall(self, key: tuple) -> Optional[int]:
        return self._corr.get(key)

    # -- per-sample windows ------------------------------------------------

    def begin_sample(self, sample: str) -> Optional[Journal]:
        """Open a fresh journal window for ``sample`` and return it as the
        token for :meth:`end_sample` (None while disabled).  Discards a
        window a failed analysis left open and clears the correlation map:
        nothing leaks across samples."""
        if not self.enabled:
            return None
        self._corr.clear()
        self.window = Journal(sample, [])
        return self.window

    def end_sample(self, token: Optional[Journal]) -> Optional[Journal]:
        """Close the open window and return ``token``, the journal
        :meth:`begin_sample` opened (None when disabled or the recorder was
        toggled off mid-window).  ``end_sample(None)`` just closes it."""
        self.window = None
        if token is None or not self.enabled:
            return None
        return token

    # -- housekeeping ------------------------------------------------------

    def outside_window(self) -> List[FlightEvent]:
        """Events recorded while no sample window was open, oldest first."""
        return list(self._outside)

    def reset(self) -> None:
        self._outside.clear()
        self._corr.clear()
        self.dropped = 0
        self.window = None


# ---------------------------------------------------------------------------
# rendering (the `repro explain` narrative)
# ---------------------------------------------------------------------------


def summarize_event(event: FlightEvent) -> str:
    """One-line human phrase for an event (kind-specific)."""
    a = event.attrs
    kind = event.kind
    if kind == "api.taint_seed":
        if a.get("resource"):
            what = f"checked {a.get('resource')} {a.get('identifier')!r}"
        else:
            what = "returned environment data"
        outcome = "succeeded" if a.get("success") else "failed"
        return f"API {a.get('api')} {what}, {outcome}, and seeded taint"
    if kind == "api.call":
        outcome = "succeeded" if a.get("success") else "failed"
        return f"API {a.get('api')} touched {a.get('resource')} {a.get('identifier')!r} and {outcome}"
    if kind == "api.intercept":
        return f"API {a.get('api')} intercepted -> {a.get('verdict')} (identifier {a.get('identifier')!r})"
    if kind == "predicate.tainted":
        return f"tainted branch predicate at pc=0x{a.get('pc', 0):x}: {a.get('instr')}"
    if kind == "candidate":
        flow = "influences control flow" if a.get("influences_control_flow") else "no control-flow influence"
        return f"candidate {a.get('resource')} {a.get('identifier')!r} ({flow})"
    if kind == "verdict.exclusiveness":
        word = "exclusive" if a.get("exclusive") else "not exclusive"
        return f"exclusiveness: {word} — {a.get('reason')}"
    if kind == "snapshot.capture":
        return f"guest snapshot captured at {a.get('api')} (identifier {a.get('identifier')!r})"
    if kind == "snapshot.resume":
        return f"mutated run resumed from snapshot ({a.get('mechanism')})"
    if kind == "mutation":
        how = "resumed from snapshot" if a.get("resumed") else "full rerun"
        return f"mutated {a.get('identifier')!r} via {a.get('mechanism')} ({how})"
    if kind == "align.divergence":
        text = (
            f"trace diverged: {a.get('lost')} calls lost, {a.get('gained')} gained"
        )
        if a.get("first_lost"):
            text += f" (first lost: {a.get('first_lost')})"
        return text
    if kind == "verdict.impact":
        return (
            f"impact verdict for {a.get('identifier')!r}: {a.get('immunization')} "
            f"(effects: {a.get('effects')}, {a.get('hits', 0)} interceptions)"
        )
    if kind == "slice.walk":
        return (
            f"backward slice: {a.get('records')} contributing instructions, "
            f"env sources {a.get('env_sources')}"
        )
    if kind == "slice.extract":
        reexec = "forced re-execution" if a.get("requires_reexecution") else "straight-line replay"
        return f"generation slice extracted: {a.get('steps')} steps, {reexec}"
    if kind == "verdict.determinism":
        return f"identifier {a.get('identifier')!r} classed {a.get('identifier_kind')}"
    if kind == "vaccine":
        return (
            f"vaccine: {a.get('resource')} {a.get('identifier')!r} "
            f"-> {a.get('immunization')} via {a.get('mechanism')}"
        )
    if kind == "vaccine.rejected":
        return f"candidate {a.get('identifier')!r} rejected: {a.get('reason')}"
    if kind == "policy.synthesized":
        return (
            f"temporal policy for {a.get('sample')!r}: boundary at "
            f"{a.get('boundary_api')} (seq {a.get('boundary_seq')}), "
            f"{a.get('deny')} deny rule(s), {a.get('subtracted')} subtracted"
        )
    if kind == "policy.violation":
        return (
            f"policy denied {a.get('api')} on {a.get('resource')} "
            f"{a.get('identifier')!r} ({a.get('operation')})"
        )
    detail = ", ".join(f"{k}={v}" for k, v in sorted(a.items()))
    return f"{kind}" + (f" ({detail})" if detail else "")


def render_chain(
    journal: Journal,
    root_id: int,
    max_depth: int = 12,
    max_lines: Optional[int] = None,
) -> str:
    """Indented causal narrative: the event, then (recursively) what caused
    it.  Shared ancestors render once; later references become a
    ``(see e<id> above)`` stub so diamonds in the DAG stay readable."""
    lines: List[str] = []
    rendered = set()

    def walk(event_id: int, depth: int) -> None:
        if max_lines is not None and len(lines) >= max_lines:
            return
        indent = "  " * depth
        event = journal.get(event_id)
        if event is None:
            lines.append(f"{indent}[e{event_id}] (event not in journal)")
            return
        if event_id in rendered:
            lines.append(f"{indent}[e{event_id}] (see above)")
            return
        rendered.add(event_id)
        lines.append(f"{indent}[e{event_id}] {summarize_event(event)}")
        if depth + 1 > max_depth:
            if event.causes:
                lines.append(f"{indent}  ... ({len(event.causes)} causes beyond depth limit)")
            return
        for cause in event.causes:
            walk(cause, depth + 1)

    walk(root_id, 0)
    if max_lines is not None and len(lines) >= max_lines:
        lines = lines[:max_lines]
        lines.append("  ... (truncated)")
    return "\n".join(lines)


__all__ = [
    "MAX_FLIGHT_EVENTS",
    "FlightEvent",
    "FlightRecorder",
    "Journal",
    "render_chain",
    "summarize_event",
]
