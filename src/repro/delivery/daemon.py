"""Vaccine daemon — resident deployment (paper §V).

Handles everything direct injection cannot:

* **algorithm-deterministic** identifiers: on install the daemon replays the
  generation slice against *this* host, obtains the concrete identifier, and
  (for simulate-presence vaccines) direct-injects the computed marker — the
  paper's Conficker deployment.  The daemon re-checks periodically whether
  the machine inputs changed (``refresh()``).
* **partial-static** identifiers: runtime API interception; any resolved
  identifier matching the vaccine regex gets the predefined (failure/success)
  result.
* **static enforce-failure** on resources without lockable ACL semantics
  (mutex, window, service, process): runtime interception by exact name.
* **temporal API policies**: steady-state deny rules from a
  :class:`~repro.core.policy.TemporalApiPolicy` enforce failure on the
  malware's post-boundary resource acquisitions.

Matching itself lives in the shared :class:`~repro.delivery.engine.RuleEngine`
— the daemon only *builds* rules (slice replay, marker injection) and keeps
the hook-overhead accounting; the clinic and campaign consult the same
engine, so interception semantics cannot drift between consumers again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.policy import TemporalApiPolicy
    from .injection import DirectInjector

from .. import obs
from ..core.vaccine import IdentifierKind, Mechanism, Vaccine
from ..taint.replay import SliceReplayError, replay_slice
from ..tracing.events import ApiCallEvent
from ..winapi.dispatcher import Interception
from ..winapi.labels import ApiDef
from ..winenv.environment import SystemEnvironment
from .engine import CompiledRule, RuleEngine


@dataclass
class VaccineDaemon:
    """Resident vaccine service for one machine.

    Register with ``install(environment)``; the daemon adds itself to the
    environment's global interceptors so every process dispatcher consults it.
    """

    vaccines: List[Vaccine] = field(default_factory=list)
    #: Temporal policies enforced alongside the vaccines (deny rules only).
    policies: List["TemporalApiPolicy"] = field(default_factory=list)
    #: The shared matching structure; rebuilt on install/refresh.
    engine: RuleEngine = field(default_factory=RuleEngine)
    #: Per-host identifiers computed from slices at install time.
    computed_identifiers: Dict[str, str] = field(default_factory=dict)
    #: Interception counters (perf-overhead bench, §VI-F).
    calls_seen: int = 0
    calls_matched: int = 0
    #: Policy-rule hits within ``calls_matched`` (violation accounting).
    policy_violations: int = 0
    #: Total wall seconds spent inside :meth:`intercept` — the hook-overhead
    #: numerator for the paper's <4.5% claim.
    seconds_intercepting: float = 0.0
    environment: Optional[SystemEnvironment] = None
    #: Identity fingerprint used to detect input changes on refresh.
    _identity_seen: Optional[tuple] = None
    #: Live simulate-presence markers, one injector per slice-derived
    #: vaccine (keyed by its observed identifier) — so a refresh that
    #: recomputes the identifier can retract the stale marker.
    _marker_injectors: Dict[Tuple[object, str], "DirectInjector"] = field(
        default_factory=dict
    )

    @property
    def rules(self) -> List[CompiledRule]:
        """Active interception rules (compiled, insertion order)."""
        return self.engine.rules

    def install(self, environment: SystemEnvironment) -> None:
        self.environment = environment
        self._identity_seen = self._fingerprint(environment)
        self.engine = RuleEngine()
        for vaccine in self.vaccines:
            self._activate(vaccine, environment)
        for policy in self.policies:
            self.engine.add_policy(policy)
        if self not in environment.global_interceptors:
            environment.global_interceptors.append(self)

    def add(self, vaccine: Vaccine) -> None:
        self.vaccines.append(vaccine)
        if self.environment is not None:
            self._activate(vaccine, self.environment)

    def add_policy(self, policy: "TemporalApiPolicy") -> None:
        self.policies.append(policy)
        if self.environment is not None:
            self.engine.add_policy(policy)

    def uninstall(self) -> None:
        """Detach from the environment and drop all interception rules."""
        if self.environment is not None and self in self.environment.global_interceptors:
            self.environment.global_interceptors.remove(self)
        self.engine = RuleEngine()

    def refresh(self) -> bool:
        """Periodic check: regenerate slice-derived vaccines if the machine
        inputs (identity) changed.  Returns True when anything was redone."""
        if self.environment is None:
            return False
        fingerprint = self._fingerprint(self.environment)
        if fingerprint == self._identity_seen:
            return False
        self.install(self.environment)
        return True

    # -- installation ----------------------------------------------------------

    def _activate(self, vaccine: Vaccine, environment: SystemEnvironment) -> None:
        from .injection import DirectInjector, InjectionError

        kind = vaccine.identifier_kind
        if kind is IdentifierKind.ALGORITHM_DETERMINISTIC and vaccine.slice is not None:
            try:
                identifier = replay_slice(vaccine.slice, environment.clone())
            except SliceReplayError:
                identifier = vaccine.identifier  # fall back to observed value
            self.computed_identifiers[vaccine.identifier] = identifier
            if vaccine.mechanism is Mechanism.SIMULATE_PRESENCE:
                key = (vaccine.resource_type, vaccine.identifier)
                previous = self._marker_injectors.get(key)
                if previous is not None:
                    stale = [r.identifier for r in previous.records]
                    if identifier not in stale:
                        # The machine inputs changed the computed name:
                        # retract the old marker before planting the new
                        # one, or refreshes would accumulate stale markers.
                        previous.uninstall_all()
                        self._marker_injectors.pop(key, None)
                    # Same name recomputed: the live marker stays; the
                    # inject below is an idempotent re-create.
                try:
                    injector = DirectInjector(environment)
                    injector.inject(vaccine, identifier=identifier)
                    self._marker_injectors[key] = injector
                    return
                except InjectionError:
                    pass
            self.engine.add_vaccine(vaccine, identifier=identifier)
            return

        # Partial-static patterns and static identifiers that reached the
        # daemon (non-lockable resources) compile as-is.
        self.engine.add_vaccine(vaccine)

    # -- interception (hot path) ---------------------------------------------

    def intercept(self, apidef: ApiDef, event: ApiCallEvent) -> Interception:
        started = time.perf_counter()
        try:
            return self._intercept(event)
        finally:
            elapsed = time.perf_counter() - started
            self.seconds_intercepting += elapsed
            if obs.prof.enabled:
                # Runs inside the intercepted handler: claimed from it.
                obs.prof.add_nested("rules;daemon", elapsed)

    def _intercept(self, event: ApiCallEvent) -> Interception:
        self.calls_seen += 1
        verdict, rule = self.engine.decide(event)
        if rule is None:
            return Interception.PASS
        self.calls_matched += 1
        if obs.metrics.enabled:
            obs.metrics.counter(
                "daemon.calls_matched",
                resource=event.resource_type.value,
                mechanism=rule.mechanism.value,
            ).inc()
        if rule.origin == "policy":
            self.policy_violations += 1
            flight = obs.flight
            if flight.enabled:
                flight.record(
                    "policy.violation",
                    causes=(),
                    api=event.api,
                    resource=event.resource_type.value,
                    identifier=event.identifier,
                    operation=event.operation.value if event.operation else None,
                    rule=rule.describe(),
                )
        return verdict

    def flush_metrics(self) -> None:
        """Publish cumulative hook accounting into the metrics registry.

        Kept out of the per-call path: two plain attribute adds per
        intercept, one registry write when somebody wants the numbers.
        """
        obs.metrics.gauge("daemon.calls_seen").set(self.calls_seen)
        obs.metrics.gauge("daemon.calls_matched_total").set(self.calls_matched)
        obs.metrics.gauge("daemon.policy_violations").set(self.policy_violations)
        obs.metrics.gauge("daemon.hook_seconds").set(self.seconds_intercepting)
        obs.metrics.gauge("daemon.rules_active").set(len(self.engine))

    @staticmethod
    def _fingerprint(environment: SystemEnvironment) -> tuple:
        identity = environment.identity
        return (identity.computer_name, identity.user_name, identity.volume_serial)
