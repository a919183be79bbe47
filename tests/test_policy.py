"""Unified enforcement engine + temporal API-policy synthesis.

Covers the shared :class:`RuleEngine` (the one matching implementation the
daemon, clinic and campaign all consume), the clinic prefix-matching
regression it fixes, temporal policy synthesis (boundary split, benign
subtraction), daemon enforcement of policy deny rules, and clinic
certification via :func:`validate_policy`.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import AutoVac
from repro.core.policy import (
    ACQUISITION_OPERATIONS,
    PolicyRule,
    TemporalApiPolicy,
    synthesize_policy,
    validate_policy,
)
from repro.core.vaccine import IdentifierKind, Immunization, Mechanism, Vaccine
from repro.corpus import build_family
from repro.corpus.benign import benign_suite
from repro.delivery.daemon import VaccineDaemon
from repro.delivery.engine import RuleEngine
from repro.obs import summarize_event
from repro.tracing.events import ApiCallEvent
from repro.winapi.dispatcher import Interception
from repro.winenv import SystemEnvironment
from repro.winenv.objects import Operation, ResourceType


def _event(
    api: str = "CreateFileA",
    rtype: ResourceType = ResourceType.FILE,
    identifier: str = "c:\\x.txt",
    operation: Operation = Operation.CREATE,
    seq: int = 0,
) -> ApiCallEvent:
    return ApiCallEvent(
        event_id=seq + 1,
        seq=seq,
        api=api,
        caller_pc=0x10,
        args=(),
        identifier=identifier,
        resource_type=rtype,
        operation=operation,
    )


def _vaccine(
    identifier: str = "EvilMutex",
    rtype: ResourceType = ResourceType.MUTEX,
    kind: IdentifierKind = IdentifierKind.STATIC,
    mechanism: Mechanism = Mechanism.SIMULATE_PRESENCE,
    pattern: str = None,
) -> Vaccine:
    return Vaccine(
        malware="testware",
        resource_type=rtype,
        identifier=identifier,
        identifier_kind=kind,
        mechanism=mechanism,
        immunization=Immunization.FULL,
        pattern=pattern,
    )


@pytest.fixture(scope="module")
def sality_analysis():
    return AutoVac().analyze(build_family("sality"))


# ---------------------------------------------------------------------------
# RuleEngine semantics
# ---------------------------------------------------------------------------


class TestRuleEngine:
    def test_exact_match_is_normalized(self):
        engine = RuleEngine.compile(
            vaccines=[_vaccine("C:\\Windows\\EVIL.SYS", rtype=ResourceType.FILE)]
        )
        rule = engine.match(ResourceType.FILE, "c:\\windows\\evil.sys")
        assert rule is not None and rule.origin == "vaccine"
        # mutex names stay case-sensitive
        engine = RuleEngine.compile(vaccines=[_vaccine("EvilMutex")])
        assert engine.match(ResourceType.MUTEX, "EvilMutex") is not None
        assert engine.match(ResourceType.MUTEX, "evilmutex") is None

    def test_pattern_is_fullmatch_not_prefix(self):
        engine = RuleEngine.compile(
            vaccines=[
                _vaccine(
                    "abcdefgh",
                    kind=IdentifierKind.PARTIAL_STATIC,
                    pattern=r"[a-z]{8}",
                )
            ]
        )
        assert engine.match(ResourceType.MUTEX, "abcdefgh") is not None
        # a mere prefix hit must not count — this is the clinic bug class
        assert engine.match(ResourceType.MUTEX, "abcdefghi") is None
        assert engine.match(ResourceType.MUTEX, "abcdefg") is None

    def test_first_rule_in_insertion_order_wins(self):
        first = _vaccine("Shared")
        second = _vaccine("Shared", mechanism=Mechanism.ENFORCE_FAILURE)
        engine = RuleEngine.compile(vaccines=[first, second])
        hit = engine.match(ResourceType.MUTEX, "Shared")
        assert hit.source is first

    def test_pattern_rule_can_precede_exact(self):
        pat = _vaccine(
            "aaaa", kind=IdentifierKind.PARTIAL_STATIC, pattern=r"[a-z]{4}"
        )
        exact = _vaccine("aaaa")
        engine = RuleEngine.compile(vaccines=[pat, exact])
        assert engine.match(ResourceType.MUTEX, "aaaa").source is pat

    def test_operation_restriction(self):
        rule = PolicyRule(
            resource_type=ResourceType.SERVICE,
            identifier="evilsvc",
            operations=frozenset({Operation.CREATE}),
        )
        policy = TemporalApiPolicy(sample="t", boundary_seq=0, deny=[rule])
        engine = RuleEngine.compile(policies=[policy])
        assert engine.match(ResourceType.SERVICE, "evilsvc", Operation.CREATE)
        assert engine.match(ResourceType.SERVICE, "evilsvc", Operation.CHECK) is None

    def test_match_all_returns_every_hit_in_order(self):
        v1 = _vaccine("Both")
        v2 = _vaccine("Both", kind=IdentifierKind.PARTIAL_STATIC, pattern=r"Bo.h")
        engine = RuleEngine.compile(vaccines=[v1, v2])
        hits = engine.match_all(ResourceType.MUTEX, "Both")
        assert [h.source for h in hits] == [v1, v2]

    def test_decide_verdicts(self):
        enforce = _vaccine(
            "c:\\evil.sys",
            rtype=ResourceType.FILE,
            mechanism=Mechanism.ENFORCE_FAILURE,
        )
        simulate = _vaccine("Marker")
        engine = RuleEngine.compile(vaccines=[enforce, simulate])
        verdict, _ = engine.decide(
            _event(rtype=ResourceType.FILE, identifier="c:\\evil.sys")
        )
        assert verdict is Interception.FORCE_FAIL
        verdict, _ = engine.decide(
            _event(rtype=ResourceType.MUTEX, identifier="Marker",
                   operation=Operation.CREATE)
        )
        assert verdict is Interception.FORCE_FAIL_EXISTS
        verdict, _ = engine.decide(
            _event(rtype=ResourceType.MUTEX, identifier="Marker",
                   operation=Operation.CHECK)
        )
        assert verdict is Interception.FORCE_SUCCESS
        verdict, rule = engine.decide(
            _event(rtype=ResourceType.MUTEX, identifier="Unrelated")
        )
        assert verdict is Interception.PASS and rule is None

    def test_origin_bookkeeping(self):
        policy = TemporalApiPolicy(
            sample="t",
            boundary_seq=0,
            deny=[PolicyRule(ResourceType.MUTEX, "Bad")],
        )
        engine = RuleEngine.compile(vaccines=[_vaccine()], policies=[policy])
        assert len(engine) == 2
        assert [r.origin for r in engine.rules_from("policy")] == ["policy"]
        assert [r.origin for r in engine.rules_from("vaccine")] == ["vaccine"]


# ---------------------------------------------------------------------------
# Shared semantics: daemon / clinic / campaign drive the same engine
# ---------------------------------------------------------------------------


class TestSharedSemantics:
    """The acceptance criterion: the same rule set yields identical verdicts
    through the daemon interception path, the clinic attribution path and
    the campaign accounting path."""

    VACCINES = [
        _vaccine("EvilMutex", mechanism=Mechanism.SIMULATE_PRESENCE),
        _vaccine(
            "c:\\windows\\evil.sys",
            rtype=ResourceType.FILE,
            mechanism=Mechanism.ENFORCE_FAILURE,
        ),
        _vaccine(
            "abcd1234",
            rtype=ResourceType.MUTEX,
            kind=IdentifierKind.PARTIAL_STATIC,
            pattern=r"[a-z]{4}[0-9]{4}",
        ),
    ]

    PROBES = [
        _event("CreateMutexA", ResourceType.MUTEX, "EvilMutex", Operation.CREATE),
        _event("OpenMutexA", ResourceType.MUTEX, "EvilMutex", Operation.CHECK),
        _event("CreateFileA", ResourceType.FILE, "C:\\Windows\\EVIL.SYS", Operation.CREATE),
        _event("CreateMutexA", ResourceType.MUTEX, "wxyz0007", Operation.CREATE),
        _event("CreateMutexA", ResourceType.MUTEX, "wxyz00071", Operation.CREATE),
        _event("CreateFileA", ResourceType.FILE, "c:\\benign.txt", Operation.CREATE),
    ]

    def test_all_consumers_agree(self):
        daemon = VaccineDaemon(vaccines=list(self.VACCINES))
        daemon.install(SystemEnvironment())
        standalone = RuleEngine.compile(vaccines=self.VACCINES)

        for event in self.PROBES:
            # daemon interception path
            daemon_verdict = daemon._intercept(event)
            # clinic attribution path: first match_all hit decides
            hits = standalone.match_all(
                event.resource_type, event.identifier, event.operation
            )
            clinic_verdict = (
                RuleEngine.verdict(hits[0], event.operation)
                if hits
                else Interception.PASS
            )
            # campaign accounting path
            rule = standalone.match(
                event.resource_type, event.identifier, event.operation
            )
            campaign_verdict = (
                RuleEngine.verdict(rule, event.operation)
                if rule
                else Interception.PASS
            )
            assert daemon_verdict == clinic_verdict == campaign_verdict, event.identifier
            if rule is not None:
                assert hits[0].source is rule.source


# ---------------------------------------------------------------------------
# Clinic prefix-matching regression
# ---------------------------------------------------------------------------


class TestClinicAttributionRegression:
    """PR 5 fixed prefix-vs-fullmatch in the daemon only; the clinic kept
    ``re.match`` and would implicate any benign identifier that merely
    *starts* like a partial-static pattern.  The shared engine pins
    fullmatch for attribution too."""

    def test_pattern_does_not_implicate_prefix_sharing_identifiers(self):
        vaccine = _vaccine(
            "vx3k9f2q.dll",
            rtype=ResourceType.FILE,
            kind=IdentifierKind.PARTIAL_STATIC,
            pattern=r"[a-z0-9]{8}\.dll",
        )
        engine = RuleEngine.compile(vaccines=[vaccine])
        # the clinic's attribution query on a benign file that extends the
        # pattern match must come back empty
        assert engine.match_all(ResourceType.FILE, "vx3k9f2q.dll.bak") == []
        assert engine.match_all(ResourceType.FILE, "vx3k9f2q.dll") != []

    def test_clinic_incidents_carry_implicated_sources(self):
        # an enforce-failure vaccine on a file the benign suite writes must
        # produce incidents attributed back to that vaccine
        from repro.core.clinic import clinic_test

        hostile = _vaccine(
            "c:\\windows\\temp\\imlog.txt",
            rtype=ResourceType.FILE,
            mechanism=Mechanism.ENFORCE_FAILURE,
        )
        report = clinic_test([hostile], benign_suite())
        assert report.incidents
        assert any(hostile in i.implicated for i in report.incidents)


# ---------------------------------------------------------------------------
# Vaccine codec errors
# ---------------------------------------------------------------------------


class TestVaccineFromDictErrors:
    def test_missing_field_is_named(self):
        payload = _vaccine().to_dict()
        payload.pop("resource_type")
        with pytest.raises(ValueError, match="missing field 'resource_type'"):
            Vaccine.from_dict(payload)

    def test_unknown_enum_value_is_named(self):
        payload = _vaccine().to_dict()
        payload["mechanism"] = "hope_for_the_best"
        with pytest.raises(ValueError, match="'mechanism' has unknown value"):
            Vaccine.from_dict(payload)

    def test_unknown_operation_is_named(self):
        payload = _vaccine().to_dict()
        payload["operations"] = ["create", "teleport"]
        with pytest.raises(ValueError, match="'operations' has unknown value 'teleport'"):
            Vaccine.from_dict(payload)

    def test_round_trip_still_works(self):
        v = _vaccine()
        assert Vaccine.from_dict(v.to_dict()).to_dict() == v.to_dict()


# ---------------------------------------------------------------------------
# Policy synthesis
# ---------------------------------------------------------------------------


class TestPolicySynthesis:
    def test_no_effective_impact_means_no_policy(self, sality_analysis):
        trace = sality_analysis.phase1.trace
        assert synthesize_policy("x", trace, impacts=[]) is None

    def test_boundary_is_first_interception_site(self, sality_analysis):
        policy = sality_analysis.policy
        assert policy is not None
        assert policy.boundary_api == "OpenMutexA"
        assert policy.boundary_seq == 3
        assert policy.phase_of(policy.boundary_seq - 1) == "init"
        assert policy.phase_of(policy.boundary_seq) == "steady"

    def test_steady_acquisitions_become_deny_rules(self, sality_analysis):
        policy = sality_analysis.policy
        denied = {(r.resource_type, r.identifier) for r in policy.deny}
        assert denied == {
            (ResourceType.FILE, "c:\\windows\\system32\\drivers\\qatpcks.sys"),
            (ResourceType.MUTEX, "Op1mutx9"),
            (ResourceType.SERVICE, "amsint32"),
        }
        for rule in policy.deny:
            assert rule.operations and rule.operations <= set(ACQUISITION_OPERATIONS)
            assert rule.apis
        assert policy.denies(
            ResourceType.SERVICE, Operation.CREATE, "AMSINT32"
        )
        assert not policy.denies(
            ResourceType.SERVICE, Operation.CHECK, "amsint32"
        )

    def test_benign_baseline_is_subtracted(self, sality_analysis):
        policy = sality_analysis.policy
        reasons = {s.reason for s in policy.subtracted}
        assert any("benign baseline" in r for r in reasons)
        subtracted_ids = {s.identifier for s in policy.subtracted}
        assert not subtracted_ids & {r.identifier for r in policy.deny}

    def test_boundary_check_lands_in_steady_state(self, sality_analysis):
        # sality's first calls carry no resource identifier, so the init
        # allowlist is empty — the vaccine-style marker check at the
        # boundary itself belongs to steady state by construction
        policy = sality_analysis.policy
        assert policy.steady_identifiers > 0
        assert "Op1mutx9" in policy.steady_allow[(ResourceType.MUTEX, Operation.CHECK)]
        for identifiers in policy.steady_allow.values():
            assert list(identifiers) == sorted(identifiers)

    def test_every_family_gets_a_policy(self):
        for family in ("conficker", "zeus", "qakbot", "ibank", "poisonivy"):
            analysis = AutoVac().analyze(build_family(family))
            assert analysis.policy is not None, family
            assert analysis.policy.deny, family

    def test_policy_round_trips(self, sality_analysis):
        policy = sality_analysis.policy
        decoded = TemporalApiPolicy.from_dict(policy.to_dict())
        assert decoded.to_dict() == policy.to_dict()
        assert decoded.denies(
            ResourceType.MUTEX, Operation.CREATE, "Op1mutx9"
        )


# ---------------------------------------------------------------------------
# Policy enforcement (daemon) and certification (clinic)
# ---------------------------------------------------------------------------


class TestPolicyEnforcement:
    def test_daemon_denies_steady_state_acquisitions(self, sality_analysis):
        obs.reset()
        policy = TemporalApiPolicy.from_dict(sality_analysis.policy.to_dict())
        host = SystemEnvironment()
        daemon = VaccineDaemon(policies=[policy])
        daemon.install(host)

        from repro.core.runner import run_sample

        run_sample(
            build_family("sality"), environment=host, record_instructions=False
        )
        assert daemon.policy_violations > 0
        violations = [
            e for e in obs.flight.outside_window() if e.kind == "policy.violation"
        ]
        assert violations
        summary = summarize_event(violations[0])
        assert "policy denied" in summary

    def test_validate_policy_is_clean_on_benign_suite(self, sality_analysis):
        policy = TemporalApiPolicy.from_dict(sality_analysis.policy.to_dict())
        validation = validate_policy(policy, benign_suite())
        assert validation.clean
        assert validation.removed == []
        assert policy.certified is True

    def test_validate_policy_refines_overbroad_rules(self, sality_analysis):
        policy = TemporalApiPolicy.from_dict(sality_analysis.policy.to_dict())
        poison = PolicyRule(
            resource_type=ResourceType.FILE,
            identifier="c:\\windows\\temp\\imlog.txt",
            operations=frozenset({Operation.CREATE, Operation.WRITE}),
            reason="deliberately overbroad",
        )
        policy.deny.append(poison)
        validation = validate_policy(policy, benign_suite())
        assert validation.incidents
        assert poison in validation.removed
        assert poison not in policy.deny
        assert any(
            s.identifier == poison.identifier and s.reason == "clinic incident"
            for s in policy.subtracted
        )
        # refinement succeeded, so the policy is still certified
        assert policy.certified is True

    def test_pipeline_records_synthesis_flight_event(self, sality_analysis):
        journal = sality_analysis.journal
        assert journal is not None
        events = journal.find("policy.synthesized")
        assert len(events) == 1
        event = events[0]
        assert event.attrs["boundary_api"] == "OpenMutexA"
        assert event.attrs["deny"] == 3
        assert event.causes  # chained to the effective impact outcomes
        assert "temporal policy" in summarize_event(event)
