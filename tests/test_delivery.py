"""Phase-III delivery tests: direct injection, daemon, packages, deploy."""

import pytest

from repro.core import (
    DeliveryKind,
    IdentifierKind,
    Immunization,
    Mechanism,
    Vaccine,
    run_sample,
)
from repro.delivery import (
    DirectInjector,
    InjectionError,
    VaccineDaemon,
    VaccinePackage,
    deploy,
)
from repro.winenv import (
    Access,
    IntegrityLevel,
    MachineIdentity,
    Operation,
    ResourceFault,
    ResourceType,
    SystemEnvironment,
)


def make_vaccine(rtype, identifier, mechanism=Mechanism.SIMULATE_PRESENCE,
                 kind=IdentifierKind.STATIC, ops=frozenset(), pattern=None, slice_=None):
    return Vaccine(
        malware="test",
        resource_type=rtype,
        identifier=identifier,
        identifier_kind=kind,
        mechanism=mechanism,
        immunization=Immunization.FULL,
        operations=ops,
        pattern=pattern,
        slice=slice_,
    )


class TestDirectInjection:
    def test_mutex_marker_created_locked(self):
        env = SystemEnvironment()
        DirectInjector(env).inject(make_vaccine(ResourceType.MUTEX, "VacMtx"))
        mutex = env.mutexes.lookup("VacMtx")
        assert mutex is not None
        assert not mutex.acl.allows(IntegrityLevel.LOW, Access.DELETE)

    def test_file_marker_created(self):
        env = SystemEnvironment()
        DirectInjector(env).inject(
            make_vaccine(ResourceType.FILE, "c:\\windows\\system32\\sdra64.exe")
        )
        node = env.filesystem.lookup("c:\\windows\\system32\\sdra64.exe")
        assert node is not None
        with pytest.raises(ResourceFault):
            env.filesystem.delete(node.name, IntegrityLevel.LOW)

    def test_registry_marker_created(self):
        env = SystemEnvironment()
        DirectInjector(env).inject(make_vaccine(ResourceType.REGISTRY, "hklm\\software\\vac"))
        assert env.registry.exists("hklm\\software\\vac")

    def test_window_and_library_and_service_markers(self):
        env = SystemEnvironment()
        injector = DirectInjector(env)
        injector.inject(make_vaccine(ResourceType.WINDOW, "VacWnd"))
        injector.inject(make_vaccine(ResourceType.LIBRARY, "vac.dll"))
        injector.inject(make_vaccine(ResourceType.SERVICE, "vacsvc"))
        assert env.windows.exists("VacWnd")
        assert env.libraries.exists("vac.dll")
        assert env.services.exists("vacsvc")

    def test_enforce_failure_on_create_plants_locked_decoy(self):
        env = SystemEnvironment()
        vaccine = make_vaccine(
            ResourceType.FILE, "c:\\windows\\system32\\drop.exe",
            mechanism=Mechanism.ENFORCE_FAILURE, ops=frozenset({Operation.CREATE}),
        )
        record = DirectInjector(env).inject(vaccine)
        assert record.action == "planted-locked-decoy"
        with pytest.raises(ResourceFault):
            env.filesystem.create("c:\\windows\\system32\\drop.exe", IntegrityLevel.LOW)

    def test_enforce_failure_on_read_removes_existing(self):
        env = SystemEnvironment()
        env.filesystem.create("c:\\cfg.dat", IntegrityLevel.MEDIUM)
        vaccine = make_vaccine(
            ResourceType.FILE, "c:\\cfg.dat",
            mechanism=Mechanism.ENFORCE_FAILURE, ops=frozenset({Operation.READ}),
        )
        record = DirectInjector(env).inject(vaccine)
        assert record.action == "removed-resource"
        assert not env.filesystem.exists("c:\\cfg.dat")

    def test_enforce_failure_library_blocked(self):
        env = SystemEnvironment()
        vaccine = make_vaccine(ResourceType.LIBRARY, "evil.dll",
                               mechanism=Mechanism.ENFORCE_FAILURE)
        DirectInjector(env).inject(vaccine)
        with pytest.raises(ResourceFault):
            env.libraries.load("evil.dll", IntegrityLevel.LOW)

    def test_enforce_failure_mutex_needs_daemon(self):
        env = SystemEnvironment()
        vaccine = make_vaccine(ResourceType.MUTEX, "M",
                               mechanism=Mechanism.ENFORCE_FAILURE)
        with pytest.raises(InjectionError):
            DirectInjector(env).inject(vaccine)


class TestDeliveryRouting:
    def test_static_presence_routes_direct(self):
        assert make_vaccine(ResourceType.MUTEX, "M").delivery is DeliveryKind.DIRECT_INJECTION

    def test_partial_static_routes_daemon(self):
        v = make_vaccine(ResourceType.MUTEX, "a-1-b", kind=IdentifierKind.PARTIAL_STATIC,
                         pattern="^a-.+-b$")
        assert v.delivery is DeliveryKind.DAEMON

    def test_algo_deterministic_routes_daemon(self):
        v = make_vaccine(ResourceType.MUTEX, "X", kind=IdentifierKind.ALGORITHM_DETERMINISTIC)
        assert v.delivery is DeliveryKind.DAEMON

    def test_static_enforce_failure_mutex_routes_daemon(self):
        v = make_vaccine(ResourceType.MUTEX, "M", mechanism=Mechanism.ENFORCE_FAILURE)
        assert v.delivery is DeliveryKind.DAEMON

    def test_process_vaccine_routes_daemon(self):
        v = make_vaccine(ResourceType.PROCESS, "mal.exe")
        assert v.delivery is DeliveryKind.DAEMON


class TestDaemon:
    def test_partial_static_pattern_blocks_creation(self, run_asm):
        env = SystemEnvironment()
        vaccine = make_vaccine(
            ResourceType.MUTEX, "qbot-1a2b-lk",
            mechanism=Mechanism.ENFORCE_FAILURE,
            kind=IdentifierKind.PARTIAL_STATIC, pattern="^qbot\\-.+\\-lk$",
        )
        daemon = VaccineDaemon(vaccines=[vaccine])
        daemon.install(env)
        cpu = run_asm(
            '.section .rdata\nm: .asciz "qbot-ffee-lk"\n.section .text\n'
            "    push m\n    push 0\n    push 0\n    call @CreateMutexA\n    halt\n",
            environment=env,
        )
        assert cpu.regs["eax"] == 0
        assert daemon.calls_matched == 1
        assert daemon.matches == {("mutex", "enforce_failure"): 1}

    def test_non_matching_identifier_passes(self, run_asm):
        env = SystemEnvironment()
        vaccine = make_vaccine(
            ResourceType.MUTEX, "qbot-1-lk", mechanism=Mechanism.ENFORCE_FAILURE,
            kind=IdentifierKind.PARTIAL_STATIC, pattern="^qbot\\-.+\\-lk$",
        )
        daemon = VaccineDaemon(vaccines=[vaccine])
        daemon.install(env)
        cpu = run_asm(
            '.section .rdata\nm: .asciz "innocent"\n.section .text\n'
            "    push m\n    push 0\n    push 0\n    call @CreateMutexA\n    halt\n",
            environment=env,
        )
        assert cpu.regs["eax"] >= 0x100

    def test_simulate_presence_rule_fakes_existence(self, run_asm):
        env = SystemEnvironment()
        vaccine = make_vaccine(
            ResourceType.MUTEX, "sim-1-x", mechanism=Mechanism.SIMULATE_PRESENCE,
            kind=IdentifierKind.PARTIAL_STATIC, pattern="^sim\\-.+\\-x$",
        )
        VaccineDaemon(vaccines=[vaccine]).install(env)
        cpu = run_asm(
            '.section .rdata\nm: .asciz "sim-77-x"\n.section .text\n'
            "    push m\n    push 0\n    push 0x1F0001\n    call @OpenMutexA\n    halt\n",
            environment=env,
        )
        assert cpu.regs["eax"] >= 0x100  # phantom success

    def test_non_latin1_identifier_reaches_marker(self, run_asm):
        """A vaccine whose identifier is outside latin-1 still protects: the
        guest's UTF-8 bytes decode to the same string the marker was created
        under (regression: the old latin-1 read split "π" into "Ï€")."""
        env = SystemEnvironment()
        DirectInjector(env).inject(make_vaccine(ResourceType.MUTEX, "Vaccine-π"))
        cpu = run_asm(
            '.section .rdata\nm: .asciz "Vaccine-\\xcf\\x80"\n.section .text\n'
            "    push m\n    push 0\n    push 0x1F0001\n    call @OpenMutexA\n    halt\n",
            environment=env,
        )
        assert cpu.regs["eax"] >= 0x100  # found the real marker

    def test_simulate_presence_matches_non_latin1_identifier(self, run_asm):
        env = SystemEnvironment()
        vaccine = make_vaccine(
            ResourceType.MUTEX, "sim-π-x", mechanism=Mechanism.SIMULATE_PRESENCE,
            kind=IdentifierKind.PARTIAL_STATIC, pattern="^sim\\-.\\-x$",
        )
        VaccineDaemon(vaccines=[vaccine]).install(env)
        cpu = run_asm(
            '.section .rdata\nm: .asciz "sim-\\xcf\\x80-x"\n.section .text\n'
            "    push m\n    push 0\n    push 0x1F0001\n    call @OpenMutexA\n    halt\n",
            environment=env,
        )
        # "π" must arrive as ONE character for the single-char pattern to hit.
        assert cpu.regs["eax"] >= 0x100  # phantom success

    def test_daemon_counts_seen_calls(self, run_asm):
        env = SystemEnvironment()
        daemon = VaccineDaemon(vaccines=[make_vaccine(
            ResourceType.MUTEX, "x-1-y", mechanism=Mechanism.ENFORCE_FAILURE,
            kind=IdentifierKind.PARTIAL_STATIC, pattern="^x\\-.+\\-y$")])
        daemon.install(env)
        run_asm("    call @GetTickCount\n    halt\n", environment=env)
        assert daemon.calls_seen >= 1 and daemon.calls_matched == 0

    def test_refresh_detects_identity_change(self):
        env = SystemEnvironment()
        daemon = VaccineDaemon(vaccines=[])
        daemon.install(env)
        assert daemon.refresh() is False
        env.identity = MachineIdentity(computer_name="RENAMED")
        assert daemon.refresh() is True

    def test_pattern_matches_whole_identifier_only(self, run_asm):
        # Regression: a prefix-only match ([a-z]{8} matching any identifier
        # with an 8-char lowercase prefix) falsely blocked benign resources.
        env = SystemEnvironment()
        vaccine = make_vaccine(
            ResourceType.MUTEX, "abcdefgh",
            mechanism=Mechanism.ENFORCE_FAILURE,
            kind=IdentifierKind.PARTIAL_STATIC, pattern="[a-z]{8}",
        )
        daemon = VaccineDaemon(vaccines=[vaccine])
        daemon.install(env)
        cpu = run_asm(
            '.section .rdata\nm: .asciz "abcdefgh_benign_service"\n.section .text\n'
            "    push m\n    push 0\n    push 0\n    call @CreateMutexA\n    halt\n",
            environment=env,
        )
        assert cpu.regs["eax"] >= 0x100  # benign creation succeeds
        assert daemon.calls_matched == 0
        cpu = run_asm(
            '.section .rdata\nm: .asciz "qwertyui"\n.section .text\n'
            "    push m\n    push 0\n    push 0\n    call @CreateMutexA\n    halt\n",
            environment=env,
        )
        assert cpu.regs["eax"] == 0  # the full-length malware name still blocks
        assert daemon.calls_matched == 1

    def _slice_vaccine(self):
        """An algorithm-deterministic vaccine whose generation slice
        replays ``pipe\\<COMPUTERNAME>`` on any host."""
        from repro.taint.backward import backward_slice
        from repro.taint.slicing import extract_slice
        from repro.vm import CPU, assemble
        from repro.winapi import Dispatcher

        src = (
            '.section .rdata\nfmt: .asciz "pipe\\\\%s"\n'
            ".section .data\nbuf: .space 64\nname: .space 64\n"
            ".section .text\n"
            "    push 0\n    push name\n    call @GetComputerNameA\n"
            "    push name\n    push fmt\n    push buf\n    call @wsprintfA\n"
            "    add esp, 12\n"
            "    push buf\n    push 0\n    push 0\n    call @CreateMutexA\n"
            "    halt\n"
        )
        lab = SystemEnvironment()
        prog = assemble(src, name="gen")
        proc = lab.spawn_process("gen.exe")
        cpu = CPU(prog, environment=lab, process=proc, dispatcher=Dispatcher(lab, proc))
        cpu.run()
        event = cpu.trace.events_for_api("CreateMutexA")[0]
        result = backward_slice(cpu.trace, event, memory=cpu.memory)
        slice_ = extract_slice(
            prog, cpu.trace, result, event.extra["identifier_addr"],
            target_event=event,
        )
        return make_vaccine(
            ResourceType.MUTEX, event.identifier,
            kind=IdentifierKind.ALGORITHM_DETERMINISTIC, slice_=slice_,
        )

    @staticmethod
    def _markers(environment):
        return sorted(
            m.name for m in environment.mutexes if m.name.startswith("pipe\\")
        )

    def test_refresh_retracts_stale_computed_marker(self):
        # Regression: each refresh after an identity change injected the new
        # computed marker without removing the old one, accumulating stale
        # markers across refreshes.
        host = SystemEnvironment(identity=MachineIdentity(computer_name="HOST-A"))
        daemon = VaccineDaemon(vaccines=[self._slice_vaccine()])
        daemon.install(host)
        assert self._markers(host) == ["pipe\\HOST-A"]

        host.identity = MachineIdentity(computer_name="HOST-B")
        assert daemon.refresh() is True
        assert self._markers(host) == ["pipe\\HOST-B"]

        host.identity = MachineIdentity(computer_name="HOST-C")
        assert daemon.refresh() is True
        # exactly one live marker after two identity changes
        assert self._markers(host) == ["pipe\\HOST-C"]

    def test_refresh_with_unchanged_computed_name_keeps_marker(self):
        # An identity facet the slice does not consume changes: the
        # recomputed identifier is the same, and the marker must survive
        # the reinstall instead of being retracted with nothing replacing it.
        host = SystemEnvironment(identity=MachineIdentity(computer_name="SAME"))
        daemon = VaccineDaemon(vaccines=[self._slice_vaccine()])
        daemon.install(host)
        assert self._markers(host) == ["pipe\\SAME"]
        host.identity = MachineIdentity(computer_name="SAME", user_name="other")
        assert daemon.refresh() is True
        assert self._markers(host) == ["pipe\\SAME"]


class TestPackage:
    def _vaccines(self):
        return [
            make_vaccine(ResourceType.MUTEX, "PkgMtx"),
            make_vaccine(ResourceType.MUTEX, "p-1-q", mechanism=Mechanism.ENFORCE_FAILURE,
                         kind=IdentifierKind.PARTIAL_STATIC, pattern="^p\\-.+\\-q$"),
        ]

    def test_json_roundtrip(self):
        pkg = VaccinePackage(vaccines=self._vaccines(), description="test pack")
        clone = VaccinePackage.from_json(pkg.to_json())
        assert len(clone) == 2
        assert clone.description == "test pack"
        assert clone.vaccines[0].identifier == "PkgMtx"
        assert clone.vaccines[1].pattern == "^p\\-.+\\-q$"

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "pack.json"
        VaccinePackage(vaccines=self._vaccines()).save(path)
        assert len(VaccinePackage.load(path)) == 2

    def test_version_check(self):
        import json

        bad = json.dumps({"format_version": 99, "vaccines": []})
        with pytest.raises(ValueError):
            VaccinePackage.from_json(bad)

    def test_deploy_splits_direct_and_daemon(self):
        env = SystemEnvironment()
        deployment = deploy(VaccinePackage(vaccines=self._vaccines()), env)
        assert len(deployment.injections) == 1
        assert deployment.daemon_needed
        assert env.mutexes.exists("PkgMtx")
        assert deployment.daemon in env.global_interceptors

    def test_deploy_reports_failures(self):
        env = SystemEnvironment()
        odd = make_vaccine(ResourceType.WINDOW, "W", mechanism=Mechanism.ENFORCE_FAILURE,
                           kind=IdentifierKind.STATIC)
        # window enforce-failure is daemon-routed, so force the direct path:
        object.__setattr__(odd, "identifier_kind", IdentifierKind.STATIC)
        deployment = deploy(VaccinePackage(vaccines=[odd]), env)
        # routed to daemon, not a failure
        assert not deployment.failures and deployment.daemon_needed
