"""Tests for the extension modules: CFG, enforced execution, vaccine
selection, trace serialization, uninstall, and the targeted-malware
scenario."""

import pytest

from repro import AutoVac, SystemEnvironment, VaccinePackage, deploy
from repro.analysis import build_cfg, explore_resource_paths
from repro.core import (
    IdentifierKind,
    Immunization,
    Mechanism,
    Vaccine,
    rank,
    run_sample,
    score,
    select_candidates,
    select_minimal,
    select_with_backups,
)
from repro.corpus import build_family, build_targeted_apt, prepare_target_environment
from repro.tracing import trace_from_json, trace_to_json
from repro.vm import TEXT_BASE, assemble
from repro.winenv import ResourceType


# ---------------------------------------------------------------------------
# CFG
# ---------------------------------------------------------------------------

class TestCfg:
    def test_straight_line_single_block(self):
        cfg = build_cfg(assemble("main:\n    nop\n    nop\n    halt\n"))
        assert len(cfg.blocks) == 1
        block = cfg.blocks[TEXT_BASE]
        assert block.size == 3 and block.successors == ()

    def test_conditional_creates_two_successors(self):
        cfg = build_cfg(assemble(
            "main:\n    cmp eax, 0\n    jz done\n    nop\ndone:\n    halt\n"))
        branch_block = cfg.block_at(TEXT_BASE)
        assert len(branch_block.successors) == 2

    def test_reachability(self):
        cfg = build_cfg(assemble(
            "main:\n    jmp end\ndead:\n    nop\nend:\n    halt\n"))
        assert cfg.unreachable_code()
        assert cfg.blocks[cfg.entry].successors

    def test_conditional_branch_pcs(self):
        program = assemble("main:\n    cmp eax, 0\n    jz x\n    nop\nx:\n    halt\n")
        assert build_cfg(program).conditional_branch_pcs() == [TEXT_BASE + 1]

    def test_api_call_sites(self):
        program = assemble("main:\n    call @GetTickCount\n    halt\n")
        assert build_cfg(program).api_call_sites() == [(TEXT_BASE, "GetTickCount")]

    def test_family_programs_have_connected_cfgs(self, family_programs):
        for program in family_programs.values():
            cfg = build_cfg(program)
            assert len(cfg.reachable_blocks()) >= 2

    def test_coverage_metric(self):
        program = assemble("main:\n    cmp eax, 0\n    jz d\n    nop\nd:\n    halt\n")
        cfg = build_cfg(program)
        full = {TEXT_BASE + i for i in range(4)}
        assert cfg.coverage(full) == pytest.approx(1.0)
        assert cfg.coverage(set()) == 0.0


# ---------------------------------------------------------------------------
# enforced execution
# ---------------------------------------------------------------------------

DORMANT = r"""
.section .rdata
m: .asciz "GateMtx"
f: .asciz "c:\\hidden\\flag.cfg"
.section .text
main:
    push m
    push 0
    push 0x1F0001
    call @OpenMutexA
    test eax, eax
    jnz infected
    push m
    push 0
    push 0
    call @CreateMutexA
    halt
infected:
    push f
    call @GetFileAttributesA
    cmp eax, 0xFFFFFFFF
    je nf
    push 0
    call @ExitProcess
nf:
    halt
"""


#: Enforced execution on the six families: the candidates only flipped
#: paths reveal, and the vaccines of ``AutoVac(explore_paths=True)``.
EXPLORED_FAMILIES = {
    "conficker": (
        [],
        [
            ("file", "c:\\windows\\system32\\drivers\\confk.sys"),
            ("mutex", "Global\\WORKSTATION-01-c950f8"),
            ("service", "confsvc"),
        ],
    ),
    "zeus": (
        [],
        [("file", "c:\\windows\\system32\\sdra64.exe"), ("mutex", "_AVIRA_2109")],
    ),
    "sality": (
        [],
        [
            ("file", "c:\\windows\\system32\\drivers\\qatpcks.sys"),
            ("mutex", "Op1mutx9"),
            ("service", "amsint32"),
        ],
    ),
    "qakbot": (
        [],
        [("mutex", "qbot-a082-lk"), ("registry", "hklm\\software\\microsoft\\sqinstalled")],
    ),
    "ibank": (
        [("process", "explorer.exe")],
        [("file", "c:\\windows\\system32\\twinrsdi.exe")],
    ),
    "poisonivy": (
        [],
        [("file", "c:\\windows\\system32\\shlmon.exe"), ("mutex", ")!VoqA.I4")],
    ),
}


def explore(program, **kwargs):
    """Enforced execution on top of the program's own Phase I report."""
    return explore_resource_paths(program, select_candidates(program), **kwargs)


class TestForcedExecution:
    def test_discovers_dormant_resource(self):
        result = explore(assemble(DORMANT, name="dormant"))
        keys = {(c.resource_type, c.identifier) for c in result.discovered}
        assert (ResourceType.FILE, "c:\\hidden\\flag.cfg") in keys

    def test_base_candidates_not_duplicated(self):
        result = explore(assemble(DORMANT, name="dormant"))
        base = {c.key for c in result.base.candidates}
        assert all(c.key not in base for c in result.discovered)

    def test_runs_bounded_by_flip_sites(self):
        result = explore(assemble(DORMANT, name="dormant"), max_flips=1)
        assert result.runs == 2

    def test_no_flips_for_unflagged_sample(self):
        src = ('.section .rdata\nm: .asciz "x"\n.section .text\n'
               "    push m\n    push 0\n    push 0\n    call @CreateMutexA\n    halt\n")
        result = explore(assemble(src, name="plain"))
        assert result.runs == 1 and not result.discovered

    def test_pipeline_integration(self):
        program = assemble(DORMANT, name="dormant")
        plain = AutoVac().analyze(program)
        explored = AutoVac(explore_paths=True).analyze(program)
        plain_ids = {v.identifier for v in plain.vaccines}
        explored_ids = {v.identifier for v in explored.vaccines}
        assert plain_ids <= explored_ids
        assert "exploration" in explored.timings

    @pytest.mark.parametrize("family", sorted(EXPLORED_FAMILIES))
    def test_exploration_reuses_phase1_run(self, family, monkeypatch):
        """Enforced execution flips sites of Phase I's own run: it makes
        one run per flipped site and none to re-profile the sample, and the
        discovered candidates and the vaccines stay as pinned."""
        from repro.analysis import forced_execution

        runs = []
        real_run = forced_execution.run_sample

        def counting_run(*args, **kwargs):
            runs.append(1)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(forced_execution, "run_sample", counting_run)
        program = build_family(family)
        discovered, vaccines = EXPLORED_FAMILIES[family]

        result = explore(program)
        assert len(runs) == len(result.flipped_sites) == result.runs - 1
        keys = sorted((c.resource_type.value, c.identifier) for c in result.discovered)
        assert keys == discovered

        runs.clear()
        analysis = AutoVac(explore_paths=True).analyze(program)
        assert len(runs) == len(result.flipped_sites)
        produced = sorted((v.resource_type.value, v.identifier) for v in analysis.vaccines)
        assert produced == vaccines


# ---------------------------------------------------------------------------
# vaccine selection
# ---------------------------------------------------------------------------

def _vaccine(malware="m", imm=Immunization.FULL, kind=IdentifierKind.STATIC,
             rtype=ResourceType.MUTEX, ident="x", mechanism=Mechanism.SIMULATE_PRESENCE,
             bdr=None):
    return Vaccine(malware=malware, resource_type=rtype, identifier=ident,
                   identifier_kind=kind, mechanism=mechanism, immunization=imm, bdr=bdr)


class TestSelection:
    def test_full_beats_partial(self):
        full = _vaccine(imm=Immunization.FULL)
        partial = _vaccine(imm=Immunization.TYPE_II_NETWORK, ident="y")
        assert score(full) > score(partial)
        assert rank([partial, full])[0] is full

    def test_direct_beats_daemon(self):
        direct = _vaccine()
        daemon = _vaccine(kind=IdentifierKind.PARTIAL_STATIC, ident="a-1-b")
        assert score(direct) > score(daemon)

    def test_bdr_breaks_ties(self):
        low = _vaccine(ident="a", bdr=0.3)
        high = _vaccine(ident="b2", bdr=0.9)
        assert rank([low, high])[0] is high

    def test_minimal_keeps_one_full_per_sample(self):
        vaccines = [
            _vaccine(ident="a"),
            _vaccine(ident="b2"),
            _vaccine(ident="c", imm=Immunization.TYPE_III_PERSISTENCE),
        ]
        result = select_minimal(vaccines)
        assert len(result.selected) == 1
        assert result.selected[0].immunization is Immunization.FULL

    def test_minimal_keeps_one_per_partial_class(self):
        vaccines = [
            _vaccine(ident="n1", imm=Immunization.TYPE_II_NETWORK),
            _vaccine(ident="n2", imm=Immunization.TYPE_II_NETWORK),
            _vaccine(ident="p1", imm=Immunization.TYPE_III_PERSISTENCE),
        ]
        result = select_minimal(vaccines)
        assert len(result.selected) == 2
        classes = {v.immunization for v in result.selected}
        assert classes == {Immunization.TYPE_II_NETWORK, Immunization.TYPE_III_PERSISTENCE}

    def test_selection_is_per_malware(self):
        vaccines = [_vaccine(malware="a"), _vaccine(malware="b2", ident="q")]
        result = select_minimal(vaccines)
        assert len(result.selected) == 2
        assert set(result.coverage) == {"a", "b2"}

    def test_backups_added(self):
        vaccines = [_vaccine(ident="a"), _vaccine(ident="b2"), _vaccine(ident="c")]
        minimal = select_minimal(vaccines)
        with_backup = select_with_backups(vaccines, backups_per_sample=1)
        assert len(with_backup.selected) == len(minimal.selected) + 1

    def test_backups_motivated_by_variants(self, family_programs):
        analysis = AutoVac().analyze(family_programs["zeus"])
        result = select_with_backups(analysis.vaccines, backups_per_sample=1)
        assert len(result.selected) >= 2  # mutex + file both kept


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

class TestTraceSerialization:
    def _trace(self, family_programs):
        return run_sample(family_programs["zeus"], record_instructions=False).trace

    def test_roundtrip_counts(self, family_programs):
        trace = self._trace(family_programs)
        clone = trace_from_json(trace_to_json(trace))
        assert len(clone.api_calls) == len(trace.api_calls)
        assert len(clone.predicates) == len(trace.predicates)
        assert clone.exit_status == trace.exit_status

    def test_roundtrip_event_fidelity(self, family_programs):
        trace = self._trace(family_programs)
        clone = trace_from_json(trace_to_json(trace))
        for a, b in zip(trace.api_calls, clone.api_calls):
            assert a.context_key() == b.context_key()
            assert a.success == b.success and a.error == b.error

    def test_roundtrip_preserves_taint_classes(self, family_programs):
        trace = self._trace(family_programs)
        clone = trace_from_json(trace_to_json(trace))
        original = next(e for e in trace.api_calls if e.identifier_taints)
        restored = clone.event_by_id(original.event_id)
        assert restored.identifier_taints == original.identifier_taints

    def test_alignment_works_on_deserialized_traces(self, family_programs):
        from repro.analysis import align_lcs

        trace = self._trace(family_programs)
        clone = trace_from_json(trace_to_json(trace))
        assert align_lcs(clone.api_calls, trace.api_calls).is_identical

    def test_version_check(self):
        with pytest.raises(ValueError):
            trace_from_json('{"format_version": 99}')


# ---------------------------------------------------------------------------
# uninstall
# ---------------------------------------------------------------------------

class TestUninstall:
    def test_direct_injector_uninstall(self):
        from repro.delivery import DirectInjector

        env = SystemEnvironment()
        injector = DirectInjector(env)
        injector.inject(_vaccine(ident="UninstMtx"))
        injector.inject(_vaccine(ident="c:\\windows\\system32\\u.exe",
                                 rtype=ResourceType.FILE))
        assert env.mutexes.exists("UninstMtx")
        removed = injector.uninstall_all()
        assert removed == 2
        assert not env.mutexes.exists("UninstMtx")
        assert not env.filesystem.exists("c:\\windows\\system32\\u.exe")

    def test_daemon_uninstall_detaches(self):
        from repro.delivery import VaccineDaemon

        env = SystemEnvironment()
        daemon = VaccineDaemon(vaccines=[_vaccine(
            ident="d-1-x", kind=IdentifierKind.PARTIAL_STATIC,
            mechanism=Mechanism.ENFORCE_FAILURE)])
        daemon.vaccines[0].pattern = "^d\\-.+\\-x$"
        daemon.install(env)
        assert daemon in env.global_interceptors
        daemon.uninstall()
        assert daemon not in env.global_interceptors and not daemon.rules


# ---------------------------------------------------------------------------
# targeted malware (paper §II scenario 3)
# ---------------------------------------------------------------------------

class TestTargetedMalware:
    def test_dormant_on_plain_machine(self):
        run = run_sample(build_targeted_apt(), record_instructions=False)
        assert run.trace.terminated  # silent exit
        assert run.environment.network.bytes_sent_by(run.cpu.process.pid) == 0

    def test_detonates_on_target(self):
        env = prepare_target_environment(SystemEnvironment())
        run = run_sample(build_targeted_apt(), environment=env, record_instructions=False)
        assert run.environment.network.bytes_sent_by(run.cpu.process.pid) > 0

    def test_analysis_needs_target_environment(self):
        program = build_targeted_apt()
        plain = AutoVac().analyze(program)
        target = AutoVac(environment=prepare_target_environment(SystemEnvironment()))
        prepared = target.analyze(program)
        assert len(prepared.vaccines) > len(plain.vaccines)

    def test_environment_difference_vaccine_protects_target(self):
        program = build_targeted_apt()
        autovac = AutoVac(environment=prepare_target_environment(SystemEnvironment()))
        analysis = autovac.analyze(program)
        stage = [v for v in analysis.vaccines if "stg1" in v.identifier]
        assert stage and stage[0].mechanism is Mechanism.ENFORCE_FAILURE

        host = prepare_target_environment(SystemEnvironment(rng_seed=3))
        deploy(VaccinePackage(vaccines=stage), host)
        run = run_sample(program, environment=host, record_instructions=False)
        assert run.environment.network.bytes_sent_by(run.cpu.process.pid) == 0
        # The vendor software's own resources are untouched.
        assert run.environment.registry.exists("hklm\\software\\industro\\plc")
