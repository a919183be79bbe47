"""Impact analysis (mutation + delta classification) and determinism tests."""

import re

import pytest

from repro.core import (
    IdentifierKind,
    Immunization,
    Mechanism,
    select_candidates,
)
from repro.core.candidate import run_phase1
from repro.core.determinism import analyze_determinism, build_pattern
from repro.core.impact import ImpactAnalyzer, ResourceMutation, primary_immunization
from repro.core.runner import run_sample
from repro.vm import assemble
from repro.winenv import ResourceType


def phase1(src_or_prog, name="s"):
    program = src_or_prog if not isinstance(src_or_prog, str) else assemble(src_or_prog, name=name)
    return program, select_candidates(program)


MARKER_EXIT = (
    '.section .rdata\nm: .asciz "Mker"\n.section .text\n'
    "    push m\n    push 0\n    push 0x1F0001\n    call @OpenMutexA\n"
    "    test eax, eax\n    jnz infected\n"
    "    push m\n    push 0\n    push 0\n    call @CreateMutexA\n"
    "    push 0\n    push 0\n    push 0\n    push 0\n    call @CreateEventA\n"
    "    halt\ninfected:\n    push 0\n    call @ExitProcess\n"
)


class TestImpactAnalysis:
    def test_simulate_presence_gives_full_immunization(self):
        program, report = phase1(MARKER_EXIT)
        cand = report.candidate(ResourceType.MUTEX, "Mker")
        outcome = ImpactAnalyzer().analyze_mechanism(
            program, cand, report.trace, Mechanism.SIMULATE_PRESENCE
        )
        assert outcome.immunization is Immunization.FULL
        assert outcome.mutation_hits >= 1

    def test_enforce_failure_no_effect_on_marker_checker(self):
        program, report = phase1(MARKER_EXIT)
        cand = report.candidate(ResourceType.MUTEX, "Mker")
        outcome = ImpactAnalyzer().analyze_mechanism(
            program, cand, report.trace, Mechanism.ENFORCE_FAILURE
        )
        # OpenMutex already fails naturally; CreateMutex failing is ignored
        # by this sample.
        assert outcome.immunization is Immunization.NONE

    def test_network_type2_detected(self, family_programs):
        program = family_programs["zeus"]
        report = select_candidates(program)
        cand = report.candidate(ResourceType.MUTEX, "_AVIRA_2109")
        outcome = ImpactAnalyzer().analyze_mechanism(
            program, cand, report.trace, Mechanism.SIMULATE_PRESENCE
        )
        assert Immunization.TYPE_II_NETWORK in outcome.effects
        assert Immunization.TYPE_IV_INJECTION in outcome.effects

    def test_kernel_type1_detected(self, family_programs):
        program = family_programs["sality"]
        report = select_candidates(program)
        cand = report.candidate(
            ResourceType.FILE, "c:\\windows\\system32\\drivers\\qatpcks.sys"
        )
        outcome = ImpactAnalyzer().analyze_mechanism(
            program, cand, report.trace, Mechanism.ENFORCE_FAILURE
        )
        assert Immunization.TYPE_I_KERNEL in outcome.effects

    def test_persistence_type3_detected(self, family_programs):
        program = family_programs["poisonivy"]
        report = select_candidates(program)
        cand = report.candidate(ResourceType.FILE, "c:\\windows\\system32\\shlmon.exe")
        outcome = ImpactAnalyzer().analyze_mechanism(
            program, cand, report.trace, Mechanism.ENFORCE_FAILURE
        )
        assert Immunization.TYPE_III_PERSISTENCE in outcome.effects

    def test_priority_order(self):
        assert primary_immunization({Immunization.TYPE_III_PERSISTENCE,
                                     Immunization.FULL}) is Immunization.FULL
        assert primary_immunization({Immunization.TYPE_IV_INJECTION,
                                     Immunization.TYPE_II_NETWORK}) is Immunization.TYPE_II_NETWORK
        assert primary_immunization(set()) is Immunization.NONE

    def test_mutation_scoped_to_identifier(self):
        src = (
            '.section .rdata\na: .asciz "A1"\nb2: .asciz "B2"\n.section .text\n'
            "    push a\n    push 0\n    push 0\n    call @CreateMutexA\n"
            "    push b2\n    push 0\n    push 0\n    call @CreateMutexA\n"
            "    test eax, eax\n    jz d\nd:\n    halt\n"
        )
        program, report = phase1(src)
        cand = report.candidate(ResourceType.MUTEX, "A1")
        outcome = ImpactAnalyzer().analyze_mechanism(
            program, cand, report.trace, Mechanism.ENFORCE_FAILURE
        )
        assert outcome.mutation_hits == 1
        mutation = ResourceMutation(cand, Mechanism.ENFORCE_FAILURE)
        mutated = run_sample(program, interceptors=[mutation], record_instructions=False)
        events = mutated.trace.events_for_api("CreateMutexA")
        assert not events[0].success and events[1].success


ALGO_SRC = r"""
.section .rdata
fmt:    .asciz "Global\\%s-7"
.section .data
buf:    .space 96
name:   .space 64
.section .text
main:
    push 0
    push name
    call @GetComputerNameA
    push name
    push fmt
    push buf
    call @wsprintfA
    add esp, 12
    push buf
    push 0
    push 0x1F0001
    call @OpenMutexA
    test eax, eax
    jnz infected
    push buf
    push 0
    push 0
    call @CreateMutexA
    halt
infected:
    push 0
    call @ExitProcess
"""

PARTIAL_SRC = r"""
.section .rdata
fmt:    .asciz "LOCK-%x-END"
.section .data
buf:    .space 48
.section .text
main:
    call @GetTickCount
    push eax
    push fmt
    push buf
    call @wsprintfA
    add esp, 12
    push buf
    push 0
    push 0
    call @CreateMutexA
    test eax, eax
    jz bail
    halt
bail:
    push 1
    call @ExitProcess
"""

RANDOM_SRC = r"""
.section .rdata
fmt:    .asciz "%x%x"
.section .data
buf:    .space 48
.section .text
main:
    call @GetTickCount
    mov ebx, eax
    call @GetTickCount
    push eax
    push ebx
    push fmt
    push buf
    call @wsprintfA
    add esp, 16
    push buf
    push 0
    push 0
    call @CreateMutexA
    test eax, eax
    jz d
d:
    halt
"""


class TestDeterminism:
    def _classify(self, src):
        program = assemble(src, name="s")
        run = run_phase1(program)
        event = next(e for e in run.trace.api_calls if e.api == "CreateMutexA")
        return analyze_determinism(program, run, event), event

    def test_static_identifier(self):
        result, _ = self._classify(MARKER_EXIT)
        assert result.kind is IdentifierKind.STATIC

    def test_algorithm_deterministic_identifier(self):
        result, event = self._classify(ALGO_SRC)
        assert result.kind is IdentifierKind.ALGORITHM_DETERMINISTIC
        assert result.slice is not None
        assert "GetComputerNameA" in result.slice.env_inputs

    def test_partial_static_identifier_pattern(self):
        result, event = self._classify(PARTIAL_SRC)
        assert result.kind is IdentifierKind.PARTIAL_STATIC
        assert re.match(result.pattern, event.identifier)
        assert re.match(result.pattern, "LOCK-deadbeef-END")
        assert not re.match(result.pattern, "OTHER-123-END")

    def test_fully_random_identifier_discarded(self):
        result, _ = self._classify(RANDOM_SRC)
        assert result.kind is IdentifierKind.NON_DETERMINISTIC

    def test_replay_validation_catches_broken_slice(self):
        program = assemble(ALGO_SRC, name="s")
        run = run_phase1(program)
        event = next(e for e in run.trace.api_calls if e.api == "CreateMutexA")
        event.extra["identifier_addr"] = None
        result = analyze_determinism(program, run, event)
        assert result.kind is IdentifierKind.NON_DETERMINISTIC


class TestBuildPattern:
    def test_literal_runs_escaped(self):
        pattern = build_pattern("a.b|XY", ["static"] * 4 + ["random"] * 2)
        assert pattern == "^" + re.escape("a.b|") + ".+$"

    def test_wildcard_in_middle(self):
        pattern = build_pattern("pre123post", ["static"] * 3 + ["random"] * 3 + ["static"] * 4)
        assert re.match(pattern, "preXYZpost")
        assert not re.match(pattern, "preXYZpost2")

    def test_insufficient_static_context_rejected(self):
        assert build_pattern("ab1234", ["static"] * 2 + ["random"] * 4) is None

    def test_env_bytes_wildcarded(self):
        pattern = build_pattern("id-HOST", ["static"] * 3 + ["env"] * 4)
        assert re.match(pattern, "id-OTHERHOST")

    def test_length_mismatch_returns_none(self):
        assert build_pattern("abc", ["static"]) is None
