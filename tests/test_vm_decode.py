"""Predecoded interpreter fast-path tests.

The CPU binds every instruction to a predecoded handler pair at
construction: a full handler (taint + def/use bookkeeping) and, where the
instruction has no taint-relevant side channel, an untainted fast handler.
An unrecorded run carries no taint and stays on the fast handlers — these
tests pin that the two paths are observationally identical and that each
run picks its path from ``record_instructions`` alone.
"""

from __future__ import annotations

import gc

import pytest

from repro import obs
from repro.vm import CPU, ExitStatus, assemble, decode
from repro.vm.cpu import _VM_FLUSH_CACHE
from repro.winapi import Dispatcher
from repro.winenv import SystemEnvironment


def _fresh_cpu(src: str, record_instructions: bool, max_steps: int = 50_000) -> CPU:
    env = SystemEnvironment()
    proc = env.spawn_process("t.exe")
    program = assemble(src, name="decode-test")
    cpu = CPU(
        program,
        environment=env,
        process=proc,
        dispatcher=Dispatcher(env, proc),
        max_steps=max_steps,
        record_instructions=record_instructions,
    )
    cpu.run()
    return cpu


def _machine_state(cpu: CPU):
    return (
        cpu.regs,
        cpu.flags,
        cpu.steps,
        cpu.status,
        cpu.fault_reason,
        cpu.callstack,
        dict(cpu.memory._bytes),
        [e.context_key() for e in cpu.trace.api_calls],
    )


# Exercises every fast-handler family: mov/lea/xchg, the ALU group,
# unaries, push/pop, cmp/test + all flag-driven jumps, local call/ret,
# and byte-wide memory traffic — inside a loop so the fast inner loop
# actually spins.
COMPUTE = """
.section .data
buf: .space 64
.section .text
    mov ecx, 16
    mov esi, buf
    xor eax, eax
loop_top:
    mov ebx, ecx
    imul ebx, 3
    add eax, ebx
    sub ebx, 1
    and ebx, 255
    or ebx, 1
    shl ebx, 2
    shr ebx, 1
    not ebx
    neg ebx
    movb [esi], ebx
    inc esi
    lea edx, [esi+4]
    xchg edx, ebx
    push eax
    pop edx
    call helper
    cmp eax, 1000
    ja big
    dec ecx
    test ecx, ecx
    jnz loop_top
big:
    cmp eax, 0
    je never
    jge done
never:
    halt
done:
    halt
helper:
    push ebp
    mov ebp, esp
    add eax, 7
    pop ebp
    ret
"""


class TestFastSlowParity:
    def test_compute_heavy_program_identical(self):
        slow = _fresh_cpu(COMPUTE, record_instructions=True)
        fast = _fresh_cpu(COMPUTE, record_instructions=False)
        assert slow.status is ExitStatus.HALTED
        assert _machine_state(slow) == _machine_state(fast)

    def test_fast_loop_engages_without_recording(self):
        fast = _fresh_cpu(COMPUTE, record_instructions=False)
        assert fast._allow_fast and fast._slow_steps == 0
        # Recording mode never enters the fast loop.
        slow = _fresh_cpu(COMPUTE, record_instructions=True)
        assert not slow._allow_fast and slow._slow_steps == slow.steps
        assert len(slow.trace.instructions) == slow.steps

    def test_fault_parity_on_bad_memory(self):
        src = "    mov eax, [0x10]\n    halt\n"
        slow = _fresh_cpu(src, record_instructions=True)
        fast = _fresh_cpu(src, record_instructions=False)
        assert slow.status is fast.status is ExitStatus.FAULT
        assert slow.fault_reason == fast.fault_reason
        assert slow.steps == fast.steps

    def test_fault_parity_on_wild_jump(self):
        src = "    jmp 0x99999999\n    halt\n"
        slow = _fresh_cpu(src, record_instructions=True)
        fast = _fresh_cpu(src, record_instructions=False)
        assert slow.status is fast.status is ExitStatus.FAULT
        assert slow.fault_reason == fast.fault_reason

    def test_budget_parity(self):
        src = "spin:\n    inc eax\n    jmp spin\n"
        slow = _fresh_cpu(src, record_instructions=True, max_steps=501)
        fast = _fresh_cpu(src, record_instructions=False, max_steps=501)
        assert slow.status is fast.status is ExitStatus.BUDGET
        assert slow.steps == fast.steps == 501
        assert slow.regs["eax"] == fast.regs["eax"]


class TestVmFlushCacheGeneration:
    def test_counters_survive_obs_reset(self):
        obs.reset()
        try:
            cpu1 = _fresh_cpu("    mov eax, 1\n    halt\n", record_instructions=False)
            assert obs.metrics.counter("vm.instructions").value == cpu1.steps
            generation_before = _VM_FLUSH_CACHE.generation

            obs.reset()  # bumps the registry generation, discards families
            assert obs.metrics.generation != generation_before
            cpu2 = _fresh_cpu("    mov eax, 1\n    mov ebx, 2\n    halt\n",
                              record_instructions=False)
            # The stale handles must be dropped: the fresh registry sees
            # exactly the second run, not zero (lost to a dead handle) and
            # not first+second (leaked through a stale one).
            assert obs.metrics.counter("vm.instructions").value == cpu2.steps
            assert _VM_FLUSH_CACHE.generation == obs.metrics.generation
        finally:
            obs.reset()

    def test_per_status_handles_refresh(self):
        obs.reset()
        try:
            _fresh_cpu("    halt\n", record_instructions=False)
            assert obs.metrics.counter("vm.runs", status="halted").value == 1
            obs.reset()
            _fresh_cpu("    halt\n", record_instructions=False)
            assert obs.metrics.counter("vm.runs", status="halted").value == 1
        finally:
            obs.reset()


# Operand values no other program uses, so no live program elsewhere in the
# session keeps these entries in the shared table.  No ``halt``: the run
# falls off ``.text`` and faults, which is all the lifetime test needs.
SHARED_SRC = """
    mov eax, 0x5eed0001
    add eax, 0x5eed0002
    cmp eax, 0x5eed0003
"""


def _keys(program):
    return [(i.mnemonic, i.operands) for i in program.instructions]


class TestSharedDecodeTable:
    def test_programs_share_one_entry_per_instruction(self):
        first = assemble(SHARED_SRC, name="shared-a")
        second = assemble(SHARED_SRC, name="shared-b")
        a, b = decode.decoded_program(first), decode.decoded_program(second)
        assert a is not b  # each program keeps its own tuple
        assert len(a) == len(b) == 3
        assert all(x is y for x, y in zip(a, b))

    def test_entries_live_only_as_long_as_a_program_uses_them(self):
        first = _fresh_cpu(SHARED_SRC, record_instructions=False)
        second = _fresh_cpu(SHARED_SRC, record_instructions=True)
        assert first.status is second.status is ExitStatus.FAULT
        keys = _keys(first.program)
        assert all(key in decode._SHARED for key in keys)
        del first, second
        gc.collect()
        assert not [key for key in keys if key in decode._SHARED]

    def test_swapped_instruction_list_redecodes(self):
        program = assemble(SHARED_SRC, name="shared-swap")
        before = decode.decoded_program(program)
        assert decode.decoded_program(program) is before
        replacement = assemble("    mov eax, 0x5eed0001\n    mov ebx, 0x5eed0004\n")
        program.instructions = list(replacement.instructions)
        after = decode.decoded_program(program)
        assert after is not before
        assert [entry[2] for entry in after] == ["mov eax, 0x5eed0001", "mov ebx, 0x5eed0004"]
        assert after[0] is before[0]  # the unchanged instruction keeps its entry
