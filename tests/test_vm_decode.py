"""Predecoded interpreter fast-path tests.

The CPU binds every instruction to a predecoded handler pair at
construction: a full handler (taint + def/use bookkeeping) and, where the
instruction has no taint-relevant side channel, an untainted fast handler.
An unrecorded run carries no taint and stays on the fast handlers — these
tests pin that the two paths are observationally identical and that each
run picks its path from ``record_instructions`` alone.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.vm import CPU, ExitStatus, assemble
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
