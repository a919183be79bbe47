"""Tier-3 superblock compiler: region discovery, parity, resume, counters.

The heavy semantic guarantees (random programs agree across tiers) live in
``test_cpu_differential.py``; this module pins the structural contracts of
:mod:`repro.vm.superblock` — what becomes a region, what a region reports
through observability, and how snapshot resume interacts with region
entries.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.vm import CPU, assemble
from repro.vm.cpu import ExitStatus
from repro.vm.superblock import MIN_REGION, SuperblockCache, superblock_cache


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.metrics.enabled = True
    yield
    obs.reset()


def _cache(src: str) -> SuperblockCache:
    return superblock_cache(assemble(src), threshold=0)


class TestRegionDiscovery:
    def test_straight_line_block_is_one_region(self):
        cache = _cache(
            "main:\n    mov eax, 1\n    add eax, 2\n    xor ebx, ebx\n    halt\n"
        )
        region = cache.entries[0]
        assert region is not None and region.kind == "line"
        assert region.length == 3  # halt ends the region, not part of it
        assert all(r is None for r in cache.entries[1:])

    def test_jump_target_splits_regions(self):
        cache = _cache(
            "main:\n"
            "    mov eax, 1\n"
            "    add eax, 2\n"
            "    add ebx, 3\n"
            "target:\n"
            "    add ecx, 4\n"
            "    add edx, 5\n"
            "    halt\n"
            "    jmp target\n"  # unreachable, but makes `target` a leader
        )
        first, second = cache.entries[0], cache.entries[3]
        assert first is not None and first.length == 3
        assert second is not None and second.length == 2

    def test_non_fast_instruction_ends_region(self):
        cache = _cache(
            "main:\n"
            "    mov eax, 1\n"
            "    add eax, 2\n"
            "    call @GetLastError\n"
            "    add ebx, 1\n"
            "    add ecx, 1\n"
            "    halt\n"
        )
        assert cache.entries[0] is not None and cache.entries[0].length == 2
        assert cache.entries[2] is None  # the call itself is no region
        assert cache.entries[3] is not None and cache.entries[3].length == 2

    def test_back_edge_makes_loop_region(self):
        cache = _cache(
            "main:\n    mov ecx, 5\nspin:\n    add eax, ecx\n    dec ecx\n"
            "    jnz spin\n    halt\n"
        )
        region = cache.entries[1]
        assert region is not None and region.kind == "loop"
        assert region.terminator is not None

    def test_short_runs_are_not_regions(self):
        # A single compilable instruction between two calls is below
        # MIN_REGION and must not get a region dispatch.
        cache = _cache(
            "main:\n"
            "    call @GetLastError\n"
            "    add eax, 1\n"
            "    call @GetLastError\n"
            "    halt\n"
        )
        assert MIN_REGION > 1
        assert cache.entries[1] is None


class TestCounters:
    SRC = (
        "main:\n    mov ecx, 200\nspin:\n    mov eax, ecx\n    imul eax, 13\n"
        "    add ebx, eax\n    dec ecx\n    jnz spin\n    halt\n"
    )

    def test_superblock_counters_flow_to_obs(self):
        cpu = CPU(
            assemble(self.SRC),
            record_instructions=False,
            superblocks=True,
            superblock_threshold=0,
        )
        cpu.run()
        assert cpu.status is ExitStatus.HALTED
        assert obs.metrics.total("vm.superblocks.compiled") >= 1
        assert obs.metrics.total("vm.superblocks.entries") >= 1
        assert obs.metrics.total("vm.instructions") == cpu.steps

    def test_fast_steps_counted_without_superblocks(self):
        cpu = CPU(assemble(self.SRC), record_instructions=False, superblocks=False)
        cpu.run()
        assert obs.metrics.total("vm.fast_steps") > 0
        assert obs.metrics.total("vm.superblocks.entries") == 0

    def test_guard_exits_counted_at_budget_end(self):
        # Three steps left when the loop region comes round again: fewer
        # than its five instructions, so the chunked-budget guard refuses
        # it and the fast loop finishes the budget per-instruction.
        cpu = CPU(
            assemble(self.SRC),
            max_steps=9,
            record_instructions=False,
            superblocks=True,
            superblock_threshold=0,
        )
        cpu.run()
        assert cpu.status is ExitStatus.BUDGET and cpu.steps == 9
        assert obs.metrics.total("vm.superblocks.guard_exits") == 1


class TestFaultPc:
    # The faulting instruction sits at entry+2; every tier must name *its*
    # pc in fault_reason, not the already-advanced successor pc.
    SRC = (
        "main:\n    mov esi, 16\n    mov ebx, 1\n    mov eax, [esi]\n"
        "    add ebx, 2\n    halt\n"
    )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(record_instructions=True),
            dict(record_instructions=False, superblocks=False),
            dict(record_instructions=False, superblocks=True, superblock_threshold=0),
        ],
        ids=["slow", "fast", "superblock"],
    )
    def test_fault_reason_names_faulting_pc(self, kwargs):
        cpu = CPU(assemble(self.SRC), **kwargs)
        cpu.run()
        fault_pc = cpu.program.entry + 2
        assert cpu.status is ExitStatus.FAULT
        assert f"pc 0x{fault_pc:08x}" in cpu.fault_reason
        assert cpu.steps == 3  # the faulting step is charged

    def test_fault_state_identical_across_tiers(self):
        states = []
        for kwargs in (
            dict(record_instructions=True),
            dict(record_instructions=False, superblocks=False),
            dict(record_instructions=False, superblocks=True, superblock_threshold=0),
        ):
            cpu = CPU(assemble(self.SRC), **kwargs)
            cpu.run()
            states.append(
                (cpu.status, cpu.steps, cpu.pc, dict(cpu.regs), cpu.fault_reason)
            )
        assert states[0] == states[1] == states[2]


class TestBudgetAndResume:
    SRC = (
        "main:\n    mov ecx, 100\nspin:\n    mov eax, ecx\n    add ebx, eax\n"
        "    imul eax, 3\n    dec ecx\n    jnz spin\n    halt\n"
    )

    def _reference(self, max_steps):
        cpu = CPU(assemble(self.SRC), max_steps=max_steps, record_instructions=True)
        cpu.run()
        return cpu

    @pytest.mark.parametrize("budget", [7, 50, 123, 5000])
    def test_budget_exhausts_at_same_instruction(self, budget):
        ref = self._reference(budget)
        cpu = CPU(
            assemble(self.SRC),
            max_steps=budget,
            record_instructions=False,
            superblocks=True,
            superblock_threshold=0,
        )
        cpu.run()
        assert (cpu.status, cpu.steps, cpu.pc, dict(cpu.regs)) == (
            ref.status,
            ref.steps,
            ref.pc,
            dict(ref.regs),
        )

    @pytest.mark.parametrize("pause_at", [8, 9, 10, 11, 12])
    def test_resume_mid_region_matches_full_run(self, pause_at):
        """A resumed pc that lands mid-region executes per-instruction until
        the next region entry — final state must match one uninterrupted
        superblocked run and the slow reference."""
        program = assemble(self.SRC)
        ref = self._reference(20_000)

        first = CPU(
            program,
            max_steps=pause_at,
            record_instructions=False,
            superblocks=True,
            superblock_threshold=0,
        )
        first.run()
        assert first.status is ExitStatus.BUDGET

        resumed = CPU.resume(
            program,
            None,
            None,
            None,
            memory=first.memory,
            regs=first.regs,
            flags=first.flags,
            pc=first.pc,
            steps=first.steps,
            callstack=first.callstack,
            trace=first.trace,
            max_steps=20_000,
            superblocks=True,
            superblock_threshold=0,
        )
        resumed.run()
        assert resumed.status is ExitStatus.HALTED
        assert (resumed.steps, resumed.pc, dict(resumed.regs)) == (
            ref.steps,
            ref.pc,
            dict(ref.regs),
        )


class TestRegionChaining:
    """A chain of three hot regions (prologue -> loop -> epilogue), each
    entered through the fast loop's probe: counters and machine state
    agree with the slow path."""

    SRC = (
        "main:\n    mov ecx, 50\n    xor ebx, ebx\n"
        "spin:\n    mov eax, ecx\n    imul eax, 13\n    add ebx, eax\n"
        "    dec ecx\n    jnz spin\n"
        "done:\n    mov edx, ebx\n    mov esi, 7\n    halt\n"
    )

    def _run(self, **kwargs):
        cpu = CPU(
            assemble(self.SRC),
            record_instructions=False,
            superblocks=True,
            superblock_threshold=0,
            **kwargs,
        )
        cpu.run()
        return cpu

    def test_chain_counts_every_region_entered(self):
        cpu = self._run()
        assert cpu.status is ExitStatus.HALTED
        # All three regions were entered (prologue once, loop once per
        # back-edge re-dispatch bundle, epilogue once) and every entry
        # lands in the counter.
        assert cpu._sb_entries >= 3
        assert obs.metrics.total("vm.superblocks.entries") == cpu._sb_entries
        assert obs.metrics.total("vm.instructions") == cpu.steps

    def test_chaining_preserves_machine_state(self):
        chained = self._run()
        slow = CPU(assemble(self.SRC), record_instructions=False, superblocks=False)
        slow._allow_fast = False
        slow.run()
        assert chained.status is slow.status is ExitStatus.HALTED
        assert chained.regs == slow.regs
        assert chained.steps == slow.steps
        assert chained.flags == slow.flags

    @pytest.mark.parametrize("budget", [3, 7, 55, 120])
    def test_budget_parity_with_chaining(self, budget):
        fast = CPU(
            assemble(self.SRC),
            record_instructions=False,
            superblocks=True,
            superblock_threshold=0,
            max_steps=budget,
        )
        fast.run()
        slow = CPU(
            assemble(self.SRC), record_instructions=False,
            superblocks=False, max_steps=budget,
        )
        slow._allow_fast = False
        slow.run()
        assert fast.status is slow.status
        assert fast.steps == slow.steps
        assert fast.pc == slow.pc
        assert fast.regs == slow.regs
