"""CPU interpreter tests: semantics, flags, stack, control flow, faults."""

import pytest

from repro.vm import CPU, ExitStatus, STACK_TOP, assemble


def run(src: str, max_steps: int = 10_000) -> CPU:
    cpu = CPU(assemble(src), max_steps=max_steps)
    cpu.run()
    return cpu


class TestDataMovement:
    def test_mov_imm(self):
        assert run("    mov eax, 42\n    halt\n").regs["eax"] == 42

    def test_mov_between_registers(self):
        cpu = run("    mov eax, 7\n    mov ebx, eax\n    halt\n")
        assert cpu.regs["ebx"] == 7

    def test_mov_memory_roundtrip(self):
        cpu = run(".section .data\nv: .space 4\n.section .text\n    mov [v], 99\n    mov ecx, [v]\n    halt\n")
        assert cpu.regs["ecx"] == 99

    def test_movb_zero_extends(self):
        cpu = run("    mov eax, 0x1FF\n    mov ebx, eax\n    movb ebx, 0xAB\n    halt\n")
        assert cpu.regs["ebx"] == 0xAB

    def test_movb_memory_single_byte(self):
        cpu = run(
            ".section .data\nv: .dword 0x11223344\n.section .text\n"
            "    movb [v], 0xFF\n    mov eax, [v]\n    halt\n"
        )
        assert cpu.regs["eax"] == 0x112233FF

    def test_lea_computes_address(self):
        cpu = run("    mov ebx, 0x100\n    lea eax, [ebx+esi*4+8]\n    halt\n")
        assert cpu.regs["eax"] == 0x108

    def test_xchg(self):
        cpu = run("    mov eax, 1\n    mov ebx, 2\n    xchg eax, ebx\n    halt\n")
        assert (cpu.regs["eax"], cpu.regs["ebx"]) == (2, 1)


class TestAlu:
    def test_add_sub(self):
        cpu = run("    mov eax, 10\n    add eax, 5\n    sub eax, 3\n    halt\n")
        assert cpu.regs["eax"] == 12

    def test_add_wraps_32bit(self):
        cpu = run("    mov eax, 0xFFFFFFFF\n    add eax, 2\n    halt\n")
        assert cpu.regs["eax"] == 1
        assert cpu.flags["cf"] == 1

    def test_sub_borrow_sets_cf(self):
        cpu = run("    mov eax, 1\n    sub eax, 2\n    halt\n")
        assert cpu.regs["eax"] == 0xFFFFFFFF
        assert cpu.flags["cf"] == 1

    def test_imul(self):
        assert run("    mov eax, 6\n    imul eax, 7\n    halt\n").regs["eax"] == 42

    def test_logic_ops(self):
        cpu = run("    mov eax, 0xF0\n    and eax, 0x3C\n    or eax, 1\n    xor eax, 0xFF\n    halt\n")
        assert cpu.regs["eax"] == (((0xF0 & 0x3C) | 1) ^ 0xFF)

    def test_shifts(self):
        cpu = run("    mov eax, 1\n    shl eax, 4\n    shr eax, 2\n    halt\n")
        assert cpu.regs["eax"] == 4

    def test_inc_dec(self):
        cpu = run("    mov eax, 5\n    inc eax\n    dec eax\n    dec eax\n    halt\n")
        assert cpu.regs["eax"] == 4

    def test_neg_not(self):
        cpu = run("    mov eax, 1\n    neg eax\n    mov ebx, 0\n    not ebx\n    halt\n")
        assert cpu.regs["eax"] == 0xFFFFFFFF and cpu.regs["ebx"] == 0xFFFFFFFF


class TestFlagsAndJumps:
    def test_je_taken_on_equal(self):
        cpu = run("    mov eax, 3\n    cmp eax, 3\n    je ok\n    mov ebx, 1\nok:\n    halt\n")
        assert cpu.regs["ebx"] == 0

    def test_jne_taken_on_unequal(self):
        cpu = run("    cmp eax, 1\n    jne ok\n    mov ebx, 1\nok:\n    halt\n")
        assert cpu.regs["ebx"] == 0

    def test_signed_comparisons(self):
        cpu = run("    mov eax, 2\n    cmp eax, 5\n    jl less\n    mov ebx, 9\nless:\n    halt\n")
        assert cpu.regs["ebx"] == 0

    def test_unsigned_comparisons(self):
        cpu = run("    mov eax, 2\n    cmp eax, 5\n    jb below\n    mov ebx, 9\nbelow:\n    halt\n")
        assert cpu.regs["ebx"] == 0

    def test_ja_on_greater_unsigned(self):
        cpu = run("    mov eax, 7\n    cmp eax, 5\n    ja above\n    mov ebx, 9\nabove:\n    halt\n")
        assert cpu.regs["ebx"] == 0

    def test_test_sets_zf(self):
        cpu = run("    xor eax, eax\n    test eax, eax\n    jz zero\n    mov ebx, 1\nzero:\n    halt\n")
        assert cpu.regs["ebx"] == 0

    def test_loop_counts(self):
        cpu = run(
            "    mov ecx, 5\nloop:\n    add eax, 2\n    dec ecx\n    jnz loop\n    halt\n"
        )
        assert cpu.regs["eax"] == 10

    def test_jmp_register_target(self):
        cpu = run(
            "    mov eax, target\n    jmp eax\n    mov ebx, 1\ntarget:\n    halt\n"
        )
        assert cpu.regs["ebx"] == 0


class TestStackAndCalls:
    def test_push_pop(self):
        cpu = run("    push 7\n    push 8\n    pop eax\n    pop ebx\n    halt\n")
        assert (cpu.regs["eax"], cpu.regs["ebx"]) == (8, 7)
        assert cpu.regs["esp"] == STACK_TOP

    def test_call_ret(self):
        cpu = run(
            "main:\n    call fn\n    mov ebx, eax\n    halt\nfn:\n    mov eax, 11\n    ret\n"
        )
        assert cpu.regs["ebx"] == 11

    def test_nested_calls(self):
        cpu = run(
            "main:\n    call a\n    halt\n"
            "a:\n    call bfn\n    add eax, 1\n    ret\n"
            "bfn:\n    mov eax, 10\n    ret\n"
        )
        assert cpu.regs["eax"] == 11

    def test_ret_with_cleanup(self):
        cpu = run(
            "main:\n    push 1\n    push 2\n    call fn\n    halt\n"
            "fn:\n    mov eax, 5\n    ret 8\n"
        )
        assert cpu.regs["esp"] == STACK_TOP


class TestExitConditions:
    def test_halt_status(self):
        assert run("    halt\n").status is ExitStatus.HALTED

    def test_budget_exhaustion(self):
        cpu = run("loop:\n    jmp loop\n", max_steps=100)
        assert cpu.status is ExitStatus.BUDGET
        assert cpu.steps == 100

    def test_running_off_text_faults(self):
        cpu = run("    nop\n")  # no halt
        assert cpu.status is ExitStatus.FAULT

    def test_unmapped_memory_faults(self):
        cpu = run("    mov eax, [0x1]\n    halt\n")
        assert cpu.status is ExitStatus.FAULT
        assert "0x00000001" in cpu.fault_reason

    def test_api_call_without_dispatcher_faults(self):
        cpu = run("    call @GetTickCount\n    halt\n")
        assert cpu.status is ExitStatus.FAULT


class TestInstructionRecords:
    def test_records_have_defs_and_uses(self):
        cpu = run("    mov eax, 1\n    mov ebx, eax\n    halt\n")
        records = cpu.trace.instructions
        assert records[0].defs == (("reg", "eax"),)
        assert ("reg", "eax") in records[1].uses
        assert records[1].defs == (("reg", "ebx"),)

    def test_records_capture_esp(self):
        cpu = run("    push 1\n    halt\n")
        assert cpu.trace.instructions[0].esp == STACK_TOP

    def test_record_instructions_flag_disables(self):
        cpu = CPU(assemble("    mov eax, 1\n    halt\n"), record_instructions=False)
        cpu.run()
        assert cpu.trace.instructions == []

    def test_memory_defs_are_per_byte(self):
        cpu = run(".section .data\nv: .space 4\n.section .text\n    mov [v], 1\n    halt\n")
        defs = cpu.trace.instructions[0].defs
        assert len([d for d in defs if d[0] == "mem"]) == 4


class TestStackArgParity:
    """``read_stack_args`` must be bit-for-bit equivalent to repeated
    ``stack_arg`` calls — values, taints, and per-byte use records — even
    when the block read straddles region boundaries or the top of the
    address space (where its single-region fast path must decline), and on
    an unrecorded run over untainted memory (its value-only loop)."""

    N = 4

    @staticmethod
    def _fill_slots(cpu, esp, n, tainted=True):
        from repro.taint.labels import EMPTY, TaintClass, TaintTag

        tag = frozenset({TaintTag(3, "GetTickCount", TaintClass.ENV_DETERMINISTIC)})
        for k in range(n):
            a = (esp + 4 * k) & 0xFFFFFFFF
            for j in range(4):
                cpu.memory.write_byte(
                    (a + j) & 0xFFFFFFFF, (17 * k + j + 1) & 0xFF,
                    tag if tainted and k % 2 else EMPTY,
                )

    def _assert_parity(self, cpu, esp, tainted=True):
        cpu.regs["esp"] = esp
        self._fill_slots(cpu, esp, self.N, tainted)
        cpu._uses.clear()
        slow = [cpu.stack_arg(k) for k in range(self.N)]
        slow_uses = list(cpu._uses)
        cpu._uses.clear()
        values, taints = cpu.read_stack_args(self.N)
        assert values == [v for v, _ in slow]
        assert taints == [t for _, t in slow]
        assert list(cpu._uses) == slow_uses
        if tainted:
            assert any(taints) and not all(taints)  # the fixture mixed both
        else:
            assert not any(taints) and len(taints) == self.N

    def test_parity_inside_one_region(self):
        cpu = run("    halt\n")
        self._assert_parity(cpu, STACK_TOP - 0x100)

    def test_parity_across_region_boundary(self):
        """Two slots in the stack region, two in an adjacently mapped one:
        the whole-block containment check fails and the per-slot fallback
        must produce identical records."""
        cpu = run("    halt\n")
        stack_end = STACK_TOP + 0x1000  # mapped stack region end (memory.py)
        cpu.memory.map_region(stack_end, 0x1000)
        self._assert_parity(cpu, stack_end - 8)

    def test_parity_wrapping_address_space_top(self):
        """esp near 0xFFFFFFFC: the block's last byte overflows 32 bits, so
        the unmasked fast-path bound must decline and per-slot masked reads
        take over (slot addresses wrap to page zero)."""
        cpu = run("    halt\n")
        cpu.memory.map_region(0xFFFFF000, 0x1000)
        cpu.memory.map_region(0, 0x1000)
        self._assert_parity(cpu, 0xFFFFFFF4)

    @pytest.mark.parametrize("layout", ["one_region", "region_boundary", "wrap"])
    def test_parity_unrecorded_taint_free(self, layout):
        """An unrecorded run's memory carries no taint: the value-only loop
        (and the fallbacks it defers to) read what ``stack_arg`` reads and
        record no uses."""
        cpu = CPU(assemble("    halt\n"), record_instructions=False)
        esp = STACK_TOP - 0x100
        if layout == "region_boundary":
            esp = STACK_TOP + 0x1000 - 8
            cpu.memory.map_region(STACK_TOP + 0x1000, 0x1000)
        elif layout == "wrap":
            esp = 0xFFFFFFF4
            cpu.memory.map_region(0xFFFFF000, 0x1000)
            cpu.memory.map_region(0, 0x1000)
        self._assert_parity(cpu, esp, tainted=False)
        assert not cpu.memory._taint and cpu._uses == []
