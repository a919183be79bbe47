"""Differential testing: the CPU against an independent Python model.

Hypothesis generates random straight-line ALU programs; both the VM and a
direct Python evaluator execute them, and the final register files must
agree.  This is the strongest guard on interpreter semantics (the taint and
slicing layers all sit on top of them).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.vm import CPU, assemble

REGS = ("eax", "ebx", "ecx", "edx", "esi", "edi")
MASK = 0xFFFFFFFF


def _model_step(state: dict, mnemonic: str, dst: str, src) -> None:
    value = state[src] if isinstance(src, str) else src
    if mnemonic == "mov":
        state[dst] = value & MASK
    elif mnemonic == "add":
        state[dst] = (state[dst] + value) & MASK
    elif mnemonic == "sub":
        state[dst] = (state[dst] - value) & MASK
    elif mnemonic == "xor":
        state[dst] = (state[dst] ^ value) & MASK
    elif mnemonic == "and":
        state[dst] = state[dst] & value & MASK
    elif mnemonic == "or":
        state[dst] = (state[dst] | value) & MASK
    elif mnemonic == "imul":
        state[dst] = (state[dst] * value) & MASK
    elif mnemonic == "shl":
        state[dst] = (state[dst] << (value & 0x1F)) & MASK
    elif mnemonic == "shr":
        state[dst] = (state[dst] >> (value & 0x1F)) & MASK
    elif mnemonic == "inc":
        state[dst] = (state[dst] + 1) & MASK
    elif mnemonic == "dec":
        state[dst] = (state[dst] - 1) & MASK
    elif mnemonic == "neg":
        state[dst] = (-state[dst]) & MASK
    elif mnemonic == "not":
        state[dst] = (~state[dst]) & MASK


binary_ops = st.sampled_from(["mov", "add", "sub", "xor", "and", "or", "imul", "shl", "shr"])
unary_ops = st.sampled_from(["inc", "dec", "neg", "not"])
registers = st.sampled_from(REGS)
immediates = st.integers(min_value=0, max_value=0xFFFFFFFF)

binary_instr = st.tuples(binary_ops, registers, st.one_of(registers, immediates))
unary_instr = st.tuples(unary_ops, registers, st.none())
instructions = st.lists(st.one_of(binary_instr, unary_instr), min_size=1, max_size=30)


@given(instructions)
@settings(max_examples=200, deadline=None)
def test_cpu_matches_python_model(instrs):
    lines = []
    model = {r: 0 for r in REGS}
    for mnemonic, dst, src in instrs:
        if src is None:
            lines.append(f"    {mnemonic} {dst}")
        elif isinstance(src, str):
            lines.append(f"    {mnemonic} {dst}, {src}")
        else:
            lines.append(f"    {mnemonic} {dst}, {src}")
        _model_step(model, mnemonic, dst, src)
    src_text = "main:\n" + "\n".join(lines) + "\n    halt\n"
    cpu = CPU(assemble(src_text), max_steps=1000)
    cpu.run()
    assert cpu.status.value == "halted"
    for reg in REGS:
        assert cpu.regs[reg] == model[reg], (reg, src_text)


@given(st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_push_pop_lifo(values):
    push_lines = "\n".join(f"    push {v}" for v in values)
    pop_lines = "\n".join("    pop eax" for _ in values)
    cpu = CPU(assemble(f"main:\n{push_lines}\n{pop_lines}\n    halt\n"))
    cpu.run()
    assert cpu.regs["eax"] == values[0]  # last popped = first pushed


@given(st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.integers(min_value=0, max_value=0xFFFFFFFF))
@settings(max_examples=100, deadline=None)
def test_comparison_flags_match_semantics(a, b):
    cpu = CPU(assemble(
        f"main:\n    mov eax, {a}\n    cmp eax, {b}\n    halt\n"))
    cpu.run()
    assert cpu.flags["zf"] == (1 if a == b else 0)
    assert cpu.flags["cf"] == (1 if a < b else 0)
    assert cpu.flags["sf"] == (1 if ((a - b) & 0x80000000) else 0)


@given(st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.integers(min_value=0, max_value=0xFFFFFFFF))
@settings(max_examples=60, deadline=None)
def test_unsigned_branch_picks_correct_path(a, b):
    cpu = CPU(assemble(
        f"main:\n    mov eax, {a}\n    cmp eax, {b}\n    jb below\n"
        "    mov ebx, 2\n    halt\nbelow:\n    mov ebx, 1\n    halt\n"))
    cpu.run()
    assert cpu.regs["ebx"] == (1 if a < b else 2)


# ---------------------------------------------------------------------------
# execution-tier parity: slow / fast / superblocks must be indistinguishable
# ---------------------------------------------------------------------------

def _final_state(cpu):
    return (cpu.status, cpu.steps, cpu.pc, dict(cpu.regs), dict(cpu.flags))


def _run_all_tiers(src: str, max_steps: int = 20_000):
    """Final machine state under each execution configuration.

    * slow — recording interpreter (tier 1);
    * fast — predecoded per-instruction loop, superblocks off (tier 2);
    * sb-eager — superblocks on with threshold 0 (every region compiles on
      first entry, the harshest tier-3 coverage);
    * sb-default — superblocks at the default hotness threshold.
    """
    program = assemble(src)
    states = {}
    for label, kwargs in (
        ("slow", dict(record_instructions=True)),
        ("fast", dict(record_instructions=False, superblocks=False)),
        ("sb-eager", dict(record_instructions=False, superblocks=True,
                          superblock_threshold=0)),
        ("sb-default", dict(record_instructions=False, superblocks=True)),
    ):
        cpu = CPU(program, max_steps=max_steps, **kwargs)
        cpu.run()
        states[label] = _final_state(cpu)
    return states


def _assert_tier_parity(states):
    reference = states["slow"]
    for label, state in states.items():
        assert state == reference, (label, state, reference)


loop_bodies = st.lists(
    st.one_of(binary_instr, unary_instr), min_size=1, max_size=8
)


@given(loop_bodies, st.integers(min_value=1, max_value=40), instructions)
@settings(max_examples=60, deadline=None)
def test_tier_parity_on_random_looped_programs(body, rounds, tail):
    """Random back-edge loops + straight-line tails agree across all tiers."""
    def fmt(instr):
        mnemonic, dst, src = instr
        if src is None:
            return f"    {mnemonic} {dst}"
        return f"    {mnemonic} {dst}, {src}"

    src = (
        "main:\n"
        + f"    mov ebp, {rounds}\n"
        + "loop:\n"
        + "\n".join(fmt(i) for i in body if i[1] != "ebp")
        + "\n    dec ebp\n    jnz loop\n"
        + "\n".join(fmt(i) for i in tail)
        + "\n    halt\n"
    )
    _assert_tier_parity(_run_all_tiers(src))


@given(st.integers(min_value=2, max_value=64))
@settings(max_examples=30, deadline=None)
def test_tier_parity_with_taint_points(length):
    """A buffer filled by a labelled API and hashed in a loop: the recorded
    run propagates taint through every load and predicate, the unrecorded
    tiers carry none, and all of them finish in the identical state."""
    from repro.winapi import Dispatcher
    from repro.winenv import SystemEnvironment

    src = (
        ".section .data\n"
        f"buf: .space {length + 4}\n"
        ".section .text\n"
        "    push 0\n"
        f"    push buf\n"
        "    call @GetComputerNameA\n"
        "    xor esi, esi\n"
        "    mov ebx, 5381\n"
        "hash:\n"
        "    xor eax, eax\n"
        "    movb eax, [buf+esi]\n"
        "    test eax, eax\n"
        "    jz done\n"
        "    imul ebx, 33\n"
        "    add ebx, eax\n"
        "    inc esi\n"
        "    jmp hash\n"
        "done:\n"
        "    halt\n"
    )
    program = assemble(src)
    states = {}
    for label, kwargs in (
        ("slow", dict(record_instructions=True)),
        ("fast", dict(record_instructions=False, superblocks=False)),
        ("sb-eager", dict(record_instructions=False, superblocks=True,
                          superblock_threshold=0)),
        ("sb-default", dict(record_instructions=False, superblocks=True)),
    ):
        env = SystemEnvironment()
        proc = env.spawn_process("t.exe")
        cpu = CPU(
            program,
            environment=env,
            process=proc,
            dispatcher=Dispatcher(env, proc),
            **kwargs,
        )
        cpu.run()
        states[label] = _final_state(cpu)
        if label == "slow":
            assert cpu.reg_taint["ebx"] and cpu.trace.predicates
        else:
            assert not any(cpu.reg_taint.values()) and not cpu.trace.predicates
    _assert_tier_parity(states)
