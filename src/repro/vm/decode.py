"""Predecoded instruction handlers — the interpreter's only dispatch.

Exact execution threads a ``(value, TagSet)`` pair through every operand
access.  That is the right shape for def/use records and taint
propagation, but it is pure overhead on every step of an unrecorded run,
which records no instructions and carries no taint.

This module binds each :class:`~repro.vm.isa.Instruction` of a program —
once, at first execution — to a triple ``(full, fast, text)``:

* ``full(cpu, pc, seq)`` — the exact semantics (taint, def/use,
  tainted-predicate events), chosen by mnemonic once at decode time
  instead of per step, with operands normalized once.  It delegates to the
  CPU's helpers (``_unary``, ``_binary``, ``_compare``, …) for taint and
  def/use work; the ALU results and branch conditions come from the same
  tables (``_UNOPS``, ``_BINOPS``, ``_CONDS``) the fast handlers use.
  ``CPU.step`` and slice replay (:mod:`repro.taint.replay`) both execute
  through it.
* ``fast(cpu)`` — an untainted specialization with pre-resolved operand
  accessors: plain ints end to end, no TagSet plumbing, no def/use lists,
  no flag-taint writes.  ``None`` for steps the fast loop must not swallow
  (``call @Api``, which dispatches from the slow step, and operand shapes
  the slow path would fault on).  Only unrecorded runs execute it.
* ``text`` — cached ``str(instr)`` for :class:`InstructionRecord`.

Fault behaviour is bit-for-bit compatible: accessors evaluate operands in
the same order as the slow path, so the *same* access faults first.

A decoded entry depends only on the instruction's mnemonic and operands
(no handler captures the program or the pc), so the process keeps one
entry per distinct instruction in a table shared by every program, the way
a code cache keeps one translation per block.  The table holds entries
weakly: an entry lives exactly as long as some program that uses it.  Each
``Program`` caches its tuple of entries (keyed by the identity of its
instruction list) and excludes it from pickling — worker processes and
snapshots re-decode locally.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional, Tuple

from .isa import Instruction
from .operands import ApiRef, Imm, Mem, Reg, mask32
from .program import Program

_M = 0xFFFFFFFF

#: ``fast`` handler: mutates the cpu, returns nothing.
FastHandler = Callable[[object], None]
#: ``full`` handler: exact step semantics.
FullHandler = Callable[[object, int, int], None]


class DecodedEntry(list):
    """One decoded instruction, ``[full, fast, text]``.

    A list subclass only so the shared table can hold it weakly (a tuple
    cannot be weakly referenced)."""

    __slots__ = ("__weakref__",)


#: ``(mnemonic, operands)`` -> its entry, shared by every program in the
#: process.
_SHARED = weakref.WeakValueDictionary()

#: ``ExitStatus.HALTED``, bound at first decode: ``cpu`` imports this
#: module, so the name cannot be imported when it loads.
_HALTED = None


# ---------------------------------------------------------------------------
# fast-path operand accessors (plain ints, no taint)
# ---------------------------------------------------------------------------


def _ea(op: Mem) -> Callable[[object], int]:
    """Effective-address closure; masking matches ``CPU._mem_address``."""
    base, index, scale, disp = op.base, op.index, op.scale, op.disp
    if base and index:
        return lambda cpu: (cpu.regs[base] + cpu.regs[index] * scale + disp) & _M
    if base:
        if disp == 0:
            return lambda cpu: cpu.regs[base]
        return lambda cpu: (cpu.regs[base] + disp) & _M
    if index:
        return lambda cpu: (cpu.regs[index] * scale + disp) & _M
    addr = disp & _M
    return lambda cpu: addr


def _load(op) -> Optional[Callable[[object], int]]:
    if type(op) is Reg:
        name = op.name
        return lambda cpu: cpu.regs[name]
    if type(op) is Imm:
        value = mask32(op.value)
        return lambda cpu: value
    if type(op) is Mem:
        ea = _ea(op)
        size = op.size
        return lambda cpu: cpu.memory.read_plain(ea(cpu), size)
    return None  # ApiRef — only legal as a call target


def _store(op) -> Optional[Callable[[object, int], None]]:
    if type(op) is Reg:
        name = op.name

        def store_reg(cpu, value):
            cpu.regs[name] = value & _M

        return store_reg
    if type(op) is Mem:
        ea = _ea(op)
        size = op.size
        return lambda cpu, value: cpu.memory.write_plain(ea(cpu), value, size)
    return None  # Imm destination — slow path faults; keep it there


def _movb_dst(op):
    """The slow path rebuilds byte-sized Mem destinations each step; the
    decoder normalizes once."""
    if type(op) is Mem and op.size != 1:
        return Mem(op.base, op.index, op.scale, op.disp, 1, op.symbol)
    return op


# ---------------------------------------------------------------------------
# fast handlers
# ---------------------------------------------------------------------------

#: Condition evaluators over the flags dict (the fast and full jump handlers
#: and the superblock codegen's ``_COND_EXPR`` agree on these).
_CONDS = {
    "je": lambda f: f["zf"] == 1,
    "jz": lambda f: f["zf"] == 1,
    "jne": lambda f: f["zf"] == 0,
    "jnz": lambda f: f["zf"] == 0,
    "jl": lambda f: f["sf"] == 1,
    "jge": lambda f: f["sf"] == 0,
    "jle": lambda f: f["sf"] == 1 or f["zf"] == 1,
    "jg": lambda f: f["sf"] == 0 and f["zf"] == 0,
    "jb": lambda f: f["cf"] == 1,
    "jae": lambda f: f["cf"] == 0,
    "jbe": lambda f: f["cf"] == 1 or f["zf"] == 1,
    "ja": lambda f: f["cf"] == 0 and f["zf"] == 0,
    "js": lambda f: f["sf"] == 1,
    "jns": lambda f: f["sf"] == 0,
}

#: result/carry lambdas for the binary ALU group (cf=0 where the slow path
#: leaves the default).
_BINOPS = {
    "add": lambda a, b: (a + b, 1 if a + b > _M else 0),
    "sub": lambda a, b: (a - b, 1 if a < b else 0),
    "xor": lambda a, b: (a ^ b, 0),
    "and": lambda a, b: (a & b, 0),
    "or": lambda a, b: (a | b, 0),
    "shl": lambda a, b: (a << (b & 0x1F), 0),
    "shr": lambda a, b: (a >> (b & 0x1F), 0),
    "imul": lambda a, b: (a * b, 0),
    "mul": lambda a, b: (a * b, 0),
}

_UNOPS = {
    "inc": lambda v: v + 1,
    "dec": lambda v: v - 1,
    "not": lambda v: ~v,
    "neg": lambda v: -v,
}


def _zeroes(m: str, dst, src) -> bool:
    """``xor r, r``: zeroes (and on the full path untaints) ``r``."""
    return m == "xor" and type(dst) is Reg and type(src) is Reg and dst.name == src.name


def _fast_handler(instr: Instruction) -> Optional[FastHandler]:
    m = instr.mnemonic
    ops = instr.operands

    if m == "nop":
        def fast_nop(cpu):
            return None

        return fast_nop

    if m == "halt":
        halted = _HALTED

        def fast_halt(cpu):
            cpu.status = halted

        return fast_halt

    if m in ("mov", "movb"):
        dst = _movb_dst(ops[0]) if m == "movb" else ops[0]
        if m == "mov" and type(dst) is Reg:
            # The two dominant shapes get direct register-file stores
            # instead of a store-closure calling a load-closure.
            if type(ops[1]) is Imm:
                name, value = dst.name, mask32(ops[1].value)

                def fast_mov_ri(cpu):
                    cpu.regs[name] = value

                return fast_mov_ri
            if type(ops[1]) is Reg:
                name, src_name = dst.name, ops[1].name

                def fast_mov_rr(cpu):
                    regs = cpu.regs
                    regs[name] = regs[src_name]

                return fast_mov_rr
        load = _load(ops[1])
        store = _store(dst)
        if load is None or store is None:
            return None
        if m == "movb":
            def fast_movb(cpu):
                store(cpu, load(cpu) & 0xFF)

            return fast_movb

        def fast_mov(cpu):
            store(cpu, load(cpu))

        return fast_mov

    if m == "lea":
        if type(ops[1]) is not Mem:
            return None  # slow path faults
        ea = _ea(ops[1])
        store = _store(ops[0])
        if store is None:
            return None

        def fast_lea(cpu):
            store(cpu, ea(cpu))

        return fast_lea

    if m == "xchg":
        la, lb = _load(ops[0]), _load(ops[1])
        sa, sb = _store(ops[0]), _store(ops[1])
        if None in (la, lb, sa, sb):
            return None

        def fast_xchg(cpu):
            a = la(cpu)
            b = lb(cpu)
            sa(cpu, b)
            sb(cpu, a)

        return fast_xchg

    if m == "push":
        load = _load(ops[0])
        if load is None:
            return None

        def fast_push(cpu):
            value = load(cpu)  # evaluated before esp moves, like the slow path
            regs = cpu.regs
            esp = (regs["esp"] - 4) & _M
            regs["esp"] = esp
            cpu.memory.write_plain(esp, value, 4)

        return fast_push

    if m == "pop":
        store = _store(ops[0])
        if store is None:
            return None

        def fast_pop(cpu):
            regs = cpu.regs
            esp = regs["esp"]
            value = cpu.memory.read_plain(esp, 4)
            regs["esp"] = (esp + 4) & _M
            store(cpu, value)  # dst address sees the popped esp (pop [esp])

        return fast_pop

    if m in _UNOPS:
        load = _load(ops[0])
        store = _store(ops[0])
        if load is None or store is None:
            return None
        op = _UNOPS[m]
        sets_flags = m != "not"

        def fast_unary(cpu):
            result = op(load(cpu)) & _M
            store(cpu, result)
            if sets_flags:  # cf untouched, like _unary's cf=None
                flags = cpu.flags
                flags["zf"] = 1 if result == 0 else 0
                flags["sf"] = 1 if result & 0x80000000 else 0

        return fast_unary

    if m in _BINOPS:
        dst, src = ops
        if _zeroes(m, dst, src):
            name = dst.name

            def fast_xor_self(cpu):
                cpu.regs[name] = 0
                flags = cpu.flags
                flags["zf"] = 1
                flags["sf"] = 0
                flags["cf"] = 0

            return fast_xor_self
        la, lb = _load(dst), _load(src)
        store = _store(dst)
        if la is None or lb is None or store is None:
            return None
        op = _BINOPS[m]

        def fast_binary(cpu):
            result, cf = op(la(cpu), lb(cpu))
            result &= _M
            store(cpu, result)
            flags = cpu.flags
            flags["zf"] = 1 if result == 0 else 0
            flags["sf"] = 1 if result & 0x80000000 else 0
            flags["cf"] = cf

        return fast_binary

    if m in ("cmp", "test"):
        la, lb = _load(ops[0]), _load(ops[1])
        if la is None or lb is None:
            return None
        if m == "cmp":
            def fast_cmp(cpu):
                a = la(cpu)
                b = lb(cpu)
                result = (a - b) & _M
                flags = cpu.flags
                flags["zf"] = 1 if result == 0 else 0
                flags["sf"] = 1 if result & 0x80000000 else 0
                flags["cf"] = 1 if a < b else 0

            return fast_cmp

        def fast_test(cpu):
            result = la(cpu) & lb(cpu)
            flags = cpu.flags
            flags["zf"] = 1 if result == 0 else 0
            flags["sf"] = 1 if result & 0x80000000 else 0
            flags["cf"] = 0

        return fast_test

    if instr.is_jump:
        load = _load(ops[0])
        if load is None:
            return None
        if m == "jmp":
            def fast_jmp(cpu):
                cpu.pc = load(cpu)

            return fast_jmp
        cond = _CONDS[m]

        def fast_jcc(cpu):
            if cond(cpu.flags):
                cpu.pc = load(cpu)

        return fast_jcc

    if m == "call":
        if type(ops[0]) is ApiRef:
            return None  # the dispatcher runs from the slow step
        load = _load(ops[0])
        if load is None:
            return None

        def fast_call(cpu):
            value = load(cpu)
            regs = cpu.regs
            esp = (regs["esp"] - 4) & _M
            regs["esp"] = esp
            cpu.memory.write_plain(esp, cpu.pc, 4)  # pc already points past
            cpu.callstack.append(cpu.pc - 1)
            cpu.pc = value

        return fast_call

    if m == "ret":
        if not ops:
            def fast_ret(cpu):
                regs = cpu.regs
                esp = regs["esp"]
                value = cpu.memory.read_plain(esp, 4)
                regs["esp"] = (esp + 4) & _M
                if cpu.callstack:
                    cpu.callstack.pop()
                cpu.pc = value

            return fast_ret
        load = _load(ops[0])
        if load is None:
            return None

        def fast_ret_n(cpu):
            regs = cpu.regs
            esp = regs["esp"]
            value = cpu.memory.read_plain(esp, 4)
            esp = (esp + 4) & _M
            regs["esp"] = esp  # extra operand sees the popped esp
            regs["esp"] = (esp + load(cpu)) & _M
            if cpu.callstack:
                cpu.callstack.pop()
            cpu.pc = value

        return fast_ret_n

    return None


# ---------------------------------------------------------------------------
# full handlers (exact semantics, pre-dispatched)
# ---------------------------------------------------------------------------


def _full_handler(instr: Instruction, text: str) -> FullHandler:
    m = instr.mnemonic
    ops = instr.operands

    if m == "nop":
        def full_nop(cpu, pc, seq):
            return None

        return full_nop

    if m == "halt":
        halted = _HALTED

        def full_halt(cpu, pc, seq):
            cpu.status = halted

        return full_halt

    if m in ("mov", "movb"):
        movb = m == "movb"
        dst = _movb_dst(ops[0]) if movb else ops[0]
        src = ops[1]

        def full_mov(cpu, pc, seq):
            value, taint = cpu.read_operand(src)
            if movb:
                value &= 0xFF
            cpu.write_operand(dst, value, taint)

        return full_mov

    if m == "lea":
        def full_lea(cpu, pc, seq):
            cpu._lea(ops[0], ops[1])

        return full_lea

    if m == "xchg":
        a_op, b_op = ops

        def full_xchg(cpu, pc, seq):
            a, ta = cpu.read_operand(a_op)
            b, tb = cpu.read_operand(b_op)
            cpu.write_operand(a_op, b, tb)
            cpu.write_operand(b_op, a, ta)

        return full_xchg

    if m == "push":
        src = ops[0]

        def full_push(cpu, pc, seq):
            value, taint = cpu.read_operand(src)
            cpu.push(value, taint)

        return full_push

    if m == "pop":
        dst = ops[0]

        def full_pop(cpu, pc, seq):
            value, taint = cpu.pop()
            cpu.write_operand(dst, value, taint)

        return full_pop

    if m in _UNOPS:
        dst = ops[0]
        op = _UNOPS[m]
        sets_flags = m != "not"

        def full_unary(cpu, pc, seq):
            cpu._unary(op, sets_flags, dst)

        return full_unary

    if m in _BINOPS:
        dst, src = ops
        if _zeroes(m, dst, src):
            name = dst.name

            def full_zero(cpu, pc, seq):
                cpu._zero(name)

            return full_zero
        op = _BINOPS[m]

        def full_binary(cpu, pc, seq):
            cpu._binary(op, dst, src)

        return full_binary

    if m in ("cmp", "test"):
        lhs, rhs = ops

        def full_compare(cpu, pc, seq):
            cpu._compare(m, lhs, rhs, pc, seq, text)

        return full_compare

    if instr.is_jump:
        target = ops[0]
        cond = _CONDS.get(m)  # None for jmp

        def full_jump(cpu, pc, seq):
            cpu._jump(cond, target)

        return full_jump

    if m == "call":
        target = ops[0]

        def full_call(cpu, pc, seq):
            cpu._call(target, pc, seq, text)

        return full_call

    if m == "ret":
        def full_ret(cpu, pc, seq):
            cpu._ret(ops)

        return full_ret

    # Unreachable: Instruction validates mnemonics at construction.
    def full_unimplemented(cpu, pc, seq):  # pragma: no cover
        from .cpu import CpuFault

        raise CpuFault(f"unimplemented mnemonic {m}")

    return full_unimplemented


# ---------------------------------------------------------------------------
# program-level decode (cached)
# ---------------------------------------------------------------------------


def decode_instruction(instr: Instruction) -> DecodedEntry:
    """The shared entry for ``instr``, decoding it if no live program holds
    one."""
    global _HALTED
    key = (instr.mnemonic, instr.operands)
    entry = _SHARED.get(key)
    if entry is None:
        if _HALTED is None:
            from .cpu import ExitStatus

            _HALTED = ExitStatus.HALTED
        text = str(instr)
        entry = _SHARED[key] = DecodedEntry(
            (_full_handler(instr, text), _fast_handler(instr), text)
        )
    return entry


def decoded_program(program: Program) -> Tuple[DecodedEntry, ...]:
    """Decode (or fetch the cached decode of) a program's instructions.

    The tuple of entries rides on the Program instance but is keyed by the
    identity of the instruction list, so a swapped-out listing re-decodes;
    pickling drops it (``Program.__getstate__``).  The entries themselves
    come from the process-wide table.
    """
    cache = getattr(program, "_decoded_cache", None)
    if cache is not None and cache[0] is program.instructions:
        return cache[1]
    entries = tuple(decode_instruction(instr) for instr in program.instructions)
    program._decoded_cache = (program.instructions, entries)
    return entries


__all__ = ["DecodedEntry", "decode_instruction", "decoded_program"]
