"""Superblock compilation: one dispatch per hot region, not per instruction.

The predecoded fast path (:mod:`repro.vm.decode`) still pays one Python-level
dispatch — index, tuple load, call — per instruction.  This module removes
that cost for hot code in warm runs: it discovers maximal
straight-line runs and simple back-edge loops in the static program, and
compiles each region — lazily, once it proves hot — into a **single Python
closure** that executes the whole block with one dispatch.  Operand accessors
are resolved at compile time into a chain over local variables (registers and
flags live in locals for the whole block), the ``steps`` budget is charged in
one chunked update per block entry, and loop regions iterate internally until
the back-edge condition fails or the chunked budget runs out.

Regions run only inside the fast loop of an unrecorded run, which carries no
taint, so they are plain-int code: loads go through ``Memory.read_plain``,
stores through ``write_plain``.  Their one guard is the *chunked budget*:
a region whose length exceeds the remaining step budget refuses to run
(``fn`` returns ``False``) and the fast loop executes it per-instruction,
so the budget runs out at exactly the same instruction on every tier.

Fault behaviour is bit-for-bit compatible: state is committed in program
order, a faulting region flushes its locals, charges the steps executed
(including the faulting instruction, like the slow path), and reports the
*faulting instruction's* pc in ``fault_reason``.

A compiled closure returns ``False`` (budget refusal — nothing executed)
or ``True`` (the region ran, or faulted); the fast loop then probes the
region table again at whatever pc the closure left.

Analysis never compiles regions: ``AutoVac.analyze`` scopes
:func:`overridden` ``(False)`` around its stages, because every program it
runs is cold and would be discarded before compilation paid off.  Regions
serve warm, unrecorded host-side runs — the protected host, the campaign,
the daemon's slice replays at install, and a bare ``run_sample``.

The region table is cached on the ``Program`` keyed by the identity of its
instruction list — the same invalidation rule as the decode cache — and is
dropped by pickling, so hotness accumulates across the repeated runs of one
program inside one process but never crosses process or snapshot boundaries.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence, Set

from .isa import Instruction
from .memory import MemoryFault, TEXT_BASE
from .operands import Imm, Mem, Reg
from .program import Program

_M = 0xFFFFFFFF

#: Compile a region once it has been entered this many times.  Hot loops
#: self-heat: every back-edge taken in per-instruction mode re-dispatches at
#: the region entry pc, so a stalling loop crosses any threshold in its first
#: few iterations.
DEFAULT_THRESHOLD = 4

#: Straight-line regions shorter than this are not worth a region dispatch.
MIN_REGION = 2

_BINOP_MNEMONICS = frozenset(
    ("add", "sub", "xor", "and", "or", "shl", "shr", "imul", "mul")
)
_UNOP_MNEMONICS = frozenset(("inc", "dec", "not", "neg"))

# ---------------------------------------------------------------------------
# scoped default
# ---------------------------------------------------------------------------

_override: Optional[bool] = None


def default_enabled() -> bool:
    """Effective default for CPUs built without an explicit choice: on,
    unless an :func:`overridden` scope says otherwise."""
    return True if _override is None else _override


@contextmanager
def overridden(enabled: bool):
    """Scope the default (``AutoVac.analyze`` turns regions off this way,
    so the choice reaches every CPU the pipeline builds — fresh runs and
    snapshot resumes alike — without threading a parameter through each
    call site)."""
    global _override
    prev = _override
    _override = enabled
    try:
        yield
    finally:
        _override = prev


# ---------------------------------------------------------------------------
# static facts about one instruction
# ---------------------------------------------------------------------------


class _Effects:
    """Read/write sets used for the region's locals and flag liveness."""

    __slots__ = ("reads", "writes", "flags_written", "flags_read", "mem")

    def __init__(self, reads, writes, flags_written, flags_read, mem):
        self.reads = reads                # register names read (pre-write)
        self.writes = writes              # register names written
        self.flags_written = flags_written  # subset of {"z", "s", "c"}
        self.flags_read = flags_read      # subset of {"z", "s", "c"}
        self.mem = mem                    # touches memory (can fault)


_JCC_FLAGS = {
    "je": {"z"}, "jz": {"z"}, "jne": {"z"}, "jnz": {"z"},
    "jl": {"s"}, "jge": {"s"}, "js": {"s"}, "jns": {"s"},
    "jle": {"s", "z"}, "jg": {"s", "z"},
    "jb": {"c"}, "jae": {"c"},
    "jbe": {"c", "z"}, "ja": {"c", "z"},
    "jmp": set(),
}


def _mem_regs(op: Mem) -> List[str]:
    regs = []
    if op.base:
        regs.append(op.base)
    if op.index:
        regs.append(op.index)
    return regs


def _effects(instr: Instruction) -> Optional[_Effects]:
    """Static effects, or ``None`` if the instruction cannot be compiled
    into a region body (API calls, call/ret/halt, unsupported shapes)."""
    m = instr.mnemonic
    ops = instr.operands
    reads: List[str] = []
    writes: List[str] = []
    mem = False

    def rd(op) -> bool:
        nonlocal mem
        t = type(op)
        if t is Reg:
            reads.append(op.name)
            return True
        if t is Imm:
            return True
        if t is Mem:
            reads.extend(_mem_regs(op))
            mem = True
            return True
        return False

    def wr(op) -> bool:
        nonlocal mem
        t = type(op)
        if t is Reg:
            writes.append(op.name)
            return True
        if t is Mem:
            reads.extend(_mem_regs(op))
            mem = True
            return True
        return False

    if m == "nop":
        return _Effects((), (), frozenset(), frozenset(), False)
    if m in ("mov", "movb"):
        if rd(ops[1]) and wr(ops[0]):
            return _Effects(tuple(reads), tuple(writes), frozenset(), frozenset(), mem)
        return None
    if m == "lea":
        if type(ops[1]) is not Mem:
            return None
        reads.extend(_mem_regs(ops[1]))
        if wr(ops[0]):
            return _Effects(tuple(reads), tuple(writes), frozenset(), frozenset(), mem)
        return None
    if m == "xchg":
        if rd(ops[0]) and rd(ops[1]) and wr(ops[0]) and wr(ops[1]):
            return _Effects(tuple(reads), tuple(writes), frozenset(), frozenset(), mem)
        return None
    if m == "push":
        if rd(ops[0]):
            reads.append("esp")
            writes.append("esp")
            return _Effects(tuple(reads), tuple(writes), frozenset(), frozenset(), True)
        return None
    if m == "pop":
        reads.append("esp")
        writes.append("esp")
        if wr(ops[0]):
            return _Effects(tuple(reads), tuple(writes), frozenset(), frozenset(), True)
        return None
    if m in _UNOP_MNEMONICS:
        if rd(ops[0]) and wr(ops[0]):
            flags = frozenset() if m == "not" else frozenset("zs")
            return _Effects(tuple(reads), tuple(writes), flags, frozenset(), mem)
        return None
    if m in _BINOP_MNEMONICS:
        if (
            m == "xor"
            and type(ops[0]) is Reg
            and type(ops[1]) is Reg
            and ops[0].name == ops[1].name
        ):
            # xor r, r zeroes unconditionally: the register is written,
            # not read.
            return _Effects((), (ops[0].name,), frozenset("zsc"), frozenset(), False)
        if rd(ops[0]) and rd(ops[1]) and wr(ops[0]):
            return _Effects(tuple(reads), tuple(writes), frozenset("zsc"), frozenset(), mem)
        return None
    if m in ("cmp", "test"):
        if rd(ops[0]) and rd(ops[1]):
            return _Effects(tuple(reads), (), frozenset("zsc"), frozenset(), mem)
        return None
    if instr.is_jump:
        # Only legal as a region terminator with an Imm target; flag reads
        # matter for liveness.
        if type(ops[0]) is Imm:
            return _Effects((), (), frozenset(), frozenset(_JCC_FLAGS[m]), False)
        return None
    return None  # call / ret / halt / anything else ends a region


# ---------------------------------------------------------------------------
# region discovery
# ---------------------------------------------------------------------------


class Region:
    """One compilable region: entry index, body, optional Imm terminator."""

    __slots__ = ("entry", "body", "terminator", "kind", "count", "fn", "cache")

    def __init__(self, entry: int, body, terminator, kind: str, cache) -> None:
        self.entry = entry
        self.body = body              # list of Instruction (no terminator)
        self.terminator = terminator  # Imm-target jump Instruction or None
        self.kind = kind              # "line" | "loop"
        self.count = 0
        self.fn = None
        self.cache = cache

    @property
    def length(self) -> int:
        return len(self.body) + (1 if self.terminator is not None else 0)

    def warm(self):
        """Count one entry; compile once hot.  Returns the closure or None."""
        self.count += 1
        if self.count >= self.cache.threshold:
            self.fn = _compile_region(self)
            self.cache.compiled += 1
        return self.fn


def _leaders(instructions: Sequence[Instruction], entry_idx: int) -> Set[int]:
    n = len(instructions)
    leaders = {0, entry_idx}
    for i, instr in enumerate(instructions):
        m = instr.mnemonic
        if instr.is_jump or m in ("call", "ret", "halt"):
            if i + 1 < n:
                leaders.add(i + 1)
            ops = instr.operands
            if ops and type(ops[0]) is Imm and (instr.is_jump or m == "call"):
                target = (ops[0].value & _M) - TEXT_BASE
                if 0 <= target < n:
                    leaders.add(target)
    return leaders


def discover_regions(program: Program, cache) -> List[Optional[Region]]:
    """Index-aligned region table: ``table[i]`` is the Region entered at
    instruction ``i``, or ``None``.  Region boundaries: jump targets split
    regions (every Imm target is a leader), instructions without a compiled
    form (API calls, call/ret/halt, Imm destinations…) end them, and a
    conditional or unconditional Imm jump back to the region's own entry
    makes it a loop region."""
    instrs = program.instructions
    n = len(instrs)
    table: List[Optional[Region]] = [None] * n
    entry_idx = (program.entry & _M) - TEXT_BASE
    leaders = _leaders(instrs, entry_idx if 0 <= entry_idx < n else 0)
    for start in sorted(leaders):
        if not 0 <= start < n:
            continue
        body: List[Instruction] = []
        terminator = None
        i = start
        while i < n:
            if i > start and i in leaders:
                break
            instr = instrs[i]
            if instr.is_jump:
                if _effects(instr) is not None:
                    terminator = instr
                break
            if _effects(instr) is None:
                break
            body.append(instr)
            i += 1
        kind = "line"
        if terminator is not None:
            target = (terminator.operands[0].value & _M) - TEXT_BASE
            if target == start and len(body) >= 1:
                kind = "loop"
        region = Region(start, body, terminator, kind, cache)
        if region.length >= MIN_REGION:
            table[start] = region
    return table


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------


def _ea_expr(op: Mem, R) -> str:
    """Effective-address expression; masking matches ``decode._ea``."""
    base, index, scale, disp = op.base, op.index, op.scale, op.disp
    if base and index:
        idx = R[index] if scale == 1 else f"{R[index]} * {scale}"
        return f"({R[base]} + {idx} + {disp}) & {_M}"
    if base:
        if disp == 0:
            return R[base]
        return f"({R[base]} + {disp}) & {_M}"
    if index:
        idx = R[index] if scale == 1 else f"{R[index]} * {scale}"
        return f"({idx} + {disp}) & {_M}"
    return str(disp & _M)


_COND_EXPR = {
    "je": "{z} == 1", "jz": "{z} == 1",
    "jne": "{z} == 0", "jnz": "{z} == 0",
    "jl": "{s} == 1", "jge": "{s} == 0",
    "js": "{s} == 1", "jns": "{s} == 0",
    "jle": "{s} == 1 or {z} == 1",
    "jg": "{s} == 0 and {z} == 0",
    "jb": "{c} == 1", "jae": "{c} == 0",
    "jbe": "{c} == 1 or {z} == 1",
    "ja": "{c} == 0 and {z} == 0",
}


class _Codegen:
    """Generates the source of one region's closure."""

    def __init__(self, region: Region) -> None:
        self.region = region
        self.seq: List[Instruction] = list(region.body)
        if region.terminator is not None:
            self.seq.append(region.terminator)
        self.effects = [_effects(instr) for instr in self.seq]
        self.entry_pc = TEXT_BASE + region.entry
        self.is_loop = region.kind == "loop"
        self.length = len(self.seq)

        # Every register the region touches lives in a local for the whole
        # block, in first-use order.
        used: List[str] = []
        for eff in self.effects:
            for r in eff.reads + eff.writes:
                if r not in used:
                    used.append(r)
        self.R = {r: f"r_{r}" for r in used}
        self.any_flags = any(eff.flags_written for eff in self.effects)
        self.any_mem = any(eff.mem for eff in self.effects)

        # Per-flag dead-code elimination: a flag computation is emitted only
        # if some later observer (branch, exit, or a memory access that
        # could fault and flush the locals) can see it.  Exits observe
        # all flags, so one backward pass suffices even for loops.
        live = {"z", "s", "c"}
        csets: List[Set[str]] = [set()] * self.length
        for i in range(self.length - 1, -1, -1):
            eff = self.effects[i]
            csets[i] = eff.flags_written & live
            live = (live - eff.flags_written) | eff.flags_read
            if eff.mem:
                live = {"z", "s", "c"}
        self.csets = csets

        self.lines: List[str] = []

    # -- emit helpers ---------------------------------------------------

    def emit(self, depth: int, stmt: str) -> None:
        self.lines.append("    " * depth + stmt)

    def load(self, op, k: int, tmp: str, depth: int) -> str:
        t = type(op)
        if t is Reg:
            return self.R[op.name]
        if t is Imm:
            return str(op.value & _M)
        self.emit(depth, f"_i = {k}")
        self.emit(depth, f"{tmp} = _rd({_ea_expr(op, self.R)}, {op.size})")
        return tmp

    def store(self, op, k: int, val: str, depth: int) -> None:
        if type(op) is Reg:
            self.emit(depth, f"{self.R[op.name]} = {val}")
        else:
            self.emit(depth, f"_i = {k}")
            self.emit(depth, f"_wr({_ea_expr(op, self.R)}, {val}, {op.size})")

    def flags_zs(self, k: int, res: str, depth: int) -> None:
        cset = self.csets[k]
        if "z" in cset:
            self.emit(depth, f"_fz = 1 if {res} == 0 else 0")
        if "s" in cset:
            self.emit(depth, f"_fs = 1 if {res} & 2147483648 else 0")

    # -- per-instruction body -------------------------------------------

    def gen_instr(self, instr: Instruction, k: int, depth: int) -> None:
        m = instr.mnemonic
        ops = instr.operands
        R = self.R
        cset = self.csets[k]

        if m == "nop":
            return

        if m in ("mov", "movb"):
            dst = ops[0]
            if m == "movb" and type(dst) is Mem and dst.size != 1:
                dst = Mem(dst.base, dst.index, dst.scale, dst.disp, 1, dst.symbol)
            val = self.load(ops[1], k, "_t", depth)
            if m == "movb":
                val = f"{val} & 255" if val == "_t" or type(ops[1]) is Reg else str(
                    int(val) & 255
                )
            self.store(dst, k, val, depth)
            return

        if m == "lea":
            self.store(ops[0], k, _ea_expr(ops[1], R), depth)
            return

        if m == "xchg":
            a = self.load(ops[0], k, "_t", depth)
            b = self.load(ops[1], k, "_u", depth)
            # Same commit order as the slow path: write first operand, then
            # the second (whose address sees the first write).
            if a == b and type(ops[0]) is Reg and type(ops[1]) is Reg:
                return  # xchg r, r: no-op
            if type(ops[0]) is Reg and a != "_t":
                self.emit(depth, f"_t = {a}")
                a = "_t"
            self.store(ops[0], k, b, depth)
            self.store(ops[1], k, a, depth)
            return

        if m == "push":
            val = self.load(ops[0], k, "_t", depth)
            if val != "_t" and not val.isdigit():
                # Source value is read before esp moves (push esp pushes the
                # pre-decrement value), so snapshot register sources.
                self.emit(depth, f"_t = {val}")
                val = "_t"
            self.emit(depth, f"r_esp = (r_esp - 4) & {_M}")
            self.emit(depth, f"_i = {k}")
            self.emit(depth, f"_wr(r_esp, {val}, 4)")
            return

        if m == "pop":
            self.emit(depth, f"_i = {k}")
            self.emit(depth, "_t = _rd(r_esp, 4)")
            self.emit(depth, f"r_esp = (r_esp + 4) & {_M}")
            self.store(ops[0], k, "_t", depth)
            return

        if m in _UNOP_MNEMONICS:
            val = self.load(ops[0], k, "_t", depth)
            expr = {
                "inc": f"({val} + 1) & {_M}",
                "dec": f"({val} - 1) & {_M}",
                "not": f"~{val} & {_M}",
                "neg": f"-{val} & {_M}",
            }[m]
            if type(ops[0]) is Reg:
                res = R[ops[0].name]
                self.emit(depth, f"{res} = {expr}")
            else:
                self.emit(depth, f"_v = {expr}")
                res = "_v"
                self.store(ops[0], k, res, depth)
            if m != "not":
                self.flags_zs(k, res, depth)
            return

        if m in _BINOP_MNEMONICS:
            dst, src = ops
            if (
                m == "xor"
                and type(dst) is Reg
                and type(src) is Reg
                and dst.name == src.name
            ):
                self.emit(depth, f"{R[dst.name]} = 0")
                if "z" in cset:
                    self.emit(depth, "_fz = 1")
                if "s" in cset:
                    self.emit(depth, "_fs = 0")
                if "c" in cset:
                    self.emit(depth, "_fc = 0")
                return
            a = self.load(dst, k, "_t", depth)
            b = self.load(src, k, "_u", depth)
            if m == "add":
                self.emit(depth, f"_w = {a} + {b}")
                if "c" in cset:
                    self.emit(depth, f"_fc = 1 if _w > {_M} else 0")
                expr = f"_w & {_M}"
            elif m == "sub":
                if "c" in cset:
                    self.emit(depth, f"_fc = 1 if {a} < {b} else 0")
                expr = f"({a} - {b}) & {_M}"
            else:
                expr = {
                    "xor": f"{a} ^ {b}",
                    "and": f"{a} & {b}",
                    "or": f"{a} | {b}",
                    "shl": f"({a} << ({b} & 31)) & {_M}",
                    "shr": f"{a} >> ({b} & 31)",
                    "imul": f"({a} * {b}) & {_M}",
                    "mul": f"({a} * {b}) & {_M}",
                }[m]
                if "c" in cset:
                    self.emit(depth, "_fc = 0")
            if type(dst) is Reg:
                res = R[dst.name]
                self.emit(depth, f"{res} = {expr}")
            else:
                self.emit(depth, f"_v = {expr}")
                res = "_v"
                self.store(dst, k, res, depth)
            self.flags_zs(k, res, depth)
            return

        if m in ("cmp", "test"):
            a = self.load(ops[0], k, "_t", depth)
            b = self.load(ops[1], k, "_u", depth)
            if m == "cmp":
                if "c" in cset:
                    self.emit(depth, f"_fc = 1 if {a} < {b} else 0")
                if cset & {"z", "s"}:
                    self.emit(depth, f"_v = ({a} - {b}) & {_M}")
                    self.flags_zs(k, "_v", depth)
            else:
                if "c" in cset:
                    self.emit(depth, "_fc = 0")
                if cset & {"z", "s"}:
                    self.emit(depth, f"_v = {a} & {b}")
                    self.flags_zs(k, "_v", depth)
            return

        raise AssertionError(f"unsupported region instruction {instr}")

    # -- flag / flush fragments -----------------------------------------

    def flag_atom(self, flag: str) -> str:
        if self.any_flags:
            return {"z": "_fz", "s": "_fs", "c": "_fc"}[flag]
        return {"z": "f['zf']", "s": "f['sf']", "c": "f['cf']"}[flag]

    def cond_expr(self, m: str) -> str:
        return _COND_EXPR[m].format(
            z=self.flag_atom("z"), s=self.flag_atom("s"), c=self.flag_atom("c")
        )

    def flush_values(self, depth: int) -> None:
        regs = self.R
        if regs:
            self.emit(
                depth,
                "; ".join(f"regs['{r}'] = {local}" for r, local in regs.items()),
            )
        if self.any_flags:
            self.emit(depth, "f['zf'] = _fz; f['sf'] = _fs; f['cf'] = _fc")

    # -- whole-region assembly ------------------------------------------

    def generate(self) -> str:
        L = self.length
        entry_pc = self.entry_pc
        fall_pc = entry_pc + L
        term = self.region.terminator
        steps_expr = "_st + _i" if self.is_loop else "_i"

        self.emit(0, "def _sb(cpu, _FAULT=_FAULT):")
        self.emit(1, f"_bud = cpu.max_steps - cpu.steps")
        self.emit(1, f"if _bud < {L}: return False")
        self.emit(1, "regs = cpu.regs")
        if self.any_mem:
            self.emit(1, "mem = cpu.memory")
            self.emit(1, "_rd = mem.read_plain")
            self.emit(1, "_wr = mem.write_plain")
        if self.any_flags or (term is not None and term.mnemonic != "jmp"):
            self.emit(1, "f = cpu.flags")
        if self.R:
            self.emit(
                1,
                "; ".join(f"{local} = regs['{r}']" for r, local in self.R.items()),
            )
        if self.any_flags:
            self.emit(1, "_fz = f['zf']; _fs = f['sf']; _fc = f['cf']")
        self.emit(1, "_i = 0")
        if self.is_loop:
            self.emit(1, "_st = 0")
        self.emit(1, "try:")

        if self.is_loop:
            self.emit(2, "while True:")
            body_depth = 3
        else:
            body_depth = 2

        emitted_any = False
        for k, instr in enumerate(self.seq):
            if instr is term:
                break
            mark = len(self.lines)
            self.gen_instr(instr, k, body_depth)
            emitted_any = emitted_any or len(self.lines) > mark

        if self.is_loop:
            self.emit(body_depth, f"_st += {L}")
            if term.mnemonic == "jmp":
                self.emit(body_depth, f"if _bud - _st >= {L}: continue")
                self.emit(body_depth, f"cpu.pc = {entry_pc}")
                self.emit(body_depth, "break")
            else:
                self.emit(body_depth, f"if {self.cond_expr(term.mnemonic)}:")
                self.emit(body_depth + 1, f"if _bud - _st >= {L}: continue")
                self.emit(body_depth + 1, f"cpu.pc = {entry_pc}")
                self.emit(body_depth + 1, "break")
                self.emit(body_depth, f"cpu.pc = {fall_pc}")
                self.emit(body_depth, "break")
        elif term is None:
            if not emitted_any:
                self.emit(body_depth, "pass")
            self.emit(body_depth, f"cpu.pc = {fall_pc}")
        elif term.mnemonic == "jmp":
            self.emit(body_depth, f"cpu.pc = {term.operands[0].value & _M}")
        else:
            target = term.operands[0].value & _M
            self.emit(
                body_depth,
                f"cpu.pc = {target} if {self.cond_expr(term.mnemonic)} else {fall_pc}",
            )

        # Fault: like the slow path, the faulting instruction's step is
        # charged and pc has advanced past it; fault_reason names the
        # faulting pc (not the advanced one).
        self.emit(1, "except _MF as _e:")
        self.flush_values(2)
        self.emit(2, f"cpu.steps += {steps_expr} + 1")
        self.emit(2, f"cpu.pc = {entry_pc} + _i + 1")
        self.emit(2, "cpu.status = _FAULT")
        self.emit(2, f"cpu.fault_reason = '%s (pc 0x%08x)' % (_e, {entry_pc} + _i)")
        self.emit(2, "return True")

        self.flush_values(1)
        self.emit(1, f"cpu.steps += {'_st' if self.is_loop else str(L)}")
        self.emit(1, "return True")
        return "\n".join(self.lines) + "\n"


def _compile_region(region: Region) -> Callable:
    from .cpu import ExitStatus  # local import: cpu imports this module

    gen = _Codegen(region)
    source = gen.generate()
    namespace = {
        "_FAULT": ExitStatus.FAULT,
        "_MF": MemoryFault,
    }
    code = compile(
        source, f"<superblock 0x{gen.entry_pc:08x} {region.kind}>", "exec"
    )
    exec(code, namespace)
    fn = namespace["_sb"]
    fn.__source__ = source  # debuggability: repr of what actually runs
    return fn


# ---------------------------------------------------------------------------
# per-program cache
# ---------------------------------------------------------------------------


class SuperblockCache:
    """Region table + hotness state for one program.

    Cached on the ``Program`` keyed by the identity of its instruction list
    (the decode-cache rule): a swapped-out listing re-discovers, pickling
    drops it (``Program.__getstate__``), and hotness counts accumulate
    across the repeated runs of one program in one process."""

    __slots__ = ("instructions", "entries", "threshold", "compiled")

    def __init__(self, program: Program, threshold: int) -> None:
        self.instructions = program.instructions
        self.threshold = threshold
        self.compiled = 0
        self.entries = discover_regions(program, self)


def superblock_cache(
    program: Program, threshold: Optional[int] = None
) -> SuperblockCache:
    cache = getattr(program, "_superblock_cache", None)
    if (
        cache is not None
        and cache.instructions is program.instructions
        and (threshold is None or cache.threshold == threshold)
    ):
        return cache
    cache = SuperblockCache(
        program, DEFAULT_THRESHOLD if threshold is None else threshold
    )
    program._superblock_cache = cache
    return cache


__all__ = [
    "DEFAULT_THRESHOLD",
    "MIN_REGION",
    "Region",
    "SuperblockCache",
    "default_enabled",
    "discover_regions",
    "overridden",
    "superblock_cache",
]
