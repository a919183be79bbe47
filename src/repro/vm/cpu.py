"""Interpreting CPU with inline forward taint propagation.

The CPU executes one :class:`Program` inside one guest process.  It is the
DynamoRIO-replacement: on a recorded (analysis) run every tainted
``cmp``/``test`` records a
:class:`~repro.tracing.events.TaintedPredicateEvent` (Phase-I candidate
signal), and unless the run opts out (``def_use=False``, Phase I) every step
also records a def/use :class:`~repro.tracing.events.InstructionRecord`
(for backward slicing).  An unrecorded run carries no taint and runs on the
untainted fast and superblock tiers.  API calls trap into an injected
dispatcher.
"""

from __future__ import annotations

import enum
import time
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..taint.labels import EMPTY, TagSet, union
from ..tracing.events import InstructionRecord, TaintedPredicateEvent
from ..tracing.trace import Trace
from . import superblock as superblock_mod
from .decode import decoded_program
from .memory import Memory, MemoryFault, STACK_TOP, TEXT_BASE
from .operands import ApiRef, Imm, Mem, Operand, Reg, mask32
from .program import Program


class ExitStatus(enum.Enum):
    RUNNING = "running"
    HALTED = "halted"            # program ran off its own accord (halt)
    TERMINATED = "terminated"    # ExitProcess/TerminateProcess on itself
    BUDGET = "budget_exhausted"  # paper's 1-minute cap analogue
    FAULT = "fault"              # crash (bad memory, bad jump…)


class CpuFault(Exception):
    """Internal faults that end the run with ``ExitStatus.FAULT``."""


class _VmFlushCache:
    """Counter handles reused by ``CPU._flush_obs`` across runs.

    Keyed on the obs registry generation the same way as
    ``Dispatcher._FlushCache``: ``obs.reset()`` bumps ``metrics.generation``
    and discards the counter families these handles point into, so a
    generation mismatch drops every handle.
    """

    __slots__ = (
        "generation",
        "instructions",
        "api_calls",
        "tainted_predicates",
        "fast_steps",
        "sb_compiled",
        "sb_entries",
        "sb_guard_exits",
        "runs",
    )

    def __init__(self) -> None:
        self.generation = -1
        self.instructions = None
        self.api_calls = None
        self.tainted_predicates = None
        self.fast_steps = None
        self.sb_compiled = None
        self.sb_entries = None
        self.sb_guard_exits = None
        #: status value -> vm.runs counter handle.
        self.runs: dict = {}

    def refresh(self, metrics) -> None:
        if self.generation != metrics.generation:
            self.generation = metrics.generation
            self.instructions = metrics.counter("vm.instructions")
            self.api_calls = metrics.counter("vm.api_calls")
            self.tainted_predicates = metrics.counter("vm.tainted_predicates")
            self.fast_steps = metrics.counter("vm.fast_steps")
            self.sb_compiled = metrics.counter("vm.superblocks.compiled")
            self.sb_entries = metrics.counter("vm.superblocks.entries")
            self.sb_guard_exits = metrics.counter("vm.superblocks.guard_exits")
            self.runs = {}


_VM_FLUSH_CACHE = _VmFlushCache()


class _ProfAcc:
    """Per-run tier-time accumulator, present only while ``obs.prof`` is on.

    The execution loops test ``acc is not None`` only at region dispatch,
    at slow steps and at tier transitions — never on the fast loop's
    per-instruction path — accumulate into plain attributes, and flush once
    into ``obs.prof`` when the run ends (same once-per-run discipline as
    ``_flush_obs``), so even profiling-on overhead stays at segment
    granularity.  Slow-step time excludes what the API handlers called from
    those steps recorded themselves (``prof.nested``), so each second lands
    on one node.
    """

    __slots__ = (
        "prof", "slow_s", "slow_n", "fast_s", "fast_n", "region_s", "region_n", "regions"
    )

    def __init__(self, prof) -> None:
        self.prof = prof
        self.slow_s = 0.0
        self.slow_n = 0
        self.fast_s = 0.0
        self.fast_n = 0
        #: Time and steps spent in region dispatches; the fast loop
        #: subtracts what accrued during its segment from its own node.
        self.region_s = 0.0
        self.region_n = 0
        #: region entry idx -> [entries, seconds] (one profile node each).
        self.regions: Dict[int, list] = {}

    def step(self, cpu: "CPU") -> None:
        """One exact slow step, timed into ``vm;slow``.  A step that raises
        (an interceptor ending the run) is timed but not counted."""
        nested0 = self.prof.nested
        t0 = time.perf_counter()
        try:
            cpu.step()
        finally:
            self.slow_s += time.perf_counter() - t0 - (self.prof.nested - nested0)
        self.slow_n += 1

    def run_slow(self, cpu: "CPU") -> None:
        """A recorded run's steps, timed as one stretch into ``vm;slow``; a
        step that raises is timed but not counted, as in :meth:`step`."""
        nested0 = self.prof.nested
        steps0 = cpu.steps
        t0 = time.perf_counter()
        interrupted = 0
        try:
            while cpu.status is ExitStatus.RUNNING:
                cpu.step()
        except BaseException:
            # step() advances the step counter before the instruction runs.
            interrupted = 1
            raise
        finally:
            self.slow_s += time.perf_counter() - t0 - (self.prof.nested - nested0)
            self.slow_n += cpu.steps - steps0 - interrupted

    def dispatch(self, cpu: "CPU", entry: int, fn: Callable):
        """One compiled-region dispatch, timed into the region's node (a
        refused dispatch adds its time but no entry)."""
        cell = self.regions.get(entry)
        if cell is None:
            cell = self.regions[entry] = [0, 0.0]
        before = cpu.steps
        t0 = time.perf_counter()
        r = fn(cpu)
        dt = time.perf_counter() - t0
        cell[1] += dt
        self.region_s += dt
        self.region_n += cpu.steps - before
        if r:
            cell[0] += 1
        return r

    def flush(self, prof, guard_exits: int) -> None:
        if self.slow_n:
            prof.add("vm;slow", self.slow_s, self.slow_n)
        if self.fast_n:
            prof.add("vm;fast", self.fast_s, self.fast_n)
        for idx in sorted(self.regions):
            entries, seconds = self.regions[idx]
            prof.add(f"vm;superblock;region@0x{TEXT_BASE + idx:08x}", seconds, entries)
        if guard_exits:
            # Count-only: the refused dispatch's time is already attributed
            # to its region node.
            prof.add("vm;superblock;guard_exit", 0.0, guard_exits)


class CPU:
    """One guest hardware thread.

    Parameters
    ----------
    program:
        Assembled guest program.
    dispatcher:
        Object with ``invoke(cpu, api_name) -> None`` handling ``call @Api``
        (the winapi layer).  May be ``None`` for pure computations.
    process:
        The :class:`~repro.winenv.processes.Process` this program runs as.
    max_steps:
        Execution budget; the paper caps profiling runs at one minute, we cap
        at an instruction count.
    record_instructions:
        Analysis run: carry taint (for tainted-predicate events) and keep
        per-step def/use records (for backward slicing), every step on the
        slow tier.  An unrecorded run is taint-free — no API mints a tag —
        and executes on the fast tier, plus compiled superblocks when
        ``superblocks`` (default: on outside ``AutoVac.analyze``) allows.
    def_use:
        With ``record_instructions``, ``False`` keeps the taint but builds no
        def/use records: Phase I needs only its tainted predicates, and
        determinism re-records the prefix it slices
        (:func:`~repro.core.runner.record_prefix`).  Ignored on an
        unrecorded run.
    taint_addresses:
        Pointer-taint policy (off by default, matching the paper): when on,
        a memory load's result also carries the taint of the registers used
        to *compute the address*, defeating table-lookup taint laundering
        (``movb eax, [table+tainted_index]``) at the cost of over-tainting —
        the §VII trade-off.
    """

    def __init__(
        self,
        program: Program,
        environment=None,
        process=None,
        dispatcher=None,
        max_steps: int = 200_000,
        record_instructions: bool = True,
        trace: Optional[Trace] = None,
        taint_addresses: bool = False,
        superblocks: Optional[bool] = None,
        superblock_threshold: Optional[int] = None,
        def_use: bool = True,
    ) -> None:
        memory = Memory()
        program.load_into(memory)
        regs = {name: 0 for name in ("eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp")}
        regs["esp"] = STACK_TOP
        regs["ebp"] = STACK_TOP
        self._setup(
            program,
            environment,
            process,
            dispatcher,
            memory=memory,
            regs=regs,
            flags={"zf": 0, "sf": 0, "cf": 0},
            pc=program.entry,
            steps=0,
            callstack=[],
            trace=trace if trace is not None else Trace(program_name=program.name),
            max_steps=max_steps,
            record_instructions=record_instructions,
            def_use=def_use,
            taint_addresses=taint_addresses,
            superblocks=superblocks,
            superblock_threshold=superblock_threshold,
        )

    @classmethod
    def resume(
        cls,
        program: Program,
        environment,
        process,
        dispatcher,
        *,
        memory: Memory,
        regs: dict,
        flags: dict,
        pc: int,
        steps: int,
        callstack: List[int],
        trace: Trace,
        max_steps: int = 200_000,
        superblocks: Optional[bool] = None,
        superblock_threshold: Optional[int] = None,
    ) -> "CPU":
        """Build an unrecorded CPU mid-run from restored machine state (see
        :mod:`repro.core.snapshot`) instead of a fresh image load.

        ``pc``/``steps`` name the instruction the resumed run executes
        first; the budget check compares the *cumulative* step count against
        ``max_steps``, so a resumed run exhausts its budget at exactly the
        same instruction a full rerun would.  A resumed pc may land
        mid-region: that index simply is not a region entry, so execution
        proceeds per-instruction until the next entry pc.
        """
        cpu = cls.__new__(cls)
        cpu._setup(
            program,
            environment,
            process,
            dispatcher,
            memory=memory,
            regs=regs,
            flags=flags,
            pc=pc,
            steps=steps,
            callstack=callstack,
            trace=trace,
            max_steps=max_steps,
            record_instructions=False,
            def_use=False,
            taint_addresses=False,
            superblocks=superblocks,
            superblock_threshold=superblock_threshold,
        )
        return cpu

    def _setup(
        self,
        program: Program,
        environment,
        process,
        dispatcher,
        *,
        memory: Memory,
        regs: dict,
        flags: dict,
        pc: int,
        steps: int,
        callstack: List[int],
        trace: Trace,
        max_steps: int,
        record_instructions: bool,
        def_use: bool,
        taint_addresses: bool,
        superblocks: Optional[bool],
        superblock_threshold: Optional[int],
    ) -> None:
        """Every per-run field, for fresh and resumed CPUs alike."""
        self.program = program
        self.environment = environment
        self.process = process
        self.dispatcher = dispatcher
        self.max_steps = max_steps
        #: Taint on, every step slow (the analysis tier).
        self.record_instructions = record_instructions
        #: Per-step def/use records on.  The accumulation only feeds
        #: InstructionRecords, so a run without them skips the per-access
        #: bookkeeping entirely.
        self.def_use = record_instructions and def_use
        self.taint_addresses = taint_addresses

        self.memory = memory
        self.regs = regs
        self.reg_taint = {name: EMPTY for name in regs}
        self.flags = flags
        self.flag_taint: TagSet = EMPTY

        self.pc = pc
        self.steps = steps
        self.status = ExitStatus.RUNNING
        self.fault_reason: Optional[str] = None
        self.callstack = callstack

        self.trace = trace
        trace.program_name = program.name

        # Per-step def/use accumulators and stack pins (reset each step of
        # a def/use run).
        self._uses: List[Tuple] = []
        self._defs: List[Tuple] = []
        self._api_step_recorded = False
        self._step_esp = regs["esp"]
        self._step_ebp = regs["ebp"]
        self._last_addr_taint: TagSet = EMPTY

        #: Predecoded (full, fast, text) handler per instruction.
        self._decoded = decoded_program(program)
        #: Steps/events already accounted before this CPU started (0 for a
        #: fresh run; the snapshot's prefix for a resumed one) — so
        #: ``_flush_obs`` reports only what *this* CPU executed.
        self._steps_at_start = steps
        self._events_at_start = len(trace.api_calls)
        self._predicates_at_start = len(trace.predicates)
        # The run's tier, chosen once: an unrecorded run carries no taint,
        # so it takes the fast loop and compiled regions; a recorded run
        # takes exact slow steps throughout.
        self._allow_fast = not record_instructions

        # Tier 3: the per-program superblock cache, attached only when the
        # fast loop runs (regions produce no InstructionRecords).
        enabled = (
            superblock_mod.default_enabled() if superblocks is None else superblocks
        )
        self._superblocks = (
            superblock_mod.superblock_cache(program, superblock_threshold)
            if enabled and self._allow_fast
            else None
        )
        # Plain-int run accumulators, flushed once by ``_flush_obs``.
        self._sb_entries = 0
        self._sb_guard_exits = 0
        self._sb_compiled_base = (
            self._superblocks.compiled if self._superblocks is not None else 0
        )
        self._slow_steps = 0

    # ------------------------------------------------------------------
    # register / memory access with def-use tracking
    # ------------------------------------------------------------------

    def get_reg(self, name: str) -> Tuple[int, TagSet]:
        if self.def_use:
            self._uses.append(("reg", name))
        return self.regs[name], self.reg_taint[name]

    def set_reg(self, name: str, value: int, taint: TagSet = EMPTY) -> None:
        if self.def_use:
            self._defs.append(("reg", name))
        self.regs[name] = mask32(value)
        self.reg_taint[name] = taint

    def _mem_address(self, op: Mem) -> int:
        addr = op.disp
        addr_taints = []
        if op.base:
            value, taint = self.get_reg(op.base)
            addr += value
            if taint:
                addr_taints.append(taint)
        if op.index:
            value, taint = self.get_reg(op.index)
            addr += value * op.scale
            if taint:
                addr_taints.append(taint)
        self._last_addr_taint = union(*addr_taints) if addr_taints else EMPTY
        return mask32(addr)

    def read_mem(self, addr: int, size: int) -> Tuple[int, TagSet]:
        try:
            value, taint = self.memory.read_span(addr, size)
        except MemoryFault as exc:
            # Byte-loop parity: bytes before the faulting one were used.
            if self.def_use:
                self._note_partial(self._uses, addr, size, exc.addr)
            raise
        if self.def_use:
            uses = self._uses
            a0 = addr & 0xFFFFFFFF
            if a0 + size <= 0x1_0000_0000:
                for i in range(size):
                    uses.append(("mem", a0 + i))
            else:
                for i in range(size):
                    uses.append(("mem", (addr + i) & 0xFFFFFFFF))
        return value, taint

    def write_mem(self, addr: int, value: int, size: int, taint: TagSet = EMPTY) -> None:
        try:
            self.memory.write_span(addr, value, size, taint)
        except MemoryFault as exc:
            # Byte-loop parity: bytes before the faulting one were written.
            if self.def_use:
                self._note_partial(self._defs, addr, size, exc.addr)
            raise
        if self.def_use:
            defs = self._defs
            a0 = addr & 0xFFFFFFFF
            if a0 + size <= 0x1_0000_0000:
                for i in range(size):
                    defs.append(("mem", a0 + i))
            else:
                for i in range(size):
                    defs.append(("mem", (addr + i) & 0xFFFFFFFF))

    @staticmethod
    def _note_partial(log: list, addr: int, size: int, fault_addr: int) -> None:
        for i in range(size):
            a = mask32(addr + i)
            if a == fault_addr:
                break
            log.append(("mem", a))

    # ------------------------------------------------------------------
    # operand evaluation
    # ------------------------------------------------------------------

    def read_operand(self, op: Operand) -> Tuple[int, TagSet]:
        if isinstance(op, Reg):
            return self.get_reg(op.name)
        if isinstance(op, Imm):
            return mask32(op.value), EMPTY
        if isinstance(op, Mem):
            addr = self._mem_address(op)
            value, taint = self.read_mem(addr, op.size)
            if self.taint_addresses and self._last_addr_taint:
                taint = union(taint, self._last_addr_taint)
            return value, taint
        raise CpuFault(f"cannot read operand {op}")

    def write_operand(self, op: Operand, value: int, taint: TagSet = EMPTY) -> None:
        if isinstance(op, Reg):
            self.set_reg(op.name, value, taint)
            return
        if isinstance(op, Mem):
            self.write_mem(self._mem_address(op), value, op.size, taint)
            return
        raise CpuFault(f"cannot write operand {op}")

    # ------------------------------------------------------------------
    # stack helpers (shared with the API dispatcher)
    # ------------------------------------------------------------------

    def push(self, value: int, taint: TagSet = EMPTY) -> None:
        esp, esp_taint = self.get_reg("esp")
        esp = mask32(esp - 4)
        self.set_reg("esp", esp, esp_taint)
        self.write_mem(esp, value, 4, taint)

    def pop(self) -> Tuple[int, TagSet]:
        esp, esp_taint = self.get_reg("esp")
        value, taint = self.read_mem(esp, 4)
        self.set_reg("esp", mask32(esp + 4), esp_taint)
        return value, taint

    def stack_arg(self, index: int) -> Tuple[int, TagSet]:
        """Read stdcall argument ``index`` (0-based) at ``[esp + 4*index]``."""
        esp = self.regs["esp"]
        return self.read_mem(mask32(esp + 4 * index), 4)

    def read_stack_args(self, count: int) -> Tuple[List[int], List[TagSet]]:
        """Read stdcall slots 0..count-1 in one pass.

        Same values, taints, and per-byte use records as ``count``
        individual :meth:`stack_arg` calls, but with a single mapped-region
        check for the whole block — the dispatcher pre-reads every declared
        argument on every API call, which made this the hottest read path
        in API-dense samples.  A run without def/use records over untainted
        memory (every unrecorded run: nothing mints taint there) takes a
        loop that reads values only.  The returned lists are fresh; callers
        keep them."""
        esp = self.regs["esp"]
        a0 = esp & 0xFFFFFFFF
        last = a0 + 4 * count - 1
        values: List[int] = []
        taints: List[TagSet] = []
        if count and last <= 0xFFFFFFFF:
            mem = self.memory
            for start, end in mem._regions:
                if start <= a0 and last < end:
                    data = mem._bytes
                    tmap = mem._taint
                    track = self.def_use
                    if not track and not tmap:
                        get = data.get
                        values = [
                            get(a, 0)
                            | get(a + 1, 0) << 8
                            | get(a + 2, 0) << 16
                            | get(a + 3, 0) << 24
                            for a in range(a0, a0 + 4 * count, 4)
                        ]
                        return values, [EMPTY] * count
                    for k in range(count):
                        a = a0 + 4 * k
                        values.append(
                            data.get(a, 0)
                            | data.get(a + 1, 0) << 8
                            | data.get(a + 2, 0) << 16
                            | data.get(a + 3, 0) << 24
                        )
                        if tmap and (
                            a in tmap
                            or a + 1 in tmap
                            or a + 2 in tmap
                            or a + 3 in tmap
                        ):
                            taints.append(
                                union(
                                    *(
                                        t
                                        for j in range(4)
                                        if (t := tmap.get(a + j))
                                    )
                                )
                            )
                        else:
                            taints.append(EMPTY)
                        if track:
                            self._uses.extend(
                                (("mem", a), ("mem", a + 1), ("mem", a + 2), ("mem", a + 3))
                            )
                    return values, taints
        for k in range(count):
            value, taint = self.read_mem(mask32(esp + 4 * k), 4)
            values.append(value)
            taints.append(taint)
        return values, taints

    # ------------------------------------------------------------------
    # execution loop
    # ------------------------------------------------------------------

    def run(self) -> Trace:
        """Execute until exit, fault, or budget exhaustion.

        Three execution tiers share one exact machine model, and a run
        picks its tiers once, from ``record_instructions``:

        1. ``step()`` — full slow path (taint, def/use records, events); a
           recorded run executes every instruction here;
        2. ``_run_fast()`` — predecoded per-instruction loop for an
           unrecorded (taint-free) run, which takes one slow step per
           instruction without a fast form (an API call);
        3. compiled superblocks — one dispatch per hot region, entered from
           the fast loop.  Host runs only: ``AutoVac.analyze`` turns them
           off for its stages, whose programs are all cold.

        With ``obs.prof`` enabled the same loops attribute wall time per
        tier through a :class:`_ProfAcc`: contiguous slow steps batch
        behind one timer pair, the fast loop is timed per invocation, and
        compiled regions per dispatch.
        """
        prof = obs.prof
        acc = _ProfAcc(prof) if prof.enabled else None
        guard_exits0 = self._sb_guard_exits
        raised = True
        try:
            if self._allow_fast:
                step = self.step if acc is None else partial(acc.step, self)
                while self.status is ExitStatus.RUNNING:
                    self._run_fast(acc)
                    if self.status is not ExitStatus.RUNNING:
                        break
                    # The instruction the fast loop stopped at (an API
                    # call, typically) needs one full slow step.
                    step()
            elif acc is not None:
                acc.run_slow(self)
            else:
                while self.status is ExitStatus.RUNNING:
                    self.step()
            raised = False
        finally:
            if acc is not None:
                acc.flush(prof, self._sb_guard_exits - guard_exits0)
            # Also when an interceptor ends the run by raising (impact's
            # capture run, determinism's slice re-run): it executed too.
            self._flush_obs(raised)
        self.trace.exit_status = self.status.value
        self.trace.steps = self.steps
        if self.process is not None and self.process.exit_code is not None:
            self.trace.exit_code = self.process.exit_code
        return self.trace

    def _run_fast(self, acc: Optional[_ProfAcc]) -> None:
        """Inner interpreter loop of an unrecorded run.

        Executes predecoded untainted handlers back to back — no def/use
        lists, no TagSet plumbing, no InstructionRecord bookkeeping — and
        returns to the full loop at the first instruction without a fast
        form (an API call, or any terminal condition).  Hot region entries
        dispatch once into a compiled superblock instead of once per
        instruction.  Under profiling the whole segment is timed once and
        region dispatches individually; the difference is ``vm;fast``."""
        decoded = self._decoded
        n = len(decoded)
        base = TEXT_BASE
        max_steps = self.max_steps
        sb = self._superblocks
        entries = sb.entries if sb is not None else None
        entered = guards = 0
        if acc is not None:
            steps0 = self.steps
            region_s0 = acc.region_s
            region_n0 = acc.region_n
            t_start = time.perf_counter()
        try:
            while True:
                if self.steps >= max_steps:
                    self.status = ExitStatus.BUDGET
                    return
                idx = self.pc - base
                if not 0 <= idx < n:
                    self.status = ExitStatus.FAULT
                    self.fault_reason = f"pc 0x{self.pc:08x} outside .text"
                    return
                if entries is not None:
                    region = entries[idx]
                    if region is not None:
                        fn = region.fn
                        if fn is None:
                            fn = region.warm()
                        if fn is not None:
                            ran = fn(self) if acc is None else acc.dispatch(self, idx, fn)
                            if ran:
                                entered += 1
                                if self.status is not ExitStatus.RUNNING:
                                    return
                                continue
                            # Chunked-budget guard refused: execute the
                            # region per-instruction instead.
                            guards += 1
                fast = decoded[idx][1]
                if fast is None:
                    return
                pc = self.pc
                self.steps += 1
                self.pc = pc + 1  # default fallthrough; jumps overwrite
                try:
                    fast(self)
                except (MemoryFault, CpuFault) as exc:
                    self.status = ExitStatus.FAULT
                    # pc has already advanced; name the faulting instruction.
                    self.fault_reason = f"{exc} (pc 0x{pc:08x})"
                    return
                if self.status is not ExitStatus.RUNNING:
                    return
        finally:
            if sb is not None:
                self._sb_entries += entered
                self._sb_guard_exits += guards
            if acc is not None:
                elapsed = time.perf_counter() - t_start
                acc.fast_s += elapsed - (acc.region_s - region_s0)
                acc.fast_n += (self.steps - steps0) - (acc.region_n - region_n0)

    def _flush_obs(self, raised: bool = False) -> None:
        """Report run totals into the metrics registry.

        The per-instruction loop stays uninstrumented (every added branch
        there is ~1% interpreter overhead); counts the interpreter already
        keeps are flushed once per run instead — the cheap-hook contract.
        A ``raised`` run stopped inside a slow step that never finished;
        like the profile tree, the totals leave that step out.
        """
        metrics = obs.metrics
        if not metrics.enabled:
            return
        # Handles are cached across runs and dropped when obs.reset() bumps
        # the registry generation (same scheme as Dispatcher.flush_obs).
        cache = _VM_FLUSH_CACHE
        cache.refresh(metrics)
        status = "interrupted" if raised else self.status.value
        runs = cache.runs.get(status)
        if runs is None:
            runs = cache.runs[status] = metrics.counter("vm.runs", status=status)
        executed = self.steps - self._steps_at_start - raised
        cache.instructions.inc(executed)
        runs.inc()
        cache.api_calls.inc(len(self.trace.api_calls) - self._events_at_start)
        cache.tainted_predicates.inc(len(self.trace.predicates) - self._predicates_at_start)
        # Steps that avoided the slow path (fast loop + superblocks).
        cache.fast_steps.inc(executed - (self._slow_steps - raised))
        sb = self._superblocks
        if sb is not None:
            cache.sb_compiled.inc(sb.compiled - self._sb_compiled_base)
            cache.sb_entries.inc(self._sb_entries)
            cache.sb_guard_exits.inc(self._sb_guard_exits)
        flush = getattr(self.dispatcher, "flush_obs", None)
        if flush is not None:
            flush(self.trace.api_calls[self._events_at_start:])

    def terminate(self, exit_code: int = 0) -> None:
        """Called by ExitProcess-style APIs."""
        self.status = ExitStatus.TERMINATED
        if self.process is not None:
            self.process.terminate(exit_code)

    def step(self) -> None:
        if self.status is not ExitStatus.RUNNING:
            return
        if self.steps >= self.max_steps:
            self.status = ExitStatus.BUDGET
            return
        idx = self.pc - TEXT_BASE
        if not 0 <= idx < len(self._decoded):
            self.status = ExitStatus.FAULT
            self.fault_reason = f"pc 0x{self.pc:08x} outside .text"
            return
        full, _fast, text = self._decoded[idx]
        def_use = self.def_use
        if def_use:
            self._uses = []
            self._defs = []
            self._api_step_recorded = False
            self._step_esp = self.regs["esp"]
            self._step_ebp = self.regs["ebp"]
        seq = self.steps
        pc = self.pc
        self.steps += 1
        self._slow_steps += 1
        self.pc += 1  # default fallthrough; jumps overwrite
        try:
            full(self, pc, seq)
        except (MemoryFault, CpuFault) as exc:
            self.status = ExitStatus.FAULT
            # pc advanced before the handler ran; report the pc of the
            # instruction that actually faulted.
            self.fault_reason = f"{exc} (pc 0x{pc:08x})"
            return
        if def_use and not self._api_step_recorded:
            self.trace.instructions.append(
                InstructionRecord(
                    seq=seq,
                    pc=pc,
                    text=text,
                    defs=tuple(self._defs),
                    uses=tuple(self._uses),
                    esp=self._step_esp,
                    ebp=self._step_ebp,
                )
            )

    # ------------------------------------------------------------------
    # per-instruction semantics
    # ------------------------------------------------------------------

    def _lea(self, dst: Operand, mem: Operand) -> None:
        if not isinstance(mem, Mem):
            raise CpuFault("lea needs a memory operand")
        taints = []
        if mem.base:
            _, t = self.get_reg(mem.base)
            taints.append(t)
        if mem.index:
            _, t = self.get_reg(mem.index)
            taints.append(t)
        self.write_operand(dst, self._mem_address(mem), union(*taints))

    def _ret(self, ops: Tuple[Operand, ...]) -> None:
        value, _ = self.pop()
        if ops:
            extra, _ = self.read_operand(ops[0])
            self.set_reg("esp", mask32(self.regs["esp"] + extra), self.reg_taint["esp"])
        if self.callstack:
            self.callstack.pop()
        self.pc = value

    # The ALU and branch rules live in ``decode``'s tables (``_UNOPS``,
    # ``_BINOPS``, ``_CONDS``); the full handlers resolve the entry once at
    # decode time and these helpers add only taint and def/use tracking.

    def _unary(self, op: Callable[[int], int], sets_flags: bool, dst: Operand) -> None:
        value, taint = self.read_operand(dst)
        result = mask32(op(value))
        self.write_operand(dst, result, taint)
        if sets_flags:
            self._set_flags(result, taint, cf=None)

    def _zero(self, name: str) -> None:
        """``xor r, r``: zero the register and *clear* its taint (the
        classic untainting idiom every taint engine must honour)."""
        self.get_reg(name)
        self.set_reg(name, 0, EMPTY)
        self._set_flags(0, EMPTY, cf=0)

    def _binary(self, op: Callable[[int, int], Tuple[int, int]], dst: Operand, src: Operand) -> None:
        a, ta = self.read_operand(dst)
        b, tb = self.read_operand(src)
        result, cf = op(a, b)
        result = mask32(result)
        taint = union(ta, tb)
        self.write_operand(dst, result, taint)
        self._set_flags(result, taint, cf=cf)

    def _set_flags(self, result: int, taint: TagSet, cf: Optional[int]) -> None:
        self.flags["zf"] = 1 if result == 0 else 0
        self.flags["sf"] = 1 if result & 0x80000000 else 0
        if cf is not None:
            self.flags["cf"] = cf
        self.flag_taint = taint
        if self.def_use:
            self._defs.append(("flags",))

    def _compare(self, m: str, lhs: Operand, rhs: Operand, pc: int, seq: int, text: str) -> None:
        a, ta = self.read_operand(lhs)
        b, tb = self.read_operand(rhs)
        if m == "cmp":
            result = mask32(a - b)
            cf = 1 if a < b else 0
        else:  # test
            result = a & b
            cf = 0
        taint = union(ta, tb)
        self._set_flags(result, taint, cf=cf)
        if taint:
            self.trace.predicates.append(
                TaintedPredicateEvent(seq=seq, pc=pc, instr_text=text, tags=taint, lhs=a, rhs=b)
            )
            # Slow path only by construction: tainted cmp/test never runs on
            # the predecoded fast path, so the fast loop stays journal-free.
            flight = obs.flight
            if flight.enabled:
                # One journal event per (site, taint set) per sample: loop
                # iterations and re-runs (capture, mutations, determinism)
                # repeat the same predicate with the same causes and would
                # only bloat the journal.
                key = ("predicate", pc, tuple(sorted(t.event_id for t in taint)))
                if flight.recall(key) is None:
                    seeds = {flight.recall(("api", t.event_id)) for t in taint}
                    flight_id = flight.record(
                        "predicate.tainted",
                        causes=tuple(sorted(s for s in seeds if s is not None)),
                        pc=pc,
                        instr=text,
                    )
                    flight.remember(key, flight_id)
                    for t in taint:
                        # First predicate consuming each API's taint: cited by
                        # candidate events as the control-flow evidence.
                        flight.remember(("predicate_for", t.event_id), flight_id)

    def _jump(self, cond: Optional[Callable[[dict], bool]], target: Operand) -> None:
        """``cond`` is ``None`` for ``jmp``, else the flags predicate."""
        if cond is not None:
            if self.def_use:
                self._uses.append(("flags",))
            if not cond(self.flags):
                return
        value, _ = self.read_operand(target)
        self.pc = value

    def _call(self, target: Operand, pc: int, seq: int, text: str) -> None:
        if isinstance(target, ApiRef):
            if self.dispatcher is None:
                raise CpuFault(f"no API dispatcher for {target}")
            self.dispatcher.invoke(self, target.name, caller_pc=pc, seq=seq)
            return
        value, _ = self.read_operand(target)
        self.push(self.pc)  # return address (already points past the call)
        self.callstack.append(pc)
        self.pc = value

    # ------------------------------------------------------------------
    # hooks used by the API dispatcher
    # ------------------------------------------------------------------

    def note_use(self, location: Tuple) -> None:
        if self.def_use:
            self._uses.append(location)

    def note_def(self, location: Tuple) -> None:
        if self.def_use:
            self._defs.append(location)

    def record_api_step(self, seq: int, pc: int, text: str, event_id: int) -> None:
        """Append the API pseudo-instruction's def/use record (the
        dispatcher calls this on def/use runs only)."""
        self.trace.instructions.append(
            InstructionRecord(
                seq=seq,
                pc=pc,
                text=text,
                defs=tuple(self._defs),
                uses=tuple(self._uses),
                api_event_id=event_id,
                esp=self._step_esp,
                ebp=self._step_ebp,
            )
        )
        self._api_step_recorded = True
