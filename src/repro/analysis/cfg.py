"""Static control-flow graph over an assembled program.

A library utility for offline inspection of corpus samples (basic blocks,
successors, reachability); no pipeline stage uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..vm.isa import Instruction
from ..vm.operands import ApiRef, Imm
from ..vm.program import Program


@dataclass
class BasicBlock:
    """A maximal straight-line instruction run."""

    start: int                    # pc of the first instruction
    end: int                      # pc one past the last instruction
    successors: Tuple[int, ...] = ()

    @property
    def size(self) -> int:
        return self.end - self.start

    def __contains__(self, pc: int) -> bool:
        return self.start <= pc < self.end


@dataclass
class ControlFlowGraph:
    """Basic blocks keyed by start pc, plus derived queries."""

    program: Program
    blocks: Dict[int, BasicBlock] = field(default_factory=dict)
    entry: int = 0

    def block_at(self, pc: int) -> Optional[BasicBlock]:
        for block in self.blocks.values():
            if pc in block:
                return block
        return None

    def reachable_blocks(self) -> Set[int]:
        """Block starts reachable from the entry."""
        seen: Set[int] = set()
        work = [self.entry]
        while work:
            start = work.pop()
            if start in seen or start not in self.blocks:
                continue
            seen.add(start)
            work.extend(self.blocks[start].successors)
        return seen

    def unreachable_code(self) -> Set[int]:
        reachable = self.reachable_blocks()
        return {start for start in self.blocks if start not in reachable}

    def conditional_branch_pcs(self) -> List[int]:
        """pcs of conditional jumps (the paths forced execution can flip)."""
        out = []
        for i, instr in enumerate(self.program.instructions):
            if instr.is_conditional_jump:
                out.append(self.program.text_base + i)
        return out

    def api_call_sites(self) -> List[Tuple[int, str]]:
        out = []
        for i, instr in enumerate(self.program.instructions):
            if instr.mnemonic == "call" and isinstance(instr.operands[0], ApiRef):
                out.append((self.program.text_base + i, instr.operands[0].name))
        return out

    def coverage(self, executed_pcs: Set[int]) -> float:
        """Fraction of reachable instructions covered by a set of pcs."""
        reachable_instrs = sum(
            self.blocks[s].size for s in self.reachable_blocks()
        )
        if not reachable_instrs:
            return 0.0
        covered = sum(1 for pc in executed_pcs if self.block_at(pc) is not None)
        return min(1.0, covered / reachable_instrs)


def build_cfg(program: Program) -> ControlFlowGraph:
    """Construct the CFG: leaders at jump targets and fall-throughs."""
    base = program.text_base
    n = len(program.instructions)
    if n == 0:
        return ControlFlowGraph(program=program, entry=program.entry)

    leaders: Set[int] = {program.entry, base}
    for i, instr in enumerate(program.instructions):
        pc = base + i
        target = _static_target(instr)
        if instr.is_jump or instr.mnemonic == "ret" or instr.mnemonic == "halt":
            if pc + 1 < base + n:
                leaders.add(pc + 1)
            if target is not None:
                leaders.add(target)
        elif instr.mnemonic == "call" and target is not None:
            leaders.add(target)
            if pc + 1 < base + n:
                leaders.add(pc + 1)

    ordered = sorted(p for p in leaders if base <= p < base + n)
    blocks: Dict[int, BasicBlock] = {}
    for idx, start in enumerate(ordered):
        end = ordered[idx + 1] if idx + 1 < len(ordered) else base + n
        # A block may end early at its first control-transfer instruction.
        stop = start
        while stop < end:
            instr = program.instructions[stop - base]
            stop += 1
            if instr.is_jump or instr.mnemonic in ("ret", "halt", "call"):
                break
        last = program.instructions[stop - 1 - base]
        successors = _successors(last, stop - 1, base, n)
        blocks[start] = BasicBlock(start=start, end=stop, successors=successors)
        # Residual instructions after an early stop form their own block(s);
        # they are picked up because stop is also a leader (fall-through).
        if stop < end and stop not in leaders:
            ordered.insert(idx + 1, stop)

    return ControlFlowGraph(program=program, blocks=blocks, entry=program.entry)


def _static_target(instr: Instruction) -> Optional[int]:
    if not instr.operands:
        return None
    op = instr.operands[0]
    if isinstance(op, Imm):
        return op.value
    return None


def _successors(last: Instruction, pc: int, base: int, n: int) -> Tuple[int, ...]:
    succ: List[int] = []
    target = _static_target(last)
    if last.mnemonic == "jmp":
        if target is not None:
            succ.append(target)
    elif last.is_conditional_jump:
        if target is not None:
            succ.append(target)
        if pc + 1 < base + n:
            succ.append(pc + 1)
    elif last.mnemonic in ("halt", "ret"):
        pass
    elif last.mnemonic == "call":
        # Guest calls return; API calls fall through.
        if pc + 1 < base + n:
            succ.append(pc + 1)
        if target is not None and base <= target < base + n:
            succ.append(target)
    else:
        if pc + 1 < base + n:
            succ.append(pc + 1)
    return tuple(dict.fromkeys(succ))
