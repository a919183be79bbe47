"""The API call path's block guest I/O against byte-loop references, and the
API layer's import discipline.

``ApiContext.write_buffer``/``write_string`` store through the memory's
block writers and ``Memory.read_cstring`` scans region by region; each must
leave exactly what the one-byte-at-a-time loop it replaced leaves: guest
bytes, the taint map (stale taint replaced or dropped), def records, and
the first faulting address when the span runs off mapped memory.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.winapi
from repro.taint.labels import EMPTY, TaintClass, TaintTag
from repro.vm import CPU, HEAP_BASE, STACK_TOP, MemoryFault, assemble
from repro.winapi.context import ApiContext

HEAP_END = HEAP_BASE + 0x100000  # the default heap region's end (memory.py)
STACK_END = STACK_TOP + 0x1000

A = frozenset({TaintTag(1, "GetTickCount", TaintClass.ENV_DETERMINISTIC)})
B = frozenset({TaintTag(2, "RegQueryValueExA", TaintClass.RESOURCE)})
STALE = frozenset({TaintTag(9, "ReadFile", TaintClass.RESOURCE)})


def _cpu(record: bool) -> CPU:
    cpu = CPU(assemble("    halt\n"), record_instructions=record)
    mem = cpu.memory
    mem.map_region(0xFFFFF000, 0x1000)  # so spans can wrap 2^32 ...
    mem.map_region(0, 0x1000)  # ... onto page zero
    mem.map_region(STACK_END, 0x100)  # adjacent to the stack region
    return cpu


def _seed_stale_taint(cpu: CPU, addr: int, size: int) -> None:
    """Bytes a block write must overwrite, with taint it must replace or
    drop (every other byte tainted)."""
    for i in range(size):
        a = (addr + i) & 0xFFFFFFFF
        if cpu.memory.is_mapped(a):
            cpu.memory.write_byte(a, 0xEE, STALE if i % 2 else EMPTY)


def _ctx(cpu: CPU) -> ApiContext:
    return ApiContext(cpu, None, None, None, 0)


# -- byte-loop references (the pre-block implementations) --------------------


def ref_write_buffer(cpu, addr, data, taint=EMPTY):
    for i, b in enumerate(data):
        cpu.memory.write_byte(addr + i, b, taint)
    if cpu.record_instructions:
        cpu._defs.extend(("mem", addr + i) for i in range(len(data)))


def ref_write_string(cpu, addr, text, taints=None, taint=EMPTY):
    mem = cpu.memory
    if taints is None:
        data = text.encode("utf-8", "surrogateescape")
        for i, b in enumerate(data):
            mem.write_byte(addr + i, b, taint)
        length = len(data)
    else:
        pos = addr
        for i, ch in enumerate(text):
            t = taints[i] if i < len(taints) else EMPTY
            for b in ch.encode("utf-8", "surrogateescape"):
                mem.write_byte(pos, b, t)
                pos += 1
        length = pos - addr
    mem.write_byte(addr + length, 0, EMPTY)
    if cpu.record_instructions:
        cpu._defs.extend(("mem", addr + i) for i in range(length + 1))


def ref_read_cstring(mem, addr, max_len=4096):
    raw = bytearray()
    taints = []
    for i in range(max_len):
        byte, taint = mem.read_byte(addr + i)
        if byte == 0:
            break
        raw.append(byte)
        taints.append(taint)
    return raw.decode("latin-1"), taints


def _outcome(fn, cpu, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
        fault = None
    except MemoryFault as exc:
        result, fault = None, exc.addr
    return (
        result,
        fault,
        dict(cpu.memory._bytes),
        dict(cpu.memory._taint),
        list(cpu._defs),
    )


def _assert_same_write(addr, write, reference, *args, **kwargs):
    for record in (True, False):
        ours, theirs = _cpu(record), _cpu(record)
        for cpu in (ours, theirs):
            _seed_stale_taint(cpu, addr - 4, 64)
        got = _outcome(write, ours, _ctx(ours), addr, *args, **kwargs)
        want = _outcome(reference, theirs, theirs, addr, *args, **kwargs)
        assert got == want


# Spans: inside one region, straddling into an adjacent mapped region,
# running off a region onto unmapped memory (fault partway), starting
# unmapped, and wrapping 2^32 onto page zero.
SPANS = {
    "inside": HEAP_BASE + 0x40,
    "into_adjacent_region": STACK_END - 3,
    "fault_partway": HEAP_END - 3,
    "unmapped_start": HEAP_END + 0x10,
    "wraps_2_32": 0xFFFFFFFD,
}

TEXTS = {
    "empty": "",
    "ascii": "Global\\mtx-42",
    "non_ascii": "Glöbal\\mütex✓",
    "escaped_byte": "ab\udc80cd",
}


@pytest.mark.parametrize("addr", SPANS.values(), ids=SPANS.keys())
@pytest.mark.parametrize("taint", [EMPTY, A], ids=["untainted", "tainted"])
def test_write_buffer_matches_byte_loop(addr, taint):
    _assert_same_write(
        addr, ApiContext.write_buffer, ref_write_buffer, b"\x01\x00\xffABCDEFG", taint
    )


@pytest.mark.parametrize("addr", SPANS.values(), ids=SPANS.keys())
@pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS.keys())
@pytest.mark.parametrize("taint", [EMPTY, A], ids=["untainted", "one_taint"])
def test_write_string_one_taint_matches_byte_loop(addr, text, taint):
    _assert_same_write(addr, ApiContext.write_string, ref_write_string, text, taint=taint)


@pytest.mark.parametrize("addr", SPANS.values(), ids=SPANS.keys())
@pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS.keys())
@pytest.mark.parametrize("extra", [-3, 0, 2], ids=["short", "exact", "long"])
def test_write_string_per_char_taints_match_byte_loop(addr, text, extra):
    """Per-character taints (what read_string hands wsprintf-style
    copies), shorter than, as long as, or longer than the text."""
    pattern = [A, EMPTY, B, A | B]
    taints = [pattern[i % 4] for i in range(max(0, len(text) + extra))]
    _assert_same_write(addr, ApiContext.write_string, ref_write_string, text, taints=taints)


def _string_memory():
    cpu = _cpu(False)
    mem = cpu.memory
    for addr, data in (
        (HEAP_BASE + 0x100, b"plain\x00"),
        (STACK_END - 4, b"across-regions\x00"),  # stack -> adjacent region
        (HEAP_END - 5, b"offmap"),  # runs off the heap: unmapped byte
        (0xFFFFFFFC, b"wrapped\x00"),  # wraps 2^32 onto page zero
        (HEAP_BASE + 0x200, b"no-terminator-within-limit"),
    ):
        for i, b in enumerate(data):
            a = (addr + i) & 0xFFFFFFFF
            if mem.is_mapped(a):
                mem.write_byte(a, b, A if i % 3 == 0 else EMPTY)
    return mem


@pytest.mark.parametrize(
    "addr,max_len",
    [
        (HEAP_BASE + 0x100, 4096),
        (HEAP_BASE + 0x100, 3),
        (HEAP_BASE + 0x100, 0),
        (STACK_END - 4, 4096),
        (HEAP_END - 5, 4096),
        (HEAP_END - 5, 5),
        (HEAP_END + 0x10, 4096),
        (0xFFFFFFFC, 4096),
        (HEAP_BASE + 0x200, 10),
    ],
    ids=[
        "plain",
        "cut_by_max_len",
        "max_len_zero",
        "into_adjacent_region",
        "unmapped_byte",
        "limit_at_region_end",
        "unmapped_start",
        "wraps_2_32",
        "no_terminator",
    ],
)
def test_read_cstring_matches_byte_loop(addr, max_len):
    mem = _string_memory()

    def outcome(fn):
        try:
            return fn(mem, addr, max_len), None
        except MemoryFault as exc:
            return None, exc.addr

    assert outcome(type(mem).read_cstring) == outcome(ref_read_cstring)


def test_api_layer_imports_at_module_level():
    """Handlers and the dispatcher run on every API call: an ``import``
    inside a function re-runs the import machinery each time."""
    package = Path(repro.winapi.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.Import, ast.ImportFrom)):
                        offenders.append(f"{path.name}:{inner.lineno}")
    assert offenders == []
