"""Sparse byte-addressable memory with per-byte taint.

Per-byte taint is what makes *partial static* identifiers recoverable: after
``wsprintf(buf, "Global\\%s-99", random_part)`` the literal bytes of ``buf``
carry the format string's (static) provenance while the ``%s`` bytes carry the
random API's tag, so a regex can be cut along taint boundaries (paper §IV-C).
Taint exists only on a recorded (analysis) run; the fast and superblock tiers
of an unrecorded run use the untainted ``*_plain`` accessors.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..taint.labels import EMPTY, TagSet, union
from .operands import mask32

TEXT_BASE = 0x00401000
RDATA_BASE = 0x00410000
DATA_BASE = 0x00420000
STACK_BASE = 0x00180000
STACK_TOP = 0x0018F000
HEAP_BASE = 0x00500000


class MemoryFault(Exception):
    """Raised on an access outside any mapped region."""

    def __init__(self, addr: int, why: str = "unmapped") -> None:
        super().__init__(f"memory fault at 0x{addr:08x}: {why}")
        self.addr = addr


class Memory:
    """Sparse memory: unwritten mapped bytes read as zero, untainted."""

    def __init__(self) -> None:
        self._bytes: Dict[int, int] = {}
        self._taint: Dict[int, TagSet] = {}
        #: (start, end) half-open mapped ranges.
        self._regions: List[Tuple[int, int]] = [
            (STACK_BASE, STACK_TOP + 0x1000),
            (HEAP_BASE, HEAP_BASE + 0x100000),
        ]
        #: Half-open ranges that are read-only constants (.rdata).
        self.readonly_ranges: List[Tuple[int, int]] = []

    @classmethod
    def restore(
        cls,
        bytes_map: Dict[int, int],
        regions: Iterable[Tuple[int, int]],
        readonly_ranges: Iterable[Tuple[int, int]],
    ) -> "Memory":
        """Rebuild a memory image from snapshot state (owned here, so a new
        ``__init__`` attribute cannot silently be skipped on the resume
        path: construction goes through ``cls()`` and then overwrites).

        Inputs are copied — the snapshot stays independent of the instance.
        Snapshots come from unrecorded runs, so the image is untainted.
        """
        memory = cls()
        memory._bytes = dict(bytes_map)
        memory._regions = list(regions)
        memory.readonly_ranges = list(readonly_ranges)
        return memory

    def map_region(self, start: int, size: int, readonly: bool = False) -> None:
        self._regions.append((start, start + size))
        if readonly:
            self.readonly_ranges.append((start, start + size))

    def is_mapped(self, addr: int) -> bool:
        # Plain loop, not any(genexpr): this is the hottest function in the
        # whole pipeline (one call per byte touched) and the generator frame
        # costs more than the comparisons.
        for start, end in self._regions:
            if start <= addr < end:
                return True
        return False

    def is_readonly(self, addr: int) -> bool:
        for start, end in self.readonly_ranges:
            if start <= addr < end:
                return True
        return False

    def _check(self, addr: int) -> None:
        if not self.is_mapped(addr):
            raise MemoryFault(addr)

    # -- byte-level -------------------------------------------------------

    def read_byte(self, addr: int) -> Tuple[int, TagSet]:
        addr = mask32(addr)
        self._check(addr)
        return self._bytes.get(addr, 0), self._taint.get(addr, EMPTY)

    def write_byte(self, addr: int, value: int, taint: TagSet = EMPTY) -> None:
        addr = mask32(addr)
        self._check(addr)
        self._bytes[addr] = value & 0xFF
        if taint:
            self._taint[addr] = taint
        else:
            self._taint.pop(addr, None)

    # -- untainted fast path (predecoded interpreter) ---------------------

    def read_plain(self, addr: int, size: int) -> int:
        """Multi-byte read without taint accounting.

        The fast and superblock tiers read through it; they run only for
        unrecorded runs, which carry no taint.  Fault behaviour matches
        the byte loop: the first unmapped byte raises.  The common case —
        the whole span inside one region — does a single bounds check
        instead of one ``is_mapped`` scan per byte."""
        a0 = addr & 0xFFFFFFFF
        last = a0 + size - 1
        if last <= 0xFFFFFFFF:
            for start, end in self._regions:
                if start <= a0 and last < end:
                    data = self._bytes
                    if size == 4:
                        return (
                            data.get(a0, 0)
                            | data.get(a0 + 1, 0) << 8
                            | data.get(a0 + 2, 0) << 16
                            | data.get(a0 + 3, 0) << 24
                        )
                    if size == 1:
                        return data.get(a0, 0)
                    value = 0
                    for i in range(size):
                        value |= data.get(a0 + i, 0) << (8 * i)
                    return value
        # The access wraps 2^32 or straddles a region boundary: per-byte walk
        # so the first unmapped byte faults, exactly like the write_byte loop.
        value = 0
        data = self._bytes
        for i in range(size):
            a = (addr + i) & 0xFFFFFFFF
            if not self.is_mapped(a):
                raise MemoryFault(a)
            value |= data.get(a, 0) << (8 * i)
        return value

    def write_plain(self, addr: int, value: int, size: int) -> None:
        """Multi-byte write without taint accounting, the store side of
        ``read_plain`` (same taint-free callers).

        Equivalent to a ``write_byte`` loop: earlier bytes stay written when
        a later byte faults."""
        data = self._bytes
        a0 = addr & 0xFFFFFFFF
        last = a0 + size - 1
        if last <= 0xFFFFFFFF:
            for start, end in self._regions:
                if start <= a0 and last < end:
                    if size == 4:
                        data[a0] = value & 0xFF
                        data[a0 + 1] = (value >> 8) & 0xFF
                        data[a0 + 2] = (value >> 16) & 0xFF
                        data[a0 + 3] = (value >> 24) & 0xFF
                        return
                    for i in range(size):
                        data[a0 + i] = (value >> (8 * i)) & 0xFF
                    return
        for i in range(size):
            a = (addr + i) & 0xFFFFFFFF
            if not self.is_mapped(a):
                raise MemoryFault(a)
            data[a] = (value >> (8 * i)) & 0xFF

    # -- word-level -------------------------------------------------------

    def read_span(self, addr: int, size: int) -> Tuple[int, TagSet]:
        """Multi-byte read with aggregated taint — the full-fat equivalent
        of ``read_plain``.

        Semantically identical to a ``read_byte`` loop (API argument
        decoding and the slow interpreter both lean on it), but the common
        whole-span-in-one-region case does a single bounds check and only
        consults the taint dict when any taint exists at all.  The
        wrap/straddle fallback keeps the byte loop's fault order."""
        a0 = addr & 0xFFFFFFFF
        last = a0 + size - 1
        if last <= 0xFFFFFFFF:
            for start, end in self._regions:
                if start <= a0 and last < end:
                    data = self._bytes
                    if size == 4:
                        value = (
                            data.get(a0, 0)
                            | data.get(a0 + 1, 0) << 8
                            | data.get(a0 + 2, 0) << 16
                            | data.get(a0 + 3, 0) << 24
                        )
                    else:
                        value = 0
                        for i in range(size):
                            value |= data.get(a0 + i, 0) << (8 * i)
                    taint = self._taint
                    if taint:
                        for i in range(size):
                            if a0 + i in taint:
                                return value, union(
                                    *(
                                        t
                                        for j in range(size)
                                        if (t := taint.get(a0 + j))
                                    )
                                )
                    return value, EMPTY
        value = 0
        tagsets = []
        for i in range(size):
            byte, tags = self.read_byte(addr + i)
            value |= byte << (8 * i)
            if tags:
                tagsets.append(tags)
        return value, union(*tagsets)

    def write_span(self, addr: int, value: int, size: int, taint: TagSet = EMPTY) -> None:
        """Multi-byte write, one taint tag for the whole span.

        Equivalent to a ``write_byte`` loop: earlier bytes stay written
        when a later byte faults (fallback path), stale taint on the
        touched bytes is replaced or dropped."""
        a0 = addr & 0xFFFFFFFF
        last = a0 + size - 1
        if last <= 0xFFFFFFFF:
            for start, end in self._regions:
                if start <= a0 and last < end:
                    data = self._bytes
                    tmap = self._taint
                    if taint:
                        for i in range(size):
                            a = a0 + i
                            data[a] = (value >> (8 * i)) & 0xFF
                            tmap[a] = taint
                    elif tmap:
                        for i in range(size):
                            a = a0 + i
                            data[a] = (value >> (8 * i)) & 0xFF
                            tmap.pop(a, None)
                    else:
                        for i in range(size):
                            data[a0 + i] = (value >> (8 * i)) & 0xFF
                    return
        for i in range(size):
            self.write_byte(addr + i, (value >> (8 * i)) & 0xFF, taint)

    def read_u32(self, addr: int) -> Tuple[int, TagSet]:
        return self.read_span(addr, 4)

    def write_u32(self, addr: int, value: int, taint: TagSet = EMPTY) -> None:
        self.write_span(addr, value, 4, taint)

    # -- bulk helpers (used by loader and the API layer) -------------------

    def write_bytes(self, addr: int, data: bytes, taint: TagSet = EMPTY) -> None:
        a0 = addr & 0xFFFFFFFF
        last = a0 + len(data) - 1
        if data and last <= 0xFFFFFFFF:
            for start, end in self._regions:
                if start <= a0 and last < end:
                    store = self._bytes
                    tmap = self._taint
                    if taint:
                        for i, b in enumerate(data):
                            store[a0 + i] = b
                            tmap[a0 + i] = taint
                    elif tmap:
                        for i, b in enumerate(data):
                            store[a0 + i] = b
                            tmap.pop(a0 + i, None)
                    else:
                        for i, b in enumerate(data):
                            store[a0 + i] = b
                    return
        for i, b in enumerate(data):
            self.write_byte(addr + i, b, taint)

    def write_bytes_tainted(
        self, addr: int, data: bytes, taints: List[TagSet]
    ) -> None:
        """Write bytes each with its own tag set (string taint transfer).

        Equivalent to a ``write_byte`` loop over ``zip(data, taints)``: a
        span inside one region is stored in one pass (stale taint replaced
        or dropped), anything else walks byte by byte so earlier bytes stay
        written when a later one faults."""
        size = min(len(data), len(taints))
        a0 = addr & 0xFFFFFFFF
        last = a0 + size - 1
        if size and last <= 0xFFFFFFFF:
            for start, end in self._regions:
                if start <= a0 and last < end:
                    store = self._bytes
                    tmap = self._taint
                    for i in range(size):
                        a = a0 + i
                        store[a] = data[i]
                        t = taints[i]
                        if t:
                            tmap[a] = t
                        elif tmap:
                            tmap.pop(a, None)
                    return
        for i in range(size):
            self.write_byte(addr + i, data[i], taints[i])

    def read_bytes(self, addr: int, size: int) -> bytes:
        a0 = addr & 0xFFFFFFFF
        last = a0 + size - 1
        if size and last <= 0xFFFFFFFF:
            for start, end in self._regions:
                if start <= a0 and last < end:
                    data = self._bytes
                    return bytes(data.get(a0 + i, 0) for i in range(size))
        return bytes(self.read_byte(addr + i)[0] for i in range(size))

    def read_cstring(
        self, addr: int, max_len: int = 4096
    ) -> Tuple[str, List[TagSet]]:
        """Read a NUL-terminated ASCII string and its per-byte taint.

        API argument decoding reads strings constantly, so the cursor's
        region is found once and the scan runs inside it; only leaving that
        region (into an adjacent one, onto an unmapped byte, or across the
        2^32 wrap) looks the next one up.  Fault order is the byte loop's:
        the first unmapped byte raises."""
        raw = bytearray()
        get = self._bytes.get
        i = 0
        while i < max_len:
            a = (addr + i) & 0xFFFFFFFF
            for lo, hi in self._regions:
                if lo <= a < hi:
                    break
            else:
                raise MemoryFault(a)
            stop = a + min(hi - a, max_len - i)
            for b in range(a, stop):
                byte = get(b, 0)
                if byte == 0:
                    return self._cstring_result(addr, raw)
                raw.append(byte)
            i += stop - a
        return self._cstring_result(addr, raw)

    def _cstring_result(self, addr: int, raw: bytearray) -> Tuple[str, List[TagSet]]:
        taint = self._taint
        if taint:
            taints = [taint.get((addr + i) & 0xFFFFFFFF, EMPTY) for i in range(len(raw))]
        else:
            taints = [EMPTY] * len(raw)
        return raw.decode("latin-1"), taints

    def write_cstring(
        self, addr: int, text: str, taints: Optional[List[TagSet]] = None
    ) -> None:
        data = text.encode("latin-1", errors="replace")
        if taints is None:
            self.write_bytes(addr, data + b"\x00")
        else:
            self.write_bytes_tainted(addr, data, taints)
            self.write_byte(addr + len(data), 0)

    def taint_of_range(self, addr: int, size: int) -> TagSet:
        return union(*(self.read_byte(addr + i)[1] for i in range(size)))
