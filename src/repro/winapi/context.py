"""Per-call API execution context.

Wraps the CPU + environment + process for one API invocation, giving
implementations typed access to guest memory (with def/use recording so API
pseudo-steps slot into the backward-slicing trace) and to taint minting.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..taint.labels import EMPTY, TagSet, TaintClass, TaintTag, union
from ..vm.memory import MemoryFault
from ..winenv.environment import SystemEnvironment
from ..winenv.errors import ResourceFault, Win32Error
from ..winenv.objects import Handle, HandleKind, Resource
from ..winenv.processes import Process


class ApiContext:
    """Everything an API implementation needs for one invocation.

    The helpers serve recorded and unrecorded runs alike: guest bytes move
    through the memory's block accessors (each equivalent to a byte loop,
    fault order included), and the byte-level def/use records a backward
    slice needs are appended only when ``cpu.def_use`` is set.  Taint is
    minted only on a recorded run (``cpu.record_instructions``,
    :meth:`mint_tag`), so on an unrecorded run every tag the helpers see is
    empty."""

    __slots__ = (
        "cpu",
        "env",
        "process",
        "apidef",
        "event_id",
        "args",
        "arg_taints",
        "identifier",
        "identifier_taints",
        "extra",
        "retval_taint",
        "operation_override",
        "explicit_last_error",
    )

    def __init__(
        self,
        cpu,
        environment: SystemEnvironment,
        process: Process,
        apidef,
        event_id: int,
    ) -> None:
        self.cpu = cpu
        self.env = environment
        self.process = process
        self.apidef = apidef
        self.event_id = event_id
        #: Filled by the dispatcher before the impl runs.
        self.args: List[int] = []
        self.arg_taints: List[TagSet] = []
        #: Resolved resource identifier (set by dispatcher when labelled).
        self.identifier: Optional[str] = None
        self.identifier_taints: Optional[List[TagSet]] = None
        #: Implementation-set extras copied onto the event.
        self.extra: dict = {}
        #: Taint to place on the return value (defaults to the minted tag).
        self.retval_taint: TagSet = EMPTY
        #: Implementations may refine the labelled operation (e.g. CreateFile
        #: is CREATE or READ depending on its disposition argument).
        self.operation_override = None
        #: True once an implementation set last-error itself (e.g.
        #: CreateMutex's ERROR_ALREADY_EXISTS on success).
        self.explicit_last_error = False

    # -- taint ----------------------------------------------------------------

    def mint_tag(self, klass: Optional[TaintClass] = None) -> TagSet:
        """The only place taint is created.  An unrecorded run has no
        consumer for it, so it stays taint-free."""
        klass = klass or self.apidef.taint_class
        if klass is None or not self.cpu.record_instructions:
            return EMPTY
        return frozenset({TaintTag(self.event_id, self.apidef.name, klass)})

    # -- argument access --------------------------------------------------------

    def arg(self, index: int) -> int:
        """Argument value; beyond the pre-read ones, reads the guest stack."""
        while index >= len(self.args):
            value, taint = self.cpu.stack_arg(len(self.args))
            self.args.append(value)
            self.arg_taints.append(taint)
        return self.args[index]

    def prefetch_args(self, argc: int) -> None:
        """Batch-read the declared arguments (dispatcher pre-read path).

        Equivalent to ``arg(0..argc-1)`` — same values, taints, and stack
        use records — via one block read instead of one per slot."""
        if not self.args:
            self.args, self.arg_taints = self.cpu.read_stack_args(argc)
        elif argc > 0:
            self.arg(argc - 1)

    def arg_taint(self, index: int) -> TagSet:
        self.arg(index)
        return self.arg_taints[index]

    # -- guest memory -----------------------------------------------------------

    def read_string(self, addr: int, max_len: int = 4096) -> Tuple[str, List[TagSet]]:
        """Read a NUL-terminated guest string and per-*character* taints.

        Guest bytes are UTF-8 (what :meth:`write_string` produces): a
        multi-byte character's taint is the union of its bytes' taints, so
        a write/read round trip preserves both the text — non-latin-1
        identifiers included — and its taint shape.  Bytes that are not
        valid UTF-8 (guest-constructed buffers) survive via surrogateescape
        instead of being mangled, keeping the round trip an identity there
        too.  Use records stay byte-level, matching memory."""
        if addr == 0:
            return "", []
        try:
            raw_text, byte_taints = self.cpu.memory.read_cstring(addr, max_len)
        except MemoryFault:
            # A bogus guest pointer is the API's problem, not the host's:
            # real APIs validate and fail gracefully.
            return "", []
        if self.cpu.def_use:
            self.cpu._uses.extend(("mem", addr + i) for i in range(len(raw_text) + 1))
        if raw_text.isascii():
            # One byte per character: byte taints are character taints.
            return raw_text, byte_taints
        raw = raw_text.encode("latin-1")  # exact bytes back from read_cstring
        text = raw.decode("utf-8", "surrogateescape")
        taints: List[TagSet] = []
        pos = 0
        for ch in text:
            width = len(ch.encode("utf-8", "surrogateescape"))
            live = [t for t in byte_taints[pos : pos + width] if t]
            taints.append(union(*live) if live else EMPTY)
            pos += width
        return text, taints

    def read_string_arg(self, index: int) -> Tuple[str, List[TagSet]]:
        return self.read_string(self.arg(index))

    def write_string(self, addr: int, text: str, taints=None, taint: TagSet = EMPTY) -> None:
        """Write ``text`` as NUL-terminated UTF-8 guest bytes.

        ``taints`` is per *character* (matching what :meth:`read_string`
        returns); each character's taint is expanded over every byte of its
        encoding.  Def records stay byte-level, matching memory."""
        if taints is None:
            data = text.encode("utf-8", "surrogateescape") + b"\x00"
            if taint:
                byte_taints = [taint] * (len(data) - 1)
        elif text.isascii():
            data = text.encode("ascii") + b"\x00"
            byte_taints = list(taints[: len(text)])
            byte_taints.extend([EMPTY] * (len(text) - len(byte_taints)))
        else:
            data = bytearray()
            byte_taints = []
            for i, ch in enumerate(text):
                t = taints[i] if i < len(taints) else EMPTY
                encoded = ch.encode("utf-8", "surrogateescape")
                data += encoded
                byte_taints.extend([t] * len(encoded))
            data.append(0)
        if taints is None and not taint:
            self.cpu.memory.write_bytes(addr, data)
        else:
            byte_taints.append(EMPTY)  # the terminator is untainted
            self.cpu.memory.write_bytes_tainted(addr, data, byte_taints)
        if self.cpu.def_use:
            self.cpu._defs.extend(("mem", addr + i) for i in range(len(data)))

    def read_u32(self, addr: int) -> int:
        value, _ = self.cpu.read_mem(addr, 4)
        return value

    def write_u32(self, addr: int, value: int, taint: TagSet = EMPTY) -> None:
        self.cpu.write_mem(addr, value, 4, taint)

    def read_buffer(self, addr: int, size: int) -> bytes:
        data = self.cpu.memory.read_bytes(addr, size)
        if self.cpu.def_use:
            self.cpu._uses.extend(("mem", addr + i) for i in range(size))
        return data

    def write_buffer(self, addr: int, data: bytes, taint: TagSet = EMPTY) -> None:
        self.cpu.memory.write_bytes(addr, data, taint)
        if self.cpu.def_use:
            self.cpu._defs.extend(("mem", addr + i) for i in range(len(data)))

    def read_buffer_taints(self, addr: int, size: int) -> List[TagSet]:
        return [self.cpu.memory.read_byte(addr + i)[1] for i in range(size)]

    # -- handles ------------------------------------------------------------------

    def alloc_handle(self, kind: HandleKind, resource: Optional[Resource]) -> Handle:
        handle = self.process.handles.allocate(kind, resource)
        handle.state["opened_by_event"] = self.event_id
        return handle

    def handle(self, value: int) -> Handle:
        handle = self.process.handles.get(value)
        if handle is None:
            raise ResourceFault(Win32Error.INVALID_HANDLE, f"handle 0x{value:x}")
        return handle

    def handle_arg(self, index: int) -> Handle:
        return self.handle(self.arg(index))

    # -- misc -----------------------------------------------------------------------

    def set_last_error(self, error: int, tag: TagSet = EMPTY) -> None:
        self.explicit_last_error = True
        self.process.last_error = int(error)
        # Remember provenance so GetLastError() returns tainted data.
        self.process.__dict__["last_error_tag"] = tag

    @property
    def integrity(self):
        return self.process.integrity
