"""Process table for the simulated environment.

Processes matter to AUTOVAC in two ways: they are resources malware enumerates
and injects into (Type-IV partial immunization targets ``explorer.exe`` /
``svchost.exe``), and every guest program executes *as* a process carrying its
integrity level, ``GetLastError`` slot and handle table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .acl import Acl, IntegrityLevel, open_acl
from .errors import ResourceFault, Win32Error
from .objects import HandleTable, Resource, ResourceType

#: Benign processes present on a standard machine (injection targets).
#: explorer.exe and svchost.exe run in the user session (medium integrity,
#: the usual injection targets); the rest are SYSTEM.
STANDARD_PROCESSES = (
    "explorer.exe",
    "svchost.exe",
    "winlogon.exe",
    "services.exe",
    "lsass.exe",
)
_SESSION_PROCESSES = frozenset({"explorer.exe", "svchost.exe"})


@dataclass
class RemoteWrite:
    """Record of a cross-process memory write (process-injection evidence)."""

    writer_pid: int
    size: int


@dataclass
class Process(Resource):
    """A running process; guest programs execute inside one of these."""

    pid: int = 0
    image_path: str = ""
    integrity: IntegrityLevel = IntegrityLevel.MEDIUM
    last_error: int = 0
    alive: bool = True
    exit_code: Optional[int] = None
    handles: HandleTable = field(default_factory=HandleTable)
    remote_writes: List[RemoteWrite] = field(default_factory=list)
    remote_threads: List[int] = field(default_factory=list)  # creator pids
    parent_pid: Optional[int] = None

    def __init__(
        self,
        pid: int,
        name: str,
        image_path: str = "",
        integrity: IntegrityLevel = IntegrityLevel.MEDIUM,
        acl: Optional[Acl] = None,
        parent_pid: Optional[int] = None,
    ) -> None:
        super().__init__(name=name.lower(), rtype=ResourceType.PROCESS, acl=acl or open_acl())
        self.pid = pid
        self.image_path = image_path or name.lower()
        self.integrity = integrity
        self.last_error = 0
        self.alive = True
        self.exit_code = None
        self.handles = HandleTable()
        self.remote_writes = []
        self.remote_threads = []
        self.parent_pid = parent_pid

    def terminate(self, exit_code: int = 0) -> None:
        self.alive = False
        self.exit_code = exit_code

    @property
    def was_injected(self) -> bool:
        return bool(self.remote_writes or self.remote_threads)


class ProcessTable:
    """Environment-global process table, pre-seeded with standard processes."""

    def __init__(self) -> None:
        # Plain int, not itertools.count: snapshot/restore re-seeds the
        # counter position so resumed runs hand out the same pids a full
        # rerun would (terminated processes still consumed pids).
        self._next_pid = 1000
        self._procs: Dict[int, Process] = {}
        for name in STANDARD_PROCESSES:
            level = (
                IntegrityLevel.MEDIUM if name in _SESSION_PROCESSES else IntegrityLevel.SYSTEM
            )
            self.spawn(name, integrity=level)

    def spawn(
        self,
        name: str,
        image_path: str = "",
        integrity: IntegrityLevel = IntegrityLevel.MEDIUM,
        parent_pid: Optional[int] = None,
    ) -> Process:
        pid = self._next_pid
        self._next_pid += 4
        proc = Process(pid, name, image_path=image_path, integrity=integrity, parent_pid=parent_pid)
        self._procs[pid] = proc
        return proc

    def get(self, pid: int) -> Optional[Process]:
        return self._procs.get(pid)

    def find_by_name(self, name: str) -> Optional[Process]:
        wanted = name.lower()
        for proc in self._procs.values():
            if proc.name == wanted and proc.alive:
                return proc
        return None

    def open(self, pid: int) -> Process:
        proc = self._procs.get(pid)
        if proc is None or not proc.alive:
            raise ResourceFault(Win32Error.INVALID_PARAMETER, f"pid {pid}")
        return proc

    def alive_processes(self) -> List[Process]:
        return [p for p in self._procs.values() if p.alive]

    def __iter__(self) -> Iterator[Process]:
        return iter(self._procs.values())

    def __len__(self) -> int:
        return len(self._procs)

    def clone(self) -> "ProcessTable":
        other = ProcessTable.__new__(ProcessTable)
        other._next_pid = 5000
        other._procs = {}
        for pid, proc in self._procs.items():
            copy = Process(
                pid,
                proc.name,
                image_path=proc.image_path,
                integrity=proc.integrity,
                acl=proc.acl,
                parent_pid=proc.parent_pid,
            )
            copy.alive = proc.alive
            copy.exit_code = proc.exit_code
            other._procs[pid] = copy
        return other

    # -- structured snapshot/restore --------------------------------------

    def snapshot_state(self, rid_of: Callable[[Resource], int]) -> Tuple:
        """Plain-data image of every process *including* its handle table,
        last-error slot and injection evidence — everything ``clone()``
        deliberately drops because it rebuilds from scratch.  ``RemoteWrite``
        records are append-only, so the images share them by reference.

        Returns ``(next_pid, rids, pairs, handle_states)``: the pid counter,
        each process's id-map rid, its pid with its frozen image, and its
        handle table's image, in table order."""
        procs = self._procs
        pairs = []
        for pid, proc in procs.items():
            attrs = dict(vars(proc))
            attrs["handles"] = None  # rebuilt by restore_state's handle pass
            attrs["remote_writes"] = tuple(proc.remote_writes)
            attrs["remote_threads"] = tuple(proc.remote_threads)
            pairs.append((pid, attrs))
        return (
            self._next_pid,
            tuple(map(rid_of, procs.values())),
            tuple(pairs),
            tuple(proc.handles.snapshot_state(rid_of) for proc in procs.values()),
        )

    @classmethod
    def restore_state(cls, state: Tuple, objs: Dict[int, Resource]) -> "ProcessTable":
        """Rebuild the table, enter each process into ``objs`` under its
        rid, then rebuild every handle table.

        The handle tables come last: a PROCESS handle may reference another
        process, so their rids resolve only once every process — and every
        resource and orphan the caller entered before — is in ``objs``.
        """
        next_pid, rids, pairs, handle_states = state
        table = cls.__new__(cls)
        table._next_pid = next_pid
        table._procs = procs = {}
        new = Process.__new__
        for pid, attrs in pairs:
            # ``__new__`` plus one dict copy, like the resource tables'
            # image rebuild (objects.thaw_images); the injection lists are
            # the only mutable payloads.
            proc = new(Process)
            d = dict(attrs)
            d["remote_writes"] = list(attrs["remote_writes"])
            d["remote_threads"] = list(attrs["remote_threads"])
            proc.__dict__ = d
            procs[pid] = proc
        objs.update(zip(rids, procs.values()))
        handles = HandleTable.restore_all(handle_states, objs.__getitem__)
        for proc, proc_handles in zip(procs.values(), handles):
            proc.handles = proc_handles
        return table
