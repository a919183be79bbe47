"""The complete simulated machine: identity + all resource namespaces.

A :class:`SystemEnvironment` is what a vaccine immunizes.  It owns every
resource namespace, the machine identity (computer name, volume serial, IP —
the deterministic seeds algorithm-deterministic identifiers derive from) and a
seeded RNG that backs the "random" APIs (``GetTickCount``,
``GetTempFileName`` …) so whole runs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .acl import IntegrityLevel
from .filesystem import FileSystem
from .libraries import LibraryManager
from .mutexes import MutexNamespace
from .network import Network
from .processes import Process, ProcessTable
from .registry import Registry
from .services import ServiceManager
from .windows_gui import WindowManager


@dataclass(frozen=True)
class MachineIdentity:
    """Stable per-machine inputs for algorithm-deterministic identifiers."""

    computer_name: str = "WORKSTATION-01"
    user_name: str = "alice"
    volume_serial: int = 0x1CAFE042
    ip_address: str = "192.168.1.77"
    windows_version: str = "5.1.2600"  # XP SP3, the paper's era


#: The name → resource namespaces, as ``(attribute, class)`` in one fixed
#: order.  Each class copies itself through the shared
#: :class:`~repro.winenv.objects.ResourceTable` codec;
#: :meth:`SystemEnvironment.clone` and
#: :class:`~repro.winenv.snapshot.EnvSnapshot` walk this list.
RESOURCE_TABLES = (
    ("filesystem", FileSystem),
    ("registry", Registry),
    ("mutexes", MutexNamespace),
    ("services", ServiceManager),
    ("windows", WindowManager),
    ("libraries", LibraryManager),
)


class SystemEnvironment:
    """A full simulated Windows machine.

    ``rng_seed`` drives the non-deterministic APIs; two environments built
    with different seeds give different ``GetTickCount``/temp-name streams,
    which is exactly what determinism analysis must see through.
    """

    def __init__(
        self,
        identity: Optional[MachineIdentity] = None,
        rng_seed: int = 0xA07C,
    ) -> None:
        self.identity = identity or MachineIdentity()
        self.rng_seed = rng_seed
        self.rng = random.Random(rng_seed)
        self.filesystem = FileSystem()
        self.registry = Registry()
        self.mutexes = MutexNamespace()
        self.processes = ProcessTable()
        self.services = ServiceManager()
        self.windows = WindowManager()
        self.libraries = LibraryManager()
        self.network = Network()
        #: Interceptors every new Dispatcher attaches (the vaccine daemon
        #: registers here so it sees all processes' API calls).
        self.global_interceptors: list = []
        self._tick = 0x0001_0000 + (rng_seed & 0xFFFF)

    def __getattr__(self, name: str):
        # Restored environments (EnvSnapshot.restore) defer the RNG:
        # rebuilding a Mersenne state costs microseconds per resume and many
        # resumed runs never draw randomness.  Materialize on first access —
        # this only fires when ``rng`` is absent from the instance dict, so
        # normally-constructed environments never pay for it.
        if name == "rng":
            state = self.__dict__.pop("_rng_state", None)
            if state is not None:
                rng = random.Random.__new__(random.Random)
                rng.setstate(state)
                self.rng = rng
                return rng
        raise AttributeError(name)

    # -- clocks / entropy --------------------------------------------------

    def tick_count(self) -> int:
        """Monotonic millisecond counter (deterministic per seed)."""
        self._tick += self.rng.randrange(1, 50)
        return self._tick & 0xFFFFFFFF

    def performance_counter(self) -> int:
        return (self.tick_count() * 2501 + self.rng.randrange(0, 1 << 16)) & 0xFFFFFFFF

    def random_u32(self) -> int:
        return self.rng.randrange(0, 1 << 32)

    def temp_file_name(self, prefix: str = "tmp") -> str:
        from .filesystem import TEMP_DIR

        return f"{TEMP_DIR}\\{prefix}{self.random_u32() & 0xFFFF:04x}.tmp"

    # -- process helpers -----------------------------------------------------

    def spawn_process(
        self,
        name: str,
        image_path: str = "",
        integrity: IntegrityLevel = IntegrityLevel.LOW,
        parent_pid: Optional[int] = None,
    ) -> Process:
        """Spawn a guest process (malware defaults to LOW integrity —
        the paper's "common case at the initial infection stage")."""
        return self.processes.spawn(
            name, image_path=image_path, integrity=integrity, parent_pid=parent_pid
        )

    # -- snapshots -------------------------------------------------------------

    def snapshot(self, process: Process) -> "object":
        """Structured mid-run capture of this machine plus ``process``.

        Unlike :meth:`clone` — which restarts the RNG, the tick counter,
        the process table and the network for a *fresh* run — the returned
        :class:`~repro.winenv.snapshot.EnvSnapshot` freezes the machine
        exactly as it stands (RNG mid-sequence, tick counter, handle tables,
        open connections) so each ``restore()`` resumes where this run was.
        The resource tables are copied the same way in both: one image copy
        per resource (:class:`~repro.winenv.objects.ResourceTable`).
        """
        from .snapshot import EnvSnapshot

        return EnvSnapshot.capture(self, process)

    def clone(self) -> "SystemEnvironment":
        """Copy the machine so repeated runs start identically.

        Every resource table is copied resource by resource (independent
        objects, shared frozen ACLs).  The clone restarts the RNG and tick
        counter from the original seed, its processes start with empty
        handle tables, and its network has no connections or traffic:
        re-running the same program in a cloned environment reproduces the
        same trace, which trace alignment (and impact analysis) depends on.
        """
        other = SystemEnvironment.__new__(SystemEnvironment)
        other.identity = self.identity
        other.rng_seed = self.rng_seed
        other.rng = random.Random(self.rng_seed)
        for name, _table in RESOURCE_TABLES:
            setattr(other, name, getattr(self, name).clone())
        other.processes = self.processes.clone()
        other.network = self.network.clone()
        other.global_interceptors = list(self.global_interceptors)
        other._tick = 0x0001_0000 + (self.rng_seed & 0xFFFF)
        return other
