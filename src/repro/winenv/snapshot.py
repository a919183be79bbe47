"""Structured environment snapshots (the pickle-free resume path).

Phase-II impact analysis checkpoints the guest at each candidate's first
interception site and resumes once per candidate × mechanism.  Each resume
rebuilds the machine from a plain-data capture walked once at snapshot time
(a pickle round-trip of ``(environment, process)`` cost 7–14% of per-sample
self-time):

* every resource gets an integer **rid** from an id-map keyed on object
  identity, and handle specs reference resources by rid — so two handles to
  the same resource object still share one object after restore, and a
  handle to a *deleted* resource (an orphan: a file removed while a handle
  was open, or a phantom handle fabricated by ``FORCE_SUCCESS``) keeps its
  identity through an orphan row ``(rid, type, image)``;
* each resource is captured as its ``__dict__`` image with its mutable
  payloads — file content and registry values (the ``MUTABLE`` attributes
  their classes declare), a process's injection evidence, a handle's
  state — frozen to immutable forms, because the capture run keeps
  executing and mutating the live environment afterwards;
* effectively-immutable records — frozen ACLs, ``RemoteWrite`` /
  ``TrafficRecord`` rows, the machine identity — are shared by reference,
  and interceptor *objects* are shared exactly like
  :meth:`SystemEnvironment.clone` shares them;
* the RNG is captured **mid-sequence** via ``random.getstate()`` (an
  immutable tuple, shared across restores) so resumed runs draw the same
  tick/temp-name stream a full rerun would at that point.

The six resource tables (:data:`~repro.winenv.environment.RESOURCE_TABLES`)
capture and rebuild through the :class:`~repro.winenv.objects.ResourceTable`
codec, the same image copy ``SystemEnvironment.clone`` uses: ``__new__``
plus one dict copy per resource.  Tables none of whose rows a guest handle
references (recorded per capture in :attr:`EnvSnapshot.eager`) defer even
that until the first access, so a resumed run pays only for the namespaces
it touches.  The process table and the network keep their own images,
because their clones reset state a resume must keep (handle tables, pids,
open connections, traffic).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .environment import RESOURCE_TABLES, MachineIdentity, SystemEnvironment
from .network import Network
from .objects import Resource, freeze_image, restore_tables, thaw_images
from .processes import Process, ProcessTable

#: Fault injection for chaos testing: when set to N (via the environment at
#: import time), every Nth restore raises — the survey must degrade that
#: candidate to a legacy full rerun, never abort.  Restores are counted per
#: capture run (:attr:`EnvSnapshot.restores`), not per process, so the same
#: candidate-mechanisms degrade whichever worker analyzes the sample.
_FAULT_EVERY = int(os.environ.get("REPRO_FAULT_ENV_RESTORE", "0") or 0)


class _IdMap:
    """Object-identity → rid assignment for one capture walk.

    The environment keeps every captured object alive for the duration of
    the walk, so ``id()`` keys cannot be recycled mid-capture.
    """

    __slots__ = ("_rids", "objects")

    def __init__(self) -> None:
        self._rids: Dict[int, int] = {}
        self.objects: list = []

    def rid(self, obj: Resource) -> int:
        key = id(obj)
        r = self._rids.get(key)
        if r is None:
            r = len(self.objects)
            self._rids[key] = r
            self.objects.append(obj)
        return r


@dataclass(frozen=True)
class EnvSnapshot:
    """One structured capture of a machine plus its guest process.

    Every field is plain data (tuples of immutables, shared frozen records),
    so :meth:`restore` can be called any number of times and each call
    yields an independent ``(environment, process)`` pair.
    """

    identity: MachineIdentity
    rng_seed: int
    rng_state: tuple
    tick: int
    interceptors: tuple
    #: One :meth:`ResourceTable.snapshot_state` image per resource table,
    #: in ``RESOURCE_TABLES`` order.
    tables: tuple
    network: tuple
    processes: tuple
    orphans: tuple
    main_pid: int
    #: Restores so far, for the ``REPRO_FAULT_ENV_RESTORE`` plan: one
    #: counter shared by every snapshot its capture run took.
    restores: List[int] = field(compare=False, repr=False)
    #: Per-table eager-restore flags, in ``RESOURCE_TABLES`` order
    #: (filesystem, registry, mutexes, services, windows, libraries).  A
    #: table is eager only when some guest handle references one of its
    #: rows (handle identity must hold immediately); everything else is
    #: rebuilt lazily on first access — resumed runs that never touch a
    #: namespace never pay for it.
    eager: tuple = (True,) * len(RESOURCE_TABLES)

    @classmethod
    def capture(
        cls,
        environment: SystemEnvironment,
        process: Process,
        restores: Optional[List[int]] = None,
    ) -> "EnvSnapshot":
        """Capture the machine; snapshots of one capture run pass the same
        ``restores`` counter (default: a fresh one)."""
        idmap = _IdMap()
        rid = idmap.rid
        tables = tuple(
            getattr(environment, name).snapshot_state(rid)
            for name, _table in RESOURCE_TABLES
        )
        proc_state = environment.processes.snapshot_state(rid)

        # Any rid assigned during the walk that no table row claims was
        # reached only through a handle: an orphan (deleted-but-open node,
        # phantom resource).  Captured inline so shared orphans keep identity.
        owned = set(proc_state[1])
        for rids, _pairs in tables:
            owned.update(rids)
        orphans = tuple(
            (r, type(obj), freeze_image(obj))
            for r, obj in enumerate(idmap.objects)
            if r not in owned
        )

        # Rids some guest handle references must be rebuilt eagerly at
        # restore time (the handle pass resolves them by rid); a table
        # none of whose rows are handle-referenced can defer its rebuild.
        referenced = {
            hrid
            for _next, handle_rows in proc_state[3]
            for hrid, _attrs in handle_rows
            if hrid is not None
        }
        eager = tuple(not referenced.isdisjoint(rids) for rids, _pairs in tables)

        return cls(
            identity=environment.identity,
            rng_seed=environment.rng_seed,
            rng_state=environment.rng.getstate(),
            tick=environment._tick,
            interceptors=tuple(environment.global_interceptors),
            tables=tables,
            network=environment.network.snapshot_state(),
            processes=proc_state,
            orphans=orphans,
            main_pid=process.pid,
            eager=eager,
            restores=[0] if restores is None else restores,
        )

    def restore(self) -> Tuple[SystemEnvironment, Process]:
        """Rebuild a fresh ``(environment, process)`` pair from the rows."""
        if _FAULT_EVERY:
            self.restores[0] += 1
            if self.restores[0] % _FAULT_EVERY == 0:
                raise RuntimeError(
                    f"injected environment-restore fault (every {_FAULT_EVERY})"
                )

        objs: Dict[int, Resource] = {}
        state = {
            "identity": self.identity,
            "rng_seed": self.rng_seed,
            # No ``rng`` key: SystemEnvironment.__getattr__ materializes it
            # from ``_rng_state`` on the first draw — many resumed runs
            # never draw randomness at all.
            "_rng_state": self.rng_state,
            "network": Network.restore_state(self.network),
            "global_interceptors": list(self.interceptors),
            "_tick": self.tick,
        }
        # Only handle-referenced tables rebuild now; the rest defer to
        # first access.  Orphans come next, and the process table last:
        # its handle pass resolves rids from all of them.
        restore_tables(state, RESOURCE_TABLES, self.tables, self.eager, objs)
        for rid, cls, image in self.orphans:
            objs.update(thaw_images(cls, ((rid, image),)))
        state["processes"] = processes = ProcessTable.restore_state(self.processes, objs)
        env = SystemEnvironment.__new__(SystemEnvironment)
        env.__dict__ = state
        return env, processes.get(self.main_pid)


__all__ = ["EnvSnapshot"]
