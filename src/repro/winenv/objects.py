"""Base classes for named system resources and the handle table.

Everything AUTOVAC observes — files, registry keys, mutexes, processes,
services, GUI windows, libraries — is a *named resource* that guest programs
reach through handles returned by the API layer.  The paper's vaccine
identifier is exactly ``(resource type, identifier)``, so the base class keeps
both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Iterable, Iterator, List, Optional, Tuple

from .acl import Acl, open_acl


class ResourceType(enum.Enum):
    """The seven resource categories the paper's evaluation covers (§VI-B)."""

    FILE = "file"
    REGISTRY = "registry"
    MUTEX = "mutex"
    PROCESS = "process"
    SERVICE = "service"
    WINDOW = "window"
    LIBRARY = "library"
    NETWORK = "network"  # propagation substrate only; never a vaccine itself


class Operation(enum.Enum):
    """Resource operations tallied by Phase I (Figure 3 axes)."""

    CREATE = "create"
    READ = "read"          # read/open in the paper's figure
    WRITE = "write"
    DELETE = "delete"
    EXECUTE = "execute"
    CHECK = "check"        # existence check (paper Table III symbol E)


@dataclass
class Resource:
    """A named system resource with an ACL.

    ``identifier`` is the canonical name used for vaccine extraction
    (lower-cased path for files/registry, verbatim name for mutexes etc.).
    """

    name: str
    rtype: ResourceType
    acl: Acl = field(default_factory=open_acl)
    created_by: Optional[int] = None   # pid of the creating process, if any

    #: Attributes holding mutable payloads, as ``(name, freeze, thaw)``:
    #: ``freeze`` turns the live value into the immutable form a snapshot
    #: image keeps, ``thaw`` makes a fresh live value from either form.
    #: Every other attribute is immutable or a frozen record (the ACL) and
    #: is shared between copies.
    MUTABLE: ClassVar[Tuple[Tuple[str, Callable, Callable], ...]] = ()

    @property
    def identifier(self) -> str:
        return self.name

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.rtype.value}:{self.name}>"


def freeze_image(res: Resource) -> dict:
    """Immutable ``__dict__`` image of ``res``: the capture run keeps
    mutating the live resource after a snapshot takes its image."""
    attrs = dict(res.__dict__)
    for name, freeze, _thaw in res.MUTABLE:
        attrs[name] = freeze(attrs[name])
    return attrs


def thaw_images(cls: type, pairs: Iterable[Tuple[object, dict]]) -> dict:
    """``key → cls`` instance rebuilt from each ``(key, image)`` pair.

    An image is a frozen snapshot row or a live resource's ``__dict__``;
    either way the rebuild is ``__new__`` plus one dict copy, with the
    class's ``MUTABLE`` payloads thawed into fresh copies, and the image
    itself is never mutated.  Constructors are skipped: they would only
    re-derive what the image already holds (normalized names, defaulted
    ACLs, the derived ``is_kernel_driver`` flag).
    """
    new = cls.__new__
    mutable = cls.MUTABLE
    out = {}
    if mutable:
        for key, attrs in pairs:
            obj = new(cls)
            d = dict(attrs)
            for name, _freeze, thaw in mutable:
                d[name] = thaw(attrs[name])
            obj.__dict__ = d
            out[key] = obj
    else:
        # Most resource classes have no mutable payload; they skip the
        # per-resource payload loop (clones and restores are hot paths).
        for key, attrs in pairs:
            obj = new(cls)
            obj.__dict__ = dict(attrs)
            out[key] = obj
    return out


class ResourceTable:
    """A name → resource namespace and its copy codec.

    Subclasses set ``_TABLE``, the attribute holding the dict, and
    ``_ITEM``, the resource class stored in it.  Every copy of a table goes
    through :func:`thaw_images`:

    * :meth:`clone` — an independent copy of the live table;
    * :meth:`snapshot_state` — a plain-data image for
      :class:`~repro.winenv.snapshot.EnvSnapshot`, rebuilt by
      :func:`restore_tables` either at once or, for a namespace no guest
      handle references, on the first access to ``_TABLE``.
    """

    _TABLE: ClassVar[str]
    _ITEM: ClassVar[type]

    def clone(self) -> "ResourceTable":
        table = getattr(self, self._TABLE)
        other = object.__new__(type(self))
        setattr(
            other,
            self._TABLE,
            thaw_images(self._ITEM, zip(table, map(vars, table.values()))),
        )
        return other

    def snapshot_state(self, rid_of: Callable[[Resource], int]) -> Tuple:
        """``(rids, pairs)``: each resource's id-map rid, and its key with
        its frozen image, in table order."""
        table = getattr(self, self._TABLE)
        return (
            tuple(map(rid_of, table.values())),
            tuple((key, freeze_image(res)) for key, res in table.items()),
        )

    def __getattr__(self, name: str):
        # Fires only while ``_TABLE`` is absent from the instance dict,
        # i.e. on a lazily restored table's first access.
        if name == self._TABLE:
            image = self.__dict__.pop("_lazy_rows", None)
            if image is not None:
                table = thaw_images(self._ITEM, image[1])
                setattr(self, name, table)
                return table
        raise AttributeError(name)


def restore_tables(
    state: Dict[str, object],
    tables: Iterable[Tuple[str, type]],
    images: Iterable[Tuple],
    eager: Iterable[bool],
    objs: Dict[int, Resource],
) -> None:
    """Enter into ``state`` (a machine's attribute dict) one table per
    ``(name, class)`` in ``tables``, rebuilt from its
    :meth:`ResourceTable.snapshot_state` image.

    An eager table is rebuilt now and each of its resources entered into
    ``objs`` under its rid, for the handle pass that follows.  Any other
    table keeps only its image until the first access to its ``_TABLE``,
    so a resumed run that never touches the namespace never pays for it.
    """
    new = object.__new__
    for (name, cls), image, now in zip(tables, images, eager):
        state[name] = table = new(cls)
        if now:
            rids, pairs = image
            items = thaw_images(cls._ITEM, pairs)
            objs.update(zip(rids, items.values()))
            setattr(table, cls._TABLE, items)
        else:
            table._lazy_rows = image


class HandleKind(enum.Enum):
    """What a guest handle refers to."""

    FILE = "file"
    REGISTRY = "registry"
    MUTEX = "mutex"
    PROCESS = "process"
    THREAD = "thread"
    SERVICE = "service"
    SCMANAGER = "scmanager"
    WINDOW = "window"
    LIBRARY = "library"
    SOCKET = "socket"
    INTERNET = "internet"


@dataclass
class Handle:
    """A per-process handle entry mapping a small integer to a resource."""

    value: int
    kind: HandleKind
    resource: Optional[Resource]
    #: Position of the read cursor for file-like handles.
    cursor: int = 0
    #: Extra per-handle state (e.g. registry enum index, socket peer).
    state: Dict[str, object] = field(default_factory=dict)


class HandleTable:
    """Per-process handle table.

    Handle values start at a distinctive base so they never collide with the
    boolean/NULL encodings APIs use for failure (0/1/0xFFFFFFFF).
    """

    _BASE = 0x100

    def __init__(self) -> None:
        # Plain int, not itertools.count: snapshot/restore must read and
        # re-seed the counter position (closed handles still consumed values).
        self._next = self._BASE
        self._table: Dict[int, Handle] = {}

    def allocate(self, kind: HandleKind, resource: Optional[Resource]) -> Handle:
        handle = Handle(value=self._next, kind=kind, resource=resource)
        self._next += 4
        self._table[handle.value] = handle
        return handle

    def get(self, value: int) -> Optional[Handle]:
        return self._table.get(value)

    def close(self, value: int) -> bool:
        return self._table.pop(value, None) is not None

    def __iter__(self) -> Iterator[Handle]:
        return iter(self._table.values())

    def __len__(self) -> int:
        return len(self._table)

    # -- structured snapshot/restore --------------------------------------

    def snapshot_state(self, rid_of: Callable[[Resource], int]) -> Tuple:
        """Plain-data image of the table: counter position plus one spec per
        handle.  Resources are referenced by the id-map rid ``rid_of``
        assigns, so handles sharing a resource object keep that identity
        across restores."""
        rows = []
        for h in self._table.values():
            attrs = dict(vars(h))
            attrs["resource"] = None  # resolved by rid on restore
            attrs["state"] = _freeze_state(h.state)
            rows.append(
                (None if h.resource is None else rid_of(h.resource), attrs)
            )
        return (self._next, tuple(rows))

    @classmethod
    def restore_all(
        cls, states: Iterable[Tuple], resolve: Callable[[int], Resource]
    ) -> "List[HandleTable]":
        """One table per :meth:`snapshot_state` image, in order.

        A whole process table's handle tables rebuild in one call: most of
        them are empty (the standard processes never open a handle), and a
        call per table cost more than rebuilding it.
        """
        tables = []
        new_table = cls.__new__
        new = Handle.__new__
        for next_value, rows in states:
            table = new_table(cls)
            table._next = next_value
            table._table = entries = {}
            for rid, attrs in rows:
                # Image rebuild — restores run once per candidate ×
                # mechanism, and the dataclass __init__ only re-copies the
                # captured image.
                h = new(Handle)
                d = dict(attrs)
                state_rows = attrs["state"]
                d["state"] = _thaw_state(state_rows) if state_rows else {}
                if rid is not None:
                    d["resource"] = resolve(rid)
                h.__dict__ = d
                entries[attrs["value"]] = h
            tables.append(table)
        return tables


def _freeze_state(state: Dict[str, object]) -> Tuple:
    """Immutable image of a handle's ``state`` dict.  Mutable values (the
    enum-API pid snapshot list) are copied so later guest activity cannot
    reach back into a captured snapshot."""
    return tuple(
        (key, ("list", tuple(value)) if isinstance(value, list) else ("val", value))
        for key, value in state.items()
    )


def _thaw_state(rows: Tuple) -> Dict[str, object]:
    return {
        key: list(payload) if tag == "list" else payload
        for key, (tag, payload) in rows
    }
