"""In-memory Windows-like filesystem.

Paths are case-insensitive and backslash-separated.  The namespace is a flat
map from normalized path to :class:`FileNode`; directories are implicit but
can be materialized (the startup folder matters for Type-III persistence
detection).  Well-known locations (``%system32%`` etc.) expand like the paper's
Table III identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .acl import Access, Acl, IntegrityLevel, open_acl
from .errors import ResourceFault, Win32Error
from .objects import Resource, ResourceTable, ResourceType

SYSTEM32 = "c:\\windows\\system32"
DRIVERS = "c:\\windows\\system32\\drivers"
STARTUP_FOLDER = (
    "c:\\documents and settings\\all users\\start menu\\programs\\startup"
)
SYSTEM_INI = "c:\\windows\\system.ini"
TEMP_DIR = "c:\\windows\\temp"

_EXPANSIONS = {
    "%system32%": SYSTEM32,
    "%windir%": "c:\\windows",
    "%temp%": TEMP_DIR,
    "%startup%": STARTUP_FOLDER,
}


def expand_path(path: str) -> str:
    """Expand ``%system32%``-style macros (as used in paper Table III)."""
    lowered = path.lower()
    for macro, real in _EXPANSIONS.items():
        if macro in lowered:
            lowered = lowered.replace(macro, real)
    return lowered


def normalize_path(path: str) -> str:
    """Canonical form: expanded, lower case, backslashes, no trailing slash."""
    p = expand_path(path).replace("/", "\\")
    while "\\\\" in p:
        p = p.replace("\\\\", "\\")
    return p.rstrip("\\") if len(p) > 3 else p


def dirname(path: str) -> str:
    p = normalize_path(path)
    idx = p.rfind("\\")
    return p[:idx] if idx > 0 else ""


def basename(path: str) -> str:
    p = normalize_path(path)
    return p[p.rfind("\\") + 1:]


@dataclass
class FileNode(Resource):
    """A regular file (or directory marker) in the simulated filesystem."""

    content: bytearray = field(default_factory=bytearray)
    is_directory: bool = False

    MUTABLE = (("content", bytes, bytearray),)

    def __init__(
        self,
        path: str,
        content: bytes = b"",
        acl: Optional[Acl] = None,
        is_directory: bool = False,
        created_by: Optional[int] = None,
    ) -> None:
        super().__init__(
            name=normalize_path(path),
            rtype=ResourceType.FILE,
            acl=acl or open_acl(),
            created_by=created_by,
        )
        self.content = bytearray(content)
        self.is_directory = is_directory

    @property
    def size(self) -> int:
        return len(self.content)


class FileSystem(ResourceTable):
    """Flat-namespace filesystem with ACL checks on every mutation."""

    _TABLE = "_nodes"
    _ITEM = FileNode

    def __init__(self) -> None:
        self._nodes: Dict[str, FileNode] = {}
        self._seed_standard_layout()

    def _seed_standard_layout(self) -> None:
        for d in (SYSTEM32, DRIVERS, STARTUP_FOLDER, TEMP_DIR):
            self._nodes[d] = FileNode(d, is_directory=True)
        self._nodes[SYSTEM_INI] = FileNode(SYSTEM_INI, content=b"[boot]\r\n")

    # -- queries ---------------------------------------------------------

    def exists(self, path: str) -> bool:
        return normalize_path(path) in self._nodes

    def lookup(self, path: str) -> Optional[FileNode]:
        return self._nodes.get(normalize_path(path))

    def listdir(self, path: str) -> List[str]:
        prefix = normalize_path(path) + "\\"
        return sorted(
            p for p in self._nodes if p.startswith(prefix) and "\\" not in p[len(prefix):]
        )

    def __iter__(self) -> Iterator[FileNode]:
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    # -- mutations -------------------------------------------------------

    def create(
        self,
        path: str,
        requester: IntegrityLevel,
        content: bytes = b"",
        exist_ok: bool = False,
        acl: Optional[Acl] = None,
        created_by: Optional[int] = None,
    ) -> FileNode:
        """Create a file; honours the existing node's ACL when overwriting.

        Raises ``ResourceFault(FILE_EXISTS)`` when the path exists and
        ``exist_ok`` is false — this is the check Zeus-style droppers trip
        over when a file vaccine is injected.
        """
        norm = normalize_path(path)
        existing = self._nodes.get(norm)
        if existing is not None:
            if not exist_ok:
                raise ResourceFault(Win32Error.FILE_EXISTS, norm)
            existing.acl.check(requester, Access.WRITE)
            existing.content = bytearray(content)
            return existing
        node = FileNode(norm, content=content, acl=acl, created_by=created_by)
        self._nodes[norm] = node
        return node

    def write(
        self, path: str, requester: IntegrityLevel, data: bytes, offset: Optional[int] = None
    ) -> int:
        node = self._require(path)
        node.acl.check(requester, Access.WRITE)
        if node.is_directory:
            raise ResourceFault(Win32Error.ACCESS_DENIED, "write to directory")
        if offset is None:
            node.content.extend(data)
        else:
            end = offset + len(data)
            if end > len(node.content):
                node.content.extend(b"\x00" * (end - len(node.content)))
            node.content[offset:end] = data
        return len(data)

    def read(self, path: str, requester: IntegrityLevel, offset: int = 0, size: int = -1) -> bytes:
        node = self._require(path)
        node.acl.check(requester, Access.READ)
        data = bytes(node.content[offset:])
        return data if size < 0 else data[:size]

    def delete(self, path: str, requester: IntegrityLevel) -> None:
        node = self._require(path)
        node.acl.check(requester, Access.DELETE)
        del self._nodes[node.name]

    def set_acl(self, path: str, acl: Acl) -> None:
        self._require(path).acl = acl

    def _require(self, path: str) -> FileNode:
        node = self.lookup(path)
        if node is None:
            raise ResourceFault(Win32Error.FILE_NOT_FOUND, normalize_path(path))
        return node
