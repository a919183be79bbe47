"""Loadable library (DLL) namespace.

Library names are exclusiveness-analysis bait: benign names like
``uxtheme.dll`` / ``msvcrt.dll`` must never become vaccines (paper §IV-A),
while malware-private DLL names can.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from .acl import Access, Acl, IntegrityLevel, open_acl
from .errors import ResourceFault, Win32Error
from .objects import Resource, ResourceTable, ResourceType

#: DLLs present on every simulated machine (also in the benign corpus).
STANDARD_LIBRARIES = (
    "kernel32.dll",
    "ntdll.dll",
    "user32.dll",
    "advapi32.dll",
    "ws2_32.dll",
    "wininet.dll",
    "uxtheme.dll",
    "msvcrt.dll",
    "mscrt.dll",
    "shell32.dll",
)


@dataclass
class Library(Resource):
    """A registered DLL, loadable by name."""

    blocked: bool = False

    def __init__(self, name: str, acl: Optional[Acl] = None, created_by: Optional[int] = None) -> None:
        super().__init__(
            name=name.lower(),
            rtype=ResourceType.LIBRARY,
            acl=acl or open_acl(),
            created_by=created_by,
        )
        self.blocked = False


class LibraryManager(ResourceTable):
    """DLL registry; ``LoadLibrary`` succeeds only for registered names."""

    _TABLE = "_libs"
    _ITEM = Library

    def __init__(self) -> None:
        self._libs: Dict[str, Library] = {}
        for name in STANDARD_LIBRARIES:
            self._libs[name] = Library(name)

    def exists(self, name: str) -> bool:
        return name.lower() in self._libs

    def lookup(self, name: str) -> Optional[Library]:
        return self._libs.get(name.lower())

    def register(
        self, name: str, acl: Optional[Acl] = None, created_by: Optional[int] = None
    ) -> Library:
        lib = Library(name, acl=acl, created_by=created_by)
        self._libs[lib.name] = lib
        return lib

    def load(self, name: str, requester: IntegrityLevel) -> Library:
        lib = self._libs.get(name.lower())
        if lib is None or lib.blocked:
            raise ResourceFault(Win32Error.FILE_NOT_FOUND, name)
        lib.acl.check(requester, Access.EXECUTE)
        return lib

    def block(self, name: str) -> None:
        """Daemon-style vaccine: make a library unloadable."""
        lib = self._libs.get(name.lower())
        if lib is None:
            lib = self.register(name)
        lib.blocked = True

    def remove(self, name: str) -> None:
        self._libs.pop(name.lower(), None)

    def __iter__(self) -> Iterator[Library]:
        return iter(self._libs.values())

    def __len__(self) -> int:
        return len(self._libs)
