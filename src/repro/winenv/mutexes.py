"""Named mutex namespace.

Mutexes are the canonical infection markers (Conficker, Zeus ``_AVIRA_*``):
malware creates one to mark a machine infected and exits when ``OpenMutex``
succeeds or ``CreateMutex`` reports ``ERROR_ALREADY_EXISTS``.  A mutex vaccine
is simply pre-creating the name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from .acl import Acl, IntegrityLevel, open_acl
from .errors import ResourceFault, Win32Error
from .objects import Resource, ResourceTable, ResourceType


@dataclass
class Mutex(Resource):
    """A named mutex; ownership semantics are not modelled (not needed)."""

    def __init__(
        self,
        name: str,
        acl: Optional[Acl] = None,
        created_by: Optional[int] = None,
    ) -> None:
        super().__init__(
            name=name,
            rtype=ResourceType.MUTEX,
            acl=acl or open_acl(),
            created_by=created_by,
        )


class MutexNamespace(ResourceTable):
    """Global named-mutex table (names are case-sensitive, as on Windows)."""

    _TABLE = "_mutexes"
    _ITEM = Mutex

    def __init__(self) -> None:
        self._mutexes: Dict[str, Mutex] = {}

    def exists(self, name: str) -> bool:
        return name in self._mutexes

    def lookup(self, name: str) -> Optional[Mutex]:
        return self._mutexes.get(name)

    def create(
        self,
        name: str,
        requester: IntegrityLevel,
        acl: Optional[Acl] = None,
        created_by: Optional[int] = None,
    ) -> "tuple[Mutex, bool]":
        """Create or open a mutex.

        Returns ``(mutex, already_existed)`` mirroring ``CreateMutex``'s
        ``ERROR_ALREADY_EXISTS`` signalling.
        """
        existing = self._mutexes.get(name)
        if existing is not None:
            return existing, True
        mutex = Mutex(name, acl=acl, created_by=created_by)
        self._mutexes[name] = mutex
        return mutex, False

    def open(self, name: str) -> Mutex:
        mutex = self._mutexes.get(name)
        if mutex is None:
            raise ResourceFault(Win32Error.FILE_NOT_FOUND, name)
        return mutex

    def release(self, name: str) -> None:
        self._mutexes.pop(name, None)

    def __iter__(self) -> Iterator[Mutex]:
        return iter(self._mutexes.values())

    def __len__(self) -> int:
        return len(self._mutexes)
