"""GUI window namespace (class name / window title registry).

Adware-style samples check ``FindWindow`` for their own window class before
popping new windows; the paper finds window-resource vaccines particularly
effective against adware (Table V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from .acl import Acl, IntegrityLevel, open_acl
from .errors import ResourceFault, Win32Error
from .objects import Resource, ResourceTable, ResourceType


@dataclass
class Window(Resource):
    """A top-level window identified by class name (and optional title)."""

    title: str = ""
    owner_pid: Optional[int] = None

    def __init__(
        self,
        class_name: str,
        title: str = "",
        acl: Optional[Acl] = None,
        owner_pid: Optional[int] = None,
    ) -> None:
        super().__init__(name=class_name, rtype=ResourceType.WINDOW, acl=acl or open_acl())
        self.title = title
        self.owner_pid = owner_pid


class WindowManager(ResourceTable):
    """Window registry keyed by class name."""

    _TABLE = "_windows"
    _ITEM = Window

    def __init__(self) -> None:
        self._windows: Dict[str, Window] = {}
        self.register("Shell_TrayWnd", title="Start", owner_pid=None)
        self.register("Progman", title="Program Manager", owner_pid=None)

    def register(
        self,
        class_name: str,
        title: str = "",
        owner_pid: Optional[int] = None,
        acl: Optional[Acl] = None,
    ) -> Window:
        win = Window(class_name, title=title, acl=acl, owner_pid=owner_pid)
        self._windows[class_name] = win
        return win

    def exists(self, class_name: str) -> bool:
        return class_name in self._windows

    def find(self, class_name: str) -> Window:
        win = self._windows.get(class_name)
        if win is None:
            raise ResourceFault(Win32Error.FILE_NOT_FOUND, class_name)
        return win

    def lookup(self, class_name: str) -> Optional[Window]:
        return self._windows.get(class_name)

    def create(
        self,
        class_name: str,
        requester: IntegrityLevel,
        title: str = "",
        owner_pid: Optional[int] = None,
    ) -> Window:
        existing = self._windows.get(class_name)
        if existing is not None:
            from .acl import Access

            existing.acl.check(requester, Access.CREATE)
            return existing
        return self.register(class_name, title=title, owner_pid=owner_pid)

    def destroy(self, class_name: str) -> None:
        self._windows.pop(class_name, None)

    def __iter__(self) -> Iterator[Window]:
        return iter(self._windows.values())

    def __len__(self) -> int:
        return len(self._windows)
