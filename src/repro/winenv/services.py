"""Service Control Manager (SCM) model.

Service creation is both a persistence vector (Type III) and — when the binary
path ends in ``.sys`` — the paper's Type-I kernel-injection signal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from .acl import Access, Acl, IntegrityLevel, open_acl
from .errors import ResourceFault, Win32Error
from .objects import Resource, ResourceTable, ResourceType


class ServiceState(enum.Enum):
    STOPPED = "stopped"
    RUNNING = "running"


@dataclass
class Service(Resource):
    """A registered service with its binary path and run state."""

    binary_path: str = ""
    state: ServiceState = ServiceState.STOPPED
    is_kernel_driver: bool = False

    def __init__(
        self,
        name: str,
        binary_path: str,
        acl: Optional[Acl] = None,
        created_by: Optional[int] = None,
    ) -> None:
        super().__init__(
            name=name.lower(),
            rtype=ResourceType.SERVICE,
            acl=acl or open_acl(),
            created_by=created_by,
        )
        self.binary_path = binary_path.lower()
        self.state = ServiceState.STOPPED
        self.is_kernel_driver = self.binary_path.endswith(".sys")


class ServiceManager(ResourceTable):
    """SCM: registers/starts/stops/deletes services."""

    _TABLE = "_services"
    _ITEM = Service

    def __init__(self) -> None:
        self._services: Dict[str, Service] = {}
        # Seed a couple of standard services benign software expects.
        for name, path in (
            ("eventlog", "c:\\windows\\system32\\svchost.exe"),
            ("dhcp", "c:\\windows\\system32\\svchost.exe"),
        ):
            svc = Service(name, path)
            svc.state = ServiceState.RUNNING
            self._services[name] = svc

    def exists(self, name: str) -> bool:
        return name.lower() in self._services

    def lookup(self, name: str) -> Optional[Service]:
        return self._services.get(name.lower())

    def create(
        self,
        name: str,
        binary_path: str,
        requester: IntegrityLevel,
        acl: Optional[Acl] = None,
        created_by: Optional[int] = None,
    ) -> Service:
        key = name.lower()
        if key in self._services:
            raise ResourceFault(Win32Error.SERVICE_EXISTS, key)
        if requester < IntegrityLevel.MEDIUM:
            raise ResourceFault(Win32Error.ACCESS_DENIED, "service creation needs medium+")
        svc = Service(name, binary_path, acl=acl, created_by=created_by)
        self._services[key] = svc
        return svc

    def open(self, name: str) -> Service:
        svc = self._services.get(name.lower())
        if svc is None:
            raise ResourceFault(Win32Error.SERVICE_DOES_NOT_EXIST, name)
        return svc

    def start(self, name: str, requester: IntegrityLevel) -> Service:
        svc = self.open(name)
        svc.acl.check(requester, Access.EXECUTE)
        if svc.state is ServiceState.RUNNING:
            raise ResourceFault(Win32Error.SERVICE_ALREADY_RUNNING, name)
        svc.state = ServiceState.RUNNING
        return svc

    def stop(self, name: str, requester: IntegrityLevel) -> Service:
        svc = self.open(name)
        svc.state = ServiceState.STOPPED
        return svc

    def delete(self, name: str, requester: IntegrityLevel) -> None:
        svc = self.open(name)
        svc.acl.check(requester, Access.DELETE)
        del self._services[svc.name]

    def set_acl(self, name: str, acl: Acl) -> None:
        self.open(name).acl = acl

    def __iter__(self) -> Iterator[Service]:
        return iter(self._services.values())

    def __len__(self) -> int:
        return len(self._services)
