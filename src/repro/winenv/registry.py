"""In-memory Windows-like registry.

Keys are case-insensitive backslash paths rooted at a hive (``HKLM``/``HKCU``
abbreviations accepted).  Values are string or dword.  The well-known
persistence locations (``Run`` subkeys, ``Winlogon``) are seeded so Type-III
immunization detection has realistic targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .acl import Access, Acl, IntegrityLevel, open_acl
from .errors import ResourceFault, Win32Error
from .objects import Resource, ResourceTable, ResourceType

RegValue = Union[str, int]

HKLM = "hklm"
HKCU = "hkcu"

RUN_KEY_HKLM = "hklm\\software\\microsoft\\windows\\currentversion\\run"
RUN_KEY_HKCU = "hkcu\\software\\microsoft\\windows\\currentversion\\run"
RUNONCE_KEY = "hklm\\software\\microsoft\\windows\\currentversion\\runonce"
WINLOGON_KEY = "hklm\\software\\microsoft\\windows nt\\currentversion\\winlogon"
SERVICES_KEY = "hklm\\system\\currentcontrolset\\services"

#: Registry paths whose modification counts as persistence (Type III).
PERSISTENCE_KEY_PREFIXES = (
    RUN_KEY_HKLM,
    RUN_KEY_HKCU,
    RUNONCE_KEY,
    WINLOGON_KEY,
    SERVICES_KEY,
)

_HIVE_ALIASES = {
    "hkey_local_machine": HKLM,
    "hkey_current_user": HKCU,
    "hklm": HKLM,
    "hkcu": HKCU,
}


def normalize_key(path: str) -> str:
    """Canonical key path: lower case, hive alias collapsed, backslashes."""
    p = path.replace("/", "\\").lower().strip("\\")
    head, _, rest = p.partition("\\")
    hive = _HIVE_ALIASES.get(head, head)
    return f"{hive}\\{rest}" if rest else hive


def is_persistence_key(path: str) -> bool:
    norm = normalize_key(path)
    return any(norm.startswith(prefix) for prefix in PERSISTENCE_KEY_PREFIXES)


@dataclass
class RegistryKey(Resource):
    """A registry key with named values."""

    values: Dict[str, RegValue] = field(default_factory=dict)

    MUTABLE = (("values", lambda values: tuple(values.items()), dict),)

    def __init__(
        self,
        path: str,
        acl: Optional[Acl] = None,
        created_by: Optional[int] = None,
    ) -> None:
        super().__init__(
            name=normalize_key(path),
            rtype=ResourceType.REGISTRY,
            acl=acl or open_acl(),
            created_by=created_by,
        )
        self.values = {}


class Registry(ResourceTable):
    """Flat-namespace registry with ACL checks, seeded with standard keys."""

    _TABLE = "_keys"
    _ITEM = RegistryKey

    def __init__(self) -> None:
        self._keys: Dict[str, RegistryKey] = {}
        for key in (RUN_KEY_HKLM, RUN_KEY_HKCU, RUNONCE_KEY, WINLOGON_KEY, SERVICES_KEY):
            self._keys[key] = RegistryKey(key)
        winlogon = self._keys[WINLOGON_KEY]
        winlogon.values["shell"] = "explorer.exe"
        winlogon.values["userinit"] = "c:\\windows\\system32\\userinit.exe"

    # -- queries ---------------------------------------------------------

    def exists(self, path: str) -> bool:
        return normalize_key(path) in self._keys

    def lookup(self, path: str) -> Optional[RegistryKey]:
        return self._keys.get(normalize_key(path))

    def query_value(self, path: str, name: str, requester: IntegrityLevel) -> RegValue:
        key = self._require(path)
        key.acl.check(requester, Access.READ)
        try:
            return key.values[name.lower()]
        except KeyError:
            raise ResourceFault(Win32Error.FILE_NOT_FOUND, f"{key.name}:{name}")

    def enum_values(self, path: str) -> List[Tuple[str, RegValue]]:
        key = self._require(path)
        return sorted(key.values.items())

    def subkeys(self, path: str) -> List[str]:
        prefix = normalize_key(path) + "\\"
        return sorted(
            k for k in self._keys if k.startswith(prefix) and "\\" not in k[len(prefix):]
        )

    def __iter__(self) -> Iterator[RegistryKey]:
        return iter(self._keys.values())

    def __len__(self) -> int:
        return len(self._keys)

    # -- mutations -------------------------------------------------------

    def create_key(
        self,
        path: str,
        requester: IntegrityLevel,
        exist_ok: bool = True,
        acl: Optional[Acl] = None,
        created_by: Optional[int] = None,
    ) -> RegistryKey:
        norm = normalize_key(path)
        existing = self._keys.get(norm)
        if existing is not None:
            if not exist_ok:
                raise ResourceFault(Win32Error.ALREADY_EXISTS, norm)
            return existing
        key = RegistryKey(norm, acl=acl, created_by=created_by)
        self._keys[norm] = key
        return key

    def set_value(
        self, path: str, name: str, value: RegValue, requester: IntegrityLevel
    ) -> None:
        key = self._require(path)
        key.acl.check(requester, Access.WRITE)
        key.values[name.lower()] = value

    def delete_value(self, path: str, name: str, requester: IntegrityLevel) -> None:
        key = self._require(path)
        key.acl.check(requester, Access.WRITE)
        if key.values.pop(name.lower(), None) is None:
            raise ResourceFault(Win32Error.FILE_NOT_FOUND, f"{key.name}:{name}")

    def delete_key(self, path: str, requester: IntegrityLevel) -> None:
        key = self._require(path)
        key.acl.check(requester, Access.DELETE)
        del self._keys[key.name]

    def set_acl(self, path: str, acl: Acl) -> None:
        self._require(path).acl = acl

    def _require(self, path: str) -> RegistryKey:
        key = self.lookup(path)
        if key is None:
            raise ResourceFault(Win32Error.FILE_NOT_FOUND, normalize_key(path))
        return key
