"""API labelling database (paper §III-A, Table I).

Every hooked API carries a label describing, exactly as the paper's examples
for ``OpenMutex``/``ReadFile``:

* the resource type and where the resource identifier lives (a string
  argument, or a handle argument resolved through the handle map),
* the success and failure encodings (return value + ``GetLastError``),
* whether the return value / an out-argument is tainted, and with which
  :class:`~repro.taint.labels.TaintClass` (resource access vs deterministic
  environment input vs per-run randomness).

Implementations register through the :func:`api` decorator, which populates
the global :data:`REGISTRY` the dispatcher works from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..taint.labels import TaintClass
from ..winenv.errors import Win32Error
from ..winenv.objects import Operation, ResourceType


class Returns(enum.Enum):
    """Shape of an API's return value (drives fabricated successes)."""

    HANDLE = "handle"      # failure NULL / INVALID_HANDLE_VALUE
    BOOL = "bool"          # failure FALSE
    VALUE = "value"        # plain value, failure by convention
    ERRCODE = "errcode"    # Win32 error code returned directly (Reg* APIs)
    NTSTATUS = "ntstatus"  # failure = negative status
    VOID = "void"


class Calling(enum.Enum):
    STDCALL = "stdcall"    # dispatcher pops declared args
    CDECL = "cdecl"        # caller cleans up (variadic APIs)


@dataclass(frozen=True)
class FailureSpec:
    """Labelled failure encoding: what the guest sees when the call fails."""

    retval: int
    last_error: Win32Error = Win32Error.SUCCESS


@dataclass
class ApiDef:
    """One labelled API."""

    name: str
    argc: int
    impl: Callable = None  # type: ignore[assignment]
    returns: Returns = Returns.VALUE
    calling: Calling = Calling.STDCALL
    resource_type: Optional[ResourceType] = None
    operation: Optional[Operation] = None
    #: Index of the argument holding the identifier string pointer.
    identifier_arg: Optional[int] = None
    #: Index of a handle argument whose resource names the identifier.
    identifier_handle_arg: Optional[int] = None
    #: (hive/parent-handle arg, subkey arg) for registry open-by-path APIs;
    #: the dispatcher joins them into the full key path pre-interception.
    registry_path_args: Optional[Tuple[int, int]] = None
    #: Taint class minted on the result (None = result not tainted).
    taint_class: Optional[TaintClass] = None
    failure: FailureSpec = field(default_factory=lambda: FailureSpec(0, Win32Error.SUCCESS))
    #: Does this API count as a "network behavior" API (Type-II detection)?
    network: bool = False
    #: Short human description for docs/tests.
    doc: str = ""
    #: Derived from the label once, for the dispatcher: bytes the callee
    #: pops off the stack (stdcall), and whether an identifier is resolved
    #: before interception.
    stack_pop: int = field(init=False, repr=False, compare=False)
    resolves_identifier: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.stack_pop = 4 * self.argc if self.calling is Calling.STDCALL else 0
        self.resolves_identifier = (
            self.identifier_arg is not None
            or self.registry_path_args is not None
            or self.identifier_handle_arg is not None
        )

    @property
    def is_resource_api(self) -> bool:
        return self.resource_type is not None


#: Global name -> ApiDef registry; populated at import of repro.winapi.
REGISTRY: Dict[str, ApiDef] = {}


def api(
    name: str,
    argc: int,
    returns: Returns = Returns.VALUE,
    calling: Calling = Calling.STDCALL,
    resource: Optional[ResourceType] = None,
    operation: Optional[Operation] = None,
    identifier_arg: Optional[int] = None,
    identifier_handle_arg: Optional[int] = None,
    registry_path_args: Optional[Tuple[int, int]] = None,
    taint: Optional[TaintClass] = None,
    failure: Optional[FailureSpec] = None,
    network: bool = False,
    doc: str = "",
) -> Callable:
    """Register an API implementation under its label.

    The wrapped function receives an
    :class:`~repro.winapi.context.ApiContext` and returns the success
    return-value (int).  Raising
    :class:`~repro.winenv.errors.ResourceFault` signals the labelled failure
    path with the fault's error code.
    """

    if failure is None:
        default_fail = {
            Returns.HANDLE: FailureSpec(0, Win32Error.FILE_NOT_FOUND),
            Returns.BOOL: FailureSpec(0, Win32Error.INVALID_PARAMETER),
            Returns.VALUE: FailureSpec(0, Win32Error.INVALID_PARAMETER),
            Returns.ERRCODE: FailureSpec(
                int(Win32Error.FILE_NOT_FOUND), Win32Error.FILE_NOT_FOUND
            ),
            Returns.NTSTATUS: FailureSpec(0xC0000001, Win32Error.SUCCESS),
            Returns.VOID: FailureSpec(0, Win32Error.SUCCESS),
        }[returns]
        failure = default_fail

    def register(func: Callable) -> Callable:
        if name in REGISTRY:
            raise ValueError(f"duplicate API registration: {name}")
        REGISTRY[name] = ApiDef(
            name=name,
            argc=argc,
            impl=func,
            returns=returns,
            calling=calling,
            resource_type=resource,
            operation=operation,
            identifier_arg=identifier_arg,
            identifier_handle_arg=identifier_handle_arg,
            registry_path_args=registry_path_args,
            taint_class=taint,
            failure=failure,
            network=network,
            doc=doc or (func.__doc__ or "").strip().splitlines()[0] if (doc or func.__doc__) else "",
        )
        return func

    return register


def lookup(name: str) -> ApiDef:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown API {name!r}; is repro.winapi imported?") from None


def resource_apis() -> Tuple[ApiDef, ...]:
    return tuple(d for d in REGISTRY.values() if d.is_resource_api)


def hooked_api_count() -> int:
    """Number of labelled taint-source APIs (paper hooks 89)."""
    return sum(1 for d in REGISTRY.values() if d.taint_class is not None)


# Pseudo-handles for registry hives (match Win32 values).
HKEY_LOCAL_MACHINE = 0x80000002
HKEY_CURRENT_USER = 0x80000001
HIVE_NAMES = {HKEY_LOCAL_MACHINE: "hklm", HKEY_CURRENT_USER: "hkcu"}
