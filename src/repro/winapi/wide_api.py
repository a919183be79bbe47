"""Wide-character (W) API variants and remaining resource queries.

The paper's 89 hooked calls count ANSI and wide entry points separately
(real malware mixes both).  Guest strings in this VM are single-byte, so the
W variants share the A implementations — but they are distinct *labelled*
call sites, which matters for alignment keys and hook statistics.
"""

from __future__ import annotations

from dataclasses import replace

from ..taint.labels import TaintClass
from ..winenv.errors import ResourceFault, TRUE, Win32Error
from ..winenv.objects import HandleKind, Operation, ResourceType
from ..winenv.services import ServiceState
from .context import ApiContext
from .labels import REGISTRY, FailureSpec, Returns, api


def _alias(existing: str, alias: str) -> None:
    """Register ``alias`` with the same label + implementation as ``existing``."""
    base = REGISTRY[existing]
    if alias in REGISTRY:
        raise ValueError(f"duplicate alias {alias}")
    REGISTRY[alias] = replace(base, name=alias)


for _a, _w in (
    ("CreateMutexA", "CreateMutexW"),
    ("OpenMutexA", "OpenMutexW"),
    ("CreateFileA", "CreateFileW"),
    ("GetFileAttributesA", "GetFileAttributesW"),
    ("DeleteFileA", "DeleteFileW"),
    ("RegOpenKeyExA", "RegOpenKeyExW"),
    ("RegSetValueExA", "RegSetValueExW"),
    ("FindWindowA", "FindWindowW"),
    ("LoadLibraryA", "LoadLibraryW"),
    ("GetModuleHandleA", "GetModuleHandleW"),
):
    _alias(_a, _w)


@api(
    "MoveFileExA",
    argc=3,
    returns=Returns.BOOL,
    resource=ResourceType.FILE,
    operation=Operation.WRITE,
    identifier_arg=1,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.FILE_NOT_FOUND),
)
def move_file_ex(ctx: ApiContext) -> int:
    src, _ = ctx.read_string_arg(0)
    dst = ctx.identifier or ""
    fs = ctx.env.filesystem
    node = fs.lookup(src)
    if node is None:
        raise ResourceFault(Win32Error.FILE_NOT_FOUND, src)
    fs.create(dst, ctx.integrity, content=bytes(node.content), exist_ok=True,
              created_by=ctx.process.pid)
    fs.delete(src, ctx.integrity)
    return TRUE


@api(
    "ControlService",
    argc=3,
    returns=Returns.BOOL,
    resource=ResourceType.SERVICE,
    operation=Operation.EXECUTE,
    identifier_handle_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.SERVICE_DOES_NOT_EXIST),
)
def control_service(ctx: ApiContext) -> int:
    """(hService, dwControl, lpStatus): 1 = stop."""
    handle = ctx.handle_arg(0)
    control = ctx.arg(1)
    if handle.resource is None or handle.state.get("phantom"):
        raise ResourceFault(Win32Error.INVALID_HANDLE)
    if control == 1:
        ctx.env.services.stop(handle.resource.name, ctx.integrity)
    return TRUE


@api(
    "QueryServiceStatus",
    argc=2,
    returns=Returns.BOOL,
    resource=ResourceType.SERVICE,
    operation=Operation.READ,
    identifier_handle_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.INVALID_HANDLE),
)
def query_service_status(ctx: ApiContext) -> int:
    handle = ctx.handle_arg(0)
    out = ctx.arg(1)
    if handle.resource is None:
        raise ResourceFault(Win32Error.INVALID_HANDLE)
    svc = ctx.env.services.lookup(handle.resource.name)
    state = 4 if (svc is not None and svc.state is ServiceState.RUNNING) else 1
    if out:
        ctx.write_u32(out, state, ctx.mint_tag())
    return TRUE


@api(
    "RegQueryInfoKeyA",
    argc=3,
    returns=Returns.ERRCODE,
    resource=ResourceType.REGISTRY,
    operation=Operation.READ,
    identifier_handle_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(int(Win32Error.INVALID_HANDLE), Win32Error.INVALID_HANDLE),
    doc="(hKey, lpcSubKeys out, lpcValues out).",
)
def reg_query_info_key(ctx: ApiContext) -> int:
    handle = ctx.handle_arg(0)
    subkeys_ptr, values_ptr = ctx.arg(1), ctx.arg(2)
    if handle.resource is None:
        raise ResourceFault(Win32Error.INVALID_HANDLE)
    reg = ctx.env.registry
    tag = ctx.mint_tag()
    if subkeys_ptr:
        ctx.write_u32(subkeys_ptr, len(reg.subkeys(handle.resource.name)), tag)
    if values_ptr:
        ctx.write_u32(values_ptr, len(reg.enum_values(handle.resource.name)), tag)
    return 0


@api(
    "Module32First",
    argc=2,
    returns=Returns.BOOL,
    resource=ResourceType.LIBRARY,
    operation=Operation.READ,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.NO_MORE_ITEMS),
    doc="(hSnapshot, lpme out): first loaded module name of this process.",
)
def module32_first(ctx: ApiContext) -> int:
    out = ctx.arg(1)
    libs = sorted(lib.name for lib in ctx.env.libraries)
    if not libs:
        raise ResourceFault(Win32Error.NO_MORE_ITEMS)
    ctx.write_string(out, libs[0], taint=ctx.mint_tag())
    return TRUE
