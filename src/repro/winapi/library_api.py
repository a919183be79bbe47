"""Library (DLL) APIs."""

from __future__ import annotations

from ..taint.labels import TaintClass
from ..winenv.errors import NULL, ResourceFault, TRUE, Win32Error
from ..winenv.filesystem import normalize_path, SYSTEM32
from ..winenv.objects import HandleKind, Operation, ResourceType
from .context import ApiContext
from .labels import FailureSpec, Returns, api


@api(
    "LoadLibraryA",
    argc=1,
    returns=Returns.HANDLE,
    resource=ResourceType.LIBRARY,
    operation=Operation.READ,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(NULL, Win32Error.FILE_NOT_FOUND),
)
def load_library(ctx: ApiContext) -> int:
    """Load a registered DLL; falls back to a DLL file on disk (a dropped
    library becomes loadable), mirroring the loader's search path."""
    name = ctx.identifier or ""
    try:
        lib = ctx.env.libraries.load(name, ctx.integrity)
    except ResourceFault:

        candidates = [normalize_path(name)] if "\\" in name else []
        candidates.append(f"{SYSTEM32}\\{name.lower()}")
        for path in candidates:
            if ctx.env.filesystem.exists(path):
                lib = ctx.env.libraries.register(name.split("\\")[-1])
                break
        else:
            raise
    handle = ctx.alloc_handle(HandleKind.LIBRARY, lib)
    return handle.value


@api(
    "GetModuleHandleA",
    argc=1,
    returns=Returns.HANDLE,
    resource=ResourceType.LIBRARY,
    operation=Operation.CHECK,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(NULL, Win32Error.FILE_NOT_FOUND),
)
def get_module_handle(ctx: ApiContext) -> int:
    lib = ctx.env.libraries.lookup(ctx.identifier or "")
    if lib is None or lib.blocked:
        raise ResourceFault(Win32Error.FILE_NOT_FOUND, ctx.identifier or "")
    handle = ctx.alloc_handle(HandleKind.LIBRARY, lib)
    return handle.value


@api(
    "GetProcAddress",
    argc=2,
    returns=Returns.VALUE,
    failure=FailureSpec(NULL, Win32Error.INVALID_PARAMETER),
)
def get_proc_address(ctx: ApiContext) -> int:
    ctx.handle_arg(0)
    name, _ = ctx.read_string_arg(1)
    # Deterministic fake export address derived from the symbol name.
    return 0x7C800000 + (sum(name.encode()) & 0xFFFF)


@api("FreeLibrary", argc=1, returns=Returns.BOOL)
def free_library(ctx: ApiContext) -> int:
    ctx.process.handles.close(ctx.arg(0))
    return TRUE
