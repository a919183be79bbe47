"""Enumeration and miscellaneous query APIs: Toolhelp snapshots, registry
enumeration, drives, window text, shell execution."""

from __future__ import annotations

from ..taint.labels import TaintClass
from ..winenv.acl import Access
from ..winenv.errors import NULL, ResourceFault, TRUE, Win32Error
from ..winenv.filesystem import basename
from ..winenv.objects import HandleKind, Operation, ResourceType
from .context import ApiContext
from .labels import FailureSpec, Returns, api

ERROR_NO_MORE = int(Win32Error.NO_MORE_ITEMS)


@api(
    "CreateToolhelp32Snapshot",
    argc=2,
    returns=Returns.HANDLE,
    failure=FailureSpec(0xFFFFFFFF, Win32Error.INVALID_PARAMETER),
)
def create_toolhelp_snapshot(ctx: ApiContext) -> int:
    handle = ctx.alloc_handle(HandleKind.PROCESS, None)
    handle.state["snapshot"] = [p.pid for p in ctx.env.processes.alive_processes()]
    handle.state["cursor"] = 0
    return handle.value


def _toolhelp_step(ctx: ApiContext, reset: bool) -> int:
    """Writes a PROCESSENTRY32-like record: pid (u32) then the image name."""
    handle = ctx.handle_arg(0)
    entry_ptr = ctx.arg(1)
    pids = handle.state.get("snapshot")
    if pids is None:
        raise ResourceFault(Win32Error.INVALID_HANDLE)
    if reset:
        handle.state["cursor"] = 0
    cursor = handle.state["cursor"]
    if cursor >= len(pids):
        raise ResourceFault(Win32Error.NO_MORE_ITEMS)
    handle.state["cursor"] = cursor + 1
    proc = ctx.env.processes.get(pids[cursor])
    tag = ctx.mint_tag(TaintClass.RESOURCE)
    ctx.write_u32(entry_ptr, proc.pid, tag)
    ctx.write_string(entry_ptr + 4, proc.name, taint=tag)
    ctx.extra["process_name"] = proc.name
    return TRUE


@api(
    "Process32First",
    argc=2,
    returns=Returns.BOOL,
    resource=ResourceType.PROCESS,
    operation=Operation.READ,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.NO_MORE_ITEMS),
)
def process32_first(ctx: ApiContext) -> int:
    return _toolhelp_step(ctx, reset=True)


@api(
    "Process32Next",
    argc=2,
    returns=Returns.BOOL,
    resource=ResourceType.PROCESS,
    operation=Operation.READ,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.NO_MORE_ITEMS),
)
def process32_next(ctx: ApiContext) -> int:
    return _toolhelp_step(ctx, reset=False)


@api(
    "RegEnumKeyExA",
    argc=4,
    returns=Returns.ERRCODE,
    resource=ResourceType.REGISTRY,
    operation=Operation.READ,
    identifier_handle_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(ERROR_NO_MORE, Win32Error.NO_MORE_ITEMS),
    doc="(hKey, dwIndex, lpName, cchName): enumerate subkey names.",
)
def reg_enum_key(ctx: ApiContext) -> int:
    handle = ctx.handle_arg(0)
    index, buf = ctx.arg(1), ctx.arg(2)
    if handle.resource is None:
        raise ResourceFault(Win32Error.INVALID_HANDLE)
    subkeys = ctx.env.registry.subkeys(handle.resource.name)
    if index >= len(subkeys):
        raise ResourceFault(Win32Error.NO_MORE_ITEMS)
    leaf = subkeys[index].rsplit("\\", 1)[-1]
    ctx.write_string(buf, leaf, taint=ctx.mint_tag())
    return 0


@api(
    "RegEnumValueA",
    argc=4,
    returns=Returns.ERRCODE,
    resource=ResourceType.REGISTRY,
    operation=Operation.READ,
    identifier_handle_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(ERROR_NO_MORE, Win32Error.NO_MORE_ITEMS),
    doc="(hKey, dwIndex, lpValueName, cchName): enumerate value names.",
)
def reg_enum_value(ctx: ApiContext) -> int:
    handle = ctx.handle_arg(0)
    index, buf = ctx.arg(1), ctx.arg(2)
    if handle.resource is None:
        raise ResourceFault(Win32Error.INVALID_HANDLE)
    values = ctx.env.registry.enum_values(handle.resource.name)
    if index >= len(values):
        raise ResourceFault(Win32Error.NO_MORE_ITEMS)
    ctx.write_string(buf, values[index][0], taint=ctx.mint_tag())
    return 0


@api(
    "SetFileAttributesA",
    argc=2,
    returns=Returns.BOOL,
    resource=ResourceType.FILE,
    operation=Operation.WRITE,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.FILE_NOT_FOUND),
)
def set_file_attributes(ctx: ApiContext) -> int:
    node = ctx.env.filesystem.lookup(ctx.identifier or "")
    if node is None:
        raise ResourceFault(Win32Error.FILE_NOT_FOUND, ctx.identifier or "")

    node.acl.check(ctx.integrity, Access.WRITE)
    return TRUE


@api(
    "RemoveDirectoryA",
    argc=1,
    returns=Returns.BOOL,
    resource=ResourceType.FILE,
    operation=Operation.DELETE,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.FILE_NOT_FOUND),
)
def remove_directory(ctx: ApiContext) -> int:
    ctx.env.filesystem.delete(ctx.identifier or "", ctx.integrity)
    return TRUE


@api("GetDriveTypeA", argc=1, returns=Returns.VALUE, taint=TaintClass.ENV_DETERMINISTIC)
def get_drive_type(ctx: ApiContext) -> int:
    return 3  # DRIVE_FIXED


@api("GetDiskFreeSpaceA", argc=2, returns=Returns.BOOL, taint=TaintClass.ENV_DETERMINISTIC)
def get_disk_free_space(ctx: ApiContext) -> int:
    out = ctx.arg(1)
    if out:
        ctx.write_u32(out, 0x4000_0000, ctx.mint_tag())  # 1 GiB free
    return TRUE


@api("gethostname", argc=2, returns=Returns.VALUE, taint=TaintClass.ENV_DETERMINISTIC,
     network=True)
def gethostname_(ctx: ApiContext) -> int:
    buf = ctx.arg(0)
    ctx.write_string(buf, ctx.env.identity.computer_name.lower(), taint=ctx.mint_tag())
    return 0


@api(
    "GetWindowTextA",
    argc=3,
    returns=Returns.VALUE,
    resource=ResourceType.WINDOW,
    operation=Operation.READ,
    identifier_handle_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.INVALID_HANDLE),
)
def get_window_text(ctx: ApiContext) -> int:
    handle = ctx.handle_arg(0)
    buf = ctx.arg(1)
    if handle.resource is None:
        raise ResourceFault(Win32Error.INVALID_HANDLE)
    title = getattr(handle.resource, "title", "") or ""
    ctx.write_string(buf, title, taint=ctx.mint_tag())
    return len(title)


@api(
    "WinExec",
    argc=2,
    returns=Returns.VALUE,
    resource=ResourceType.PROCESS,
    operation=Operation.CREATE,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(2, Win32Error.FILE_NOT_FOUND),  # <32 means failure
)
def win_exec(ctx: ApiContext) -> int:
    command = (ctx.identifier or "").split(" ")[0]
    node = ctx.env.filesystem.lookup(command)
    if node is None:
        raise ResourceFault(Win32Error.FILE_NOT_FOUND, command)

    child = ctx.env.processes.spawn(
        basename(command), image_path=command, integrity=ctx.integrity,
        parent_pid=ctx.process.pid,
    )
    ctx.extra["child_pid"] = child.pid
    return 33


@api(
    "ShellExecuteA",
    argc=3,
    returns=Returns.VALUE,
    resource=ResourceType.PROCESS,
    operation=Operation.CREATE,
    identifier_arg=1,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(2, Win32Error.FILE_NOT_FOUND),
    doc="(hwnd, lpFile, lpParameters) — simplified shell launch.",
)
def shell_execute(ctx: ApiContext) -> int:
    target = ctx.identifier or ""
    node = ctx.env.filesystem.lookup(target)
    if node is None:
        raise ResourceFault(Win32Error.FILE_NOT_FOUND, target)

    ctx.env.processes.spawn(
        basename(target), image_path=target.lower(), integrity=ctx.integrity,
        parent_pid=ctx.process.pid,
    )
    return 42
