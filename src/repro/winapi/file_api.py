"""File APIs (labelled per paper Table I conventions)."""

from __future__ import annotations

from ..taint.labels import TaintClass
from ..winenv.acl import Access
from ..winenv.errors import (
    INVALID_HANDLE_VALUE,
    ResourceFault,
    TRUE,
    Win32Error,
)
from ..winenv.filesystem import normalize_path, TEMP_DIR
from ..winenv.objects import HandleKind, Operation, ResourceType
from .context import ApiContext
from .labels import FailureSpec, Returns, api

GENERIC_READ = 0x80000000
GENERIC_WRITE = 0x40000000

CREATE_NEW = 1
CREATE_ALWAYS = 2
OPEN_EXISTING = 3
OPEN_ALWAYS = 4

FILE_ATTRIBUTE_NORMAL = 0x20
FILE_ATTRIBUTE_DIRECTORY = 0x10
INVALID_FILE_ATTRIBUTES = 0xFFFFFFFF


@api(
    "CreateFileA",
    argc=7,
    returns=Returns.HANDLE,
    resource=ResourceType.FILE,
    operation=Operation.CREATE,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(INVALID_HANDLE_VALUE, Win32Error.FILE_NOT_FOUND),
)
def create_file(ctx: ApiContext) -> int:
    """Open or create a file per its creation disposition."""
    path = ctx.identifier or ""
    access = ctx.arg(1)
    disposition = ctx.arg(4)
    fs = ctx.env.filesystem

    if disposition in (CREATE_NEW, CREATE_ALWAYS):
        ctx.operation_override = Operation.CREATE
        node = fs.create(
            path,
            ctx.integrity,
            exist_ok=(disposition == CREATE_ALWAYS),
            created_by=ctx.process.pid,
        )
    elif disposition == OPEN_ALWAYS:
        node = fs.lookup(path)
        if node is None:
            ctx.operation_override = Operation.CREATE
            node = fs.create(path, ctx.integrity, created_by=ctx.process.pid)
        else:
            ctx.operation_override = Operation.READ
    else:  # OPEN_EXISTING
        ctx.operation_override = Operation.READ
        node = fs.lookup(path)
        if node is None:
            raise ResourceFault(Win32Error.FILE_NOT_FOUND, path)
        wanted = Access.WRITE if access & GENERIC_WRITE else Access.READ
        node.acl.check(ctx.integrity, wanted)

    handle = ctx.alloc_handle(HandleKind.FILE, node)
    return handle.value


@api(
    "GetFileAttributesA",
    argc=1,
    returns=Returns.VALUE,
    resource=ResourceType.FILE,
    operation=Operation.CHECK,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(INVALID_FILE_ATTRIBUTES, Win32Error.FILE_NOT_FOUND),
)
def get_file_attributes(ctx: ApiContext) -> int:
    """Existence check: attributes or INVALID_FILE_ATTRIBUTES."""
    node = ctx.env.filesystem.lookup(ctx.identifier or "")
    if node is None:
        raise ResourceFault(Win32Error.FILE_NOT_FOUND, ctx.identifier or "")
    return FILE_ATTRIBUTE_DIRECTORY if node.is_directory else FILE_ATTRIBUTE_NORMAL


@api(
    "ReadFile",
    argc=5,
    returns=Returns.BOOL,
    resource=ResourceType.FILE,
    operation=Operation.READ,
    identifier_handle_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.READ_FAULT),
)
def read_file(ctx: ApiContext) -> int:
    """Read from a file handle; buffer bytes are resource-tainted."""
    handle = ctx.handle_arg(0)
    buf, want = ctx.arg(1), ctx.arg(2)
    read_ptr = ctx.arg(3)
    node = handle.resource
    if node is None or handle.state.get("phantom"):
        data = b""
    else:
        data = ctx.env.filesystem.read(node.name, ctx.integrity, offset=handle.cursor, size=want)
        handle.cursor += len(data)
    tag = ctx.mint_tag()
    ctx.write_buffer(buf, data, taint=tag)
    if read_ptr:
        ctx.write_u32(read_ptr, len(data), tag)
    return TRUE


@api(
    "WriteFile",
    argc=5,
    returns=Returns.BOOL,
    resource=ResourceType.FILE,
    operation=Operation.WRITE,
    identifier_handle_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.ACCESS_DENIED),
)
def write_file(ctx: ApiContext) -> int:
    handle = ctx.handle_arg(0)
    buf, size = ctx.arg(1), ctx.arg(2)
    written_ptr = ctx.arg(3)
    data = ctx.read_buffer(buf, size)
    node = handle.resource
    if node is None:
        raise ResourceFault(Win32Error.INVALID_HANDLE)
    if not handle.state.get("phantom"):
        ctx.env.filesystem.write(node.name, ctx.integrity, data)
    if written_ptr:
        ctx.write_u32(written_ptr, len(data))
    return TRUE


@api(
    "DeleteFileA",
    argc=1,
    returns=Returns.BOOL,
    resource=ResourceType.FILE,
    operation=Operation.DELETE,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.FILE_NOT_FOUND),
)
def delete_file(ctx: ApiContext) -> int:
    ctx.env.filesystem.delete(ctx.identifier or "", ctx.integrity)
    return TRUE


@api(
    "CopyFileA",
    argc=3,
    returns=Returns.BOOL,
    resource=ResourceType.FILE,
    operation=Operation.CREATE,
    identifier_arg=1,  # the *destination* is the vaccine-relevant identifier
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.FILE_EXISTS),
)
def copy_file(ctx: ApiContext) -> int:
    """Self-copy dropper primitive: dst existing (with bFailIfExists) fails."""
    src, _ = ctx.read_string_arg(0)
    dst = ctx.identifier or ""
    fail_if_exists = ctx.arg(2)
    fs = ctx.env.filesystem
    source = fs.lookup(src)
    content = bytes(source.content) if source is not None else b"MZ\x90fakebinary"
    fs.create(
        dst,
        ctx.integrity,
        content=content,
        exist_ok=not fail_if_exists,
        created_by=ctx.process.pid,
    )
    return TRUE


@api(
    "MoveFileA",
    argc=2,
    returns=Returns.BOOL,
    resource=ResourceType.FILE,
    operation=Operation.WRITE,
    identifier_arg=1,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.FILE_NOT_FOUND),
)
def move_file(ctx: ApiContext) -> int:
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
    "CreateDirectoryA",
    argc=2,
    returns=Returns.BOOL,
    resource=ResourceType.FILE,
    operation=Operation.CREATE,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.ALREADY_EXISTS),
)
def create_directory(ctx: ApiContext) -> int:
    path = ctx.identifier or ""
    fs = ctx.env.filesystem
    if fs.exists(path):
        raise ResourceFault(Win32Error.ALREADY_EXISTS, path)
    node = fs.create(path, ctx.integrity, created_by=ctx.process.pid)
    node.is_directory = True
    return TRUE


@api(
    "FindFirstFileA",
    argc=2,
    returns=Returns.HANDLE,
    resource=ResourceType.FILE,
    operation=Operation.CHECK,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(INVALID_HANDLE_VALUE, Win32Error.FILE_NOT_FOUND),
)
def find_first_file(ctx: ApiContext) -> int:
    """Existence probe (wildcards match a directory listing prefix)."""
    pattern = normalize_path(ctx.identifier or "")
    fs = ctx.env.filesystem
    if "*" in pattern:
        prefix = pattern.split("*", 1)[0]
        found = any(node.name.startswith(prefix) for node in fs)
    else:
        found = fs.exists(pattern)
    if not found:
        raise ResourceFault(Win32Error.FILE_NOT_FOUND, pattern)
    handle = ctx.alloc_handle(HandleKind.FILE, fs.lookup(pattern))
    return handle.value


@api(
    "GetFileSize",
    argc=2,
    returns=Returns.VALUE,
    resource=ResourceType.FILE,
    operation=Operation.READ,
    identifier_handle_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0xFFFFFFFF, Win32Error.INVALID_HANDLE),
)
def get_file_size(ctx: ApiContext) -> int:
    handle = ctx.handle_arg(0)
    if handle.resource is None:
        raise ResourceFault(Win32Error.INVALID_HANDLE)
    node = ctx.env.filesystem.lookup(handle.resource.name)
    return node.size if node is not None else 0


@api(
    "SetFilePointer",
    argc=4,
    returns=Returns.VALUE,
    failure=FailureSpec(0xFFFFFFFF, Win32Error.INVALID_HANDLE),
)
def set_file_pointer(ctx: ApiContext) -> int:
    handle = ctx.handle_arg(0)
    handle.cursor = ctx.arg(1)
    return handle.cursor


@api(
    "GetTempFileNameA",
    argc=4,
    returns=Returns.VALUE,
    taint=TaintClass.RANDOM,
    failure=FailureSpec(0, Win32Error.PATH_NOT_FOUND),
)
def get_temp_file_name(ctx: ApiContext) -> int:
    """Random name generator — canonical non-deterministic source (§IV-C)."""
    prefix, _ = ctx.read_string_arg(1)
    out = ctx.arg(3)
    name = ctx.env.temp_file_name(prefix or "tmp")
    tag = ctx.mint_tag()
    ctx.write_string(out, name, taint=tag)
    ctx.env.filesystem.create(name, ctx.integrity, exist_ok=True, created_by=ctx.process.pid)
    return ctx.env.random_u32() & 0xFFFF


@api(
    "GetTempPathA",
    argc=2,
    returns=Returns.VALUE,
    taint=TaintClass.ENV_DETERMINISTIC,
)
def get_temp_path(ctx: ApiContext) -> int:
    buf = ctx.arg(1)
    ctx.write_string(buf, TEMP_DIR + "\\", taint=ctx.mint_tag())
    return len(TEMP_DIR) + 1


@api(
    "GetModuleFileNameA",
    argc=3,
    returns=Returns.VALUE,
    taint=TaintClass.ENV_DETERMINISTIC,
)
def get_module_file_name(ctx: ApiContext) -> int:
    """Own image path (deterministic per machine/deployment)."""
    buf = ctx.arg(1)
    path = ctx.process.image_path
    ctx.write_string(buf, path, taint=ctx.mint_tag())
    return len(path)


@api(
    "NtOpenFile",
    argc=3,
    returns=Returns.NTSTATUS,
    resource=ResourceType.FILE,
    operation=Operation.READ,
    identifier_arg=2,
    taint=TaintClass.RESOURCE,
)
def nt_open_file(ctx: ApiContext) -> int:
    """NT-style open: handle returned via the first (out) parameter."""
    out_ptr = ctx.arg(0)
    node = ctx.env.filesystem.lookup(ctx.identifier or "")
    if node is None:
        raise ResourceFault(Win32Error.FILE_NOT_FOUND, ctx.identifier or "")
    handle = ctx.alloc_handle(HandleKind.FILE, node)
    ctx.write_u32(out_ptr, handle.value, ctx.mint_tag())
    return 0


@api("CloseHandle", argc=1, returns=Returns.BOOL)
def close_handle(ctx: ApiContext) -> int:
    ctx.process.handles.close(ctx.arg(0))
    return TRUE
