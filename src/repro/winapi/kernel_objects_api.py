"""Named kernel objects beyond mutexes: semaphores, file mappings, atoms,
waitable timers — and named pipes.

These are all real-world infection-marker vectors (the paper's Figure 2
traces a *named pipe* ``\\\\.PIPE\\_AVIRA_2109``).  Named pipes live in the
filesystem namespace (``\\\\.\\pipe\\…``), the rest share the named-kernel-
object namespace, which the environment models with the mutex table — they
are, for vaccine purposes, named markers with create/open semantics, so they
carry the MUTEX resource label (Figure 3 groups them the same way).
"""

from __future__ import annotations

from ..taint.labels import TaintClass
from ..winenv.acl import Access
from ..winenv.errors import NULL, ResourceFault, TRUE, Win32Error
from ..winenv.objects import HandleKind, Operation, ResourceType
from .context import ApiContext
from .labels import FailureSpec, Returns, api

PIPE_PREFIX = "\\\\.\\pipe\\"


def _create_named_object(ctx: ApiContext) -> int:
    name = ctx.identifier or ""
    if not name:
        raise ResourceFault(Win32Error.INVALID_PARAMETER, "anonymous object")
    obj, existed = ctx.env.mutexes.create(name, ctx.integrity, created_by=ctx.process.pid)

    obj.acl.check(ctx.integrity, Access.CREATE if not existed else Access.READ)
    handle = ctx.alloc_handle(HandleKind.MUTEX, obj)
    if existed:
        ctx.set_last_error(int(Win32Error.ALREADY_EXISTS), ctx.mint_tag())
        ctx.extra["already_exists"] = True
    return handle.value


def _open_named_object(ctx: ApiContext) -> int:
    obj = ctx.env.mutexes.open(ctx.identifier or "")
    handle = ctx.alloc_handle(HandleKind.MUTEX, obj)
    return handle.value


@api(
    "CreateSemaphoreA",
    argc=4,
    returns=Returns.HANDLE,
    resource=ResourceType.MUTEX,
    operation=Operation.CREATE,
    identifier_arg=3,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(NULL, Win32Error.ACCESS_DENIED),
)
def create_semaphore(ctx: ApiContext) -> int:
    """(lpAttributes, lInitialCount, lMaximumCount, lpName)."""
    return _create_named_object(ctx)


@api(
    "OpenSemaphoreA",
    argc=3,
    returns=Returns.HANDLE,
    resource=ResourceType.MUTEX,
    operation=Operation.CHECK,
    identifier_arg=2,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(NULL, Win32Error.FILE_NOT_FOUND),
)
def open_semaphore(ctx: ApiContext) -> int:
    return _open_named_object(ctx)


@api(
    "CreateFileMappingA",
    argc=6,
    returns=Returns.HANDLE,
    resource=ResourceType.MUTEX,
    operation=Operation.CREATE,
    identifier_arg=5,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(NULL, Win32Error.ACCESS_DENIED),
    doc="Named shared-memory section — a classic single-instance marker.",
)
def create_file_mapping(ctx: ApiContext) -> int:
    return _create_named_object(ctx)


@api(
    "OpenFileMappingA",
    argc=3,
    returns=Returns.HANDLE,
    resource=ResourceType.MUTEX,
    operation=Operation.CHECK,
    identifier_arg=2,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(NULL, Win32Error.FILE_NOT_FOUND),
)
def open_file_mapping(ctx: ApiContext) -> int:
    return _open_named_object(ctx)


@api(
    "CreateWaitableTimerA",
    argc=3,
    returns=Returns.HANDLE,
    resource=ResourceType.MUTEX,
    operation=Operation.CREATE,
    identifier_arg=2,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(NULL, Win32Error.ACCESS_DENIED),
)
def create_waitable_timer(ctx: ApiContext) -> int:
    return _create_named_object(ctx)


@api(
    "GlobalAddAtomA",
    argc=1,
    returns=Returns.VALUE,
    resource=ResourceType.MUTEX,
    operation=Operation.CREATE,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.ACCESS_DENIED),
    doc="Global atom table entry — marker returning a 16-bit atom.",
)
def global_add_atom(ctx: ApiContext) -> int:
    name = ctx.identifier or ""
    if not name:
        raise ResourceFault(Win32Error.INVALID_PARAMETER)
    ctx.env.mutexes.create(f"atom:{name}", ctx.integrity, created_by=ctx.process.pid)
    return 0xC000 + (sum(name.encode("latin-1", "replace")) & 0x3FFF)


@api(
    "GlobalFindAtomA",
    argc=1,
    returns=Returns.VALUE,
    resource=ResourceType.MUTEX,
    operation=Operation.CHECK,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.FILE_NOT_FOUND),
)
def global_find_atom(ctx: ApiContext) -> int:
    name = ctx.identifier or ""
    if not ctx.env.mutexes.exists(f"atom:{name}"):
        raise ResourceFault(Win32Error.FILE_NOT_FOUND, name)
    return 0xC000 + (sum(name.encode("latin-1", "replace")) & 0x3FFF)


# -- named pipes (filesystem namespace, as in paper Figure 2) ----------------


@api(
    "CreateNamedPipeA",
    argc=4,
    returns=Returns.HANDLE,
    resource=ResourceType.FILE,
    operation=Operation.CREATE,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0xFFFFFFFF, Win32Error.ACCESS_DENIED),
    doc="(lpName \\\\.\\pipe\\…, dwOpenMode, dwPipeMode, nMaxInstances).",
)
def create_named_pipe(ctx: ApiContext) -> int:
    name = (ctx.identifier or "").lower()
    if not name.startswith(PIPE_PREFIX.lower()):
        raise ResourceFault(Win32Error.INVALID_PARAMETER, name)
    node = ctx.env.filesystem.create(
        name, ctx.integrity, exist_ok=True, created_by=ctx.process.pid
    )
    handle = ctx.alloc_handle(HandleKind.FILE, node)
    return handle.value


@api(
    "WaitNamedPipeA",
    argc=2,
    returns=Returns.BOOL,
    resource=ResourceType.FILE,
    operation=Operation.CHECK,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.FILE_NOT_FOUND),
)
def wait_named_pipe(ctx: ApiContext) -> int:
    """Existence probe for a server pipe — the other half of the marker."""
    if not ctx.env.filesystem.exists(ctx.identifier or ""):
        raise ResourceFault(Win32Error.FILE_NOT_FOUND, ctx.identifier or "")
    return TRUE


@api(
    "CallNamedPipeA",
    argc=6,
    returns=Returns.BOOL,
    resource=ResourceType.FILE,
    operation=Operation.WRITE,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.FILE_NOT_FOUND),
)
def call_named_pipe(ctx: ApiContext) -> int:
    """(name, inBuf, inLen, outBuf, outLen, timeout): transact on a pipe."""
    name = ctx.identifier or ""
    if not ctx.env.filesystem.exists(name):
        raise ResourceFault(Win32Error.FILE_NOT_FOUND, name)
    in_buf, in_len = ctx.arg(1), ctx.arg(2)
    out_buf = ctx.arg(3)
    if in_buf and in_len:
        data = ctx.read_buffer(in_buf, min(in_len, 256))
        ctx.env.filesystem.write(name, ctx.integrity, data)
    if out_buf:
        ctx.write_buffer(out_buf, b"ACK", taint=ctx.mint_tag())
    return TRUE
