"""Mutex and event APIs.

``OpenMutexA``'s label follows paper Table I exactly: resource type Mutex,
identifier = 3rd parameter ``lpName``, success = valid handle in EAX, failure
= NULL with ``GetLastError() == 0x02``.
"""

from __future__ import annotations

from ..taint.labels import TaintClass
from ..winenv.acl import Access
from ..winenv.errors import NULL, ResourceFault, TRUE, Win32Error
from ..winenv.objects import HandleKind, Operation, ResourceType
from .context import ApiContext
from .labels import FailureSpec, Returns, api


@api(
    "CreateMutexA",
    argc=3,
    returns=Returns.HANDLE,
    resource=ResourceType.MUTEX,
    operation=Operation.CREATE,
    identifier_arg=2,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(NULL, Win32Error.ACCESS_DENIED),
)
def create_mutex(ctx: ApiContext) -> int:
    """Create/open a named mutex; prior existence flows out via last-error
    (``ERROR_ALREADY_EXISTS``) — the classic duplicate-infection check."""
    name = ctx.identifier or ""
    if not name:
        raise ResourceFault(Win32Error.INVALID_PARAMETER, "anonymous mutex")
    mutex, existed = ctx.env.mutexes.create(name, ctx.integrity, created_by=ctx.process.pid)

    mutex.acl.check(ctx.integrity, Access.CREATE if not existed else Access.READ)
    handle = ctx.alloc_handle(HandleKind.MUTEX, mutex)
    if existed:
        # Success retval with ERROR_ALREADY_EXISTS: report via last_error,
        # tainted so the subsequent GetLastError comparison is flagged.
        ctx.set_last_error(int(Win32Error.ALREADY_EXISTS), ctx.mint_tag())
        ctx.extra["already_exists"] = True
    return handle.value


@api(
    "OpenMutexA",
    argc=3,
    returns=Returns.HANDLE,
    resource=ResourceType.MUTEX,
    operation=Operation.CHECK,
    identifier_arg=2,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(NULL, Win32Error.FILE_NOT_FOUND),  # 0x02, Table I
)
def open_mutex(ctx: ApiContext) -> int:
    mutex = ctx.env.mutexes.open(ctx.identifier or "")
    handle = ctx.alloc_handle(HandleKind.MUTEX, mutex)
    return handle.value


@api("ReleaseMutex", argc=1, returns=Returns.BOOL)
def release_mutex(ctx: ApiContext) -> int:
    ctx.handle_arg(0)
    return TRUE


# Events are transient resources — the paper's taint-source criteria
# (§III-A "Unique Presence") exclude them, so they carry no resource label
# and mint no taint; they exist so benign/malware code can still call them.


@api("CreateEventA", argc=4, returns=Returns.HANDLE)
def create_event(ctx: ApiContext) -> int:
    handle = ctx.alloc_handle(HandleKind.MUTEX, None)
    return handle.value


@api("SetEvent", argc=1, returns=Returns.BOOL)
def set_event(ctx: ApiContext) -> int:
    return TRUE


@api("WaitForSingleObject", argc=2, returns=Returns.VALUE)
def wait_for_single_object(ctx: ApiContext) -> int:
    return 0  # WAIT_OBJECT_0
