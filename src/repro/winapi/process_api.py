"""Process and thread APIs, including the injection primitives whose trace
patterns drive Type-IV (benign-process injection) detection."""

from __future__ import annotations

from ..taint.labels import TaintClass
from ..winenv.acl import Access, IntegrityLevel
from ..winenv.errors import NULL, ResourceFault, TRUE, Win32Error
from ..winenv.filesystem import basename
from ..winenv.objects import HandleKind, Operation, ResourceType
from ..winenv.processes import RemoteWrite
from .context import ApiContext
from .labels import FailureSpec, Returns, api


@api(
    "CreateProcessA",
    argc=4,
    returns=Returns.BOOL,
    resource=ResourceType.PROCESS,
    operation=Operation.CREATE,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.FILE_NOT_FOUND),
)
def create_process(ctx: ApiContext) -> int:
    """Spawn a child process from an image path (signature reduced to
    ``(lpApplicationName, lpCommandLine, lpStartupInfo, lpProcessInformation)``)."""
    image = ctx.identifier or ""
    if not image:
        image, _ = ctx.read_string_arg(1)
    norm = image.lower()
    node = ctx.env.filesystem.lookup(norm)
    if node is None:
        raise ResourceFault(Win32Error.FILE_NOT_FOUND, norm)
    node.acl.check(ctx.integrity, Access.EXECUTE)

    child = ctx.env.processes.spawn(
        basename(norm), image_path=norm, integrity=ctx.integrity, parent_pid=ctx.process.pid
    )
    ctx.extra["child_pid"] = child.pid
    info_ptr = ctx.arg(3)
    if info_ptr:
        handle = ctx.alloc_handle(HandleKind.PROCESS, child)
        ctx.write_u32(info_ptr, handle.value, ctx.mint_tag())
        ctx.write_u32(info_ptr + 4, child.pid)
    return TRUE


@api(
    "OpenProcess",
    argc=3,
    returns=Returns.HANDLE,
    resource=ResourceType.PROCESS,
    operation=Operation.READ,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(NULL, Win32Error.INVALID_PARAMETER),
)
def open_process(ctx: ApiContext) -> int:
    pid = ctx.arg(2)
    proc = ctx.env.processes.open(pid)
    ctx.identifier = proc.name
    ctx.extra["target_pid"] = pid
    handle = ctx.alloc_handle(HandleKind.PROCESS, proc)
    return handle.value


@api(
    "FindProcessA",
    argc=1,
    returns=Returns.VALUE,
    resource=ResourceType.PROCESS,
    operation=Operation.CHECK,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.FILE_NOT_FOUND),
    doc="Convenience Toolhelp-walk: pid of the first alive process by name.",
)
def find_process(ctx: ApiContext) -> int:
    proc = ctx.env.processes.find_by_name(ctx.identifier or "")
    if proc is None:
        raise ResourceFault(Win32Error.FILE_NOT_FOUND, ctx.identifier or "")
    return proc.pid


@api(
    "VirtualAllocEx",
    argc=5,
    returns=Returns.VALUE,
    failure=FailureSpec(NULL, Win32Error.ACCESS_DENIED),
)
def virtual_alloc_ex(ctx: ApiContext) -> int:
    ctx.handle_arg(0)
    return 0x7F000000  # remote allocation base (opaque)


@api(
    "WriteProcessMemory",
    argc=5,
    returns=Returns.BOOL,
    resource=ResourceType.PROCESS,
    operation=Operation.WRITE,
    identifier_handle_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.ACCESS_DENIED),
)
def write_process_memory(ctx: ApiContext) -> int:
    """Cross-process write — the core injection evidence."""
    handle = ctx.handle_arg(0)
    size = ctx.arg(3)
    target = handle.resource
    if target is None or handle.state.get("phantom"):
        raise ResourceFault(Win32Error.INVALID_HANDLE)
    if target.integrity > ctx.integrity:
        raise ResourceFault(Win32Error.ACCESS_DENIED, target.name)

    target.remote_writes.append(RemoteWrite(writer_pid=ctx.process.pid, size=size))
    ctx.extra["target_process"] = target.name
    return TRUE


@api(
    "CreateRemoteThread",
    argc=7,
    returns=Returns.HANDLE,
    resource=ResourceType.PROCESS,
    operation=Operation.EXECUTE,
    identifier_handle_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(NULL, Win32Error.ACCESS_DENIED),
)
def create_remote_thread(ctx: ApiContext) -> int:
    handle = ctx.handle_arg(0)
    target = handle.resource
    if target is None or handle.state.get("phantom"):
        raise ResourceFault(Win32Error.INVALID_HANDLE)
    if target.integrity > ctx.integrity:
        raise ResourceFault(Win32Error.ACCESS_DENIED, target.name)
    target.remote_threads.append(ctx.process.pid)
    ctx.extra["target_process"] = target.name
    thread = ctx.alloc_handle(HandleKind.THREAD, target)
    return thread.value


@api("GetCurrentProcessId", argc=0, returns=Returns.VALUE)
def get_current_process_id(ctx: ApiContext) -> int:
    return ctx.process.pid


@api("TerminateProcess", argc=2, returns=Returns.BOOL)
def terminate_process(ctx: ApiContext) -> int:
    """Terminate a process (self-termination ends the run)."""
    handle = ctx.handle_arg(0)
    code = ctx.arg(1)
    target = handle.resource
    if target is not None and target.pid != ctx.process.pid:
        target.terminate(code)
        return TRUE
    ctx.cpu.terminate(code)
    return TRUE


@api("ExitProcess", argc=1, returns=Returns.VOID)
def exit_process(ctx: ApiContext) -> int:
    ctx.cpu.terminate(ctx.arg(0))
    return 0


@api("ExitThread", argc=1, returns=Returns.VOID)
def exit_thread(ctx: ApiContext) -> int:
    """Single-threaded guests: exiting the main thread ends the process."""
    ctx.cpu.terminate(ctx.arg(0))
    return 0


@api("IsDebuggerPresent", argc=0, returns=Returns.VALUE, taint=TaintClass.ENV_DETERMINISTIC)
def is_debugger_present(ctx: ApiContext) -> int:
    return 0


@api("Sleep", argc=1, returns=Returns.VOID)
def sleep(ctx: ApiContext) -> int:
    return 0
