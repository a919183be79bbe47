"""Service Control Manager APIs (Type-I kernel-injection / Type-III
persistence signals)."""

from __future__ import annotations

from ..taint.labels import TaintClass
from ..winenv.acl import IntegrityLevel
from ..winenv.errors import NULL, ResourceFault, TRUE, Win32Error
from ..winenv.objects import HandleKind, Operation, ResourceType
from .context import ApiContext
from .labels import FailureSpec, Returns, api


@api(
    "OpenSCManagerA",
    argc=3,
    returns=Returns.HANDLE,
    resource=ResourceType.SERVICE,
    operation=Operation.READ,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(NULL, Win32Error.ACCESS_DENIED),
    doc="Open the SCM — the gateway call of kernel-driver injection (§IV-B).",
)
def open_sc_manager(ctx: ApiContext) -> int:
    ctx.identifier = "scmanager"
    if ctx.integrity < IntegrityLevel.MEDIUM:
        raise ResourceFault(Win32Error.ACCESS_DENIED, "SCM requires medium integrity")
    handle = ctx.alloc_handle(HandleKind.SCMANAGER, None)
    return handle.value


@api(
    "CreateServiceA",
    argc=6,
    returns=Returns.HANDLE,
    resource=ResourceType.SERVICE,
    operation=Operation.CREATE,
    identifier_arg=1,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(NULL, Win32Error.SERVICE_EXISTS),
)
def create_service(ctx: ApiContext) -> int:
    """Register a service: ``(hSCM, name, display, type, start, binaryPath)``."""
    ctx.handle_arg(0)
    name = ctx.identifier or ""
    path, _ = ctx.read_string_arg(5)
    svc = ctx.env.services.create(name, path, ctx.integrity, created_by=ctx.process.pid)
    ctx.extra["binary_path"] = svc.binary_path
    ctx.extra["kernel_driver"] = svc.is_kernel_driver
    handle = ctx.alloc_handle(HandleKind.SERVICE, svc)
    return handle.value


@api(
    "OpenServiceA",
    argc=3,
    returns=Returns.HANDLE,
    resource=ResourceType.SERVICE,
    operation=Operation.CHECK,
    identifier_arg=1,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(NULL, Win32Error.SERVICE_DOES_NOT_EXIST),
)
def open_service(ctx: ApiContext) -> int:
    ctx.handle_arg(0)
    svc = ctx.env.services.open(ctx.identifier or "")
    handle = ctx.alloc_handle(HandleKind.SERVICE, svc)
    return handle.value


@api(
    "StartServiceA",
    argc=3,
    returns=Returns.BOOL,
    resource=ResourceType.SERVICE,
    operation=Operation.EXECUTE,
    identifier_handle_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.SERVICE_ALREADY_RUNNING),
)
def start_service(ctx: ApiContext) -> int:
    handle = ctx.handle_arg(0)
    if handle.resource is None or handle.state.get("phantom"):
        raise ResourceFault(Win32Error.INVALID_HANDLE)
    svc = ctx.env.services.start(handle.resource.name, ctx.integrity)
    ctx.extra["kernel_driver"] = svc.is_kernel_driver
    return TRUE


@api(
    "DeleteService",
    argc=1,
    returns=Returns.BOOL,
    resource=ResourceType.SERVICE,
    operation=Operation.DELETE,
    identifier_handle_arg=0,
    taint=TaintClass.RESOURCE,
    failure=FailureSpec(0, Win32Error.ACCESS_DENIED),
)
def delete_service(ctx: ApiContext) -> int:
    handle = ctx.handle_arg(0)
    if handle.resource is None:
        raise ResourceFault(Win32Error.INVALID_HANDLE)
    ctx.env.services.delete(handle.resource.name, ctx.integrity)
    return TRUE


@api("CloseServiceHandle", argc=1, returns=Returns.BOOL)
def close_service_handle(ctx: ApiContext) -> int:
    ctx.process.handles.close(ctx.arg(0))
    return TRUE


@api(
    "NtLoadDriver",
    argc=1,
    returns=Returns.NTSTATUS,
    resource=ResourceType.SERVICE,
    operation=Operation.EXECUTE,
    identifier_arg=0,
    taint=TaintClass.RESOURCE,
    doc="Undocumented driver load — unambiguous kernel injection.",
)
def nt_load_driver(ctx: ApiContext) -> int:
    if ctx.integrity < IntegrityLevel.HIGH:
        raise ResourceFault(Win32Error.ACCESS_DENIED, "driver load requires high integrity")
    svc = ctx.env.services.lookup(ctx.identifier or "")
    if svc is None:
        raise ResourceFault(Win32Error.SERVICE_DOES_NOT_EXIST, ctx.identifier or "")
    ctx.extra["kernel_driver"] = True
    return 0
