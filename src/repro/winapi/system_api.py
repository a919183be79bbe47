"""System information and entropy APIs.

These are the *sources* determinism analysis classifies identifier roots by:
``ENV_DETERMINISTIC`` outputs (computer name, volume serial…) make an
identifier algorithm-deterministic; ``RANDOM`` outputs make it unpredictable
(paper §IV-C and Figure 2).
"""

from __future__ import annotations

from ..taint.labels import EMPTY, TaintClass
from ..vm.memory import HEAP_BASE
from ..winenv.errors import ResourceFault, TRUE, Win32Error
from ..winenv.filesystem import SYSTEM32
from .context import ApiContext
from .labels import FailureSpec, Returns, api


@api(
    "GetComputerNameA",
    argc=2,
    returns=Returns.BOOL,
    taint=TaintClass.ENV_DETERMINISTIC,
    failure=FailureSpec(0, Win32Error.INSUFFICIENT_BUFFER),
)
def get_computer_name(ctx: ApiContext) -> int:
    """The paper's canonical deterministic seed (Figure 2, Conficker case)."""
    buf, size_ptr = ctx.arg(0), ctx.arg(1)
    name = ctx.env.identity.computer_name
    ctx.write_string(buf, name, taint=ctx.mint_tag())
    if size_ptr:
        ctx.write_u32(size_ptr, len(name))
    return TRUE


@api(
    "GetUserNameA",
    argc=2,
    returns=Returns.BOOL,
    taint=TaintClass.ENV_DETERMINISTIC,
    failure=FailureSpec(0, Win32Error.INSUFFICIENT_BUFFER),
)
def get_user_name(ctx: ApiContext) -> int:
    buf, size_ptr = ctx.arg(0), ctx.arg(1)
    name = ctx.env.identity.user_name
    ctx.write_string(buf, name, taint=ctx.mint_tag())
    if size_ptr:
        ctx.write_u32(size_ptr, len(name))
    return TRUE


@api(
    "GetVolumeInformationA",
    argc=2,
    returns=Returns.BOOL,
    taint=TaintClass.ENV_DETERMINISTIC,
    doc="Simplified: (lpRootPathName, lpVolumeSerialNumber out).",
)
def get_volume_information(ctx: ApiContext) -> int:
    serial_ptr = ctx.arg(1)
    if serial_ptr:
        ctx.write_u32(serial_ptr, ctx.env.identity.volume_serial, ctx.mint_tag())
    return TRUE


@api("GetVersion", argc=0, returns=Returns.VALUE, taint=TaintClass.ENV_DETERMINISTIC)
def get_version(ctx: ApiContext) -> int:
    major, minor, _build = ctx.env.identity.windows_version.split(".")
    return (int(minor) << 8) | int(major)


@api(
    "GetSystemDirectoryA",
    argc=2,
    returns=Returns.VALUE,
    taint=TaintClass.ENV_DETERMINISTIC,
)
def get_system_directory(ctx: ApiContext) -> int:
    buf = ctx.arg(0)
    ctx.write_string(buf, SYSTEM32, taint=ctx.mint_tag())
    return len(SYSTEM32)


@api(
    "GetWindowsDirectoryA",
    argc=2,
    returns=Returns.VALUE,
    taint=TaintClass.ENV_DETERMINISTIC,
)
def get_windows_directory(ctx: ApiContext) -> int:
    buf = ctx.arg(0)
    ctx.write_string(buf, "c:\\windows", taint=ctx.mint_tag())
    return 10


@api(
    "GetEnvironmentVariableA",
    argc=3,
    returns=Returns.VALUE,
    taint=TaintClass.ENV_DETERMINISTIC,
    failure=FailureSpec(0, Win32Error.FILE_NOT_FOUND),
)
def get_environment_variable(ctx: ApiContext) -> int:
    name, _ = ctx.read_string_arg(0)
    buf = ctx.arg(1)
    table = {
        "COMPUTERNAME": ctx.env.identity.computer_name,
        "USERNAME": ctx.env.identity.user_name,
        "TEMP": "c:\\windows\\temp",
        "WINDIR": "c:\\windows",
    }
    value = table.get(name.upper())
    if value is None:

        raise ResourceFault(Win32Error.FILE_NOT_FOUND, name)
    ctx.write_string(buf, value, taint=ctx.mint_tag())
    return len(value)


@api("GetTickCount", argc=0, returns=Returns.VALUE, taint=TaintClass.RANDOM)
def get_tick_count(ctx: ApiContext) -> int:
    return ctx.env.tick_count()


@api("QueryPerformanceCounter", argc=1, returns=Returns.BOOL, taint=TaintClass.RANDOM)
def query_performance_counter(ctx: ApiContext) -> int:
    out = ctx.arg(0)
    ctx.write_u32(out, ctx.env.performance_counter(), ctx.mint_tag())
    return TRUE


@api("GetSystemTime", argc=1, returns=Returns.VOID, taint=TaintClass.RANDOM)
def get_system_time(ctx: ApiContext) -> int:
    out = ctx.arg(0)
    ctx.write_u32(out, ctx.env.tick_count(), ctx.mint_tag())
    return 0


@api("rand", argc=0, returns=Returns.VALUE, taint=TaintClass.RANDOM)
def rand_(ctx: ApiContext) -> int:
    return ctx.env.random_u32() & 0x7FFF


@api("srand", argc=1, returns=Returns.VOID)
def srand_(ctx: ApiContext) -> int:
    return 0


@api("GetLastError", argc=0, returns=Returns.VALUE)
def get_last_error(ctx: ApiContext) -> int:
    """Returns the thread's last error *with the provenance of the API that
    set it*, so ``cmp eax, 0x02`` after a failed OpenMutex is a tainted
    predicate."""
    ctx.retval_taint = ctx.process.__dict__.get("last_error_tag", EMPTY)
    ctx.explicit_last_error = True  # reading must not reset the slot
    return ctx.process.last_error


@api("SetLastError", argc=1, returns=Returns.VOID)
def set_last_error(ctx: ApiContext) -> int:
    ctx.set_last_error(ctx.arg(0), ctx.arg_taint(0))
    return 0


@api("GetCommandLineA", argc=0, returns=Returns.VALUE, taint=TaintClass.ENV_DETERMINISTIC)
def get_command_line(ctx: ApiContext) -> int:
    addr = HEAP_BASE + 0x8000
    ctx.write_string(addr, ctx.process.image_path, taint=ctx.mint_tag())
    return addr
