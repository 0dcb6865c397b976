"""Syscall numbers (x86-64 Linux values) and the dispatch registry.

Implementations register themselves with the :func:`syscall` decorator.
Each entry carries its service cost from
:data:`repro.cpu.costs.SERVICE_COSTS` — the kernel-side work of the call
beyond the mode switch — so syscall-intensive workloads (the paper's web
servers) cost realistic amounts relative to the interposition overhead
being measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cpu.costs import DEFAULT_SERVICE_COST, SERVICE_COSTS

#: x86-64 syscall numbers (subset).
NR = {
    "read": 0,
    "write": 1,
    "open": 2,
    "close": 3,
    "stat": 4,
    "fstat": 5,
    "lseek": 8,
    "readv": 19,
    "writev": 20,
    "mmap": 9,
    "mprotect": 10,
    "munmap": 11,
    "brk": 12,
    "rt_sigaction": 13,
    "rt_sigprocmask": 14,
    "rt_sigreturn": 15,
    "ioctl": 16,
    "pread64": 17,
    "pwrite64": 18,
    "access": 21,
    "pipe": 22,
    "sched_yield": 24,
    "dup": 32,
    "nanosleep": 35,
    "getpid": 39,
    "sendfile": 40,
    "socket": 41,
    "connect": 42,
    "accept": 43,
    "shutdown": 48,
    "bind": 49,
    "listen": 50,
    "setsockopt": 54,
    "clone": 56,
    "fork": 57,
    "vfork": 58,
    "execve": 59,
    "exit": 60,
    "wait4": 61,
    "kill": 62,
    "uname": 63,
    "fcntl": 72,
    "getcwd": 79,
    "chdir": 80,
    "rename": 82,
    "mkdir": 83,
    "rmdir": 84,
    "unlink": 87,
    "chmod": 90,
    "getuid": 102,
    "getppid": 110,
    "sigaltstack": 131,
    "prctl": 157,
    "arch_prctl": 158,
    "gettid": 186,
    "time": 201,
    "futex": 202,
    "getdents64": 217,
    "set_tid_address": 218,
    "clock_gettime": 228,
    "clock_nanosleep": 230,
    "exit_group": 231,
    "epoll_wait": 232,
    "epoll_ctl": 233,
    "tgkill": 234,
    "openat": 257,
    "set_robust_list": 273,
    "accept4": 288,
    "epoll_create1": 291,
    "seccomp": 317,
    "getrandom": 318,
    "pkey_mprotect": 329,
    "pkey_alloc": 330,
    "pkey_free": 331,
    "ring_enter": 426,  # io_uring_enter's number, repurposed for our ring
}

_NAME_BY_NR = {nr: name for name, nr in NR.items()}


def syscall_name(nr: int) -> str:
    return _NAME_BY_NR.get(nr, f"sys_{nr}")


@dataclass(frozen=True)
class SyscallEntry:
    nr: int
    name: str
    fn: Callable
    service_cost: int


_PENDING: dict[int, SyscallEntry] = {}


def syscall(name: str):
    """Register a syscall implementation under its Linux name."""

    def decorator(fn: Callable) -> Callable:
        nr = NR[name]
        cost = SERVICE_COSTS.get(name, DEFAULT_SERVICE_COST)
        _PENDING[nr] = SyscallEntry(nr, name, fn, cost)
        return fn

    return decorator


def build_registry() -> dict[int, SyscallEntry]:
    """Import all implementation modules and return the dispatch table."""
    # Imports are deferred so the decorator side effects run exactly once
    # per interpreter, after which the table is complete.
    from repro.kernel.syscalls import (  # noqa: F401
        fs_calls,
        misc,
        mm,
        net_calls,
        proc,
        signal_calls,
    )
    from repro.kernel import uring  # noqa: F401

    return dict(_PENDING)
