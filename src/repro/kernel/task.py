"""Tasks (threads/processes) and the kernel objects they share.

Terminology follows Linux: a *task* is one schedulable thread; a thread
group shares a pid.  ``fork`` copies the address space and file table;
``clone(CLONE_VM | CLONE_FILES | CLONE_SIGHAND | CLONE_THREAD)`` shares
them.  SUD state is strictly per-task and is *not* inherited across fork,
clone or execve — the property lazypoline must compensate for (§IV-A of the
paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.arch.registers import RegisterFile, XComponent
from repro.kernel.sud import SudState
from repro.mem.address_space import AddressSpace


class TaskState(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    ZOMBIE = "zombie"  # exited, not yet reaped
    DEAD = "dead"


# Signal handler sentinels (match Linux).
SIG_DFL = 0
SIG_IGN = 1


@dataclass
class SigAction:
    """One registered signal disposition."""

    handler: int = SIG_DFL  #: guest VA of handler, or SIG_DFL/SIG_IGN
    flags: int = 0
    restorer: int = 0  #: guest VA of the sigreturn restorer (0 = default)
    mask: int = 0  #: additional signals blocked during the handler


class SigHandlers:
    """Signal disposition table, shared between threads of a group."""

    def __init__(self):
        self.actions: dict[int, SigAction] = {}

    def get(self, sig: int) -> SigAction:
        return self.actions.get(sig, SigAction())

    def set(self, sig: int, action: SigAction) -> SigAction:
        old = self.get(sig)
        self.actions[sig] = action
        return old

    def copy(self) -> "SigHandlers":
        clone = SigHandlers()
        clone.actions = {
            sig: SigAction(a.handler, a.flags, a.restorer, a.mask)
            for sig, a in self.actions.items()
        }
        return clone


class FdTable:
    """Open file descriptor table, shared between threads of a group."""

    def __init__(self):
        self.fds: dict[int, object] = {}
        self._next = 3  # 0/1/2 reserved for stdio

    def install(self, desc: object, fd: int | None = None) -> int:
        if fd is None:
            fd = self._next
            while fd in self.fds:
                fd += 1
            self._next = fd + 1
        self.fds[fd] = desc
        return fd

    def get(self, fd: int) -> object | None:
        return self.fds.get(fd)

    def remove(self, fd: int) -> object | None:
        return self.fds.pop(fd, None)

    def copy(self) -> "FdTable":
        clone = FdTable()
        clone.fds = dict(self.fds)
        clone._next = self._next
        return clone


@dataclass
class PendingSignal:
    sig: int
    info: dict = field(default_factory=dict)


class Task:
    """One schedulable thread."""

    def __init__(self, tid: int, pid: int, mem: AddressSpace):
        self.tid = tid
        self.pid = pid  # thread group id
        self.parent: Optional["Task"] = None
        self.comm = "task"
        self.mem = mem
        self.regs = RegisterFile()
        self.xsave_mask = XComponent.all()
        self.state = TaskState.RUNNABLE

        self.fdtable = FdTable()
        self.sighand = SigHandlers()
        self.sigmask = 0  # bitmask of blocked signals
        self.pending: list[PendingSignal] = []

        self.sud: SudState | None = None
        self.seccomp_filters: list = []  # newest last; all run on every syscall
        self.tracer = None  # host-level ptrace tracer, or None

        self.exit_code: int | None = None
        self.term_signal: int | None = None
        self.clear_child_tid = 0
        self.robust_list = 0
        self.brk = 0

        #: Home core (SMP): index of the core whose runqueue holds this
        #: task; updated on idle-steal migration.  Always 0 on 1-core
        #: machines.
        self.core_id = 0
        #: Earliest core-local cycle this task may run at — stamped when it
        #: is created (a forked child cannot start before its parent's
        #: clone returned) and when a cross-core signal wakes it, so an
        #: idle core fast-forwards instead of running the task in the past.
        self.wake_clock = 0

        self.cpu_cycles = 0
        #: Instructions retired by a superblock that faulted mid-run
        #: (faulting instruction included); written by generated block
        #: code just before re-raising, read once by the scheduler.
        self.sb_fault = 0
        self.insn_count = 0
        #: Park state, written only by :meth:`park` and :meth:`wake`.
        self.blocked_reason: Callable[[], bool] | None = None
        self.blocked_interruptible = True
        self.in_syscall_restart: tuple[int, tuple[int, ...]] | None = None

        #: Aggregation-ring entries parked by an async ``ring_enter``
        #: (:class:`repro.kernel.waits.RingWaiter`, in park order) and the
        #: high-water mark of simultaneously parked entries — the direct
        #: measure of how much in-flight I/O one task overlaps.
        self.ring_waiters: list = []
        self.ring_parked_peak = 0
        #: Address of the syscall instruction of the task's latest kernel
        #: crossing (the re-issue address for an interposer's): the IP a
        #: seccomp filter sees for each ring entry that crossing drains.
        self.syscall_ip = 0

        #: Capture buffers for stdio when no real fd is installed.
        self.stdout = bytearray()
        self.stderr = bytearray()

        #: Children (thread-group leaders only track child processes).
        self.children: list[Task] = []

    # ------------------------------------------------------------------ info
    @property
    def xsave_mask(self) -> XComponent:
        return self._xsave_mask

    @xsave_mask.setter
    def xsave_mask(self, mask: XComponent) -> None:
        self._xsave_mask = mask
        #: Component count cached for the CPU's xsave/xrstor cost charge.
        self.xsave_components = bin(mask.value).count("1")

    @property
    def alive(self) -> bool:
        return self.state in (TaskState.RUNNABLE, TaskState.BLOCKED)

    def park(self, ready: Callable[[], bool], *, interruptible: bool,
             restart: tuple[int, tuple[int, ...]] | None = None) -> None:
        """Block until ``ready()``; on wakeup the scheduler re-dispatches
        ``restart`` (``(sysno, args)``), or the task resumes at its rip."""
        self.state = TaskState.BLOCKED
        self.blocked_reason = ready
        self.blocked_interruptible = interruptible
        self.in_syscall_restart = restart

    def wake(self) -> tuple[int, tuple[int, ...]] | None:
        """Make a parked task runnable; returns (and clears) its restart."""
        self.state = TaskState.RUNNABLE
        self.blocked_reason = None
        restart = self.in_syscall_restart
        self.in_syscall_restart = None
        return restart

    def signal_blocked(self, sig: int) -> bool:
        return bool(self.sigmask & (1 << sig))

    def has_deliverable_signal(self) -> bool:
        return any(not self.signal_blocked(p.sig) for p in self.pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task tid={self.tid} pid={self.pid} {self.comm!r} {self.state.value}>"
