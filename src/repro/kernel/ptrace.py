"""ptrace syscall-stop tracing.

The tracer is a host-level object rather than a second simulated process
(DESIGN.md §6); the *costs* of the real mechanism are charged faithfully:
every syscall-stop costs two context switches (tracee → tracer, tracer →
tracee), and every operation the tracer performs on the stopped tracee
(register or memory access) costs one ptrace request — the "many additional
syscalls required to perform even basic operations" the paper blames for
ptrace's slowness (§II-A).
"""

from __future__ import annotations

from repro.arch.registers import RegisterFile


class TraceeControl:
    """Handed to tracer callbacks during a syscall stop.

    Every accessor charges the tracer's ptrace-request cost to the global
    clock, mirroring PTRACE_GETREGS / PTRACE_SETREGS / PTRACE_PEEKDATA /
    PTRACE_POKEDATA round trips.
    """

    def __init__(self, kernel, task):
        self.kernel = kernel
        self.task = task
        self._skip_retval: int | None = None

    def _charge(self) -> None:
        self.kernel.charge(self.task, self.kernel.costs.ptrace_request)

    # --------------------------------------------------------------- registers
    def getregs(self) -> RegisterFile:
        self._charge()
        return self.task.regs.copy()

    def get_syscall_args(self) -> tuple[int, tuple[int, ...]]:
        """Syscall number and the six argument registers (one GETREGS)."""
        from repro.arch.registers import SYSCALL_ARG_REGS

        self._charge()
        regs = self.task.regs
        return regs.read(0), tuple(regs.read(r) for r in SYSCALL_ARG_REGS)

    def set_retval(self, value: int) -> None:
        self._charge()
        self.task.regs.write(0, value & (1 << 64) - 1)

    def skip_syscall(self, retval: int = 0) -> None:
        """Suppress execution of the stopped syscall (like setting nr=-1)."""
        self._charge()
        self._skip_retval = retval

    # ------------------------------------------------------------------ memory
    def peekdata(self, addr: int, length: int) -> bytes:
        # One ptrace request per word, like the real API.
        words = (length + 7) // 8
        for _ in range(max(words, 1)):
            self._charge()
        return self.task.mem.read(addr, length, check=None)

    def pokedata(self, addr: int, data: bytes) -> None:
        words = (len(data) + 7) // 8
        for _ in range(max(words, 1)):
            self._charge()
        self.task.mem.write(addr, data, check=None)


class PtraceTracer:
    """Base class for host-level tracers.  Subclass and override callbacks."""

    def on_attach(self, ctl: TraceeControl) -> None:
        """Called when the tracer attaches to a task."""

    def on_syscall_enter(self, ctl: TraceeControl) -> None:
        """Syscall-entry stop: inspect/modify number and arguments."""

    def on_syscall_exit(self, ctl: TraceeControl) -> None:
        """Syscall-exit stop: inspect/modify the return value."""


def attach(kernel, task, tracer: PtraceTracer) -> None:
    """PTRACE_ATTACH + PTRACE_SYSCALL equivalent."""
    task.tracer = tracer
    tracer.on_attach(TraceeControl(kernel, task))
