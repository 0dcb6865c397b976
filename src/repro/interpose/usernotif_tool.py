"""seccomp USER_NOTIF interposition: a supervisor process model.

``SECCOMP_RET_USER_NOTIF`` (the newer seccomp action §II-A mentions for
deferring handling to user space) parks the tracee while a *supervisor* —
here a host-level model, like the ptrace tracer — decides the syscall's
fate through the notification fd.  Each notification costs two context
switches each way, which is why this is grouped with the "Moderate"
efficiency mechanisms despite its in-kernel filter.

The supervisor can answer a notification three ways, mirroring the real
API:

* return an integer — the syscall is *not* executed; that value (or
  negative errno) goes back to the tracee,
* return ``None`` without executing it — the kernel "continues" the
  syscall (``SECCOMP_USER_NOTIF_FLAG_CONTINUE``) and executes it normally,
* re-issue it itself via ``ctx.do_syscall()`` — the addfd/emulation style,
  charged as supervisor work.  The call then runs exactly once: a ``None``
  result (``rt_sigreturn``, ``exit_group``) leaves the registers as the
  call left them.  A blocking call waits in ``Kernel.dispatch_blocking``,
  so a deliverable signal aborts it with ``-EINTR`` like any other tool.
"""

from __future__ import annotations

from repro.interpose.api import (
    Interposer,
    SyscallContext,
    passthrough_interposer,
)
from repro.kernel.seccomp.bpf import BPF_K, BPF_RET, BpfProgram, stmt
from repro.kernel.seccomp.core import SECCOMP_RET_USER_NOTIF
from repro.kernel.seccomp.filter import FilterBuilder


class UserNotifTool:
    """Interposition through a user-notification supervisor."""

    tool_name = "seccomp_unotify"

    def __init__(self, machine, interposer: Interposer):
        self.machine = machine
        self.interposer = interposer
        self.notifications = 0

    @classmethod
    def _install(
        cls,
        machine,
        process,
        interposer: Interposer | None = None,
        *,
        sysnos: list[int] | None = None,
    ) -> "UserNotifTool":
        """Install the notify-filter and register the supervisor.

        With ``sysnos`` only those syscalls notify; everything else runs
        natively.
        """
        tool = cls(machine, interposer or passthrough_interposer)
        if sysnos is None:
            program = BpfProgram([stmt(BPF_RET | BPF_K, SECCOMP_RET_USER_NOTIF)])
        else:
            program = FilterBuilder.deny_syscalls(sysnos, SECCOMP_RET_USER_NOTIF)
        process.task.seccomp_filters.append(program)
        machine.kernel.usernotif_supervisor = tool._on_notification
        return tool

    # ------------------------------------------------------------- supervisor
    def _on_notification(self, kernel, task, sysno, args) -> int | str | None:
        self.notifications += 1
        executed = False

        def supervisor_do(nr, a):
            # The supervisor executes the call on the tracee's behalf; the
            # notifying filter does not re-run (the call is attributed to
            # the supervisor's context, like addfd/continue semantics).
            nonlocal executed
            executed = True
            return kernel.dispatch_blocking(task, nr, a)

        ctx = SyscallContext(
            kernel,
            task,
            sysno,
            args,
            mechanism="seccomp-unotify",
            do_syscall=supervisor_do,
        )
        ret = self.interposer(ctx)
        if ret is None and executed:
            # Already ran (rt_sigreturn, exit_group): continuing would
            # execute it a second time.
            return "handled"
        return ret
