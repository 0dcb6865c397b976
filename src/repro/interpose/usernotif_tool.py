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
* return ``None`` — the kernel "continues" the syscall
  (``SECCOMP_USER_NOTIF_FLAG_CONTINUE``) and executes it normally,
* re-issue it itself via ``ctx.do_syscall()`` — the addfd/emulation style,
  charged as supervisor work.
"""

from __future__ import annotations

from repro.interpose.api import (
    Interposer,
    SyscallContext,
    passthrough_interposer,
)
from repro.kernel.seccomp.bpf import BpfProgram
from repro.kernel.seccomp.core import SECCOMP_RET_USER_NOTIF
from repro.kernel.seccomp.filter import FilterBuilder
from repro.kernel.seccomp.bpf import BPF_K, BPF_RET, stmt


def _notify_all_filter() -> BpfProgram:
    return BpfProgram([stmt(BPF_RET | BPF_K, SECCOMP_RET_USER_NOTIF)])


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
        filter_program: BpfProgram | None = None,
    ) -> "UserNotifTool":
        """Install the notify-filter and register the supervisor."""
        tool = cls(machine, interposer or passthrough_interposer)
        process.task.seccomp_filters.append(
            filter_program or _notify_all_filter()
        )
        machine.kernel.usernotif_supervisor = tool._on_notification
        return tool

    @classmethod
    def _install_for_syscalls(
        cls, machine, process, sysnos: list[int],
        interposer: Interposer | None = None,
    ) -> "UserNotifTool":
        """Notify only for ``sysnos``; everything else runs natively."""
        program = FilterBuilder.deny_syscalls(sysnos, SECCOMP_RET_USER_NOTIF)
        return cls._install(machine, process, interposer,
                            filter_program=program)

    # ------------------------------------------------------------- supervisor
    def _on_notification(self, kernel, task, sysno, args) -> int | None:
        self.notifications += 1

        def supervisor_do(nr, a):
            # The supervisor executes the call on the tracee's behalf; the
            # notifying filter does not re-run (the call is attributed to
            # the supervisor's context, like addfd/continue semantics).
            from repro.kernel.waits import WouldBlock

            while True:
                try:
                    return kernel.dispatch(task, nr, a)
                except WouldBlock as block:
                    kernel.wait_until(task, block.ready)

        ctx = SyscallContext(
            kernel,
            task,
            sysno,
            args,
            mechanism="seccomp-unotify",
            do_syscall=supervisor_do,
        )
        return self.interposer(ctx)
