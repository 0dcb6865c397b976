"""seccomp-bpf interposition: filters run entirely in kernel space.

High efficiency, limited expressiveness (§II-A): the filter sees only the
syscall number, audit arch, instruction pointer and raw argument registers —
it can never dereference an argument pointer, so "interposition" is limited
to allow / errno / kill / trap verdicts.  There is deliberately no user
interposer callback here; that's the point of Table I's seccomp-bpf row.
"""

from __future__ import annotations

from repro.kernel.seccomp.bpf import BpfProgram
from repro.kernel.seccomp.core import SECCOMP_RET_ERRNO
from repro.kernel.seccomp.filter import FilterBuilder


class SeccompBpfTool:
    """Installs cBPF filters on a process (inherited by its children)."""

    tool_name = "seccomp_bpf"

    def __init__(self, process, programs: list[BpfProgram]):
        self.process = process
        self.programs = programs

    @classmethod
    def _install(
        cls,
        machine,
        process,
        interposer=None,
        *,
        program: BpfProgram | None = None,
        denylist: list[int] | None = None,
        errno_value: int = 1,
    ) -> "SeccompBpfTool":
        """Install ``program``, or a filter failing every syscall in
        ``denylist`` with ``errno_value`` (default: allow-all, the
        pure-overhead probe)."""
        if interposer is not None:
            raise ValueError(
                "seccomp_bpf cannot run an interposer: cBPF filters execute "
                "in kernel space and only return allow/errno/kill/trap "
                "verdicts (Table I). Use tool='seccomp_unotify' or a "
                "SIGSYS-based tool for user-space interposition."
            )
        if denylist is None:
            prog = program or FilterBuilder.allow_all()
        elif program is not None:
            raise TypeError("program= and denylist= are exclusive")
        else:
            prog = FilterBuilder.deny_syscalls(
                denylist, SECCOMP_RET_ERRNO | (errno_value & 0xFFFF)
            )
        process.task.seccomp_filters.append(prog)
        return cls(process, [prog])
