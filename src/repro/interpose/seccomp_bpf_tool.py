"""seccomp-bpf interposition: filters run entirely in kernel space.

High efficiency, limited expressiveness (§II-A): the filter sees only the
syscall number, audit arch, instruction pointer and raw argument registers —
it can never dereference an argument pointer, so "interposition" is limited
to allow / errno / kill / trap verdicts.  There is deliberately no user
interposer callback here; that's the point of Table I's seccomp-bpf row.
"""

from __future__ import annotations

from repro.kernel.seccomp.bpf import BpfProgram
from repro.kernel.seccomp.filter import FilterBuilder


class SeccompBpfTool:
    """Installs cBPF filters on a process (inherited by its children)."""

    tool_name = "seccomp_bpf"

    def __init__(self, process, programs: list[BpfProgram]):
        self.process = process
        self.programs = programs

    @classmethod
    def _install(
        cls, machine, process, program: BpfProgram | None = None
    ) -> "SeccompBpfTool":
        """Install ``program`` (default: allow-all, the pure-overhead probe)."""
        prog = program or FilterBuilder.allow_all()
        process.task.seccomp_filters.append(prog)
        return cls(process, [prog])

    @classmethod
    def _install_denylist(
        cls, machine, process, sysnos: list[int], *, errno_value: int = 1
    ) -> "SeccompBpfTool":
        from repro.kernel.seccomp.core import SECCOMP_RET_ERRNO

        prog = FilterBuilder.deny_syscalls(
            sysnos, SECCOMP_RET_ERRNO | (errno_value & 0xFFFF)
        )
        process.task.seccomp_filters.append(prog)
        return cls(process, [prog])
