"""seccomp actions and per-task filter evaluation."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.kernel.seccomp.bpf import BpfProgram, run_bpf

# Action values (match Linux uapi).
SECCOMP_RET_KILL_PROCESS = 0x80000000
SECCOMP_RET_KILL_THREAD = 0x00000000
SECCOMP_RET_TRAP = 0x00030000
SECCOMP_RET_ERRNO = 0x00050000
SECCOMP_RET_USER_NOTIF = 0x7FC00000
SECCOMP_RET_TRACE = 0x7FF00000
SECCOMP_RET_LOG = 0x7FFC0000
SECCOMP_RET_ALLOW = 0x7FFF0000

SECCOMP_RET_ACTION_FULL = 0xFFFF0000
SECCOMP_RET_DATA = 0x0000FFFF

#: Action precedence, strongest first (Linux semantics: with multiple
#: filters installed, the most restrictive result wins).
_PRECEDENCE = (
    SECCOMP_RET_KILL_PROCESS,
    SECCOMP_RET_KILL_THREAD,
    SECCOMP_RET_TRAP,
    SECCOMP_RET_ERRNO,
    SECCOMP_RET_USER_NOTIF,
    SECCOMP_RET_TRACE,
    SECCOMP_RET_LOG,
    SECCOMP_RET_ALLOW,
)
_RANK = {action: i for i, action in enumerate(_PRECEDENCE)}

_DATA_STRUCT = struct.Struct("<II Q 6Q")


@dataclass(frozen=True)
class SeccompData:
    """The ``struct seccomp_data`` a filter sees."""

    nr: int
    arch: int
    instruction_pointer: int
    args: tuple[int, int, int, int, int, int]

    def pack(self) -> bytes:
        return _DATA_STRUCT.pack(
            self.nr & 0xFFFFFFFF,
            self.arch & 0xFFFFFFFF,
            self.instruction_pointer,
            *self.args,
        )


# Offsets within seccomp_data, for building filters.
SECCOMP_DATA_NR = 0
SECCOMP_DATA_ARCH = 4
SECCOMP_DATA_IP_LO = 8
SECCOMP_DATA_IP_HI = 12


@dataclass(frozen=True)
class SeccompResult:
    """Combined verdict of all installed filters."""

    action: int  # masked action value
    data: int  # SECCOMP_RET_DATA bits of the winning verdict
    insns_executed: int  # total BPF instructions run (for the cost model)


def evaluate_filters(filters: list[BpfProgram], data: SeccompData) -> SeccompResult:
    """Run every installed filter; the most restrictive action wins."""
    packed = data.pack()
    best_action = SECCOMP_RET_ALLOW
    best_data = 0
    total_insns = 0
    for program in filters:
        ret, executed = run_bpf(program, packed)
        total_insns += executed
        action = ret & SECCOMP_RET_ACTION_FULL
        rank = _RANK.get(action)
        if rank is None:
            # Unknown action: the kernel treats it as KILL_PROCESS.
            action, rank = SECCOMP_RET_KILL_PROCESS, 0
        if rank < _RANK[best_action]:
            best_action = action
            best_data = ret & SECCOMP_RET_DATA
    return SeccompResult(best_action, best_data, total_insns)
