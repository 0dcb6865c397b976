"""CPU instrumentation hooks and static per-instruction register effects.

``reg_effects`` computes which registers an instruction reads and writes,
used by the Pin-style analysis tool (§IV-B of the paper) to detect programs
that expect register contents to survive a syscall.  It reads them off the
operand roles of the instruction's row in :mod:`repro.cpu.ops`, the table
both interpreter tiers execute from, so the analysis and execution cannot
disagree about an operand.  ``tests/test_reg_effects.py`` checks the sets
against single tier-1 steps.

Register identifiers:

* ``("g", i)``  — general purpose register ``i``,
* ``("x", i)``  — xmm register ``i`` (SSE component),
* ``("y", i)``  — the high ymm half of register ``i`` (AVX component),
* ``("st",)``   — the x87 stack, tracked as a unit (X87 component).
"""

from __future__ import annotations

from typing import Protocol

from repro.arch.isa import Instruction
from repro.cpu.ops import ROWS

RegId = tuple


class CpuHook(Protocol):
    """Observer invoked before each instruction executes."""

    def on_insn(self, task, insn: Instruction, addr: int) -> None:
        """Called with the decoded instruction about to run at ``addr``."""


class WindowWatch:
    """CpuHook recording executed instructions inside watched address ranges.

    The fault harness uses this to assert *coverage*: that a schedule
    exploration actually drove execution through every instruction boundary
    of a critical window (e.g. the lazypoline fast-path stub), instead of
    trusting that it did.  ``covered`` holds the executed addresses per
    window; ``hits`` the full (tid, addr) sequence in execution order.
    """

    def __init__(self, windows):
        #: half-open (start, end) address ranges, in priority order
        self.windows = tuple(tuple(w) for w in windows)
        self.covered: set[int] = set()
        self.hits: list[tuple[int, int]] = []

    def on_insn(self, task, insn: Instruction, addr: int) -> None:
        for start, end in self.windows:
            if start <= addr < end:
                self.covered.add(addr)
                self.hits.append((getattr(task, "tid", -1), addr))
                return

    def covered_in(self, start: int, end: int) -> set[int]:
        return {a for a in self.covered if start <= a < end}


def reg_effects(insn: Instruction) -> tuple[frozenset, frozenset]:
    """Return ``(reads, writes)`` register-id sets for ``insn``.

    Derived from the operand roles of its row in the instruction table
    (:mod:`repro.cpu.ops`), plus the row's fixed sets (the syscall ABI,
    the xstate registers of xsave/xrstor) and its zeroing idiom
    (``xor r, r`` and ``xorps x, x`` read nothing).
    """
    row = ROWS[insn.mnemonic.op_index]
    ops = insn.operands
    writes = row.fixed_writes.union([(k, ops[i]) for k, i in row.writes])
    if row.zeroing and ops[0] == ops[1]:
        return frozenset(), writes
    return row.fixed_reads.union([(k, ops[i]) for k, i in row.reads]), writes
