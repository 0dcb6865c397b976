"""Single-instruction lockstep: one tier-1 step vs a one-instruction block.

For every mnemonic a superblock can start with, one ``CPU.step`` and one
``compile_block(..., max_len=1)`` call must leave the same registers,
flags, rip, memory and charged cycles, and fault the same way (the block
rewinds rip to the instruction and records one retired instruction in
``task.sb_fault``, where the scheduler rewinds a faulting step).

The guest-level lockstep suites draw a few registers and small
immediates; here every operand is full-range: all 16 registers (``rsp``
as an operand of ``push``/``pop``/``call``, and ``d == s``), negative
immediates and displacements, shift counts up to 255 and random memory
contents.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from insn_corpus import CODE, cases, machine, memory
from repro.arch.isa import Mnemonic
from repro.cpu.superblock import compile_block
from repro.errors import BreakpointTrap, InvalidOpcode, PageFault

pytestmark = pytest.mark.superblock

M = Mnemonic

#: Every mnemonic a block can start with: the compiled straight-line ops
#: and the compiled-in terminators.  ``nop`` (slid, never compiled),
#: xsave and xrstor (never a block head) are covered by the guest-level
#: suites instead.
COMPILABLE = (
    M.MOV_IMM64, M.MOV, M.LOAD, M.STORE, M.LOAD8, M.STORE8, M.GSLOAD,
    M.GSSTORE, M.GSLOAD8, M.GSSTORE8, M.LEA, M.ADD, M.SUB, M.CMP, M.AND,
    M.OR, M.XOR, M.IMUL, M.SHL, M.SHR, M.ADDI, M.SUBI, M.CMPI, M.ANDI,
    M.ORI, M.XORI, M.INC, M.DEC, M.PUSH, M.POP,
    M.RET, M.CALL_REG, M.JMP_REG, M.CALL_REL, M.JMP_REL, M.JZ, M.JNZ,
    M.JL, M.JG, M.JGE, M.JLE,
)

_FAULTS = (PageFault, InvalidOpcode, BreakpointTrap)


def _outcome(exc):
    if exc is None:
        return None
    return type(exc).__name__, getattr(exc, "address", None), str(exc)


def _tier1(m, ops, regs, seed):
    cpu, task, env = machine(m, ops, regs, seed)
    exc = None
    try:
        cpu.step(task)
    except _FAULTS as e:
        exc = e
        task.regs.rip = CODE  # the scheduler's handle_fault rewind
    return task, env, exc


def _tier2(m, ops, regs, seed):
    cpu, task, env = machine(m, ops, regs, seed)
    count = task.xsave_components
    block = compile_block(task.mem, CODE, cpu._cost_table,
                          (count, cpu.costs.xsave_cost(count)), max_len=1)
    assert block.fn is not None and block.n == 1, m
    exc = None
    try:
        retired = block.fn(task, env.charge)
    except _FAULTS as e:
        exc = e
        retired = task.sb_fault
    assert retired == 1
    return task, env, exc


@pytest.mark.parametrize("m", COMPILABLE, ids=lambda m: m.value)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_step_equals_one_instruction_block(m, data):
    ops, regs, seed = data.draw(cases(m))
    t1, env1, exc1 = _tier1(m, ops, regs, seed)
    t2, env2, exc2 = _tier2(m, ops, regs, seed)
    assert _outcome(exc1) == _outcome(exc2)
    assert t1.regs == t2.regs
    assert memory(t1) == memory(t2)
    assert env1.cycles == env2.cycles
