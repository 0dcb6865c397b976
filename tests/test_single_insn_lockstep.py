"""Single-instruction lockstep: one tier-1 step vs a one-instruction cut.

For every mnemonic a superblock can start with, one ``CPU.step`` and a
one-instruction call of a run's cut variant, ``cut(task, charge, 1, 2)``
on the run ``mov rax, rax`` + the instruction (``compile_cut``), must
leave the same registers, flags, rip, memory and charged cycles, and
fault the same way (the cut rewinds rip to the instruction and records
one retired instruction in ``task.sb_fault``, where the scheduler rewinds
a faulting step).

The guest-level lockstep suites draw a few registers and small
immediates; here every operand is full-range: all 16 registers (``rsp``
as an operand of ``push``/``pop``/``call``, and ``d == s``), negative
immediates and displacements, shift counts up to 255 and random memory
contents.

Both tiers serve a one-page access inline from the address space's page
maps (``rd``/``wr``) and fall back to the typed accessor otherwise.  The
fallback-edge test aims every memory op at pages the inline path must
miss — executable, read-only, write-only, pkey-tagged and unmapped pages,
and the last bytes of a page, where a u64 access straddles — and also
checks the uncached reference interpreter and the exec generations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from insn_corpus import (BASE_DISP, CODE, DATA, GS_DISP, M64, bare, cases,
                         encode, memory, operands, register_files)
from repro.arch.encode import Assembler
from repro.arch.isa import Mnemonic
from repro.arch.registers import RSP
from repro.cpu.core import CPU
from repro.cpu.superblock import compile_block, compile_cut
from repro.errors import BreakpointTrap, InvalidOpcode, PageFault
from repro.mem.pages import PAGE_SIZE, Perm

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

#: The run's first instruction: the instruction under test is its second,
#: where a cut starts, so a terminator has a run to end too.
FILLER = Assembler(base=CODE).mov("rax", "rax").assemble()
#: Where the instruction under test lies.
AT = CODE + len(FILLER)


def machine(m, ops, regs, seed):
    """A bare CPU and task about to run ``m`` at ``AT``, after the
    filler."""
    cpu, task, env = bare(FILLER + encode(m, ops), regs, seed)
    task.regs.rip = AT
    return cpu, task, env


def _cut_once(cpu, task, env, m):
    """One ``cut(task, charge, 1, 2)`` of the run at ``CODE``:
    ``(exc, retired)``."""
    count = task.xsave_components
    xstate = (count, cpu.costs.xsave_cost(count))
    block = compile_block(task.mem, CODE, cpu._cost_table, xstate)
    assert block.fn is not None and block.insns[1][1].mnemonic is m, m
    cut = compile_cut(block, cpu._cost_table, xstate)
    try:
        return None, cut(task, env.charge, 1, 2)
    except _FAULTS as e:
        return e, task.sb_fault


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
        task.regs.rip = AT  # the scheduler's handle_fault rewind
    return task, env, exc


def _tier2(m, ops, regs, seed):
    cpu, task, env = machine(m, ops, regs, seed)
    exc, retired = _cut_once(cpu, task, env, m)
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


# ---------------------------------------------------------- fallback edges
#: Every compilable op that touches memory, and the width of its access.
MEMORY_OPS = {
    M.LOAD: 8, M.STORE: 8, M.LOAD8: 1, M.STORE8: 1, M.GSLOAD: 8,
    M.GSSTORE: 8, M.GSLOAD8: 1, M.GSSTORE8: 1, M.PUSH: 8, M.POP: 8,
    M.RET: 8, M.CALL_REG: 8, M.CALL_REL: 8,
}
#: Ops whose access lies 8 bytes below ``rsp``.
_BELOW_RSP = frozenset((M.PUSH, M.CALL_REG, M.CALL_REL))

#: The first data page's shape: ``(perm, pkey, pkru)``, ``None`` for
#: unmapped.  Only ``rw`` is in both maps; a u64 access at offsets
#: 4089-4095 straddles into the second data page (RW) in every shape.
SHAPES = {
    "rw": (Perm.RW, 0, 0),
    "rwx": (Perm.RWX, 0, 0),
    "r": (Perm.R, 0, 0),
    "w": (Perm.W, 0, 0),
    "pkey-open": (Perm.RW, 1, 0),
    "pkey-write-disabled": (Perm.RW, 1, 0b1000),
    "pkey-access-disabled": (Perm.RW, 1, 0b0100),
    "unmapped": None,
}


def _shaped(shape, m, ops, regs, seed, offset):
    """:func:`machine` with the first data page in ``shape`` and ``m``'s
    access aimed at ``offset`` in it."""
    regs = regs.copy()
    target = DATA + offset
    if m in BASE_DISP:
        base, disp = BASE_DISP[m]
        regs.gpr[ops[base]] = (target - ops[disp]) & M64
    elif m in GS_DISP:
        regs.gs_base = (target - ops[GS_DISP[m][0]]) & M64
    else:
        regs.gpr[RSP] = target + 8 if m in _BELOW_RSP else target
    cpu, task, env = machine(m, ops, regs, seed)
    mem = task.mem
    if SHAPES[shape] is None:
        mem.unmap(DATA, PAGE_SIZE)
    else:
        perm, key, pkru = SHAPES[shape]
        mem.protect(DATA, PAGE_SIZE, perm)
        mem.assign_pkey(DATA, PAGE_SIZE, key)
        mem.active_pkru = pkru
    return cpu, task, env


def _observed(task, env, exc, retired):
    mem = task.mem
    pages = sorted((pn, bytes(p.data)) for pn, p in mem._pages.items())
    return (_outcome(exc), retired, task.regs, pages, env.cycles,
            sorted(mem.exec_gen.items()), mem.code_epoch)


def _stepped(cpu, task, env):
    exc = None
    try:
        cpu.step(task)
    except _FAULTS as e:
        exc = e
        task.regs.rip = AT
    return _observed(task, env, exc, 1)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("m", sorted(MEMORY_OPS, key=lambda m: m.value),
                         ids=lambda m: m.value)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_fallback_edges_match_in_both_tiers_and_the_reference(m, shape, data):
    ops = data.draw(operands(m))
    regs = data.draw(register_files())
    seed = data.draw(st.integers(0, 1 << 32))
    offset = data.draw(st.one_of(st.integers(PAGE_SIZE - 7, PAGE_SIZE - 1),
                                 st.integers(0, PAGE_SIZE - 8)))
    args = (shape, m, ops, regs, seed, offset)

    cpu, task, env = _shaped(*args)
    tier1 = _stepped(cpu, task, env)

    cpu, task, env = _shaped(*args)
    reference = _stepped(CPU(env, translation_cache=False), task, env)

    cpu, task, env = _shaped(*args)
    exc, retired = _cut_once(cpu, task, env, m)
    tier2 = _observed(task, env, exc, retired)

    assert tier1 == reference
    assert tier2 == tier1
