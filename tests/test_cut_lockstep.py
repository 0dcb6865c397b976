"""Cut-variant lockstep: a run's cut variant vs tier-1 steps, every cut.

A compiled run of ``n`` instructions has one cut variant,
``block.cut(task, charge, start, stop)``, which the scheduler enters
wherever a quantum cuts the run.  For every ``0 <= start < stop <= n`` it
must leave registers, flags, ``rip``, memory, charged cycles, exec
generations and ``code_epoch`` exactly as ``stop - start`` tier-1 steps
from instruction ``start``, and fault the same way: ``rip`` back at the
faulting instruction and ``task.sb_fault`` the instructions retired, the
faulting one included.  When the variant stops early — a store whose
fallback bumped ``code_epoch``, or an xstate guard miss — tier-1 steps
finish the range, as the scheduler's loop does.

Runs come three ways: drawn from the instruction corpus
(``insn_corpus``) with registers aimed at the data pages, the
interposer's own trampoline glue (gs stores, xsave/xrstor) taken from a
lazypoline machine, and hand-built cases for a side exit into an
executable page and faults at the first and last retired instruction.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from insn_corpus import CODE, DATA, DATA_PAGES, bare, encode, operands, register_files
from repro.arch.encode import Assembler
from repro.arch.isa import Mnemonic
from repro.arch.registers import XComponent
from repro.cpu.core import BareTask, CPU, NullEnvironment
from repro.cpu.ops import ROWS
from repro.cpu.superblock import compile_block, compile_cut
from repro.errors import BreakpointTrap, InvalidOpcode, PageFault
from repro.kernel.machine import Machine
from repro.mem.pages import PAGE_SIZE, Perm
from repro.workloads.runner import attach_mechanism

from tests.conftest import asm, emit_exit, emit_syscall, finish

pytestmark = pytest.mark.superblock

M = Mnemonic
_FAULTS = (PageFault, InvalidOpcode, BreakpointTrap)

#: Ops a run can start with, and ops that may follow them.
STRAIGHT = tuple(m for m in Mnemonic
                 if ROWS[m.op_index].block == "straight")
INTERIOR = STRAIGHT + (M.NOP, M.XSAVE, M.XRSTOR)
TERMS = tuple(m for m in Mnemonic if ROWS[m.op_index].block == "term")
MASKS = (XComponent.all(), XComponent.SSE, XComponent.none())


def _observed(task, env, fault, retired):
    mem = task.mem
    return (fault, retired, task.regs.rip, task.regs,
            sorted((pn, p.perm, p.pkey, bytes(p.data))
                   for pn, p in mem._pages.items()),
            env.cycles, sorted(mem.exec_gen.items()), mem.code_epoch)


def _step(cpu, task, count):
    """Up to ``count`` tier-1 steps; ``(fault, retired)``."""
    for i in range(count):
        addr = task.regs.rip
        try:
            cpu.step(task)
        except _FAULTS as e:
            task.regs.rip = addr  # the scheduler's rewind
            return (type(e).__name__, str(e)), i + 1
    return None, count


def _lockstep(new, block, cut, start, stop):
    """Run instructions ``[start, stop)`` of ``block`` on two fresh
    ``new() -> (cpu, task, env)`` set-ups, by tier-1 steps and by the cut
    variant ``cut``; assert they agree and return the cut's own outcome
    ``(fault, retired)``."""
    cpu, task, env = new()
    task.regs.rip = block.insns[start][0]
    fault, retired = _step(cpu, task, stop - start)
    stepped = _observed(task, env, fault, retired)

    cpu, task, env = new()
    task.regs.rip = block.insns[start][0]
    try:
        retired = cut(task, env.charge, start, stop)
    except _FAULTS as e:
        fault, retired = (type(e).__name__, str(e)), task.sb_fault
        own = fault, retired
    else:
        own = None, retired
        assert 0 <= retired <= stop - start
        fault, more = _step(cpu, task, stop - start - retired)
        retired += more
    assert _observed(task, env, fault, retired) == stepped, (start, stop)
    return own


def _every_cut(new, block, cut):
    return {(start, stop): _lockstep(new, block, cut, start, stop)
            for start in range(block.n)
            for stop in range(start + 1, block.n + 1)}


def _compiled(cpu, task):
    count = task.xsave_components
    xstate = (count, cpu.costs.xsave_cost(count))
    block = compile_block(task.mem, task.regs.rip, cpu._cost_table, xstate)
    assert block.fn is not None
    return block, compile_cut(block, cpu._cost_table, xstate)


# ------------------------------------------------------------ drawn runs
_AIM = st.integers(0, DATA_PAGES * PAGE_SIZE - 1)


@st.composite
def drawn_runs(draw):
    """``(code, regs, seed, mask)``: a straight-line run of 2-7 corpus
    instructions (perhaps ending in a terminator), then ``hlt``."""
    ms = [draw(st.sampled_from(STRAIGHT)),
          *draw(st.lists(st.sampled_from(INTERIOR), min_size=1,
                         max_size=5))]
    if draw(st.booleans()):
        ms.append(draw(st.sampled_from(TERMS)))
    code = b"".join(encode(m, draw(operands(m))) for m in ms)
    code += Assembler(base=CODE).hlt().assemble()
    regs = draw(register_files())
    for r in draw(st.lists(st.integers(0, 15), max_size=8)):
        regs.gpr[r] = DATA + draw(_AIM)
    if draw(st.booleans()):
        regs.gs_base = DATA + draw(_AIM)
    return (code, regs, draw(st.integers(0, 1 << 32)),
            draw(st.sampled_from(MASKS)), len(ms))


@settings(max_examples=60, deadline=None)
@given(run=drawn_runs())
def test_cut_variant_equals_tier1_steps_for_every_cut(run):
    code, regs, seed, mask, n = run

    def new():
        cpu, task, env = bare(code, regs, seed)
        task.xsave_mask = mask
        return cpu, task, env

    # Compiled for all components: a task with another mask misses the
    # guard at each xstate instruction.
    cpu, task, _ = bare(code, regs, seed)
    block, cut = _compiled(cpu, task)
    assert block.n == n
    _every_cut(new, block, cut)


# ----------------------------------------------------- interposer glue
def _glue_heads():
    """A lazypoline getpid loop stopped mid-run: its task, and the heads
    of the interposer's glue runs — the fast-path entry right after the
    sled (its gs stores, pushes and xsave) and every compiled block
    holding a gs store or an xstate instruction (the xrstor side)."""
    a = asm()
    a.label("_start")
    a.mov_imm("rbx", 200)
    a.label("loop")
    emit_syscall(a, "getpid")
    a.dec("rbx")
    a.jnz("loop")
    emit_exit(a, 0)
    machine = Machine()
    proc = machine.load(finish(a, "glue"))
    attach_mechanism(machine, proc, "lazypoline")
    machine.run(max_instructions=20_000)
    task = proc.task
    page0 = task.mem.read(0, PAGE_SIZE, check=None)
    entry = len(page0) - len(page0.lstrip(b"\x90"))  # the sled's end
    glue = (M.GSSTORE, M.GSSTORE8, M.XSAVE, M.XRSTOR)
    return task, [entry, *(
        b.head for b in task.mem.block_cache.blocks.values()
        if b.fn is not None and any(i.mnemonic in glue for _, i in b.insns))]


def test_cut_variant_matches_tier1_on_lazypoline_glue():
    task, heads = _glue_heads()
    ops = set()
    seen = set()
    for head in heads:
        for mask in (task.xsave_mask, XComponent.SSE):
            def new(mask=mask):
                env = NullEnvironment()
                copy = BareTask(task.mem.fork_copy(), task.regs.copy(), mask)
                return CPU(env), copy, env

            # Compiled for the task's own mask; SSE alone misses the guard.
            cpu, probe, _ = new(task.xsave_mask)
            probe.regs.rip = head
            block, cut = _compiled(cpu, probe)
            ops |= {i.mnemonic for _, i in block.insns}
            outcomes = _every_cut(new, block, cut)
            seen |= {(mask == task.xsave_mask, fault is None)
                     for fault, _ in outcomes.values()}
    assert {M.GSSTORE, M.GSSTORE8, M.XSAVE, M.XRSTOR} <= ops
    # Both masks ran cuts that did not fault.
    assert (True, True) in seen and (False, True) in seen


# --------------------------------------------------------- edge cases
def _edge(code, prepare, perm=Perm.RX):
    """Every cut of the run at ``CODE`` after ``prepare(task)``."""
    def new():
        cpu, task, env = bare(code, None, 0, perm)
        prepare(task)
        return cpu, task, env

    cpu, task, _ = new()
    block, cut = _compiled(cpu, task)
    return block, _every_cut(new, block, cut)


def test_store_side_exit_into_executable_page_for_every_cut():
    """The run's store patches its own upcoming code: every cut through
    it exits right after the store, and the patched bytes then step."""
    a = Assembler(base=CODE)
    a.mov_imm("rcx", 0x9090909090909090)
    a.inc("rbx")
    a.store("r12", 0, "rcx")
    a.label("patch")
    for _ in range(4):
        a.inc("rbx")
    a.hlt()
    code = a.assemble()
    patch = a.address_of("patch")

    def prepare(task):
        task.regs.write_name("r12", patch)

    block, outcomes = _edge(code, prepare, Perm.RWX)
    assert block.n == 7
    for (start, stop), (fault, retired) in outcomes.items():
        assert fault is None
        # The store is instruction 2: a cut through it stops after it.
        assert retired == (3 - start if start <= 2 < stop - 1
                           else stop - start)


def test_fault_at_first_and_last_retired_instruction():
    """A load from an unmapped page: cuts starting at it fault at their
    first instruction, cuts ending at it at their last."""
    a = Assembler(base=CODE)
    a.inc("rbx")
    a.cmpi("rbx", 3)
    a.load("rax", "rsi", 8)
    a.inc("rbx")
    a.push("rbx")
    a.hlt()

    def prepare(task):
        task.regs.write_name("rsi", DATA + (DATA_PAGES + 4) * PAGE_SIZE)
        task.regs.write_name("rsp", DATA + PAGE_SIZE)

    block, outcomes = _edge(a.assemble(), prepare)
    assert block.n == 5
    assert outcomes[2, 3] == (outcomes[2, 3][0], 1)  # first and last
    assert outcomes[2, 5][1] == 1 and outcomes[2, 5][0] is not None
    assert outcomes[0, 3][1] == 3 and outcomes[0, 3][0] is not None
    assert outcomes[3, 5] == (None, 2)
    assert all((fault is not None) == (start <= 2 < stop)
               for (start, stop), (fault, _) in outcomes.items())


def test_run_ending_in_nops():
    """A run whose last instructions retire nothing but ``rip`` and a
    nop's quarter cycle."""
    a = Assembler(base=CODE)
    a.inc("rbx")
    a.nop()
    a.nop()
    a.hlt()
    block, outcomes = _edge(a.assemble(), lambda task: None)
    assert block.n == 3
    assert all(out == (None, stop - start)
               for (start, stop), out in outcomes.items())
