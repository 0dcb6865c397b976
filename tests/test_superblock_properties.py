"""Property-based lockstep equivalence: superblock tier vs single-step.

The superblock tier (``repro.cpu.superblock``) claims to be *invisible*:
for any guest, tiering on and off must produce bit-identical registers,
memory, stdout, per-thread syscall traces, retired-instruction totals and
simulated cycle counts.  Hypothesis generates adversarial guests — random
straight-line bodies over the full fused instruction set, conditional
skips (multiple block heads), self-modifying stores that patch upcoming
instructions *inside* the hot loop, signal handlers firing between
iterations, nop runs of random length (which the scheduler slides
instead of stepping, so random quanta cut them anywhere), gs-relative
loads and stores against the scratch page (``gs_base`` points there),
a tier-1-only ``rdgsbase`` mid-body that splits the body into blocks
entered by fallthrough, an ``xsave``/``xrstor`` pair (compiled, behind a
guard on the task's xstate component count), an hcall that flips that
count mid-run so the guard misses, and random scheduler quanta (including
quantum=1, where blocks never fit the budget and the tier must stand down
entirely) — and the differential oracle checks every observable in
lockstep.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings, strategies as st

from repro.arch.encode import Assembler
from repro.arch.registers import XComponent
from repro.faults.oracle import differences, run_guest
from repro.kernel.syscalls.table import NR
from repro.mem import layout
from repro.loader.image import image_from_assembler

pytestmark = pytest.mark.superblock

# Registers the random body may clobber.  rbp is the loop counter (rcx is syscall-clobbered), rsi
# the scratch page, r12/r13/r15 the SMC machinery, r14 the signal page —
# all reserved.
POOL = ("rax", "rbx", "rdx", "r8")

SIGUSR1 = 10

#: Offset of the xsave area in the scratch page (clear of the gs/store
#: slots below 0x200 and the signal slots at 0x200-0x210).
XSAVE_AT = 0x400

#: The hcall id of :func:`_flip_xstate`: the first one a bare machine
#: registers (see :func:`register_flip`).
FLIP_HCALL = 0


def _flip_xstate(hctx) -> None:
    """Toggle the task between all three xstate components and SSE only,
    which changes the xsave/xrstor cost and the saved area."""
    task = hctx.task
    full = task.xsave_mask == XComponent.all()
    task.xsave_mask = XComponent.SSE if full else XComponent.all()


def register_flip(machine) -> None:
    assert machine.kernel.register_hcall(_flip_xstate) == FLIP_HCALL


def _nop_byte() -> int:
    a = Assembler()
    a.nop()
    return a.assemble()[0]


def _patch_words() -> tuple[int, int]:
    """Two 8-byte code images for the SMC patch site: all-nops, and
    ``inc rax`` padded with nops.  Alternating them every iteration makes
    the hot loop rewrite its own upcoming instructions each pass."""
    nop = _nop_byte()
    a = Assembler()
    a.inc("rax")
    inc = a.assemble()
    p1 = bytes([nop]) * 8
    p2 = (inc + bytes([nop]) * 8)[:8]
    return int.from_bytes(p1, "little"), int.from_bytes(p2, "little")


# One random body instruction: (kind, reg, reg2, imm).
_op = st.tuples(
    st.integers(min_value=0, max_value=22),
    st.integers(min_value=0, max_value=len(POOL) - 1),
    st.integers(min_value=0, max_value=len(POOL) - 1),
    st.integers(min_value=0, max_value=0xFFFF),
)


def _emit_op(a: Assembler, k: int, op, skips: list[int]) -> None:
    kind, ri, rj, imm = op
    rd, rs = POOL[ri], POOL[rj]
    if kind == 0:
        a.add(rd, rs)
    elif kind == 1:
        a.sub(rd, rs)
    elif kind == 2:
        a.xor(rd, rs)
    elif kind == 3:
        a.and_(rd, rs)
    elif kind == 4:
        a.or_(rd, rs)
    elif kind == 5:
        a.imul(rd, rs)
    elif kind == 6:
        a.mov(rd, rs)
    elif kind == 7:
        a.mov_imm(rd, imm)
    elif kind == 8:
        a.addi(rd, imm)
    elif kind == 9:
        a.subi(rd, imm)
    elif kind == 10:
        a.xori(rd, imm)
    elif kind == 11:
        a.shl(rd, imm & 7)
    elif kind == 12:
        a.shr(rd, imm & 7)
    elif kind == 13:
        a.inc(rd)
    elif kind == 14:
        a.dec(rd)
    elif kind == 15:
        # conditional forward skip: a second block head mid-body
        label = f"skip_{k}"
        a.cmpi(rd, imm)
        a.jl(label)
        a.inc(rs)
        a.label(label)
        skips.append(k)
    elif kind == 16:
        a.store("rsi", (imm & 0x1F8), rd)
        a.load(rs, "rsi", (imm & 0x1F8))
    elif kind == 17:
        a.push(rd)
        a.pop(rs)
    elif kind == 18:
        # a nop run of 1-40 bytes: slid, not stepped, with tiering on
        for _ in range(1 + imm % 40):
            a.nop()
    elif kind == 19:
        # gs_base is the scratch page
        a.gsstore(imm & 0x1F8, rd)
        a.gsload(rs, imm & 0x1F8)
    elif kind == 20:
        a.gsstore8(imm & 0x1FF, rd)
        a.gsload8(rs, (imm >> 1) & 0x1FF)
    elif kind == 21:
        if imm & 1:
            # a tier-1-only instruction: the block ends before it, and
            # the run after it is a fallthrough head
            a.rdgsbase(rd)
        else:
            # compiled, specialised on the task's xstate component count
            a.xsave("rsi", XSAVE_AT)
            a.xrstor("rsi", XSAVE_AT)
    elif kind == 22:
        # flips the task's xstate components: a block compiled for the
        # old count now misses its guard
        a.hcall(FLIP_HCALL)


def build_guest(ops, iters: int, smc: bool, signal: bool):
    """A hot loop of the random body, optionally self-patching and
    optionally raising SIGUSR1 at itself every iteration."""
    p1, p2 = _patch_words()
    a = Assembler(base=layout.CODE_BASE)
    a.label("_start")
    # scratch RW page
    a.mov_imm("rdi", 0)
    a.mov_imm("rsi", 4096)
    a.mov_imm("rdx", 3)
    a.mov_imm("r10", 0x22)
    a.mov_imm("r8", (1 << 64) - 1)
    a.mov_imm("r9", 0)
    a.mov_imm("rax", NR["mmap"])
    a.syscall()
    a.mov("rsi", "rax")
    a.wrgsbase("rsi")
    # distinct nonzero bytes where the body loads, so a wrong access
    # width or address shows in the loaded value
    for off in range(0, 0x200, 8):
        a.mov_imm("rbx", (0x0123456789ABCDEF * (off + 1)) & ((1 << 64) - 1))
        a.store("rsi", off, "rbx")
    if smc:
        # the loop patches its own code: make the code page writable
        a.mov_imm("rdi", layout.CODE_BASE)
        a.mov_imm("rdx", 7)
        a.push("rsi")
        a.mov_imm("rsi", 4096)
        a.mov_imm("rax", NR["mprotect"])
        a.syscall()
        a.pop("rsi")
        a.mov_imm("r12", "patch")
        a.mov_imm("r13", p1)
        a.mov_imm("r15", p1 ^ p2)
    if signal:
        a.mov("r14", "rsi")
        a.mov_imm("rdi", SIGUSR1)
        a.push("rsi")
        a.mov_imm("rsi", "act")
        a.mov_imm("rdx", 0)
        a.mov_imm("r10", 8)
        a.mov_imm("rax", NR["rt_sigaction"])
        a.syscall()
        a.pop("rsi")
        a.mov_imm("rax", NR["getpid"])
        a.syscall()
        a.store("r14", 0x200, "rax")
        a.mov_imm("rax", NR["gettid"])
        a.syscall()
        a.store("r14", 0x208, "rax")
    for i, name in enumerate(POOL):
        a.mov_imm(name, i + 1)
    a.mov_imm("rbp", iters)
    a.label("loop")
    skips: list[int] = []
    for k, op in enumerate(ops):
        _emit_op(a, k, op, skips)
    if smc:
        # overwrite the upcoming patch site, alternating nops / inc rax
        a.store("r12", 0, "r13")
        a.xor("r13", "r15")
        a.label("patch")
        for _ in range(8):
            a.nop()
    if signal:
        a.load("rdi", "r14", 0x200)
        a.push("rsi")
        a.load("rsi", "r14", 0x208)
        a.mov_imm("rdx", SIGUSR1)
        a.mov_imm("rax", NR["tgkill"])
        a.syscall()
        a.pop("rsi")
    a.subi("rbp", 1)
    a.cmpi("rbp", 0)
    a.jnz("loop")
    # dump final register + flag state to the scratch page, write it out
    for i, name in enumerate(POOL):
        a.store("rsi", 8 * i, name)
    a.mov_imm("rbx", 0)
    a.jnz("no_zf")
    a.mov_imm("rbx", 1)
    a.label("no_zf")
    a.store("rsi", 8 * len(POOL), "rbx")
    a.mov_imm("rbx", 0)
    a.jge("no_lt")
    a.mov_imm("rbx", 1)
    a.label("no_lt")
    a.store("rsi", 8 * len(POOL) + 8, "rbx")
    a.mov_imm("rdi", 1)
    a.mov_imm("rdx", 8 * len(POOL) + 16)
    a.push("rsi")
    a.mov_imm("rax", NR["write"])
    a.syscall()
    a.mov_imm("rdi", 0)
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    if signal:
        a.label("handler")
        a.load("rdx", "r14", 0x210)
        a.inc("rdx")
        a.store("r14", 0x210, "rdx")
        a.ret()
        a.align(8, fill=0)
        a.label("act")
        a.dq("handler")
        a.dq(0)
        a.dq(0)
        a.dq(0)
    return image_from_assembler("sb-prop", a, entry="_start")


def _lockstep(image_builder, quantum: int) -> None:
    reports = {
        sb: run_guest(
            image_builder,
            None,
            setup=register_flip,
            machine_opts={"superblocks": sb, "quantum": quantum},
        )
        for sb in (False, True)
    }
    diffs = differences(reports[False], reports[True], compare_cycles=True)
    assert not diffs, diffs
    assert not reports[True].crashed


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(_op, min_size=1, max_size=10),
    iters=st.integers(min_value=18, max_value=48),
    quantum=st.integers(min_value=1, max_value=64),
)
def test_lockstep_straightline(ops, iters, quantum):
    _lockstep(lambda: build_guest(ops, iters, False, False), quantum)


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(_op, min_size=1, max_size=6),
    iters=st.integers(min_value=18, max_value=40),
    quantum=st.sampled_from([1, 5, 13, 64]),
)
def test_lockstep_self_modifying(ops, iters, quantum):
    """The hot loop rewrites its own upcoming instructions every pass."""
    _lockstep(lambda: build_guest(ops, iters, True, False), quantum)


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(_op, min_size=1, max_size=6),
    iters=st.integers(min_value=18, max_value=40),
    quantum=st.sampled_from([1, 5, 13, 64]),
)
def test_lockstep_with_signals(ops, iters, quantum):
    """SIGUSR1 delivered every iteration: handler entries/exits interleave
    with block dispatch at every scheduler quantum."""
    _lockstep(lambda: build_guest(ops, iters, False, True), quantum)


def test_hot_loop_actually_tiers_up():
    """Sanity for the whole suite: the generated guests do reach tier 2
    (otherwise every lockstep assertion above is vacuous)."""
    from repro.kernel.machine import Machine

    ops = [(0, 0, 1, 0), (2, 1, 2, 0), (8, 3, 0, 7)]
    machine = Machine()
    proc = machine.load(build_guest(ops, 48, False, False))
    machine.run_process(proc)
    stats = machine.superblock_stats()
    assert stats["enabled"]
    assert stats["compiled"] >= 1
    assert stats["block_runs"] >= 16
    assert proc.exit_code == 0


def _compiled_runs(mem):
    """``head -> (mnemonic names, runs)`` of every live compiled block."""
    from repro.cpu.superblock import _decode_run

    compiled = {}
    for head, b in mem.block_cache.blocks.items():
        if b.fn is not None and type(head) is int:
            compiled[head] = (
                [i.mnemonic.name for _, i in _decode_run(mem, head)[:b.n]],
                b.runs,
            )
    return compiled


def test_gs_ops_actually_compile():
    """A block holding gs loads and stores and the xsave/xrstor pair
    compiles and runs, and so does the fallthrough run after a
    tier-1-only instruction."""
    from repro.kernel.machine import Machine

    ops = [(19, 0, 1, 0x40), (20, 1, 2, 0x81), (21, 2, 0, 0), (21, 2, 0, 1),
           (0, 0, 1, 0)]
    machine = Machine()
    proc = machine.load(build_guest(ops, 48, False, False))
    machine.run_process(proc)
    assert proc.exit_code == 0
    compiled = _compiled_runs(proc.task.mem)
    gs_blocks = [m for m, runs in compiled.values()
                 if {"GSSTORE", "GSLOAD", "GSSTORE8", "GSLOAD8",
                     "XSAVE", "XRSTOR"} <= set(m)
                 and runs >= 16]
    assert gs_blocks, compiled
    # the run after rdgsbase (the loop tail) starts its own hot block
    after_rdgsbase = [m for m, runs in compiled.values()
                      if m[0] == "ADD" and runs >= 16]
    assert after_rdgsbase, compiled


def test_xstate_flip_misses_the_guard():
    """The flip op really exercises the guard: the xsave block stays hot,
    and after each flip the xsave is stepped on the tier-1 path (the only
    way it is ever stepped here) at the new count's cost."""
    from repro.kernel.machine import Machine

    ops = [(13, 0, 0, 0), (21, 0, 0, 0), (22, 0, 0, 0), (0, 0, 1, 0)]
    stepped = []
    reports = {}
    for sb in (False, True):
        machine = Machine(superblocks=sb)
        register_flip(machine)
        proc = machine.load(build_guest(ops, 48, False, False))
        cpu = machine.kernel.cpu
        step = cpu.step

        def spy(task, step=step, cpu=cpu):
            insn = step(task)
            if cpu.superblocks:
                stepped.append(insn.mnemonic.name)
            return insn

        cpu.step = spy
        machine.run_process(proc)
        assert proc.exit_code == 0
        reports[sb] = (machine.clock, machine.scheduler.total_instructions)
    assert reports[False] == reports[True]
    compiled = _compiled_runs(proc.task.mem)
    assert [m for m, runs in compiled.values()
            if "XSAVE" in m and runs >= 16], compiled
    assert "XSAVE" in stepped


def test_nop_runs_actually_slide():
    """The nop-run op kind really exercises the slide, with and without
    the self-patching loop (whose 8-nop patch site slides too)."""
    from repro.kernel.machine import Machine

    for smc in (False, True):
        machine = Machine()
        proc = machine.load(build_guest([(18, 0, 0, 30)], 24, smc, False))
        machine.run_process(proc)
        stats = machine.superblock_stats()
        assert stats["slides"] >= 24
        assert stats["slid_insns"] > stats["slides"]
        assert proc.exit_code == 0


def test_smc_guest_invalidates_blocks():
    """The self-patching guest must force real block invalidations."""
    from repro.kernel.machine import Machine

    ops = [(0, 0, 1, 0)]
    machine = Machine()
    proc = machine.load(build_guest(ops, 48, True, False))
    machine.run_process(proc)
    stats = machine.superblock_stats()
    assert stats["enabled"]
    assert stats["invalidated"] >= 1
    assert proc.exit_code == 0
