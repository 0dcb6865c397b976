"""Signal frames move in bulk: identical bytes, registers and outcomes.

``SignalDelivery._push_frame`` packs the frame into two runs and
``sigreturn`` unpacks the ucontext from one read.  The per-field writer and
reader they replaced are kept here as the reference: every property below
compares the bulk code against them, byte for byte and register for
register, including values the typed accessors silently mask (info fields
at or above 2**32, negative values) and frames that straddle a page
boundary.  The end-to-end cases pin what a guest sees when its frame lands
on an executable stack page or in an unmapped hole.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.registers import XComponent
from repro.cpu.core import XSAVE_AREA_SIZE, xrstor_apply, xsave_serialize
from repro.cpu.costs import CostModel
from repro.interpose import attach
from repro.kernel.machine import Machine
from repro.kernel.signals import (
    AUDIT_ARCH_X86_64,
    FRAME_RETADDR,
    FRAME_SIGINFO,
    FRAME_SIZE,
    FRAME_UCONTEXT,
    SA_NODEFER,
    SI_ADDR,
    SI_ARCH,
    SI_CODE,
    SI_ERRNO,
    SI_SIGNO,
    SI_SYSCALL,
    SIGSEGV,
    UC_FLAGS,
    UC_GPRS,
    UC_GSBASE,
    UC_RIP,
    UC_SIGMASK,
    UC_XSTATE,
    SignalDelivery,
)
from repro.kernel.task import SigAction, Task
from repro.mem import layout
from repro.mem.address_space import AddressSpace
from repro.mem.pages import PAGE_SIZE, Perm

from tests.conftest import asm, emit_exit, emit_syscall, finish

#: Two mapped pages [LOW, LOW + 2 * PAGE_SIZE); frames land below, across
#: or above the boundary HIGH between them.
LOW = 0x20_0000
HIGH = LOW + PAGE_SIZE
DEFAULT_RESTORER = 0x40_1234
GAP = slice(SI_ERRNO + 4, FRAME_UCONTEXT)


# ------------------------------------------------------------- reference
def ref_push_frame(kernel, task: Task, sig: int, action, info: dict) -> None:
    """The per-field frame writer the bulk writer replaced."""
    regs = task.regs
    mem = task.mem
    kernel.charge(task, kernel.costs.signal_delivery)
    frame_base = ((regs.read(4) - 128 - FRAME_SIZE) & ~15)
    restorer = action.restorer or kernel.default_restorer(task)
    mem.write_u64(frame_base + FRAME_RETADDR, restorer, check=None)
    mem.write_u32(frame_base + SI_SIGNO, sig, check=None)
    mem.write_u32(frame_base + SI_CODE, info.get("code", 0), check=None)
    mem.write_u64(frame_base + SI_ADDR, info.get("addr", 0), check=None)
    mem.write_u32(frame_base + SI_SYSCALL, info.get("syscall", 0), check=None)
    mem.write_u32(frame_base + SI_ARCH, AUDIT_ARCH_X86_64, check=None)
    mem.write_u32(frame_base + SI_ERRNO, info.get("errno", 0), check=None)
    uc = frame_base + FRAME_UCONTEXT
    for i, value in enumerate(regs.gpr):
        mem.write_u64(uc + UC_GPRS + 8 * i, value, check=None)
    mem.write_u64(uc + UC_RIP, regs.rip, check=None)
    flags = (1 if regs.zf else 0) | (2 if regs.lt else 0)
    flags |= (regs.pkru & 0xFFFFFFFF) << 32
    mem.write_u64(uc + UC_FLAGS, flags, check=None)
    mem.write_u64(uc + UC_GSBASE, regs.gs_base, check=None)
    mem.write_u64(uc + UC_SIGMASK, task.sigmask, check=None)
    mem.write(uc + UC_XSTATE, xsave_serialize(regs, XComponent.all()), check=None)
    regs.write(4, frame_base)
    regs.write(7, sig)
    regs.write(6, frame_base + FRAME_SIGINFO)
    regs.write(2, uc)
    regs.rip = action.handler
    if not action.flags & SA_NODEFER:
        task.sigmask |= 1 << sig
    task.sigmask |= action.mask


def ref_sigreturn(kernel, task: Task) -> None:
    """The per-field ucontext reader the bulk reader replaced."""
    regs = task.regs
    mem = task.mem
    kernel.charge(task, kernel.costs.sigreturn_work)
    uc = regs.read(4) - 8 + FRAME_UCONTEXT
    for i in range(16):
        regs.gpr[i] = mem.read_u64(uc + UC_GPRS + 8 * i, check=None)
    regs.rip = mem.read_u64(uc + UC_RIP, check=None)
    flags = mem.read_u64(uc + UC_FLAGS, check=None)
    regs.zf = bool(flags & 1)
    regs.lt = bool(flags & 2)
    regs.pkru = (flags >> 32) & 0xFFFFFFFF
    mem.active_pkru = regs.pkru
    regs.gs_base = mem.read_u64(uc + UC_GSBASE, check=None)
    task.sigmask = mem.read_u64(uc + UC_SIGMASK, check=None)
    xrstor_apply(regs, mem.read(uc + UC_XSTATE, XSAVE_AREA_SIZE, check=None))


# ---------------------------------------------------------------- harness
def _kernel():
    charges = []
    return SimpleNamespace(
        costs=CostModel(),
        charge=lambda task, cycles: charges.append(cycles),
        default_restorer=lambda task: DEFAULT_RESTORER,
        charges=charges,
    )


def _task(fill: bytes, state: dict) -> Task:
    mem = AddressSpace()
    mem.map(LOW, 2 * PAGE_SIZE, Perm.RW)
    mem.write(LOW, fill, check=None)
    task = Task(1, 1, mem)
    regs = task.regs
    regs.gpr[:] = state["gpr"]
    regs.rip = state["rip"]
    regs.zf, regs.lt = state["zf"], state["lt"]
    regs.pkru = state["pkru"]
    regs.gs_base = state["gs_base"]
    regs.xmm[:] = state["xmm"]
    regs.ymm_high[:] = state["ymm"]
    regs.x87[:] = state["x87"]
    regs.x87_top = state["x87_top"]
    task.sigmask = state["sigmask"]
    return task


def _observe(task: Task) -> tuple:
    regs = task.regs
    return (
        task.mem.read(LOW, 2 * PAGE_SIZE, check=None),
        list(regs.gpr), regs.rip, regs.zf, regs.lt, regs.pkru, regs.gs_base,
        list(regs.xmm), list(regs.ymm_high), list(regs.x87), regs.x87_top,
        task.sigmask, task.mem.active_pkru,
    )


u64 = st.integers(0, 2**64 - 1)
#: What the typed writers mask: beyond 64 bits, and negative.
wide = st.integers(-(2**65), 2**65)
states = st.fixed_dictionaries({
    "gpr": st.lists(st.one_of(u64, wide), min_size=16, max_size=16),
    "rip": st.one_of(u64, wide),
    "zf": st.booleans(),
    "lt": st.booleans(),
    "pkru": st.integers(0, 2**32 - 1),
    "gs_base": st.one_of(u64, wide),
    "sigmask": st.one_of(u64, wide),
    "xmm": st.lists(st.integers(0, 2**128 - 1), min_size=16, max_size=16),
    "ymm": st.lists(st.integers(0, 2**128 - 1), min_size=16, max_size=16),
    "x87": st.lists(u64, min_size=8, max_size=8),
    "x87_top": st.integers(0, 8),
})
infos = st.dictionaries(
    st.sampled_from(["code", "addr", "syscall", "errno"]),
    st.one_of(st.integers(0, 2**32 - 1), wide),
)
actions = st.builds(
    SigAction,
    handler=u64,
    flags=st.sampled_from([0, SA_NODEFER]),
    restorer=st.one_of(st.just(0), u64, wide),
    mask=u64,
)
#: rsp relative to HIGH: below 128 the frame sits in the low page, above
#: FRAME_SIZE + 128 in the high one, and in between it straddles HIGH.
rsps = st.integers(0, FRAME_SIZE + 400).map(lambda off: HIGH + off)


@settings(max_examples=200, deadline=None)
@given(state=states, rsp=rsps, sig=st.integers(1, 31), action=actions,
       info=infos, seed=st.integers(0, 2**32))
def test_push_frame_matches_per_field_writer(state, rsp, sig, action, info, seed):
    fill = random.Random(seed).randbytes(2 * PAGE_SIZE)
    state["gpr"][4] = rsp
    bulk, ref = _task(fill, state), _task(fill, state)
    kb, kr = _kernel(), _kernel()
    SignalDelivery(kb)._push_frame(bulk, sig, action, dict(info))
    ref_push_frame(kr, ref, sig, action, dict(info))
    assert _observe(bulk) == _observe(ref)
    assert kb.charges == kr.charges


@settings(max_examples=200, deadline=None)
@given(state=states, rsp=rsps, seed=st.integers(0, 2**32))
def test_sigreturn_matches_per_field_reader(state, rsp, seed):
    # Arbitrary frame bytes: every mask word, PKRU and x87 top a frame
    # (or a guest scribbling on one) can hold.
    fill = random.Random(seed).randbytes(2 * PAGE_SIZE)
    frame_base = (rsp - 128 - FRAME_SIZE) & ~15
    state["gpr"][4] = frame_base + 8
    bulk, ref = _task(fill, state), _task(fill, state)
    kb, kr = _kernel(), _kernel()
    SignalDelivery(kb).sigreturn(bulk)
    ref_sigreturn(kr, ref)
    assert _observe(bulk) == _observe(ref)
    assert kb.charges == kr.charges


def test_gap_bytes_survive_the_push():
    sentinel = bytes([0xA5]) * (2 * PAGE_SIZE)
    state = {
        "gpr": [0x1111_1111_1111_1111] * 16, "rip": 0x40_0000, "zf": True,
        "lt": True, "pkru": 0x5555_5554, "gs_base": 0x7000_0000,
        "sigmask": 0, "xmm": [2**128 - 1] * 16, "ymm": [2**128 - 1] * 16,
        "x87": [2**64 - 1] * 8, "x87_top": 3,
    }
    for off in (0, 200, 700, FRAME_SIZE + 300):  # low, straddling, high
        state["gpr"][4] = HIGH + off
        task = _task(sentinel, state)
        SignalDelivery(_kernel())._push_frame(
            task, 31, SigAction(handler=0x40_2000), {"code": 2, "addr": 1})
        frame_base = task.regs.read(4) - LOW
        data = task.mem.read(LOW, 2 * PAGE_SIZE, check=None)
        frame = data[frame_base:frame_base + FRAME_SIZE]
        assert frame[GAP] == sentinel[GAP]
        # Everything else in the frame was written (no run was skipped).
        assert frame[:GAP.start] != sentinel[:GAP.start]


# ------------------------------------------------------------- end to end
#: A page-aligned rsp inside the default stack: the SIGSYS frame of any
#: syscall issued with rsp == FRAME_RSP lands at FRAME_BASE.
FRAME_RSP = layout.STACK_TOP - 7 * PAGE_SIZE
FRAME_BASE = (FRAME_RSP - 128 - FRAME_SIZE) & ~15
STUB = FRAME_BASE + GAP.start  # a `ret` parked in the frame's gap

# Outcomes pinned from the per-field writer (same image, same machine).
EXEC_STACK_CLOCK, EXEC_STACK_HITS, EXEC_STACK_MISSES = 33886, 77, 54
HOLE_CLOCKS = {"unmapped": 4621, "low_end_in_hole": 12496,
               "high_end_in_hole": 12496}


def _run_lazypoline(image) -> dict:
    machine = Machine()
    proc = machine.load(image)
    attach(machine, proc, "lazypoline")
    machine.run_process(proc)  # a guest fault must not escape as an exception
    cpu = machine.kernel.cpu
    return {
        "stdout": proc.stdout, "exit_code": proc.exit_code,
        "term_signal": proc.term_signal, "clock": machine.kernel.clock,
        "cache_hits": cpu.cache_hits, "cache_misses": cpu.cache_misses,
    }


def _exec_stack_image():
    """Frames on an executable stack, next to code the guest runs there.

    The guest makes its stack RWX, parks a ``ret`` in the gap of the frame
    its syscalls will push, calls it, traps SIGSYS (the frame bumps the
    page's generation but leaves the gap alone), calls it again, and
    reports.  The second call must re-decode: the frame's write was a
    store to an executable page.
    """
    a = asm()
    a.label("_start")
    emit_syscall(a, "mprotect", layout.STACK_TOP - layout.STACK_SIZE,
                 layout.STACK_SIZE, 7)
    a.mov_imm("rsp", FRAME_RSP)
    a.mov_imm("rbx", 0xC3)
    a.mov_imm("rcx", STUB)
    a.store8("rcx", 0, "rbx")
    a.call_reg("rcx")
    emit_syscall(a, "getpid")
    a.mov_imm("rcx", STUB)
    a.call_reg("rcx")
    emit_syscall(a, "write", 1, "msg", 3)
    emit_exit(a, 0)
    a.label("msg")
    a.db(b"ok\n")
    return finish(a, "exec-stack")


def test_exec_stack_frames_keep_output_and_cache_counts():
    got = _run_lazypoline(_exec_stack_image())
    assert got == {
        "stdout": b"ok\n", "exit_code": 0, "term_signal": None,
        "clock": EXEC_STACK_CLOCK, "cache_hits": EXEC_STACK_HITS,
        "cache_misses": EXEC_STACK_MISSES,
    }


def _hole_image(unmap: int | None, rsp: int):
    """Unmap a stack page (or none), point rsp at ``rsp``, trap SIGSYS."""
    a = asm()
    a.label("_start")
    if unmap is not None:
        emit_syscall(a, "munmap", unmap, PAGE_SIZE)
    a.mov_imm("rsp", rsp)
    emit_syscall(a, "getpid")
    emit_syscall(a, "write", 1, "msg", 3)
    emit_exit(a, 0)
    a.label("msg")
    a.db(b"no\n")
    return finish(a, "frame-hole")


#: (page to unmap, rsp): the whole frame in unmapped memory; its low end
#: in a hole below a mapped page; its high end in a hole above one.
HOLES = {
    "unmapped": (None, 0x5000_0000),
    "low_end_in_hole": (FRAME_RSP - PAGE_SIZE, FRAME_RSP + 600),
    "high_end_in_hole": (FRAME_RSP, FRAME_RSP + 600),
}


def test_faulting_push_kills_with_sigsegv():
    for name, (unmap, rsp) in HOLES.items():
        got = _run_lazypoline(_hole_image(unmap, rsp))
        assert (got["stdout"], got["term_signal"], got["clock"]) == (
            b"", SIGSEGV, HOLE_CLOCKS[name]), name
