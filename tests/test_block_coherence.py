"""Compiled blocks are invalidated by the writer, never re-checked by
the reader.

A code write bumps its page's exec generation, and
``AddressSpace._bump_exec_gen`` (the bound block cache) plus
``Scheduler._shootdown`` (every other core's cache of the address space)
drop every block spanning the page at once — the writer-side cache
maintenance lazypoline's in-place rewrite relies on (§IV-A b).  The
scheduler's dispatch loop trusts that and never compares a block's
``(p0, g0, p1, g1)`` with the page generations, so the invariant is
checked here instead, after every code write: no core's block cache for
the address space holds a block whose generations disagree with
``mem.exec_gen``.

The nested wait behind ``Kernel.dispatch_blocking`` must also hand its
caller the address space as it found it: bound to the waiter core's
decode and block caches, with the waiter's protection-key rights.
"""

from __future__ import annotations

import pytest

from repro.arch.encode import Assembler
from repro.kernel.machine import Machine
from repro.kernel.syscalls.proc import CLONE_VM, THREAD_FLAGS
from repro.kernel.syscalls.table import NR
from repro.mem.address_space import AddressSpace
from repro.workloads.runner import attach_mechanism
from tests.conftest import asm, emit_syscall, finish

pytestmark = [pytest.mark.smp, pytest.mark.superblock]


def _stale_blocks(machine, mem) -> list:
    """``(core, key)`` of every block of ``mem`` whose page generations
    disagree with ``mem.exec_gen``, over every core's cache."""
    gens = mem.exec_gen
    stale = []
    for core in machine.cores:
        bc = core.block_caches.get(mem.asid)
        if bc is None:
            continue
        for key, b in bc.blocks.items():
            if gens.get(b.p0, 0) != b.g0 or gens.get(b.p1, 0) != b.g1:
                stale.append((core.id, key))
    return stale


def _unbound_blocks_on(machine, mem, pn: int) -> int:
    """Compiled blocks spanning ``pn`` in caches ``mem`` is not bound to."""
    return sum(
        1
        for core in machine.cores
        if (bc := core.block_caches.get(mem.asid)) is not None
        and bc is not mem.block_cache
        for b in bc.blocks.values()
        if b.fn is not None and pn in (b.p0, b.p1)
    )


@pytest.fixture
def code_writes(monkeypatch):
    """Check the invariant after every exec-generation bump of the
    machine passed to ``watch(machine)``, which returns that machine's
    log: each bump appends ``(compiled blocks on the page in caches the
    address space is not bound to, before it; stale blocks after it)``."""
    watched = []
    bump = AddressSpace._bump_exec_gen

    def checked(mem, pn):
        if not watched:
            return bump(mem, pn)
        machine, log = watched
        before = _unbound_blocks_on(machine, mem, pn)
        bump(mem, pn)
        log.append((before, _stale_blocks(machine, mem)))

    monkeypatch.setattr(AddressSpace, "_bump_exec_gen", checked)

    def watch(machine):
        watched[:] = [machine, []]
        return watched[1]

    return watch


def _addi_bytes(addr: int, reg: str, imm: int) -> bytes:
    return Assembler(base=addr).addi(reg, imm).assemble()


def _emit_clone_sibling(a) -> None:
    """mmap a flag page into r12, then clone a CLONE_VM sibling that
    starts at ``child`` on its own stack at the top of that page."""
    emit_syscall(a, "mmap", 0, 8192, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.mov_imm("rdi", THREAD_FLAGS | CLONE_VM)
    a.lea("rsi", "r12", 8192)
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 0)
    a.mov_imm("r8", 0)
    a.mov_imm("rax", NR["clone"])
    a.syscall()
    a.cmpi("rax", 0)
    a.jz("child")


def _emit_exit_r8(a) -> None:
    a.mov("rdi", "r8")
    a.andi("rdi", 0xFF)
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()


# ------------------------------------------------- nested-wait code write
def _nested_patch_image():
    """A hot loop whose hcall at pass 100 waits for a CLONE_VM sibling
    (run on the other core), then patches the loop's ``addi r8, 3`` to
    ``addi r8, 5``: the exit code tells which bytes each pass ran."""
    a = asm()
    a.label("_start")
    _emit_clone_sibling(a)
    a.mov_imm("r14", "patch")
    a.mov_imm("rbx", 200)
    a.label("loop")
    a.inc("rdx")
    a.label("patch")
    a.addi("r8", 3)
    a.xori("r8", 0x55)
    a.cmpi("rbx", 100)
    a.jnz("skip")
    a.hcall(0)
    a.label("skip")
    a.dec("rbx")
    a.jnz("loop")
    _emit_exit_r8(a)
    a.label("child")
    a.mov_imm("rbp", 3000)
    a.label("spin")
    a.inc("r9")
    a.dec("rbp")
    a.jnz("spin")
    a.mov_imm("rcx", 1)
    a.store("r12", 0, "rcx")
    a.label("park")
    a.jmp("park")
    return finish(a, "nested-patch-result")


def _patch_after_wait(hctx):
    task, mem = hctx.task, hctx.mem
    flag = task.regs.read_name("r12")
    hctx.kernel.scheduler.wait_until(
        task, lambda: mem.read_u64(flag, check=None) == 1)
    at = task.regs.read_name("r14")
    mem.write(at, _addi_bytes(at, "r8", 5), check=None)


def _run_nested_patch(superblocks: bool, watch):
    """(exit code, code-write log) of one 2-core run."""
    machine = Machine(cores=2, smp_seed=7, superblocks=superblocks)
    log = watch(machine)
    machine.kernel.register_hcall(_patch_after_wait)
    process = machine.load(_nested_patch_image())
    return machine.run_process(process), list(log)


def test_nested_wait_code_write_leaves_no_stale_block(code_writes):
    reference, _ = _run_nested_patch(False, code_writes)
    code, log = _run_nested_patch(True, code_writes)
    assert code == reference
    assert log, "the hcall's code write never happened"
    assert all(stale == [] for _, stale in log), log
    assert any(before for before, _ in log), (
        "no block on the patched page outside the bound cache")


# -------------------------------------------- host write between rounds
def _two_loops_image(iterations: int):
    """Both threads run the same ``addi``/``xori`` loop on one code page,
    each on its own core; the sibling hands its r8 to the main thread,
    which exits with the sum."""
    a = asm()
    a.label("_start")
    _emit_clone_sibling(a)
    a.call("work")
    a.label("wait")
    a.load("rcx", "r12", 0)
    a.cmpi("rcx", 1)
    a.jnz("wait")
    a.load("rcx", "r12", 8)
    a.add("r8", "rcx")
    _emit_exit_r8(a)
    a.label("child")
    a.call("work")
    a.store("r12", 8, "r8")
    a.mov_imm("rcx", 1)
    a.store("r12", 0, "rcx")
    a.label("park")
    a.jmp("park")
    a.label("work")
    a.mov_imm("r8", 0)
    a.mov_imm("rbx", iterations)
    a.label("loop")
    a.label("patch")
    a.addi("r8", 3)
    a.xori("r8", 0x55)
    a.dec("rbx")
    a.jnz("loop")
    a.ret()
    return finish(a, "two-loops")


def _run_host_write(superblocks: bool, stop_after: int | None, watch):
    """Run until both cores compiled blocks and the last slice ran on
    core 1 (or, with ``stop_after``, until that many ``until()`` calls),
    write ``addi r8, 5`` over the loop's ``addi r8, 3`` from the host,
    then run to the end.  Returns (until calls, exit code, clock, log)."""
    machine = Machine(cores=2, smp_seed=7, superblocks=superblocks)
    image = _two_loops_image(2000)
    process = machine.load(image)
    mem = process.task.mem
    calls = [0]

    def both_cores_hot():
        calls[0] += 1
        if stop_after is not None:
            return calls[0] >= stop_after
        caches = [c.block_caches.get(mem.asid) for c in machine.cores]
        return (
            all(bc is not None and any(b.fn is not None
                                       for b in bc.blocks.values())
                for bc in caches)
            and mem.block_cache is caches[1]
        )

    machine.run(until=both_cores_hot)
    assert process.task.alive, "the loops finished before the write"
    log = watch(machine)
    at = image.symbols["patch"]
    mem.write(at, _addi_bytes(at, "r8", 5), check=None)
    log = list(log)
    code = machine.run_process(process)
    return calls[0], code, machine.clock, log


def test_host_write_between_rounds_leaves_no_stale_block(code_writes):
    calls, code, clock, log = _run_host_write(True, None, code_writes)
    assert log, "the host write bumped no exec generation"
    before, stale = log[0]
    assert before >= 1, "no block on the page outside the bound cache"
    assert stale == [], stale
    _, ref_code, ref_clock, _ = _run_host_write(False, calls, code_writes)
    assert (code, clock) == (ref_code, ref_clock)


# ------------------------------------------------ nested-wait restore point
def _wait_image():
    """The main thread's hcall waits for a CLONE_VM sibling's flag."""
    a = asm()
    a.label("_start")
    _emit_clone_sibling(a)
    a.hcall(0)
    a.mov_imm("r8", 0)
    _emit_exit_r8(a)
    a.label("child")
    a.mov_imm("rbp", 2000)
    a.label("spin")
    a.inc("r9")
    a.dec("rbp")
    a.jnz("spin")
    a.mov_imm("rcx", 1)
    a.store("r12", 0, "rcx")
    a.label("park")
    a.jmp("park")
    return finish(a, "nested-wait")


@pytest.mark.parametrize("tool", [None, "lazypoline", "lazypoline_pkey"])
def test_nested_wait_returns_with_the_waiters_bindings(tool):
    seen = []

    def wait_for_sibling(hctx):
        task, mem, kernel = hctx.task, hctx.mem, hctx.kernel
        sched = kernel.scheduler
        flag = task.regs.read_name("r12")
        sched.wait_until(task, lambda: mem.read_u64(flag, check=None) == 1)
        core = sched._current_core
        siblings = [t for t in kernel.tasks.values()
                    if t is not task and t.mem is mem]
        seen.append({
            "sibling_elsewhere": any(t.core_id != core.id and t.insn_count
                                     for t in siblings),
            "insn_cache": mem.insn_cache is core.caches[mem.asid],
            "block_cache": mem.block_cache is core.block_caches[mem.asid],
            "pkru": mem.active_pkru == task.regs.pkru,
        })

    machine = Machine(cores=2, smp_seed=7)
    machine.kernel.register_hcall(wait_for_sibling)
    process = machine.load(_wait_image())
    attach_mechanism(machine, process, tool)
    assert machine.run_process(process) == 0
    assert seen == [{"sibling_elsewhere": True, "insn_cache": True,
                     "block_cache": True, "pkru": True}]
