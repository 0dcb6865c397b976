"""Memory protection keys and the §VI lazypoline security extension."""

from __future__ import annotations

import pytest

from repro.errors import PageFault
from repro.interpose.api import TraceInterposer
from repro.interpose.lazypoline import Lazypoline, LazypolineConfig, gsrel
from repro.kernel import errno
from repro.kernel.signals import SIGSEGV, SIGUSR1
from repro.kernel.sud import SELECTOR_ALLOW
from repro.kernel.syscalls.table import NR
from repro.mem.address_space import AddressSpace
from repro.mem.pages import PAGE_SIZE, Perm

from tests.conftest import (
    asm,
    emit_exit,
    emit_syscall,
    exit_steps,
    expect_rax,
    finish,
    hello_image,
)


# ------------------------------------------------------------- memory layer
def test_pkey_blocks_user_write():
    mem = AddressSpace()
    mem.map(0x1000, PAGE_SIZE, Perm.RW)
    key = mem.pkey_alloc()
    mem.assign_pkey(0x1000, PAGE_SIZE, key)
    mem.active_pkru = 2 << (2 * key)  # write-disable
    mem.read(0x1000, 4)  # reads still fine
    with pytest.raises(PageFault):
        mem.write(0x1000, b"x")
    mem.active_pkru = 0
    mem.write(0x1000, b"x")  # open: allowed


def test_pkey_access_disable_blocks_reads():
    mem = AddressSpace()
    mem.map(0x1000, PAGE_SIZE, Perm.RW)
    key = mem.pkey_alloc()
    mem.assign_pkey(0x1000, PAGE_SIZE, key)
    mem.active_pkru = 1 << (2 * key)  # access-disable
    with pytest.raises(PageFault):
        mem.read(0x1000, 1)


def test_pkey_zero_is_never_restricted():
    mem = AddressSpace()
    mem.map(0x1000, PAGE_SIZE, Perm.RW)
    mem.active_pkru = 0xFFFFFFFF
    mem.write(0x1000, b"ok")  # key 0 pages ignore PKRU


def test_kernel_access_bypasses_pkeys():
    mem = AddressSpace()
    mem.map(0x1000, PAGE_SIZE, Perm.RW)
    key = mem.pkey_alloc()
    mem.assign_pkey(0x1000, PAGE_SIZE, key)
    mem.active_pkru = 3 << (2 * key)
    mem.write(0x1000, b"k", check=None)
    assert mem.read(0x1000, 1, check=None) == b"k"


def test_pkey_alloc_free_cycle():
    mem = AddressSpace()
    keys = [mem.pkey_alloc() for _ in range(15)]
    assert keys == list(range(1, 16))
    assert mem.pkey_alloc() == -1  # exhausted
    assert mem.pkey_free(7)
    assert mem.pkey_alloc() == 7
    assert not mem.pkey_free(99)


# ----------------------------------------------------------- guest-visible
def test_guest_pkey_free_releases_an_allocated_key(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "pkey_alloc", 0, 0)
    a.mov("rbx", "rax")
    emit_syscall(a, "pkey_free", "rbx")
    expect_rax(a, 0, step=1)
    emit_syscall(a, "pkey_free", "rbx")
    expect_rax(a, -errno.EINVAL, step=2)  # already free
    exit_steps(a)
    proc = machine.load(finish(a))
    code = machine.run_process(proc)
    assert code == 0, f"check {code} failed"
    assert not proc.task.mem.allocated_pkeys


def test_wrpkru_rdpkru_roundtrip(machine):
    a = asm()
    a.label("_start")
    a.mov_imm("rax", 0xC)
    a.wrpkru("rax")
    a.rdpkru("rbx")
    a.mov("rdi", "rbx")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    from tests.conftest import run_program

    _proc, code = run_program(machine, finish(a))
    assert code == 0xC


def test_guest_pkey_syscalls(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    # key = pkey_alloc()
    a.mov_imm("rdi", 0)
    a.mov_imm("rsi", 0)
    a.mov_imm("rax", NR["pkey_alloc"])
    a.syscall()
    a.mov("rbx", "rax")  # key (should be 1)
    # pkey_mprotect(page, 4096, RW, key)
    a.mov("rdi", "r12")
    a.mov_imm("rsi", 4096)
    a.mov_imm("rdx", 3)
    a.mov("r10", "rbx")
    a.mov_imm("rax", NR["pkey_mprotect"])
    a.syscall()
    a.cmpi("rax", 0)
    a.jnz("bad")
    # deny writes via PKRU, then try to write -> SIGSEGV kills us (exit 77
    # is never reached)
    a.mov_imm("rax", 2 << 2)  # WD for key 1
    a.wrpkru("rax")
    a.mov_imm("rcx", 1)
    a.store("r12", 0, "rcx")
    emit_exit(a, 77)
    a.label("bad")
    emit_exit(a, 1)
    proc = machine.load(finish(a))
    machine.run(until=lambda: not proc.alive)
    assert proc.term_signal == SIGSEGV


def test_fault_message_mentions_pkey():
    mem = AddressSpace()
    mem.map(0x1000, PAGE_SIZE, Perm.RW)
    key = mem.pkey_alloc()
    mem.assign_pkey(0x1000, PAGE_SIZE, key)
    mem.active_pkru = 2 << (2 * key)
    with pytest.raises(PageFault, match="pkey"):
        mem.write(0x1000, b"x")


# ------------------------------------------------- lazypoline secure mode
def _attack_program():
    """Leak gs_base, overwrite the selector with ALLOW, then getpid.

    If the overwrite succeeds, the getpid bypasses interposition entirely.
    """
    a = asm()
    a.label("_start")
    a.rdgsbase("rbx")  # the attacker learns the selector address
    a.mov_imm("rcx", SELECTOR_ALLOW)
    a.store8("rbx", gsrel.GS_SELECTOR, "rcx")  # the malicious overwrite
    emit_syscall(a, "getpid")  # should be interposed... unless bypassed
    emit_exit(a, 0)
    return finish(a)


def test_selector_overwrite_bypasses_unprotected_lazypoline(machine):
    proc = machine.load(_attack_program())
    tr = TraceInterposer()
    Lazypoline._install(machine, proc, tr)
    code = machine.run_process(proc)
    assert code == 0
    # The attack worked: getpid ran natively, invisible to the interposer.
    assert "getpid" not in tr.names


def test_pkey_mode_stops_selector_overwrite(machine):
    proc = machine.load(_attack_program())
    tr = TraceInterposer()
    Lazypoline._install(
        machine, proc, tr, LazypolineConfig(protect_gs_with_pkey=True)
    )
    machine.run(until=lambda: not proc.alive)
    # The malicious store faulted: the process died with SIGSEGV before it
    # could make an uninterposed syscall.
    assert proc.term_signal == SIGSEGV
    assert "getpid" not in tr.names  # it never even got to the syscall


def test_pkey_mode_preserves_normal_operation(machine):
    proc = machine.load(hello_image(b"sec\n", exit_code=4))
    tr = TraceInterposer()
    tool = Lazypoline._install(
        machine, proc, tr, LazypolineConfig(protect_gs_with_pkey=True)
    )
    code = machine.run_process(proc)
    assert code == 4
    assert proc.stdout == b"sec\n"
    assert tr.names == ["write", "exit_group"]
    assert tool._pkey >= 1


def test_pkey_mode_signals_still_work(machine):
    a = asm()
    a.label("_start")
    a.mov_imm("rdi", SIGUSR1)
    a.mov_imm("rsi", "act")
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 8)
    a.mov_imm("rax", NR["rt_sigaction"])
    a.syscall()
    emit_syscall(a, "getpid")
    a.mov("rdi", "rax")
    a.mov_imm("rsi", SIGUSR1)
    a.mov_imm("rax", NR["kill"])
    a.syscall()
    emit_syscall(a, "write", 1, "m", 2)
    emit_exit(a, 0)
    a.label("handler")
    emit_syscall(a, "write", 1, "h", 2)
    a.ret()
    a.align(8, fill=0)
    a.label("act")
    a.dq("handler")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    a.label("m")
    a.db(b"M\n")
    a.label("h")
    a.db(b"H\n")
    proc = machine.load(finish(a))
    tr = TraceInterposer()
    Lazypoline._install(
        machine, proc, tr, LazypolineConfig(protect_gs_with_pkey=True)
    )
    code = machine.run_process(proc)
    assert code == 0
    assert proc.stdout == b"H\nM\n"
    assert "rt_sigreturn" in tr.names


def test_pkey_domain_closed_again_after_signal_roundtrip(machine):
    """After a full signal + sigreturn + trampoline cycle, application code
    must be back in the closed domain: a selector overwrite still faults."""
    a = asm()
    a.label("_start")
    a.mov_imm("rdi", SIGUSR1)
    a.mov_imm("rsi", "act")
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 8)
    a.mov_imm("rax", NR["rt_sigaction"])
    a.syscall()
    emit_syscall(a, "getpid")
    a.mov("rdi", "rax")
    a.mov_imm("rsi", SIGUSR1)
    a.mov_imm("rax", NR["kill"])
    a.syscall()
    # post-signal attack: overwrite the selector
    a.rdgsbase("rbx")
    a.mov_imm("rcx", SELECTOR_ALLOW)
    a.store8("rbx", gsrel.GS_SELECTOR, "rcx")
    emit_exit(a, 99)  # only reached if the domain was left open
    a.label("handler")
    a.ret()
    a.align(8, fill=0)
    a.label("act")
    a.dq("handler")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    proc = machine.load(finish(a))
    Lazypoline._install(
        machine, proc, TraceInterposer(),
        LazypolineConfig(protect_gs_with_pkey=True),
    )
    machine.run(until=lambda: not proc.alive)
    assert proc.term_signal == SIGSEGV  # the attack faulted, post-signal too


def test_pkey_mode_xstate_still_preserved(machine):
    def clobber(ctx):
        ctx.task.regs.write_xmm(0, 0)
        return ctx.do_syscall()

    a = asm()
    a.label("_start")
    a.mov_imm("rax", 0x31)
    a.movq_xg("xmm0", "rax")
    emit_syscall(a, "getpid")
    a.movq_gx("rbx", "xmm0")
    a.cmpi("rbx", 0x31)
    a.jnz("bad")
    emit_exit(a, 0)
    a.label("bad")
    emit_exit(a, 1)
    proc = machine.load(finish(a))
    Lazypoline._install(
        machine, proc, clobber, LazypolineConfig(protect_gs_with_pkey=True)
    )
    assert machine.run_process(proc) == 0
