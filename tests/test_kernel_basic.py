"""Kernel basics: program execution, syscall ABI, faults, clock."""

from __future__ import annotations

import pytest

from repro.arch.registers import RCX, R11
from repro.kernel.machine import Machine
from repro.kernel.syscalls.table import NR
from repro.kernel import errno
from repro.obs import events as K
from repro.obs.tracer import Tracer

from tests.conftest import asm, emit_exit, emit_syscall, finish, hello_image, run_program


def test_hello_world(machine):
    proc, code = run_program(machine, hello_image(b"hi!\n", exit_code=3))
    assert code == 3
    assert proc.stdout == b"hi!\n"


def test_clock_advances(machine):
    run_program(machine, hello_image())
    assert machine.clock > 0
    assert machine.seconds == pytest.approx(machine.clock / 2.1e9)


def test_getpid_gettid_match_for_leader(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "getpid")
    a.mov("rbx", "rax")
    emit_syscall(a, "gettid")
    a.sub("rax", "rbx")  # tid - pid == 0 for the leader
    a.mov("rdi", "rax")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    proc, code = run_program(machine, finish(a))
    assert code == 0


def test_nosys_returns_enosys(machine):
    a = asm()
    a.label("_start")
    a.mov_imm("rax", 500)
    a.syscall()
    # exit with (negated) errno so the test can observe it
    a.mov_imm("rbx", 0)
    a.sub("rbx", "rax")
    a.mov("rdi", "rbx")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    _proc, code = run_program(machine, finish(a))
    assert code == errno.ENOSYS


def test_syscall_clobbers_rcx_r11_only(machine):
    a = asm()
    a.label("_start")
    a.mov_imm("rbx", 111)
    a.mov_imm("r12", 222)
    a.mov_imm("rcx", 333)
    a.mov_imm("r11", 444)
    emit_syscall(a, "getpid")
    # rbx/r12 must survive; rcx/r11 are architecturally clobbered
    a.cmpi("rbx", 111)
    a.jnz("bad")
    a.cmpi("r12", 222)
    a.jnz("bad")
    a.cmpi("rcx", 333)
    a.jz("bad")  # rcx must NOT be 333 anymore
    emit_exit(a, 0)
    a.label("bad")
    emit_exit(a, 1)
    _proc, code = run_program(machine, finish(a))
    assert code == 0


def test_rcx_holds_return_rip_after_syscall(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "getpid")
    a.label("after")
    a.mov_imm("rbx", "after")
    a.sub("rcx", "rbx")
    a.mov("rdi", "rcx")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    _proc, code = run_program(machine, finish(a))
    assert code == 0


def test_segfault_kills_process(machine):
    a = asm()
    a.label("_start")
    a.mov_imm("rbx", 0xDEAD0000)
    a.load("rax", "rbx", 0)  # unmapped
    emit_exit(a, 0)
    proc = machine.load(finish(a))
    machine.run(until=lambda: not proc.alive)
    from repro.kernel.signals import SIGSEGV

    assert proc.term_signal == SIGSEGV


def test_sigill_on_ud2(machine):
    a = asm()
    a.label("_start")
    a.ud2()
    proc = machine.load(finish(a))
    machine.run(until=lambda: not proc.alive)
    from repro.kernel.signals import SIGILL

    assert proc.term_signal == SIGILL


def test_argv_passed_to_program(machine):
    # _start receives rdi=argc, rsi=argv; write argv[1] to stdout
    a = asm()
    a.label("_start")
    a.load("rsi", "rsi", 8)  # argv[1]
    a.mov_imm("rdi", 1)
    a.mov_imm("rdx", 4)
    a.mov_imm("rax", NR["write"])
    a.syscall()
    emit_exit(a, 0)
    proc, code = run_program(machine, finish(a), argv=("prog", "abcd"))
    assert code == 0
    assert proc.stdout == b"abcd"


def test_brk_allocates(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "brk", 0)
    a.mov("rbx", "rax")  # current brk
    a.mov("rdi", "rbx")
    a.addi("rdi", 0x2000)
    emit_syscall(a, "brk", 0)  # note: emit_syscall resets rdi; redo manually
    proc, code = run_program(machine, finish(a))
    assert code == 0


def test_mmap_munmap_cycle(machine):
    a = asm()
    a.label("_start")
    # mmap(0, 8192, RW, ANON|PRIVATE, -1, 0)
    emit_syscall(a, "mmap", 0, 8192, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("rbx", "rax")
    # store + reload through the new mapping
    a.mov_imm("rcx", 0x77)
    a.store("rbx", 100, "rcx")
    a.load("rdx", "rbx", 100)
    a.cmpi("rdx", 0x77)
    a.jnz("bad")
    emit_exit(a, 0)
    a.label("bad")
    emit_exit(a, 1)
    _proc, code = run_program(machine, finish(a))
    assert code == 0


def test_mprotect_makes_page_readonly(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("rbx", "rax")
    # mprotect(addr, 4096, PROT_READ)
    a.mov("rdi", "rbx")
    a.mov_imm("rsi", 4096)
    a.mov_imm("rdx", 1)
    a.mov_imm("rax", NR["mprotect"])
    a.syscall()
    a.mov_imm("rcx", 1)
    a.store("rbx", 0, "rcx")  # faults: SIGSEGV
    emit_exit(a, 0)
    proc = machine.load(finish(a))
    machine.run(until=lambda: not proc.alive)
    from repro.kernel.signals import SIGSEGV

    assert proc.term_signal == SIGSEGV


def test_uname(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("rdi", "rax")
    a.mov("rbx", "rax")
    a.mov_imm("rax", NR["uname"])
    a.syscall()
    a.mov("rsi", "rbx")
    a.mov_imm("rdi", 1)
    a.mov_imm("rdx", 5)
    a.mov_imm("rax", NR["write"])
    a.syscall()
    emit_exit(a, 0)
    proc, code = run_program(machine, finish(a))
    assert proc.stdout == b"Linux"


def test_syscall_log_when_tracing_enabled(machine):
    """An attached tracer logs every dispatched syscall as an event."""
    tracer = Tracer()
    machine.attach_tracer(tracer)
    run_program(machine, hello_image())
    names = [e.data["sysno"] for e in tracer.events if e.kind == K.SYSCALL]
    assert NR["write"] in names
    assert NR["exit_group"] in names


def test_deterministic_execution():
    m1 = Machine()
    run_program(m1, hello_image())
    m2 = Machine()
    run_program(m2, hello_image())
    assert m1.clock == m2.clock
