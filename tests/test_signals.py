"""Signal delivery, handlers, masks, nested signals, sigreturn."""

from __future__ import annotations

from repro.kernel.signals import (
    FRAME_SIZE,
    SIGSEGV,
    SIGTERM,
    SIGUSR1,
    SIGUSR2,
)
from repro.kernel.syscalls.table import NR

from tests.conftest import asm, emit_exit, emit_syscall, finish, run_program


def _register(a, sig, act_label):
    a.mov_imm("rdi", sig)
    a.mov_imm("rsi", act_label)
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 8)
    a.mov_imm("rax", NR["rt_sigaction"])
    a.syscall()


def _raise_self(a, sig):
    emit_syscall(a, "getpid")
    a.mov("rdi", "rax")
    a.mov_imm("rsi", sig)
    a.mov_imm("rax", NR["kill"])
    a.syscall()


def test_default_sigterm_kills(machine):
    a = asm()
    a.label("_start")
    _raise_self(a, SIGTERM)
    emit_exit(a, 0)
    proc = machine.load(finish(a))
    machine.run(until=lambda: not proc.alive)
    assert proc.term_signal == SIGTERM


def test_hlt_in_user_mode_kills_with_sigsegv(machine):
    """hlt is privileged: in user mode it raises #GP, which Linux
    delivers as SIGSEGV."""
    a = asm()
    a.label("_start")
    a.hlt()
    emit_exit(a, 0)
    proc = machine.load(finish(a))
    machine.run(until=lambda: not proc.alive)
    assert proc.term_signal == SIGSEGV


def test_handler_runs_and_main_continues(machine):
    a = asm()
    a.label("_start")
    _register(a, SIGUSR1, "act")
    _raise_self(a, SIGUSR1)
    emit_syscall(a, "write", 1, "m_main", 5)
    emit_exit(a, 0)
    a.label("handler")
    emit_syscall(a, "write", 1, "m_hand", 5)
    a.ret()
    a.align(8, fill=0)
    a.label("act")
    a.dq("handler")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    a.label("m_main")
    a.db(b"main\n")
    a.label("m_hand")
    a.db(b"hand\n")
    proc, code = run_program(machine, finish(a))
    assert code == 0
    assert proc.stdout == b"hand\nmain\n"


def test_handler_preserves_interrupted_registers(machine):
    a = asm()
    a.label("_start")
    _register(a, SIGUSR1, "act")
    a.mov_imm("rbx", 0x1234)
    a.mov_imm("r15", 0x5678)
    _raise_self(a, SIGUSR1)
    # after the handler (which clobbers everything) rbx/r15 must be intact
    a.cmpi("rbx", 0x1234)
    a.jnz("bad")
    a.cmpi("r15", 0x5678)
    a.jnz("bad")
    emit_exit(a, 0)
    a.label("bad")
    emit_exit(a, 1)
    a.label("handler")
    a.mov_imm("rbx", 0)
    a.mov_imm("r15", 0)
    a.ret()
    a.align(8, fill=0)
    a.label("act")
    a.dq("handler")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    _proc, code = run_program(machine, finish(a))
    assert code == 0


def test_handler_preserves_xmm_state(machine):
    a = asm()
    a.label("_start")
    _register(a, SIGUSR1, "act")
    a.mov_imm("rax", 0xABCD)
    a.movq_xg("xmm6", "rax")
    _raise_self(a, SIGUSR1)
    a.movq_gx("rbx", "xmm6")
    a.cmpi("rbx", 0xABCD)
    a.jnz("bad")
    emit_exit(a, 0)
    a.label("bad")
    emit_exit(a, 1)
    a.label("handler")
    a.xorps("xmm6", "xmm6")  # clobber: frame xstate must restore it
    a.ret()
    a.align(8, fill=0)
    a.label("act")
    a.dq("handler")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    _proc, code = run_program(machine, finish(a))
    assert code == 0


def test_signal_blocked_by_mask_stays_pending(machine):
    a = asm()
    a.label("_start")
    _register(a, SIGUSR1, "act")
    # block SIGUSR1
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.mov_imm("rcx", 1 << SIGUSR1)
    a.store("r12", 0, "rcx")
    a.mov_imm("rdi", 0)  # SIG_BLOCK
    a.mov("rsi", "r12")
    a.mov_imm("rdx", 0)
    a.mov_imm("rax", NR["rt_sigprocmask"])
    a.syscall()
    _raise_self(a, SIGUSR1)
    emit_syscall(a, "write", 1, "m_main", 5)  # runs before the handler
    # unblock: handler fires now
    a.mov_imm("rdi", 1)  # SIG_UNBLOCK
    a.mov("rsi", "r12")
    a.mov_imm("rdx", 0)
    a.mov_imm("rax", NR["rt_sigprocmask"])
    a.syscall()
    a.nop()  # delivery point
    emit_exit(a, 0)
    a.label("handler")
    emit_syscall(a, "write", 1, "m_hand", 5)
    a.ret()
    a.align(8, fill=0)
    a.label("act")
    a.dq("handler")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    a.label("m_main")
    a.db(b"main\n")
    a.label("m_hand")
    a.db(b"hand\n")
    proc, code = run_program(machine, finish(a))
    assert code == 0
    assert proc.stdout == b"main\nhand\n"


def test_nested_different_signals(machine):
    a = asm()
    a.label("_start")
    _register(a, SIGUSR1, "act1")
    _register(a, SIGUSR2, "act2")
    _raise_self(a, SIGUSR1)
    emit_syscall(a, "write", 1, "m0", 2)
    emit_exit(a, 0)
    a.label("h1")
    # inside handler 1, raise USR2: nested delivery
    _raise_self(a, SIGUSR2)
    emit_syscall(a, "write", 1, "m1", 2)
    a.ret()
    a.label("h2")
    emit_syscall(a, "write", 1, "m2", 2)
    a.ret()
    a.align(8, fill=0)
    a.label("act1")
    a.dq("h1")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    a.label("act2")
    a.dq("h2")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    a.label("m0")
    a.db(b"0\n")
    a.label("m1")
    a.db(b"1\n")
    a.label("m2")
    a.db(b"2\n")
    proc, code = run_program(machine, finish(a))
    assert code == 0
    # USR2 delivered inside handler 1 (at its next syscall boundary) or
    # right after; both handlers must complete before main's write.
    assert proc.stdout.endswith(b"0\n")
    assert b"1\n" in proc.stdout and b"2\n" in proc.stdout


def test_same_signal_masked_during_handler(machine):
    a = asm()
    a.label("_start")
    _register(a, SIGUSR1, "act")
    _raise_self(a, SIGUSR1)
    emit_exit(a, 0)
    a.label("handler")
    # raising SIGUSR1 again inside its own handler must not recurse now;
    # it is delivered after sigreturn unblocks it.
    a.load("rcx", "rsp", -2048)  # dummy
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r14", "rax")
    a.load("rcx", "r14", 0)  # counter
    a.cmpi("rcx", 0)
    a.jnz("second_time")
    a.mov_imm("rcx", 1)
    a.store("r14", 0, "rcx")
    a.ret()
    a.label("second_time")
    a.ret()
    a.align(8, fill=0)
    a.label("act")
    a.dq("handler")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    _proc, code = run_program(machine, finish(a))
    assert code == 0


def test_sigsegv_handler_can_fix_and_resume(machine):
    """The handler mmaps the faulting page; the faulting load re-executes."""
    a = asm()
    a.label("_start")
    _register(a, SIGSEGV, "act")
    a.mov_imm("rbx", 0x9000_0000)
    a.load("rcx", "rbx", 0)  # faults; handler maps the page; re-runs
    a.cmpi("rcx", 0)
    a.jnz("bad")
    emit_exit(a, 0)
    a.label("bad")
    emit_exit(a, 1)
    a.label("handler")
    emit_syscall(a, "mmap", 0x9000_0000, 4096, 3, 0x32, (1 << 64) - 1, 0)
    a.ret()
    a.align(8, fill=0)
    a.label("act")
    a.dq("handler")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    _proc, code = run_program(machine, finish(a))
    assert code == 0


def test_frame_size_sane():
    assert FRAME_SIZE % 16 == 0
    assert FRAME_SIZE >= 1024  # must hold the full xstate
