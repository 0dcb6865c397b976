"""Misc syscalls: iovecs, futex threads, time, randomness, errno paths."""

from __future__ import annotations

import struct

import pytest

from repro.kernel import errno
from repro.kernel.machine import Machine
from repro.kernel.syscalls.misc import ARCH_SET_FS, ARCH_SET_GS
from repro.kernel.syscalls.proc import CLONE_VM, THREAD_FLAGS
from repro.kernel.syscalls.table import NR

from tests.conftest import (
    asm,
    emit_exit,
    emit_syscall,
    exit_steps,
    expect_rax,
    finish,
    run_program,
)


def test_writev_gathers(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    # iovec[0] = {msg1, 3}; iovec[1] = {msg2, 3}
    a.mov_imm("rcx", "m1")
    a.store("r12", 0, "rcx")
    a.mov_imm("rcx", 3)
    a.store("r12", 8, "rcx")
    a.mov_imm("rcx", "m2")
    a.store("r12", 16, "rcx")
    a.mov_imm("rcx", 3)
    a.store("r12", 24, "rcx")
    a.mov_imm("rdi", 1)
    a.mov("rsi", "r12")
    a.mov_imm("rdx", 2)
    a.mov_imm("rax", NR["writev"])
    a.syscall()
    a.mov("rdi", "rax")  # total bytes
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("m1")
    a.db(b"abc")
    a.label("m2")
    a.db(b"def")
    proc, code = run_program(machine, finish(a))
    assert code == 6
    assert proc.stdout == b"abcdef"


def test_readv_scatters(machine):
    machine.fs.create("/f", b"ABCDEFGH")
    a = asm()
    a.label("_start")
    emit_syscall(a, "open", "path", 0, 0)
    a.mov("rbx", "rax")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    # two 3-byte buffers at r12+256 and r12+512
    a.lea("rcx", "r12", 256)
    a.store("r12", 0, "rcx")
    a.mov_imm("rcx", 3)
    a.store("r12", 8, "rcx")
    a.lea("rcx", "r12", 512)
    a.store("r12", 16, "rcx")
    a.mov_imm("rcx", 3)
    a.store("r12", 24, "rcx")
    a.mov("rdi", "rbx")
    a.mov("rsi", "r12")
    a.mov_imm("rdx", 2)
    a.mov_imm("rax", NR["readv"])
    a.syscall()
    a.cmpi("rax", 6)
    a.jnz("bad")
    # check the scattered bytes
    a.load8("rcx", "r12", 256)
    a.cmpi("rcx", ord("A"))
    a.jnz("bad")
    a.load8("rcx", "r12", 512 + 2)
    a.cmpi("rcx", ord("F"))
    a.jnz("bad")
    emit_exit(a, 0)
    a.label("bad")
    emit_exit(a, 1)
    a.label("path")
    a.db(b"/f\x00")
    _proc, code = run_program(machine, finish(a))
    assert code == 0


def test_writev_bad_fd(machine):
    a = asm()
    a.label("_start")
    a.mov_imm("rdi", 99)
    a.mov_imm("rsi", 0x1000)
    a.mov_imm("rdx", 1)
    a.mov_imm("rax", NR["writev"])
    a.syscall()
    a.mov_imm("rbx", 0)
    a.sub("rbx", "rax")
    a.mov("rdi", "rbx")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    _proc, code = run_program(machine, finish(a))
    assert code == errno.EBADF


def test_futex_wait_wake_between_threads(machine):
    """Main thread futex-waits; the spawned thread wakes it."""
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 8192, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")  # futex word at [r12], child stack at top
    a.mov_imm("rdi", THREAD_FLAGS | CLONE_VM)
    a.lea("rsi", "r12", 8192)
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 0)
    a.mov_imm("r8", 0)
    a.mov_imm("rax", NR["clone"])
    a.syscall()
    a.cmpi("rax", 0)
    a.jz("child")
    # parent: FUTEX_WAIT(r12, 0)
    a.mov("rdi", "r12")
    a.mov_imm("rsi", 0)  # FUTEX_WAIT
    a.mov_imm("rdx", 0)  # expected value
    a.mov_imm("r10", 0)
    a.mov_imm("rax", NR["futex"])
    a.syscall()
    # woken: read the value the child wrote
    a.load("rdi", "r12", 8)
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("child")
    a.mov_imm("rcx", 123)
    a.store("r12", 8, "rcx")
    a.mov_imm("rcx", 1)
    a.store("r12", 0, "rcx")
    # FUTEX_WAKE(r12, 1)
    a.mov("rdi", "r12")
    a.mov_imm("rsi", 1)  # FUTEX_WAKE
    a.mov_imm("rdx", 1)
    a.mov_imm("rax", NR["futex"])
    a.syscall()
    a.mov_imm("rdi", 0)
    a.mov_imm("rax", NR["exit"])
    a.syscall()
    proc, code = run_program(machine, finish(a))
    assert code == 123


def test_futex_wait_value_mismatch_eagain(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.mov_imm("rcx", 5)
    a.store("r12", 0, "rcx")
    a.mov("rdi", "r12")
    a.mov_imm("rsi", 0)  # FUTEX_WAIT
    a.mov_imm("rdx", 0)  # expected 0, actual 5
    a.mov_imm("rax", NR["futex"])
    a.syscall()
    a.mov_imm("rbx", 0)
    a.sub("rbx", "rax")
    a.mov("rdi", "rbx")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    _proc, code = run_program(machine, finish(a))
    assert code == errno.EAGAIN


def test_getrandom_fills_buffer_deterministically():
    def run_once():
        m = Machine()
        a = asm()
        a.label("_start")
        emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
        a.mov("r12", "rax")
        a.mov("rdi", "r12")
        a.mov_imm("rsi", 16)
        a.mov_imm("rdx", 0)
        a.mov_imm("rax", NR["getrandom"])
        a.syscall()
        emit_exit(a, 0)
        proc, _ = run_program(m, finish(a))
        buf = proc.task.regs.read_name("r12")
        return proc.task.mem.read(buf, 16, check=None)

    first = run_once()
    assert first != b"\x00" * 16


def test_clock_gettime_tracks_simulated_time(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.mov_imm("rdi", 1)
    a.mov("rsi", "r12")
    a.mov_imm("rax", NR["clock_gettime"])
    a.syscall()
    emit_exit(a, 0)
    proc, code = run_program(machine, finish(a))
    assert code == 0
    buf = proc.task.regs.read_name("r12")
    sec = proc.task.mem.read_u64(buf, check=None)
    nsec = proc.task.mem.read_u64(buf + 8, check=None)
    assert sec == 0
    assert 0 < nsec < 1e9


@pytest.mark.parametrize(
    "name,args,expected",
    [
        ("close", (99,), errno.EBADF),
        ("lseek", (99, 0, 0), errno.EBADF),
        ("epoll_ctl", (99, 1, 0, 0), errno.EINVAL),
        ("chdir", (0x10,), errno.EFAULT),
        ("ioctl", (99, 0x5401, 0), errno.EBADF),
        ("ioctl", (1, 0x5401, 0), errno.ENOTTY),  # TCGETS: not a tty
        ("arch_prctl", (0x9999, 0), errno.EINVAL),
        ("time", (0x10,), errno.EFAULT),
        ("pkey_free", (7,), errno.EINVAL),  # never allocated
        ("setsockopt", (99, 1, 2, 0, 0), errno.EBADF),
        ("shutdown", (1, 2), errno.ENOTSOCK),
    ],
)
def test_error_paths(machine, name, args, expected):
    a = asm()
    a.label("_start")
    emit_syscall(a, name, *args)
    a.mov_imm("rbx", 0)
    a.sub("rbx", "rax")
    a.mov("rdi", "rbx")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    _proc, code = run_program(machine, finish(a))
    assert code == expected


def test_arch_prctl_sets_gs_base_and_accepts_fs(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "arch_prctl", ARCH_SET_GS, 0x5000)
    expect_rax(a, 0, step=1)
    emit_syscall(a, "arch_prctl", ARCH_SET_FS, 0x6000)
    expect_rax(a, 0, step=2)
    exit_steps(a)
    proc, code = run_program(machine, finish(a))
    assert code == 0, f"check {code} failed"
    assert proc.task.regs.gs_base == 0x5000


def test_time_and_clock_nanosleep_follow_simulated_time(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    emit_syscall(a, "time", 0)
    expect_rax(a, 0, step=1)
    # clock_nanosleep(CLOCK_MONOTONIC, 0, {2 s, 0 ns}, NULL)
    emit_syscall(a, "clock_nanosleep", 1, 0, "two_seconds", 0)
    expect_rax(a, 0, step=2)
    emit_syscall(a, "time", "r12")
    expect_rax(a, 2, step=3)
    a.load("rax", "r12", 0)  # time(buf) also stores the seconds
    expect_rax(a, 2, step=4)
    exit_steps(a)
    a.label("two_seconds")
    a.db(struct.pack("<QQ", 2, 0))
    _proc, code = run_program(machine, finish(a))
    assert code == 0, f"check {code} failed"
    assert machine.kernel.now >= 2 * machine.kernel.costs.frequency_hz


def test_sigaltstack_is_accepted(machine):
    """Signal frames always go on the current stack; sigaltstack is
    accepted so that programs which install one still run."""
    a = asm()
    a.label("_start")
    emit_syscall(a, "sigaltstack", 0, 0)
    emit_syscall(a, "exit_group", "rax")
    _proc, code = run_program(machine, finish(a))
    assert code == 0
