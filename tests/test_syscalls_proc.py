"""Process lifecycle: fork, wait4, clone threads, execve, kill."""

from __future__ import annotations

from repro.kernel.syscalls.table import NR
from repro.kernel import errno
from repro.kernel.syscalls.proc import THREAD_FLAGS, CLONE_VM

from tests.conftest import asm, emit_exit, emit_syscall, finish, run_program


def test_fork_returns_zero_in_child(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "fork")
    a.cmpi("rax", 0)
    a.jz("child")
    # parent: wait4(-1, status, 0, 0) then exit 10
    a.mov_imm("rdi", (1 << 64) - 1)
    a.mov_imm("rsi", 0)
    a.mov_imm("rdx", 0)
    a.mov_imm("rax", NR["wait4"])
    a.syscall()
    emit_exit(a, 10)
    a.label("child")
    emit_syscall(a, "write", 1, "msg", 6)
    emit_exit(a, 20)
    a.label("msg")
    a.db(b"child\n")
    proc, code = run_program(machine, finish(a))
    assert code == 10
    # parent's stdout buffer is separate from the child's
    assert proc.stdout == b""
    children = [t for t in machine.kernel.tasks.values() if t.parent is proc.task]
    assert len(children) == 1
    assert bytes(children[0].stdout) == b"child\n"
    assert children[0].exit_code == 20


def test_vfork_returns_zero_in_child(machine):
    """vfork is fork here (the parent is not suspended): the child gets 0
    and its own copy of memory, the parent reaps it."""
    a = asm()
    a.label("_start")
    emit_syscall(a, "vfork")
    a.cmpi("rax", 0)
    a.jz("child")
    a.mov_imm("rdi", (1 << 64) - 1)
    a.mov_imm("rsi", 0)
    a.mov_imm("rdx", 0)
    a.mov_imm("rax", NR["wait4"])
    a.syscall()
    emit_exit(a, 10)
    a.label("child")
    emit_exit(a, 20)
    proc, code = run_program(machine, finish(a))
    assert code == 10
    children = [t for t in machine.kernel.tasks.values()
                if t.parent is proc.task]
    assert len(children) == 1
    assert children[0].exit_code == 20
    assert children[0].mem is not proc.task.mem


def test_wait4_writes_status(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    emit_syscall(a, "fork")
    a.cmpi("rax", 0)
    a.jz("child")
    a.mov_imm("rdi", (1 << 64) - 1)
    a.mov("rsi", "r12")
    a.mov_imm("rdx", 0)
    a.mov_imm("rax", NR["wait4"])
    a.syscall()
    a.load("rdi", "r12", 0)
    a.shr("rdi", 8)  # status >> 8 == child exit code
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("child")
    emit_exit(a, 42)
    _proc, code = run_program(machine, finish(a))
    assert code == 42


def test_wait4_echild_without_children(machine):
    a = asm()
    a.label("_start")
    a.mov_imm("rdi", (1 << 64) - 1)
    a.mov_imm("rsi", 0)
    a.mov_imm("rdx", 0)
    a.mov_imm("rax", NR["wait4"])
    a.syscall()
    a.mov_imm("rbx", 0)
    a.sub("rbx", "rax")
    a.mov("rdi", "rbx")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    _proc, code = run_program(machine, finish(a))
    assert code == errno.ECHILD


def test_fork_memory_is_copied(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.mov_imm("rcx", 5)
    a.store("r12", 0, "rcx")
    emit_syscall(a, "fork")
    a.cmpi("rax", 0)
    a.jz("child")
    # parent waits, then reads its copy: must still be 5
    a.mov_imm("rdi", (1 << 64) - 1)
    a.mov_imm("rsi", 0)
    a.mov_imm("rdx", 0)
    a.mov_imm("rax", NR["wait4"])
    a.syscall()
    a.load("rdi", "r12", 0)
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("child")
    a.mov_imm("rcx", 9)
    a.store("r12", 0, "rcx")  # child's write must not affect the parent
    emit_exit(a, 0)
    _proc, code = run_program(machine, finish(a))
    assert code == 5


def test_clone_thread_shares_memory(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 8192, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    # clone(THREAD_FLAGS | CLONE_VM, child_stack = r12 + 8192)
    a.mov_imm("rdi", THREAD_FLAGS | CLONE_VM)
    a.lea("rsi", "r12", 8192)
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 0)
    a.mov_imm("r8", 0)
    a.mov_imm("rax", NR["clone"])
    a.syscall()
    a.cmpi("rax", 0)
    a.jz("child")
    # parent: spin until the shared flag changes
    a.label("spin")
    a.load("rcx", "r12", 0)
    a.cmpi("rcx", 7)
    a.jnz("spin")
    emit_exit(a, 7)
    a.label("child")
    a.mov_imm("rcx", 7)
    a.store("r12", 0, "rcx")
    a.mov_imm("rdi", 0)
    a.mov_imm("rax", NR["exit"])
    a.syscall()
    proc, code = run_program(machine, finish(a))
    assert code == 7
    threads = proc.threads()
    assert len(threads) == 2
    assert threads[0].pid == threads[1].pid


def test_clone_child_stack_is_honoured(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 8192, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.mov_imm("rdi", THREAD_FLAGS | CLONE_VM)
    a.lea("rsi", "r12", 4096)
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 0)
    a.mov_imm("r8", 0)
    a.mov_imm("rax", NR["clone"])
    a.syscall()
    a.cmpi("rax", 0)
    a.jz("child")
    a.label("spin")
    a.load("rcx", "r12", 8)
    a.cmpi("rcx", 1)
    a.jnz("spin")
    emit_exit(a, 0)
    a.label("child")
    # the child's rsp must be inside the provided stack
    a.mov("rcx", "rsp")
    a.sub("rcx", "r12")
    a.cmpi("rcx", 4096)
    a.jg("bad")
    a.mov_imm("rcx", 1)
    a.store("r12", 8, "rcx")
    a.mov_imm("rdi", 0)
    a.mov_imm("rax", NR["exit"])
    a.syscall()
    a.label("bad")
    a.mov_imm("rcx", 1)
    a.store("r12", 8, "rcx")
    a.mov_imm("rdi", 1)
    a.mov_imm("rax", NR["exit"])
    a.syscall()
    proc, code = run_program(machine, finish(a))
    assert code == 0
    children = [t for t in proc.threads() if t is not proc.task]
    assert children[0].exit_code == 0


def test_execve_replaces_image(machine):
    # target program
    t = asm()
    t.label("_start")
    emit_syscall(t, "write", 1, "m", 4)
    emit_exit(t, 33)
    t.label("m")
    t.db(b"new!")
    target = finish(t, name="target")
    machine.register_binary("/bin/target", target)

    a = asm()
    a.label("_start")
    emit_syscall(a, "execve", "path", 0, 0)
    emit_exit(a, 1)  # only reached if execve failed
    a.label("path")
    a.db(b"/bin/target\x00")
    proc, code = run_program(machine, finish(a))
    assert code == 33
    assert proc.stdout == b"new!"
    assert proc.task.comm == "target"


def test_execve_missing_binary(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "execve", "path", 0, 0)
    a.mov_imm("rbx", 0)
    a.sub("rbx", "rax")
    a.mov("rdi", "rbx")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("path")
    a.db(b"/bin/nothing\x00")
    _proc, code = run_program(machine, finish(a))
    assert code == errno.ENOENT


def test_set_tid_address_cleared_on_exit(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.mov_imm("rcx", 0xFF)
    a.store("r12", 0, "rcx")
    a.mov("rdi", "r12")
    a.mov_imm("rax", NR["set_tid_address"])
    a.syscall()
    emit_exit(a, 0)
    proc, _code = run_program(machine, finish(a))
    # The kernel zeroed the u32 at clear_child_tid on exit.
    assert proc.task.mem.read_u32(
        proc.task.clear_child_tid, check=None
    ) == 0


def test_exit_group_kills_all_threads(machine):
    a = asm()
    a.label("_start")
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
    emit_exit(a, 9)  # exit_group: must take the spinning child down too
    a.label("child")
    a.label("spin")
    a.jmp("spin")
    proc, code = run_program(machine, finish(a))
    assert code == 9
    assert all(not t.alive for t in proc.threads())
