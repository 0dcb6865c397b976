"""The seccomp USER_NOTIF supervisor tool."""

from __future__ import annotations

from repro.interpose import TraceInterposer, attach
from repro.interpose.usernotif_tool import UserNotifTool
from repro.kernel import errno
from repro.kernel.syscalls.table import NR

from tests.conftest import asm, emit_exit, emit_syscall, finish, hello_image


def test_notify_all_traces_everything(machine):
    proc = machine.load(hello_image(b"un\n", exit_code=3))
    tr = TraceInterposer()
    tool = UserNotifTool._install(machine, proc, tr)
    code = machine.run_process(proc)
    assert code == 3
    assert proc.stdout == b"un\n"
    assert tr.names == ["write", "exit_group"]
    assert tool.notifications == 2


def test_supervisor_denies_syscall(machine):
    def deny_mkdir(ctx):
        if ctx.name == "mkdir":
            return -errno.EPERM
        return ctx.do_syscall()

    a = asm()
    a.label("_start")
    emit_syscall(a, "mkdir", "p", 0o755)
    a.mov_imm("rbx", 0)
    a.sub("rbx", "rax")
    a.mov("rdi", "rbx")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("p")
    a.db(b"/nope\x00")
    proc = machine.load(finish(a))
    UserNotifTool._install(machine, proc, deny_mkdir)
    assert machine.run_process(proc) == errno.EPERM
    assert not machine.fs.exists("/nope")


def test_supervisor_continue_lets_kernel_execute(machine):
    """Returning None means SECCOMP_USER_NOTIF_FLAG_CONTINUE."""
    seen = []

    def observe(ctx):
        seen.append(ctx.name)
        return None  # continue: the kernel executes it natively

    proc = machine.load(hello_image(b"ok\n"))
    UserNotifTool._install(machine, proc, observe)
    code = machine.run_process(proc)
    assert code == 0
    assert proc.stdout == b"ok\n"
    assert "write" in seen


def test_selective_notification(machine):
    tr = TraceInterposer()
    a = asm()
    a.label("_start")
    emit_syscall(a, "getpid")
    emit_syscall(a, "mkdir", "p", 0o755)
    emit_exit(a, 0)
    a.label("p")
    a.db(b"/sel\x00")
    proc = machine.load(finish(a))
    tool = attach(machine, proc, "seccomp_unotify", interposer=tr,
                  sysnos=[NR["mkdir"]])
    machine.run_process(proc)
    # Only mkdir notified; getpid and exit ran natively.
    assert tr.names == ["mkdir"]
    assert tool.notifications == 1
    assert machine.fs.exists("/sel")


def test_user_notif_is_slower_than_native(machine):
    from repro.kernel.machine import Machine

    def run(with_tool):
        m = Machine()
        p = m.load(hello_image())
        if with_tool:
            UserNotifTool._install(m, p)
        m.run_process(p)
        return m.clock

    assert run(True) > run(False) + 2 * 4 * 1500 - 1  # >= 4 context switches/call
