"""SudTool / SeccompUserTool / PtraceTool behaviour."""

from __future__ import annotations

import pytest

from repro.interpose.api import DenyListInterposer, TraceInterposer
from repro.interpose.ptrace_tool import PtraceTool
from repro.interpose.seccomp_user_tool import SeccompUserTool
from repro.interpose.sud_tool import SudTool
from repro.kernel import errno
from repro.kernel.machine import Machine
from repro.kernel.signals import SIGUSR1
from repro.kernel.sud import SELECTOR_BLOCK
from repro.kernel.syscalls.table import NR

from tests.conftest import asm, emit_exit, emit_syscall, finish, hello_image

SIGNAL_TOOLS = [SudTool, SeccompUserTool]
ALL_TOOLS = [SudTool, SeccompUserTool, PtraceTool]


@pytest.mark.parametrize("Tool", ALL_TOOLS, ids=lambda t: t.__name__)
def test_trace_and_program_correctness(Tool, machine):
    proc = machine.load(hello_image(b"sig\n", exit_code=8))
    tr = TraceInterposer()
    Tool._install(machine, proc, tr)
    code = machine.run_process(proc)
    assert code == 8
    assert proc.stdout == b"sig\n"
    assert "write" in tr.names


@pytest.mark.parametrize("Tool", SIGNAL_TOOLS, ids=lambda t: t.__name__)
def test_result_patched_into_context(Tool, machine):
    def fake(ctx):
        if ctx.name == "getpid":
            ctx.do_syscall()
            return 77
        return ctx.do_syscall()

    a = asm()
    a.label("_start")
    emit_syscall(a, "getpid")
    a.mov("rdi", "rax")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    proc = machine.load(finish(a))
    Tool._install(machine, proc, fake)
    assert machine.run_process(proc) == 77


@pytest.mark.parametrize("Tool", SIGNAL_TOOLS, ids=lambda t: t.__name__)
def test_deny_interposer(Tool, machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mkdir", "p", 0o755)
    a.mov_imm("rbx", 0)
    a.sub("rbx", "rax")
    a.mov("rdi", "rbx")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("p")
    a.db(b"/deny\x00")
    proc = machine.load(finish(a))
    Tool._install(machine, proc, DenyListInterposer({NR["mkdir"]: errno.EPERM}))
    assert machine.run_process(proc) == errno.EPERM
    assert not machine.fs.exists("/deny")


@pytest.mark.parametrize("Tool", SIGNAL_TOOLS, ids=lambda t: t.__name__)
def test_nested_app_sigreturn_emulated(Tool, machine):
    """An app signal handler under a SIGSYS-based tool: its sigreturn is
    itself trapped and must be emulated against the outer frame."""
    a = asm()
    a.label("_start")
    a.mov_imm("rdi", SIGUSR1)
    a.mov_imm("rsi", "act")
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 8)
    a.mov_imm("rax", NR["rt_sigaction"])
    a.syscall()
    a.mov_imm("rbx", 0x42)  # must survive the whole signal round trip
    emit_syscall(a, "getpid")
    a.mov("rdi", "rax")
    a.mov_imm("rsi", SIGUSR1)
    a.mov_imm("rax", NR["kill"])
    a.syscall()
    a.cmpi("rbx", 0x42)
    a.jnz("bad")
    emit_syscall(a, "write", 1, "m", 2)
    emit_exit(a, 0)
    a.label("bad")
    emit_exit(a, 1)
    a.label("handler")
    emit_syscall(a, "getpid")  # a syscall inside the handler
    a.ret()
    a.align(8, fill=0)
    a.label("act")
    a.dq("handler")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    a.label("m")
    a.db(b"M\n")
    proc = machine.load(finish(a))
    tr = TraceInterposer()
    tool = Tool._install(machine, proc, tr)
    code = machine.run_process(proc)
    assert code == 0
    assert proc.stdout == b"M\n"
    assert "rt_sigreturn" in tr.names
    assert tr.count("getpid") == 2  # main + handler
    assert tool.sigsys_count >= 5


def test_sud_tool_selector_is_block_outside_handler(machine):
    proc = machine.load(hello_image())
    tool = SudTool._install(machine, proc)
    machine.run_process(proc)
    assert proc.task.mem.read_u8(tool.selector_addr, check=None) == SELECTOR_BLOCK


def test_sud_tool_rearms_fork_child(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "fork")
    a.cmpi("rax", 0)
    a.jz("child")
    a.mov_imm("rdi", (1 << 64) - 1)
    a.mov_imm("rsi", 0)
    a.mov_imm("rdx", 0)
    a.mov_imm("rax", NR["wait4"])
    a.syscall()
    emit_exit(a, 0)
    a.label("child")
    emit_syscall(a, "getpid")
    emit_exit(a, 1)
    proc = machine.load(finish(a))
    tr = TraceInterposer()
    SudTool._install(machine, proc, tr)
    assert machine.run_process(proc) == 0
    child = [t for t in machine.kernel.tasks.values() if t.parent is proc.task][0]
    assert child.sud is not None  # re-armed despite the kernel clearing it
    assert tr.count("getpid") >= 1  # the child's getpid was interposed


def test_seccomp_user_filters_survive_in_child_automatically(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "fork")
    a.cmpi("rax", 0)
    a.jz("child")
    a.mov_imm("rdi", (1 << 64) - 1)
    a.mov_imm("rsi", 0)
    a.mov_imm("rdx", 0)
    a.mov_imm("rax", NR["wait4"])
    a.syscall()
    emit_exit(a, 0)
    a.label("child")
    emit_syscall(a, "getpid")
    emit_exit(a, 1)
    proc = machine.load(finish(a))
    tr = TraceInterposer()
    SeccompUserTool._install(machine, proc, tr)
    assert machine.run_process(proc) == 0
    child = [t for t in machine.kernel.tasks.values() if t.parent is proc.task][0]
    assert child.seccomp_filters  # inherited (Linux semantics)
    assert tr.count("getpid") >= 1


# -------------------------------------------------------------------- ptrace
def test_ptrace_retval_modification(machine):
    def fake(ctx):
        if ctx.name == "getpid":
            return 123
        return ctx.do_syscall()

    a = asm()
    a.label("_start")
    emit_syscall(a, "getpid")
    a.mov("rdi", "rax")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    proc = machine.load(finish(a))
    PtraceTool._install(machine, proc, fake)
    assert machine.run_process(proc) == 123


def test_ptrace_memory_access_charged(machine):
    seen = []

    def peek(ctx):
        if ctx.name == "write":
            seen.append(ctx.read_cstr(ctx.args[1], 16))
        return ctx.do_syscall()

    proc = machine.load(hello_image(b"pk\n"))
    before_costs = machine.clock
    PtraceTool._install(machine, proc, peek)
    machine.run_process(proc)
    assert seen and seen[0].startswith(b"pk")
    assert machine.clock > before_costs


def test_ptrace_memory_write_lands_and_pays_one_request_per_word():
    """``ctx.write_mem`` under ptrace pokes tracee memory a word at a
    time: the bytes land and each started word costs one request."""

    def run(data: bytes):
        m = Machine()
        p = m.load(hello_image(b"pk\n"))
        written = []

        def poke(ctx):
            if ctx.name == "write" and data:
                ctx.write_mem(ctx.args[1], data)
                written.append(ctx.args[1])
            return ctx.do_syscall()

        PtraceTool._install(m, p, poke)
        m.run_process(p)
        return m, p, written

    base, _, _ = run(b"")
    one, proc, written = run(b"PK")
    two, _, _ = run(b"PK\n12345678")
    request = base.kernel.costs.ptrace_request
    assert proc.task.mem.read(written[0], 3, check=None) == b"PK\n"
    assert one.clock - base.clock == request
    assert two.clock - base.clock == 2 * request


def test_ptrace_is_dramatically_slower(machine):
    """ptrace costs context switches per stop: visible even in tiny runs."""

    def run(tool: bool) -> float:
        m = Machine()
        p = m.load(hello_image())
        if tool:
            PtraceTool._install(m, p, TraceInterposer())
        m.run_process(p)
        return m.clock

    assert run(True) > 2.5 * run(False)


def test_ptrace_skip_syscall(machine):
    from repro.kernel.ptrace import PtraceTracer, attach

    class Skipper(PtraceTracer):
        def on_syscall_enter(self, ctl):
            sysno, _args = ctl.get_syscall_args()
            if sysno == NR["mkdir"]:
                ctl.skip_syscall((-errno.EPERM) & (1 << 64) - 1)

    a = asm()
    a.label("_start")
    emit_syscall(a, "mkdir", "p", 0o755)
    emit_exit(a, 0)
    a.label("p")
    a.db(b"/skipme\x00")
    proc = machine.load(finish(a))
    attach(machine.kernel, proc.task, Skipper())
    machine.run_process(proc)
    assert not machine.fs.exists("/skipme")
