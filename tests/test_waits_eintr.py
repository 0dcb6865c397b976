"""EINTR on interruptible waits, under every degradation mode.

A guest parks itself in a blocking syscall — ``read`` on an empty pipe,
``accept`` on an idle listening socket, ``wait4`` on a live child — while
a forked child pelts it with SIGUSR1.  POSIX says the wait aborts with
``-EINTR`` after the handler runs; that must hold identically when the
syscall is interposed in FULL_HYBRID, when it takes the SUD_ONLY slow
path, and when a PASSTHROUGH attach armed nothing at all.  The wake-up
path (kernel ``WouldBlock`` + ``post_signal``) is completely different
from the happy path the differential scenarios cover, which is why it
gets its own matrix.  The ptrace and seccomp-unotify rows add the two
tools whose interposer runs outside the guest: ptrace sees a parked
syscall at its exit stop when the restart or the -EINTR wake completes
it, and the unotify supervisor waits in ``Kernel.dispatch_blocking``.
"""

from __future__ import annotations

import pytest

from repro.arch.encode import Assembler
from repro.faults import FaultInjector, FaultRule
from repro.interpose import Mode, attach
from repro.kernel import errno
from repro.kernel.machine import Machine
from repro.kernel.signals import SIGUSR1
from repro.kernel.syscalls.table import NR
from repro.loader import image_from_assembler
from repro.mem import layout
from repro.mem.pages import PAGE_SIZE

pytestmark = pytest.mark.degrade

KINDS = ("read", "accept", "wait")
MODES = ("bare", "full_hybrid", "sud_only", "passthrough")

EXIT_OK = 0x42  # wait returned -EINTR and the handler ran
EXIT_BAD = 0x99


def build_eintr_guest(kind: str):
    """Parent blocks in ``kind``; forked child signals it until it wakes.

    Scratch page (r14): [0] handler count, [8] pid, [16] tid,
    [32] pipe fd pair, [48] sockaddr, [64] read/status buffer.
    The child retries ``tgkill`` + ``sched_yield`` eight times so at least
    one signal lands while the parent is actually parked, wherever the
    scheduler interleaves the two.
    """
    a = Assembler(base=layout.CODE_BASE)
    a.label("_start")
    a.mov_imm("rdi", 0)
    a.mov_imm("rsi", 4096)
    a.mov_imm("rdx", 3)
    a.mov_imm("r10", 0x22)
    a.mov_imm("r8", (1 << 64) - 1)
    a.mov_imm("r9", 0)
    a.mov_imm("rax", NR["mmap"])
    a.syscall()
    a.mov("r14", "rax")
    a.mov_imm("rdi", SIGUSR1)
    a.mov_imm("rsi", "act")
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 8)
    a.mov_imm("rax", NR["rt_sigaction"])
    a.syscall()
    a.mov_imm("rax", NR["getpid"])
    a.syscall()
    a.store("r14", 8, "rax")
    a.mov_imm("rax", NR["gettid"])
    a.syscall()
    a.store("r14", 16, "rax")
    if kind == "read":
        a.lea("rdi", "r14", 32)
        a.mov_imm("rax", NR["pipe"])
        a.syscall()
        a.load("rbx", "r14", 32)  # low u32 = read end
        a.shl("rbx", 32)
        a.shr("rbx", 32)
    elif kind == "accept":
        a.mov_imm("rdi", 2)
        a.mov_imm("rsi", 1)
        a.mov_imm("rdx", 0)
        a.mov_imm("rax", NR["socket"])
        a.syscall()
        a.mov("rbx", "rax")
        a.mov_imm("rcx", 0x1F)  # port 8080 = 0x1F90, network byte order
        a.store8("r14", 50, "rcx")
        a.mov_imm("rcx", 0x90)
        a.store8("r14", 51, "rcx")
        a.mov("rdi", "rbx")
        a.lea("rsi", "r14", 48)
        a.mov_imm("rdx", 16)
        a.mov_imm("rax", NR["bind"])
        a.syscall()
        a.mov("rdi", "rbx")
        a.mov_imm("rsi", 16)
        a.mov_imm("rax", NR["listen"])
        a.syscall()
    a.mov_imm("rax", NR["fork"])
    a.syscall()
    a.cmpi("rax", 0)
    a.jz("child")
    # ------------------------------------------------- parent: block
    if kind == "read":
        a.mov("rdi", "rbx")
        a.lea("rsi", "r14", 64)
        a.mov_imm("rdx", 16)
        a.mov_imm("rax", NR["read"])
        a.syscall()
    elif kind == "accept":
        a.mov("rdi", "rbx")
        a.mov_imm("rsi", 0)
        a.mov_imm("rdx", 0)
        a.mov_imm("rax", NR["accept"])
        a.syscall()
    else:  # wait4 on the live child
        a.mov_imm("rdi", (1 << 64) - 1)
        a.lea("rsi", "r14", 64)
        a.mov_imm("rdx", 0)
        a.mov_imm("r10", 0)
        a.mov_imm("rax", NR["wait4"])
        a.syscall()
    a.mov("rdi", "rax")
    a.addi("rdi", errno.EINTR)  # ret == -EINTR  <=>  rdi == 0
    a.cmpi("rdi", 0)
    a.jnz("bad")
    a.load("rcx", "r14", 0)  # and the handler really ran
    a.cmpi("rcx", 0)
    a.jz("bad")
    a.mov_imm("rdi", EXIT_OK)
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("bad")
    a.mov_imm("rdi", EXIT_BAD)
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    # -------------------------------------------------- child: pester
    a.label("child")
    a.mov_imm("rbx", 8)
    a.label("pester")
    a.load("rdi", "r14", 8)
    a.load("rsi", "r14", 16)
    a.mov_imm("rdx", SIGUSR1)
    a.mov_imm("rax", NR["tgkill"])
    a.syscall()
    a.mov_imm("rax", NR["sched_yield"])
    a.syscall()
    a.dec("rbx")
    a.cmpi("rbx", 0)
    a.jnz("pester")
    a.mov_imm("rdi", 0)
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("h")
    a.load("rdx", "r14", 0)
    a.inc("rdx")
    a.store("r14", 0, "rdx")
    a.ret()
    a.align(8, fill=0)
    a.label("act")
    a.dq("h")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    return image_from_assembler(f"eintr_{kind}_guest", a, entry="_start")


def _run(kind: str, mode: str) -> tuple[int | None, object | None]:
    machine = Machine(
        mmap_min_addr=PAGE_SIZE if mode == "sud_only" else 0
    )
    if mode == "passthrough":
        machine.kernel.fault_injector = FaultInjector(
            (FaultRule(errno=errno.ENOMEM, name="mmap", max_injections=2),)
        )
    process = machine.load(build_eintr_guest(kind))
    tool = None
    if mode != "bare":
        tool = attach(
            machine, process, tool="lazypoline",
            degrade_policy="passthrough" if mode == "passthrough" else None,
        )
    machine.run(
        until=lambda: not any(
            t.alive for t in machine.kernel.tasks.values()
        ),
        max_instructions=2_000_000,
    )
    return process.exit_code, tool


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", MODES)
def test_interrupted_wait_returns_eintr(kind, mode):
    exit_code, tool = _run(kind, mode)
    assert exit_code == EXIT_OK
    if tool is not None:
        expected = {
            "full_hybrid": Mode.FULL_HYBRID,
            "sud_only": Mode.SUD_ONLY,
            "passthrough": Mode.PASSTHROUGH,
        }[mode]
        assert tool.mode is expected


def _interposed_blocker_calls(kind: str, tool: str) -> list[str]:
    """Run the guest under ``tool`` with a recording interposer (exit
    EXIT_OK asserted); returns the parent's interposed blocking calls."""
    from repro.interpose.api import TraceInterposer

    machine = Machine()
    process = machine.load(build_eintr_guest(kind))
    trace = TraceInterposer()
    attach(machine, process, tool=tool, interposer=trace)
    machine.run(
        until=lambda: not any(
            t.alive for t in machine.kernel.tasks.values()
        ),
        max_instructions=2_000_000,
    )
    assert process.exit_code == EXIT_OK
    blocker = {"read": "read", "accept": "accept", "wait": "wait4"}[kind]
    parent_tid = process.task.tid
    return [
        e.data["name"]
        for e in trace.tracer.events
        if e.tid == parent_tid and e.data["name"] == blocker
    ]


@pytest.mark.parametrize("kind", KINDS)
def test_interposed_wait_sees_the_interrupted_syscall(kind):
    """The interposer observes the blocking syscall exactly once even
    though it was aborted by a signal (no phantom re-issue)."""
    assert len(_interposed_blocker_calls(kind, "lazypoline")) == 1


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tool", ("ptrace", "seccomp_unotify"))
def test_out_of_guest_tool_sees_the_interrupted_wait_once(kind, tool):
    assert len(_interposed_blocker_calls(kind, tool)) == 1


def test_ptrace_sees_every_completed_webserver_syscall_once():
    """Every syscall the kernel completes reaches the ptrace interposer
    exactly once, including each ``epoll_wait`` that parked first."""
    from collections import Counter

    from repro.interpose.api import TraceInterposer
    from repro.obs import events as K
    from repro.obs.tracer import Tracer
    from repro.workloads.runner import attach_mechanism
    from repro.workloads.webserver import NGINX, ServerWorkload

    machine = Machine()
    obs = Tracer()
    machine.attach_tracer(obs)
    workload = ServerWorkload(machine, NGINX, file_size=2048)
    trace = TraceInterposer()
    attach_mechanism(machine, workload.process, "ptrace", interposer=trace)
    workload.benchmark(requests=40, warmup=4)
    completed = Counter(
        e.data["name"] for e in obs.events if e.kind == K.SYSCALL
    )
    assert completed["epoll_wait"] > completed["accept4"] > 0
    assert Counter(trace.names) == completed
