"""Signal delivery at *every* instruction boundary of lazypoline's windows.

The strongest §IV-A claim is that the fast-path stub, the SIGSYS rewrite
slow path and the sigreturn trampoline are signal-safe at every single
instruction.  This suite makes that claim falsifiable: a two-thread guest
runs under lazypoline while the schedule explorer delivers an extra signal
at one chosen boundary per run; sweeping all boundaries, with per-
instruction invariant checks riding along:

* the selector byte is always a legal value,
* the per-task sigreturn selector stack is bounds-correct, empty whenever
  a task executes main application code, and non-empty inside a wrapped
  handler,
* the xstate stack never leaks an entry,
* every rewritten syscall site holds exactly ``call rax`` afterwards.

Coverage is *asserted*, not eyeballed: the test fails if any boundary of
the probed windows was never reached while armed.
"""

from __future__ import annotations

import pytest

from repro.arch.isa import CALL_RAX_BYTES, SYSCALL_BYTES
from repro.cpu.hooks import WindowWatch
from repro.faults.explorer import (
    ExplorerPolicy,
    SignalTrigger,
    instruction_boundaries,
    lazypoline_boundaries,
    lazypoline_windows,
)
from repro.faults.scenarios import PROBE_WINDOWS
from repro.interpose.api import TraceInterposer
from repro.interpose.lazypoline import Lazypoline, gsrel
from repro.kernel.machine import Machine
from repro.kernel.signals import SIGUSR1, SIGUSR2
from repro.kernel.syscalls.proc import CLONE_VM, THREAD_FLAGS
from repro.kernel.syscalls.table import NR
from repro.mem import layout

from tests.conftest import asm, finish

pytestmark = pytest.mark.faults


def build_two_thread_guest():
    """Two threads, two wrapped handlers, one tgkill'd SIGUSR1.

    Shared counters: +0 SIGUSR1 count, +8 SIGUSR2 count, +16 worker-done
    flag.  Exit code packs both counters; the clean outcome is 0x11
    regardless of where the explorer injects SIGUSR2 or which thread
    receives it.
    """
    a = asm()
    a.label("_start")
    # scratch + worker stack
    a.mov_imm("rdi", 0)
    a.mov_imm("rsi", 16384)
    a.mov_imm("rdx", 3)
    a.mov_imm("r10", 0x22)
    a.mov_imm("r8", (1 << 64) - 1)
    a.mov_imm("r9", 0)
    a.mov_imm("rax", NR["mmap"])
    a.syscall()
    a.mov("r14", "rax")
    for sig, act in ((SIGUSR1, "act1"), (SIGUSR2, "act2")):
        a.mov_imm("rdi", sig)
        a.mov_imm("rsi", act)
        a.mov_imm("rdx", 0)
        a.mov_imm("r10", 8)
        a.mov_imm("rax", NR["rt_sigaction"])
        a.syscall()
    # clone the worker with its stack at the top of the mapping
    a.mov_imm("rdi", THREAD_FLAGS | CLONE_VM)
    a.lea("rsi", "r14", 16384)
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 0)
    a.mov_imm("r8", 0)
    a.mov_imm("rax", NR["clone"])
    a.syscall()
    a.cmpi("rax", 0)
    a.jz("worker")
    a.label("armed")  # handlers live + worker cloned past this point
    a.mov_imm("rax", NR["getpid"])
    a.syscall()
    a.mov("r13", "rax")
    a.mov_imm("rax", NR["gettid"])
    a.syscall()
    a.mov("rsi", "rax")
    a.mov("rdi", "r13")
    a.mov_imm("rdx", SIGUSR1)
    a.mov_imm("rax", NR["tgkill"])
    a.syscall()
    # keep issuing syscalls so stub boundaries stay reachable post-arm
    a.mov_imm("rbx", 4)
    a.label("tail")
    a.mov_imm("rax", NR["getpid"])
    a.syscall()
    a.dec("rbx")
    a.cmpi("rbx", 0)
    a.jnz("tail")
    # pure-memory wait for the worker (a syscall here would make the
    # trace length schedule-dependent)
    a.label("join")
    a.load("rcx", "r14", 16)
    a.cmpi("rcx", 1)
    a.jnz("join")
    a.load("rdi", "r14", 0)
    a.load("rcx", "r14", 8)
    a.shl("rcx", 4)
    a.add("rdi", "rcx")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("worker")
    a.mov_imm("rbx", 6)
    a.label("work")
    a.mov_imm("rax", NR["gettid"])
    a.syscall()
    a.dec("rbx")
    a.cmpi("rbx", 0)
    a.jnz("work")
    a.mov_imm("rcx", 1)
    a.store("r14", 16, "rcx")
    a.mov_imm("rdi", 0)
    a.mov_imm("rax", NR["exit"])
    a.syscall()
    a.label("handlers")
    a.label("h1")
    a.load("rdx", "r14", 0)
    a.inc("rdx")
    a.store("r14", 0, "rdx")
    a.ret()
    a.label("h2")
    a.load("rdx", "r14", 8)
    a.inc("rdx")
    a.store("r14", 8, "rdx")
    a.ret()
    a.label("handlers_end")
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
    return finish(a, "two_thread_guest")


class GsInvariantWatch:
    """CpuHook asserting the selector/stack invariants at every instruction.

    INVARIANT: for any task with a live gs region —
    * the selector byte is SELECTOR_ALLOW (0) or SELECTOR_BLOCK (1),
    * the sigreturn selector stack pointer stays inside its 64-slot bounds,
    * its depth is 0 whenever rip is in main application code, and >= 1
      while rip is inside a wrapped handler body (the wrapper pushed the
      interrupted selector at delivery and sigreturn pops it),
    * the xstate stack depth stays within [0, XSTACK_DEPTH].
    """

    def __init__(self, handler_range: tuple[int, int], app_end: int):
        self.handler_range = handler_range
        self.app_end = app_end
        self.violations: list[str] = []

    def on_insn(self, task, insn, addr) -> None:
        gs = task.regs.gs_base
        if not gs or self.violations:
            return
        mem = task.mem
        sel = gsrel.read_selector(mem, gs)
        if sel not in (0, 1):
            self.violations.append(
                f"tid {task.tid} rip={addr:#x}: selector byte {sel}"
            )
            return
        sp = mem.read_u64(gs + gsrel.GS_SIGRET_SP, check=None)
        lo = gs + gsrel.GS_SIGRET_STACK
        hi = lo + 8 * gsrel.SIGRET_STACK_SLOTS
        if not lo <= sp <= hi:
            self.violations.append(
                f"tid {task.tid} rip={addr:#x}: sigret sp {sp:#x} "
                f"outside [{lo:#x}, {hi:#x}]"
            )
            return
        depth = (sp - lo) // 8
        h_lo, h_hi = self.handler_range
        if h_lo <= addr < h_hi:
            if depth < 1:
                self.violations.append(
                    f"tid {task.tid} rip={addr:#x}: inside handler with "
                    f"empty sigret stack"
                )
        elif layout.CODE_BASE <= addr < self.app_end:
            if depth != 0:
                self.violations.append(
                    f"tid {task.tid} rip={addr:#x}: sigret stack depth "
                    f"{depth} in main app code"
                )
        xdepth = gsrel.xstack_depth(mem, gs)
        if not 0 <= xdepth <= gsrel.XSTACK_DEPTH:
            self.violations.append(
                f"tid {task.tid} rip={addr:#x}: xstate depth {xdepth}"
            )


def _run_with_trigger(target: int, seed: int):
    machine = Machine()
    image = build_two_thread_guest()
    process = machine.load(image)
    tool = Lazypoline._install(machine, process, TraceInterposer())
    windows = lazypoline_windows(tool)
    watch = WindowWatch(
        [(windows[n].start, windows[n].end) for n in PROBE_WINDOWS]
    )
    invariants = GsInvariantWatch(
        handler_range=(image.symbols["handlers"], image.symbols["handlers_end"]),
        app_end=image.symbols["act1"],
    )
    machine.kernel.cpu.add_hook(watch)
    machine.kernel.cpu.add_hook(invariants)
    policy = ExplorerPolicy(
        seed,
        triggers=(
            SignalTrigger(target, SIGUSR2, arm_addr=image.symbols["armed"]),
        ),
    )
    machine.scheduler.policy = policy
    machine.run(
        until=lambda: not any(t.alive for t in machine.kernel.tasks.values()),
        max_instructions=600_000,
    )
    return machine, process, tool, policy, watch, invariants


def test_signal_at_every_boundary_two_threads():
    """Sweep all probed boundaries; assert full coverage + all invariants."""
    # a throwaway install just to learn the (VA-0, layout-stable) blob map
    probe_machine = Machine()
    probe = Lazypoline._install(
        probe_machine,
        probe_machine.load(build_two_thread_guest()),
        TraceInterposer(),
    )
    boundaries = lazypoline_boundaries(probe, PROBE_WINDOWS)
    assert len(boundaries) >= 30  # stub + slowpath + trampoline

    covered: set[int] = set()
    for idx, target in enumerate(boundaries):
        machine, process, tool, policy, watch, inv = _run_with_trigger(
            target, seed=idx
        )
        label = f"boundary {target:#x} (idx {idx})"
        assert not process.alive, f"{label}: guest never terminated"
        assert process.term_signal is None, (
            f"{label}: killed by signal {process.term_signal}"
        )
        assert process.exit_code == 0x11, (
            f"{label}: handler counts wrong, exit={process.exit_code:#x}"
        )
        assert policy.all_triggers_fired, f"{label}: trigger never fired"
        assert not inv.violations, f"{label}: {inv.violations[:3]}"
        # rewritten sites must hold exactly `call rax`; surviving app
        # syscall sites must still be pristine syscall bytes
        task = process.task
        for site in tool.rewritten:
            assert task.mem.read(site, 2, check=None) == CALL_RAX_BYTES, (
                f"{label}: rewritten site {site:#x} corrupt"
            )
        covered.add(target)

    assert covered == set(boundaries), (
        "boundaries never probed: "
        f"{[hex(b) for b in sorted(set(boundaries) - covered)]}"
    )


def test_window_watch_sees_stub_execution():
    """The coverage watch itself must observe stub instructions executing."""
    machine = Machine()
    image = build_two_thread_guest()
    process = machine.load(image)
    tool = Lazypoline._install(machine, process, TraceInterposer())
    windows = lazypoline_windows(tool)
    watch = WindowWatch([(windows["stub"].start, windows["stub"].end)])
    machine.kernel.cpu.add_hook(watch)
    machine.run(
        until=lambda: not any(t.alive for t in machine.kernel.tasks.values()),
        max_instructions=600_000,
    )
    assert process.exit_code == 0x1  # only SIGUSR1 fires without a trigger
    stub = windows["stub"]
    stub_bounds = set(
        instruction_boundaries(tool.blobs.code, 0, stub.start, stub.end)
    )
    executed = watch.covered_in(stub.start, stub.end)
    # the whole fast-path prologue/epilogue runs for every syscall; xsave
    # variants may skip the optional xstate block, so require the
    # non-optional majority rather than strict equality
    assert len(executed) >= len(stub_bounds) * 2 // 3
    assert executed <= stub_bounds


def test_rewritten_and_pristine_sites_consistent():
    """Rewritten sites hold `call rax`; untouched sites keep `syscall`."""
    machine = Machine()
    image = build_two_thread_guest()
    process = machine.load(image)
    tool = Lazypoline._install(machine, process, TraceInterposer())
    text = image.text_segments()[0]
    original_sites = {
        text.addr + off
        for off in range(len(text.data) - 1)
        if text.data[off:off + 2] == SYSCALL_BYTES
    }
    machine.run(
        until=lambda: not any(t.alive for t in machine.kernel.tasks.values()),
        max_instructions=600_000,
    )
    mem = process.task.mem
    # restrict to guest text: lazypoline also tracks its own blob-internal
    # syscall (the restorer's rt_sigreturn) below CODE_BASE
    rewritten = {s for s in tool.rewritten if s >= layout.CODE_BASE}
    assert rewritten, "no syscall site was ever rewritten"
    assert rewritten <= original_sites, "rewrote a non-syscall address"
    for site in original_sites:
        got = mem.read(site, 2, check=None)
        want = CALL_RAX_BYTES if site in rewritten else SYSCALL_BYTES
        assert got == want, (
            f"site {site:#x}: bytes {got!r}, expected {want!r} "
            f"({'rewritten' if site in rewritten else 'pristine'})"
        )
