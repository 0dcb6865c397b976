"""Unit tests for the syscall-aggregation ring (repro.kernel.uring).

Two harness styles:

* **kernel-level** — build a machine, hand-write a ring into task memory,
  and call ``ring_enter`` through ``Kernel.dispatch`` directly: precise
  control over headers/SQEs for validation, allowlist, link, and
  fault-injection semantics;
* **guest-level** — run assembly guests using ``repro.libc.uring``'s
  :class:`GuestRing` for the paths that need real execution: blocking
  entries, signals arriving mid-drain, interposition tools.
"""

from __future__ import annotations

import pytest

from repro.arch.encode import Assembler
from repro.arch.registers import to_signed
from repro.faults.injector import FaultInjector, FaultRule
from repro.faults.scenarios import arm_repeating_signal, build_ring_signal_guest
from repro.interpose.registry import attach
from repro.interpose.api import TraceInterposer, passthrough_interposer
from repro.kernel import errno
from repro.kernel.machine import Machine
from repro.kernel.signals import SIGUSR1
from repro.kernel.syscalls.table import NR
from repro.kernel.uring import (
    HDR_CQ_CAP,
    HDR_CQ_TAIL,
    HDR_SQ_CAP,
    HDR_SQ_HEAD,
    HDR_SQ_TAIL,
    MAX_ENTRIES,
    RING_ENTER_ASYNC,
    SQE_ARGS,
    SQE_SYSNO,
    SQE_USER_DATA,
    cqe_offset,
    ring_result,
    sqe_offset,
)
from repro.libc.uring import GuestRing, ring_size
from repro.loader.image import image_from_assembler
from repro.mem import layout
from repro.mem.pages import Perm
from repro.obs import events as K
from repro.obs.tracer import Tracer

pytestmark = pytest.mark.uring

RING_ENTER = NR["ring_enter"]


# ------------------------------------------------------------ kernel harness
def idle_machine(**kwargs):
    """A machine with one live task that never needs to run guest code."""
    a = Assembler(base=layout.CODE_BASE)
    a.label("_start")
    a.mov_imm("rax", NR["exit_group"])
    a.mov_imm("rdi", 0)
    a.syscall()
    machine = Machine(**kwargs)
    process = machine.load(image_from_assembler("idle", a, entry="_start"))
    return machine, process.task


class RingMem:
    """Hand-written ring in task memory, driven via Kernel.dispatch."""

    def __init__(self, machine, task, entries=8):
        self.machine = machine
        self.task = task
        self.entries = entries
        self.addr = task.mem.map_anywhere(
            (ring_size(entries) + 4095) & ~4095, Perm.RW
        )
        self.w64(HDR_SQ_CAP, entries)
        self.w64(HDR_CQ_CAP, entries)

    def w64(self, off, value):
        self.task.mem.write_u64(self.addr + off, value & (2**64 - 1),
                                check=None)

    def r64(self, off):
        return self.task.mem.read_u64(self.addr + off, check=None)

    def push(self, slot, name, *args, user_data=0):
        base = sqe_offset(slot)
        sysno = NR[name] if isinstance(name, str) else name
        self.w64(base + SQE_SYSNO, sysno)
        for k in range(6):
            self.w64(base + SQE_ARGS + 8 * k,
                     args[k] if k < len(args) else 0)
        self.w64(base + SQE_USER_DATA, user_data)

    def enter(self, to_submit=0):
        return self.machine.kernel.dispatch(
            self.task, RING_ENTER, (self.addr, to_submit, 0, 0, 0, 0)
        )

    def result(self, slot):
        return to_signed(self.r64(cqe_offset(self.entries, slot)))

    def user_data(self, slot):
        return self.r64(cqe_offset(self.entries, slot) + 8)


def test_drain_executes_entries_and_posts_results():
    machine, task = idle_machine()
    ring = RingMem(machine, task)
    ring.push(0, "getpid", user_data=0xAA)
    ring.push(1, "gettid", user_data=0xBB)
    ring.push(2, "getppid")
    ring.w64(HDR_SQ_TAIL, 3)
    assert ring.enter() == 3
    assert ring.result(0) == task.pid
    assert ring.result(1) == task.tid
    assert ring.result(2) == 0
    assert ring.user_data(0) == 0xAA
    assert ring.user_data(1) == 0xBB
    assert ring.r64(HDR_SQ_HEAD) == 3
    assert ring.r64(HDR_CQ_TAIL) == 3
    # A second enter with nothing new submitted is a no-op.
    assert ring.enter() == 0


def test_per_entry_errno_does_not_stop_the_drain():
    machine, task = idle_machine()
    ring = RingMem(machine, task)
    ring.push(0, "lseek", 999, 0, 0)  # EBADF
    ring.push(1, "getpid")
    ring.w64(HDR_SQ_TAIL, 2)
    assert ring.enter() == 2
    assert ring.result(0) == -errno.EBADF
    assert ring.result(1) == task.pid


def test_non_ringable_syscalls_complete_with_einval():
    machine, task = idle_machine()
    ring = RingMem(machine, task)
    for slot, name in enumerate(("fork", "execve", "rt_sigreturn",
                                 "ring_enter", "mmap")):
        ring.push(slot, name)
    ring.push(5, 123456)  # garbage sysno
    ring.w64(HDR_SQ_TAIL, 6)
    assert ring.enter() == 6
    for slot in range(6):
        assert ring.result(slot) == -errno.EINVAL


def test_result_links_resolve_and_cancel():
    machine, task = idle_machine()
    machine.fs.create("/data.bin", b"abcdef")
    path = task.mem.map_anywhere(4096, Perm.RW)
    task.mem.write(path, b"/data.bin\x00", check=None)
    buf = path + 128
    ring = RingMem(machine, task)
    ring.push(0, "open", path, 0, 0)
    ring.push(1, "read", ring_result(0), buf, 6)   # fd from slot 0
    ring.push(2, "close", ring_result(0))
    ring.push(3, "lseek", 999, 0, 0)               # fails with EBADF
    ring.push(4, "close", ring_result(3))          # linked to a failure
    ring.w64(HDR_SQ_TAIL, 5)
    assert ring.enter() == 5
    assert ring.result(0) >= 3
    assert ring.result(1) == 6
    assert task.mem.read(buf, 6, check=None) == b"abcdef"
    assert ring.result(2) == 0
    assert ring.result(3) == -errno.EBADF
    assert ring.result(4) == -errno.ECANCELED


def test_header_validation():
    machine, task = idle_machine()
    ring = RingMem(machine, task)
    ring.push(0, "getpid")

    ring.w64(HDR_SQ_CAP, 0)  # zero capacity
    ring.w64(HDR_SQ_TAIL, 1)
    assert ring.enter() == -errno.EINVAL

    ring.w64(HDR_SQ_CAP, MAX_ENTRIES + 1)  # oversized
    assert ring.enter() == -errno.EINVAL

    ring.w64(HDR_SQ_CAP, 8)
    ring.w64(HDR_CQ_CAP, 4)  # capacity mismatch
    assert ring.enter() == -errno.EINVAL

    ring.w64(HDR_CQ_CAP, 8)
    ring.w64(HDR_SQ_HEAD, 5)
    ring.w64(HDR_SQ_TAIL, 2)  # tail behind head
    assert ring.enter() == -errno.EINVAL

    ring.w64(HDR_SQ_HEAD, 0)
    ring.w64(HDR_SQ_TAIL, 9)  # more pending than capacity
    assert ring.enter() == -errno.EINVAL

    # Unmapped ring address.
    kernel = machine.kernel
    assert kernel.dispatch(task, RING_ENTER,
                           (0xDEAD0000, 0, 0, 0, 0, 0)) == -errno.EFAULT


def test_to_submit_caps_the_drain():
    machine, task = idle_machine()
    ring = RingMem(machine, task)
    for slot in range(4):
        ring.push(slot, "getpid")
    ring.w64(HDR_SQ_TAIL, 4)
    assert ring.enter(to_submit=2) == 2
    assert ring.r64(HDR_SQ_HEAD) == 2
    assert ring.enter() == 2  # the remainder
    assert ring.r64(HDR_SQ_HEAD) == 4


def test_fault_injection_applies_per_entry():
    machine, task = idle_machine()
    machine.kernel.fault_injector = FaultInjector(
        rules=[FaultRule(errno=errno.EIO, name="getpid", max_injections=1)]
    )
    ring = RingMem(machine, task)
    ring.push(0, "getpid")
    ring.push(1, "getpid")
    ring.w64(HDR_SQ_TAIL, 2)
    assert ring.enter() == 2
    assert ring.result(0) == -errno.EIO   # injected
    assert ring.result(1) == task.pid     # budget exhausted


def test_seccomp_filters_run_per_entry():
    machine, task = idle_machine()
    process = type("P", (), {"task": task})()
    attach(machine, process, "seccomp_bpf",
           denylist=[NR["mkdir"]], errno_value=errno.EACCES)
    ring = RingMem(machine, task)
    path = task.mem.map_anywhere(4096, Perm.RW)
    task.mem.write(path, b"/newdir\x00", check=None)
    ring.push(0, "mkdir", path, 0o755)
    ring.push(1, "getpid")
    ring.w64(HDR_SQ_TAIL, 2)
    assert ring.enter() == 2
    assert ring.result(0) == -errno.EACCES
    assert ring.result(1) == task.pid
    assert not machine.fs.exists("/newdir")


def test_ring_obs_events_and_cycle_attribution():
    tracer = Tracer()
    machine, task = idle_machine(tracer=tracer)
    ring = RingMem(machine, task)
    ring.push(0, "getpid", user_data=7)
    ring.push(1, "lseek", 999, 0, 0)
    ring.w64(HDR_SQ_TAIL, 2)
    assert ring.enter() == 2
    enters = [e for e in tracer.events if e.kind == K.RING_ENTER]
    entries = [e for e in tracer.events if e.kind == K.RING_ENTRY]
    assert len(enters) == 1 and tracer.ring_enters == 1
    assert len(entries) == 2 and tracer.ring_entries == 2
    assert enters[0].data["submitted"] == 2
    assert enters[0].data["completed"] == 2
    assert [e.data["name"] for e in entries] == ["getpid", "lseek"]
    assert entries[0].data["user_data"] == 7
    assert entries[1].data["errno"] == errno.EBADF
    # Every entry has attributable cycles and they sum within the drain.
    assert all(e.data["cycles"] > 0 for e in entries)
    assert sum(e.data["cycles"] for e in entries) <= enters[0].data["cycles"]
    # The per-entry dispatches also appear as ordinary syscall events,
    # followed by the ring_enter crossing itself.
    names = [e.data["name"] for e in tracer.events if e.kind == K.SYSCALL]
    assert names == ["getpid", "lseek", "ring_enter"]


@pytest.mark.parametrize("flags", [0, RING_ENTER_ASYNC], ids=["sync", "async"])
@pytest.mark.parametrize("head, expected", [(61, 2), (63, -errno.EFAULT)])
def test_sqe_page_unmapped_mid_ring_emits_one_ring_enter(flags, head,
                                                         expected):
    """A ring whose SQE page is unmapped faults mid-drain: the call
    returns the completed count (-EFAULT if nothing was consumed), and
    the crossing still emits exactly one ring_enter event."""
    tracer = Tracer()
    machine, task = idle_machine(tracer=tracer)
    ring = RingMem(machine, task, entries=128)
    # SQE slots 63..126 fill the ring's second page; the header, slots
    # 0..62 and the CQ live on the first and third.
    assert sqe_offset(63) == 4096 and cqe_offset(128, 0) > 8192
    for slot in range(head, head + 4):
        ring.push(slot, "getpid")
    ring.w64(HDR_SQ_HEAD, head)
    ring.w64(HDR_SQ_TAIL, head + 4)
    task.mem.unmap(ring.addr + 4096, 4096)
    ret = machine.kernel.dispatch(task, RING_ENTER,
                                  (ring.addr, 0, 0, flags, 0, 0))
    assert ret == expected
    completed = max(expected, 0)
    assert ring.r64(HDR_SQ_HEAD) == head + completed
    enters = [e.data for e in tracer.events if e.kind == K.RING_ENTER]
    assert enters == [{"submitted": 4, "completed": completed,
                       "cycles": enters[0]["cycles"]}]


# ------------------------------------------------------------- guest harness
def test_blocking_entry_blocks_cooperatively():
    """A nanosleep SQE parks the drain until simulated time advances."""
    machine, task = idle_machine()
    mem = task.mem
    req = mem.map_anywhere(4096, Perm.RW)
    mem.write_u64(req, 0, check=None)          # tv_sec
    mem.write_u64(req + 8, 500_000, check=None)  # tv_nsec
    ring = RingMem(machine, task)
    ring.push(0, "nanosleep", req, 0)
    ring.push(1, "getpid")
    ring.w64(HDR_SQ_TAIL, 2)
    before = machine.clock
    assert ring.enter() == 2
    assert ring.result(0) == 0
    assert ring.result(1) == task.pid
    # 500us at 2.1 GHz ~ 1.05M cycles: time genuinely advanced.
    assert machine.clock - before > 1_000_000


@pytest.mark.parametrize("tool", [None, "lazypoline", "zpoline"])
def test_signal_mid_drain_partial_cq_and_resume(tool):
    """A signal interrupts the drain like a blocking syscall: the blocked
    entry completes with -EINTR, the drain stops with a partial CQ, the
    handler runs, and the guest's re-enter finishes the remainder —
    never a lost wakeup, identically under interposition."""
    tracer = Tracer()
    machine = Machine(tracer=tracer)
    process = machine.load(build_ring_signal_guest())
    if tool is not None:
        attach(machine, process, tool, interposer=passthrough_interposer)
    arm_repeating_signal(machine, process.task)
    machine.run()
    assert process.task.exit_code == 15
    # The drain was genuinely split: more crossings than the one batch,
    # and the partial enter completed fewer entries than submitted.
    enters = [e.data for e in tracer.events if e.kind == K.RING_ENTER]
    assert len(enters) >= 2
    assert any(e["completed"] < e["submitted"] for e in enters)
    assert sum(e["completed"] for e in enters) == 3
    entries = [e.data for e in tracer.events if e.kind == K.RING_ENTRY]
    assert [e["name"] for e in entries] == ["getpid", "read", "getpid"]
    assert entries[1]["errno"] == errno.EINTR


def test_single_crossing_under_lazypoline():
    """N entries drain through ONE interposed crossing: one rewrite, one
    sled transit — while the obs stream still attributes every entry."""
    tracer = Tracer()
    machine = Machine(tracer=tracer)
    a = Assembler(base=layout.CODE_BASE)
    a.label("_start")
    ring = GuestRing(a, entries=16, base="r9")
    ring.emit_mmap()
    for _ in range(16):
        ring.push("getpid")
    ring.submit()
    a.mov_imm("rax", NR["exit_group"])
    a.mov_imm("rdi", 0)
    a.syscall()
    image = image_from_assembler("ring16", a, entry="_start")
    process = machine.load(image)
    interposer = TraceInterposer(tracer=tracer)
    attach(machine, process, "lazypoline", interposer=interposer)
    machine.run()
    assert tracer.ring_enters == 1
    assert tracer.ring_entries == 16
    # The tool saw ring_enter, not 16 getpids.
    assert interposer.count("ring_enter") == 1
    assert interposer.count("getpid") == 0
    # All 16 dispatches are still individually visible to the kernel obs.
    getpids = [e for e in tracer.events
               if e.kind == K.SYSCALL and e.data["name"] == "getpid"]
    assert len(getpids) == 16
