"""Seeded schedule exploration on top of the cooperative scheduler.

:class:`ExplorerPolicy` plugs into ``Scheduler.policy`` (see
:class:`repro.kernel.scheduler.SchedulePolicy`) and derives every decision
from one integer seed:

* each time slice gets a perturbed quantum in ``[min_quantum, quantum]``,
* the round-robin order is reshuffled every round,
* :class:`SignalTrigger` entries post a signal the moment a task's ``rip``
  reaches a chosen boundary — the signal is deliverable at that exact
  boundary, which is how the harness probes "a signal arrives *here*".

The policy records a :class:`ScheduleTrace` whose digest is byte-stable
for a given seed; CI asserts two runs of the same seed agree.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.arch.decode import decode_one
from repro.kernel.scheduler import SchedulePolicy
from repro.faults.rng import SplitMix64


@dataclass(frozen=True)
class Window:
    """A half-open guest address range ``[start, end)`` of interest."""

    name: str
    start: int
    end: int


def instruction_boundaries(code: bytes, base: int, start: int, end: int) -> list[int]:
    """Addresses of every instruction start in ``[start, end)``.

    ``code`` is the raw bytes mapped at ``base``; decoding walks the same
    linear path the CPU fetches, so the returned boundaries are exactly
    the rips at which a signal can architecturally arrive in the window.
    """
    boundaries = []
    addr = start
    while addr < end:
        insn = decode_one(code, addr - base, addr)
        boundaries.append(addr)
        addr += insn.length
    return boundaries


def lazypoline_windows(tool) -> dict[str, Window]:
    """The critical windows of an installed lazypoline instance.

    * ``stub`` — the fast-path prologue/epilogue around the generic hcall,
    * ``slowpath`` — the SUD SIGSYS handler body and its internal restorer
      (the rewrite of ``syscall`` → ``call rax`` happens in this window),
    * ``wrapper`` — the Fig. 3 signal-wrapping shim and the app restorer,
    * ``trampoline`` — the sigreturn trampoline that restores the selector.
    """
    blobs = tool.blobs
    return {
        "stub": Window("stub", blobs.fastpath_entry, blobs.sigsys_handler),
        "slowpath": Window("slowpath", blobs.sigsys_handler, blobs.wrapper_handler),
        "wrapper": Window("wrapper", blobs.wrapper_handler, blobs.sigreturn_trampoline),
        "trampoline": Window(
            "trampoline", blobs.sigreturn_trampoline, blobs.noop_ret
        ),
    }


def lazypoline_boundaries(tool, names) -> list[int]:
    """All instruction boundaries of the lazypoline windows ``names``, in
    order."""
    windows = lazypoline_windows(tool)
    out: list[int] = []
    for name in names:
        w = windows[name]
        out.extend(instruction_boundaries(tool.blobs.code, 0, w.start, w.end))
    return out


@dataclass
class SignalTrigger:
    """Post ``sig`` to the first task whose ``rip`` reaches ``addr``.

    ``arm_addr`` delays eligibility: the trigger stays dormant until some
    task's rip first reaches that address.  Needed when the probed window
    (e.g. the interposer stub) already executes before the guest has set up
    the handler that makes the signal survivable.
    """

    addr: int
    sig: int
    tid: int | None = None  #: restrict to one task, or None for any
    arm_addr: int | None = None
    pending: bool = True
    fired_at: tuple[int, int] | None = None  #: (tid, addr) once fired

    def __post_init__(self):
        self.armed = self.arm_addr is None

    @property
    def fired(self) -> bool:
        return self.fired_at is not None


@dataclass
class ScheduleTrace:
    """What the explorer actually did, compactly, for digest + replay."""

    seed: int
    slices: list[tuple[int, int]] = field(default_factory=list)  # (tid, n)
    events: list[tuple[str, int, int]] = field(default_factory=list)

    def record_event(self, kind: str, tid: int, value: int) -> None:
        self.events.append((kind, tid, value))

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.seed).encode())
        for tid, n in self.slices:
            h.update(b"s%d:%d;" % (tid, n))
        for kind, tid, value in self.events:
            h.update(b"e%s:%d:%d;" % (kind.encode(), tid, value))
        return h.hexdigest()


class ExplorerPolicy(SchedulePolicy):
    """Seed-driven schedule perturbation + boundary signal triggers."""

    def __init__(
        self,
        seed: int,
        *,
        quantum: int = 64,
        min_quantum: int = 1,
        triggers: tuple[SignalTrigger, ...] = (),
        perturb_order: bool = True,
        perturb_quantum: bool = True,
    ):
        self.seed = seed
        self.rng = SplitMix64(seed)
        self.quantum = quantum
        self.min_quantum = min_quantum
        self.triggers = list(triggers)
        self.perturb_order = perturb_order
        self.perturb_quantum = perturb_quantum
        self.trace = ScheduleTrace(seed)

    # ------------------------------------------------------------ hook points
    def quantum_for(self, task, default: int) -> int:
        if not self.perturb_quantum:
            return self.quantum or default
        span = max(self.quantum - self.min_quantum + 1, 1)
        return self.min_quantum + self.rng.below(span)

    def schedule_order(self, tasks: list) -> list:
        if not self.perturb_order or len(tasks) < 2:
            return tasks
        return self.rng.shuffle(list(tasks))

    def on_boundary(self, kernel, task) -> bool:
        rip = task.regs.rip
        for trig in self.triggers:
            if not trig.armed:
                if rip == trig.arm_addr:
                    trig.armed = True
                continue
            if (
                trig.pending
                and rip == trig.addr
                and (trig.tid is None or trig.tid == task.tid)
            ):
                trig.pending = False
                trig.fired_at = (task.tid, rip)
                kernel.post_signal(task, trig.sig, {})
                self.trace.record_event("sig%d" % trig.sig, task.tid, rip)
        return False

    def record_slice(self, task, executed: int) -> None:
        if executed:
            self.trace.slices.append((task.tid, executed))

    # ------------------------------------------------------------ diagnostics
    @property
    def all_triggers_fired(self) -> bool:
        return all(t.fired for t in self.triggers)
