"""The kernel: clock, tasks, syscall entry path, signals, events.

The syscall entry path follows Fig. 1 of the paper.  On every syscall
instruction:

1. the mode-switch round trip is charged and ``rcx``/``r11`` are clobbered
   (the x86-64 syscall ABI),
2. if Syscall User Dispatch is armed, the entry path is slower
   (``interception_check``); unless the invocation address is allowlisted,
   the user-space selector byte is read (``sud_selector_read``) and a BLOCK
   selector aborts the syscall with a synchronous SIGSYS,
3. installed seccomp filters run (real cBPF, charged per instruction),
4. a ptrace tracer gets syscall-entry and syscall-exit stops (two context
   switches each),
5. the syscall is dispatched.

Interposer tools re-issue syscalls through :meth:`Kernel.do_syscall`, which
walks the same gate — so an interposer running under SUD pays the
SUD-enabled entry cost on every re-issued syscall, exactly the effect
Table II isolates with its "baseline with SUD enabled" row.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.arch.registers import (
    MASK64,
    RAX,
    RCX,
    R11,
    SYSCALL_ARG_REGS,
    to_signed,
)
from repro.cpu.core import CPU
from repro.cpu.costs import DEFAULT_COST_MODEL, CostModel
from repro.errors import BreakpointTrap, InvalidOpcode, PageFault
from repro.kernel import errno
from repro.kernel.ptrace import TraceeControl
from repro.kernel.fs import SimFS, StdStream
from repro.kernel.net import Network
from repro.kernel.seccomp.core import (
    SECCOMP_RET_ALLOW,
    SECCOMP_RET_ERRNO,
    SECCOMP_RET_KILL_PROCESS,
    SECCOMP_RET_KILL_THREAD,
    SECCOMP_RET_LOG,
    SECCOMP_RET_TRACE,
    SECCOMP_RET_TRAP,
    SECCOMP_RET_USER_NOTIF,
    SeccompData,
    evaluate_filters,
)
from repro.kernel.signals import (
    AUDIT_ARCH_X86_64,
    SIGILL,
    SIGSEGV,
    SIGSYS,
    SIGTRAP,
    SYS_SECCOMP,
    SYS_USER_DISPATCH,
    SignalDelivery,
)
from repro.kernel.sud import SELECTOR_ALLOW
from repro.kernel.task import Task, TaskState
from repro.kernel.waits import WouldBlock
from repro.errors import KernelError


class HcallContext:
    """Passed to host-call handlers: the bridge between guest and host code."""

    def __init__(self, kernel: "Kernel", task: Task):
        self.kernel = kernel
        self.task = task

    @property
    def regs(self):
        return self.task.regs

    @property
    def mem(self):
        return self.task.mem

    def charge(self, cycles: int) -> None:
        """Account simulated work done by the host-side handler."""
        self.kernel.charge(self.task, cycles)

    def do_syscall(
        self, sysno: int, args: tuple[int, ...] = (), *, insn_addr: int = 0
    ) -> int | None:
        """Issue a syscall on behalf of the task (full entry path)."""
        return self.kernel.do_syscall(
            self.task, sysno, tuple(args), insn_addr=insn_addr
        )

    def defer(self, predicate: Callable[[], bool]) -> None:
        """Park the task and re-execute the current host call later.

        The guest rip is rewound over the hcall instruction and the task
        blocks until ``predicate`` holds; the scheduler then re-runs the
        hcall (the handler sees the same event again).  Unlike
        ``Scheduler.wait_until`` this never nests scheduler invocations on
        the Python stack, so any number of tasks may be parked
        simultaneously — the primitive lockstep monitors need.
        """
        from repro.arch.isa import EXT_ROW, Mnemonic

        self.task.regs.rip -= EXT_ROW[Mnemonic.HCALL].length
        self.task.park(predicate, interruptible=False)


class Kernel:
    """The simulated OS kernel."""

    def __init__(
        self,
        costs: CostModel | None = None,
        *,
        translation_cache: bool = True,
        superblocks: bool = True,
    ):
        self.costs = costs or DEFAULT_COST_MODEL
        self.clock = 0
        self.cpu = CPU(
            self, self.costs,
            translation_cache=translation_cache,
            superblocks=superblocks,
        )
        self.tasks: dict[int, Task] = {}
        #: Tasks currently alive (RUNNABLE/BLOCKED), maintained on the only
        #: alive -> not-alive transition (:meth:`terminate_task`) so the
        #: scheduler never rescans the full task table per round.
        self._live: dict[int, Task] = {}
        #: Tuple snapshot of ``_live`` handed out by :meth:`live_tasks`;
        #: ``None`` after a task was created or terminated.
        self._live_snapshot: tuple[Task, ...] | None = None
        self._next_tid = 1000
        self.fs = SimFS()
        self.net = Network(self)
        self.signals = SignalDelivery(self)

        self._events: list[tuple[int, int, Callable[[], None]]] = []
        self._event_seq = 0

        self._hcalls: list[Callable[[HcallContext], None]] = []
        self.exec_hooks: list[Callable[[Task], None]] = []

        #: "filesystem image" of loadable programs: path -> ProgramImage
        self.binaries: dict[str, object] = {}

        #: futex wait queues: (address-space id, addr) -> list of waiter dicts
        self.futex_queues: dict[tuple[int, int], list[dict]] = {}

        #: host supervisor for SECCOMP_RET_USER_NOTIF, or None
        self.usernotif_supervisor = None

        #: fault-injection hook consulted by :meth:`dispatch`, or None.
        #: See :class:`repro.faults.injector.FaultInjector`.
        self.fault_injector = None

        #: deadline (cycles) for async-parked ring entries, or None for
        #: unbounded parks.  When set, a :class:`RingWaiter` that stays
        #: parked this long completes with ``-ETIMEDOUT`` instead of
        #: waiting forever (the fleet hang-recovery path; PR 10).
        self.ring_park_timeout: int | None = None

        #: observability tracer (:class:`repro.obs.Tracer`), attached via
        #: ``Machine.attach_tracer``; every emit site is ``if tracer``-guarded.
        self.tracer = None

        from repro.kernel.syscalls import build_registry

        self.syscall_registry = build_registry()
        self.scheduler = None  # attached by the Machine

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> int:
        return self.clock

    @property
    def current_core_id(self) -> int:
        """Id of the core whose slice is currently executing (0 if 1-core)."""
        sched = self.scheduler
        return sched._current_core.id if sched is not None else 0

    def charge(self, task: Task | None, cycles: int) -> None:
        self.clock += cycles
        if task is not None:
            task.cpu_cycles += cycles

    def post_event(self, at: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire at absolute cycle time ``at``."""
        self._event_seq += 1
        heapq.heappush(self._events, (at, self._event_seq, callback))

    def post_event_in(self, delta: int, callback: Callable[[], None]) -> None:
        self.post_event(self.clock + delta, callback)

    def next_event_time(self) -> int | None:
        return self._events[0][0] if self._events else None

    def fire_due_events(self) -> bool:
        """Run all events due at or before the current clock."""
        fired = False
        while self._events and self._events[0][0] <= self.clock:
            _at, _seq, callback = heapq.heappop(self._events)
            callback()
            fired = True
        return fired

    def advance_time(self) -> bool:
        """Jump the clock to the next pending event and fire it.

        Returns False when no event exists (nothing can ever happen).
        """
        if not self._events:
            return False
        at, _seq, callback = heapq.heappop(self._events)
        if at > self.clock:
            self.clock = at
        callback()
        return True

    # ----------------------------------------------------------------- tasks
    def allocate_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def new_task(self, mem, *, pid: int | None = None, comm: str = "task") -> Task:
        tid = self.allocate_tid()
        task = Task(tid, pid if pid is not None else tid, mem)
        task.comm = comm
        task.fdtable.fds[1] = StdStream("stdout")
        task.fdtable.fds[2] = StdStream("stderr")
        self.tasks[tid] = task
        self._live[tid] = task
        self._live_snapshot = None
        if self.scheduler is not None:
            self.scheduler.on_task_created(task)
        return task

    def live_tasks(self) -> tuple[Task, ...]:
        """The live tasks in creation order, as an immutable snapshot.

        The same tuple is returned until a task is created or terminated,
        so a scheduler round costs no rebuild.  Tasks leave the live set
        only through :meth:`terminate_task`.
        """
        snap = self._live_snapshot
        if snap is None:
            snap = self._live_snapshot = tuple(self._live.values())
        return snap

    def terminate_task(self, task: Task, *, code: int = 0, signal: int | None = None) -> None:
        if not task.alive:
            return
        task.exit_code = code
        task.term_signal = signal
        task.state = TaskState.ZOMBIE
        self._live.pop(task.tid, None)
        self._live_snapshot = None
        if task.clear_child_tid:
            try:
                task.mem.write_u32(task.clear_child_tid, 0, check=None)
            except PageFault:
                pass
        # Wake parents waiting in wait4 via the generic blocking machinery.

    def terminate_group(self, task: Task, *, code: int = 0, signal: int | None = None) -> None:
        for other in list(self.tasks.values()):
            if other.pid == task.pid and other.alive:
                self.terminate_task(other, code=code, signal=signal)

    # ----------------------------------------------------------------- hcalls
    def register_hcall(self, fn: Callable[[HcallContext], None]) -> int:
        self._hcalls.append(fn)
        return len(self._hcalls) - 1

    # -------------------------------------------------- CPU environment hooks
    def on_hcall(self, task: Task, hook_id: int) -> None:
        if not 0 <= hook_id < len(self._hcalls):
            raise InvalidOpcode(task.regs.rip, None)
        self._hcalls[hook_id](HcallContext(self, task))

    def on_hlt(self, task: Task) -> None:
        # hlt is privileged in user mode: #GP -> SIGSEGV on Linux.
        self.force_signal(task, SIGSEGV, {"addr": task.regs.rip})

    # ------------------------------------------------------- syscall entry path
    def on_syscall(self, task: Task) -> None:
        """A syscall instruction retired in ``task`` (rip already past it)."""
        regs = task.regs
        sysno = to_signed(regs.read(RAX))
        task.syscall_ip = insn_addr = regs.rip - 2
        self.charge(task, self.costs.syscall_entry_exit)
        # The syscall instruction architecture clobbers rcx and r11.
        regs.write(RCX, regs.rip)
        regs.write(R11, 0x246)

        args = tuple(regs.read(r) for r in SYSCALL_ARG_REGS)

        gate = self._interception_gate(task, sysno, args, insn_addr)
        if gate is not None:
            if isinstance(gate, tuple):  # ("ret", value): errno / notif verdict
                regs.write(RAX, gate[1] & MASK64)
                return
            if gate != "allow":
                return  # handled (signal delivered / killed)

        if task.tracer is not None:
            self.charge(task, 2 * self.costs.context_switch)
            ctl = TraceeControl(self, task)
            task.tracer.on_syscall_enter(ctl)
            if ctl._skip_retval is not None:
                self.complete_syscall(task, ctl._skip_retval)
                return
            sysno = to_signed(regs.read(RAX))
            args = tuple(regs.read(r) for r in SYSCALL_ARG_REGS)
        self.run_syscall(task, sysno, args)

    def run_syscall(self, task: Task, sysno: int, args: tuple[int, ...]) -> None:
        """Dispatch a guest syscall: park the task if it would block, else
        complete it.  Serves the first dispatch and every restart."""
        try:
            ret = self.dispatch(task, sysno, args)
        except WouldBlock as block:
            task.park(block.ready, interruptible=block.interruptible,
                      restart=(sysno, args))
            return
        self.complete_syscall(task, ret)

    def complete_syscall(self, task: Task, ret: int | None) -> None:
        """The one tail of a guest syscall: the result goes to rax (None
        leaves the registers alone, as ``rt_sigreturn`` needs), then a
        tracer gets its exit stop.  A syscall that blocked ends here once,
        on the dispatch that completed it or on its -EINTR wake."""
        if ret is not None:
            task.regs.write(RAX, ret & MASK64)
        if task.tracer is not None and task.alive:
            self.charge(task, 2 * self.costs.context_switch)
            task.tracer.on_syscall_exit(TraceeControl(self, task))

    def _interception_gate(
        self, task: Task, sysno: int, args: tuple[int, ...], insn_addr: int,
        *, sud: bool = True,
    ) -> str | tuple | None:
        """SUD + seccomp checks.  Returns:

        * ``None`` — nothing armed, proceed on the fast kernel entry,
        * ``"allow"`` — armed but permitted, proceed,
        * ``"handled"`` — syscall aborted (signal delivered / task killed)
          or already executed by the user-notif supervisor,
        * ``("ret", value)`` — syscall aborted with a result the caller
          must surface (seccomp RET_ERRNO, user-notif verdict).

        ``sud=False`` skips the syscall-instruction-boundary mechanisms
        (SUD selector, ptrace arming) — used for ring entries, which never
        cross via a syscall instruction of their own but still pass every
        seccomp filter per entry.
        """
        regs = task.regs
        if sud:
            armed = task.sud is not None or task.seccomp_filters or task.tracer
        else:
            armed = bool(task.seccomp_filters)
        if not armed:
            return None
        self.charge(task, self.costs.interception_check)

        if sud and task.sud is not None and not task.sud.allows_address(insn_addr):
            self.charge(task, self.costs.sud_selector_read)
            try:
                selector = task.mem.read_u8(task.sud.selector_addr, check="read")
            except PageFault:
                self.force_signal(task, SIGSEGV, {"addr": task.sud.selector_addr})
                return "handled"
            if selector != SELECTOR_ALLOW:
                info = {
                    "code": SYS_USER_DISPATCH,
                    "addr": regs.rip,  # si_call_addr: return address of the syscall
                    "syscall": sysno & 0xFFFFFFFF,
                }
                self.signals.deliver_now(task, SIGSYS, info)
                return "handled"

        if task.seccomp_filters:
            data = SeccompData(
                sysno & 0xFFFFFFFF, AUDIT_ARCH_X86_64, insn_addr, args
            )
            result = evaluate_filters(task.seccomp_filters, data)
            self.charge(
                task,
                self.costs.seccomp_fixed
                + self.costs.seccomp_per_insn * result.insns_executed,
            )
            action = result.action
            if action in (SECCOMP_RET_ALLOW, SECCOMP_RET_LOG):
                return "allow"
            if action == SECCOMP_RET_ERRNO:
                return ("ret", -result.data)
            if action == SECCOMP_RET_TRAP:
                info = {
                    "code": SYS_SECCOMP,
                    "addr": regs.rip,
                    "syscall": sysno & 0xFFFFFFFF,
                    "errno": result.data,
                }
                self.signals.deliver_now(task, SIGSYS, info)
                return "handled"
            if action == SECCOMP_RET_USER_NOTIF:
                return self._user_notif(task, sysno, args)
            if action == SECCOMP_RET_TRACE:
                return "allow"  # tracer stop follows in on_syscall
            if action == SECCOMP_RET_KILL_THREAD:
                self.terminate_task(task, signal=SIGSYS)
                return "handled"
            if action == SECCOMP_RET_KILL_PROCESS:
                self.terminate_group(task, signal=SIGSYS)
                return "handled"
        return "allow"

    def _user_notif(
        self, task: Task, sysno: int, args: tuple[int, ...]
    ) -> str | tuple:
        """SECCOMP_RET_USER_NOTIF: wake a host-level supervisor.

        Charged as two context switches each way, like the real notifier
        fd ping-pong.  The supervisor answers with a result, ``None``
        (continue: the kernel executes the call) or ``"handled"`` (it
        executed the call itself, which returned no result).
        """
        if self.usernotif_supervisor is None:
            return ("ret", -errno.ENOSYS)
        self.charge(task, 2 * self.costs.context_switch)
        verdict = self.usernotif_supervisor(self, task, sysno, args)
        self.charge(task, 2 * self.costs.context_switch)
        if verdict is None:
            return "allow"  # supervisor says: let the kernel execute it
        if verdict == "handled":
            return verdict  # the supervisor executed it; nothing to write
        return ("ret", verdict)

    # ------------------------------------------------------------- dispatching
    def dispatch(self, task: Task, sysno: int, args: tuple[int, ...]) -> int | None:
        """Run the syscall implementation (no interception).

        A blocking syscall raises WouldBlock out of here and is re-dispatched
        later, so the tracer sees exactly one ``syscall`` event per
        *completed* dispatch, stamped at completion with the dispatch's
        cycle cost.
        """
        tracer = self.tracer
        start = self.clock if tracer is not None else 0
        if self.fault_injector is not None:
            injected = self.fault_injector.intercept(self, task, sysno, args)
            if injected is not None:
                if tracer is not None:
                    tracer.syscall(self.clock, task.tid, sysno, args, injected,
                                   self.clock - start, injected=True)
                return injected
        entry = self.syscall_registry.get(sysno)
        if entry is None:
            self.charge(task, self.costs.nosys_penalty)
            ret: int | None = -errno.ENOSYS
        else:
            self.charge(task, entry.service_cost)
            ret = entry.fn(self, task, args)
        if tracer is not None:
            tracer.syscall(self.clock, task.tid, sysno, args, ret,
                           self.clock - start)
        return ret

    def do_syscall(
        self, task: Task, sysno: int, args: tuple[int, ...] = (), *, insn_addr: int = 0
    ) -> int | None:
        """Issue a syscall on behalf of ``task`` through the full entry path.

        This is what interposer tools use to re-issue the original syscall:
        it pays the mode switch and any armed interception-check costs, and
        it blocks through :meth:`dispatch_blocking` instead of raising
        WouldBlock.
        """
        args = tuple(args) + (0,) * (6 - len(args))
        task.syscall_ip = insn_addr
        self.charge(task, self.costs.syscall_entry_exit)
        gate = self._interception_gate(task, sysno, args, insn_addr=insn_addr)
        if gate == "handled" or isinstance(gate, tuple):
            raise KernelError(
                "interposer-issued syscall was itself intercepted "
                "(selector not ALLOW, or a seccomp filter fired)"
            )
        return self.dispatch_blocking(task, sysno, args)

    def dispatch_blocking(
        self, task: Task, sysno: int, args: tuple[int, ...]
    ) -> int | None:
        """Dispatch ``sysno``, blocking *cooperatively* instead of raising.

        The one wait in a host-side frame that the scheduler cannot park:
        interposer-issued syscalls (:meth:`do_syscall`), the unotify
        supervisor and the sync ring drain (``repro.kernel.uring``) all
        block here, through :meth:`Scheduler.wait_until`.
        """
        while True:
            try:
                return self.dispatch(task, sysno, args)
            except WouldBlock as block:
                wait = self.scheduler.wait_until
                if not block.interruptible:
                    wait(task, block.ready)
                    continue
                # Same contract as the scheduler's parked-task path: a
                # deliverable signal aborts the wait and the syscall
                # returns -EINTR (the handler runs at the task's next
                # instruction boundary).  Without this, an interposed
                # blocking syscall could never be interrupted.
                wait(task,
                     lambda: block.ready() or task.has_deliverable_signal())
                if not block.ready():
                    return -errno.EINTR

    def complete_ring_waiters(self, task: Task) -> int:
        """Drive ``task``'s parked aggregation-ring entries (async drain);
        posts CQEs for any whose wakeup has fired.  Thin delegate so the
        scheduler can drive waiters without importing the ring module."""
        from repro.kernel import uring

        return uring.complete_ring_waiters(self, task)

    # ----------------------------------------------------------------- faults
    def force_signal(self, task: Task, sig: int, info: dict | None = None) -> None:
        """Deliver a synchronous fault signal (SIGSEGV/SIGILL/SIGTRAP)."""
        self.signals.deliver_now(task, sig, info or {})

    def handle_fault(self, task: Task, exc: Exception, insn_addr: int) -> None:
        """Convert a CPU-raised fault into the architectural signal."""
        task.regs.rip = insn_addr  # re-execute after a handler fixes things
        if isinstance(exc, PageFault):
            self.force_signal(task, SIGSEGV, {"addr": exc.address})
        elif isinstance(exc, BreakpointTrap):
            task.regs.rip = insn_addr + 1  # int3 traps after execution
            self.force_signal(task, SIGTRAP, {"addr": exc.address})
        elif isinstance(exc, InvalidOpcode):
            self.force_signal(task, SIGILL, {"addr": exc.address})
        else:  # pragma: no cover - programming error
            raise exc

    # ------------------------------------------------------------- conveniences
    def default_restorer(self, task: Task) -> int:
        """The vdso-style default sigreturn restorer for the task's image."""
        addr = getattr(task, "vdso_sigreturn", 0)
        if not addr:
            raise KernelError(
                "no default restorer mapped; register handlers with "
                "an explicit sa_restorer or load programs via the loader"
            )
        return addr

    def post_signal(self, task: Task, sig: int, info: dict | None = None) -> None:
        self.signals.post(task, sig, info)
        if (
            task.state == TaskState.BLOCKED
            and task.blocked_interruptible
            and self.signals.would_act(task, sig)
            and not task.signal_blocked(sig)
        ):
            # Interruptible sleep: wake; the interrupted syscall returns EINTR.
            restart = task.wake()
            # SMP: the wake happens at the *sender's* clock; the sleeper's
            # (possibly idle, hence lagging) core must not run it earlier.
            if task.wake_clock < self.clock:
                task.wake_clock = self.clock
            if restart is not None:
                self.complete_syscall(task, -errno.EINTR)
