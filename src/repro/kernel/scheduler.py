"""Cooperative round-robin scheduler, single- or multi-core.

With one core (the default) a single simulated CPU runs all tasks in time
slices.  Blocking works two ways:

* a *guest* blocking syscall raises WouldBlock out of the entry path; the
  task is parked with a restart record and retried when its predicate holds,
* *host-side* code (an interposer deep in an hcall) blocks through
  ``Kernel.dispatch_blocking``, which nests :meth:`Scheduler.wait_until`
  on the host stack — re-entrancy is guarded so a task is never stepped
  while it is already live on the (Python) stack.  ``wait_until`` is the
  only way into a nested scheduler, and it returns with the waiter's PKRU
  and core binding restored, so the slice it interrupted resumes without
  re-checking them.

With ``cores > 1`` the scheduler becomes a deterministic SMP simulator:
each :class:`repro.kernel.smp.Core` keeps its own clock, runqueue and
private decoded-insn and superblock caches, and rounds interleave the
cores in an order drawn from a seeded RNG.  Slices still execute one at
a time in host order (so every existing kernel invariant holds), but
each slice runs on its core's *local* timeline: the kernel's global
``clock`` attribute is swapped to the core's clock for the duration of
the slice and harvested back at the end.  Elapsed machine time is the
*frontier* — the maximum core clock — so work spread over N cores
genuinely takes ~1/N the simulated time.  A code write drops the page's
compiled blocks from every core's cache at once (:meth:`_shootdown`), so
the slice loop runs a cached block without checking its generations.

One outer loop (:meth:`Scheduler.run`) serves every core count; only the
round body forks on it, because the core count is observable.  ``until()``
is consulted once after each slice, and again at the top of a round only
when an event fired or time advanced since (an SMP round always consults
it, because it ends by moving the clock to the frontier).  With one core,
a slice that a nop slide cut at its budget is followed by the run's next
whole quanta in a tight loop (:meth:`Scheduler._slide_quanta`): each
fused quantum is the slide-only slice a new round would run, tracer
events, counters and one ``until()`` included, without the round.  One core
runs its round inline over the kernel's task list; many cores run
:meth:`Scheduler._smp_round`, which swaps clocks and decode caches per
slice.  Routing one core through the SMP round as well costs about a
third more host time per op on the interposed webserver (the per-slice
clock swap, cache rebind and runqueue copy), and gains nothing, so the
two round bodies stay.  ``Machine(cores=1)`` is cycle-identical to the
pre-SMP machine by construction.
"""

from __future__ import annotations

import random

from repro.arch.isa import Mnemonic
from repro.cpu.superblock import ENDS_RUN, BlockCache
from repro.cpu.superblock import HOT_THRESHOLD as _HOT
from repro.errors import BreakpointTrap, InvalidOpcode, PageFault
from repro.kernel.smp import Core
from repro.kernel.task import Task, TaskState
from repro.kernel.waits import DeadlockError

_NOP = Mnemonic.NOP
_NOP_OP = _NOP.op_index


class SchedulePolicy:
    """Hook points a scheduling policy may implement (all optional).

    The default scheduler behaviour — fixed quantum, kernel task order, no
    forced preemption — is what you get from this base class.  The fault
    harness (:mod:`repro.faults.explorer`) subclasses it to perturb quanta,
    reorder runnable tasks and force preemption or signal delivery at
    chosen instruction boundaries, all derived from a single seed.
    """

    def quantum_for(self, task: Task, default: int) -> int:
        """Instruction budget for the next slice of ``task``."""
        return default

    def schedule_order(self, tasks: list[Task]) -> list[Task]:
        """Order in which the run loop offers slices this round."""
        return tasks

    def on_boundary(self, kernel, task: Task) -> bool:
        """Called at every instruction boundary before the signal check.

        May post signals (they are deliverable at this very boundary).
        Returning True requests preemption; the scheduler honours it only
        after at least one instruction ran in the slice, so a policy can
        never livelock a task.
        """
        return False

    def record_slice(self, task: Task, executed: int) -> None:
        """One slice of ``task`` finished after ``executed`` instructions."""


class Scheduler:
    def __init__(
        self,
        kernel,
        quantum: int = 64,
        policy: SchedulePolicy | None = None,
        *,
        cores: int = 1,
        smp_seed: int = 0,
    ):
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        self.kernel = kernel
        self.quantum = quantum
        self.policy = policy
        self._active: set[int] = set()  # tids currently on the Python stack
        #: Set by :meth:`_slide` when a slide stops at the slice budget
        #: with more of its run left; the one-core round then tries
        #: :meth:`_slide_quanta`.  One attribute test per slice for a
        #: workload that never slides.
        self._cut = False
        self.total_instructions = 0
        self._last_tid: int | None = None  # for ctx_switch trace events
        #: SMP state.  With ``cores == 1`` (``self.smp`` False) the run
        #: loop takes the inline one-core round and core 0 only collects
        #: busy-cycle stats.
        self.cores = [Core(i) for i in range(cores)]
        self.smp = cores > 1
        self.smp_seed = smp_seed
        self._rng = random.Random(smp_seed)
        self._current_core = self.cores[0]

    # --------------------------------------------------------------- slices
    def _maybe_unblock(self, task: Task) -> None:
        if task.state is not TaskState.BLOCKED:
            return
        if task.blocked_reason is not None and not task.blocked_reason():
            return
        restart = task.wake()
        if restart is not None:
            self.kernel.run_syscall(task, *restart)

    def _open_slice(self, task: Task) -> None:
        """Start a slice of ``task``: trace it."""
        tracer = self.kernel.tracer
        if tracer is not None:
            clock = self.kernel.clock
            if self._last_tid != task.tid:
                tracer.ctx_switch(clock, self._last_tid, task.tid)
                self._last_tid = task.tid
            tracer.slice_start(clock, task.tid)

    def _close_slice(self, task: Task, executed: int) -> None:
        """End a slice of ``task`` that retired ``executed`` instructions."""
        task.insn_count += executed
        self.total_instructions += executed
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.slice_end(self.kernel.clock, task.tid, executed)

    def run_task_slice(self, task: Task, quantum: int | None = None) -> int:
        """Run up to ``quantum`` instructions of ``task``; returns how many."""
        kernel = self.kernel
        policy = self.policy
        executed = 0
        if quantum is not None:
            budget = quantum
        elif policy is not None:
            budget = policy.quantum_for(task, self.quantum)
        else:
            budget = self.quantum
        if task.tid in self._active:
            return 0
        if task.ring_waiters:
            # Slice boundaries are the async ring's scheduler-side safe
            # point: post completions for parked entries whose wakeups
            # fired, so a guest polling cq_tail observes them without
            # another crossing.
            kernel.complete_ring_waiters(task)
            if not task.alive:
                return 0
        self._active.add(task.tid)
        self._open_slice(task)
        # Invariants hoisted out of the per-instruction body: the CPU step
        # and fault handler bindings, and the protection-key rights load
        # (per-thread PKRU) — a slice is the task-switch point, so PKRU is
        # stored once here and re-stored only after an execve rebinds
        # task.mem.  A nested scheduler run (wait_until, deep in a step)
        # restores this task's PKRU and core binding itself before it
        # returns.  ``until()`` predicates are only consulted between
        # slices, so insn_count is batched to slice exit as well.
        cpu = kernel.cpu
        step = cpu.step
        charge = kernel.charge
        handle_fault = kernel.handle_fault
        runnable = TaskState.RUNNABLE
        core = self._current_core
        core._depth += 1
        slice_t0 = kernel.clock
        hooks = cpu.hooks
        # Tier-2 dispatch is only sound when nothing can observe or change
        # state at interior instruction boundaries: a schedule policy may
        # preempt or post signals anywhere, and CPU hooks (ptrace) see
        # every instruction — both force pure single-stepping.  Blocks
        # contain no syscalls/hcalls, so with tier on, every signal
        # delivery point, boundary check and quantum edge that the
        # single-step loop would hit still lands on the same instruction.
        tier = cpu.superblocks and policy is None and not hooks
        blocks = gens = runs = None
        count_head = self._count_head
        try:
            mem = task.mem
            mem.active_pkru = task.regs.pkru
            if tier:
                bcache = mem.block_cache
                if mem.block_flush_hook is None:
                    self._tier_state(mem)
                blocks = bcache.blocks
                runs = bcache.runs
                gens = mem.exec_gen
            while executed < budget:
                if task.state is not runnable:
                    if not task.alive:
                        break
                    self._maybe_unblock(task)
                    if task.state is not runnable:
                        break
                if policy is not None and policy.on_boundary(kernel, task):
                    if executed:
                        break
                if task.pending and task.has_deliverable_signal():
                    kernel.signals.deliver_pending(task)
                    if not task.alive:
                        break
                if task.mem is not mem:
                    # An execve gave the task a fresh address space.
                    mem = task.mem
                    mem.active_pkru = task.regs.pkru
                    if self.smp:
                        self._bind_core(core, mem)
                    tier = cpu.superblocks and policy is None and not hooks
                    if tier:
                        bcache, blocks, runs, gens = self._tier_state(mem)
                addr = task.regs.rip
                # Tier 2: one lookup per block entry runs the block at
                # ``addr`` (or its tail variant when it overruns the
                # budget), or slides a recorded nop run, and chains from
                # wherever the block exits.  Chaining skips the boundary
                # checks above, which is sound because a block runs no
                # syscalls/hcalls: nothing inside a chain can change
                # liveness, pending signals or the address-space binding
                # — only a fault can, and it returns to them.  For the
                # same reason an exit to an address with no runnable block
                # steps that instruction at once.  ``addr = None`` marks a
                # dispatch that returns to the boundary checks unstepped.
                # A cached block is never stale: every write that bumps a
                # page generation drops the blocks spanning the page from
                # every core's cache at once (_bump_exec_gen, _shootdown).
                # ``head``: a miss here is a block-head candidate.  Slice
                # entries and block exits are (quantum cuts land mid-run,
                # so they recur without ever being a taken branch
                # target); other steps count below, through taken
                # transfers and ``ENDS_RUN`` fallthroughs.
                head = executed == 0
                while tier:
                    b = blocks.get(addr)
                    if b is None:
                        if not head:
                            break  # a mid-slice step target: step it
                        fn = None
                    else:
                        fn = b.fn
                    if fn is None:
                        if b is not None or executed == 0:
                            # A sentinel head (no block starts at a nop,
                            # so the sled entry a ``call rax`` lands on is
                            # one), or a slice resuming inside a run:
                            # when the nop run is recorded, slide at once
                            # instead of stepping.  Sound by
                            # BlockCache.nop_run's argument: the record
                            # exists only after a stepped nop on its page,
                            # and its generation is checked.
                            r = runs.get(addr)
                            if (r is not None and r[0] > addr
                                    and gens.get(r[1], 0) == r[2]):
                                executed += self._slide(
                                    task, addr, r[0], budget - executed)
                                addr = None
                                break
                        if (b is None
                                and count_head(mem, task, addr) is not None
                                and 0 < executed < budget):
                            # A block exit dispatches the block just
                            # compiled; a slice entry steps.
                            continue
                        if executed == budget:
                            addr = None  # a chain used up the slice
                        break
                    tail = b.n > budget - executed
                    if tail:
                        # The block overruns the remaining budget.  Run a
                        # *tail* variant truncated to exactly the leftover:
                        # same instructions, costs and fault behaviour as
                        # that many single steps.  A variant compiles only
                        # once its (head, leftover) pair is hot; until
                        # then the remainder single-steps.
                        left = budget - executed
                        b = blocks.get((addr, left))
                        if b is None:
                            b = count_head(mem, task, addr, left)
                        if b is None or b.fn is None:
                            break
                        fn = b.fn
                    try:
                        executed += fn(task, charge)
                    except (PageFault, InvalidOpcode, BreakpointTrap) as exc:
                        executed += task.sb_fault
                        b.runs += 1
                        handle_fault(task, exc, task.regs.rip)
                        addr = None
                        break
                    b.runs += 1
                    if tail:  # its exit is no head candidate
                        addr = None
                        break
                    addr = task.regs.rip
                    head = True
                    if executed == budget and addr in blocks:
                        addr = None  # budget spent; only a miss counts
                        break
                if addr is None:
                    continue
                try:
                    insn = step(task)
                except (PageFault, InvalidOpcode, BreakpointTrap) as exc:
                    handle_fault(task, exc, addr)
                    insn = None
                executed += 1
                if tier and insn is not None:
                    nrip = task.regs.rip
                    if insn.mnemonic is _NOP:
                        # Nop slide: retire the rest of the run as one
                        # dispatch — rip += k, one charge of k nops.
                        # Sound like a block chain (a nop can change
                        # nothing a boundary check reads), page- and
                        # quantum-bounded and generation-checked; see
                        # repro.cpu.superblock.  A rescan also records
                        # the nop just stepped, so a sled entry there
                        # slides next time.
                        r = runs.get(nrip)
                        if (r is None or gens.get(r[1], 0) != r[2]
                                or addr not in runs):
                            r = bcache.nop_run(mem, nrip)
                        if (r is not None and r[0] > nrip
                                and executed < budget):
                            executed += self._slide(
                                task, nrip, r[0], budget - executed)
                    elif ((nrip != addr + insn.length
                           or ENDS_RUN[insn.mnemonic.op_index])
                          and nrip not in blocks):
                        # Count taken control transfers, and fallthrough
                        # past an instruction no block compiles across
                        # (hcall, rdgsbase, ...), as candidate block heads;
                        # any other straight-line fallthrough is covered
                        # by the run that eventually compiles across it.
                        count_head(mem, task, nrip)
        finally:
            self._active.discard(task.tid)
            core._depth -= 1
            if core._depth == 0:
                # Outermost frame on this core: everything charged during
                # the slice (including nested same-core work, which lands
                # on the same timeline) counts as busy time.
                core.busy_cycles += kernel.clock - slice_t0
        self._close_slice(task, executed)
        if policy is not None:
            policy.record_slice(task, executed)
        return executed

    # ------------------------------------------------------------- main loop
    def run(
        self,
        *,
        max_instructions: int | None = None,
        until=None,
        raise_on_deadlock: bool = True,
    ) -> None:
        """Run until all tasks exit, ``until()`` is true, or the budget ends.

        One loop for any core count; only the round body forks on it.
        ``until()`` runs once after each slice or fused slide quantum, and
        again before a round only after events fired or time advanced.
        """
        kernel = self.kernel
        start = self.total_instructions
        limit = None if max_instructions is None else start + max_instructions
        if self.smp and kernel.clock > max(c.clock for c in self.cores):
            # Cycles charged outside any slice (a tool attached before the
            # run) have elapsed on every core: start the first round there.
            for core in self.cores:
                core.clock = kernel.clock
        # True while until() has already said no in the current machine
        # state: the one-core round's last post-slice call, with nothing
        # fired and no time advanced since.  (An SMP round ends by moving
        # the clock to the frontier, so it never sets it.)
        checked = False
        while True:
            if until is not None and not checked and until():
                return
            # live_tasks() is a snapshot rebuilt only after a task is created
            # or terminated, never a scan of the task table (which keeps
            # zombies for wait4); tasks created mid-round wait for the next.
            round_tasks = kernel.live_tasks()
            if not round_tasks:
                return
            if limit is not None and self.total_instructions >= limit:
                return
            if self.smp:
                progress, stopped = self._smp_round(until=until)
                if stopped:
                    return
                # Events are machine-global; fire them against the
                # frontier.  (kernel.clock is scratch between slices —
                # the next slice re-swaps it to its core's local clock.)
                kernel.clock = self.frontier()
            else:
                progress = 0
                if self.policy is not None:
                    round_tasks = self.policy.schedule_order(round_tasks)
                for task in round_tasks:
                    if not task.alive or task.tid in self._active:
                        continue
                    progress += self.run_task_slice(task)
                    if until is not None and until():
                        return
                    checked = True
                    if self._cut:
                        fused = self._slide_quanta(task, until, limit)
                        self._cut = False
                        if fused is None:
                            return
                        progress += fused
            if kernel.fire_due_events():
                checked = False
            if progress == 0:
                if self._advance_time():
                    checked = False
                    continue
                # No instruction ran and no event is pending.
                still_live = kernel.live_tasks()
                if not still_live:
                    return
                if raise_on_deadlock:
                    raise DeadlockError(
                        "all tasks blocked with no pending events: "
                        + ", ".join(repr(t) for t in still_live)
                    )
                return

    def _advance_time(self) -> bool:
        """Nothing ran: lift every core to the next event's time, fire it."""
        at = self.kernel.next_event_time()
        if at is None:
            return False
        for core in self.cores:
            if core.clock < at:
                core.clock = at
        return self.kernel.advance_time()

    def wait_until(self, current: Task, predicate) -> None:
        """Block ``current``, live in a host-side frame, until ``predicate``.

        The nested wait behind :meth:`Kernel.dispatch_blocking`: each pass
        offers one slice to every other task (an SMP round excluding
        ``current``), fires due events, and advances time when neither
        made progress.
        """
        kernel = self.kernel
        guard = 0
        while not predicate():
            guard += 1
            if guard > 10_000_000:  # pragma: no cover - safety net
                raise DeadlockError("wait_until spun without progress")
            if self.smp:
                progress, _ = self._smp_round(exclude=current)
            else:
                progress = 0
                others = kernel.live_tasks()
                if self.policy is not None:
                    others = self.policy.schedule_order(others)
                for task in others:
                    if (task is current or not task.alive
                            or task.tid in self._active):
                        continue
                    progress += self.run_task_slice(task)
            fired = kernel.fire_due_events()
            if not (progress or fired) and not kernel.advance_time():
                raise DeadlockError(
                    f"task {current.tid} waits forever: "
                    "no runnable tasks or events"
                )
            # Nested slices may have run a sibling thread sharing this
            # address space, on this core or another: restore this task's
            # protection-key rights and, on SMP, point the space back at
            # this core's decode and block caches, before its host-side
            # caller touches user memory or the slice resumes.  This is
            # the one restore point; the slice loop does not re-check.
            mem = current.mem
            mem.active_pkru = current.regs.pkru
            if self.smp:
                self._bind_core(self._current_core, mem)

    # ---------------------------------------------------------------- SMP
    @property
    def shootdowns(self) -> int:
        """Total cross-core shootdown IPIs sent (see :meth:`_shootdown`)."""
        return sum(core.shootdowns for core in self.cores)

    def frontier(self) -> int:
        """Machine-wide elapsed cycles: the maximum over all core clocks."""
        f = self.kernel.clock
        for core in self.cores:
            if core.clock > f:
                f = core.clock
        return f

    def on_task_created(self, task: Task) -> None:
        """Home a new task: least-loaded core, never before 'now'."""
        task.wake_clock = self.kernel.clock
        if not self.smp:
            return
        core = min(self.cores, key=lambda c: (len(c.runqueue), c.id))
        task.core_id = core.id
        core.runqueue.append(task)

    def _bind_core(self, core: Core, mem) -> None:
        """Point ``mem``'s live decode cache at ``core``'s private copy.

        The CPU hot path reads ``mem.insn_cache`` per instruction; swapping
        the dict at slice granularity gives each core a private translation
        cache with zero per-instruction overhead.  The first bind also arms
        the cross-core shootdown hook on this address space.  The tier-2
        superblock cache swaps alongside, so compiled blocks are per-core
        too and remote rewrites can shoot down exactly the stale ones.
        """
        cache = core.caches.get(mem.asid)
        if cache is None:
            cache = core.caches[mem.asid] = {}
        mem.insn_cache = cache
        bc = core.block_caches.get(mem.asid)
        if bc is None:
            bc = core.block_caches[mem.asid] = BlockCache()
        mem.block_cache = bc
        if mem.smp_shootdown is None:
            mem.smp_shootdown = self._shootdown

    # ------------------------------------------------------------- tier 2
    def _slide(self, task, start: int, end: int, room: int) -> int:
        """Retire the nops from ``start`` toward ``end`` as one dispatch.

        At most ``room`` of them (the slice budget left): ``rip`` advances
        by that many and one charge of that many nop costs, read from the
        cost model's table, is made.  Returns the count.
        """
        k = end - start
        if k > room:
            k = room
            self._cut = True
        task.regs.rip = start + k
        kernel = self.kernel
        cpu = kernel.cpu
        kernel.charge(task, k * cpu._cost_table[_NOP_OP])
        cpu.slides += 1
        cpu.slid_insns += k
        return k

    def _slide_quanta(self, task: Task, until,
                      limit: int | None) -> int | None:
        """Slide whole quanta of the nop run ``task`` was cut in, with no
        scheduler round and no :meth:`run_task_slice` call for each.

        The one-core round calls this after a slice of ``task`` that a
        slide ended, and after that slice's ``until()``.  Each fused
        quantum is the slide-only slice the next round would run: tracer
        ``slice_start``/``slice_end`` at the same clocks, one
        :meth:`_slide` of a quantum of nops, the same instruction and
        busy-cycle counts, and one ``until()``.  A quantum
        is fused only while nothing could tell the difference: ``task`` is
        the only live task *now* (the round's snapshot goes stale on a
        clone), no policy, CPU hook or nested scheduler frame is in play,
        the generation-checked record at ``rip`` holds a whole quantum and
        no block starts there, no event is due, the task is runnable with
        no pending signal, no ring waiter and the same ``mem``, and the
        run's instruction ``limit`` is not reached.  Returns the
        instructions retired, or None when ``until()`` stopped the run.
        """
        kernel = self.kernel
        cpu = kernel.cpu
        core = self._current_core
        live = kernel.live_tasks()
        # Policy, hooks, tiering and depth are checked once: only until()
        # runs between fused quanta, at this same depth.
        if (len(live) != 1 or live[0] is not task or self.policy is not None
                or cpu.hooks or not cpu.superblocks or core._depth):
            return 0
        mem = task.mem
        regs = task.regs
        runs = mem.block_cache.runs  # one core never rebinds the cache
        blocks = mem.block_cache.blocks
        gens = mem.exec_gen
        q = self.quantum
        runnable = TaskState.RUNNABLE
        done = 0
        while True:
            rip = regs.rip
            r = runs.get(rip)
            at = kernel.next_event_time()
            if (r is None or r[0] - rip < q or gens.get(r[1], 0) != r[2]
                    or rip in blocks
                    or (at is not None and at <= kernel.clock)
                    or (limit is not None and self.total_instructions >= limit)
                    or task.state is not runnable or task.pending
                    or task.ring_waiters or task.mem is not mem
                    or kernel.live_tasks() is not live):
                return done
            self._open_slice(task)
            t0 = kernel.clock
            self._slide(task, rip, r[0], q)
            core.busy_cycles += kernel.clock - t0
            self._close_slice(task, q)
            done += q
            if until is not None and until():
                return None

    def _tier_state(self, mem):
        """Superblock bookkeeping for ``mem``'s bound cache.

        Arms the flush hook so eager invalidations surface as
        ``block_invalidate`` events.  A slice calls it on entry only when
        the hook is not armed yet, and again after an execve rebinds
        ``mem``.  Returns the cache and the parts a slice keeps in
        locals: ``(bcache, blocks, runs, exec_gen)``.
        """
        bcache = mem.block_cache
        if mem.block_flush_hook is None:
            mem.block_flush_hook = self._block_flush
        return bcache, bcache.blocks, bcache.runs, mem.exec_gen

    def _count_head(self, mem, task: Task, head: int,
                    max_len: int | None = None):
        """Count one execution of a block-head candidate; compile it hot.

        The candidate is ``head``, or with ``max_len`` its ``(head,
        max_len)`` tail variant, counted under the key it is cached under
        in ``mem``'s bound block cache.  On the ``HOT_THRESHOLD``-th count
        the counter is dropped and the run compiled.  Returns the new
        block (perhaps a sentinel), or None while the candidate is cold.
        """
        key = head if max_len is None else (head, max_len)
        heads = mem.block_cache.heads
        c = heads.get(key, 0) + 1
        if c < _HOT:
            heads[key] = c
            return None
        heads.pop(key, None)
        return self.kernel.cpu.compile_superblock(mem, head, task, max_len)

    def _block_flush(self, mem, pn: int, dropped: list) -> None:
        """Eager flush callback: blocks spanning page ``pn`` were dropped."""
        cpu = self.kernel.cpu
        for head in dropped:
            if type(head) is tuple:  # tail-variant key -> report the head
                head = head[0]
            cpu.note_block_invalidate(head, -1, "smc")

    def superblock_stats(self) -> dict:
        """Aggregate tier-2 counters across every live block cache."""
        cpu = self.kernel.cpu
        caches = []
        seen = set()
        for task in self.kernel.tasks.values():
            mem = task.mem
            if mem is not None and id(mem.block_cache) not in seen:
                seen.add(id(mem.block_cache))
                caches.append(mem.block_cache)
        for core in self.cores:
            for bc in core.block_caches.values():
                if id(bc) not in seen:
                    seen.add(id(bc))
                    caches.append(bc)
        live_blocks = runs = insns = 0
        for bc in caches:
            for b in bc.blocks.values():
                if b.fn is not None:
                    live_blocks += 1
                    runs += b.runs
                    insns += b.runs * b.n
        return {
            "enabled": cpu.superblocks,
            "compiled": cpu.blocks_compiled,
            "invalidated": cpu.blocks_invalidated,
            "live_blocks": live_blocks,
            "block_runs": runs,
            "block_insns": insns,
            "block_shootdowns": sum(
                c.block_shootdowns for c in self.cores
            ),
            "slides": cpu.slides,
            "slid_insns": cpu.slid_insns,
        }

    def _shootdown(self, mem, pn: int) -> None:
        """A code patch invalidated page ``pn``: flush the other caches.

        Every *other* core holding decodes of ``pn`` drops them and costs
        the writer one IPI round-trip — the cross-core analogue of the
        icache/TLB flush that makes lazypoline's in-place rewrite (§IV-A b)
        expensive but safe on real SMP hardware.  Compiled blocks spanning
        the page go from every core's cache of the address space but the
        one ``mem`` is bound to, which ``_bump_exec_gen`` already flushed
        — the writer's core or, for a host-side write between slices, the
        core that ran last.  Readers never re-check a block's generations,
        so this and that flush are the only invalidation.
        """
        cur = self._current_core
        asid = mem.asid
        bound = mem.block_cache
        kernel = self.kernel
        cpu = kernel.cpu
        ipi = kernel.costs.smp_shootdown_ipi
        for core in self.cores:
            # Superblocks spanning the page ride the decode flush — never
            # a separate IPI charge, so simulated cycles stay bit-identical
            # to a machine with tiering off.
            bc = core.block_caches.get(asid)
            if bc is not None and bc is not bound and bc.blocks:
                victims = bc.index.pop(pn, None)
                if victims:
                    blocks = bc.blocks
                    for head in victims:
                        b = blocks.pop(head, None)
                        if b is not None and b.fn is not None:
                            core.block_shootdowns += 1
                            if type(head) is tuple:
                                head = head[0]
                            cpu.note_block_invalidate(head, -1, "shootdown")
            if core is cur:
                continue
            cache = core.caches.get(asid)
            if not cache:
                continue
            stale = [
                addr for addr, entry in cache.items()
                if entry[3] == pn or entry[5] == pn
            ]
            if stale:
                for addr in stale:
                    del cache[addr]
                core.shootdowns += 1
                kernel.charge(None, ipi)

    def _slice_on(self, core: Core, task: Task) -> int:
        """Run one slice of ``task`` on ``core``'s local timeline.

        The global ``kernel.clock`` is the *running* clock: it is swapped
        to the core's clock for the slice and harvested back afterwards, so
        every charge inside (instructions, hcalls, re-issued syscalls)
        lands on this core without any hot-path indirection.  When slices
        nest on the *same* core (:meth:`wait_until` timesharing), the
        checkpoint and the harvest alias the same ``Core`` object, which
        serialises the nested work into the waiter's timeline — exactly
        what one physical core would do.
        """
        kernel = self.kernel
        prev = self._current_core
        if prev._depth:
            prev.clock = kernel.clock  # checkpoint the interrupted slice
        self._current_core = core
        if core.clock < task.wake_clock:
            core.clock = task.wake_clock
        kernel.clock = core.clock
        self._bind_core(core, task.mem)
        tracer = kernel.tracer
        if tracer is not None:
            tracer.current_core = core.id
        try:
            return self.run_task_slice(task)
        finally:
            core.clock = kernel.clock
            core.slices += 1
            self._current_core = prev
            kernel.clock = prev.clock
            if tracer is not None:
                tracer.current_core = prev.id

    @staticmethod
    def _has_runnable(tasks: list[Task], exclude: Task | None) -> bool:
        return any(
            t.state is TaskState.RUNNABLE and t is not exclude for t in tasks
        )

    def _steal_for(self, core: Core, exclude: Task | None) -> Task | None:
        """Idle-steal: migrate one runnable task from the busiest core.

        Only donors that would keep at least one runnable task are eligible
        (stealing a busy core's only work just moves the imbalance).  The
        thief pays the migration cost; the task's registers, SUD selector
        and ``%gs`` region travel with it — they are per-task state.
        """
        best_donor = None
        best_tasks: list[Task] = []
        for donor in self.cores:
            if donor is core:
                continue
            runnable = [
                t for t in donor.runqueue
                if t.alive and t.state is TaskState.RUNNABLE
                and t.tid not in self._active and t is not exclude
            ]
            if len(runnable) > max(len(best_tasks), 1):
                best_donor, best_tasks = donor, runnable
        if best_donor is None:
            return None
        task = best_tasks[0]  # FIFO steal: the longest-waiting runnable
        best_donor.runqueue.remove(task)
        core.runqueue.append(task)
        task.core_id = core.id
        core.steals += 1
        core.clock += self.kernel.costs.smp_steal_cost
        return task

    def _smp_round(
        self, *, until=None, exclude: Task | None = None
    ) -> tuple[int, bool]:
        """One SMP scheduling round; returns (instructions run, stop?).

        Cores are visited in a seeded random order; each offers one slice
        to every task in its runqueue (blocked tasks get their unblock
        check, as in the single-core loop).  A core with no runnable task
        first tries to steal one.  At the end, cores that did no work are
        pulled forward to the slowest busy core's clock — bounded by the
        next timer event so sleepers still wake exactly on time — because
        an idle core's time passes even though it retires nothing.
        """
        progress = 0
        cores = self.cores
        order = self._rng.sample(cores, len(cores))
        ran: list[Core] = []
        for core in order:
            tasks = core.alive_tasks()
            if not self._has_runnable(tasks, exclude):
                stolen = self._steal_for(core, exclude)
                if stolen is not None:
                    tasks.append(stolen)
            if self.policy is not None and len(tasks) > 1:
                tasks = self.policy.schedule_order(tasks)
            core_ran = 0
            for task in tasks:
                if (
                    task is exclude
                    or not task.alive
                    or task.tid in self._active
                ):
                    continue
                core_ran += self._slice_on(core, task)
                if until is not None and until():
                    return progress + core_ran, True
            if core_ran:
                progress += core_ran
                ran.append(core)
        if ran and len(ran) < len(cores):
            target = min(core.clock for core in ran)
            next_event = self.kernel.next_event_time()
            if next_event is not None and next_event < target:
                target = next_event
            for core in cores:
                if core not in ran and core._depth == 0 and core.clock < target:
                    core.clock = target
        return progress, False
