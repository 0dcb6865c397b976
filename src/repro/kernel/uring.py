"""io_uring-style syscall aggregation: one crossing, many syscalls.

The paper minimizes the *per-syscall* cost of interposition; *AnyCall*
attacks the complementary axis — amortize many syscalls over a single
kernel crossing.  This module implements that lever for the simulated
kernel: a submission/completion ring living entirely in guest memory.
A guest writes N syscall entries into the SQ ring, then issues **one**
``ring_enter`` syscall; the kernel drains the SQ, executing each entry
through the normal dispatch machinery, and posts results to the CQ ring.

Ring memory layout (all fields u64, little-endian, in guest memory)::

    header (64 bytes):
      +0   sq_head   kernel-advanced: index of the next unconsumed SQE
      +8   sq_tail   guest-advanced: one past the last submitted SQE
      +16  cq_head   guest-advanced consumption cursor (kernel ignores it)
      +24  cq_tail   kernel-advanced: one past the last posted CQE
      +32  sq_capacity
      +40  cq_capacity   (must equal sq_capacity)
      +48.. reserved
    sqes: sq_capacity x 64 bytes   {sysno, arg0..arg5, user_data}
    cqes: sq_capacity x 16 bytes   {res, user_data}

Indices advance monotonically; the slot for index ``i`` is
``i % capacity``.  CQEs are *slot-correlated*: the completion for the SQE
at slot ``j`` lands at CQ slot ``j``, which is what makes result links
(below) resolvable without a search.

Semantics, entry by entry:

* each entry pays :attr:`CostModel.uring_per_entry` plus its own service
  cost, runs every armed **seccomp filter** (the interception gate with
  ``sud=False`` — ring entries never cross via a syscall instruction, so
  the SUD selector read and ptrace stops are skipped: that is the
  amortization), and passes through the **fault injector** and the obs
  dispatch event like any other syscall;
* only :data:`RINGABLE` syscalls may ride the ring (I/O and cheap
  getters); anything else completes with ``-EINVAL``.  Process-control
  syscalls (fork/execve/ring_enter itself) are structurally excluded;
* an argument of the form :func:`ring_result`\\ ``(j)`` is substituted
  with the result already posted at CQ slot ``j`` — io_uring's linked
  SQEs, flattened.  If that result is negative the entry completes with
  ``-ECANCELED``;
* a **blocking** entry parks cooperatively exactly like an
  interposer-issued syscall (:meth:`Kernel.dispatch_blocking`); if a
  signal interrupts it, the entry completes with ``-EINTR``;
* a deliverable **signal** stops the drain after the current entry: the
  kernel publishes ``sq_head``/``cq_tail`` for everything completed (a
  partial CQ), returns the completed count, and the remainder stays in
  the SQ — re-entering after the handler resumes exactly where the drain
  stopped, so no wakeup is ever lost.  The first entry of a drain always
  executes, guaranteeing forward progress even under a signal storm;
* a seccomp ``RET_TRAP`` on an entry delivers SIGSYS as usual but
  completes the entry with ``-EINTR`` so the drain (and the guest's
  re-enter loop) cannot spin on a trapping entry.

``ring_enter(ring_addr, to_submit, min_complete, flags)`` returns the
number of entries completed this call (0 if the SQ was empty), or
``-EINVAL``/``-EFAULT`` for a malformed/unmapped ring.

Asynchronous drain (``flags & RING_ENTER_ASYNC``)
-------------------------------------------------

The synchronous drain above executes entries to completion in order — a
blocking SQE parks the whole guest, so one worker can never overlap two
in-flight I/Os.  With :data:`RING_ENTER_ASYNC` set, submission decouples
from completion, io_uring-style:

* an entry whose dispatch would block is captured on a kernel-side
  :class:`~repro.kernel.waits.RingWaiter` (``task.ring_waiters``) and the
  drain *continues* with the next SQE; ``sq_head`` still advances per
  consumed entry, but the CQE for a parked entry posts later, when its
  wakeup fires;
* an entry whose result link targets a currently *parked* slot parks as a
  dependent: it first executes (gate included) once those slots complete;
* ``cq_tail`` counts posted CQEs, so it advances out of submission order;
  CQEs stay slot-correlated, which is how the guest matches completions;
* parked entries are driven at every safe point — each subsequent
  ``ring_enter``, each scheduler slice boundary, and while the guest
  waits (below) — so no wakeup is ever lost;
* ``min_complete`` (arg 2, async only) turns the call into ``ring_wait``:
  after submitting, the task blocks — interruptibly, exactly like a
  blocking syscall — until the published ``cq_tail`` reaches
  ``min_complete`` or no parked entry remains that could ever post.  A
  signal interrupts the wait (the guest re-enters after the handler); a
  guest may equally poll ``cq_tail`` with ``min_complete == 0``.

Synchronous and asynchronous drains of the same op list are
*result-identical*: every entry runs the same gate/fault/obs machinery
and posts the same result value to the same CQ slot — only the order in
which CQEs appear (and the guest's ability to overlap) differs.

Both modes run one drain loop (:func:`_drain`) through one per-entry
gate (:func:`_gate_entry`: allowlist, result links, seccomp).  The sync
drain is *not* the async drain with ``min_complete`` = all: the loop
branches on the mode where the two really differ, and only there:

* a blocking entry stalls a sync drain in :meth:`Kernel.dispatch_blocking`
  (so a later entry's result link always finds a posted CQE); async
  parks it, and its link dependents, and moves on;
* sync ties ``cq_tail`` to ``sq_head``, so a SIGSYS handler that rewinds
  ``sq_head`` to retry a trapped entry overwrites its stale CQE instead
  of counting it twice; async counts posted CQEs.

Interposition tools see a *single* ``ring_enter`` crossing — one SUD
selector read, one sled transit, one rewrite, one ptrace stop pair — no
matter how many entries it drains.  Per-entry attribution is preserved in
the obs stream: the tracer gets one ``ring_enter`` event per crossing and
one ``ring_entry`` event per drained entry (plus the usual ``syscall``
dispatch events).
"""

from __future__ import annotations

from repro.arch.registers import MASK64, to_signed
from repro.errors import PageFault
from repro.kernel import errno
from repro.kernel.syscalls.table import NR, syscall, syscall_name
from repro.kernel.waits import RingWaiter, WouldBlock

# ------------------------------------------------------------------ layout
HDR_SQ_HEAD = 0
HDR_SQ_TAIL = 8
HDR_CQ_HEAD = 16
HDR_CQ_TAIL = 24
HDR_SQ_CAP = 32
HDR_CQ_CAP = 40
HEADER_SIZE = 64
SQE_SIZE = 64
CQE_SIZE = 16
SQE_SYSNO = 0
SQE_ARGS = 8
SQE_USER_DATA = 56
CQE_RES = 0
CQE_USER_DATA = 8

#: Largest accepted ring capacity (entries).
MAX_ENTRIES = 1024

#: ``flags`` (arg 3) bit: asynchronous drain — blocking entries park on a
#: kernel-side :class:`~repro.kernel.waits.RingWaiter` instead of stalling
#: the drain, and ``min_complete`` (arg 2) may block until enough CQEs post.
RING_ENTER_ASYNC = 0x1


def ring_size(entries: int) -> int:
    """Bytes of guest memory a ring with ``entries`` slots occupies."""
    return HEADER_SIZE + entries * (SQE_SIZE + CQE_SIZE)


def sqe_offset(slot: int) -> int:
    return HEADER_SIZE + slot * SQE_SIZE


def cqe_offset(capacity: int, slot: int) -> int:
    return HEADER_SIZE + capacity * SQE_SIZE + slot * CQE_SIZE


# ------------------------------------------------------------- result links
#: Tag in the top 16 bits marking an SQE argument as "the result of CQ
#: slot j".  Real pointers live in the canonical lower half of the address
#: space, so the tag can never collide with a legitimate argument the
#: RINGABLE syscalls accept.
RESULT_TAG = 0xF1C0
_RESULT_SHIFT = 48


def ring_result(slot: int) -> int:
    """SQE argument placeholder: substitute the result posted at CQ ``slot``."""
    if not 0 <= slot < MAX_ENTRIES:
        raise ValueError(f"ring_result slot {slot} out of range")
    return (RESULT_TAG << _RESULT_SHIFT) | slot


def is_result_link(value: int) -> bool:
    return (value >> _RESULT_SHIFT) == RESULT_TAG and \
        (value & ((1 << _RESULT_SHIFT) - 1)) < MAX_ENTRIES


# ---------------------------------------------------------------- allowlist
#: Syscalls allowed to ride the ring: file/socket I/O plus cheap getters.
#: Process control (fork/clone/execve/exit), signal-frame machinery
#: (rt_sigreturn), address-space surgery, blocking multiplexers with
#: their own wait semantics (epoll_wait/wait4/futex), and ``ring_enter``
#: itself are excluded — entries completing with -EINVAL.
RINGABLE_NAMES = (
    "read", "write", "pread64", "pwrite64", "readv", "writev",
    "open", "openat", "close", "stat", "fstat", "lseek", "access",
    "getdents64", "dup", "rename", "mkdir", "rmdir", "unlink", "chmod",
    "sendfile", "socket", "connect", "accept", "accept4", "bind",
    "listen", "setsockopt", "shutdown", "epoll_create1", "epoll_ctl",
    "getpid", "gettid", "getppid", "getuid", "getcwd", "uname",
    "sched_yield", "nanosleep", "time", "clock_gettime", "getrandom",
)
RINGABLE = frozenset(NR[name] for name in RINGABLE_NAMES)


# ----------------------------------------------------------------- entries
def _resolve_args(mem, cq_base: int, capacity: int, raw_args) -> tuple | int:
    """Substitute result links; -ECANCELED if a linked result is negative."""
    resolved = []
    for value in raw_args:
        if is_result_link(value):
            slot = value & ((1 << _RESULT_SHIFT) - 1)
            if slot >= capacity:
                return -errno.EINVAL
            prev = to_signed(mem.read_u64(cq_base + slot * CQE_SIZE,
                                          check="read"))
            if prev < 0:
                return -errno.ECANCELED
            resolved.append(prev & MASK64)
        else:
            resolved.append(value)
    return tuple(resolved)


def _gate_entry(kernel, task, sysno: int, raw_args, cq_base: int,
                capacity: int) -> tuple | int:
    """Allowlist, result links, then the seccomp gate for one SQE.

    Returns the resolved arguments when the entry may dispatch, or its
    final result when the gate already decided it.
    """
    if sysno not in RINGABLE:
        return -errno.EINVAL
    args = _resolve_args(task.mem, cq_base, capacity, raw_args)
    if isinstance(args, int):
        return args
    gate = kernel._interception_gate(task, sysno, args, insn_addr=0,
                                     sud=False)
    if isinstance(gate, tuple):  # seccomp RET_ERRNO / user-notif verdict
        return gate[1]
    if gate == "handled":
        # RET_TRAP delivered SIGSYS (or the task was killed).  Complete
        # the entry with -EINTR so the drain makes forward progress; the
        # pending signal stops the drain at the top of the loop.
        return -errno.EINTR
    return args


def _post_cqe(mem, cq_base: int, slot: int, res: int,
              user_data: int) -> None:
    cqe = cq_base + slot * CQE_SIZE
    mem.write_u64(cqe + CQE_RES, res & MASK64, check="write")
    mem.write_u64(cqe + CQE_USER_DATA, user_data, check="write")


def _count_cqe(mem, ring: int) -> None:
    """Advance the published ``cq_tail`` by one (async mode: ``cq_tail``
    counts completions, which may land out of slot order)."""
    cq_tail = mem.read_u64(ring + HDR_CQ_TAIL, check="read")
    mem.write_u64(ring + HDR_CQ_TAIL, cq_tail + 1, check="write")


# ----------------------------------------------------------- parked entries
#: Sentinel: the entry's dispatch blocked (again); no CQE posts yet.
_PARKED = object()


def _link_deps(task, ring: int, raw_args) -> set:
    """CQ slots this entry's result links target that are still parked."""
    deps: set = set()
    parked = None
    for value in raw_args:
        if is_result_link(value):
            if parked is None:
                parked = {w.slot for w in task.ring_waiters
                          if w.ring == ring}
            slot = value & ((1 << _RESULT_SHIFT) - 1)
            if slot in parked:
                deps.add(slot)
    return deps


def _park_entry(kernel, task, *, ring, slot, index, sysno, raw_args,
                user_data, cq_base, capacity, deps, args=None,
                ready=None) -> None:
    deadline = None
    if kernel.ring_park_timeout is not None:
        # Bounded park: arm an absolute deadline and post a (no-op) timer
        # event at it so a wholly idle machine still advances simulated
        # time to the deadline; the expiry itself is observed by
        # complete_ring_waiters at the next drive point.
        deadline = kernel.clock + kernel.ring_park_timeout
        kernel.post_event(deadline, lambda: None)
    waiter = RingWaiter(
        ring=ring, slot=slot, index=index, sysno=sysno, raw_args=raw_args,
        user_data=user_data, cq_base=cq_base, capacity=capacity,
        parked_at=kernel.clock, args=args, ready=ready, deps=deps,
        deadline=deadline,
    )
    task.ring_waiters.append(waiter)
    if len(task.ring_waiters) > task.ring_parked_peak:
        task.ring_parked_peak = len(task.ring_waiters)
    if kernel.tracer is not None:
        kernel.tracer.ring_park(
            kernel.clock, task.tid, index=index, sysno=sysno,
            name=syscall_name(sysno), user_data=user_data,
            deps=sorted(deps),
        )


def _dispatch_waiter(kernel, task, waiter):
    """(Re-)dispatch a waiter's syscall; ``_PARKED`` if it blocks."""
    try:
        ret = kernel.dispatch(task, waiter.sysno, waiter.args)
    except WouldBlock as block:
        waiter.ready = block.ready
        return _PARKED
    return 0 if ret is None else ret


def _start_waiter(kernel, task, waiter):
    """First execution of a dependency-parked entry (deps resolved).

    The drain's gate, then a non-blocking dispatch — a block re-parks the
    waiter on its own predicate.
    """
    try:
        args = _gate_entry(kernel, task, waiter.sysno, waiter.raw_args,
                           waiter.cq_base, waiter.capacity)
    except PageFault:
        return -errno.EFAULT
    if isinstance(args, int):
        return args
    waiter.args = args
    return _dispatch_waiter(kernel, task, waiter)


def _complete_waiter(kernel, task, waiter, res: int) -> None:
    """Post the waiter's CQE and release any entries that depend on it."""
    try:
        _post_cqe(task.mem, waiter.cq_base, waiter.slot, res,
                  waiter.user_data)
        _count_cqe(task.mem, waiter.ring)
    except PageFault:
        pass  # ring unmapped since parking; the completion is dropped
    task.ring_waiters.remove(waiter)
    for other in task.ring_waiters:
        if other.ring == waiter.ring:
            other.deps.discard(waiter.slot)
    tracer = kernel.tracer
    if tracer is not None:
        tracer.ring_complete(
            kernel.clock, task.tid, index=waiter.index, sysno=waiter.sysno,
            name=syscall_name(waiter.sysno), ret=res,
            user_data=waiter.user_data,
            waited=kernel.clock - waiter.parked_at,
        )


def complete_ring_waiters(kernel, task) -> int:
    """Drive ``task``'s parked ring entries; post CQEs for those that can
    now finish.  Returns the number completed.

    Called from every safe point — the top of each async ``ring_enter``,
    the ``ring_wait`` readiness predicate (so a blocked guest's parked
    I/O still completes while it waits), and the scheduler at slice
    boundaries (so a guest polling ``cq_tail`` observes completions
    without another crossing).  Passes repeat until one makes no
    progress, so a completion that releases a dependent entry settles
    within a single call — no wakeup is ever deferred to a later drive.
    """
    waiters = task.ring_waiters
    if not waiters:
        return 0
    completed = 0
    progress = True
    while progress and task.alive:
        progress = False
        for waiter in list(waiters):
            if waiter not in waiters:
                continue  # released by an earlier completion this pass
            if (waiter.deadline is not None
                    and kernel.clock >= waiter.deadline):
                # Bounded park expired: cancel with -ETIMEDOUT (checked
                # before deps so a dependency chain behind a hung entry
                # unwinds instead of parking forever).
                _complete_waiter(kernel, task, waiter, -errno.ETIMEDOUT)
                completed += 1
                progress = True
                continue
            if waiter.deps:
                continue
            if waiter.args is None:
                res = _start_waiter(kernel, task, waiter)
            elif waiter.ready is not None and waiter.ready():
                res = _dispatch_waiter(kernel, task, waiter)
            else:
                continue
            if res is _PARKED or not task.alive:
                continue
            _complete_waiter(kernel, task, waiter, res)
            completed += 1
            progress = True
    return completed


# ------------------------------------------------------------------- drain
def _drain(kernel, task, ring, sq_head, pending, sq_cap, is_async):
    """Consume up to ``pending`` SQEs: fetch, charge, gate, run, post.

    Returns ``(completed, consumed, faulted)``; ``faulted`` is True when
    the ring itself faulted mid-drain (the caller maps that to
    ``-EFAULT`` only if nothing was consumed).
    """
    mem = task.mem
    costs = kernel.costs
    tracer = kernel.tracer
    sq_base = ring + HEADER_SIZE
    cq_base = sq_base + sq_cap * SQE_SIZE
    completed = consumed = 0
    while consumed < pending and task.alive:
        # A deliverable signal stops the drain between entries — the same
        # way it interrupts a blocking syscall — but never before the
        # first entry, so a re-entered ring always makes progress.
        if consumed and task.has_deliverable_signal():
            break
        slot = sq_head % sq_cap
        entry_start = kernel.clock
        kernel.charge(task, costs.uring_per_entry)
        try:
            sqe = sq_base + slot * SQE_SIZE
            sysno = to_signed(mem.read_u64(sqe + SQE_SYSNO, check="read"))
            raw_args = tuple(
                mem.read_u64(sqe + SQE_ARGS + 8 * k, check="read")
                for k in range(6)
            )
            user_data = mem.read_u64(sqe + SQE_USER_DATA, check="read")
        except PageFault:
            return completed, consumed, True
        deps = _link_deps(task, ring, raw_args) if is_async else None
        if deps:
            _park_entry(kernel, task, ring=ring, slot=slot, index=sq_head,
                        sysno=sysno, raw_args=raw_args, user_data=user_data,
                        cq_base=cq_base, capacity=sq_cap, deps=deps)
            res = _PARKED
        else:
            args = _gate_entry(kernel, task, sysno, raw_args, cq_base, sq_cap)
            if isinstance(args, int):
                res = args
            elif not is_async:
                res = kernel.dispatch_blocking(task, sysno, args)
            else:
                try:
                    res = kernel.dispatch(task, sysno, args)
                except WouldBlock as block:
                    _park_entry(kernel, task, ring=ring, slot=slot,
                                index=sq_head, sysno=sysno,
                                raw_args=raw_args, user_data=user_data,
                                cq_base=cq_base, capacity=sq_cap,
                                deps=set(), args=args, ready=block.ready)
                    res = _PARKED
            if res is None:
                res = 0
        if not task.alive:
            break
        try:
            if res is not _PARKED:
                _post_cqe(mem, cq_base, slot, res, user_data)
                if is_async:
                    _count_cqe(mem, ring)
            sq_head += 1
            # Publish per entry so a partially drained ring is always
            # observable and resumable by the guest.
            mem.write_u64(ring + HDR_SQ_HEAD, sq_head, check="write")
            if not is_async:
                # cq_tail coupled to sq_head (see the module docstring)
                mem.write_u64(ring + HDR_CQ_TAIL, sq_head, check="write")
        except PageFault:
            return completed, consumed, True
        consumed += 1
        if res is _PARKED:
            continue
        completed += 1
        if tracer is not None:
            tracer.ring_entry(
                kernel.clock, task.tid, index=sq_head - 1, sysno=sysno,
                name=syscall_name(sysno), ret=res, user_data=user_data,
                cycles=kernel.clock - entry_start,
            )
        if res == -errno.EINTR and task.has_deliverable_signal():
            break  # the interrupted entry's CQE is posted; handler runs next
    return completed, consumed, False


@syscall("ring_enter")
def sys_ring_enter(kernel, task, args):
    ring, to_submit, min_complete, flags = args[0], args[1], args[2], args[3]
    is_async = bool(flags & RING_ENTER_ASYNC)
    mem = task.mem
    # Entering the ring is itself a safe point: finish any parked entries
    # whose wakeups fired while the guest was away.
    drive_completed = 0
    if is_async and task.ring_waiters:
        drive_completed = complete_ring_waiters(kernel, task)
        if not task.alive:
            return None
    try:
        sq_head = mem.read_u64(ring + HDR_SQ_HEAD, check="read")
        sq_tail = mem.read_u64(ring + HDR_SQ_TAIL, check="read")
        sq_cap = mem.read_u64(ring + HDR_SQ_CAP, check="read")
        cq_cap = mem.read_u64(ring + HDR_CQ_CAP, check="read")
    except PageFault:
        return -errno.EFAULT
    if not 0 < sq_cap <= MAX_ENTRIES or cq_cap != sq_cap:
        return -errno.EINVAL
    if sq_tail < sq_head or sq_tail - sq_head > sq_cap:
        return -errno.EINVAL
    pending = sq_tail - sq_head
    if to_submit:
        pending = min(pending, to_submit)

    completed = 0
    if pending:
        tracer = kernel.tracer
        drain_start = kernel.clock if tracer is not None else 0
        completed, consumed, faulted = _drain(
            kernel, task, ring, sq_head, pending, sq_cap, is_async,
        )
        if not task.alive:
            return None
        # One ring_enter event per crossing, faulted or not.
        if tracer is not None:
            tracer.ring_enter(
                kernel.clock, task.tid, submitted=pending,
                completed=completed, cycles=kernel.clock - drain_start,
                parked=consumed - completed,
            )
        if faulted and consumed == 0:
            return -errno.EFAULT
    if is_async and min_complete:
        # ring_wait: block (interruptibly, like any blocking syscall)
        # until the published cq_tail reaches min_complete.  The
        # readiness predicate drives the parked entries itself, so
        # waiting is what makes their wakeups fire.
        def cq_ready():
            complete_ring_waiters(kernel, task)
            try:
                tail = mem.read_u64(ring + HDR_CQ_TAIL, check="read")
            except PageFault:
                return True
            if tail >= min_complete:
                return True
            # Nothing parked can ever post another CQE: waiting more
            # would deadlock, so the call returns short instead.
            return not task.ring_waiters
        if not cq_ready():
            raise WouldBlock(cq_ready)
    return drive_completed + completed
