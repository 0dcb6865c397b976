"""Blocking-syscall support.

A syscall implementation that cannot complete raises :class:`WouldBlock`
with a ``ready`` predicate.  The kernel parks the task (``Task.park``) and
re-runs the syscall once the predicate holds (Linux-style syscall restart).
Host-side code calling back into the kernel (interposers, the unotify
supervisor, the sync ring drain) waits in ``Kernel.dispatch_blocking``
instead, which nests ``Scheduler.wait_until``: it cooperatively schedules
other tasks and, when everything is idle, lets registered external event
sources (client models, timers) advance simulated time.
"""

from __future__ import annotations

from typing import Callable


class WouldBlock(Exception):
    """Raised by a syscall implementation that must wait.

    ``ready`` returns True once the syscall should be retried.
    ``interruptible`` waits abort with -EINTR when a signal is pending.
    """

    def __init__(self, ready: Callable[[], bool], *, interruptible: bool = True):
        self.ready = ready
        self.interruptible = interruptible
        super().__init__("syscall would block")


class DeadlockError(RuntimeError):
    """All tasks blocked and no external event source can make progress."""


class RingWaiter:
    """One aggregation-ring entry parked kernel-side by an async drain.

    An async ``ring_enter`` (see :mod:`repro.kernel.uring`) that hits a
    blocking SQE does not stall the drain: the entry is captured here and
    appended to ``task.ring_waiters``, and the drain moves on.  The waiter
    completes later — its CQE posts and the guest's published ``cq_tail``
    advances — when :func:`repro.kernel.uring.complete_ring_waiters` finds
    it runnable, either because its ``ready`` predicate fired or because
    the parked slots it links to (``deps``) have all completed.

    Two parked states, distinguished by ``args``:

    * ``args is None`` — *dependency-parked*: the entry has never run
      because a result link targets a slot that is itself parked.  Once
      ``deps`` empties, the entry resolves/gates/dispatches for the first
      time (and may then re-park as predicate-parked).
    * ``args`` set — *predicate-parked*: the dispatch raised
      :class:`WouldBlock`; ``ready`` is that exception's predicate and the
      resolved arguments are kept for the Linux-style restart.

    ``deadline`` (absolute kernel clock, or None) bounds the park: once
    the clock reaches it the entry completes with ``-ETIMEDOUT`` instead
    of waiting forever (set from ``Machine(ring_park_timeout=...)``).
    """

    __slots__ = ("ring", "slot", "index", "sysno", "raw_args", "args",
                 "user_data", "cq_base", "capacity", "ready", "deps",
                 "parked_at", "deadline")

    def __init__(self, *, ring: int, slot: int, index: int, sysno: int,
                 raw_args: tuple, user_data: int, cq_base: int,
                 capacity: int, parked_at: int,
                 args: tuple | None = None,
                 ready: Callable[[], bool] | None = None,
                 deps: set | None = None,
                 deadline: int | None = None):
        self.ring = ring
        self.slot = slot
        self.index = index
        self.sysno = sysno
        self.raw_args = raw_args
        self.args = args
        self.user_data = user_data
        self.cq_base = cq_base
        self.capacity = capacity
        self.ready = ready
        self.deps = deps if deps is not None else set()
        self.parked_at = parked_at
        self.deadline = deadline
