"""Typed events of the machine-wide tracing layer.

Every instrumented layer emits events of a small fixed vocabulary:

========================  =====================================================
kind                      emitted by
========================  =====================================================
``syscall``               kernel dispatch path — one event per *completed*
                          syscall dispatch, with return value and cycle cost
``interposition``         a user interposer (``TraceInterposer``) — the
                          tool-level view of an intercepted syscall
``sigsys_trap``           lazypoline / SUD / seccomp-user slow path — a SIGSYS
                          arrived at the tool's handler
``rewrite``               lazypoline / zpoline — one syscall site patched to
                          ``call rax`` (``origin``: trap, static, or manual)
``sled_enter``            lazypoline fast path / zpoline trampoline — the
                          generic syscall handler was entered through VA 0
``sigreturn_tramp``       lazypoline — a signal return detoured through the
                          sigreturn trampoline (Fig. 3 ④)
``slice_start``/``end``   scheduler — one time slice of a task
``ctx_switch``            scheduler — a different task was put on the CPU
``signal``                signal delivery — a handler frame was pushed or the
                          task was killed
``cache_invalidate``      CPU core — a cached translation was discarded
                          because its page generation changed (self-modifying
                          code, e.g. lazypoline's in-place rewrite)
``block_compile``         tier-2 interpreter — a hot straight-line run was
                          compiled into a superblock (``n`` instructions)
``block_invalidate``      tier-2 interpreter — a compiled superblock was
                          discarded (``reason``: smc or shootdown)
``ring_enter``            kernel uring drain — one ``ring_enter`` crossing
                          finished draining (``submitted``/``completed``)
``ring_entry``            kernel uring drain — one SQE completed, with its
                          result and per-entry cycle cost
``ring_park``             kernel uring async drain — a blocking (or
                          dependency-linked) SQE was parked on a kernel-side
                          waiter instead of stalling the drain
``ring_complete``         kernel uring async drain — a parked SQE's wakeup
                          fired and its CQE posted (``waited`` cycles after
                          parking)
``degrade``               degradation controller — the tool moved to a less
                          capable mode (FULL_HYBRID → SUD_ONLY → PASSTHROUGH)
``rewrite_blacklist``     degradation controller — a syscall site exhausted
                          its rewrite attempts and is pinned to the slow path
``fallback``              degradation controller — a recoverable fault was
                          absorbed (rewrite retry, sigreturn-stack spill,
                          setup-mmap fallback) without changing mode
``shard_down``            cluster health model — a shard transitioned to
                          ``down`` (crash, hang, or repeated timeouts)
``failover``              cluster balancer — failed requests were re-planned
                          from a dead/suspect shard onto a live one
``retry``                 cluster retry machinery — a backoff round re-issued
                          timed-out/failed requests
``breaker``               cluster circuit breaker — a per-shard breaker
                          transitioned (closed → open → half_open → closed)
========================  =====================================================

``ts`` is the simulated clock (cycles) at *emission* time.  On a 1-core
machine the kernel clock never decreases, so events are monotone in
``(seq, ts)``.  On an SMP machine ``ts`` is the emitting *core's* local
clock and ``core`` identifies it: events are monotone per core, not
globally.  ``syscall`` events are emitted at completion and carry
``cycles`` — the dispatch duration — so the start time is ``ts - cycles``.
"""

from __future__ import annotations

from dataclasses import dataclass

SYSCALL = "syscall"
INTERPOSITION = "interposition"
SIGSYS_TRAP = "sigsys_trap"
REWRITE = "rewrite"
SLED_ENTER = "sled_enter"
SIGRETURN_TRAMP = "sigreturn_tramp"
SLICE_START = "slice_start"
SLICE_END = "slice_end"
CTX_SWITCH = "ctx_switch"
SIGNAL = "signal"
CACHE_INVALIDATE = "cache_invalidate"
BLOCK_COMPILE = "block_compile"
BLOCK_INVALIDATE = "block_invalidate"
RING_ENTER = "ring_enter"
RING_ENTRY = "ring_entry"
RING_PARK = "ring_park"
RING_COMPLETE = "ring_complete"
DEGRADE = "degrade"
REWRITE_BLACKLIST = "rewrite_blacklist"
FALLBACK = "fallback"
SHARD_DOWN = "shard_down"
FAILOVER = "failover"
RETRY = "retry"
BREAKER = "breaker"

ALL_KINDS = (
    SYSCALL,
    INTERPOSITION,
    SIGSYS_TRAP,
    REWRITE,
    SLED_ENTER,
    SIGRETURN_TRAMP,
    SLICE_START,
    SLICE_END,
    CTX_SWITCH,
    SIGNAL,
    CACHE_INVALIDATE,
    BLOCK_COMPILE,
    BLOCK_INVALIDATE,
    RING_ENTER,
    RING_ENTRY,
    RING_PARK,
    RING_COMPLETE,
    DEGRADE,
    REWRITE_BLACKLIST,
    FALLBACK,
    SHARD_DOWN,
    FAILOVER,
    RETRY,
    BREAKER,
)


@dataclass(frozen=True, slots=True)
class Event:
    """One structured trace event."""

    seq: int  #: global emission order (dense, starts at 0)
    ts: int  #: simulated clock (cycles) at emission
    kind: str  #: one of :data:`ALL_KINDS`
    tid: int  #: task the event is attributed to (-1 when machine-global)
    data: dict  #: kind-specific payload (JSON-serialisable)
    core: int = 0  #: core the event was emitted from (always 0 on 1-core)
