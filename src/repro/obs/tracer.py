"""The machine-wide tracer.

A :class:`Tracer` is attached with ``Machine(tracer=...)`` or
``machine.attach_tracer(tracer)``; every instrumented layer (kernel
dispatch, scheduler, signal delivery, CPU translation cache, the
lazypoline/zpoline stack) then emits typed events into it.  Every emit site
is guarded by an ``if tracer is not None`` check on an attribute that
defaults to ``None``, so a machine without a tracer pays one attribute load
per *slice/syscall/rare event* — never per instruction — and simulated
cycle accounting is identical with tracing on or off (observability is free
in simulated time; only host wall-clock pays).

Summary views (per-syscall tables, slow/fast ratios, per-site
rewrite-coverage counters) never need an event walk.  :attr:`Tracer.counts`
tallies every emitted event by kind, even when ``max_events`` drops the
event itself, and it is the one source of the named counters: each
:data:`COUNTERS` entry (``ring_entries``, ``slowpath_total``, ...) is a
read-only property summing the counts of its event kinds.  The cluster
merges shard summaries through the same table.
"""

from __future__ import annotations

from repro.kernel.errno import ETIMEDOUT, is_error
from repro.kernel.syscalls.table import syscall_name
from repro.obs import events as K
from repro.obs.events import Event
from repro.obs.metrics import SyscallAggregate

#: Named counters, each the sum of the ``counts`` of its event kinds.
COUNTERS: dict[str, tuple[str, ...]] = {
    "slowpath_total": (K.SIGSYS_TRAP,),
    "cache_invalidations": (K.CACHE_INVALIDATE,),
    "block_compiles": (K.BLOCK_COMPILE,),
    "block_invalidations": (K.BLOCK_INVALIDATE,),
    "ring_enters": (K.RING_ENTER,),
    # every completed SQE, drained inline or parked first
    "ring_entries": (K.RING_ENTRY, K.RING_COMPLETE),
    "ring_parks": (K.RING_PARK,),
    "ring_completes": (K.RING_COMPLETE,),
    "shard_downs": (K.SHARD_DOWN,),
    "failovers": (K.FAILOVER,),
    "retries": (K.RETRY,),
    "breaker_transitions": (K.BREAKER,),
}


def counter(counts: dict[str, int], name: str) -> int:
    """The :data:`COUNTERS` total ``name`` over a ``counts`` dict."""
    return sum(counts.get(kind, 0) for kind in COUNTERS[name])


class Tracer:
    """Receives typed events from every instrumented layer of a Machine."""

    def __init__(self, *, max_events: int | None = None):
        #: recorded events, in emission order (monotone ``ts``)
        self.events: list[Event] = []
        #: events per kind (counted even when ``max_events`` drops the event)
        self.counts: dict[str, int] = {}
        #: per-syscall aggregates: sysno -> SyscallAggregate
        self.syscalls: dict[int, SyscallAggregate] = {}
        #: tool-level interposition counts by syscall name
        self.interposition_counts: dict[str, int] = {}
        #: per-site rewrite-coverage counters: slow-path traps per site ...
        self.site_traps: dict[int, int] = {}
        #: ... and the sites actually rewritten: site -> origin
        self.rewritten_sites: dict[int, str] = {}
        #: parked SQEs whose bounded park expired (CQE = -ETIMEDOUT); the
        #: one hand-kept counter, since no event kind carries it
        self.ring_timeouts = 0
        #: degradation-mode transitions: (ts, tid, mechanism, old, new, reason)
        self.degradations: list[tuple] = []
        #: sites pinned to the slow path after repeated rewrite failures
        self.blacklisted_sites: dict[int, str] = {}
        #: recoverable faults absorbed without a mode change, by stage name
        self.fallback_counts: dict[str, int] = {}
        self.max_events = max_events
        self.dropped = 0
        self.machine = None  # bound by Machine.attach_tracer
        self._seq = 0
        #: Core whose slice is currently executing; stamped onto every
        #: event.  Maintained by the SMP scheduler (stays 0 on 1-core).
        self.current_core = 0
        #: Events emitted per core (cheap aggregate, no event walk).
        self.core_counts: dict[int, int] = {}

    # ------------------------------------------------------------------ core
    def bind(self, machine) -> None:
        """Associate with a machine (cycle->time conversion, task names)."""
        self.machine = machine

    def _emit(self, ts: int, kind: str, tid: int, data: dict) -> None:
        seq = self._seq
        self._seq = seq + 1
        self.counts[kind] = self.counts.get(kind, 0) + 1
        core = self.current_core
        self.core_counts[core] = self.core_counts.get(core, 0) + 1
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(Event(seq, ts, kind, tid, data, core))

    # ------------------------------------------------------- kernel dispatch
    def syscall(
        self,
        ts: int,
        tid: int,
        sysno: int,
        args: tuple[int, ...],
        ret: int | None,
        cycles: int,
        *,
        injected: bool = False,
    ) -> None:
        """One completed syscall dispatch (``ts`` is the completion clock)."""
        name = syscall_name(sysno)
        agg = self.syscalls.get(sysno)
        if agg is None:
            agg = self.syscalls[sysno] = SyscallAggregate(sysno, name)
        agg.calls += 1
        agg.cycles += cycles
        agg.histogram.add(cycles)
        error = isinstance(ret, int) and is_error(ret)
        if error:
            agg.errors += 1
        data = {
            "name": name,
            "sysno": sysno,
            "args": list(args),
            "ret": ret,
            "cycles": cycles,
        }
        if error:
            data["errno"] = -ret
        if injected:
            data["injected"] = True
        self._emit(ts, K.SYSCALL, tid, data)

    # ------------------------------------------------------------ tool level
    def interposition(
        self, ts: int, tid: int, sysno: int, args: tuple[int, ...], mechanism: str
    ) -> None:
        """A user interposer saw a syscall (the tool-level view)."""
        name = syscall_name(sysno)
        self.interposition_counts[name] = self.interposition_counts.get(name, 0) + 1
        self._emit(
            ts,
            K.INTERPOSITION,
            tid,
            {"name": name, "sysno": sysno, "args": list(args),
             "mechanism": mechanism},
        )

    def sigsys_trap(self, ts: int, tid: int, site: int, mechanism: str) -> None:
        self.site_traps[site] = self.site_traps.get(site, 0) + 1
        self._emit(ts, K.SIGSYS_TRAP, tid,
                   {"site": site, "mechanism": mechanism})

    def rewrite(self, ts: int, tid: int, site: int, mechanism: str,
                origin: str = "trap") -> None:
        self.rewritten_sites[site] = origin
        self._emit(ts, K.REWRITE, tid,
                   {"site": site, "mechanism": mechanism, "origin": origin})

    def sled_enter(self, ts: int, tid: int, sysno: int, mechanism: str) -> None:
        self._emit(ts, K.SLED_ENTER, tid,
                   {"sysno": sysno, "mechanism": mechanism})

    def sigreturn_tramp(self, ts: int, tid: int) -> None:
        self._emit(ts, K.SIGRETURN_TRAMP, tid, {})

    # -------------------------------------------------------------- scheduler
    def slice_start(self, ts: int, tid: int) -> None:
        self._emit(ts, K.SLICE_START, tid, {})

    def slice_end(self, ts: int, tid: int, executed: int) -> None:
        self._emit(ts, K.SLICE_END, tid, {"executed": executed})

    def ctx_switch(self, ts: int, prev_tid: int | None, tid: int) -> None:
        self._emit(ts, K.CTX_SWITCH, tid, {"prev": prev_tid})

    def signal(self, ts: int, tid: int, sig: int, action: str) -> None:
        self._emit(ts, K.SIGNAL, tid, {"sig": sig, "action": action})

    # --------------------------------------------------------------- CPU core
    def cache_invalidate(self, ts: int, tid: int, addr: int) -> None:
        self._emit(ts, K.CACHE_INVALIDATE, tid, {"addr": addr})

    def block_compile(self, ts: int, tid: int, head: int, n: int) -> None:
        """Tier 2 compiled the ``n``-instruction run starting at ``head``."""
        self._emit(ts, K.BLOCK_COMPILE, tid, {"head": head, "n": n})

    def block_invalidate(self, ts: int, tid: int, head: int, reason: str) -> None:
        """A compiled superblock was discarded (smc/shootdown/stale)."""
        self._emit(ts, K.BLOCK_INVALIDATE, tid, {"head": head, "reason": reason})

    # ------------------------------------------------------------- ring drain
    def ring_enter(
        self, ts: int, tid: int, *, submitted: int, completed: int,
        cycles: int, parked: int = 0
    ) -> None:
        """One ``ring_enter`` crossing finished draining (``parked`` SQEs
        were captured on kernel-side waiters by an async drain)."""
        data = {"submitted": submitted, "completed": completed,
                "cycles": cycles}
        if parked:
            data["parked"] = parked
        self._emit(ts, K.RING_ENTER, tid, data)

    def ring_entry(
        self, ts: int, tid: int, *, index: int, sysno: int, name: str,
        ret: int, user_data: int, cycles: int
    ) -> None:
        """One SQE completed during a ring drain (per-entry attribution)."""
        data = {"index": index, "name": name, "sysno": sysno, "ret": ret,
                "user_data": user_data, "cycles": cycles}
        if is_error(ret):
            data["errno"] = -ret
        self._emit(ts, K.RING_ENTRY, tid, data)

    def ring_park(
        self, ts: int, tid: int, *, index: int, sysno: int, name: str,
        user_data: int, deps: list
    ) -> None:
        """An async drain parked one SQE on a kernel-side waiter."""
        data = {"index": index, "name": name, "sysno": sysno,
                "user_data": user_data}
        if deps:
            data["deps"] = list(deps)
        self._emit(ts, K.RING_PARK, tid, data)

    def ring_complete(
        self, ts: int, tid: int, *, index: int, sysno: int, name: str,
        ret: int, user_data: int, waited: int
    ) -> None:
        """A parked SQE's wakeup fired and its CQE posted.

        Counts toward ``ring_entries`` too, so that total covers every
        completed SQE whether it drained synchronously or parked first.
        """
        if ret == -ETIMEDOUT:
            self.ring_timeouts += 1
        data = {"index": index, "name": name, "sysno": sysno, "ret": ret,
                "user_data": user_data, "waited": waited}
        if is_error(ret):
            data["errno"] = -ret
        self._emit(ts, K.RING_COMPLETE, tid, data)

    # ----------------------------------------------------------- degradation
    def degrade(
        self, ts: int, tid: int, mechanism: str, old: str, new: str, reason: str
    ) -> None:
        """The degradation controller moved to a less capable mode."""
        self.degradations.append((ts, tid, mechanism, old, new, reason))
        self._emit(ts, K.DEGRADE, tid,
                   {"mechanism": mechanism, "old": old, "new": new,
                    "reason": reason})

    def rewrite_blacklist(
        self, ts: int, tid: int, site: int, mechanism: str, reason: str
    ) -> None:
        """A syscall site exhausted its rewrite budget; slow path forever."""
        self.blacklisted_sites[site] = reason
        self._emit(ts, K.REWRITE_BLACKLIST, tid,
                   {"site": site, "mechanism": mechanism, "reason": reason})

    def fallback(self, ts: int, tid: int, stage: str, detail: dict) -> None:
        """A recoverable fault was absorbed (no mode change)."""
        self.fallback_counts[stage] = self.fallback_counts.get(stage, 0) + 1
        self._emit(ts, K.FALLBACK, tid, dict(detail, stage=stage))

    # ----------------------------------------------------- fleet fault layer
    # Cluster-level emit sites (``tid`` is -1: these are fleet events, not
    # attributable to a guest task).  ``ts`` is the cluster's cumulative
    # measured-window clock at the round boundary where the event happened.
    def shard_down(self, ts: int, shard: int, reason: str, *,
                   round_: int = 0) -> None:
        """The health model marked a shard ``down``."""
        self._emit(ts, K.SHARD_DOWN, -1,
                   {"shard": shard, "reason": reason, "round": round_})

    def failover(self, ts: int, shard_from: int, shard_to: int,
                 requests: int, *, round_: int = 0) -> None:
        """Failed requests were re-planned onto a live shard."""
        self._emit(ts, K.FAILOVER, -1,
                   {"from": shard_from, "to": shard_to,
                    "requests": requests, "round": round_})

    def retry(self, ts: int, round_: int, requests: int,
              backoff_cycles: int) -> None:
        """A backoff round re-issued failed/timed-out requests."""
        self._emit(ts, K.RETRY, -1,
                   {"round": round_, "requests": requests,
                    "backoff_cycles": backoff_cycles})

    def breaker(self, ts: int, shard: int, old: str, new: str, *,
                round_: int = 0) -> None:
        """A per-shard circuit breaker changed state."""
        self._emit(ts, K.BREAKER, -1,
                   {"shard": shard, "old": old, "new": new, "round": round_})

    # ------------------------------------------------------------- summaries
    def core_utilization(self) -> dict[int, float]:
        """Per-core busy fraction (busy cycles / machine frontier)."""
        if self.machine is None:
            return {}
        return {
            row["core"]: row["utilization"]
            for row in self.machine.core_stats()
        }

    def syscall_table(self) -> list[SyscallAggregate]:
        """Aggregates sorted by total cycles, descending."""
        return sorted(self.syscalls.values(), key=lambda a: -a.cycles)

    def health(self) -> dict:
        """One-look degradation summary for a run.

        ``mode`` is the final mode of the last tool that reported a
        transition (``"full_hybrid"`` if none ever degraded); the rest are
        cheap aggregates maintained at emit time, so this never walks the
        event list.
        """
        mode = self.degradations[-1][4] if self.degradations else "full_hybrid"
        return {
            "mode": mode,
            "degradations": [
                {"ts": ts, "tid": tid, "mechanism": mech,
                 "old": old, "new": new, "reason": reason}
                for ts, tid, mech, old, new, reason in self.degradations
            ],
            "blacklisted_sites": dict(self.blacklisted_sites),
            "fallbacks": dict(self.fallback_counts),
            "slowpath_total": self.slowpath_total,
            "rewritten_sites": len(self.rewritten_sites),
        }

    def coverage(self) -> dict[int, dict]:
        """Per-site rewrite coverage: traps taken and whether it went fast."""
        sites = set(self.site_traps) | set(self.rewritten_sites)
        return {
            site: {
                "traps": self.site_traps.get(site, 0),
                "rewritten": site in self.rewritten_sites,
                "origin": self.rewritten_sites.get(site),
            }
            for site in sorted(sites)
        }


def _counter_property(name: str) -> property:
    return property(lambda self: counter(self.counts, name),
                    doc=f"Sum of the counts of {', '.join(COUNTERS[name])}.")


for _name in COUNTERS:
    setattr(Tracer, _name, _counter_property(_name))
del _name
