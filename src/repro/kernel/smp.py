"""Per-core execution contexts for the SMP machine.

A :class:`Core` is pure bookkeeping — the simulated CPU itself
(:class:`repro.cpu.core.CPU`) stays a single stateless interpreter that any
core can drive.  What makes a core a core is the state that real SMP makes
per-package:

* a **local clock**: cycles retire independently per core; the machine's
  elapsed time is the *frontier* (the maximum over all core clocks),
* a **runqueue**: tasks are pinned to a home core and migrate only through
  idle-steal load balancing,
* **private translation caches**: decoded-instruction caches keyed by
  address-space id, so a lazypoline rewrite on one core must shoot down
  stale entries on every other core that has executed the patched page
  (the cross-core analogue of the icache/TLB flush the paper's §IV-A(b)
  spinlock protects).

Determinism: the scheduler interleaves cores round-by-round in an order
drawn from a seeded RNG, every slice runs to completion in host order, and
no host-time source is consulted — the same ``(image, cores, smp_seed,
policy)`` tuple always yields the same execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.task import Task


class Core:
    """One simulated CPU core: local clock, runqueue and private caches."""

    __slots__ = (
        "id",
        "clock",
        "runqueue",
        "caches",
        "block_caches",
        "busy_cycles",
        "slices",
        "steals",
        "shootdowns",
        "block_shootdowns",
        "_depth",
    )

    def __init__(self, core_id: int):
        self.id = core_id
        #: Local cycle clock.  While a slice runs on this core the kernel's
        #: global ``clock`` attribute is swapped to this value, so every
        #: charge in the slice (instructions, hcalls, re-issued syscalls)
        #: lands on this core's timeline without any hot-path indirection.
        self.clock = 0
        #: Tasks homed on this core (FIFO; blocked tasks stay queued and
        #: are offered unblock checks each round, like the 1-core loop).
        self.runqueue: list["Task"] = []
        #: Private decoded-insn caches: AddressSpace.asid -> cache dict.
        #: Bound to ``mem.insn_cache`` at slice start so the CPU hot path
        #: is unchanged; invalidated remotely by cross-core shootdowns.
        self.caches: dict[int, dict] = {}
        #: Private tier-2 superblock caches: asid -> BlockCache, swapped
        #: onto ``mem.block_cache`` alongside ``insn_cache`` at slice
        #: start.  Created lazily by the scheduler's ``_bind_core``.
        self.block_caches: dict[int, object] = {}
        #: Cycles this core spent executing slices (outermost frames only).
        self.busy_cycles = 0
        #: Slices run on this core.
        self.slices = 0
        #: Tasks this core stole from another core's runqueue.
        self.steals = 0
        #: Cross-core shootdown IPIs *received* by this core (stale
        #: translation-cache entries dropped because another core patched
        #: an executable page this core had decoded).
        self.shootdowns = 0
        #: Compiled superblocks dropped from this core's private caches by
        #: remote rewrites (rides the same IPI as ``shootdowns``; never
        #: charged separately, so cycle accounting matches tiering off).
        self.block_shootdowns = 0
        #: Slice nesting depth (Scheduler.wait_until re-enters the scheduler);
        #: busy accounting only counts outermost frames.
        self._depth = 0

    def alive_tasks(self) -> list["Task"]:
        """Queued tasks that are still alive (dead ones are dropped)."""
        queue = self.runqueue
        if any(not t.alive for t in queue):
            queue[:] = [t for t in queue if t.alive]
        return list(queue)

    def snapshot(self, frontier: int) -> dict:
        """Aggregate counters for ``Machine.core_stats()``."""
        return {
            "core": self.id,
            "clock": self.clock,
            "busy_cycles": self.busy_cycles,
            "utilization": self.busy_cycles / frontier if frontier else 0.0,
            "slices": self.slices,
            "steals": self.steals,
            "shootdowns": self.shootdowns,
            "block_shootdowns": self.block_shootdowns,
            "tasks": len(self.runqueue),
        }
