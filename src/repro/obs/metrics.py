"""Aggregate metrics computed on (or alongside) the event stream.

The :class:`~repro.obs.tracer.Tracer` maintains :class:`SyscallAggregate`
rows and :class:`CycleHistogram` buckets incrementally, so summary views
cost O(1) per event; curve-shaped views (:func:`convergence_curve`,
:func:`path_ratio`) walk the recorded events on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import events as K


class CycleHistogram:
    """Log2-bucketed latency/cycle histogram (bucket i covers [2^(i-1), 2^i))."""

    __slots__ = ("counts", "n", "total", "min", "max")

    def __init__(self):
        self.counts: dict[int, int] = {}
        self.n = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None

    def add(self, cycles: int) -> None:
        bucket = int(cycles).bit_length() if cycles > 0 else 0
        self.counts[bucket] = self.counts.get(bucket, 0) + 1
        self.n += 1
        self.total += cycles
        if self.min is None or cycles < self.min:
            self.min = cycles
        if self.max is None or cycles > self.max:
            self.max = cycles


@dataclass
class SyscallAggregate:
    """Per-syscall accounting, ``strace -c`` shaped, plus a histogram."""

    sysno: int
    name: str
    calls: int = 0
    errors: int = 0
    cycles: int = 0
    histogram: CycleHistogram = field(default_factory=CycleHistogram)

    @property
    def cycles_per_call(self) -> float:
        return self.cycles / self.calls if self.calls else 0.0


def convergence_curve(
    events, bucket: int = 64
) -> list[tuple[int, float]]:
    """The rewrite-convergence story: slow-path fraction vs syscall count.

    Walks interposition entries (``sled_enter``) in order and, per bucket of
    ``bucket`` consecutive entries, computes the fraction that reached the
    generic handler through the SIGSYS slow path (a ``sigsys_trap`` by the
    same task with no intervening ``sled_enter``).  Under lazypoline the
    fraction starts near 1.0 and collapses towards 0.0 as hot sites get
    rewritten — the paper's "every site traps exactly once" claim as a curve.

    Returns ``(cumulative_sled_entries, slow_fraction)`` points.
    """
    points: list[tuple[int, float]] = []
    pending: set[int] = set()
    total = in_bucket = slow = 0
    for event in events:
        if event.kind == K.SIGSYS_TRAP:
            pending.add(event.tid)
        elif event.kind == K.SLED_ENTER:
            total += 1
            in_bucket += 1
            if event.tid in pending:
                pending.discard(event.tid)
                slow += 1
            if in_bucket == bucket:
                points.append((total, slow / bucket))
                in_bucket = slow = 0
    if in_bucket:
        points.append((total, slow / in_bucket))
    return points


def path_ratio(tracer) -> tuple[int, int, float]:
    """``(slow, fast, slow_fraction)`` over the whole run."""
    slow = tracer.slowpath_total
    entries = tracer.counts.get(K.SLED_ENTER, 0)
    fast = max(entries - slow, 0)
    return slow, fast, (slow / entries if entries else 0.0)
