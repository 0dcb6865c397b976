"""Host-speed probes: host time scaled to a nominal host.

The benchmark runs on shared hosts whose speed drifts by tens of percent
from minute to minute, and that drift would swamp any change to the
code.  So while a workload runs, a fixed pure-Python reference is timed
every :data:`PERIOD_S` of host time.  Each interval between two probes
is scaled by ``NOMINAL_S / (mean of the two probes)``: the time the
interval would have taken on a host where the reference takes
:data:`NOMINAL_S`.  The probes themselves are not part of any interval.

Work that other processes run in parallel (the fleet's shards) is probed
in each process from a timer signal, and reported as :class:`Run` records.
A parallel section takes as long as its slowest process, so each
process's time is scaled by its own probes, and the section's scaled
time is the slowest of them.  One host-wide scale would not do: when the
host slows one process more than the other, it is the slow one that sets
the section's time.

The reference runs in the same interpreter as the code it scales, so a
change that alters the interpreter's state (heap size, garbage
collection) moves the reference as well.  ``compare`` therefore shows
the verdict on the unscaled time beside the scaled one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: Reference time on the nominal host: about its median while a workload
#: runs on the 2-vCPU host the benchmark was defined on, in a quiet hour
#: (Python 3.11).
NOMINAL_S = 0.0004
#: Least host time between two probes.
PERIOD_S = 0.025
_MASK64 = (1 << 64) - 1


class _Cell:
    __slots__ = ("value", "count")


def _update(cell: _Cell, table: dict, i: int) -> None:
    value = table.get(i & 63, 0)
    cell.value = (cell.value + value + i) & 0xFFFFFFFF
    cell.count += 1
    table[i & 63] = cell.value ^ i


def _block(r1: int, r2: int) -> tuple[int, int]:
    return ((r1 + 3) & _MASK64) ^ 0x55, r2 + 1


def reference() -> float:
    """Run the reference loops once and return their wall time.

    Three loops in the styles the simulator spends its time in: integer
    arithmetic with dict stores, calls that update slotted attributes,
    and calls of a small function returning a tuple, as compiled
    superblocks do.  Host contention slows these styles by different
    amounts, and their sum tracked every workload to within 3% per
    repeat, where each alone missed some workload by 6-10%.
    """
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(1400):
        acc = (acc + i * 7) & 0xFFFF
        table[i & 63] = acc
    cell = _Cell()
    cell.value = cell.count = 0
    for i in range(500):
        _update(cell, table, i)
    r1 = r2 = 0
    for _ in range(850):
        r1, r2 = _block(r1, r2)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Run:
    """A piece of a window that another process ran, probed on its own.

    ``start`` and ``end`` are ``time.perf_counter()`` readings, which on
    Linux come from one system-wide monotonic clock.
    """

    process: int
    start: float
    end: float
    #: total time of the probes taken during the run, and their number
    probe_s: float
    probes: int


def parallel_sections(runs: list[Run],
                      scale: float) -> list[tuple[float, float, float]]:
    """``(wall_s, raw_s, scaled_s)`` of each parallel section of ``runs``.

    A section is a maximal set of runs that overlap in time.  Its
    ``wall_s`` is the host time it took.  Each process's busy time in it,
    without its probes, is scaled by the mean of its own probes, or by
    ``scale`` if it took none; ``raw_s`` and ``scaled_s`` are the largest
    busy time before and after scaling.
    """
    sections: list[list[Run]] = []
    end = 0.0
    for run in sorted(runs, key=lambda r: r.start):
        if sections and run.start < end:
            sections[-1].append(run)
            end = max(end, run.end)
        else:
            sections.append([run])
            end = run.end
    out = []
    for section in sections:
        busy: dict[int, list] = {}
        for run in section:
            row = busy.setdefault(run.process, [0.0, 0.0, 0])
            row[0] += run.end - run.start - run.probe_s
            row[1] += run.probe_s
            row[2] += run.probes
        out.append((
            max(run.end for run in section) - section[0].start,
            max(work for work, _, _ in busy.values()),
            max(work * (NOMINAL_S * n / probe_s if n else scale)
                for work, probe_s, n in busy.values()),
        ))
    return out


class HostSpeed:
    """Probes the host while a window runs and scales the window's time.

    ``start()`` opens the window with a probe, ``tick()`` probes when
    :data:`PERIOD_S` has passed since the last probe, and
    ``close_interval()`` probes unconditionally.  ``raw_s`` is the
    window's host time without the probes; ``scaled_s`` is that time
    scaled to the nominal host.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.scaled_s = 0.0
        #: the first probe's time, which also scales the set-up before it
        self.first = 0.0
        self._mark = 0.0
        self._last = 0.0

    def start(self) -> None:
        self.first = self._last = self._probe()

    def tick(self) -> None:
        if time.perf_counter() - self._mark >= PERIOD_S:
            self.close_interval()

    def close_interval(self, runs: list[Run] = ()) -> None:
        """End the current interval with a probe.

        ``runs`` are pieces of the interval that other processes ran in
        parallel; their sections count as :func:`parallel_sections`
        scales them, and the rest of the interval by this process's
        probes.
        """
        interval = time.perf_counter() - self._mark
        ref = self._probe()
        scale = 2 * NOMINAL_S / (self._last + ref)
        for wall_s, raw_s, scaled_s in parallel_sections(runs, scale):
            interval -= wall_s
            self.raw_s += raw_s
            self.scaled_s += scaled_s
        self.raw_s += interval
        self.scaled_s += interval * scale
        self._last = ref

    @property
    def factor(self) -> float:
        """Scaled over raw time: above 1 on a host faster than nominal."""
        return self.scaled_s / self.raw_s if self.raw_s else 1.0

    def _probe(self) -> float:
        ref = reference()
        self._mark = time.perf_counter()
        return ref
