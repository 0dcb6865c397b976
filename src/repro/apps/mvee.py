"""A multi-variant execution (MVEE) monitor on top of lazypoline.

The paper's introduction lists MVEEs — systems that run multiple replicas
of a program in lockstep and compare their syscall streams to detect
divergence (memory-error exploits, races, non-determinism) — as a prime
consumer of fast, exhaustive syscall interposition (refs [4–13]).  They
need *exhaustive* interception (a missed syscall in one replica
desynchronises the whole system) and *efficient* interception (every
replica pays the cost on every syscall).

This monitor runs N replicas of one image, each under its own lazypoline
instance, and enforces **lockstep at the syscall layer**: a replica
reaching syscall index ``k`` blocks (cooperatively — the kernel schedules
the other replicas) until everyone has reached ``k``, then the monitor
compares ``(sysno, args)`` across replicas.  A mismatch is a divergence:
the monitor records it and terminates the replicas, like GHUMVEE-style
monitors do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.interpose import SyscallContext, attach
from repro.kernel.syscalls.table import syscall_name


@dataclass
class Divergence:
    index: int
    entries: dict[int, tuple[int, tuple[int, ...]]]  # variant -> (nr, args)

    def __str__(self) -> str:
        parts = [
            f"variant {variant}: {syscall_name(nr)}{args[:3]}"
            for variant, (nr, args) in sorted(self.entries.items())
        ]
        return f"divergence at syscall #{self.index}: " + " vs ".join(parts)


@dataclass
class MveeReport:
    variants: int
    syscalls_compared: int
    divergence: Divergence | None = None
    exit_codes: list[int | None] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        return self.divergence is not None


class MveeMonitor:
    """Run N replicas in syscall lockstep and compare their streams."""

    def __init__(self, machine, image, *, variants: int = 2,
                 lockstep: bool = True, compare_args: bool = True):
        if variants < 2:
            raise ValueError("an MVEE needs at least two variants")
        self.machine = machine
        self.variants = variants
        self.lockstep = lockstep
        self.compare_args = compare_args

        self.processes = []
        self.tools = []
        #: per-variant syscall streams: variant -> list[(nr, args)]
        self.streams: list[list[tuple[int, tuple[int, ...]]]] = []
        self.divergence: Divergence | None = None
        self._aborted = False

        #: per-variant index of an announced-but-not-yet-released syscall
        self._pending: list[int | None] = [None] * variants

        for variant in range(variants):
            process = machine.load(image, register_binary=variant == 0)
            self.processes.append(process)
            self.streams.append([])
            tool = attach(machine, process, "lazypoline",
                          interposer=self._make_interposer(variant))
            self.tools.append(tool)

    # ------------------------------------------------------------- interposer
    def _make_interposer(self, variant: int):
        def interposer(ctx: SyscallContext):
            if self._aborted:
                return None  # replicas are being torn down
            # Announce this syscall (once — deferred interpositions re-run).
            if self._pending[variant] is None:
                index = len(self.streams[variant])
                self.streams[variant].append((ctx.sysno, ctx.args))
                self._pending[variant] = index
            else:
                index = self._pending[variant]
            # Barrier: park until every live replica announced index k.
            if self.lockstep and not self._everyone_arrived(variant, index):
                ctx.defer(
                    lambda: self._aborted
                    or self._everyone_arrived(variant, index)
                )
                return None
            self._pending[variant] = None
            self._compare(index)
            if self._aborted:
                return None
            return ctx.do_syscall()

        return interposer

    def _everyone_arrived(self, variant: int, index: int) -> bool:
        for other in range(self.variants):
            if other == variant:
                continue
            if len(self.streams[other]) <= index and self.processes[other].alive:
                return False
        return True

    def _compare(self, index: int) -> None:
        if self.divergence is not None:
            return
        entries = {
            variant: stream[index]
            for variant, stream in enumerate(self.streams)
            if len(stream) > index
        }
        if len(entries) < 2:
            return
        projected = {
            variant: (nr, args if self.compare_args else ())
            for variant, (nr, args) in entries.items()
        }
        if len(set(projected.values())) > 1:
            self.divergence = Divergence(index, entries)
            self._abort()

    def _abort(self) -> None:
        self._aborted = True
        for process in self.processes:
            if process.alive:
                self.machine.kernel.terminate_group(process.task, code=0xED)

    # ------------------------------------------------------------------- run
    def run(self, *, max_instructions: int = 50_000_000) -> MveeReport:
        self.machine.run(
            until=lambda: all(not p.alive for p in self.processes)
            or self.divergence is not None,
            max_instructions=max_instructions,
        )
        if self.divergence is not None:
            self._abort()
            self.machine.run(
                until=lambda: all(not p.alive for p in self.processes),
                max_instructions=1_000_000,
                raise_on_deadlock=False,
            )
        compared = min(len(s) for s in self.streams)
        return MveeReport(
            variants=self.variants,
            syscalls_compared=compared,
            divergence=self.divergence,
            exit_codes=[p.exit_code for p in self.processes],
        )
