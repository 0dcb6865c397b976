"""Differential trace oracle: two runs of one guest must agree.

This generalises the §V-A exhaustiveness experiment
(:mod:`repro.bench.exhaustiveness`): instead of only comparing syscall
*counts* across tools on the happy schedule, :func:`run_guest` runs a guest
under an arbitrary (tool, schedule policy, fault plan) configuration and
returns a :class:`GuestReport`; :func:`differences` then checks that two
reports are observationally equivalent — same exit status, same output,
same filesystem effects and (for full-expressiveness mechanisms) the same
per-thread syscall name sequence.

Tools attach through :func:`repro.workloads.runner.attach_mechanism`,
the path every benchmark measures, so the fault corpus can run any
mechanism or ablation name the benchmarks can.

Traces are compared per thread by *name only*: pointer arguments and
cross-thread interleaving legitimately differ between mechanisms (stack
layouts shift, emulation order varies), but the sequence of syscalls each
thread issues is part of program semantics and must not.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import GuestCrash
from repro.kernel.machine import Machine
from repro.workloads.runner import attach_mechanism

#: Tool pairs with full expressiveness (Table I) — these must observe the
#: *identical* per-thread syscall stream, not merely preserve behaviour.
FULL_EXPRESSIVENESS = ("lazypoline", "sud", "seccomp_user")


class TidTracer:
    """Interposer recording ``(tid, name)`` per intercepted syscall."""

    def __init__(self):
        self.events: list[tuple[int, str]] = []

    def __call__(self, ctx):
        self.events.append((ctx.task.tid, ctx.name))
        return ctx.do_syscall()


@dataclass
class GuestReport:
    """Everything observable about one run of a guest."""

    tool: str | None
    exit: int | None
    signal: int | None
    stdout: bytes
    fs: tuple
    trace: tuple[tuple[int, str], ...]
    crashed: bool = False
    schedule_digest: str | None = None
    fault_digest: str | None = None
    fault_plan: tuple = ()
    #: Simulated machine clock (cycles) and retired-instruction total at
    #: the end of the run — the superblock tier must keep both bit-exact.
    cycles: int = 0
    instructions: int = 0

    def trace_by_tid(self) -> dict[int, tuple[str, ...]]:
        out: dict[int, list[str]] = {}
        for tid, name in self.trace:
            out.setdefault(tid, []).append(name)
        return {tid: tuple(names) for tid, names in out.items()}

    def digest(self) -> str:
        """Byte-stable digest of the whole observable outcome."""
        h = hashlib.sha256()
        h.update(repr((self.exit, self.signal, self.crashed)).encode())
        h.update(self.stdout)
        h.update(repr(self.fs).encode())
        h.update(repr(self.trace).encode())
        if self.schedule_digest:
            h.update(self.schedule_digest.encode())
        if self.fault_digest:
            h.update(self.fault_digest.encode())
        return h.hexdigest()


def run_guest(
    image,
    tool: str | None = None,
    *,
    policy=None,
    injector=None,
    interposer=None,
    argv: tuple[str, ...] = (),
    max_instructions: int = 3_000_000,
    setup=None,
    configure=None,
    cores: int = 1,
    smp_seed: int = 0,
    tool_opts: dict | None = None,
    machine_opts: dict | None = None,
) -> GuestReport:
    """Run ``image`` under ``tool`` with optional schedule/fault harnessing.

    ``tool`` takes any :func:`~repro.workloads.runner.attach_mechanism`
    name (``None``/``"baseline"`` attach nothing), attached exactly as the
    benchmarks attach it.  ``image`` may be a :class:`ProgramImage` or a
    zero-argument callable producing one (so corpus entries rebuild fresh
    per run).  ``setup`` runs against the bare machine (seed the fs,
    register execve binaries); ``configure(machine, process,
    tool_instance)`` runs after the tool is installed but before
    execution — the hook where explorer windows are derived from the
    installed tool's blob addresses.  ``cores``/``smp_seed`` run the guest
    on a deterministic SMP machine: guest-visible behaviour must not
    depend on them — that is exactly what the oracle checks.
    ``tool_opts`` passes extra keywords (e.g. ``degrade_policy=...``) to
    the tool and ``machine_opts`` to :class:`Machine` (e.g.
    ``mmap_min_addr=`` to make the machine hostile to VA-0 tools, or
    ``superblocks=False`` to pin the interpreter to one tier for a
    lockstep comparison).
    """
    machine = Machine(
        policy=policy, cores=cores, smp_seed=smp_seed,
        **(machine_opts or {}),
    )
    if injector is not None:
        machine.kernel.fault_injector = injector
    if setup is not None:
        setup(machine)
    if callable(image) and not hasattr(image, "segments"):
        image = image()
    process = machine.load(image, argv)
    tracer = interposer if interposer is not None else TidTracer()
    tool_instance = attach_mechanism(
        machine, process, tool, interposer=tracer, tool_opts=tool_opts
    )
    if configure is not None:
        configure(machine, process, tool_instance)
    crashed = False
    try:
        machine.run(
            until=lambda: not any(t.alive for t in machine.kernel.tasks.values()),
            max_instructions=max_instructions,
        )
    except GuestCrash:
        crashed = True
    if any(t.alive for t in machine.kernel.tasks.values()):
        crashed = True
    fs_snapshot = tuple(
        sorted(
            (inode.path, bytes(inode.data))
            for inode in machine.fs._inodes.values()
            if not inode.is_dir
        )
    )
    trace = tuple(tracer.events) if isinstance(tracer, TidTracer) else ()
    report = GuestReport(
        tool=tool,
        exit=process.exit_code,
        signal=process.term_signal,
        stdout=process.stdout,
        fs=fs_snapshot,
        trace=trace,
        crashed=crashed,
        cycles=machine.clock,
        instructions=machine.scheduler.total_instructions,
    )
    if policy is not None and hasattr(policy, "trace"):
        report.schedule_digest = policy.trace.digest()
    if injector is not None:
        report.fault_digest = injector.plan_digest()
        report.fault_plan = tuple(injector.plan)
    return report


def differences(
    a: GuestReport,
    b: GuestReport,
    *,
    compare_trace: bool = True,
    compare_cycles: bool = False,
) -> list[str]:
    """Human-readable list of observable divergences (empty = equivalent).

    ``compare_cycles`` additionally requires bit-identical simulated clock
    and retired-instruction totals — the lockstep criterion for runs that
    differ only in host-side execution strategy (e.g. superblock tiering),
    never across different tools or schedules.
    """
    diffs: list[str] = []
    if compare_cycles:
        if a.cycles != b.cycles:
            diffs.append(f"simulated cycles: {a.cycles} vs {b.cycles}")
        if a.instructions != b.instructions:
            diffs.append(
                f"instructions retired: {a.instructions} vs {b.instructions}"
            )
    if a.crashed != b.crashed:
        diffs.append(f"crashed: {a.crashed} vs {b.crashed}")
    if a.exit != b.exit:
        diffs.append(f"exit code: {a.exit} vs {b.exit}")
    if a.signal != b.signal:
        diffs.append(f"terminating signal: {a.signal} vs {b.signal}")
    if a.stdout != b.stdout:
        diffs.append(f"stdout: {a.stdout!r} vs {b.stdout!r}")
    if a.fs != b.fs:
        paths_a = {p for p, _ in a.fs}
        paths_b = {p for p, _ in b.fs}
        if paths_a != paths_b:
            diffs.append(
                f"fs paths differ: only-left={sorted(paths_a - paths_b)} "
                f"only-right={sorted(paths_b - paths_a)}"
            )
        else:
            changed = [
                p
                for (p, da), (_, db) in zip(a.fs, b.fs)
                if da != db
            ]
            diffs.append(f"fs contents differ at {changed}")
    if compare_trace:
        ta, tb = a.trace_by_tid(), b.trace_by_tid()
        if set(ta) != set(tb):
            diffs.append(f"thread sets differ: {sorted(ta)} vs {sorted(tb)}")
        else:
            for tid in sorted(ta):
                if ta[tid] != tb[tid]:
                    pos = next(
                        (
                            i
                            for i, (x, y) in enumerate(zip(ta[tid], tb[tid]))
                            if x != y
                        ),
                        min(len(ta[tid]), len(tb[tid])),
                    )
                    diffs.append(
                        f"tid {tid} trace diverges at #{pos}: "
                        f"{ta[tid][pos:pos + 3]} vs {tb[tid][pos:pos + 3]} "
                        f"(lengths {len(ta[tid])}/{len(tb[tid])})"
                    )
    return diffs
