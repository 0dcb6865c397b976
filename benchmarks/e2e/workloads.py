"""The five benchmark workloads, driven through the simulator's public API.

Each workload builds its inputs from the seed, calls ``probe.open()`` at
the moment the first measured op can issue (everything before it is
set-up), runs its ops, calls ``probe.close()`` and then checks every
output outside the timed window.  It returns an :class:`Outcome` whose
simulated numbers must be identical on every run of the same code.

The seed feeds every ``smp_seed`` and the cold workload's program order.
None of these change a simulated result, so every simulated metric is the
same for every seed and can be gated exactly.  The fleet's chaos plan is
seeded from the fixed :data:`FLEET_CHAOS_SEED`: a seed-dependent crash
point would move the fleet's simulated numbers from seed to seed.
"""

from __future__ import annotations

import contextlib
import functools
import os
import random
import signal
import time
from dataclasses import dataclass, field

from benchmarks.e2e.hostspeed import PERIOD_S, HostSpeed, Run, reference
from repro.arch.encode import Assembler
from repro.arch.registers import RBX, R12, R13
from repro.cluster import Cluster
from repro.cluster import cluster as cluster_mod
from repro.cluster.chaos import ChaosPlan
from repro.cpu.costs import CostModel
from repro.kernel.machine import Machine
from repro.kernel.syscalls.table import NR
from repro.libc.variants import LIBC_VARIANTS
from repro.loader.image import image_from_assembler
from repro.mem import layout
from repro.obs.tracer import Tracer
from repro.workloads import coreutils, tcc
from repro.workloads.runner import attach_mechanism
from repro.workloads.webserver import SERVERS, ServerWorkload
from repro.workloads.wrk import HEADER_SIZE, WrkClient, latency_percentiles

#: ChaosPlan seed of the fleet workload: at 5000 requests shard 0 crashes
#: after 582 of its 1269, so a retry round fails 687 over to live shards.
FLEET_CHAOS_SEED = 4
#: Static file served per request, and closed-loop wrk connections (per
#: shard for the fleet).
FILE_SIZE = 8192
CONNECTIONS = 4
SHARDS = 4

_MASK64 = (1 << 64) - 1


class Probe:
    """What a workload reports to the harness while it runs.

    ``open()`` marks the end of set-up and ``close()`` the end of the
    last measured op.  In between, the workload calls ``tick()`` often
    (between slices or ops) so the host's speed is probed all through the
    window (see :mod:`benchmarks.e2e.hostspeed`).  ``op(i)`` tags the
    work that follows with op ``i`` (a guest index) in the trace.
    Nothing may touch a machine after ``close()``: the traced run checks
    that no traced call happens then.  ``tracer()`` gives a fresh
    aggregates-only :class:`Tracer` in the traced run and ``None``
    otherwise, so untraced runs measure the machine as users run it.
    """

    def __init__(self, *, traced: bool = False, on_open=None, on_close=None,
                 on_op=None):
        self.traced = traced
        self.speed = HostSpeed()
        self.opened: float | None = None
        self._on_open = on_open
        self._on_close = on_close
        self._on_op = on_op

    def open(self) -> None:
        if self._on_open is not None:
            self._on_open()
        self.speed.start()
        self.opened = time.perf_counter()

    def tick(self) -> None:
        self.speed.tick()

    def close(self, runs: list[Run] = ()) -> None:
        """End the window; ``runs`` are parts of it that other processes
        ran, probed on their own (see :meth:`HostSpeed.close_interval`)."""
        self.speed.close_interval(runs)
        if self._on_close is not None:
            self._on_close()

    def op(self, index: int) -> None:
        if self._on_op is not None:
            self._on_op(index)

    def tracer(self) -> Tracer | None:
        return Tracer(max_events=0) if self.traced else None


@dataclass
class Outcome:
    """One run's measured window, in simulated units and op counts."""

    ops: int
    failed: int
    guest_insns: int
    sim_cycles: float
    #: ``{"p50", "p99", "samples"}`` over per-op latencies (cycles)
    latency: dict
    #: simulated requests per second (request workloads only)
    sim_rps: float | None = None
    #: fleet-level facts the per-layer metrics read (fleet only)
    cluster: dict = field(default_factory=dict)

    def sim_metrics(self) -> dict:
        """Every simulated number of the run; equal across runs by design."""
        out = {
            "sim_cycles_per_op": self.sim_cycles / self.ops,
            "sim_p50_latency_cycles": self.latency["p50"],
            "sim_p99_latency_cycles": self.latency["p99"],
            "sim_latency_samples": self.latency["samples"],
            "guest_insns": self.guest_insns,
        }
        if self.sim_rps is not None:
            out["sim_rps"] = self.sim_rps
        return out


def _percentiles(samples: list) -> dict:
    pct = latency_percentiles(samples)
    return {"p50": pct["p50"], "p99": pct["p99"], "samples": len(samples)}


# ---------------------------------------------------------------- webserver
class WebWorkload:
    """nginx on one core, direct syscalls, driven by a closed-loop wrk client.

    The driving sequence is :meth:`ServerWorkload.benchmark`'s, with the
    warmup boundary timestamped from the run predicate instead of
    splitting the run, so the simulation is exactly the Fig. 5 one.
    """

    def __init__(self, name: str, *, tool: str | None, requests: int,
                 warmup: int = 50):
        self.name = name
        self.tool = tool
        self.requests = requests
        self.warmup = warmup

    def execute(self, seed: int, probe: Probe) -> Outcome:
        machine = Machine(smp_seed=seed, tracer=probe.tracer())
        server = ServerWorkload(machine, SERVERS["nginx"],
                                file_size=FILE_SIZE)
        attach_mechanism(machine, server.process, self.tool)
        server.run_until_listening()
        client = WrkClient(
            machine.kernel, server.port, connections=CONNECTIONS,
            response_size=FILE_SIZE, warmup_requests=self.warmup,
        )
        client.start()
        stats = client.stats
        total = self.warmup + self.requests
        scheduler = machine.scheduler
        start_insns = []

        def done() -> bool:
            if start_insns:
                probe.tick()
            elif stats.completed >= self.warmup:
                probe.open()
                start_insns.append(scheduler.total_instructions)
            return stats.completed >= total

        machine.run(until=done, max_instructions=1_000_000_000)
        probe.close()
        client.stop()

        expected = HEADER_SIZE + FILE_SIZE
        failed = self.requests - len(stats.samples) + stats.errors
        if stats.bytes_received != stats.completed * expected:
            failed = max(failed, 1)
        return Outcome(
            ops=self.requests,
            failed=failed,
            guest_insns=scheduler.total_instructions - start_insns[0],
            sim_cycles=stats.end_clock - stats.start_clock,
            latency=_percentiles(stats.samples),
            sim_rps=client.throughput(machine.costs.frequency_hz),
        )


# --------------------------------------------------------------- cold start
def _guests() -> list[tuple[str, object, object]]:
    """The 10 coreutils against both libc variants, plus the tcc JIT guest."""
    guests = [
        (f"{name}@{variant.name}", coreutils.build_coreutil(name, variant),
         coreutils.setup_fs)
        for variant in LIBC_VARIANTS.values()
        for name in coreutils.COREUTIL_NAMES
    ]
    guests.append(("tcc", tcc.build_tcc_image(), tcc.setup_fs))
    return guests


def _run_guest(image, setup_fs, tool, *, seed: int, tracer=None):
    machine = Machine(smp_seed=seed, tracer=tracer)
    setup_fs(machine)
    process = machine.load(image)
    attach_mechanism(machine, process, tool)
    machine.run_process(process, max_instructions=2_000_000)
    return machine, process


class ColdWorkload:
    """Every guest freshly booted, attached and run to exit, in seeded order.

    An op is one guest run; its latency is the guest's simulated cycles
    from boot to exit.  A guest fails on a non-zero exit, a fatal signal,
    or stdout that differs from the same guest run with no tool attached.
    """

    def __init__(self, name: str, *, tool: str, rounds: int):
        self.name = name
        self.tool = tool
        self.rounds = rounds

    def execute(self, seed: int, probe: Probe) -> Outcome:
        guests = _guests()
        order = [g for _ in range(self.rounds) for g in guests]
        random.Random(seed).shuffle(order)
        expected = {
            name: _run_guest(image, setup_fs, None, seed=seed)[1].stdout
            for name, image, setup_fs in guests
        }
        runs = []
        probe.open()
        for index, (name, image, setup_fs) in enumerate(order):
            probe.op(index)
            machine, process = _run_guest(image, setup_fs, self.tool,
                                          seed=seed, tracer=probe.tracer())
            runs.append((name, process.exit_code, process.term_signal,
                         process.stdout, machine.clock,
                         machine.scheduler.total_instructions))
            probe.tick()
        probe.close()
        failed = sum(
            1 for name, code, sig, stdout, _, _ in runs
            if code != 0 or sig is not None or stdout != expected[name]
        )
        clocks = [run[4] for run in runs]
        return Outcome(
            ops=len(runs),
            failed=failed,
            guest_insns=sum(run[5] for run in runs),
            sim_cycles=sum(sorted(clocks)),
            latency=_percentiles(clocks),
        )


# -------------------------------------------------------------------- fleet
#: Obs count keys the fleet's shard wrapper adds to every shard row.
#: ``Cluster.serve`` sums obs counts over every shard of every round, and
#: that sum is the only place retry-round rows remain visible.  So the
#: retired instructions go under one key, to be summed, and each timed
#: run's fields under keys no other row shares:
#: ``RUN_PREFIX + "<pid>.<start ns>.<field>"``.
INSNS_KEY = "bench.guest_insns"
RUN_PREFIX = "bench.run."


def _measured_shard(run_shard, timer: bool, config: dict) -> dict:
    """Run one shard, with a timer probing the host's speed if ``timer``.

    A shard's run loop has no hook to tick from, so a SIGALRM timer
    interrupts it every :data:`PERIOD_S` to time the reference loop.
    The traced run sets no timer: its probes would land inside whichever
    span is open and inflate that span's self time.
    """
    probes = [0.0, 0]

    def on_alarm(signum, frame):
        probes[0] += reference()
        probes[1] += 1

    if timer:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    start = time.perf_counter_ns()
    try:
        row = run_shard(config)
    finally:
        end = time.perf_counter_ns()
        if timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    if row["obs"] is not None:
        counts = row["obs"]["counts"]
        counts[INSNS_KEY] = row["result"]["instructions"]
        if timer:
            key = f"{RUN_PREFIX}{os.getpid()}.{start}."
            counts[key + "end_ns"] = end
            counts[key + "probe_ns"] = round(probes[0] * 1e9)
            counts[key + "probes"] = probes[1]
    return row


def _shard_runs(counts: dict) -> list[Run]:
    """The timed shard runs recorded by :func:`_measured_shard`."""
    fields: dict[tuple[int, int], dict] = {}
    for key, value in counts.items():
        if key.startswith(RUN_PREFIX):
            process, start, name = key[len(RUN_PREFIX):].split(".")
            fields.setdefault((int(process), int(start)), {})[name] = value
    return [Run(process, start / 1e9, run["end_ns"] / 1e9,
                run["probe_ns"] / 1e9, run["probes"])
            for (process, start), run in fields.items()]


@contextlib.contextmanager
def _measured_shards(timer: bool):
    """Route ``Cluster`` shard runs through :func:`_measured_shard`.

    A ``functools.partial`` of two module-level functions pickles by
    reference, so the fork pool's workers run it unchanged.
    """
    inner = cluster_mod.run_shard
    cluster_mod.run_shard = functools.partial(_measured_shard, inner, timer)
    try:
        yield
    finally:
        cluster_mod.run_shard = inner


class FleetWorkload:
    """Four lazypoline shards behind a session-sticky balancer, one crashing.

    Shards run in the cluster's process pool (``min(shards, nproc)``
    workers) except in the traced run, which serves inline so the span
    wrappers see the shards; both paths give byte-identical reports.
    """

    def __init__(self, name: str, *, requests: int):
        self.name = name
        self.requests = requests

    def execute(self, seed: int, probe: Probe) -> Outcome:
        plan = ChaosPlan.seeded(FLEET_CHAOS_SEED, shards=SHARDS,
                                requests=self.requests, kinds=("crash",))
        cluster = Cluster(
            shards=SHARDS, tool="lazypoline", batched="async",
            policy="consistent_hash", sessions=16,
            session_miss_cycles=80_000, smp_seed=seed, chaos=plan,
            processes=False if probe.traced else None,
        )
        with _measured_shards(timer=not probe.traced):
            probe.open()
            report = cluster.serve(self.requests, warmup=20,
                                   connections=CONNECTIONS,
                                   client_cycles_per_request=120_000)
        counts = report["obs"]["counts"]
        probe.close(_shard_runs(counts))
        availability = report["availability"]
        windows = [r["measured_seconds"] for r in report["results"] if r]
        return Outcome(
            ops=self.requests,
            failed=(self.requests - availability["completed"]
                    + availability["duplicate_serves"]),
            guest_insns=counts[INSNS_KEY],
            sim_cycles=report["measured_seconds"] * CostModel().frequency_hz,
            latency={"p50": report["latency_p50_cycles"],
                     "p99": report["latency_p99_cycles"],
                     "samples": availability["completed"]},
            sim_rps=report["requests_per_sec"],
            cluster={
                "retries": availability["retries"],
                "failovers": availability["failovers"],
                "rounds": availability["rounds"],
                "sticky_ratio": report["session_stats"]["sticky_ratio"],
                "shard_window_skew": (max(windows) * len(windows)
                                      / sum(windows)),
            },
        )


# ---------------------------------------------------------------- ALU loop
def alu_image(iterations: int):
    """Five ALU instructions per iteration, no memory access, no syscall."""
    a = Assembler(base=layout.CODE_BASE)
    a.label("_start")
    a.mov_imm("rbx", iterations)
    a.mov_imm("r12", 0)
    a.mov_imm("r13", 0)
    a.label("loop")
    a.addi("r12", 3)
    a.xori("r12", 0x55)
    a.inc("r13")
    a.dec("rbx")
    a.jnz("loop")
    a.mov_imm("rdi", 0)
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    return image_from_assembler("alu-loop", a, entry="_start")


def alu_expected(iterations: int) -> int:
    """The loop's final accumulator, computed on the host."""
    acc = 0
    for _ in range(iterations):
        acc = ((acc + 3) & _MASK64) ^ 0x55
    return acc


class AluWorkload:
    """The tier-2 steady state: one guest, one tight loop, no kernel entries.

    An op is one loop iteration.  Every iteration retires the same five
    instructions and no syscall, so all op latencies are equal and p50 =
    p99 = cycles per op.  The run fails on wrong final registers.
    """

    def __init__(self, name: str, *, iterations: int):
        self.name = name
        self.iterations = iterations

    def execute(self, seed: int, probe: Probe) -> Outcome:
        machine = Machine(smp_seed=seed, tracer=probe.tracer())
        process = machine.load(alu_image(self.iterations))
        def exited() -> bool:
            probe.tick()
            return not process.task.alive

        probe.open()
        machine.run(until=exited, max_instructions=10 * self.iterations)
        probe.close()
        regs = process.task.regs
        correct = (process.exit_code == 0
                   and regs.read(RBX) == 0
                   and regs.read(R13) == self.iterations
                   and regs.read(R12) == alu_expected(self.iterations))
        per_op = machine.clock / self.iterations
        return Outcome(
            ops=self.iterations,
            failed=0 if correct else self.iterations,
            guest_insns=machine.scheduler.total_instructions,
            sim_cycles=machine.clock,
            latency={"p50": per_op, "p99": per_op,
                     "samples": self.iterations},
        )


def default_workloads() -> dict:
    """The benchmark's workloads at their fixed sizes, by name."""
    workloads = [
        WebWorkload("web_lazypoline", tool="lazypoline", requests=800),
        WebWorkload("web_bare", tool=None, requests=10_000),
        ColdWorkload("cold_lazypoline", tool="lazypoline", rounds=20),
        FleetWorkload("fleet_chaos", requests=5000),
        AluWorkload("alu_loop", iterations=2_000_000),
    ]
    return {w.name: w for w in workloads}
