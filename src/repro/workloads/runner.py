"""The unified workload runner: one entry point for every workload.

Before this module each workload grew its own runner with its own private
setup helpers, each building a Machine, loading a guest and attaching a
tool in slightly different ways.  :func:`run_workload` replaces all of
them with a single protocol::

    run_workload(name, *, tool=None, cores=1, batched=False, tracer=None,
                 smp_seed=0, interposer=None, tool_opts=None,
                 machine_opts=None, **options) -> dict

Every workload is one entry of a fixed name table; both the
cluster shard worker (:mod:`repro.cluster`) and the benchmarks call the
same entry point, so there is exactly one place where ``degrade_policy``
(via ``tool_opts``), ``superblocks``/``translation_cache``/``costs`` (via
``machine_opts``) and the ring options (``batched=``) are threaded through.
:func:`attach_mechanism` is the one place that turns a benchmark name
into a tool; the fault oracle's ``run_guest``, the paper harnesses and
the ``python -m repro.obs`` CLI attach through it too, so every caller
runs the attach path the benchmarks measure.

Two measurement helpers stay on top of it, because each hides the
two-run differencing that cancels guest startup cost:
``ringbench.measure_ring(tool, batch, ...)`` differences two
``run_workload("ringbench", tool=tool, batch=B, enters=E)`` runs, and
``microbench.measure_cycles_per_syscall(mech)`` two
``run_workload("microbench", tool=mech, iterations=I)`` runs.  A scaling
point is one ``run_workload("webserver", server=name, cores=N, ...)``.

Results are plain JSON-serializable dicts so they can cross the cluster's
process boundary unchanged; every number in them is *simulated* (cycles,
instructions, simulated seconds) and therefore deterministic for a given
``(workload, options, smp_seed)``.
"""

from __future__ import annotations

from typing import Any

from repro.interpose.api import Interposer, passthrough_interposer
from repro.kernel.machine import Machine


# --------------------------------------------------------------- mechanisms
#: Benchmark-only mechanism names handled by :func:`attach_mechanism` on
#: top of the plain :func:`repro.interpose.attach` registry names.
#: ``baseline``/``none``/``None`` attach nothing; ``sud_enabled_allow``
#: arms SUD with a permanently-ALLOW selector (Table II row 5); the
#: ``lazypoline_*`` variants are the paper's §V-B ablations.
def _lazypoline_config(mechanism: str):
    from repro.arch.registers import XComponent
    from repro.interpose.lazypoline import LazypolineConfig

    presets = {
        "lazypoline_xstate_sse": XComponent.SSE,
        "lazypoline_xstate_x87": XComponent.X87,
        "lazypoline_xstate_sse_avx": XComponent.SSE | XComponent.AVX,
    }
    if mechanism in presets:
        xstate = presets[mechanism]
    elif "noxstate" in mechanism:
        xstate = XComponent.none()
    else:
        xstate = XComponent.all()
    return LazypolineConfig(
        preserve_xstate=xstate,
        enable_sud="nosud" not in mechanism,
        protect_gs_with_pkey="pkey" in mechanism,
    )


def attach_mechanism(
    machine,
    process,
    mechanism: str | None,
    *,
    interposer: Interposer | None = None,
    tool_opts: dict | None = None,
):
    """Attach ``mechanism`` to ``process`` through the unified registry.

    The shared setup path for every runner, benchmark and the fault
    oracle: accepts plain registry tool names (``lazypoline``,
    ``zpoline``, ``ptrace``, ...), the benchmark pseudo-mechanisms
    (``baseline``/``none``/``None``, ``sud_enabled_allow``) and the
    lazypoline ablation names (``lazypoline_noxstate``,
    ``lazypoline_nosud``, ``lazypoline_pkey``, ``lazypoline_xstate_*``).
    Everything ultimately goes through :func:`repro.interpose.attach`,
    looked up at call time; ``tool_opts`` (e.g. ``degrade_policy``,
    ``mode`` for zpoline) pass straight through to it.  ``seccomp_bpf``
    runs no interposer, so ``interposer`` is not passed to it.

    Returns the tool object, or ``None`` when nothing was attached.
    """
    opts = dict(tool_opts or {})
    if mechanism is None or mechanism in ("baseline", "none"):
        if opts:
            raise ValueError(
                f"tool options {sorted(opts)} given without a tool"
            )
        return None
    if mechanism == "sud_enabled_allow":
        # SUD armed but the selector permanently ALLOW: isolates the cost
        # of the slower kernel entry path + selector read (Table II row 5).
        from repro.kernel.sud import SELECTOR_ALLOW, SudState
        from repro.mem.pages import Perm

        task = process.task
        addr = task.mem.map_anywhere(4096, Perm.RW)
        task.mem.write_u8(addr, SELECTOR_ALLOW, check=None)
        task.sud = SudState(selector_addr=addr, allow_start=0, allow_len=0)
        return None

    from repro.interpose import attach

    if mechanism == "seccomp_bpf":
        # cBPF runs in kernel space: no interposer (the tool enforces it).
        return attach(machine, process, "seccomp_bpf", **opts)
    if mechanism.startswith("lazypoline") and mechanism != "lazypoline":
        opts.setdefault("config", _lazypoline_config(mechanism))
        mechanism = "lazypoline"
    return attach(machine, process, mechanism, interposer=interposer, **opts)


# ------------------------------------------------------------------ context
class RunContext:
    """Everything one workload run needs, in one bag.

    ``options`` holds the workload-specific keywords of the
    :func:`run_workload` call; :meth:`option` pops them with defaults so a
    workload can reject unknown leftovers.
    """

    def __init__(
        self,
        *,
        tool: str | None,
        cores: int,
        batched: bool,
        tracer,
        smp_seed: int,
        interposer: Interposer | None,
        tool_opts: dict | None,
        machine_opts: dict | None,
        options: dict,
    ):
        self.tool = tool
        self.cores = cores
        self.batched = batched
        self.tracer = tracer
        self.smp_seed = smp_seed
        self.interposer = interposer
        self.tool_opts = tool_opts
        self.machine_opts = dict(machine_opts or {})
        self.options = dict(options)

    def boot(self) -> Machine:
        """Build the Machine: cores/seed/tracer plus ``machine_opts``
        (``costs``, ``quantum``, ``superblocks``, ``translation_cache``,
        ``mmap_min_addr``, ...)."""
        opts = dict(self.machine_opts)
        costs = opts.pop("costs", None)
        return Machine(
            costs,
            cores=self.cores,
            smp_seed=self.smp_seed,
            tracer=self.tracer,
            **opts,
        )

    def attach(self, machine, process):
        """Attach ``self.tool`` through the shared setup path."""
        return attach_mechanism(
            machine,
            process,
            self.tool,
            interposer=self.interposer,
            tool_opts=self.tool_opts,
        )

    def option(self, name: str, default=None):
        return self.options.pop(name, default)

    def reject_unknown_options(self, workload: str) -> None:
        if self.options:
            raise TypeError(
                f"unknown options for workload {workload!r}: "
                f"{sorted(self.options)}"
            )


# ---------------------------------------------------------------- workloads
class WebserverWorkload:
    """The Fig. 5 macrobenchmark: prefork epoll server driven by wrk.

    Options: ``server`` ("nginx"/"lighttpd"), ``requests``, ``warmup``,
    ``file_size``, ``connections`` (default ``2 * cores``), ``workers``
    (default one per core), ``client_cycles_per_request``,
    ``request_extra_cycles`` (per-request user-space surcharge list, used
    by the cluster's session model), plus the chaos knobs
    ``deadline_cycles`` (bounded run: return at the absolute deadline
    instead of raising on a stall) and ``partition_after`` (cap the wrk
    client's total sends) — both off by default and byte-invisible then.

    ``batched="async"`` selects the event-loop leg: a single worker
    overlapping ``connections`` (default 4) in-flight requests through
    the asynchronous ring drain — connections and overlap depth are the
    same number there, so it is fixed before the server image is built.

    The result row carries throughput (``requests_per_sec``), the measured
    window (``measured_seconds``), per-request latency percentiles *and*
    the raw post-warmup latency samples (simulated cycles) so a cluster
    front-end can merge percentile distributions across shards.
    """

    name = "webserver"

    def run(self, ctx: RunContext) -> dict:
        from repro.workloads.webserver import SERVERS, ServerWorkload
        from repro.workloads.wrk import latency_percentiles

        server = ctx.option("server", "nginx")
        spec = SERVERS[server] if isinstance(server, str) else server
        requests = ctx.option("requests", 200)
        warmup = ctx.option("warmup", 20)
        file_size = ctx.option("file_size", 8192)
        connections = ctx.option("connections")
        workers = ctx.option("workers", ctx.cores)
        client_cycles = ctx.option("client_cycles_per_request", 0)
        extra_cycles = ctx.option("request_extra_cycles")
        # chaos knobs (fleet fault tolerance); both default to off and the
        # result row is unchanged whenever they are off
        deadline_cycles = ctx.option("deadline_cycles")
        partition_after = ctx.option("partition_after")
        ctx.reject_unknown_options(self.name)

        is_async = ctx.batched == "async"
        if is_async:
            # One worker; the overlap depth *is* the connection count and
            # must be known before the server image is emitted.
            workers = 1
            connections = connections if connections is not None else 4
        elif connections is None:
            connections = 2 * ctx.cores
        if extra_cycles is not None:
            # The parse hook serves warmup requests first; they carry no
            # session surcharge.
            extra_cycles = [0] * warmup + list(extra_cycles)

        machine = ctx.boot()
        workload = ServerWorkload(
            machine, spec, file_size=file_size, workers=workers,
            batched=ctx.batched, async_depth=connections,
            request_extra_cycles=extra_cycles,
        )
        ctx.attach(machine, workload.process)
        rps = workload.benchmark(
            requests=requests,
            warmup=warmup,
            connections=connections,
            client_cycles_per_request=client_cycles,
            deadline_cycles=deadline_cycles,
            partition_after=partition_after,
        )
        stats = workload.last_client.stats
        start = stats.start_clock if stats.start_clock is not None else 0
        measured_cycles = stats.end_clock - start
        served = max(0, stats.completed - warmup)
        deadline_hit = deadline_cycles is not None and served < requests
        if deadline_hit:
            # the shard held its slot until the deadline: the measured
            # window (and the fleet's) extends to it
            measured_cycles = max(0, deadline_cycles - start)
        insns = machine.scheduler.total_instructions
        seconds = machine.seconds
        freq = machine.costs.frequency_hz
        pct = latency_percentiles(stats.samples)
        chaos_keys = {}
        if deadline_cycles is not None or partition_after is not None:
            if deadline_hit and measured_cycles:
                rps = served / (measured_cycles / freq)
            chaos_keys = {"served": served, "deadline_hit": deadline_hit}
        return {
            "workload": self.name,
            "server": spec.name,
            "cores": ctx.cores,
            "smp_seed": ctx.smp_seed,
            "tool": ctx.tool,
            "batched": ctx.batched,
            "requests": requests,
            "warmup": warmup,
            "connections": len(workload.last_client._conns),
            "file_size": file_size,
            "requests_per_sec": rps,
            "measured_seconds": measured_cycles / freq,
            "guest_mips": insns / seconds / 1e6 if seconds else 0.0,
            "instructions": insns,
            "cycles": machine.clock,
            "shootdowns": machine.scheduler.shootdowns,
            "steals": sum(c.steals for c in machine.cores),
            "utilization": [
                round(row["utilization"], 3) for row in machine.core_stats()
            ],
            "latency_p50_cycles": pct["p50"],
            "latency_p95_cycles": pct["p95"],
            "latency_p99_cycles": pct["p99"],
            "latency_samples_cycles": list(stats.samples),
            **chaos_keys,
        }


class RingBenchWorkload:
    """One steady-state syscall-aggregation run (see ``ringbench``).

    Options: ``enters`` (ring_enter crossings), ``batch`` (SQEs per
    crossing), ``syscall`` (the batched syscall name).  Returns the final
    clock and the crossing count; per-syscall numbers come from
    differencing two runs (``ringbench.measure_ring``).
    """

    name = "ringbench"

    def run(self, ctx: RunContext) -> dict:
        from repro.obs.tracer import Tracer
        from repro.workloads.ringbench import build_ring_loop

        enters = ctx.option("enters", 64)
        batch = ctx.option("batch", 1)
        name = ctx.option("syscall", "getpid")
        ctx.reject_unknown_options(self.name)

        if ctx.tracer is None:
            # aggregates only; the crossing counter is part of the result
            ctx.tracer = Tracer(max_events=0)
        machine = ctx.boot()
        process = machine.load(build_ring_loop(enters, batch, name))
        ctx.attach(machine, process)
        machine.run_process(process, max_instructions=200_000_000)
        return {
            "workload": self.name,
            "tool": ctx.tool,
            "enters": enters,
            "batch": batch,
            "syscall": name,
            "clock": machine.clock,
            "ring_enters": ctx.tracer.ring_enters,
            "instructions": machine.scheduler.total_instructions,
        }


class MicroBenchWorkload:
    """One Table II / Fig. 4 syscall-loop run (see ``microbench``).

    Options: ``iterations``, ``sysno``, ``steady_state`` (pre-rewrite the
    loop's syscall site under lazypoline so the measurement contains no
    slow-path executions — on by default, straight from §V-B a).  The tool
    accepts the full mechanism vocabulary of :func:`attach_mechanism`.
    """

    name = "microbench"

    def run(self, ctx: RunContext) -> dict:
        from repro.workloads.microbench import (
            NOSYS_SYSNO,
            build_syscall_loop,
            loop_syscall_site,
        )

        iterations = ctx.option("iterations", 400)
        sysno = ctx.option("sysno", NOSYS_SYSNO)
        steady_state = ctx.option("steady_state", True)
        ctx.reject_unknown_options(self.name)

        if ctx.interposer is None:
            ctx.interposer = passthrough_interposer
        machine = ctx.boot()
        process = machine.load(build_syscall_loop(iterations, sysno))
        tool = ctx.attach(machine, process)
        if steady_state and ctx.tool and ctx.tool.startswith("lazypoline"):
            tool.rewrite_site_now(loop_syscall_site(machine, process))
        machine.run_process(process, max_instructions=200_000_000)
        return {
            "workload": self.name,
            "tool": ctx.tool,
            "iterations": iterations,
            "sysno": sysno,
            "clock": machine.clock,
            "instructions": machine.scheduler.total_instructions,
        }


# ----------------------------------------------------------------- registry
#: name -> workload; each builds its Machine with ``ctx.boot()``, attaches
#: the tool with ``ctx.attach(machine, process)`` and returns a plain
#: JSON-serializable dict of simulated (deterministic) results.
_WORKLOADS = {
    w.name: w
    for w in (WebserverWorkload(), RingBenchWorkload(), MicroBenchWorkload())
}


def workload_names() -> list[str]:
    """Names accepted by :func:`run_workload`, sorted."""
    return sorted(_WORKLOADS)


def run_workload(
    name: str,
    *,
    tool: str | None = None,
    cores: int = 1,
    batched: bool = False,
    tracer=None,
    smp_seed: int = 0,
    interposer: Interposer | None = None,
    tool_opts: dict | None = None,
    machine_opts: dict | None = None,
    **options: Any,
) -> dict:
    """Run one named workload and return its result dict.

    The one entry point every benchmark, example and cluster shard goes
    through.  ``tool`` takes any :func:`attach_mechanism` name;
    ``tool_opts`` reach :func:`repro.interpose.attach` unchanged (e.g.
    ``degrade_policy=...``, zpoline's ``mode=...``); ``machine_opts``
    reach the :class:`Machine` constructor (``costs``, ``quantum``,
    ``superblocks``, ``translation_cache``, ``mmap_min_addr``);
    workload-specific keywords ride ``**options``.
    """
    impl = _WORKLOADS.get(name)
    if impl is None:
        raise ValueError(
            f"unknown workload {name!r}; available: {', '.join(workload_names())}"
        )
    ctx = RunContext(
        tool=tool,
        cores=cores,
        batched=batched,
        tracer=tracer,
        smp_seed=smp_seed,
        interposer=interposer,
        tool_opts=tool_opts,
        machine_opts=machine_opts,
        options=options,
    )
    return impl.run(ctx)
