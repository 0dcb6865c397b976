"""Outside-in layer tracing for the traced run.

The traced run wraps public layer entry points of the simulator from this
file (nothing under ``src/`` knows about it): each wrapper pushes a frame
on one span stack, times the call, and folds it into per-boundary
aggregates.  A span's self time is its duration minus the part its child
spans cover, so the self times of all spans partition the time spent
inside top-level spans exactly.  The wrappers' own cost is calibrated
per call and subtracted: ``c_in`` lands inside a span, ``c_out`` in its
caller.  Over the measured window ``W`` (host time, host-speed probes
excluded)::

    W = sum(corrected self times) + wrapper overhead + unattributed

where *unattributed* is host time outside every span (the driving loop,
``Scheduler.run`` between slices, the benchmark's own code).

Hot boundaries (one call per guest instruction or memory access) are
aggregated only; every other span is also kept, up to a cap, for the
Chrome trace.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import time

from repro import interpose
from repro.cluster import cluster as cluster_mod
from repro.cluster.balancer import LoadBalancer
from repro.cluster.cluster import Cluster
from repro.cluster.health import HealthModel
from repro.cpu.core import CPU
from repro.kernel.kernel import Kernel
from repro.kernel.machine import Machine
from repro.kernel.scheduler import Scheduler
from repro.kernel.signals import SignalDelivery
from repro.kernel.syscalls.table import NR
from repro.mem.address_space import AddressSpace
from repro.obs.tracer import Tracer

#: Non-hot spans kept for the Chrome trace (later ones are counted only).
MAX_SPANS = 1000


def _boundaries() -> list[tuple[object, str, str, bool]]:
    """``(owner, attribute, layer, hot)`` for every plainly wrapped entry."""
    rows = [
        (CPU, "step", "cpu", True),
        (CPU, "compile_superblock", "cpu", False),
        (Scheduler, "run_task_slice", "kernel.scheduler", False),
        (Kernel, "on_syscall", "kernel.entry", False),
        (Kernel, "complete_ring_waiters", "kernel.uring", False),
        (SignalDelivery, "deliver_now", "kernel.signals", False),
        (SignalDelivery, "deliver_pending", "kernel.signals", False),
        (SignalDelivery, "sigreturn", "kernel.signals", False),
        (Kernel, "fire_due_events", "kernel.events", False),
        (Kernel, "advance_time", "kernel.events", False),
        (interpose, "attach", "interpose.attach", False),
        (LoadBalancer, "plan", "cluster", False),
        (LoadBalancer, "replan", "cluster", False),
        (HealthModel, "observe", "cluster", False),
        (Cluster, "serve", "cluster", False),
    ]
    # The traced run's own Tracer gets a layer too, so its emit cost is not
    # billed to the kernel layers that call it.
    for owner, layer in ((AddressSpace, "mem"), (Tracer, "obs")):
        rows += [
            (owner, attr, layer, True)
            for attr, value in vars(owner).items()
            if not attr.startswith("_") and inspect.isfunction(value)
        ]
    return rows


def _label(owner, attr: str) -> str:
    return f"{owner.__name__}.{attr}"


class Recorder:
    """A span stack plus per-boundary aggregates.

    ``stats[name]`` is ``[calls, entries, incl_s, self_s, child_calls]``;
    *entries* counts only calls made from another layer (or from no span
    at all), so a layer's call count is not inflated by its own nesting.
    """

    def __init__(self, keep: int = MAX_SPANS):
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}
        self.layers: dict[str, str] = {}
        #: kept non-hot spans: (name, start, end, parent name, op)
        self.spans: list[tuple] = []
        self.keep = keep
        self.dropped = 0
        #: op tag stamped on kept spans (guest index or shard id)
        self.op = None
        self.root_incl = 0.0
        self.origin = time.perf_counter()

    def reset(self) -> None:
        """Start the measured window: forget everything recorded so far."""
        if self.stack:
            raise RuntimeError("measured window opened inside a traced call")
        for row in self.stats.values():
            row[:] = [0, 0, 0.0, 0.0, 0]
        self.spans.clear()
        self.dropped = 0
        self.root_incl = 0.0
        self.origin = time.perf_counter()

    def calls(self) -> int:
        """Traced calls recorded since the window opened."""
        return sum(row[0] for row in self.stats.values())

    def wrap(self, name: str, layer: str, fn, *, hot: bool = False):
        """A wrapper recording every call of ``fn`` as span ``name``."""
        row = self.stats.setdefault(name, [0, 0, 0.0, 0.0, 0])
        self.layers[name] = layer
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        rec = self

        def wrapper(*args, **kwargs):
            frame = [0.0, 0, layer, name]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                row[0] += 1
                row[2] += dur
                row[3] += dur - frame[0]
                row[4] += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    parent[1] += 1
                    if parent[2] != layer:
                        row[1] += 1
                    parent_name = parent[3]
                else:
                    row[1] += 1
                    rec.root_incl += dur
                    parent_name = None
                if not hot:
                    if len(spans) < rec.keep:
                        spans.append((name, t0, t1, parent_name, rec.op))
                    else:
                        rec.dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper


def _noop() -> None:
    pass


def calibrate(trials: int = 5, calls: int = 20_000) -> dict:
    """Measure the per-call wrapper cost, inside the span and in its caller.

    ``in_s`` is the recorded duration of a wrapped empty function;
    ``out_s`` is how much longer a caller's self time gets per wrapped
    call than per plain call.  Medians over ``trials``.
    """
    inside, outside = [], []
    for _ in range(trials):
        rec = Recorder(keep=0)
        leaf = rec.wrap("leaf", "calibration", _noop, hot=True)

        def plain_calls():
            for _ in range(calls):
                _noop()

        def wrapped_calls():
            for _ in range(calls):
                leaf()

        rec.wrap("plain", "caller", plain_calls)()
        rec.wrap("wrapped", "caller", wrapped_calls)()
        inside.append(rec.stats["leaf"][2] / calls)
        outside.append(
            (rec.stats["wrapped"][3] - rec.stats["plain"][3]) / calls
        )
    return {"in_s": statistics.median(inside),
            "out_s": statistics.median(outside)}


class MachineCounters:
    """Public counters of every machine that ran in the measured window.

    Machines are seen through ``Machine.load``.  Workloads run their
    machines one after another, so a machine is finished when the next
    one loads; its counters are folded then (minus what it had counted
    when the window opened) and the machine is let go.
    """

    def __init__(self):
        self.total: dict[str, float] = {}
        self.current = None
        self.base: dict = {}
        self.state = "setup"

    def loaded(self, machine) -> None:
        if self.state == "closed" or machine is self.current:
            return
        if self.state == "open":
            self._fold()
        self.current = machine

    def open(self) -> None:
        self.state = "open"
        self.total = {}
        if self.current is not None:
            self.base = machine_counters(self.current)

    def close(self) -> None:
        self._fold()
        self.state = "closed"

    def _fold(self) -> None:
        if self.current is None:
            return
        for key, value in machine_counters(self.current).items():
            self.total[key] = (self.total.get(key, 0) + value
                               - self.base.get(key, 0))
        self.current = None
        self.base = {}


def machine_counters(machine) -> dict:
    """Cumulative public counters of one machine (and its tracer)."""
    blocks = machine.superblock_stats()
    out = {
        "insns": machine.scheduler.total_instructions,
        "clock": machine.clock,
        "busy_cycles": sum(row["busy_cycles"] for row in machine.core_stats()),
        "block_compiles": blocks["compiled"],
        "block_invalidations": blocks["invalidated"],
        "block_runs": blocks["block_runs"],
        "block_insns": blocks["block_insns"],
    }
    tracer = machine.tracer
    if tracer is not None:
        out.update(
            ctx_switches=tracer.counts.get("ctx_switch", 0),
            exec_invalidations=tracer.cache_invalidations,
            sled_enters=tracer.counts.get("sled_enter", 0),
            sigsys_traps=tracer.slowpath_total,
            rewrites=tracer.counts.get("rewrite", 0),
            ring_enters=tracer.ring_enters,
            ring_entries=tracer.ring_entries,
            ring_parks=tracer.ring_parks,
            ring_timeouts=tracer.ring_timeouts,
            syscall_cycles=sum(a.cycles for a in tracer.syscalls.values()),
            syscall_errors=sum(a.errors for a in tracer.syscalls.values()),
        )
    return out


@contextlib.contextmanager
def instrumented(rec: Recorder, counters: MachineCounters):
    """Wrap every layer boundary for the duration of the block.

    Patches functions on their classes (and module-level names where they
    are looked up), so it must be entered before the machine is built.
    Every patched attribute is restored on exit, even on error.
    """
    saved: list[tuple[object, str, object]] = []

    def put(owner, attr: str, value) -> None:
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        for owner, attr, layer, hot in _boundaries():
            put(owner, attr, rec.wrap(_label(owner, attr), layer,
                                      vars(owner)[attr], hot=hot))

        # ring_enter is dispatched like any syscall; its time is the ring's
        original_dispatch = vars(Kernel)["dispatch"]
        plain = rec.wrap("Kernel.dispatch", "kernel.dispatch",
                         original_dispatch)
        ring = rec.wrap("Kernel.dispatch.ring_enter", "kernel.uring",
                        original_dispatch)
        ring_enter = NR["ring_enter"]

        def dispatch(kernel, task, sysno, args):
            return (ring if sysno == ring_enter else plain)(
                kernel, task, sysno, args)

        put(Kernel, "dispatch", dispatch)

        # host calls: the tools' handlers are the interposer layer, the
        # workloads' own (e.g. the webserver's request parsing) are app code
        original_register = vars(Kernel)["register_hcall"]

        def register_hcall(kernel, fn):
            module = getattr(fn, "__module__", None) or ""
            layer = ("interpose.hcall" if module.startswith("repro.interpose")
                     else "app.hcall")
            return original_register(
                kernel, rec.wrap(f"hcall.{fn.__name__}", layer, fn))

        put(Kernel, "register_hcall", register_hcall)

        load = rec.wrap("Machine.load", "loader", vars(Machine)["load"])

        def load_counted(machine, *args, **kwargs):
            counters.loaded(machine)
            return load(machine, *args, **kwargs)

        put(Machine, "load", load_counted)

        shard = rec.wrap("repro.cluster.cluster.run_shard", "cluster",
                         cluster_mod.run_shard)

        def run_shard(config):
            outer, rec.op = rec.op, config["shard"]
            try:
                return shard(config)
            finally:
                rec.op = outer

        put(cluster_mod, "run_shard", run_shard)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def breakdown(rec: Recorder, calib: dict) -> dict:
    """Per-boundary and per-layer aggregates, wrapper cost subtracted."""
    c_in, c_out = calib["in_s"], calib["out_s"]
    names, layers = {}, {}
    for name, (calls, entries, incl, self_s, child_calls) in rec.stats.items():
        if not calls:
            continue
        corrected = self_s - calls * c_in - child_calls * c_out
        names[name] = {"layer": rec.layers[name], "calls": calls,
                       "entries": entries, "incl_s": incl,
                       "self_s": corrected}
        layer = layers.setdefault(rec.layers[name],
                                  {"calls": 0, "self_s": 0.0})
        layer["calls"] += entries
        layer["self_s"] += corrected
    return {"names": names, "layers": layers}


def account(rec: Recorder, calib: dict, window_s: float,
            parts: dict) -> dict:
    """Split the traced window into spans, wrapper overhead and the rest."""
    calls = rec.calls()
    spans_s = sum(layer["self_s"] for layer in parts["layers"].values())
    overhead_s = calls * (calib["in_s"] + calib["out_s"])
    return {
        "window_s": window_s,
        "spans_self_s": spans_s,
        "wrapper_overhead_s": overhead_s,
        "unattributed_s": window_s - spans_s - overhead_s,
        "raw_self_s": sum(row[3] for row in rec.stats.values()),
        "root_incl_s": rec.root_incl,
        "span_calls": calls,
    }


def layer_metrics(parts: dict, counters: dict, ops: int, cluster: dict,
                  accounting: dict, speed: float) -> dict:
    """The per-layer metrics of one traced run, every one per op.

    Host times are scaled by ``speed`` to the nominal host, like the
    end-to-end host metrics (see :mod:`benchmarks.e2e.hostspeed`).
    """
    names, layers = parts["names"], parts["layers"]
    us = 1e6 * speed
    none = {"calls": 0, "entries": 0, "incl_s": 0.0, "self_s": 0.0}

    def name(key):
        return names.get(key, none)

    def layer(key):
        return layers.get(key, none)

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    c = counters.get
    step, compile_ = name("CPU.step"), name("CPU.compile_superblock")
    plan_s = (name("LoadBalancer.plan")["self_s"]
              + name("LoadBalancer.replan")["self_s"])
    metrics = {
        "cpu.step.calls_per_op": per_op(step["calls"]),
        "cpu.step.self_us_per_op": per_op(step["self_s"] * us),
        "cpu.guest_insns_per_op": per_op(c("insns", 0)),
        "cpu.compile.calls_per_op": per_op(compile_["calls"]),
        "cpu.compile.self_us_per_op": per_op(compile_["self_s"] * us),
        "cpu.blocks.runs_per_op": per_op(c("block_runs", 0)),
        "cpu.blocks.runs_per_compile": ratio(c("block_runs", 0),
                                             c("block_compiles", 0)),
        "cpu.blocks.insn_share": ratio(c("block_insns", 0), c("insns", 0)),
        "cpu.blocks.invalidated_per_op": per_op(c("block_invalidations", 0)),
        "kernel.scheduler.slices_per_op": per_op(
            name("Scheduler.run_task_slice")["calls"]),
        "kernel.scheduler.ctx_switches_per_op": per_op(c("ctx_switches", 0)),
        "kernel.scheduler.busy_share": ratio(c("busy_cycles", 0),
                                             c("clock", 0)),
        "mem.exec_invalidations_per_op": per_op(c("exec_invalidations", 0)),
        "kernel.dispatch.sim_cycles_per_op": per_op(c("syscall_cycles", 0)),
        "kernel.dispatch.errors_per_op": per_op(c("syscall_errors", 0)),
        "kernel.uring.enters_per_op": per_op(c("ring_enters", 0)),
        "kernel.uring.entries_per_enter": ratio(c("ring_entries", 0),
                                                c("ring_enters", 0)),
        "kernel.uring.parks_per_op": per_op(c("ring_parks", 0)),
        "kernel.uring.timeouts_per_op": per_op(c("ring_timeouts", 0)),
        "interpose.attach.self_us_per_op": per_op(
            layer("interpose.attach")["self_s"] * us),
        "loader.load.self_us_per_op": per_op(layer("loader")["self_s"] * us),
        "interpose.sled_enters_per_op": per_op(c("sled_enters", 0)),
        "interpose.sigsys_traps_per_op": per_op(c("sigsys_traps", 0)),
        "interpose.rewrites_per_op": per_op(c("rewrites", 0)),
        "interpose.fast_path_ratio": (
            1.0 - ratio(c("sigsys_traps", 0), c("sled_enters", 0))
            if c("sled_enters", 0) else 0.0),
        "cluster.plan_us_per_op": per_op(plan_s * us),
        "cluster.shard_incl_us_per_op": per_op(
            name("repro.cluster.cluster.run_shard")["incl_s"] * us),
        "cluster.retries_per_op": per_op(cluster.get("retries", 0)),
        "cluster.failovers_per_op": per_op(cluster.get("failovers", 0)),
        "cluster.rounds": cluster.get("rounds", 0),
        "cluster.sticky_ratio": cluster.get("sticky_ratio", 0.0),
        "cluster.shard_window_skew": cluster.get("shard_window_skew", 0.0),
        "bench.unattributed_share": ratio(accounting["unattributed_s"],
                                          accounting["window_s"]),
    }
    for key in ("mem", "kernel.entry", "kernel.dispatch", "kernel.signals",
                "kernel.events", "interpose.hcall"):
        metrics[f"{key}.calls_per_op"] = per_op(layer(key)["calls"])
        metrics[f"{key}.self_us_per_op"] = per_op(layer(key)["self_s"] * us)
    for key in ("kernel.scheduler", "kernel.uring", "cluster"):
        metrics[f"{key}.self_us_per_op"] = per_op(layer(key)["self_s"] * us)
    return metrics


def chrome_trace(rec: Recorder, meta: dict) -> dict:
    """The kept spans as a Chrome trace (``chrome://tracing``, Perfetto)."""
    events = []
    for name, t0, t1, parent, op in rec.spans:
        args = {"parent": parent}
        if op is not None:
            args["op"] = op
        events.append({
            "name": name, "cat": rec.layers[name], "ph": "X", "pid": 1,
            "tid": 1, "ts": round((t0 - rec.origin) * 1e6, 3),
            "dur": round((t1 - t0) * 1e6, 3), "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": dict(meta, dropped_spans=rec.dropped)}
