"""The per-shard worker: one Machine + webserver per host process.

:func:`run_shard` is deliberately a *top-level function taking one plain
dict* so ``multiprocessing`` can pickle the call under any start method.
Everything it returns is JSON-serializable: the full
:func:`repro.workloads.runner.run_workload` result row plus an
:func:`obs_summary` of the shard's tracer.  Raw event streams stay
shard-local on purpose — at fleet scale they are the expensive part, and
the tracer's per-kind event ``counts`` are what the cluster front-end
actually merges (every named counter derives from them).

Chaos injection rides the same config dict (``config["chaos"]``, written
by the cluster's one shard-config builder from a
:class:`~repro.cluster.chaos.ChaosPlan`), so fork-Pool and inline runs
inject identically:

* ``crash`` truncates the shard's request budget at the crash point (the
  run up to it is byte-identical to an honest short run); a crash at
  request 0 never boots the machine and returns a dead row with
  ``result``/``obs`` of ``None`` — which the cluster's merge tolerates;
* ``hang`` partitions the wrk client at the hang point and bounds the
  run with an absolute deadline plus ``ring_park_timeout`` (parked ring
  entries cancel with ``-ETIMEDOUT`` instead of parking forever);
* ``degraded`` adds ``slow_cycles`` to every request's user-space cost;
* ``hostile`` boots the machine with a raised ``mmap_min_addr``, forcing
  the PR 5 degradation ladder at attach time.
"""

from __future__ import annotations

from repro.obs.tracer import Tracer
from repro.workloads.runner import run_workload


def obs_summary(tracer: Tracer) -> dict:
    """The serializable slice of a tracer: event counts + health.

    ``counts`` carries every named counter (see
    :data:`repro.obs.tracer.COUNTERS`); the other fields are the ones no
    event count holds.  Everything here is maintained at emit time (never
    an event walk) and is plain ints/strings, so it crosses the process
    boundary unchanged.
    """
    return {
        "counts": dict(tracer.counts),
        "interposition_counts": dict(tracer.interposition_counts),
        "ring_timeouts": tracer.ring_timeouts,
        "rewritten_sites": len(tracer.rewritten_sites),
        "dropped_events": tracer.dropped,
        "health": tracer.health(),
    }


def _apply_chaos(config: dict, chaos: dict) -> dict | None:
    """Rewrite ``config`` in place for the scheduled fault.

    Returns the chaos bookkeeping dict for the shard row, or the
    complete dead row's bookkeeping when the shard must not boot at all
    (crash at request 0) — the caller checks ``["status"] == "dead"``.
    """
    kind = chaos["kind"]
    assigned = config["requests"]
    if kind == "crash":
        point = min(max(0, chaos["at_request"]), assigned)
        if point == 0:
            return {"kind": kind, "status": "dead",
                    "assigned": assigned, "served": 0}
        config["requests"] = point
        return {"kind": kind, "status": "crashed",
                "assigned": assigned, "served": point}
    if kind == "hang":
        point = min(max(0, chaos["at_request"]), assigned)
        config["partition_after"] = config.get("warmup", 20) + point
        config["deadline_cycles"] = chaos["deadline_cycles"]
        machine_opts = dict(config.get("machine_opts") or {})
        machine_opts["ring_park_timeout"] = chaos["park_timeout_cycles"]
        config["machine_opts"] = machine_opts
        return {"kind": kind, "status": "hung",
                "assigned": assigned, "served": point}
    if kind == "degraded":
        slow = chaos["slow_cycles"]
        extra = config.get("request_extra_cycles")
        extra = list(extra) if extra is not None else [0] * assigned
        config["request_extra_cycles"] = [e + slow for e in extra]
        return {"kind": kind, "status": "ok",
                "assigned": assigned, "served": assigned}
    if kind == "hostile":
        machine_opts = dict(config.get("machine_opts") or {})
        machine_opts["mmap_min_addr"] = chaos["mmap_min_addr"]
        config["machine_opts"] = machine_opts
        return {"kind": kind, "status": "ok",
                "assigned": assigned, "served": assigned}
    raise ValueError(f"unknown chaos kind {kind!r}")


def run_shard(config: dict) -> dict:
    """Boot one shard and run its workload; the cluster worker entry point.

    ``config`` is ``{"shard": index, "smp_seed": seed, "workload": name,
    **run_workload kwargs}``.  A fresh aggregates-only tracer
    (``max_events=0``) is always attached: observability is free in
    simulated time, so the shard's numbers are byte-identical to an
    untraced direct :func:`run_workload` call with the same seed.

    An optional ``config["chaos"]`` entry (see :mod:`repro.cluster.chaos`)
    injects the shard's scheduled fault; the row then carries a
    ``"chaos"`` bookkeeping dict (``status``/``assigned``/``served``).
    A shard that dies at boot returns ``result``/``obs`` of ``None``.
    """
    config = dict(config)
    index = config.pop("shard")
    seed = config.pop("smp_seed")
    workload = config.pop("workload", "webserver")
    chaos = config.pop("chaos", None)
    chaos_info = None
    if chaos is not None:
        chaos_info = _apply_chaos(config, chaos)
        if chaos_info["status"] == "dead":
            return {"shard": index, "smp_seed": seed,
                    "result": None, "obs": None, "chaos": chaos_info}
    tracer = Tracer(max_events=0)
    result = run_workload(workload, tracer=tracer, smp_seed=seed, **config)
    row = {
        "shard": index,
        "smp_seed": seed,
        "result": result,
        "obs": obs_summary(tracer),
    }
    if chaos_info is not None:
        if "served" in result:
            chaos_info["served"] = result["served"]
            if chaos_info["kind"] == "hang" and not result["deadline_hit"]:
                chaos_info["status"] = "ok"  # hang point past the budget
        row["chaos"] = chaos_info
    return row
