"""The cluster: N Machine+webserver shards behind a simulated balancer.

``Cluster(shards=4, tool="lazypoline", batched=True).serve(requests=200)``
boots four independent simulated machines across host processes, splits
the wrk request stream across them through a :class:`LoadBalancer`, runs
each shard's webserver leg (direct, ring-batched, or — with
``batched="async"`` — the event-loop worker overlapping in-flight
requests through the asynchronous ring drain), and merges the results
into one cluster-wide report.

With ``sessions=S`` the shards share backend session state: the balancer
classifies every request as a session hit, cold miss or cross-shard
migration (see :mod:`repro.cluster.balancer`), and each miss/migration
costs the serving shard ``session_miss_cycles`` of user-space work,
threaded into the shard as a per-request ``request_extra_cycles``
schedule.  Sticky policies (``consistent_hash``) keep sessions home and
avoid the surcharge; ``round_robin`` pays a migration on nearly every
request — so policies now diverge in throughput and latency, not just in
per-shard counts.  ``sessions=0`` (default) reproduces the sessionless
report byte-for-byte.

Fleet fault tolerance rides the same serve loop.  ``chaos=`` takes a
:class:`~repro.cluster.chaos.ChaosPlan` (seeded per-shard crash/hang/
degraded/hostile faults, delivered through the shard configs so fork-Pool
and inline runs inject identically); ``deadline_cycles=`` arms a
per-request deadline.  ``serve`` is one retry loop: round 0 serves the
planned schedule, then failed requests (unserved on a crashed/hung shard,
or served past their deadline) are re-planned over live shards by the
health-checked balancer (:class:`~repro.cluster.health.HealthModel`: up →
suspect → down, per-shard circuit breakers with deterministic cooldown
ticks) under a capped-exponential-backoff
:class:`~repro.cluster.health.RetryPolicy` — all seeded and replayable.
Without faults nothing fails, and round 0 is the whole serve.  Every
shard config, round 0 or retry, comes from one builder
(:meth:`Cluster._shard_config`).

A non-empty plan or an armed deadline selects the faulted report: it
gains ``chaos`` and ``availability`` sections (success rate, retries,
failovers, p99 including failures), and its measured window is the
int-truncated cycle clock summed over rounds.  Otherwise the window is
the slowest shard's float ``measured_seconds`` and the report is
byte-identical to the fault-free cluster — an empty plan or a
``RetryPolicy`` alone changes nothing.

Determinism is the design constraint, not an afterthought:

* shard ``i`` seeds its machine with ``smp_seed + i`` — shard 0 of a
  1-shard cluster is *byte-identical* to a direct
  ``run_workload("webserver", ...)`` call with the same seed (retry
  round ``r`` re-seeds shard ``i`` with ``smp_seed + shards*r + i``);
* the balancer plans the whole request schedule before any shard boots,
  so there is no cross-process ordering to race on;
* every number in the report is simulated (cycles, simulated seconds,
  instruction counts) — host wall-clock and host scheduling never leak
  into it, so the same ``(shards, smp_seed, policy, chaos)`` always
  produces the same report.

Aggregation: cluster rps is total measured requests over the *slowest*
shard's measured window (shards run concurrently in simulated time; the
cluster is done when the last one is), latency percentiles are computed
over the merged per-request sample set, and per-shard obs summaries are
merged by summing every key (raw event streams never cross the process
boundary); the named totals are read off the merged event counts
through the tracer's one counter table.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.cluster.balancer import POLICIES, LoadBalancer
from repro.cluster.chaos import ChaosPlan
from repro.cluster.health import DOWN, HealthModel, RetryPolicy
from repro.cluster.shard import run_shard
from repro.cpu.costs import DEFAULT_COST_MODEL
from repro.faults.rng import SplitMix64
from repro.obs.tracer import COUNTERS, counter
from repro.workloads.wrk import latency_percentiles


#: The merged report's totals, in report order; :data:`COUNTERS` names
#: derive from the merged event counts, the rest are summed fields.
_OBS_TOTALS = ("ring_enters", "ring_entries", "ring_parks", "ring_completes",
               "ring_timeouts", "slowpath_total", "rewritten_sites",
               "dropped_events")


def _merge_obs(entries: list[dict], round0: list[dict]) -> dict:
    """Sum the obs summaries of ``entries``; keep round-0 health per shard
    (modes don't add).

    Every summary key is summed (dicts key by key), so keys no cluster
    code names merge too.  A shard that died at boot reports ``obs`` of
    ``None``; it adds nothing and its ``health_per_shard`` slot stays
    ``None``.
    """
    summed: dict = {}
    for entry in entries:
        for key, value in (entry.get("obs") or {}).items():
            if key == "health":
                continue
            if isinstance(value, dict):
                into = summed.setdefault(key, {})
                for name, n in value.items():
                    into[name] = into.get(name, 0) + n
            else:
                summed[key] = summed.get(key, 0) + value
    counts = summed.get("counts", {})
    return {
        "counts": counts,
        "interposition_counts": summed.get("interposition_counts", {}),
        **{name: counter(counts, name) if name in COUNTERS
           else summed.get(name, 0) for name in _OBS_TOTALS},
        "health_per_shard": [
            s["obs"]["health"] if s.get("obs") else None for s in round0
        ],
    }


class Cluster:
    """A fleet of webserver shards behind one simulated load balancer."""

    def __init__(
        self,
        shards: int = 2,
        *,
        tool: str | None = None,
        policy: str = "round_robin",
        batched: bool | str = False,
        cores: int = 1,
        smp_seed: int = 0,
        server: str = "nginx",
        file_size: int = 8192,
        sessions: int = 0,
        session_miss_cycles: int = 40_000,
        processes: bool | None = None,
        tool_opts: dict | None = None,
        machine_opts: dict | None = None,
        chaos: ChaosPlan | list | None = None,
        deadline_cycles: int | None = None,
        retry: RetryPolicy | None = None,
        tracer=None,
    ):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown balancing policy {policy!r}; "
                f"choose from {', '.join(POLICIES)}"
            )
        self.shards = shards
        self.tool = tool
        self.policy = policy
        self.batched = batched
        self.cores = cores
        self.smp_seed = smp_seed
        self.server = server
        self.file_size = file_size
        self.sessions = sessions
        self.session_miss_cycles = session_miss_cycles
        self.processes = processes
        #: the balancer behind the most recent plan (session stats source)
        self.last_balancer: LoadBalancer | None = None
        self.tool_opts = tool_opts
        self.machine_opts = machine_opts
        # ---------------------------------------------- fault layer (PR 10)
        if chaos is not None and not isinstance(chaos, ChaosPlan):
            chaos = ChaosPlan(list(chaos))
        if chaos is not None:
            for fault in chaos:
                if fault.shard >= shards:
                    raise ValueError(
                        f"fault targets shard {fault.shard} of a "
                        f"{shards}-shard cluster"
                    )
        self.chaos = chaos
        self.deadline_cycles = deadline_cycles
        self.retry = retry
        self.tracer = tracer
        #: the health model behind the most recent serve
        self.last_health: HealthModel | None = None

    # ------------------------------------------------------------------ plan
    def shard_configs(
        self,
        requests: int,
        *,
        warmup: int = 20,
        connections: int | None = None,
        client_cycles_per_request: int = 0,
    ) -> list[dict]:
        """Plan round 0: balance ``requests`` and build one picklable
        config per shard (shard ``i`` gets seed ``smp_seed + i``)."""
        balancer = LoadBalancer(self.shards, self.policy)
        counts = balancer.plan(requests, sessions=self.sessions)
        self.last_balancer = balancer
        if min(counts) < 1:
            raise ValueError(
                f"{requests} requests across {self.shards} shards under "
                f"{self.policy!r} starves a shard (counts={counts}); "
                f"send more traffic"
            )
        assigned: list[list[int]] = [[] for _ in range(self.shards)]
        for rid, shard in enumerate(balancer.assignments):
            assigned[shard].append(rid)
        client = {"warmup": warmup, "connections": connections,
                  "client_cycles_per_request": client_cycles_per_request}
        events = dict(enumerate(balancer.session_events))
        return [self._shard_config(shard, ids, 0, events, client)
                for shard, ids in enumerate(assigned)]

    def _shard_config(self, shard: int, ids: list[int], round_: int,
                      events: dict, client: dict) -> dict:
        """Shard ``shard``'s config for serving ``ids`` in round ``round_``.

        Every round boots a fresh machine seeded ``smp_seed + shards *
        round_ + shard``.  With sessions on, a request whose session
        event in ``events`` is a miss or migration pays
        ``session_miss_cycles``.  Round 0 carries the shard's scheduled
        fault as ``config["chaos"]`` — the only delivery path, so
        fork-Pool and inline runs inject identically.  Retry rounds
        re-apply only persistent (degraded/hostile) faults: one-shot
        crash/hang faults do not repeat, which is what a half-open probe
        restart means.
        """
        config = {
            "shard": shard,
            "smp_seed": self.smp_seed + self.shards * round_ + shard,
            "workload": "webserver",
            "server": self.server,
            "tool": self.tool,
            "cores": self.cores,
            "batched": self.batched,
            "file_size": self.file_size,
            "requests": len(ids),
            **client,
        }
        if self.sessions:
            config["request_extra_cycles"] = [
                self.session_miss_cycles
                if events[rid] in ("miss", "migrate") else 0
                for rid in ids
            ]
        if self.tool_opts is not None:
            config["tool_opts"] = self.tool_opts
        if self.machine_opts is not None:
            config["machine_opts"] = self.machine_opts
        fault = self.chaos.fault_for(shard) if self.chaos is not None \
            else None
        if fault is not None and (
                round_ == 0 or fault.kind in ("degraded", "hostile")):
            config["chaos"] = fault.to_config()
        return config

    # ------------------------------------------------------------------ boot
    def _run_shards(self, configs: list[dict]) -> list[dict]:
        use_processes = self.processes
        if use_processes is None:
            use_processes = len(configs) > 1
        if not use_processes:
            return [run_shard(c) for c in configs]
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # no fork on this host: results are identical
            ctx = multiprocessing.get_context("spawn")
        workers = min(len(configs), os.cpu_count() or 1)
        with ctx.Pool(workers) as pool:
            return pool.map(run_shard, configs)

    # ----------------------------------------------------------------- serve
    def serve(
        self,
        requests: int = 200,
        *,
        warmup: int = 20,
        connections: int | None = None,
        client_cycles_per_request: int = 0,
    ) -> dict:
        """Serve ``requests`` across the fleet and return the merged report.

        ``warmup`` and ``connections`` are per shard (each shard runs its
        own wrk client); ``requests`` is the cluster-wide total the
        balancer splits.  Round 0 serves the planned schedule; failed
        requests retry on live shards until they succeed, the
        :class:`RetryPolicy` runs out of attempts or no shard is
        routable.  A non-empty chaos plan or a per-request deadline
        selects the faulted report (see the module docstring).
        """
        freq = DEFAULT_COST_MODEL.frequency_hz
        faulted = bool(self.chaos) or self.deadline_cycles is not None
        deadline = self.deadline_cycles
        retry = self.retry if self.retry is not None else RetryPolicy()
        jitter_rng = SplitMix64(self.smp_seed ^ 0xC11A05F417)
        health = self.last_health = HealthModel(
            self.shards, tracer=self.tracer)
        client = {"warmup": warmup, "connections": connections,
                  "client_cycles_per_request": client_cycles_per_request}

        # per-request outcome state, across rounds
        success: dict[int, int] = {}  # rid -> client-perceived latency
        penalty: dict[int, int] = {}  # rid -> accumulated backoff cycles
        duplicate_serves = 0
        timeout_count = 0
        all_entries: list[dict] = []
        clock = 0  # cumulative measured-window cycles, backoffs included

        def run_round(configs: list[dict], id_lists: dict[int, list[int]],
                      round_: int) -> tuple[list[dict], list[tuple[int, int]]]:
            """Run one round's shards and fold their rows into outcomes
            and heartbeats; returns the rows and the failed
            ``(rid, from_shard)`` pairs."""
            nonlocal clock, duplicate_serves, timeout_count
            entries = sorted(self._run_shards(configs),
                             key=lambda s: s["shard"])
            all_entries.extend(entries)
            rows = [e["result"] for e in entries if e["result"] is not None]
            if rows:
                clock += int(max(r["measured_seconds"] for r in rows) * freq)
            failed: list[tuple[int, int]] = []
            for entry in entries:
                shard = entry["shard"]
                ids = id_lists[shard]
                result = entry["result"]
                info = entry.get("chaos")
                if result is None:
                    served = 0
                    status = "dead"
                    samples = []
                else:
                    served = result.get("served", result["requests"])
                    status = info["status"] if info else "ok"
                    samples = result["latency_samples_cycles"]
                timeouts = 0
                for j, rid in enumerate(ids[:served]):
                    latency = samples[j] if j < len(samples) else 0
                    if deadline is not None and latency > deadline:
                        timeouts += 1
                        failed.append((rid, shard))
                        continue
                    if rid in success:
                        duplicate_serves += 1
                        continue
                    success[rid] = latency + penalty.get(rid, 0)
                for rid in ids[served:]:
                    failed.append((rid, shard))
                timeout_count += timeouts
                health.observe(
                    shard,
                    {"status": status, "assigned": len(ids),
                     "served": served, "timeouts": timeouts},
                    round_=round_, ts=clock,
                )
            return entries, failed

        configs = self.shard_configs(requests, **client)
        balancer = self.last_balancer
        assigned: dict[int, list[int]] = {s: [] for s in range(self.shards)}
        for rid, shard in enumerate(balancer.assignments):
            assigned[shard].append(rid)
        per_shard, failed = run_round(configs, assigned, 0)

        retry_rounds: list[dict] = []
        failover_count = 0

        for attempt in range(1, retry.max_attempts):
            if not failed:
                break
            health.begin_round(attempt, ts=clock)
            routable = set(health.routable())
            if not routable:
                break
            backoff = retry.backoff(attempt, jitter_rng)
            clock += backoff
            failed.sort()
            origin = dict(failed)
            ids = [rid for rid, _ in failed]
            for rid in ids:
                penalty[rid] = penalty.get(rid, 0) + backoff
            balancer.set_down(set(range(self.shards)) - routable)
            start = len(balancer.session_events)
            routed = balancer.replan(ids, sessions=self.sessions)
            # surcharges follow this first routing's session events, also
            # for requests a probe quota then moves elsewhere
            event_of = dict(zip(ids, balancer.session_events[start:]))
            routed = self._trim_probes(routed, health, routable)
            per_target: dict[int, list[int]] = {}
            for rid, target in routed:
                per_target.setdefault(target, []).append(rid)
                if target != origin[rid]:
                    failover_count += 1
            if self.tracer is not None:
                pairs: dict[tuple[int, int], int] = {}
                for rid, target in routed:
                    key = (origin[rid], target)
                    pairs[key] = pairs.get(key, 0) + 1
                for (src, dst), n in sorted(pairs.items()):
                    self.tracer.failover(clock, src, dst, n, round_=attempt)
                self.tracer.retry(clock, attempt, len(routed), backoff)

            configs = [
                self._shard_config(target, per_target[target], attempt,
                                   event_of, client)
                for target in sorted(per_target)
            ]
            _, failed = run_round(configs, per_target, attempt)
            retry_rounds.append({
                "round": attempt,
                "backoff_cycles": backoff,
                "requests": len(routed),
                "per_shard": {str(s): len(per_target[s])
                              for s in sorted(per_target)},
                "failed_after": len(failed),
            })

        # ----------------------------------------------------------- report
        rows = [s["result"] for s in per_shard]
        completed = len(success)
        final_failed = sorted(rid for rid, _ in failed)
        ok_samples = sorted(success.values())
        pct = latency_percentiles(ok_samples)
        if faulted:
            measured_seconds = clock / freq if freq else 0.0
        else:  # the fleet finishes when its slowest shard does
            measured_seconds = max(r["measured_seconds"] for r in rows)
        obs = _merge_obs(all_entries, per_shard)
        report = {
            "workload": "cluster-webserver",
            "shards": self.shards,
            "policy": self.policy,
            "tool": self.tool,
            "batched": self.batched,
            "cores": self.cores,
            "smp_seed": self.smp_seed,
            "server": self.server,
            "file_size": self.file_size,
            "requests_total": completed,
            "requests_per_shard": [r["requests"] if r else 0 for r in rows],
            "warmup_per_shard": warmup,
            "requests_per_sec": (
                completed / measured_seconds if measured_seconds else 0.0
            ),
            "measured_seconds": measured_seconds,
            "latency_p50_cycles": pct["p50"],
            "latency_p95_cycles": pct["p95"],
            "latency_p99_cycles": pct["p99"],
            "guest_mips_per_shard": [
                r["guest_mips"] if r else 0.0 for r in rows
            ],
            "guest_mips_total": sum(r["guest_mips"] for r in rows if r),
        }
        if self.sessions:
            # Only present when the session model is on, so sessionless
            # reports stay byte-identical to the pre-session cluster.
            report["sessions"] = self.sessions
            report["session_miss_cycles"] = self.session_miss_cycles
            report["session_stats"] = balancer.session_stats()
        if faulted:
            fail_latency = deadline if deadline is not None else \
                max((f.deadline_cycles for f in self.chaos), default=4_000_000)
            pct_incl = latency_percentiles(
                ok_samples + [fail_latency] * len(final_failed)
            )
            report["chaos"] = {
                "plan": [f.to_config() | {"shard": f.shard}
                         for f in (self.chaos or ())],
                "deadline_cycles": deadline,
                "retry": {
                    "max_attempts": retry.max_attempts,
                    "backoff_base_cycles": retry.backoff_base_cycles,
                    "backoff_cap_cycles": retry.backoff_cap_cycles,
                },
            }
            report["availability"] = {
                "requests": requests,
                "completed": completed,
                "failed": len(final_failed),
                "failed_ids": final_failed,
                "duplicate_serves": duplicate_serves,
                "success_rate": round(completed / requests, 6) if requests
                else 1.0,
                "rounds": 1 + len(retry_rounds),
                "retries": sum(r["requests"] for r in retry_rounds),
                "failovers": failover_count,
                "timeouts": timeout_count,
                "ring_timeouts": obs["ring_timeouts"],
                "backoff_cycles": [r["backoff_cycles"] for r in retry_rounds],
                "retry_rounds": retry_rounds,
                "shards_down": [s for s in range(self.shards)
                                if health.states[s] == DOWN],
                "health": health.snapshot(),
                "latency_p99_cycles_incl_failures": pct_incl["p99"],
            }
        report["obs"] = obs
        report["results"] = rows
        return report

    # ------------------------------------------------------- retry helpers
    def _trim_probes(self, routed: list[tuple[int, int]],
                     health: HealthModel,
                     routable: set[int]) -> list[tuple[int, int]]:
        """Cap half-open shards at their probe quota; overflow re-routes
        to fully-live shards (or stays put when only probes are live)."""
        quotas = {s: health.probe_quota(s) for s in routable}
        if not any(q is not None for q in quotas.values()):
            return routed
        kept: list[tuple[int, int]] = []
        counts: dict[int, int] = {}
        overflow: list[int] = []
        for rid, target in routed:
            quota = quotas.get(target)
            if quota is not None and counts.get(target, 0) >= quota:
                overflow.append(rid)
                continue
            counts[target] = counts.get(target, 0) + 1
            kept.append((rid, target))
        if overflow:
            probing = {s for s, q in quotas.items() if q is not None}
            steady = routable - probing
            if steady:
                balancer = self.last_balancer
                balancer.set_down(set(range(self.shards)) - steady)
                kept.extend(balancer.replan(overflow,
                                            sessions=self.sessions))
                balancer.set_down(set(range(self.shards)) - routable)
            else:  # only probes are live: quota yields to availability
                for rid, target in routed:
                    if rid in overflow:
                        kept.append((rid, target))
        return sorted(kept)
