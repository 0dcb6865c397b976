"""Fleet-scale cluster serving: balancer policies, multi-process shards,
cross-process determinism.

The acceptance contract (ISSUE 8): the same ``(shards, smp_seed,
policy)`` must produce the identical report twice — aggregate rps,
latency tuples *and* per-shard obs counters — and a 1-shard cluster must
be byte-identical to a direct :func:`run_workload` webserver run.
Everything in a report is simulated time, so this holds across host
processes, fork or no fork.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import (
    POLICIES,
    ChaosPlan,
    Cluster,
    LoadBalancer,
    ShardFault,
    fnv1a,
    run_shard,
)
from repro.cluster import cluster as cluster_mod
from repro.cluster import shard as shard_mod
from repro.obs import events as K
from repro.obs.tracer import COUNTERS, Tracer, counter
from repro.workloads.runner import run_workload

pytestmark = pytest.mark.cluster

REQUESTS = 48
WARMUP = 6


def small_cluster(**kw):
    kw.setdefault("shards", 2)
    return Cluster(**kw)


# ---------------------------------------------------------------- balancer
def test_fnv1a_is_process_stable():
    # pinned values: the consistent-hash ring must agree across host
    # processes and python versions (builtin hash is salted; this isn't)
    assert fnv1a(b"req-0") == 0xAA072E09CA773097
    assert fnv1a(b"shard-0:vnode-0") == 0x36A253C2CDA696E7
    assert fnv1a(b"req-0") != fnv1a(b"req-1")


def test_round_robin_splits_evenly():
    counts = LoadBalancer(4, "round_robin").plan(100)
    assert counts == [25, 25, 25, 25]


def test_least_conn_splits_evenly_on_homogeneous_shards():
    counts = LoadBalancer(4, "least_conn").plan(100)
    assert counts == [25, 25, 25, 25]


def test_consistent_hash_uses_every_shard_and_is_sticky():
    lb = LoadBalancer(4, "consistent_hash")
    counts = lb.plan(200)
    assert all(c > 0 for c in counts), counts
    assert sum(counts) == 200
    # stickiness: the same key always routes to the same shard
    lb2 = LoadBalancer(4, "consistent_hash")
    assert lb2.assign("user-42") == lb2.assign("user-42")


@pytest.mark.parametrize("policy", POLICIES)
def test_balancer_plan_is_deterministic(policy):
    a = LoadBalancer(3, policy)
    b = LoadBalancer(3, policy)
    assert a.plan(90) == b.plan(90)
    assert a.assignments == b.assignments


def test_balancer_rejects_unknowns():
    with pytest.raises(ValueError, match="policy"):
        LoadBalancer(2, "random")
    with pytest.raises(ValueError, match="shard"):
        LoadBalancer(0)
    with pytest.raises(ValueError, match="policy"):
        Cluster(2, policy="weighted")
    with pytest.raises(ValueError, match="shard"):
        Cluster(0)


def test_starved_shard_is_an_error():
    with pytest.raises(ValueError, match="starves"):
        Cluster(shards=4).shard_configs(3)


# ------------------------------------------------------------- determinism
def test_same_seed_same_report():
    """Same (shards, smp_seed, policy) twice → identical report, down to
    the per-shard obs counters."""
    kw = dict(shards=2, tool="lazypoline", smp_seed=7)
    rep1 = Cluster(**kw).serve(requests=REQUESTS, warmup=WARMUP)
    rep2 = Cluster(**kw).serve(requests=REQUESTS, warmup=WARMUP)
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert rep1["obs"]["counts"] == rep2["obs"]["counts"]
    assert (rep1["obs"]["health_per_shard"]
            == rep2["obs"]["health_per_shard"])


def test_in_process_matches_multi_process():
    """Host process boundaries never leak into the simulated numbers."""
    kw = dict(shards=2, tool=None, smp_seed=3)
    forked = Cluster(processes=True, **kw).serve(requests=REQUESTS,
                                                 warmup=WARMUP)
    inline = Cluster(processes=False, **kw).serve(requests=REQUESTS,
                                                  warmup=WARMUP)
    assert json.dumps(forked, sort_keys=True) == json.dumps(
        inline, sort_keys=True
    )


def test_single_shard_matches_direct_run_workload():
    """shards=1 is byte-identical to the unified runner called directly."""
    rep = Cluster(shards=1, tool="lazypoline", smp_seed=5).serve(
        requests=REQUESTS, warmup=WARMUP
    )
    direct = run_workload(
        "webserver", tool="lazypoline", smp_seed=5, server="nginx",
        cores=1, batched=False, file_size=8192, requests=REQUESTS,
        warmup=WARMUP, connections=None, client_cycles_per_request=0,
    )
    assert json.dumps(rep["results"][0], sort_keys=True) == json.dumps(
        direct, sort_keys=True
    )
    assert rep["requests_per_sec"] == pytest.approx(
        direct["requests_per_sec"]
    )


def test_per_shard_seeds_differ():
    rep = Cluster(shards=2, smp_seed=10).serve(requests=REQUESTS,
                                               warmup=WARMUP)
    assert [r["smp_seed"] for r in rep["results"]] == [10, 11]


# ------------------------------------------------------------- aggregation
def test_report_aggregates_are_consistent():
    rep = small_cluster(tool="lazypoline", batched=True).serve(
        requests=REQUESTS, warmup=WARMUP
    )
    rows = rep["results"]
    assert rep["requests_total"] == sum(r["requests"] for r in rows)
    assert rep["measured_seconds"] == max(
        r["measured_seconds"] for r in rows
    )
    assert rep["requests_per_sec"] == pytest.approx(
        rep["requests_total"] / rep["measured_seconds"]
    )
    assert rep["guest_mips_total"] == pytest.approx(
        sum(rep["guest_mips_per_shard"])
    )
    # merged latency percentiles come from the merged sample set
    merged = sorted(
        s for r in rows for s in r["latency_samples_cycles"]
    )
    assert rep["latency_p50_cycles"] in merged
    assert rep["latency_p99_cycles"] >= rep["latency_p50_cycles"]


def test_obs_merge_sums_shard_counters(monkeypatch):
    """The merged obs sums every count key of every shard row of every
    round — keys no cluster code names included — and each named
    counter, on a tracer or merged, is its ``COUNTERS`` expression."""
    tracers = []

    def recording_tracer(**kwargs):
        tracers.append(Tracer(**kwargs))
        return tracers[-1]

    def tagged_shard(config):
        row = run_shard(config)
        row["obs"]["counts"]["bench.x"] = 1
        return row

    monkeypatch.setattr(shard_mod, "Tracer", recording_tracer)
    # serve looks run_shard up at call time, so the wrapper sees every shard
    monkeypatch.setattr(cluster_mod, "run_shard", tagged_shard)
    fleet = Tracer()
    rep = Cluster(
        shards=2, tool="lazypoline", batched="async", processes=False,
        tracer=fleet,
        chaos=ChaosPlan([ShardFault(shard=1, kind="crash", at_request=2)]),
    ).serve(requests=24, warmup=4, connections=4,
            client_cycles_per_request=120_000)
    obs = rep["obs"]
    assert obs["counts"].pop("bench.x") == len(tracers) > 2  # retries too
    kinds = set().union(*(t.counts for t in tracers))
    assert obs["counts"] == {
        kind: sum(t.counts.get(kind, 0) for t in tracers) for kind in kinds
    }
    for t in (*tracers, fleet):
        for name, event_kinds in COUNTERS.items():
            assert getattr(t, name) == sum(
                t.counts.get(kind, 0) for kind in event_kinds
            )
    for name in ("ring_enters", "ring_entries", "ring_parks",
                 "ring_completes", "slowpath_total"):
        assert obs[name] == counter(obs["counts"], name) == sum(
            getattr(t, name) for t in tracers
        )
    assert obs["ring_parks"] > 0 and obs["slowpath_total"] > 0
    assert obs["ring_entries"] == (obs["counts"][K.RING_ENTRY]
                                   + obs["counts"][K.RING_COMPLETE])
    assert fleet.shard_downs == 1 and fleet.failovers >= 1
    assert len(obs["health_per_shard"]) == 2
    with pytest.raises(AttributeError):
        fleet.ring_entries = 0


def test_batched_ring_leg_crosses_once_per_request():
    """The PR 7 aggregation invariant survives the cluster layer: each
    request's file I/O drains through one ring_enter per shard request."""
    rep = small_cluster(tool="lazypoline", batched=True).serve(
        requests=REQUESTS, warmup=WARMUP
    )
    assert rep["obs"]["ring_enters"] > 0
    assert rep["obs"]["ring_entries"] > rep["obs"]["ring_enters"]


@pytest.mark.parametrize("policy", POLICIES)
def test_policies_serve_end_to_end(policy):
    rep = Cluster(shards=2, policy=policy).serve(requests=REQUESTS,
                                                 warmup=WARMUP)
    assert rep["policy"] == policy
    assert rep["requests_total"] == REQUESTS
    assert rep["requests_per_sec"] > 0
    assert all(c >= 1 for c in rep["requests_per_shard"])


def test_two_shards_scale_throughput():
    """The cheap in-tree cousin of the benchmark's ≥3x@4-shards floor."""
    one = Cluster(shards=1).serve(requests=REQUESTS, warmup=WARMUP)
    two = Cluster(shards=2).serve(requests=REQUESTS, warmup=WARMUP)
    assert two["requests_per_sec"] > 1.5 * one["requests_per_sec"]
