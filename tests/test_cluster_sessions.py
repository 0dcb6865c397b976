"""Cluster sessions + the async serving leg (satellite of the async-ring
PR).

Two contracts on top of the base cluster suite:

* **Determinism with the async drain.**  The same ``(shards, smp_seed,
  policy, batched="async", sessions)`` must produce a byte-identical
  merged report whether the shards run in forked host processes or
  inline in one process — parked entries, out-of-order completions and
  the session surcharge schedule are all simulated time, so nothing
  host-side may leak in.

* **Policy divergence through shared state.**  With sessions enabled the
  balancing policies must differ on *performance*, not just per-shard
  counts: sticky ``consistent_hash`` keeps sessions home (zero
  migrations), ``round_robin`` sprays them (migrations on most
  requests), and the miss surcharge turns that difference into
  throughput/latency deltas the merged report exposes.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import Cluster, LoadBalancer, session_of

pytestmark = [pytest.mark.cluster, pytest.mark.uring_async]

REQUESTS = 40
WARMUP = 4
#: per-request client think time long enough that every steady-state read
#: wave parks (see test_uring_async: events only fire at blocking waits
#: and slice boundaries, so short delays would complete reads eagerly)
CLIENT_CYCLES = 120_000


def session_cluster(policy, *, processes=False, **kw):
    kw.setdefault("shards", 2)
    kw.setdefault("batched", "async")
    kw.setdefault("sessions", 6)
    kw.setdefault("session_miss_cycles", 40_000)
    return Cluster(policy=policy, processes=processes, **kw)


def serve(cluster):
    return cluster.serve(
        requests=REQUESTS,
        warmup=WARMUP,
        connections=4,
        client_cycles_per_request=CLIENT_CYCLES,
    )


# ------------------------------------------------------------ balancer model
def test_session_of_is_stable_and_in_range():
    ids = [session_of(i, 6) for i in range(64)]
    assert ids == [session_of(i, 6) for i in range(64)]
    assert set(ids) <= set(range(6))
    assert len(set(ids)) > 1  # hash spreads, not a constant


def test_consistent_hash_sessions_never_migrate():
    lb = LoadBalancer(4, "consistent_hash")
    lb.plan(200, sessions=10)
    stats = lb.session_stats()
    assert stats["migrations"] == 0
    assert stats["misses"] == stats["distinct_sessions"]
    assert stats["hits"] == 200 - stats["misses"]


def test_round_robin_sessions_migrate_heavily():
    lb = LoadBalancer(4, "round_robin")
    lb.plan(200, sessions=10)
    stats = lb.session_stats()
    assert stats["migrations"] > 100, stats
    assert stats["sticky_ratio"] < 0.5


def test_least_conn_miss_penalty_skews_assignments():
    # with the penalty feeding back into occupancy, least_conn must leave
    # the pure round-robin orbit it holds on homogeneous sessionless shards
    rr = LoadBalancer(4, "round_robin")
    rr.plan(200, sessions=10)
    lc = LoadBalancer(4, "least_conn")
    lc.plan(200, sessions=10)
    assert lc.assignments != rr.assignments


def test_sessionless_plan_unchanged_by_session_plumbing():
    legacy = LoadBalancer(3, "least_conn")
    legacy_counts = legacy.plan(90)
    again = LoadBalancer(3, "least_conn")
    assert again.plan(90, sessions=0) == legacy_counts
    assert again.assignments == legacy.assignments
    assert all(e is None for e in again.session_events)


def test_miss_schedule_aligns_with_per_shard_order():
    """Each round-0 shard config's miss surcharge schedule covers exactly
    its own requests' misses and migrations, in that shard's assignment
    order."""
    cluster = Cluster(shards=2, sessions=4, session_miss_cycles=1000)
    configs = cluster.shard_configs(30)
    lb = cluster.last_balancer
    extra = [c["request_extra_cycles"] for c in configs]
    assert [len(x) for x in extra] == [c["requests"] for c in configs]
    for shard, cycles in enumerate(extra):
        events = [e for s, e in zip(lb.assignments, lb.session_events)
                  if s == shard]
        assert cycles == [1000 if e in ("miss", "migrate") else 0
                          for e in events]
    flagged = sum(1 for x in extra for cycles in x if cycles)
    stats = lb.session_stats()
    assert flagged == stats["misses"] + stats["migrations"] > 0


# ------------------------------------------------------- report determinism
@pytest.mark.parametrize("policy", ["round_robin", "consistent_hash"])
def test_async_session_report_identical_fork_vs_inline(policy):
    forked = serve(session_cluster(policy, processes=True))
    inline = serve(session_cluster(policy, processes=False))
    assert json.dumps(forked, sort_keys=True) == json.dumps(
        inline, sort_keys=True
    )


def test_async_session_report_identical_across_repeats():
    a = serve(session_cluster("least_conn"))
    b = serve(session_cluster("least_conn"))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_sessionless_report_has_no_session_keys():
    report = serve(session_cluster("round_robin", sessions=0))
    assert "sessions" not in report
    assert "session_stats" not in report
    assert "session_miss_cycles" not in report


# ------------------------------------------------------- policy divergence
@pytest.fixture(scope="module")
def policy_reports():
    return {
        policy: serve(session_cluster(policy))
        for policy in ("round_robin", "least_conn", "consistent_hash")
    }


def test_async_leg_actually_parks_on_every_policy(policy_reports):
    for policy, report in policy_reports.items():
        obs = report["obs"]
        assert obs["ring_parks"] > 0, policy
        assert obs["ring_completes"] == obs["ring_parks"], policy
        assert report["batched"] == "async"


def test_policies_diverge_on_session_stats(policy_reports):
    sticky = policy_reports["consistent_hash"]["session_stats"]
    sprayed = policy_reports["round_robin"]["session_stats"]
    assert sticky["migrations"] == 0
    assert sprayed["migrations"] > 0
    assert sticky["sticky_ratio"] > sprayed["sticky_ratio"]


def test_policies_diverge_beyond_counts(policy_reports):
    # the surcharge must show up in the performance numbers: the three
    # policies may not all agree on latency or throughput
    perf = {
        policy: (
            round(report["requests_per_sec"], 3),
            report["latency_p95_cycles"],
            report["latency_p99_cycles"],
        )
        for policy, report in policy_reports.items()
    }
    assert len(set(perf.values())) > 1, perf
    # and specifically least_conn and consistent_hash each differ from
    # round_robin, not merely from each other
    assert perf["least_conn"] != perf["round_robin"]
    assert perf["consistent_hash"] != perf["round_robin"]


def test_migration_surcharge_moves_latency(policy_reports):
    # round_robin pays the migration surcharge on most requests; sticky
    # routing avoids it, so its p95 must not be worse
    assert (
        policy_reports["consistent_hash"]["latency_p95_cycles"]
        <= policy_reports["round_robin"]["latency_p95_cycles"]
    )
