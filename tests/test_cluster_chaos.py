"""Fleet fault tolerance: chaos injection, health-checked failover,
deadline/retry/breaker machinery (PR 10).

Four layers of coverage:

* **byte-identity** — with the fault layer inactive (no plan, an *empty*
  plan, or a configured :class:`RetryPolicy` alone) the cluster report is
  byte-identical to the fault-free cluster, fork-Pool and inline, for
  shards in {1, 2, 4};
* **end-to-end chaos** — seeded crash / hang / degraded / hostile faults
  complete 100 % of the requests via failover and retry (no lost or
  duplicated ids), same seed → byte-identical report, hung shards return
  within their deadline with ``-ETIMEDOUT`` ring completions;
* **control plane units** — :class:`HealthModel` transitions,
  :class:`CircuitBreaker` cooldown/probe cycle, balancer down-shard
  re-planning, :class:`RetryPolicy` backoff determinism;
* **kernel** — ``Machine(ring_park_timeout=...)`` bounds parked ring
  entries: past the deadline they complete ``-ETIMEDOUT`` instead of
  parking forever, and the errno renders in strace style.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster import (
    ChaosPlan,
    CircuitBreaker,
    Cluster,
    HealthModel,
    LoadBalancer,
    RetryPolicy,
    ShardFault,
)
from repro.cluster.health import CLOSED, DOWN, HALF_OPEN, OPEN, SUSPECT, UP
from repro.faults.rng import SplitMix64
from repro.kernel import errno
from repro.kernel.uring import HDR_SQ_TAIL
from repro.mem.pages import Perm
from repro.obs import events as K
from repro.obs.format import format_ret
from repro.obs.tracer import Tracer

from test_uring import idle_machine
from test_uring_async import AsyncRingMem, make_pipe, feed_pipe

pytestmark = [pytest.mark.chaos, pytest.mark.cluster]


def dumps(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


def serve(shards, *, chaos=None, processes=False, requests=None, **kwargs):
    cluster = Cluster(shards=shards, processes=processes, chaos=chaos,
                      **kwargs)
    report = cluster.serve(requests=requests or 12 * shards, warmup=4)
    return cluster, report


def assert_fleet_invariants(report, *, requests, expect_down):
    """100 % completion, no lost/duplicated id, exactly the faulted
    shards down — the contract every chaos run must satisfy."""
    av = report["availability"]
    assert av["completed"] == requests, av["failed_ids"]
    assert av["failed"] == 0 and av["failed_ids"] == []
    assert av["duplicate_serves"] == 0
    assert av["success_rate"] == 1.0
    assert av["shards_down"] == expect_down


# ----------------------------------------------------- chaos-off identity
@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("processes", [False, True],
                         ids=["inline", "fork"])
def test_chaos_off_reports_are_byte_identical(shards, processes):
    """An empty plan (and a RetryPolicy alone) must not perturb one byte
    of the fault-free report — the plain serve path is untouched."""
    requests = 12 * shards
    _, plain = serve(shards, processes=processes, requests=requests)
    _, empty = serve(shards, processes=processes, requests=requests,
                     chaos=ChaosPlan([]))
    _, retry_only = serve(shards, processes=processes, requests=requests,
                          retry=RetryPolicy(max_attempts=7))
    assert dumps(plain) == dumps(empty)
    assert dumps(plain) == dumps(retry_only)


#: sha256 of ``dumps(report)`` for eight inline clusters (``warmup=4``),
#: recorded before the chaos-off serve became round 0 of the retry loop.
#: Cases 1-3 take the plain report shape, cases 4-8 the faulted one.
PINNED_REPORTS = [
    ({"shards": 2}, {"requests": 24},
     "8fff75b7376753603d7d000228108c87cabbd4907b9264670bf28578bd77afe5"),
    ({"shards": 3, "policy": "consistent_hash", "sessions": 8},
     {"requests": 36},
     "69ba8ebc0be5727a378e999726f2bf4027ab4f09d8ee7defbfd3bf968c8cc546"),
    ({"shards": 2, "chaos": ChaosPlan([]), "retry": RetryPolicy()},
     {"requests": 24},
     "8fff75b7376753603d7d000228108c87cabbd4907b9264670bf28578bd77afe5"),
    ({"shards": 4, "chaos": ChaosPlan(
        [ShardFault(shard=1, kind="crash", at_request=2)])},
     {"requests": 48},
     "5340a9506b8d8b8a6ed1e1070290df0b7147c091e04ba6ca0c1480b165306630"),
    ({"shards": 4, "tool": "lazypoline", "batched": "async",
      "policy": "consistent_hash", "sessions": 16,
      "session_miss_cycles": 80_000, "chaos": ChaosPlan(
          [ShardFault(shard=2, kind="crash", at_request=3)])},
     {"requests": 48, "connections": 4, "client_cycles_per_request": 120_000},
     "d3d9099b2dfcbd0f2eb223e3ed974f4719a72839e1623f919946c77b47a79386"),
    ({"shards": 2, "deadline_cycles": 250_000, "chaos": ChaosPlan(
        [ShardFault(shard=0, kind="degraded", slow_cycles=300_000)])},
     {"requests": 24},
     "b0129d451e3d07ed4dbac8d63e49b67005daa211b95d3ac737f325e47c62f95f"),
    ({"shards": 2, "deadline_cycles": 10_000_000}, {"requests": 24},
     "ee6bf32c7a7e9d092191eb37cd246b37b7108380cd5369d6d343ff21cd56641a"),
    ({"shards": 2, "batched": "async", "chaos": ChaosPlan(
        [ShardFault(shard=1, kind="hang", at_request=2,
                    deadline_cycles=3_000_000)])},
     {"requests": 24},
     "de37f3f46a5d5b3acdc080fb94cb6b3e1ee2f402e200a93082d073597344fde1"),
]


@pytest.mark.parametrize("cluster_kwargs,serve_kwargs,digest", PINNED_REPORTS,
                         ids=[f"case{i}" for i in
                              range(1, len(PINNED_REPORTS) + 1)])
def test_reports_match_pinned_digests(cluster_kwargs, serve_kwargs, digest):
    """Every report byte, chaos off and on, matches the pinned digest."""
    report = Cluster(processes=False, **cluster_kwargs).serve(
        warmup=4, **serve_kwargs)
    assert hashlib.sha256(dumps(report).encode()).hexdigest() == digest


# --------------------------------------------------------- crash failover
def test_crash_1of4_completes_all_requests():
    plan = ChaosPlan([ShardFault(shard=2, kind="crash", at_request=3)])
    cluster, report = serve(4, chaos=plan)
    assert_fleet_invariants(report, requests=48, expect_down=[2])
    av = report["availability"]
    # The 9 stranded requests failed over to live shards under backoff.
    assert av["failovers"] > 0 and av["retries"] > 0
    assert av["rounds"] >= 2
    assert av["backoff_cycles"][0] == RetryPolicy().backoff_base_cycles
    assert cluster.last_health.states[2] == DOWN
    assert cluster.last_health.breakers[2].state in (OPEN, HALF_OPEN, CLOSED)


def test_crash_same_seed_is_byte_identical():
    plan = ChaosPlan([ShardFault(shard=1, kind="crash", at_request=2)])
    _, rep1 = serve(4, chaos=plan)
    _, rep2 = serve(4, chaos=plan)
    assert dumps(rep1) == dumps(rep2)


def test_crash_fork_matches_inline():
    """Faults ride the shard configs, so the fork-Pool and inline runs
    inject — and report — identically."""
    plan = ChaosPlan([ShardFault(shard=0, kind="crash", at_request=4)])
    _, inline = serve(2, chaos=plan, requests=24)
    _, forked = serve(2, chaos=plan, requests=24, processes=True)
    assert dumps(inline) == dumps(forked)


def test_dead_at_boot_shard_merges_and_fails_over():
    """at_request=0: the shard never boots.  Its row carries result=None
    and obs=None — _merge_obs must tolerate both — and every one of its
    requests completes elsewhere."""
    plan = ChaosPlan([ShardFault(shard=3, kind="crash", at_request=0)])
    _, report = serve(4, chaos=plan)
    assert_fleet_invariants(report, requests=48, expect_down=[3])
    assert report["results"][3] is None
    assert report["obs"]["health_per_shard"][3] is None
    assert report["requests_per_shard"][3] == 0
    assert report["guest_mips_per_shard"][3] == 0.0


def test_crash_report_has_chaos_and_availability_sections():
    plan = ChaosPlan([ShardFault(shard=0, kind="crash", at_request=2)])
    _, report = serve(2, chaos=plan, requests=24)
    assert report["chaos"]["plan"] == [
        {"shard": 0, "kind": "crash", "at_request": 2}
    ]
    assert report["chaos"]["retry"]["max_attempts"] == 4
    av = report["availability"]
    assert av["latency_p99_cycles_incl_failures"] >= \
        report["latency_p99_cycles"]
    health = av["health"]
    assert health["states"][0] == DOWN
    assert any(e["kind"] == "health" and e["new"] == DOWN
               for e in health["log"])
    assert any(e["kind"] == "breaker" and e["new"] == OPEN
               for e in health["log"])


def test_crash_emits_fleet_obs_events():
    tracer = Tracer()
    plan = ChaosPlan([ShardFault(shard=1, kind="crash", at_request=2)])
    cluster = Cluster(shards=2, processes=False, chaos=plan, tracer=tracer)
    cluster.serve(requests=24, warmup=4)
    assert tracer.shard_downs == 1
    assert tracer.failovers >= 1
    assert tracer.retries >= 1
    kinds = {e.kind for e in tracer.events}
    assert {K.SHARD_DOWN, K.FAILOVER, K.RETRY, K.BREAKER} <= kinds
    down = next(e for e in tracer.events if e.kind == K.SHARD_DOWN)
    assert down.data["shard"] == 1 and down.data["reason"] == "crashed"


# ------------------------------------------------------------ hung shards
@pytest.mark.parametrize("batched", [False, "async"],
                         ids=["direct", "async"])
def test_hang_returns_within_deadline(batched):
    plan = ChaosPlan([ShardFault(shard=0, kind="hang", at_request=2,
                                 deadline_cycles=3_000_000)])
    _, report = serve(2, chaos=plan, requests=24, batched=batched)
    assert_fleet_invariants(report, requests=24, expect_down=[0])
    # The hung shard's run was cut at its deadline, not run to stall.
    from repro.cpu.costs import CostModel

    row = report["results"][0]
    assert row["deadline_hit"]
    assert row["measured_seconds"] * CostModel().frequency_hz <= 3_000_000
    if batched == "async":
        # In-flight parked entries cancelled with -ETIMEDOUT.
        assert report["availability"]["ring_timeouts"] > 0
        assert report["obs"]["ring_timeouts"] > 0


def test_hang_same_seed_is_byte_identical():
    plan = ChaosPlan([ShardFault(shard=1, kind="hang", at_request=3,
                                 deadline_cycles=3_000_000)])
    _, rep1 = serve(2, chaos=plan, requests=24, batched="async")
    _, rep2 = serve(2, chaos=plan, requests=24, batched="async")
    assert dumps(rep1) == dumps(rep2)


# ------------------------------------------------- degraded + per-request
def test_degraded_shard_times_out_and_retries():
    """A slow shard blows the per-request deadline; the health model
    demotes it (suspect, then down) and retries land on the fast one."""
    plan = ChaosPlan([ShardFault(shard=1, kind="degraded",
                                 slow_cycles=300_000)])
    cluster, report = serve(2, chaos=plan, requests=24,
                            deadline_cycles=250_000)
    assert_fleet_invariants(report, requests=24, expect_down=[1])
    av = report["availability"]
    assert av["timeouts"] > 0 and av["retries"] > 0
    log = av["health"]["log"]
    states = [e["new"] for e in log
              if e["kind"] == "health" and e["shard"] == 1]
    assert states[:2] == [SUSPECT, DOWN]


def test_deadline_only_marks_no_shard_down_when_all_meet_it():
    """Arming a generous per-request deadline alone takes the faulted
    path but fails nothing."""
    _, report = serve(2, requests=24, deadline_cycles=50_000_000)
    assert_fleet_invariants(report, requests=24, expect_down=[])
    assert report["availability"]["rounds"] == 1
    assert report["availability"]["timeouts"] == 0


# ------------------------------------------------------------ hostile env
def test_hostile_shard_demotes_but_still_serves():
    """Attach-time hostile env forces the PR 5 ladder down to sud_only;
    the shard stays up and the fleet completes everything."""
    plan = ChaosPlan([ShardFault(shard=1, kind="hostile")])
    _, report = serve(2, chaos=plan, requests=24, tool="lazypoline")
    assert_fleet_invariants(report, requests=24, expect_down=[])
    health = report["obs"]["health_per_shard"]
    assert health[0]["mode"] == "full_hybrid"
    assert health[1]["mode"] == "sud_only"
    assert health[1]["degradations"]


# --------------------------------------------------------- health + breaker
def test_health_hard_failure_downs_immediately():
    model = HealthModel(2)
    model.observe(0, {"status": "crashed", "assigned": 6, "served": 2,
                      "timeouts": 0}, round_=0)
    assert model.states == [DOWN, UP]
    assert model.breakers[0].state == OPEN
    assert model.routable() == [1]


def test_health_soft_failure_needs_two_bad_rounds():
    model = HealthModel(1, suspect_fraction=0.25)
    bad = {"status": "ok", "assigned": 8, "served": 8, "timeouts": 4}
    model.observe(0, bad, round_=0)
    assert model.states == [SUSPECT]
    assert model.routable() == [0]  # suspect still serves
    model.observe(0, bad, round_=1)
    assert model.states == [DOWN]


def test_health_clean_round_recovers_suspect():
    model = HealthModel(1)
    model.observe(0, {"status": "ok", "assigned": 8, "served": 8,
                      "timeouts": 4}, round_=0)
    assert model.states == [SUSPECT]
    model.observe(0, {"status": "ok", "assigned": 8, "served": 8,
                      "timeouts": 0}, round_=1)
    assert model.states == [UP]


def test_breaker_cooldown_probe_cycle():
    """closed -> open on down; half-open after the cooldown; a bounded
    clean probe closes it and the shard rejoins."""
    model = HealthModel(2, cooldown_rounds=1, probe_requests=2)
    model.observe(0, {"status": "hung", "assigned": 4, "served": 0,
                      "timeouts": 0}, round_=1)
    assert model.breakers[0].state == OPEN
    assert model.routable() == [1]
    assert model.probe_quota(0) is None
    model.begin_round(2)
    assert model.breakers[0].state == OPEN  # still cooling down
    model.begin_round(3)
    assert model.breakers[0].state == HALF_OPEN
    assert model.routable() == [0, 1]
    assert model.probe_quota(0) == 2
    model.observe(0, {"status": "ok", "assigned": 2, "served": 2,
                      "timeouts": 0}, round_=3)
    assert model.states[0] == UP
    assert model.breakers[0].state == CLOSED
    assert model.probe_quota(0) is None


def test_breaker_failed_probe_reopens():
    breaker = CircuitBreaker(cooldown_rounds=1)
    breaker.trip(1)
    assert breaker.tick(3)
    assert breaker.state == HALF_OPEN
    assert breaker.trip(3)
    assert breaker.state == OPEN and breaker.opened_round == 3


# -------------------------------------------------- balancer down-shards
@pytest.mark.parametrize("policy", ["round_robin", "least_conn",
                                    "consistent_hash"])
def test_replan_routes_only_to_live_shards(policy):
    balancer = LoadBalancer(4, policy)
    balancer.plan(48)
    balancer.set_down({2})
    routed = balancer.replan(list(range(12)))
    assert routed and all(shard != 2 for _, shard in routed)
    assert [rid for rid, _ in routed] == list(range(12))


def test_set_down_everything_is_an_error():
    balancer = LoadBalancer(2, "round_robin")
    balancer.plan(8)
    with pytest.raises(RuntimeError):
        balancer.set_down({0, 1})


def test_consistent_hash_failover_is_sticky_for_sessions():
    """Re-planned session requests migrate off the down shard exactly
    once and stay with their session's new home."""
    balancer = LoadBalancer(4, "consistent_hash")
    balancer.plan(64, sessions=8)
    victim = balancer.assignments[0]
    moved = [rid for rid, s in enumerate(balancer.assignments)
             if s == victim]
    balancer.set_down({victim})
    routed = dict(balancer.replan(moved, sessions=8))
    assert set(routed.values()).isdisjoint({victim})
    events = balancer.session_events[-len(moved):]
    assert "migrate" in events


def test_retry_backoff_is_capped_exponential_and_deterministic():
    policy = RetryPolicy(max_attempts=6, backoff_base_cycles=100,
                         backoff_cap_cycles=500)
    assert [policy.backoff(r) for r in range(1, 6)] == \
        [100, 200, 400, 500, 500]
    jittered = RetryPolicy(backoff_base_cycles=100, jitter_cycles=50)
    a = [jittered.backoff(r, SplitMix64(7)) for r in range(1, 4)]
    b = [jittered.backoff(r, SplitMix64(7)) for r in range(1, 4)]
    assert a == b
    assert all(100 * 2 ** (r - 1) <= x < 100 * 2 ** (r - 1) + 50
               for r, x in enumerate(a, start=1))


# ------------------------------------------------------------- kernel level
def test_ring_park_timeout_completes_etimedout():
    """A bounded park: a read on a never-fed pipe cancels with
    -ETIMEDOUT once the park deadline passes, instead of parking
    forever."""
    tracer = Tracer()
    machine, task = idle_machine(ring_park_timeout=50_000, tracer=tracer)
    rfd, _wfd = make_pipe(machine, task)
    buf = task.mem.map_anywhere(4096, Perm.RW)
    ring = AsyncRingMem(machine, task)
    ring.push(0, "read", rfd, buf, 8, user_data=0xB0)
    ring.w64(HDR_SQ_TAIL, 1)
    assert ring.enter() == 0
    waiter = task.ring_waiters[0]
    deadline = waiter.deadline
    assert deadline is not None and deadline > machine.kernel.clock
    # Before the deadline the entry stays parked...
    assert ring.enter() == 0
    assert task.ring_waiters
    # ...past it, the next drive cancels it with -ETIMEDOUT.
    machine.kernel.clock = deadline
    assert ring.enter() == 1
    assert not task.ring_waiters
    assert ring.result(0) == -errno.ETIMEDOUT
    assert tracer.ring_timeouts == 1
    timeout_events = [e for e in tracer.events
                      if e.kind == K.RING_COMPLETE
                      and e.data["ret"] == -errno.ETIMEDOUT]
    assert timeout_events


def test_ring_park_deadline_beats_late_data():
    """Data arriving after the deadline races deterministically: the
    deadline check runs first, so the entry still times out."""
    machine, task = idle_machine(ring_park_timeout=10_000)
    rfd, wfd = make_pipe(machine, task)
    buf = task.mem.map_anywhere(4096, Perm.RW)
    ring = AsyncRingMem(machine, task)
    ring.push(0, "read", rfd, buf, 8, user_data=0xB1)
    ring.w64(HDR_SQ_TAIL, 1)
    assert ring.enter() == 0
    machine.kernel.clock = task.ring_waiters[0].deadline + 1
    feed_pipe(machine, task, wfd, b"late")
    assert ring.enter() == 1
    assert ring.result(0) == -errno.ETIMEDOUT


def test_unbounded_machines_never_time_out_parks():
    """Without ring_park_timeout, waiter deadlines stay None — the
    pre-PR-10 parking behaviour, byte for byte."""
    machine, task = idle_machine()
    rfd, wfd = make_pipe(machine, task)
    buf = task.mem.map_anywhere(4096, Perm.RW)
    ring = AsyncRingMem(machine, task)
    ring.push(0, "read", rfd, buf, 8, user_data=0xB2)
    ring.w64(HDR_SQ_TAIL, 1)
    assert ring.enter() == 0
    assert task.ring_waiters[0].deadline is None
    machine.kernel.clock += 10_000_000
    assert ring.enter() == 0
    assert task.ring_waiters
    feed_pipe(machine, task, wfd, b"data")
    assert ring.enter() == 1
    assert ring.result(0) == 4


def test_etimedout_renders_in_strace_style():
    assert errno.ETIMEDOUT == 110
    assert errno.errno_name(errno.ETIMEDOUT) == "ETIMEDOUT"
    assert format_ret(-errno.ETIMEDOUT) == "-1 ETIMEDOUT"


# -------------------------------------------------------------- plan units
def test_chaos_plan_round_trips_json():
    plan = ChaosPlan([
        ShardFault(shard=0, kind="crash", at_request=3),
        ShardFault(shard=2, kind="hang", deadline_cycles=1_000_000),
    ])
    again = ChaosPlan.from_json(plan.to_json())
    assert again.to_json() == plan.to_json()
    assert again.fault_for(2).kind == "hang"
    assert again.fault_for(1) is None


def test_chaos_plan_rejects_bad_input():
    with pytest.raises(ValueError):
        ShardFault(shard=0, kind="meteor")
    with pytest.raises(ValueError):
        ChaosPlan([ShardFault(shard=0, kind="crash"),
                   ShardFault(shard=0, kind="hang")])
    with pytest.raises(ValueError):
        Cluster(shards=2, chaos=[ShardFault(shard=5, kind="crash")])


def test_seeded_plans_are_replayable_and_in_range():
    for seed in range(16):
        p1 = ChaosPlan.seeded(seed, shards=4, requests=48)
        p2 = ChaosPlan.seeded(seed, shards=4, requests=48)
        assert p1.to_json() == p2.to_json()
        assert len(p1) == 1
        fault = p1.faults[0]
        assert 0 <= fault.shard < 4
        assert 1 <= fault.at_request < 12
