"""Cycle-identity matrix: tiering on vs off across guests, tools, workloads.

The superblock tier's contract is stronger than behavioural equivalence:
simulated *cycles*, retired-instruction totals and the full observability
event stream must be bit-identical with tiering on and off — the tier may
only change host wall-clock.  This matrix pins that contract across the
fault-corpus guests, the interposition tools whose own machinery (SIGSYS
rewrites, trampolines, ptrace stops) is the adversary, and the webserver
workload, comparing every obs event except the tier's own ``block_*``
telemetry (which legitimately exists only when tiering is on).
"""

from __future__ import annotations

import pytest

from repro.faults.corpus import CORPUS
from repro.faults.oracle import differences, run_guest
from repro.interpose import attach
from repro.interpose.zpoline import SLED_SIZE
from repro.kernel.machine import Machine
from repro.obs.events import BLOCK_COMPILE, BLOCK_INVALIDATE
from repro.obs.tracer import Tracer
from repro.workloads.webserver import SERVERS, ServerWorkload

pytestmark = pytest.mark.superblock

#: Event kinds emitted only by the tier itself; everything else must match.
TIER_KINDS = {BLOCK_COMPILE, BLOCK_INVALIDATE}


def _assert_lockstep(reports):
    diffs = differences(reports[False], reports[True], compare_cycles=True)
    assert not diffs, diffs


# ----------------------------------------------------- corpus x tool matrix
@pytest.mark.parametrize("guest", sorted(CORPUS))
@pytest.mark.parametrize("tool", [None, "lazypoline", "zpoline", "ptrace"])
def test_corpus_tool_cycle_identity(guest, tool):
    reports = {
        sb: run_guest(
            CORPUS[guest].build,
            tool,
            machine_opts={"superblocks": sb},
        )
        for sb in (False, True)
    }
    _assert_lockstep(reports)


# ----------------------------------------------------- obs stream identity
def _filtered_stream(tracer: Tracer) -> list[tuple]:
    """(ts, kind, tid, core, data) for every non-tier event — ``seq`` is
    excluded because interleaved block_* events legitimately renumber."""
    return [
        (e.ts, e.kind, e.tid, e.core, tuple(sorted(e.data.items())))
        for e in tracer.events
        if e.kind not in TIER_KINDS
    ]


@pytest.mark.parametrize("tool", ["lazypoline", "zpoline", "ptrace"])
def test_webserver_obs_stream_identity(tool):
    """The nginx-model server under each tool: same requests/second, same
    clock, and the same machine-wide event stream either way."""
    out = {}
    for sb in (False, True):
        tracer = Tracer()
        machine = Machine(superblocks=sb, tracer=tracer)
        workload = ServerWorkload(machine, SERVERS["nginx"], file_size=2048)
        attach(machine, workload.process, tool)
        rps = workload.benchmark(requests=60, warmup=5)
        out[sb] = (
            rps,
            machine.clock,
            machine.scheduler.total_instructions,
            _filtered_stream(tracer),
        )
    assert out[False] == out[True]


def test_webserver_tiering_actually_engages():
    """The identity above must not hold vacuously: the server's hot paths
    really do tier up (and emit block_compile telemetry).  Under lazypoline
    the VA-0 sled is slid, never compiled: no block head lies inside it."""
    for tool in (None, "lazypoline"):
        tracer = Tracer()
        machine = Machine(tracer=tracer)
        workload = ServerWorkload(machine, SERVERS["nginx"], file_size=2048)
        if tool is not None:
            attach(machine, workload.process, tool)
        workload.benchmark(requests=60, warmup=5)
        stats = machine.superblock_stats()
        assert stats["compiled"] >= 1
        assert stats["block_runs"] >= 1
        assert tracer.block_compiles == stats["compiled"]
        heads = [e.data["head"] for e in tracer.events
                 if e.kind == BLOCK_COMPILE]
        assert heads
        if tool is not None:
            assert stats["slides"] >= 60
            assert stats["slid_insns"] > 10 * stats["slides"]
            assert not [h for h in heads if 0 <= h < SLED_SIZE]


def test_fault_corpus_seed_replay_cycle_identity(
    fault_seed_corpus, monkeypatch
):
    """Recorded regression seeds: each (scenario, seed) replays to the
    same digests whether or not the interpreter is allowed to tier up.

    Scenarios build their machines internally, so tiering is suppressed
    for the comparison run by pushing the hotness threshold out of reach —
    behaviourally identical to ``superblocks=False``.
    """
    import repro.kernel.scheduler as sched
    from repro.faults.scenarios import SCENARIOS

    ran = 0
    for scenario, seeds in sorted(fault_seed_corpus.items()):
        if scenario not in SCENARIOS:
            continue  # metadata keys like "_comment"
        for seed in seeds[:2]:
            tiered = SCENARIOS[scenario](seed)
            with monkeypatch.context() as mp:
                mp.setattr(sched, "_HOT", 10**9)
                cold = SCENARIOS[scenario](seed)
            assert tiered.ok and cold.ok, (scenario, seed)
            assert tiered.digests == cold.digests, (scenario, seed)
            assert tiered.covered == cold.covered, (scenario, seed)
            ran += 1
    assert ran >= 8
