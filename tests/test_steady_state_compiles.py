"""A steady-state server compiles nothing.

nginx under lazypoline on one core (seed 0, 8 KiB responses, four wrk
connections — the e2e benchmark's ``web_lazypoline`` set-up).  Quantum
cuts fall at a different instruction of the interposer's glue on every
request, and the cut points drift in waves as the schedule shifts, so
tier 2 must cover them without compiling per cut point: each run
compiles one cut variant, once its cuts are hot.  The rarest-cut runs of
this server reach that after ~500 requests; from then on nothing
compiles (one block per cut point kept compiling, ~55 blocks per wave),
and every block cache keeps one compiled entry per run — one block per
head, each with at most one cut variant, and no block headed at a cut
point inside another compiled run.
"""

from __future__ import annotations

import pytest

from repro.arch.isa import Mnemonic
from repro.kernel.machine import Machine
from repro.workloads.runner import attach_mechanism
from repro.workloads.webserver import SERVERS, ServerWorkload
from repro.workloads.wrk import WrkClient

pytestmark = pytest.mark.superblock

WARMUP = 600
MEASURED = 400


def test_warm_nginx_under_lazypoline_compiles_no_block():
    machine = Machine(smp_seed=0)
    server = ServerWorkload(machine, SERVERS["nginx"], file_size=8192)
    attach_mechanism(machine, server.process, "lazypoline")
    server.run_until_listening()
    client = WrkClient(machine.kernel, server.port, connections=4,
                       response_size=8192, warmup_requests=WARMUP)
    client.start()
    stats = client.stats
    cpu = machine.kernel.cpu
    machine.run(until=lambda: stats.completed >= WARMUP,
                max_instructions=100_000_000)
    warm = cpu.blocks_compiled
    machine.run(until=lambda: stats.completed >= WARMUP + MEASURED,
                max_instructions=100_000_000)
    client.stop()
    assert stats.completed >= WARMUP + MEASURED
    assert cpu.blocks_compiled == warm, "a warm server compiled blocks"

    caches = {id(c.block_cache): c.block_cache
              for c in (t.mem for t in machine.kernel.tasks.values())
              if c is not None}
    for bc in caches.values():
        compiled = {h: b for h, b in bc.blocks.items() if b.fn is not None}
        assert all(type(h) is int and b.head == h
                   for h, b in compiled.items())
        # A head inside another compiled run exists only where a stepped
        # xsave/xrstor ends a run (ENDS_RUN); no cut point is a head.
        for b in compiled.values():
            for (_, before), (addr, _) in zip(b.insns, b.insns[1:]):
                if addr in compiled:
                    assert before.mnemonic in (Mnemonic.XSAVE,
                                               Mnemonic.XRSTOR)
