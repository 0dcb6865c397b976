"""Fig. 5: web-server macrobenchmarks.

nginx- and lighttpd-like servers serving static files of several sizes,
driven by the wrk client model, under every mechanism the paper plots:
baseline, zpoline, lazypoline, lazypoline-without-xstate, and SUD — for a
single worker and a 12-worker deployment.

Single-worker throughput comes from direct simulation.  The 12-worker
number aggregates independent workers under a finite client capacity
(DESIGN.md §6): ``min(12 × single_rate, client_capacity)``, with the
client capacity set to a multiple of the baseline single-worker rate at
that file size.  That reproduces the paper's lower panels, where the
rewriting-based mechanisms all saturate the client and only SUD's slowdown
remains visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.runner import format_table
from repro.interpose.api import passthrough_interposer
from repro.kernel.machine import Machine
from repro.workloads.runner import attach_mechanism
from repro.workloads.webserver import SERVERS, ServerWorkload

MECHANISMS = ("baseline", "zpoline", "lazypoline_noxstate", "lazypoline", "sud")

#: File sizes served (bytes); the paper sweeps sizes up to 256 KB.
SIZES = (1024, 4096, 16384, 65536, 262144)

#: Aggregate client capacity, as a multiple of the single-worker baseline
#: rate at the same file size (36 wrk threads vs 12 server cores).
CLIENT_CAPACITY_FACTOR = 8.0

WORKERS = (1, 12)


@dataclass
class Fig5Result:
    #: server -> size -> mechanism -> single-worker requests/second
    single: dict[str, dict[int, dict[str, float]]] = field(default_factory=dict)
    #: server -> size -> mechanism -> 12-worker requests/second
    multi: dict[str, dict[int, dict[str, float]]] = field(default_factory=dict)

    def retention(self, server: str, size: int, mechanism: str,
                  workers: int = 1) -> float:
        """Throughput relative to baseline (the paper's bar heights)."""
        table = self.single if workers == 1 else self.multi
        return table[server][size][mechanism] / table[server][size]["baseline"]


def _measure_single(server: str, size: int, mechanism: str, *,
                    requests: int, warmup: int) -> float:
    machine = Machine()
    workload = ServerWorkload(machine, SERVERS[server], file_size=size)
    attach_mechanism(machine, workload.process, mechanism,
                     interposer=passthrough_interposer)
    return workload.benchmark(requests=requests, warmup=warmup)


def run(
    *,
    servers: tuple[str, ...] = ("nginx", "lighttpd"),
    sizes: tuple[int, ...] = SIZES,
    mechanisms: tuple[str, ...] = MECHANISMS,
    requests: int = 200,
    warmup: int = 20,
) -> Fig5Result:
    result = Fig5Result()
    for server in servers:
        result.single[server] = {}
        result.multi[server] = {}
        for size in sizes:
            single = {}
            for mechanism in mechanisms:
                single[mechanism] = _measure_single(
                    server, size, mechanism, requests=requests, warmup=warmup
                )
            result.single[server][size] = single
            capacity = CLIENT_CAPACITY_FACTOR * single["baseline"]
            result.multi[server][size] = {
                mechanism: min(12 * rate, capacity)
                for mechanism, rate in single.items()
            }
    return result


def format_report(result: Fig5Result) -> str:
    sections = []
    for server, by_size in result.single.items():
        for workers, table in ((1, result.single), (12, result.multi)):
            rows = []
            for size, rates in table[server].items():
                row = [f"{size // 1024}KB" if size >= 1024 else f"{size}B"]
                row.append(f"{rates['baseline'] / 1000:.1f}k")
                for mechanism in MECHANISMS[1:]:
                    if mechanism in rates:
                        pct = 100 * rates[mechanism] / rates["baseline"]
                        row.append(f"{pct:.1f}%")
                    else:
                        row.append("-")
                rows.append(row)
            sections.append(
                format_table(
                    ["size", "baseline", "zpoline", "lzp-nox", "lzp", "SUD"],
                    rows,
                    title=f"Fig. 5: {server}, {workers} worker(s) "
                    "(throughput relative to baseline)",
                )
            )
    sections.append(
        "paper claims: worst-case lazypoline-noxstate >= 94.7% of baseline;\n"
        "<= 3.6pp behind zpoline; xstate costs <= 4.7pp; SUD ~ half throughput\n"
        "at small sizes; rewriting overheads vanish >= 64KB; 12-worker panels\n"
        "flatten for everything except SUD."
    )
    return "\n\n".join(sections)
