#!/usr/bin/env python3
"""A miniature Fig. 5: web-server throughput under interposition.

Runs the nginx-like server at two file sizes under every mechanism the
paper plots and prints the retention table.  (The full sweep lives in
``benchmarks/test_fig5_webservers.py``.)

Run:  python examples/webserver_bench.py
"""

from repro import Machine
from repro.interpose.api import passthrough_interposer
from repro.workloads.runner import attach_mechanism
from repro.workloads.webserver import NGINX, ServerWorkload

MECHANISMS = ("baseline", "zpoline", "lazypoline_noxstate", "lazypoline", "sud")


def measure(mechanism: str, size: int) -> float:
    machine = Machine()
    workload = ServerWorkload(machine, NGINX, file_size=size)
    attach_mechanism(machine, workload.process, mechanism,
                     interposer=passthrough_interposer)
    return workload.benchmark(requests=150, warmup=15)


def main() -> None:
    print(f"{'size':>7s} " + " ".join(f"{m:>20s}" for m in MECHANISMS))
    for size in (1024, 65536):
        rates = {m: measure(m, size) for m in MECHANISMS}
        base = rates["baseline"]
        cells = [f"{base / 1000:14.1f}k req/s"]
        for mechanism in MECHANISMS[1:]:
            cells.append(f"{100 * rates[mechanism] / base:19.1f}%")
        print(f"{size // 1024:>6d}K " + " ".join(cells))
    print(
        "\nexpected shape (paper Fig. 5): zpoline ~ lazypoline >> SUD at 1K;"
        "\ndifferences shrink as the file grows and syscall intensity drops."
    )


if __name__ == "__main__":
    main()
