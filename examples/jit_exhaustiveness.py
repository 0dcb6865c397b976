#!/usr/bin/env python3
"""The paper's §V-A experiment: who sees a JIT-generated syscall?

A tcc-style workload compiles ``mov eax, __NR_getpid; syscall; ret`` into a
fresh RWX page at run time and calls it.  The same tracing interposition
function runs under SUD, zpoline, and lazypoline; only the static rewriter
misses the JIT-ed getpid.

Run:  python examples/jit_exhaustiveness.py
"""

from repro import Machine
from repro.interpose.api import TraceInterposer
from repro.workloads import tcc
from repro.workloads.runner import attach_mechanism


def trace_under(mechanism: str) -> list[str]:
    machine = Machine()
    tcc.setup_fs(machine)
    process = machine.load(tcc.build_tcc_image())
    tracer = TraceInterposer()
    attach_mechanism(machine, process, mechanism, interposer=tracer)
    machine.run_process(process)
    assert process.stdout == b"ok\n", "the JIT workload itself must succeed"
    return tracer.names


def main() -> None:
    traces = {m: trace_under(m) for m in ("sud", "zpoline", "lazypoline")}
    for mechanism, names in traces.items():
        marker = "ALL SYSCALLS" if "getpid" in names else "MISSED getpid"
        print(f"{mechanism:11s} [{marker}]: {' '.join(names)}")

    assert traces["lazypoline"] == traces["sud"], "must match SUD exactly"
    assert "getpid" not in traces["zpoline"], "static rewriting must miss it"
    print("\nlazypoline traces exactly what SUD traces — exhaustiveness")
    print("with rewriting-level efficiency, the paper's core claim.")


if __name__ == "__main__":
    main()
