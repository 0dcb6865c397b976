"""§V-A: the tcc-JIT exhaustiveness experiment.

Run the same JIT program under SUD, zpoline and lazypoline with the same
tracing interposition function.  Expected result (paper): lazypoline and
SUD print the exact same syscalls in the same order, including the JIT-ed
getpid; zpoline's trace misses it because the syscall instruction did not
exist when it scanned the binary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.runner import format_table
from repro.faults.oracle import run_guest
from repro.workloads import tcc

MECHANISMS = ("sud", "zpoline", "lazypoline")


@dataclass
class ExhaustivenessResult:
    traces: dict[str, list[str]] = field(default_factory=dict)
    slowpath_hits: int = 0
    rewritten_sites: int = 0

    @property
    def lazypoline_matches_sud(self) -> bool:
        return self.traces["lazypoline"] == self.traces["sud"]

    @property
    def zpoline_missed_jit(self) -> bool:
        return (
            "getpid" not in self.traces["zpoline"]
            and "getpid" in self.traces["lazypoline"]
        )


def run() -> ExhaustivenessResult:
    result = ExhaustivenessResult()
    for mechanism in MECHANISMS:
        tools = []
        report = run_guest(
            tcc.build_tcc_image, mechanism, setup=tcc.setup_fs,
            configure=lambda machine, process, tool: tools.append(tool),
        )
        if report.exit != 0 or report.stdout != b"ok\n":
            raise RuntimeError(f"tcc workload failed under {mechanism}")
        result.traces[mechanism] = [name for _, name in report.trace]
        if mechanism == "lazypoline":
            result.slowpath_hits = tools[0].slowpath_hits
            result.rewritten_sites = len(tools[0].rewritten)
    return result


def format_report(result: ExhaustivenessResult) -> str:
    rows = []
    for mechanism in MECHANISMS:
        trace = result.traces[mechanism]
        rows.append(
            [
                mechanism,
                str(len(trace)),
                "yes" if "getpid" in trace else "MISSED",
            ]
        )
    table = format_table(
        ["mechanism", "syscalls traced", "JIT getpid seen"],
        rows,
        title="Exhaustiveness (§V-A): tcc-style JIT under identical tracing",
    )
    match = "identical" if result.lazypoline_matches_sud else "DIFFERENT"
    return table + (
        f"\nlazypoline vs SUD trace: {match} (paper: identical)"
        f"\nlazypoline slow-path hits: {result.slowpath_hits}, "
        f"sites rewritten: {result.rewritten_sites}"
        f"\nfull lazypoline trace: {' '.join(result.traces['lazypoline'])}"
    )
