"""Ablations of lazypoline's design choices.

Two sweeps beyond the paper's headline numbers:

* **xstate components** (§IV-B's configurable preservation option): how the
  fast-path cost scales as the preserved component set grows from nothing
  to x87+SSE+AVX.  Table III tells users which point of this curve their
  workload requires.
* **selector isolation** (§VI): the cost of protecting the %gs region with
  a memory protection key — two PKRU switches per interposition — compared
  against unprotected lazypoline and against what it buys (the selector-
  overwrite bypass stops working).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.runner import format_table
from repro.workloads.microbench import measure_cycles_per_syscall

XSTATE_CONFIGS = (
    ("none", "lazypoline_noxstate"),
    ("x87 only", "lazypoline_xstate_x87"),
    ("SSE only", "lazypoline_xstate_sse"),
    ("SSE+AVX", "lazypoline_xstate_sse_avx"),
    ("x87+SSE+AVX (default)", "lazypoline"),
)


@dataclass
class AblationResult:
    baseline: float = 0.0
    xstate: dict[str, float] = field(default_factory=dict)  # label -> cycles
    unprotected: float = 0.0
    pkey_protected: float = 0.0

    @property
    def pkey_extra_cycles(self) -> float:
        return self.pkey_protected - self.unprotected


def run(*, iterations: int = 300) -> AblationResult:
    result = AblationResult()
    result.baseline = measure_cycles_per_syscall(
        "baseline", iterations=iterations
    )
    for label, mechanism in XSTATE_CONFIGS:
        result.xstate[label] = measure_cycles_per_syscall(
            mechanism, iterations=iterations
        )
    result.unprotected = result.xstate["x87+SSE+AVX (default)"]
    result.pkey_protected = measure_cycles_per_syscall(
        "lazypoline_pkey", iterations=iterations
    )
    return result


def format_report(result: AblationResult) -> str:
    rows = []
    previous = None
    for label, _mech in XSTATE_CONFIGS:
        cycles = result.xstate[label]
        step = f"{cycles - previous:+.0f}" if previous is not None else "-"
        rows.append(
            [label, f"{cycles:.0f}", f"{cycles / result.baseline:.2f}x", step]
        )
        previous = cycles
    table = format_table(
        ["preserved components", "cycles/syscall", "vs baseline", "step"],
        rows,
        title="Ablation: xstate preservation granularity (micro, syscall #500)",
    )
    pkey = (
        f"\nAblation: %gs selector isolation via MPK (§VI)\n"
        f"  lazypoline              {result.unprotected:.0f} cycles/syscall "
        f"({result.unprotected / result.baseline:.2f}x)\n"
        f"  lazypoline + pkey       {result.pkey_protected:.0f} cycles/syscall "
        f"({result.pkey_protected / result.baseline:.2f}x)\n"
        f"  isolation premium       {result.pkey_extra_cycles:+.0f} cycles "
        f"(two PKRU switches per interposition)"
    )
    return table + pkey
