"""Syscall-aggregation trajectory: interposition overhead vs batch size.

Measures cycles-per-syscall and crossings-per-syscall for the tool x
batch matrix {none, lazypoline, zpoline, ptrace} x {1, 4, 16, 64} on the
steady-state ring loop (``repro.workloads.ringbench``) and writes
``BENCH_uring.json`` at the repo root.

Unlike ``BENCH_interp.json`` (host wall-clock MIPS), every number here is
*simulated* cycles — fully deterministic — so the regression tolerance
catches any cost-model or drain-path change, not host noise.  The
headline claim is asserted same-run: lazypoline's interposition overhead
per syscall (its cycles-per-syscall minus bare's at the same batch size)
must drop by >= 3x at batch >= 16 relative to batch 1, the batched
webserver must not serve fewer requests per second than the unbatched
one under lazypoline, and the asynchronous-drain event-loop webserver
must not serve fewer than the synchronous batched one.

Run via ``make perf`` or ``pytest benchmarks/test_perf_uring.py -m perf``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.workloads.ringbench import RING_BATCHES, RING_TOOLS, ring_trajectory
from repro.workloads.runner import run_workload

from benchmarks.conftest import save_report

pytestmark = pytest.mark.perf

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_uring.json"

#: ring_enter crossings per measured run (differenced against 2x).
ENTERS = 64

#: Same-run floors, also embedded in the JSON for check_regression.py.
FLOORS = {
    "overhead_reduction_lazypoline_b16": 3.0,
    "overhead_reduction_lazypoline_b64": 3.0,
    "overhead_reduction_zpoline_b16": 3.0,
    "overhead_reduction_ptrace_b16": 3.0,
    "webserver_batched_rps_ratio_lazypoline": 1.0,
    "webserver_async_rps_ratio_lazypoline": 1.0,
}


def _reductions(rows: dict) -> dict:
    """overhead(batch 1) / overhead(batch B) per tool — the amortization."""
    out = {}
    for tool in RING_TOOLS:
        if tool is None:
            continue
        base = rows[f"{tool}_b1"]["overhead_per_syscall"]
        for batch in RING_BATCHES[1:]:
            amortized = rows[f"{tool}_b{batch}"]["overhead_per_syscall"]
            if amortized > 0:
                out[f"overhead_reduction_{tool}_b{batch}"] = round(
                    base / amortized, 3
                )
    return out


_WEB_LEGS = {False: "direct", True: "batched", "async": "async"}


def _webserver_ratio() -> dict:
    """Batched/async vs direct webserver rps under lazypoline (and bare).

    The ``async`` leg is the event-loop worker overlapping 4 in-flight
    requests through the asynchronous ring drain; its floor says
    overlapping must never serve fewer requests than the synchronous
    batched drain under lazypoline.
    """
    out = {}
    for tool in (None, "lazypoline"):
        rps = {}
        for batched, leg in _WEB_LEGS.items():
            row = run_workload(
                "webserver", server="nginx", cores=1, tool=tool,
                batched=batched, requests=120, warmup=20, file_size=4096,
            )
            rps[leg] = round(row["requests_per_sec"], 3)
        key = tool or "none"
        out[f"webserver_rps_{key}_direct"] = rps["direct"]
        out[f"webserver_rps_{key}_batched"] = rps["batched"]
        out[f"webserver_rps_{key}_async"] = rps["async"]
        out[f"webserver_batched_rps_ratio_{key}"] = round(
            rps["batched"] / rps["direct"], 4
        )
        out[f"webserver_async_rps_ratio_{key}"] = round(
            rps["async"] / rps["batched"], 4
        )
    return out


def test_perf_uring_trajectory():
    rows = ring_trajectory(enters=ENTERS)
    reductions = _reductions(rows)
    web = _webserver_ratio()

    result = {
        "schema": 1,
        "metric": ("simulated cycles per syscall on the steady-state ring "
                   "loop (deterministic; lower is better)"),
        "regression_metric": "cycles_per_syscall",
        "lower_is_better": True,
        "workloads": rows,
        **reductions,
        **web,
        "floors": FLOORS,
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    lines = ["syscall aggregation (simulated cycles per syscall)", ""]
    lines.append(f"{'tool x batch':18s} {'cyc/sys':>10s} {'cross/sys':>10s} "
                 f"{'overhead':>10s}")
    for key, row in rows.items():
        lines.append(
            f"{key:18s} {row['cycles_per_syscall']:10.2f} "
            f"{row['crossings_per_syscall']:10.4f} "
            f"{row['overhead_per_syscall']:10.2f}"
        )
    lines.append("")
    for key, value in sorted(reductions.items()):
        lines.append(f"{key:40s} {value:8.2f}x")
    lines.append("")
    for key, value in sorted(web.items()):
        lines.append(f"{key:40s} {value:10.3f}")
    save_report("perf_uring", "\n".join(lines))

    # Crossings amortize exactly: one ring_enter per B syscalls.
    for tool in ("none", "lazypoline", "zpoline", "ptrace"):
        for batch in RING_BATCHES:
            assert rows[f"{tool}_b{batch}"]["crossings_per_syscall"] == \
                pytest.approx(1 / batch)

    # The headline: lazypoline overhead per syscall >= 3x lower at batch 16.
    for key, floor in FLOORS.items():
        value = result.get(key)
        assert value is not None, f"{key} missing from the run"
        assert value >= floor, f"{key} = {value} below the {floor}x floor"
