"""Guard the end-to-end benchmark's simulated results against a baseline.

Runs every workload declared in ``BENCHMARK.json`` once, in one fresh
benchmark worker (``python -m benchmarks.e2e.worker``, seed 0, untraced),
and fails — exit status 1 — unless its whole ``sim`` block equals,
exactly, the one recorded for that workload in the committed seed-0
result file ``benchmarks/e2e/results/0.json``: the three gated metrics
(``sim_cycles_per_op``, ``sim_p50_latency_cycles``,
``sim_p99_latency_cycles``) and ``guest_insns``, ``sim_latency_samples``
and, for the request workloads, ``sim_rps``.  Simulated metrics are
deterministic, so any difference is a behaviour change, not noise; host
time metrics are not checked here.

Usage::

    python benchmarks/check_sim.py [WORKLOAD ...]

With no arguments every workload runs (``make bench-sim``).
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "e2e" / "results" / "0.json"
sys.path.insert(0, str(ROOT))

from benchmarks.e2e.cli import run_worker  # noqa: E402


def run_workload(name: str) -> dict:
    """One untraced repeat of ``name`` in a fresh worker process."""
    return run_worker({"workload": name, "seed": 0, "traced": False})


def check(name: str, result: dict, expected: dict) -> list[str]:
    """Failures of one workload's result against its baseline row."""
    failures = []
    if result["failed"]:
        failures.append(f"{name}: {result['failed']} of {result['ops']} "
                        f"ops failed")
    got, want = result["sim"], expected["sim"]
    for metric in sorted(want.keys() | got.keys()):
        value, base = got.get(metric), want.get(metric)
        marker = "ok" if value == base else "DIFFERS"
        print(f"{name:16s} {metric:24s} {value!r:>20} (baseline {base!r})"
              f"  {marker}")
        if value != base:
            failures.append(f"{name}: {metric} {value!r} != baseline {base!r}")
    return failures


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    baseline = json.loads(BASELINE.read_text())["workloads"]
    names = argv or [w["name"] for w in
                     json.loads((ROOT / "BENCHMARK.json").read_text())
                     ["workloads"]]
    failures = []
    for name in names:
        if name not in baseline:
            failures.append(f"{name}: no baseline in {BASELINE.name}")
            continue
        failures += check(name, run_workload(name), baseline[name])
    if failures:
        print("\nsimulated results differ from the baseline:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nsimulated results identical to the baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
