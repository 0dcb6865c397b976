"""Guard the end-to-end benchmark's simulated results against a baseline.

Runs every workload declared in ``BENCHMARK.json`` through::

    python -m benchmarks.e2e --workload W --seconds 1 --trace 0

and fails — exit status 1 — unless each of :data:`SIM_METRICS` equals,
exactly, the median recorded for that workload in the committed seed-0
result file ``benchmarks/e2e/results/0.json``.  Simulated metrics are
deterministic, so any difference is a behaviour change, not noise; host
time metrics are not checked here.

Usage::

    python benchmarks/check_sim.py [WORKLOAD ...]

With no arguments every workload runs (``make bench-sim``).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "e2e" / "results" / "0.json"
SIM_METRICS = ("sim_cycles_per_op", "sim_p50_latency_cycles",
               "sim_p99_latency_cycles")


def run_workload(name: str) -> dict:
    """The one-line JSON result of a short untraced run of ``name``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", name,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: benchmark exited {proc.returncode}\n"
                           + proc.stderr[-2000:])
    return json.loads(lines[-1])


def check(name: str, line: dict, expected: dict) -> list[str]:
    """Failures of one workload's result against its baseline row."""
    failures = [] if line["correct"] else [f"{name}: run reported problems"]
    for metric in SIM_METRICS:
        want = expected["end_to_end"][metric]["median"]
        got = line["metrics"][metric]["value"]
        marker = "ok" if got == want else "DIFFERS"
        print(f"{name:16s} {metric:24s} {got!r:>20} (baseline {want!r})"
              f"  {marker}")
        if got != want:
            failures.append(f"{name}: {metric} {got!r} != baseline {want!r}")
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
