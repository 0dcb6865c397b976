"""The environment block of a result file."""

from __future__ import annotations

import multiprocessing
import os
import platform
import statistics
import subprocess
import time

from benchmarks.e2e import ROOT

#: Iterations of the CPU-bound control task (about 0.3 s on one core).
_SPIN = 3_000_000


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def pool_speedup(workers: int) -> dict:
    """Speedup of ``Pool(workers)`` over one process on CPU-bound Python.

    The control for the fleet's shard fan-out: if this shows no speedup,
    neither can the fleet's pool on this host, whatever the fleet's code.
    Pool start-up is excluded from the timing.
    """
    t0 = time.perf_counter()
    for _ in range(workers):
        _spin(_SPIN)
    serial = time.perf_counter() - t0
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        pool.map(_spin, [1] * workers)
        t0 = time.perf_counter()
        pool.map(_spin, [_SPIN] * workers)
        parallel = time.perf_counter() - t0
    return {"workers": workers, "serial_s": serial, "parallel_s": parallel,
            "speedup": serial / parallel}


def git_commit() -> str:
    """The checked-out commit, ``-dirty`` if the tree has changes."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, seconds: float, repeats: dict,
                calibrations: list[dict]) -> dict:
    """Everything a reader needs to judge where the numbers came from.

    ``repeats`` maps each workload to its number of untraced repeats.
    """
    nproc = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "nproc": nproc,
        "git_commit": git_commit(),
        "seed": seed,
        "run_seconds": seconds,
        "repeats": repeats,
        "wrapper_cost_ns": {
            side: statistics.median(c[f"{side}_s"] for c in calibrations) * 1e9
            for side in ("in", "out")
        },
        "pool_control": pool_speedup(nproc),
    }
