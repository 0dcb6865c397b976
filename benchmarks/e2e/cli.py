"""Command line of the end-to-end benchmark (see README.md).

    python -m benchmarks.e2e [--seed N] [--seconds S]
    python -m benchmarks.e2e --workload W [--seed N] [--seconds S] [--trace 0|1]
    python -m benchmarks.e2e compare PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

A workload's untraced repeats run until they have taken ``S`` seconds
(``run_seconds`` of ``BENCHMARK.json`` by default), and at least
:data:`MIN_REPEATS` of them.  Without ``--workload`` every workload does
so, round-robin so a slow phase of the host spreads across all of them,
then runs once traced; the results go to ``results/<seed>.json`` and the
traces to ``results/trace_<workload>.json``.  With ``--workload`` one
workload runs its untraced repeats (``--trace 0``) or one untraced and
one traced run (``--trace 1``), and the last line of stdout is one JSON
object with the end-to-end or per-layer metrics.

Every repeat runs in a fresh worker process.  The exit status is non-zero
when an op fails, or when a simulated metric differs between repeats or
between the traced and untraced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from benchmarks.e2e import RESULTS, ROOT, SRC
from benchmarks.e2e.stats import spread, summary

#: Fewest untraced repeats of a workload, so that its median does not
#: hang on one or two slow ones.
MIN_REPEATS = 7
#: A worker taking longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 150
#: Reported beside the gated metrics; not gated (see README.md).
REPORTED_UNITS = {"wall_setup_s": "s", "wall_us_per_op": "us",
                  "host_speed": "ratio", "sim_rps": "req/s",
                  "ops_failed_ratio": "ratio"}


class WorkerError(RuntimeError):
    """A worker process failed or timed out."""


def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_worker(spec: dict) -> dict:
    """Run one repeat in a fresh interpreter and return its result."""
    spec = dict(spec, spawned=time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e.worker", json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(
            f"{spec['workload']}: worker exceeded {WORKER_TIMEOUT_S} s"
        ) from exc
    if proc.returncode != 0:
        raise WorkerError(
            f"{spec['workload']}: worker exited {proc.returncode}\n"
            + proc.stderr[-4000:]
        )
    return json.loads(proc.stdout.splitlines()[-1])


def host_values(run: dict) -> dict:
    """Host metrics of one untraced repeat, times scaled to the nominal
    host (see :mod:`benchmarks.e2e.hostspeed`)."""
    return {
        "setup_s": run["setup_s"],
        "host_us_per_op": run["window_s"] * 1e6 / run["ops"],
        "guest_mips": run["guest_insns"] / run["window_s"] / 1e6,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def summarize(runs: list[dict], traced: dict | None, spec: dict) -> dict:
    """One workload's metrics and the problems its runs show."""
    problems = []
    sim = runs[0]["sim"]
    if any(run["sim"] != sim for run in runs[1:]):
        problems.append("simulated metrics differ between repeats")
    everything = runs + ([traced] if traced else [])
    attempted = sum(run["ops"] for run in everything)
    failed = sum(run["failed"] for run in everything)
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")

    values = [host_values(run) | run["sim"] for run in runs]
    end_to_end = {
        metric["name"]: dict(metric, **summary([v[metric["name"]]
                                                 for v in values]))
        for metric in spec["end_to_end"]
    }
    reported = {
        "wall_setup_s": statistics.median(r["wall_setup_s"] for r in runs),
        "wall_us_per_op": statistics.median(
            r["wall_window_s"] * 1e6 / r["ops"] for r in runs),
        "host_speed": statistics.median(
            r["window_s"] / r["wall_window_s"] for r in runs),
        "ops_failed_ratio": failed / attempted,
    }
    if "sim_rps" in sim:
        reported["sim_rps"] = sim["sim_rps"]
    out = {"attempted": attempted, "failed": failed, "repeats": len(runs),
           "ops": runs[0]["ops"], "sim": sim, "end_to_end": end_to_end,
           "reported": reported, "problems": problems}
    if traced is None:
        return out

    if traced["sim"] != sim:
        problems.append("simulated metrics differ between the traced and "
                        "untraced runs")
    accounting = traced["accounting"]
    if abs(accounting["raw_self_s"] - accounting["root_incl_s"]) > \
            1e-6 * accounting["window_s"]:
        problems.append("span self times do not partition the traced time")
    untraced_window = statistics.median(run["window_s"] for run in runs)
    out["per_layer"] = dict(
        traced["layer_metrics"],
        **{"bench.trace_overhead": traced["window_s"] / untraced_window - 1},
    )
    out["accounting"] = accounting
    out["breakdown"] = traced["breakdown"]
    out["calibration"] = traced["calibration"]
    return out


def contract_line(result: dict, spec: dict, trace: bool) -> dict:
    """The one-line JSON result of a ``--workload`` run."""
    if trace:
        values = result["per_layer"]
        declared = spec["per_layer"]
    else:
        values = {k: v["median"] for k, v in result["end_to_end"].items()}
        declared = spec["end_to_end"]
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def print_workload(name: str, result: dict) -> None:
    print(f"{name}: {result['repeats']} repeats of {result['ops']} ops, "
          f"{result['failed']} of {result['attempted']} ops failed")
    for metric, stats in result["end_to_end"].items():
        print(f"  {metric:24s} {stats['median']:>16.6g} {stats['unit']:7s}"
              f" q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}"
              f"  spread {spread(stats):.1%}  n={stats['n']}")
    for metric, value in result["reported"].items():
        print(f"  {metric:24s} {value:>16.6g} {REPORTED_UNITS[metric]}")
    if "breakdown" in result:
        layers = result["breakdown"]["layers"]
        window = result["accounting"]["window_s"]
        shares = sorted(((v["self_s"] / window, k) for k, v in layers.items()),
                        reverse=True)
        print("  traced self-time shares: " + ", ".join(
            f"{k} {share:.0%}" for share, k in shares if share >= 0.01))
        per_layer = result["per_layer"]
        print(f"  trace overhead {per_layer['bench.trace_overhead']:.0%}, "
              f"unattributed {per_layer['bench.unattributed_share']:.1%}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


class Repeats:
    """The untraced repeats of one workload and the host time they took."""

    def __init__(self, workload: str, seed: int):
        self.spec = {"workload": workload, "seed": seed, "traced": False}
        self.runs: list[dict] = []
        self.spent_s = 0.0

    def done(self, seconds: float) -> bool:
        return len(self.runs) >= MIN_REPEATS and self.spent_s >= seconds

    def run(self) -> None:
        start = time.perf_counter()
        self.runs.append(run_worker(self.spec))
        self.spent_s += time.perf_counter() - start


def run_one(args, spec: dict) -> int:
    """A ``--workload`` run: one workload, one JSON result line."""
    repeats = Repeats(args.workload, args.seed)
    traced = None
    if args.trace:
        repeats.run()
        traced = run_worker(dict(repeats.spec, traced=True))
    else:
        while not repeats.done(args.seconds):
            repeats.run()
    result = summarize(repeats.runs, traced, spec)
    print_workload(args.workload, result)
    line = contract_line(result, spec, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Every workload, round-robin repeats, traced runs, result files."""
    from benchmarks.e2e.env import environment

    repeats = {w["name"]: Repeats(w["name"], args.seed)
               for w in spec["workloads"]}
    while pending := [workload for workload in repeats.values()
                      if not workload.done(args.seconds)]:
        for workload in pending:
            workload.run()
    results, traces = {}, {}
    for name, workload in repeats.items():
        traced = run_worker(dict(workload.spec, traced=True))
        traces[name] = traced.pop("chrome")
        results[name] = summarize(workload.runs, traced, spec)
        print_workload(name, results[name])

    RESULTS.mkdir(exist_ok=True)
    env = environment(args.seed, args.seconds,
                      {name: r["repeats"] for name, r in results.items()},
                      [r["calibration"] for r in results.values()])
    path = RESULTS / f"{args.seed}.json"
    path.write_text(json.dumps({"schema": 1, "environment": env,
                                "workloads": results}, indent=1) + "\n")
    for name, chrome in traces.items():
        (RESULTS / f"trace_{name}.json").write_text(
            json.dumps(chrome, separators=(",", ":")) + "\n")
    control = env["pool_control"]
    print(f"environment: python {env['python']}, nproc {env['nproc']}, "
          f"Pool({control['workers']}) speedup {control['speedup']:.2f}x "
          f"on CPU-bound Python")
    print(f"wrote {path.relative_to(ROOT)}")
    return 1 if any(r["problems"] for r in results.values()) else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])
    spec = manifest()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="least host time of a workload's repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="--workload runs: 1 prints per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no simulator sources at {SRC}", file=sys.stderr)
        return 2
    try:
        return run_one(args, spec) if args.workload else run_all(args, spec)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
