"""One benchmark run in a fresh process.

    python -m benchmarks.e2e.worker '{"workload": "alu_loop", "seed": 0,
                                      "traced": false, "spawned": 12.5}'

``spawned`` is the parent's ``time.perf_counter()`` just before it started
this process (a system-wide monotonic clock on Linux), so set-up time
counts interpreter start and ``import repro``.  The result is printed as
one JSON line on stdout.
"""

from __future__ import annotations

import json
import resource
import sys


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def execute(spec: dict, workloads: dict | None = None) -> dict:
    """Run ``spec["workload"]`` once, untraced or traced.

    Host times come scaled to the nominal host (``setup_s``,
    ``window_s``) and as measured (``wall_setup_s``, ``wall_window_s``).
    Set-up is scaled by a probe at the start of this function and the
    first probe of the window.
    """
    from benchmarks.e2e.hostspeed import NOMINAL_S, reference

    start_probe = reference()
    from benchmarks.e2e.workloads import Probe, default_workloads

    workload = (workloads or default_workloads())[spec["workload"]]
    if spec["traced"]:
        return _traced(workload, spec["seed"])
    probe = Probe()
    outcome = workload.execute(spec["seed"], probe)
    wall_setup_s = probe.opened - spec["spawned"]
    return dict(
        _result(workload, spec["seed"], probe, outcome),
        setup_s=wall_setup_s * 2 * NOMINAL_S / (start_probe
                                                + probe.speed.first),
        wall_setup_s=wall_setup_s,
        peak_rss_mb=peak_rss_mb(),
    )


def _result(workload, seed: int, probe, outcome) -> dict:
    return {
        "workload": workload.name, "seed": seed, "traced": probe.traced,
        "window_s": probe.speed.scaled_s, "wall_window_s": probe.speed.raw_s,
        "ops": outcome.ops, "failed": outcome.failed,
        "guest_insns": outcome.guest_insns, "sim": outcome.sim_metrics(),
    }


def _traced(workload, seed: int) -> dict:
    from benchmarks.e2e import trace
    from benchmarks.e2e.workloads import Probe

    calib = trace.calibrate()
    rec = trace.Recorder()
    counters = trace.MachineCounters()
    calls_at_close = []

    def on_open():
        rec.reset()
        counters.open()

    def on_close():
        counters.close()
        calls_at_close.append(rec.calls())

    def on_op(index):
        rec.op = index

    probe = Probe(traced=True, on_open=on_open, on_close=on_close,
                  on_op=on_op)
    with trace.instrumented(rec, counters):
        outcome = workload.execute(seed, probe)
    if rec.calls() != calls_at_close[0]:
        raise RuntimeError(
            f"{workload.name}: traced calls ran after the measured window"
        )
    parts = trace.breakdown(rec, calib)
    accounting = trace.account(rec, calib, probe.speed.raw_s, parts)
    return dict(
        _result(workload, seed, probe, outcome),
        calibration=calib,
        accounting=accounting,
        breakdown=parts,
        layer_metrics=trace.layer_metrics(parts, counters.total, outcome.ops,
                                          outcome.cluster, accounting,
                                          probe.speed.factor),
        chrome=trace.chrome_trace(rec, {"workload": workload.name,
                                        "seed": seed,
                                        "wrapper_cost": calib}),
    )


def main(argv: list[str]) -> int:
    from benchmarks.e2e import SRC

    spec = json.loads(argv[0])
    sys.path.insert(0, str(SRC))
    result = execute(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
