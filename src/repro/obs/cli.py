"""``python -m repro.obs``: run a workload under a tool with tracing on.

Subcommands::

    run    --workload {microbench,webserver,ls,tcc} --tool TOOL
           --format {summary,jsonl,chrome,strace} [-o FILE]
           [--iterations N] [--requests N] [--show-scheduler]
    smoke  (3 workloads x 2 tools, one line each — the ``make trace`` target)
    tools  (list attachable tool names)

``run`` runs the chosen workload the way the benchmarks do — a guest
through :func:`repro.faults.oracle.run_guest`, the server through
``run_workload("webserver", ...)`` — with the chosen tool attached
(passthrough interposer) and a machine-wide tracer, then emits the
trace in the requested format.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import GuestCrash
from repro.faults.oracle import run_guest
from repro.interpose import available_tools, passthrough_interposer
from repro.obs.export import export_chrome, export_jsonl, render_strace
from repro.obs.metrics import convergence_curve, path_ratio
from repro.obs.tracer import Tracer
from repro.workloads.runner import run_workload

WORKLOADS = ("microbench", "webserver", "ls", "tcc")

#: Workload/tool pairs exercised by ``smoke``.
SMOKE_WORKLOADS = ("microbench", "ls", "webserver")
SMOKE_TOOLS = ("lazypoline", "zpoline")


# ------------------------------------------------------------------ workloads
def _run(workload: str, tool: str, tracer: Tracer, *, iterations: int,
         requests: int) -> float:
    """Run ``workload`` under ``tool`` traced by ``tracer``; return the
    final simulated clock."""
    if workload == "webserver":
        return run_workload(
            "webserver", tool=tool, tracer=tracer, requests=requests,
            warmup=0, file_size=4096, connections=4,
        )["cycles"]
    from repro.workloads import coreutils, microbench, tcc

    image, setup = {
        "microbench": (lambda: microbench.build_syscall_loop(iterations), None),
        "ls": (lambda: coreutils.build_coreutil("ls"), coreutils.setup_fs),
        "tcc": (tcc.build_tcc_image, tcc.setup_fs),
    }[workload]
    report = run_guest(
        image, tool, setup=setup, interposer=passthrough_interposer,
        max_instructions=50_000_000, machine_opts={"tracer": tracer},
    )
    if report.crashed:
        raise GuestCrash(f"{workload} did not exit under {tool}")
    return report.cycles


# ------------------------------------------------------------------- rendering
def _summary(tracer: Tracer, clock: float) -> str:
    lines = [
        f"events: {sum(tracer.counts.values())}"
        + (f" ({tracer.dropped} dropped)" if tracer.dropped else ""),
        "by kind: "
        + ", ".join(f"{k}={n}" for k, n in sorted(tracer.counts.items())),
        f"simulated cycles: {clock:.0f}",
    ]
    slow, fast, fraction = path_ratio(tracer)
    if slow or fast:
        lines.append(
            f"paths: {slow} slow (SIGSYS), {fast} fast ({fraction:.1%} slow)"
        )
        curve = convergence_curve(tracer.events, bucket=32)
        if curve:
            shown = ", ".join(f"@{n}:{f:.2f}" for n, f in curve[:8])
            lines.append(f"convergence (slow fraction per 32 entries): {shown}")
    if tracer.rewritten_sites:
        lines.append(
            f"rewritten sites: {len(tracer.rewritten_sites)} "
            f"({', '.join(hex(s) for s in sorted(tracer.rewritten_sites))})"
        )
    if tracer.cache_invalidations:
        lines.append(f"translation-cache invalidations: {tracer.cache_invalidations}")
    table = tracer.syscall_table()
    if table:
        lines.append("")
        lines.append(f"{'calls':>7s} {'errors':>7s} {'cycles':>12s} "
                     f"{'cyc/call':>10s} syscall")
        for agg in table:
            lines.append(
                f"{agg.calls:7d} {agg.errors:7d} {agg.cycles:12.0f} "
                f"{agg.cycles_per_call:10.1f} {agg.name}"
            )
    return "\n".join(lines)


def _render(fmt: str, tracer: Tracer, clock: float, args) -> str:
    if fmt == "summary":
        return _summary(tracer, clock)
    if fmt == "jsonl":
        return export_jsonl(tracer)
    if fmt == "chrome":
        return json.dumps(export_chrome(tracer), indent=1)
    if fmt == "strace":
        return render_strace(
            tracer, show_scheduler=getattr(args, "show_scheduler", False)
        )
    raise ValueError(f"unknown format {fmt!r}")


# ------------------------------------------------------------------- commands
def cmd_run(args) -> int:
    if args.tool not in available_tools():
        print(
            f"error: unknown tool {args.tool!r}; "
            f"available: {', '.join(available_tools())}",
            file=sys.stderr,
        )
        return 2
    tracer = Tracer(max_events=args.max_events)
    clock = _run(args.workload, args.tool, tracer,
                 iterations=args.iterations, requests=args.requests)
    text = _render(args.format, tracer, clock, args)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.output} ({sum(tracer.counts.values())} events)")
    else:
        print(text)
    return 0


def cmd_smoke(args) -> int:
    failures = 0
    for workload in SMOKE_WORKLOADS:
        for tool in SMOKE_TOOLS:
            tracer = Tracer()
            try:
                _run(workload, tool, tracer, iterations=50, requests=10)
            except Exception as exc:  # pragma: no cover - smoke diagnostics
                failures += 1
                print(f"FAIL  {workload:<10s} {tool:<10s} {exc}")
                continue
            slow, fast, _ = path_ratio(tracer)
            print(
                f"ok    {workload:<10s} {tool:<10s} "
                f"{sum(tracer.counts.values()):6d} events, "
                f"{tracer.counts.get('syscall', 0):5d} syscalls, "
                f"{slow} slow / {fast} fast"
            )
    return 1 if failures else 0


def cmd_tools(args) -> int:
    for name in available_tools():
        print(name)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="machine-wide tracing for interposition workloads",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload under one tool, traced")
    run.add_argument("--workload", choices=WORKLOADS, default="microbench")
    run.add_argument("--tool", default="lazypoline")
    run.add_argument(
        "--format", choices=("summary", "jsonl", "chrome", "strace"),
        default="summary",
    )
    run.add_argument("-o", "--output", default=None, help="write to file")
    run.add_argument("--iterations", type=int, default=200,
                     help="microbench loop iterations")
    run.add_argument("--requests", type=int, default=25,
                     help="webserver requests to serve")
    run.add_argument("--max-events", type=int, default=None,
                     help="cap recorded events (counters keep counting)")
    run.add_argument("--show-scheduler", action="store_true",
                     help="include scheduler events in strace output")
    run.set_defaults(func=cmd_run)

    smoke = sub.add_parser("smoke", help="quick sweep: 3 workloads x 2 tools")
    smoke.set_defaults(func=cmd_smoke)

    tools = sub.add_parser("tools", help="list attachable tools")
    tools.set_defaults(func=cmd_tools)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
