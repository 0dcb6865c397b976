"""Compare a change against its parent from result files.

    python -m benchmarks.e2e compare PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

Arguments come in (parent, change) pairs of ``results/<seed>.json``
files, each from one full run of its commit.  Run the two commits
alternately, swapping which goes first from pair to pair, at least
:data:`MIN_PAIRS` times.  A file is one run: its value for a metric is
the median of its repeats.  Repeats inside a file are never paired with
each other, because the two files of a pair were made back to back and
the host's drift between them would read as wins.

For every workload and end-to-end metric the verdict is:

``better``
    At least 10 pairs, the change wins at least 9 in 10 of them (ties
    count for neither), and the medians differ by more than the parent's
    quartile distance.  A metric with bound 0 (the simulated ones) reads
    the same in every run, so one pair settles it and any gain is
    better.
``worse``
    The change's median is worse than the parent's by more than the
    metric's bound.
``unresolved``
    The run-to-run spread of either side is wider than the bound, or
    there is only one pair, unless every change run reads better than
    every parent run.
``unchanged``
    Otherwise.

``setup_s`` and ``host_us_per_op`` are scaled to a nominal host (see
``hostspeed.py``).  Their rows also give the verdict on the same time as
measured, so a gain that appears only after scaling shows.  The exit
status is 1 when any verdict on a gated metric is ``worse``.
"""

from __future__ import annotations

import json
import pathlib

from benchmarks.e2e.stats import spread, summary

MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Scaled end-to-end metric -> the same time as measured (``reported``).
WALL = {"setup_s": "wall_setup_s", "host_us_per_op": "wall_us_per_op"}


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """The verdict for one metric on one workload (see module docstring).

    ``parent[i]`` and ``change[i]`` are the two runs of pair ``i``.
    """
    sign = 1.0 if better == "higher" else -1.0
    p, c = summary(parent), summary(change)
    gain = sign * (c["median"] - p["median"])
    relative = gain / abs(p["median"]) if p["median"] else gain
    if bound == 0 and len(set(parent)) == 1 and len(set(change)) == 1:
        if gain:
            return "better" if gain > 0 else "worse"
        return "unchanged"
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    if (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
            and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]):
        return "better"
    if -relative > bound:
        return "worse"
    every_run_better = (min(sign * x for x in change)
                        > max(sign * x for x in parent))
    if ((len(parent) < 2 or max(spread(p), spread(c)) > bound)
            and not every_run_better):
        return "unresolved"
    return "unchanged"


def compare(paths: list[pathlib.Path]) -> list[dict]:
    """One row per workload and end-to-end metric."""
    files = [json.loads(path.read_text()) for path in paths]
    parents, changes = files[0::2], files[1::2]
    rows = []
    for workload, first in parents[0]["workloads"].items():
        def runs(side, group, metric):
            return [f["workloads"][workload][group][metric] for f in side]

        for metric, meta in first["end_to_end"].items():
            parent = [s["median"] for s in runs(parents, "end_to_end", metric)]
            change = [s["median"] for s in runs(changes, "end_to_end", metric)]
            row = {
                "workload": workload, "metric": metric, "unit": meta["unit"],
                "parent": summary(parent)["median"],
                "change": summary(change)["median"],
                "pairs": len(parent),
                "verdict": verdict(parent, change, meta["better"],
                                   meta["bound"]),
            }
            if metric in WALL:
                row["wall_verdict"] = verdict(
                    runs(parents, "reported", WALL[metric]),
                    runs(changes, "reported", WALL[metric]),
                    meta["better"], meta["bound"])
            rows.append(row)
    return rows


def main(argv: list[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__.strip().splitlines()[0])
        return 2
    rows = compare([pathlib.Path(arg) for arg in argv])
    for row in rows:
        delta = ((row["change"] - row["parent"]) / row["parent"]
                 if row["parent"] else 0.0)
        wall = (f"  (as measured: {row['wall_verdict']})"
                if "wall_verdict" in row else "")
        print(f"{row['workload']:16s} {row['metric']:24s} "
              f"{row['parent']:>14.6g} -> {row['change']:<14.6g} "
              f"{row['unit']:7s} {delta:+7.1%}  pairs={row['pairs']:<3d} "
              f"{row['verdict']}{wall}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
