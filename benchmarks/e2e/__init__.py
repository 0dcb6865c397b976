"""End-to-end benchmark: host time and simulated results on five workloads.

Run ``python -m benchmarks.e2e`` from the repository root; see README.md
in this directory for the metrics, the workloads and the protocol.
"""

from __future__ import annotations

import pathlib

#: Repository root (the benchmark runs from a checkout, never installed).
ROOT = pathlib.Path(__file__).resolve().parents[2]
#: The simulator's source tree, put on ``sys.path`` by the entry points.
SRC = ROOT / "src"
#: Where full runs write their result files and Chrome traces.
RESULTS = pathlib.Path(__file__).resolve().parent / "results"
