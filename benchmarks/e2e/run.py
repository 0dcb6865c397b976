"""Script entry of the benchmark: ``python3 benchmarks/e2e/run.py [ARGS]``.

Same arguments as ``python -m benchmarks.e2e``; this form needs no
``PYTHONPATH`` and is the command ``BENCHMARK.json`` names.
"""

import pathlib
import sys

if __name__ == "__main__":
    # the repository root replaces this directory on the path, so the
    # package's modules never shadow a top-level module of the same name
    sys.path[0] = str(pathlib.Path(__file__).resolve().parents[2])
    from benchmarks.e2e.cli import main

    sys.exit(main())
