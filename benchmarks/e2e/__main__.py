"""``python -m benchmarks.e2e``: see :mod:`benchmarks.e2e.cli`."""

import sys

from benchmarks.e2e.cli import main

if __name__ == "__main__":
    sys.exit(main())
