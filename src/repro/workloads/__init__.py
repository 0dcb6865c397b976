"""Evaluation workloads: microbenchmark loop, coreutils, JIT, web servers.

All workloads run through the unified runner protocol —
:func:`repro.workloads.runner.run_workload` — which is re-exported here::

    from repro.workloads import run_workload
    row = run_workload("webserver", tool="lazypoline", cores=4, batched=True)
"""

from repro.workloads.runner import (  # noqa: F401
    attach_mechanism,
    run_workload,
    workload_names,
)
