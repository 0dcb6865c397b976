"""The unified workload runner: one entry point, one setup path.

Covers the :func:`run_workload` protocol itself (name table, option
validation), the shared
:func:`attach_mechanism` path, and the ringbench/microbench workloads
that ``measure_ring`` and ``measure_cycles_per_syscall`` difference.
"""

from __future__ import annotations

import pytest

from repro.faults.oracle import run_guest
from repro.interpose import available_tools
from repro.kernel.machine import Machine
from repro.workloads.runner import (
    RunContext,
    attach_mechanism,
    run_workload,
    workload_names,
)

from tests.conftest import hello_image


# ----------------------------------------------------------------- registry
def test_builtin_workloads_registered():
    assert {"webserver", "ringbench", "microbench"} <= set(workload_names())


def test_unknown_workload_is_an_error():
    with pytest.raises(ValueError, match="unknown workload.*webserver"):
        run_workload("nope")


def test_unknown_option_is_an_error():
    with pytest.raises(TypeError, match="unknown options.*typo"):
        run_workload("microbench", iterations=4, typo=1)


# ---------------------------------------------------------- attach_mechanism
def _hello():
    from repro.faults.corpus import CORPUS

    machine = Machine()
    process = machine.load(CORPUS["syscall_loop"].build())
    return machine, process


def test_attach_mechanism_baseline_attaches_nothing():
    machine, process = _hello()
    for name in (None, "baseline", "none"):
        assert attach_mechanism(machine, process, name) is None
    assert process.task.seccomp_filters == []
    assert process.task.sud is None


def test_attach_mechanism_rejects_opts_without_tool():
    machine, process = _hello()
    with pytest.raises(ValueError, match="without a tool"):
        attach_mechanism(machine, process, None,
                         tool_opts={"degrade_policy": "x"})


def test_attach_mechanism_sud_enabled_allow():
    machine, process = _hello()
    assert attach_mechanism(machine, process, "sud_enabled_allow") is None
    assert process.task.sud is not None
    assert machine.run_process(process) == 0


def test_attach_mechanism_lazypoline_ablations():
    from repro.arch.registers import XComponent

    machine, process = _hello()
    tool = attach_mechanism(machine, process, "lazypoline_noxstate")
    assert tool.config.preserve_xstate == XComponent.none()
    machine2, process2 = _hello()
    tool2 = attach_mechanism(machine2, process2, "lazypoline_nosud")
    assert not tool2.config.enable_sud


def test_attach_mechanism_registry_tools():
    machine, process = _hello()
    tool = attach_mechanism(machine, process, "seccomp_bpf")
    assert process.task.seccomp_filters
    assert tool is not None


@pytest.mark.parametrize(
    "tool",
    [*available_tools(), "baseline", "sud_enabled_allow", "lazypoline_noxstate"],
)
def test_run_guest_attaches_every_mechanism_name(tool):
    """The fault oracle speaks the benchmarks' whole tool vocabulary."""
    report = run_guest(hello_image, tool)
    assert not report.crashed
    assert report.exit == 0
    assert report.stdout == run_guest(hello_image, None).stdout == b"hello\n"


# ------------------------------------------------------ differenced workloads
def test_measure_ring_through_runner():
    row = run_workload("ringbench", tool="lazypoline", enters=8, batch=4)
    assert row["ring_enters"] == 8
    assert row["clock"] > 0


def test_microbench_through_runner():
    base = run_workload("microbench", iterations=50)
    lazy = run_workload("microbench", tool="lazypoline", iterations=50)
    assert lazy["clock"] > base["clock"] > 0


def test_results_are_json_serializable():
    import json

    row = run_workload("webserver", requests=30, warmup=3)
    assert json.loads(json.dumps(row)) == row
    assert row["requests_per_sec"] > 0
    assert row["latency_p99_cycles"] >= row["latency_p50_cycles"] > 0


def test_machine_opts_reach_the_machine():
    fast = run_workload(
        "microbench", iterations=50,
        machine_opts={"superblocks": False},
    )
    assert fast["clock"] > 0


def test_run_context_option_pop():
    ctx = RunContext(tool=None, cores=1, batched=False, tracer=None,
                     smp_seed=0, interposer=None, tool_opts=None,
                     machine_opts=None, options={"a": 1})
    assert ctx.option("a") == 1
    assert ctx.option("b", "dflt") == "dflt"
    ctx.reject_unknown_options("t")  # empty now: no raise
    ctx.options["x"] = 2
    with pytest.raises(TypeError, match="unknown options"):
        ctx.reject_unknown_options("t")
