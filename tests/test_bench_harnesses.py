"""Smoke tests for the bench harnesses (small parameters).

The full measurements run under ``pytest benchmarks/``; these keep the
harness plumbing and report formatting under unit test.
"""

from __future__ import annotations

import pytest

from repro.bench import ablation, exhaustiveness, fig4, fig5, table1, table2, table3
from repro.bench.runner import format_table, within_band
from repro.interpose.api import passthrough_interposer
from repro.kernel.machine import Machine
from repro.workloads.runner import attach_mechanism

from tests.conftest import hello_image


def test_format_table_alignment():
    out = format_table(["a", "long"], [["xx", "1"], ["y", "22"]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[2] and "long" in lines[2]
    assert len({len(line) for line in lines[2:]}) <= 2  # consistent widths


def test_within_band():
    assert within_band(1.2, 1.0)
    assert not within_band(2.0, 1.0)
    assert within_band(20.0, 20.8, 0.25)


@pytest.mark.parametrize(
    "mechanism",
    ["baseline", "zpoline", "lazypoline", "lazypoline_noxstate", "sud",
     "seccomp_user", "seccomp_bpf", "ptrace"],
)
def test_install_mechanism_all_names(mechanism):
    """Every bench mechanism name installs through attach_mechanism."""
    machine = Machine()
    process = machine.load(hello_image())
    attach_mechanism(machine, process, mechanism,
                     interposer=passthrough_interposer)
    assert machine.run_process(process) == 0


def test_install_mechanism_rejects_unknown():
    machine = Machine()
    process = machine.load(hello_image())
    with pytest.raises(ValueError):
        attach_mechanism(machine, process, "frobnicate",
                         interposer=passthrough_interposer)


def test_table2_quick_run_and_report():
    result = table2.run(iterations=60, repeats=2)
    assert set(result.overheads) == set(table2.PAPER)
    report = table2.format_report(result)
    assert "zpoline" in report and "paper" in report
    assert result.overheads["sud"] > result.overheads["lazypoline"]


def test_fig4_quick_run_and_report():
    result = fig4.run(iterations=60)
    components = result.components
    assert set(components) == set(fig4.PAPER_COMPONENTS)
    assert all(v > 0 for v in components.values())
    assert "enabling SUD" in fig4.format_report(result)


def test_table1_probes():
    result = table1.run(iterations=60)
    assert result.matches_paper()
    report = table1.format_report(result)
    assert "MATCHES" in report


def test_table3_run_and_report():
    result = table3.run()
    assert result.matches_paper()
    report = table3.format_report(result)
    assert "MATCHES" in report
    assert "xmm0 across set_tid_address" in report


def test_exhaustiveness_run():
    result = exhaustiveness.run()
    assert result.lazypoline_matches_sud
    assert result.zpoline_missed_jit
    assert "MISSED" in exhaustiveness.format_report(result)


def test_ablation_quick():
    result = ablation.run(iterations=60)
    assert result.pkey_extra_cycles > 0
    assert "isolation premium" in ablation.format_report(result)


def test_fig5_tiny_sweep():
    result = fig5.run(
        servers=("nginx",),
        sizes=(1024,),
        mechanisms=("baseline", "zpoline", "sud"),
        requests=40,
        warmup=5,
    )
    assert result.retention("nginx", 1024, "zpoline") > result.retention(
        "nginx", 1024, "sud"
    )
    multi = result.multi["nginx"][1024]
    assert multi["baseline"] >= multi["sud"]
    report = fig5.format_report(result)
    assert "nginx" in report
