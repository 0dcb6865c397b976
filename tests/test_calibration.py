"""Cost-model calibration: the DESIGN.md §5 identities.

These are fast, low-iteration versions of the Table II bands that keep the
calibration honest during development; the full measurement lives in
``benchmarks/test_table2_micro.py``.
"""

from __future__ import annotations

import pickle

import pytest

from repro.arch.isa import Mnemonic
from repro.cpu.costs import DEFAULT_COST_MODEL, DEFAULT_INSN_COSTS, CostModel
from repro.kernel.machine import Machine
from repro.workloads.microbench import (
    NOSYS_SYSNO,
    build_syscall_loop,
    measure_cycles_per_syscall,
    overhead_vs_baseline,
)

ITER = 120


@pytest.fixture(scope="module")
def baseline():
    return measure_cycles_per_syscall("baseline", iterations=ITER)


def ratio(mech, baseline):
    return measure_cycles_per_syscall(mech, iterations=ITER) / baseline


def test_sud_enabled_baseline_band(baseline):
    assert ratio("sud_enabled_allow", baseline) == pytest.approx(1.42, rel=0.15)


def test_zpoline_band(baseline):
    assert ratio("zpoline", baseline) == pytest.approx(1.24, rel=0.15)


def test_lazypoline_noxstate_band(baseline):
    assert ratio("lazypoline_noxstate", baseline) == pytest.approx(1.66, rel=0.15)


def test_lazypoline_band(baseline):
    assert ratio("lazypoline", baseline) == pytest.approx(2.38, rel=0.15)


def test_sud_band(baseline):
    assert ratio("sud", baseline) == pytest.approx(20.8, rel=0.15)


def test_seccomp_user_slower_than_sud(baseline):
    """§II-A: address-range seccomp filtering loses to SUD's selector."""
    assert ratio("seccomp_user", baseline) > ratio("sud", baseline)


def test_ptrace_slowest(baseline):
    assert ratio("ptrace", baseline) > ratio("seccomp_user", baseline)


def test_seccomp_bpf_cheap(baseline):
    assert ratio("seccomp_bpf", baseline) < 2.0


def test_overhead_vs_baseline_helper():
    assert overhead_vs_baseline("zpoline", iterations=ITER) == pytest.approx(
        1.24, rel=0.15
    )


def test_fastpath_without_sud_matches_zpoline(baseline):
    nosud = ratio("lazypoline_nosud_noxstate", baseline)
    zp = ratio("zpoline", baseline)
    assert nosud == pytest.approx(zp, rel=0.05)


def test_microbench_loop_symbols():
    image = build_syscall_loop(10)
    assert "the_syscall" in image.symbols
    assert image.symbols["the_syscall"] > image.entry


def test_nosys_sysno_enters_sled_near_tail():
    from repro.interpose.zpoline.trampoline import SLED_SIZE

    assert SLED_SIZE - NOSYS_SYSNO <= 16  # the paper's "very tail"


# --------------------------------------------------------- model invariants
def test_xsave_cost_scales_per_component():
    model = CostModel()
    costs = [model.xsave_cost(n) for n in range(4)]
    assert costs[0] < costs[1] < costs[2] < costs[3]
    assert costs[3] - costs[2] == costs[2] - costs[1]


def test_copy_cost_linear():
    model = CostModel()
    assert model.copy_cost(0) == 0
    assert model.copy_cost(65536) == 65536 // model.copy_bytes_per_cycle


def test_every_mnemonic_has_a_cost():
    model = CostModel()
    for mnemonic in Mnemonic:
        assert mnemonic in model.insn_costs, mnemonic


def test_sud_handler_pays_two_selector_writes_per_syscall():
    """The SUD tool's handler stores the selector byte twice per
    interposed syscall (ALLOW on entry, BLOCK on exit), each store at
    ``sud_selector_write``."""
    default = measure_cycles_per_syscall("sud", iterations=ITER)
    dearer = measure_cycles_per_syscall(
        "sud", iterations=ITER,
        costs=CostModel(sud_selector_write=CostModel().sud_selector_write + 100),
    )
    assert dearer - default == 2 * 100


def test_cost_model_pickles():
    """``machine_opts`` can carry a model across the cluster's process
    boundary: it round-trips, table and all."""
    model = CostModel(insn_costs={**DEFAULT_INSN_COSTS, Mnemonic.NOP: 1},
                      xsave_base=12)
    back = pickle.loads(pickle.dumps(model))
    assert back == model and back != CostModel()
    assert back.op_costs == model.op_costs


def test_default_cost_model_is_shared():
    """Machines built without a model share the one default instance;
    a model passed in is kept, and the shared one still pickles."""
    a, b = Machine(), Machine()
    assert a.costs is b.costs is DEFAULT_COST_MODEL
    assert a.kernel.costs is a.kernel.cpu.costs is DEFAULT_COST_MODEL
    custom = CostModel(xsave_base=12)
    c = Machine(custom)
    assert c.costs is c.kernel.costs is c.kernel.cpu.costs is custom
    back = pickle.loads(pickle.dumps(DEFAULT_COST_MODEL))
    assert back == DEFAULT_COST_MODEL == CostModel()
    assert back.op_costs == DEFAULT_COST_MODEL.op_costs


def test_cycles_to_seconds():
    model = CostModel()
    assert model.cycles_to_seconds(2.1e9) == pytest.approx(1.0)


def test_determinism_across_iteration_counts():
    a = measure_cycles_per_syscall("lazypoline", iterations=100)
    b = measure_cycles_per_syscall("lazypoline", iterations=333)
    assert a == pytest.approx(b, abs=1e-6)  # true steady state
