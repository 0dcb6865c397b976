"""Graceful degradation: hostile environments and resource exhaustion.

The claim under test is the robustness contract of
:mod:`repro.interpose.lazypoline.degrade`: whatever the environment does —
deny the VA-0 sled (``mmap_min_addr``), starve setup of memory, fail
rewrite mprotects transiently or permanently, exhaust protection keys or
the per-task %gs stacks — lazypoline either keeps interposing in a lower
mode or fails the *attach* loudly; it never silently loses interposition,
never leaves a torn syscall site, and the guest never sees anything a bare
run would not have shown it (except, by explicit policy, a clean SIGSEGV
on resource exhaustion).
"""

from __future__ import annotations

import pytest

from repro.errors import AttachError
from repro.faults import FaultInjector, FaultRule, differences, run_guest
from repro.faults.scenarios import (
    SCENARIOS,
    build_nested_signal_guest,
    build_two_signal_guest,
)
from repro.interpose import DegradePolicy, Mode, attach
from repro.interpose.api import TraceInterposer
from repro.interpose.lazypoline import gsrel
from repro.interpose.lazypoline.config import LazypolineConfig
from repro.interpose.lazypoline.degrade import (
    DegradeController,
    as_degrade_policy,
)
from repro.interpose.zpoline.rewriter import site_intact
from repro.kernel import errno
from repro.kernel.machine import Machine
from repro.kernel.signals import SIGSEGV
from repro.kernel.syscalls.table import NR
from repro.mem.pages import PAGE_SIZE, Perm
from repro.obs import Tracer
from repro.obs import events as K
from repro.workloads.coreutils import build_coreutil, setup_fs

pytestmark = pytest.mark.degrade


# --------------------------------------------------------- policy plumbing
def test_mode_ladder_is_ordered_one_way():
    assert Mode.FULL_HYBRID.rank < Mode.SUD_ONLY.rank < Mode.PASSTHROUGH.rank
    controller = DegradeController(
        Machine().kernel, DegradePolicy(), mechanism="lazypoline"
    )
    assert controller.mode is Mode.FULL_HYBRID
    assert controller.degrade_to(Mode.SUD_ONLY, "test")
    # never back up the ladder
    assert controller.mode is Mode.SUD_ONLY
    assert controller.degrade_to(Mode.SUD_ONLY, "again") is True
    assert controller.mode is Mode.SUD_ONLY


def test_policy_floor_blocks_degradation():
    kernel = Machine().kernel
    pinned = DegradeController(
        kernel, DegradePolicy(floor=Mode.FULL_HYBRID), mechanism="lazypoline"
    )
    assert not pinned.degrade_to(Mode.SUD_ONLY, "denied")
    assert pinned.mode is Mode.FULL_HYBRID
    default = DegradeController(
        kernel, DegradePolicy(), mechanism="lazypoline"
    )
    assert default.degrade_to(Mode.SUD_ONLY, "ok")
    assert not default.degrade_to(Mode.PASSTHROUGH, "below floor")
    assert default.mode is Mode.SUD_ONLY


def test_as_degrade_policy_coercions():
    assert as_degrade_policy(None) == DegradePolicy()
    assert as_degrade_policy("passthrough").floor is Mode.PASSTHROUGH
    assert as_degrade_policy(Mode.FULL_HYBRID).floor is Mode.FULL_HYBRID
    policy = as_degrade_policy({"rewrite_retries": 5, "floor": "sud_only"})
    assert policy.rewrite_retries == 5 and policy.floor is Mode.SUD_ONLY
    same = as_degrade_policy(policy)
    assert same is policy
    with pytest.raises(ValueError):
        as_degrade_policy({"depth_overflow": "explode"})


def test_degrade_policy_is_rejected_by_tools_without_it():
    machine = Machine()
    setup_fs(machine)
    process = machine.load(build_coreutil("cat"))
    regions = process.task.mem.regions()
    with pytest.raises(TypeError, match="degrade_policy"):
        attach(machine, process, tool="sud", degrade_policy="sud_only")
    # the rejected attach left the process untouched: nothing mapped, no
    # selector armed, no filter, no handler registered
    assert process.task.mem.regions() == regions
    assert process.task.sud is None
    assert process.task.seccomp_filters == []
    assert not machine.kernel._hcalls
    assert machine.run_process(process) == 0


# ------------------------------------------------------ hostile attach ladder
def _run_coreutil(name, *, tool=None, mmap_min_addr=0, **opts):
    machine = Machine(mmap_min_addr=mmap_min_addr)
    setup_fs(machine)
    process = machine.load(build_coreutil(name))
    trace = TraceInterposer()
    tool_obj = None
    if tool is not None:
        tool_obj = attach(machine, process, tool=tool, interposer=trace, **opts)
    machine.run(until=lambda: not process.alive, max_instructions=3_000_000)
    return {
        "exit": process.exit_code,
        "signal": process.term_signal,
        "stdout": process.stdout,
        "trace": trace.names,
        "tool": tool_obj,
    }


@pytest.mark.parametrize("util", ["cat", "ls", "cp"])
def test_hostile_mmap_min_addr_attaches_sud_only(util):
    """With the VA-0 sled denied, lazypoline must still interpose every
    syscall — from the SUD slow path — and the guest must see nothing."""
    bare = _run_coreutil(util)
    friendly = _run_coreutil(util, tool="lazypoline")
    hostile = _run_coreutil(util, tool="lazypoline", mmap_min_addr=PAGE_SIZE)
    tool = hostile["tool"]
    assert tool.mode is Mode.SUD_ONLY
    assert not tool.rewritten
    assert hostile["exit"] == bare["exit"] == 0
    assert hostile["signal"] is None
    assert hostile["stdout"] == bare["stdout"]
    # the syscall stream is *identical* to the full-hybrid run: degradation
    # changed the mechanism, not what the interposer observes
    assert hostile["trace"] == friendly["trace"]
    assert friendly["tool"].mode is Mode.FULL_HYBRID


def test_zpoline_has_no_fallback():
    machine = Machine(mmap_min_addr=PAGE_SIZE)
    setup_fs(machine)
    process = machine.load(build_coreutil("cat"))
    with pytest.raises(AttachError, match="no fallback"):
        attach(machine, process, tool="zpoline")


def test_full_hybrid_floor_refuses_hostile_machine():
    machine = Machine(mmap_min_addr=PAGE_SIZE)
    setup_fs(machine)
    process = machine.load(build_coreutil("cat"))
    with pytest.raises(AttachError, match="floor"):
        attach(machine, process, tool="lazypoline",
               degrade_policy="full_hybrid")


def test_setup_enomem_walks_ladder_to_passthrough():
    """Both setup mmaps fail: PASSTHROUGH if the floor allows, else a loud
    AttachError — never a half-armed tool."""
    result = _run_coreutil("cat")
    machine = Machine()
    setup_fs(machine)
    machine.kernel.fault_injector = FaultInjector(
        (FaultRule(errno=errno.ENOMEM, name="mmap", max_injections=2),)
    )
    process = machine.load(build_coreutil("cat"))
    tool = attach(machine, process, tool="lazypoline",
                  degrade_policy="passthrough")
    assert tool.mode is Mode.PASSTHROUGH
    machine.run(until=lambda: not process.alive, max_instructions=3_000_000)
    assert process.exit_code == result["exit"] == 0

    machine = Machine()
    setup_fs(machine)
    machine.kernel.fault_injector = FaultInjector(
        (FaultRule(errno=errno.ENOMEM, name="mmap", max_injections=2),)
    )
    process = machine.load(build_coreutil("cat"))
    with pytest.raises(AttachError, match="floor"):
        attach(machine, process, tool="lazypoline")  # default floor SUD_ONLY


def test_pkey_exhaustion_is_enospc_and_fails_attach():
    """Satellite: pkey_alloc with all 15 keys taken returns -ENOSPC (the
    real kernel's errno), and a pkey-protected attach surfaces it as an
    AttachError instead of arming without the protection."""
    machine = Machine()
    setup_fs(machine)
    process = machine.load(build_coreutil("cat"))
    task = process.task
    for _ in range(15):
        assert machine.kernel.do_syscall(task, NR["pkey_alloc"], (0, 0)) > 0
    assert (
        machine.kernel.do_syscall(task, NR["pkey_alloc"], (0, 0))
        == -errno.ENOSPC
    )
    with pytest.raises(AttachError, match="ENOSPC"):
        attach(
            machine, process, tool="lazypoline",
            config=LazypolineConfig(protect_gs_with_pkey=True),
        )


# ----------------------------------------------------- rewrite hardening
def test_transient_rewrite_fault_is_retried():
    """One injected ENOMEM on an opening mprotect is absorbed by the retry
    budget: the site still gets rewritten."""
    machine = Machine()
    machine.kernel.fault_injector = FaultInjector(
        (FaultRule(errno=errno.ENOMEM, name="mprotect", skip=1),)
    )
    process = machine.load(build_two_signal_guest())
    tool = attach(machine, process, tool="lazypoline",
                  interposer=TraceInterposer())
    machine.run(until=lambda: not process.alive, max_instructions=400_000)
    assert process.exit_code == 0x1
    health = tool.health()
    assert tool.mode is Mode.FULL_HYBRID
    assert not health["blacklisted_sites"]
    assert tool.rewritten  # the faulted site recovered and was rewritten


def test_persistent_rewrite_faults_blacklist_then_demote():
    """Sites that keep failing are pinned to the slow path individually;
    enough of them and the whole tool stops trying (SUD_ONLY) — all of it
    visible in the obs stream."""
    machine = Machine(tracer=Tracer())
    machine.kernel.fault_injector = FaultInjector(
        (FaultRule(errno=errno.ENOMEM, name="mprotect", skip=1,
                   max_injections=10_000),)
    )
    process = machine.load(build_two_signal_guest())
    tool = attach(
        machine, process, tool="lazypoline", interposer=TraceInterposer(),
        degrade_policy={"site_blacklist_after": 1, "demote_after_blacklisted": 2},
    )
    machine.run(until=lambda: not process.alive, max_instructions=400_000)
    assert process.exit_code == 0x1
    assert process.term_signal is None
    assert tool.mode is Mode.SUD_ONLY
    health = tool.health()
    assert len(health["blacklisted_sites"]) == 2
    obs = machine.kernel.tracer
    assert obs.counts[K.REWRITE_BLACKLIST] == 2
    assert obs.counts[K.DEGRADE] == 1
    assert obs.health()["mode"] == "sud_only"
    # every blacklisted site is intact original code, still executable
    for site in health["blacklisted_sites"]:
        assert site_intact(process.task, site)


def test_rewrite_faults_never_leave_torn_sites():
    """The acceptance sweep: seed-varied injections interrupt the rewrite
    at the opening call, the restore call, transiently and permanently —
    and no attempted site is ever observable in a torn state."""
    openings, restores = 0, 0
    for seed in range(18):
        result = SCENARIOS["rewrite_fault"](seed)
        assert result.ok, f"seed {seed}: {result.detail}"
        for _seq, prot in result.covered:
            if prot == 0x3:  # PROT_READ|PROT_WRITE: the window opening
                openings += 1
            else:
                restores += 1
    # the sweep genuinely interrupted both rewrite boundaries
    assert openings and restores


# ----------------------------------------------- resource exhaustion (%gs)
def test_signal_depth_spill_matches_bare():
    result = SCENARIOS["signal_depth"](0)  # even seed: spill variant
    assert result.ok, result.detail


def test_signal_depth_fault_is_clean_sigsegv():
    result = SCENARIOS["signal_depth"](1)  # odd seed: fault variant
    assert result.ok, result.detail


def test_xstate_stack_exhaustion_is_clean_sigsegv():
    """The xstate stack cannot spill (the fast-path asm indexes it); a
    nest deeper than its 8 slots must end in a guest-visible SIGSEGV, not
    a host exception."""
    machine = Machine()
    process = machine.load(build_nested_signal_guest(10))
    tool = attach(machine, process, tool="lazypoline",
                  degrade_policy={"depth_overflow": "spill"})
    machine.run(until=lambda: not process.alive, max_instructions=400_000)
    assert process.term_signal == SIGSEGV
    assert tool.health()["depth_overflows"] == 1


def test_sigret_selector_spill_chains_and_recycles():
    """gsrel unit: pushes past the forced limit chain an overflow page,
    pops drain it back and cache the page in the spare slot."""
    machine = Machine()
    process = machine.load(build_two_signal_guest())
    mem = process.task.mem
    base = gsrel.map_gs_region(mem)
    gsrel.init_gs_region(mem, base)
    values = [(i * 7) % 2 for i in range(10)]
    spills = 0
    for i, value in enumerate(values):
        spills += gsrel.push_sigret_selector(
            mem, base, value, spill=True, force=i >= 4
        )
    assert spills == 1  # one chain crossing, not one per push
    assert gsrel.sigret_depth(mem, base) == len(values)
    assert [
        gsrel.pop_sigret_selector(mem, base) for _ in values
    ] == values[::-1]
    assert gsrel.sigret_depth(mem, base) == 0
    # the drained page is cached, not leaked and not unmapped
    spare = mem.read_u64(base + gsrel.GS_SIGRET_SPARE, check=None)
    assert spare != 0
    assert mem.perm_at(spare) & Perm.W


# -------------------------------------------- differential matrix, hostile
@pytest.mark.parametrize("cores", [1, 2])
def test_hostile_matrix_guest_identical_to_bare(cores):
    """The cross-tool differential oracle holds in SUD_ONLY, including on
    two cores: guest-visible results identical to bare."""
    bare = run_guest(
        build_two_signal_guest, None, max_instructions=400_000
    )
    hostile = run_guest(
        build_two_signal_guest,
        "lazypoline",
        machine_opts={"mmap_min_addr": PAGE_SIZE},
        cores=cores,
        max_instructions=400_000,
    )
    assert not hostile.crashed
    assert differences(hostile, bare, compare_trace=False) == []
    sud = run_guest(
        build_two_signal_guest, "sud", cores=cores, max_instructions=400_000
    )
    assert differences(hostile, sud) == []  # trace included


def test_degrade_scenarios_replay_green():
    for name in ("sled_denied", "setup_fault", "signal_depth"):
        for seed in range(6):
            result = SCENARIOS[name](seed)
            assert result.ok, f"{name} seed {seed}: {result.detail}"
