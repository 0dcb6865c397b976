"""Multi-core (SMP) simulation: determinism, coherence, and scheduling.

The machine's SMP mode must be *guest-invisible* (same observable results
as one core, enforced by the differential oracle), *deterministic* (same
``smp_seed`` → bit-identical runs), and *physically coherent*: per-core
translation caches are shot down when a lazypoline rewrite invalidates a
page another core has cached, and the rewrite spinlock of §IV-A(b) really
contends when two cores trap on the same unrewritten site.
"""

from __future__ import annotations

import pytest

from repro.arch.encode import Assembler
from repro.faults.corpus import CORPUS
from repro.faults.oracle import differences, run_guest
from repro.interpose import attach
from repro.kernel.machine import Machine
from repro.kernel.scheduler import SchedulePolicy
from repro.kernel.syscalls.proc import CLONE_VM, THREAD_FLAGS
from repro.kernel.syscalls.table import NR
from repro.loader.image import image_from_assembler
from repro.mem import layout
from repro.obs.export import export_jsonl
from repro.obs.tracer import Tracer
from repro.workloads import coreutils

pytestmark = pytest.mark.smp


def _all_dead(machine):
    return lambda: not any(t.alive for t in machine.kernel.tasks.values())


def _run_to_completion(machine, max_instructions=3_000_000):
    machine.run(until=_all_dead(machine), max_instructions=max_instructions)


def _looper(name: str, iters: int):
    """``iters`` rounds of getpid, then exit_group(0)."""
    a = Assembler(base=layout.CODE_BASE)
    a.label("_start")
    a.mov_imm("rbx", iters)
    a.label("loop")
    a.mov_imm("rax", NR["getpid"])
    a.syscall()
    a.dec("rbx")
    a.cmpi("rbx", 0)
    a.jnz("loop")
    a.mov_imm("rdi", 0)
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    return image_from_assembler(name, a, entry="_start")


# --------------------------------------------------------------- constructor
def test_machine_core_arguments():
    m = Machine(cores=4, smp_seed=3)
    assert m.n_cores == 4
    assert [c.id for c in m.cores] == [0, 1, 2, 3]
    assert m.scheduler.smp
    with pytest.raises(ValueError):
        Machine(cores=0)


# ------------------------------------------------------- 1-core clock identity
def test_single_core_machine_is_the_legacy_machine():
    """``cores=1`` must be cycle-for-cycle the pre-SMP machine.

    One run loop serves every core count, but a 1-core machine runs the
    inline one-core round body (no per-core clock swap, no seeded core
    order), so clocks, instruction counts and observable results are
    identical no matter what ``smp_seed`` says.
    """
    results = []
    for smp_seed in (0, 99):
        machine = Machine(cores=1, smp_seed=smp_seed)
        assert not machine.scheduler.smp
        process = machine.load(CORPUS["syscall_loop"].build())
        _run_to_completion(machine)
        results.append(
            (
                process.exit_code,
                process.stdout,
                machine.kernel.clock,
                machine.scheduler.total_instructions,
            )
        )
        # the SMP clock view degenerates to the kernel clock on one core
        assert machine.clock == machine.kernel.clock

    baseline = Machine()  # no SMP arguments at all
    process = baseline.load(CORPUS["syscall_loop"].build())
    _run_to_completion(baseline)
    results.append(
        (
            process.exit_code,
            process.stdout,
            baseline.kernel.clock,
            baseline.scheduler.total_instructions,
        )
    )
    assert results[0] == results[1] == results[2]


def test_cycles_charged_before_the_first_slice_count_on_smp():
    """lazypoline attached before ``run`` charges its set-up to the
    kernel clock; with one task, a 2-core machine must end exactly where
    the 1-core machine does — every core starts the first round there."""
    clocks = []
    for cores in (1, 2):
        machine = Machine(cores=cores)
        coreutils.setup_fs(machine)
        process = machine.load(coreutils.build_coreutil("ls"))
        attach(machine, process, tool="lazypoline")
        assert machine.run_process(process) == 0
        clocks.append(machine.clock)
    assert clocks[0] == clocks[1]


# -------------------------------------------------------------- determinism
def test_smp_runs_are_deterministic():
    """Same (cores, smp_seed) → bit-identical clock and trace digests."""

    def one(smp_seed):
        report = run_guest(
            CORPUS["clone_shared"].build, "lazypoline", cores=4,
            smp_seed=smp_seed,
        )
        return report.digest()

    assert one(5) == one(5)
    # a different interleaving seed must still be guest-invisible
    base = run_guest(CORPUS["clone_shared"].build, "lazypoline", cores=4,
                     smp_seed=5)
    other = run_guest(CORPUS["clone_shared"].build, "lazypoline", cores=4,
                      smp_seed=6)
    assert not differences(base, other)


def test_smp_results_match_single_core():
    """cores=2 and cores=4 runs are observably identical to cores=1."""
    for name in ("syscall_loop", "fork_wait", "clone_shared"):
        prog = CORPUS[name]
        base = run_guest(prog.build, "lazypoline", setup=prog.setup)
        for cores in (2, 4):
            smp = run_guest(prog.build, "lazypoline", setup=prog.setup,
                            cores=cores)
            assert not differences(base, smp), (name, cores)


# ------------------------------------------------- placement, stealing, clock
def test_task_placement_and_idle_steal():
    """New tasks home on the least-loaded core; idle cores steal work."""
    machine = Machine(cores=2)
    long_a = machine.load(_looper("long_a", 300))
    short = machine.load(_looper("short", 4))
    long_b = machine.load(_looper("long_b", 300))
    # least-loaded homing: core0, core1, then core0 again (tie → lowest id)
    assert [[t.tid for t in c.runqueue] for c in machine.cores] == [
        [long_a.task.tid, long_b.task.tid],
        [short.task.tid],
    ]
    _run_to_completion(machine, max_instructions=10_000_000)
    assert [p.exit_code for p in (long_a, short, long_b)] == [0, 0, 0]
    # once `short` exits, core1 is idle while core0 still has two runnable
    # tasks: it must steal exactly one of them and finish it locally
    assert machine.cores[1].steals == 1
    stolen = [
        t for t in machine.kernel.tasks.values()
        if t.tid != short.task.tid and t.core_id == 1
    ]
    assert len(stolen) == 1


def test_frontier_is_max_core_clock():
    machine = Machine(cores=2)
    machine.load(_looper("a", 50))
    machine.load(_looper("b", 200))
    _run_to_completion(machine, max_instructions=10_000_000)
    assert machine.clock == max(c.clock for c in machine.cores)
    stats = machine.core_stats()
    assert all(0.0 <= row["utilization"] <= 1.0 for row in stats)


# ------------------------------------------------------ cross-core coherence
def test_cross_core_rewrite_shootdown():
    """A lazypoline rewrite on one core invalidates the page in the other
    core's decoded-instruction cache (the shootdown IPI of the tentpole)."""
    machine = Machine(cores=2)
    process = machine.load(CORPUS["clone_shared"].build())
    attach(machine, process, tool="lazypoline")
    _run_to_completion(machine)
    assert process.exit_code == 7
    assert machine.scheduler.shootdowns >= 1
    assert (
        sum(c.shootdowns for c in machine.cores)
        == machine.scheduler.shootdowns
    )


def test_no_shootdowns_between_separate_address_spaces():
    """Forked processes have private page copies: a rewrite in one must
    never shoot down another's cached translations."""
    machine = Machine(cores=2)
    process = machine.load(CORPUS["fork_wait"].build())
    attach(machine, process, tool="lazypoline")
    _run_to_completion(machine)
    assert process.exit_code == 21
    assert machine.scheduler.shootdowns == 0


# --------------------------------------------------- contended rewrite lock
def _contend_image():
    """Two CLONE_VM threads racing through one shared getpid site."""
    a = Assembler(base=layout.CODE_BASE)

    def syscall(name, *args):
        regs = ("rdi", "rsi", "rdx", "r10", "r8", "r9")
        for reg, value in zip(regs, args):
            a.mov_imm(reg, value)
        a.mov_imm("rax", NR[name])
        a.syscall()

    a.label("_start")
    syscall("mmap", 0, 8192, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.mov_imm("rdi", THREAD_FLAGS | CLONE_VM)
    a.lea("rsi", "r12", 8192)
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 0)
    a.mov_imm("r8", 0)
    a.mov_imm("rax", NR["clone"])
    a.syscall()
    # both threads fall through to the shared site
    a.mov_imm("rax", NR["getpid"])
    a.label("site")
    a.syscall()
    syscall("gettid")
    a.mov("rbx", "rax")
    syscall("getpid")
    a.cmp("rbx", "rax")
    a.jnz("child")
    a.label("spin")  # main thread: join on the worker's flag
    a.load("rcx", "r12", 0)
    a.cmpi("rcx", 1)
    a.jnz("spin")
    syscall("exit_group", 0)
    a.label("child")
    a.mov_imm("rcx", 1)
    a.store("r12", 0, "rcx")
    a.label("park")
    a.jmp("park")
    return image_from_assembler("contend", a, entry="_start")


class _PreemptAtHandler(SchedulePolicy):
    """Preempt any task the moment it reaches ``addr``.

    Parking both threads at the SIGSYS handler entry lets both trap on the
    same unrewritten site before either handler runs — which is exactly
    the window where the rewrite spinlock contends on real hardware.
    """

    def __init__(self):
        self.addr = None

    def on_boundary(self, kernel, task):
        return self.addr is not None and task.regs.rip == self.addr


def test_contended_rewrite_lock_two_cores():
    policy = _PreemptAtHandler()
    tracer = Tracer()
    machine = Machine(cores=2, policy=policy, tracer=tracer)
    process = machine.load(_contend_image())
    tool = attach(machine, process, tool="lazypoline")
    policy.addr = tool.blobs.sigsys_handler
    _run_to_completion(machine)

    assert process.exit_code == 0
    assert not any(t.alive for t in machine.kernel.tasks.values())
    # the loser's core-local clock fell inside the winner's hold window at
    # least once: it spun (bounded retries) and paid for it in cycles
    assert tool.lock_contentions >= 1
    assert tool.lock_spin_cycles > 0
    # exactly one rewrite per site ever happens — the loser finds the site
    # already rewritten, returns, and retries through the patched fast path
    rewrite_events = [e for e in tracer.events if e.kind == "rewrite"]
    sites = [e.data["site"] for e in rewrite_events]
    assert len(sites) == len(set(sites))
    assert tool.slowpath_hits > len(tool.rewritten)  # losers re-trapped


def test_uncontended_lock_on_one_core():
    """On a single core the window never overlaps: zero contentions."""
    machine = Machine(cores=1)
    process = machine.load(_contend_image())
    tool = attach(machine, process, tool="lazypoline")
    _run_to_completion(machine)
    assert process.exit_code == 0
    assert tool.lock_contentions == 0
    assert tool.lock_spin_cycles == 0


# ------------------------------------------------------------- observability
def test_events_carry_core_ids():
    tracer = Tracer()
    machine = Machine(cores=2, tracer=tracer)
    machine.load(_looper("a", 40))
    machine.load(_looper("b", 40))
    _run_to_completion(machine, max_instructions=10_000_000)
    cores_seen = {e.core for e in tracer.events}
    assert cores_seen == {0, 1}
    assert sum(tracer.core_counts.values()) >= len(tracer.events)
    util = tracer.core_utilization()
    assert set(util) == {0, 1}
    assert '"core":' in export_jsonl(tracer)


# ------------------------------------------------------------------- scaling
def test_webserver_scales_across_cores():
    """Acceptance: guest-MIPS at cores=4 ≥ 2x the 1-core figure."""
    from repro.workloads.runner import run_workload

    one = run_workload("webserver", server="nginx", cores=1, requests=120,
                       warmup=12)
    four = run_workload("webserver", server="nginx", cores=4, requests=120,
                        warmup=12)
    assert four["guest_mips"] >= 2.0 * one["guest_mips"]
    assert four["requests_per_sec"] >= 2.0 * one["requests_per_sec"]
    # the prefork workers really ran on all four cores
    assert all(u > 0.5 for u in four["utilization"])


# ------------------------------------------------ superblock tier under SMP
def test_cross_core_rewrite_shoots_down_superblocks():
    """A lazypoline rewrite issued on one core must drop not just the
    remote core's decoded-instruction entries but every tier-2 superblock
    it has compiled over the patched page."""
    machine = Machine(cores=2)
    process = machine.load(CORPUS["clone_shared"].build())
    attach(machine, process, tool="lazypoline")
    _run_to_completion(machine)
    assert process.exit_code == 7
    stats = machine.superblock_stats()
    assert stats["compiled"] >= 1
    assert stats["block_shootdowns"] >= 1
    assert sum(c.block_shootdowns for c in machine.cores) == stats[
        "block_shootdowns"
    ]
    # shot-down blocks are also counted as invalidations
    assert stats["invalidated"] >= stats["block_shootdowns"]


@pytest.mark.parametrize("cores", [1, 2])
def test_tiering_cycle_identity_under_smp(cores):
    """Tiering on vs off is invisible cycle-for-cycle on SMP machines too:
    the shootdown IPI charge is keyed to stale *insn-cache* entries only,
    so block drops ride along for free."""
    reports = {
        sb: run_guest(
            CORPUS["clone_shared"].build,
            "lazypoline",
            cores=cores,
            machine_opts={"superblocks": sb},
        )
        for sb in (False, True)
    }
    diffs = differences(reports[False], reports[True], compare_cycles=True)
    assert not diffs, diffs
    assert reports[True].exit == 7
