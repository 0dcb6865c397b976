"""The fault harness itself: determinism, units, CLI, and bug regressions.

Covers the acceptance criteria that are about the *harness* rather than the
interposition stack:

* the recorded seed corpus (tests/data/fault_seeds.json) replays green —
  these seeds either exposed a real bug once or pin a boundary worth
  keeping hot, and they run before the wider sweeps do;
* the same seed produces byte-identical schedules, fault plans and
  scenario digests (run-to-run determinism, asserted, not assumed);
* the injector/explorer primitives behave as specified in isolation;
* every CLI entry point (single seed, sweep, minimise, fuzz) works and a
  failing seed reproduces from the one printed command;
* the three bugs the explorer originally surfaced stay fixed, each pinned
  by a test naming its invariant.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults import (
    CORPUS,
    ExplorerPolicy,
    FaultInjector,
    FaultRecord,
    FaultRule,
    SCENARIOS,
    SignalTrigger,
    differences,
    instruction_boundaries,
    lazypoline_boundaries,
    lazypoline_windows,
    run_guest,
)
from repro.faults.cli import main as faults_main, minimize, run_one
from repro.faults.rng import SplitMix64
from repro.faults.scenarios import PROBE_WINDOWS, build_two_signal_guest
from repro.interpose.api import TraceInterposer
from repro.interpose.lazypoline import Lazypoline
from repro.kernel import errno
from repro.kernel.machine import Machine
from repro.kernel.syscalls.mm import PROT_READ, PROT_WRITE
from repro.kernel.syscalls.table import NR
from repro.mem import layout

pytestmark = pytest.mark.faults


# ------------------------------------------------------------ corpus replay
def test_recorded_seed_corpus_replays_green(fault_seed_corpus):
    """Every recorded regression seed still passes.

    Runs first in this module so a reintroduced bug fails on the exact
    seed that found it originally, with the one-command reproduction in
    the failure message.
    """
    ran = 0
    for scenario, seeds in fault_seed_corpus.items():
        if scenario not in SCENARIOS:
            continue  # metadata keys like "_comment"
        for seed in seeds:
            result = SCENARIOS[scenario](seed)
            assert result.ok, (
                f"recorded seed regressed: {result.detail}\n"
                f"  reproduce: python -m repro.faults "
                f"--scenario {scenario} --seed {seed}"
            )
            ran += 1
    assert ran >= 15  # the corpus is supposed to stay non-trivial


# ------------------------------------------------------------- smoke sweep
def test_scenario_smoke_sweep(fault_seed_count):
    """Sweep every scenario over the first N seeds (``--fault-seeds=N``).

    The default N=32 is the smoke tier: because rewrite_window maps seed
    N onto boundary ``N % len(boundaries)`` and the probed windows hold
    32 boundaries, 32 consecutive seeds deterministically cover every
    instruction boundary of the stub, the SIGSYS slow path and the
    sigreturn trampoline — asserted below, not assumed.
    """
    failures = []
    covered: set = set()
    for seed in range(fault_seed_count):
        for name, fn in sorted(SCENARIOS.items()):
            result = fn(seed)
            if name == "rewrite_window":
                covered.update(result.covered)
            if not result.ok:
                failures.append(
                    f"{name} seed {seed}: {result.detail}\n"
                    f"  reproduce: python -m repro.faults "
                    f"--scenario {name} --seed {seed}"
                )
    assert not failures, "\n".join(failures)
    if fault_seed_count >= 32:
        machine = Machine()
        process = machine.load(build_two_signal_guest())
        tool = Lazypoline._install(machine, process, TraceInterposer())
        all_boundaries = set(lazypoline_boundaries(tool, PROBE_WINDOWS))
        assert covered == all_boundaries, (
            "sweep missed boundaries: "
            f"{[hex(b) for b in sorted(all_boundaries - covered)]}"
        )


# ---------------------------------------------------------- pinned corpus
#: sha256 over ``SCENARIOS[name](seed).digest()`` for seeds 0..7, in
#: order: every verdict, detail, coverage tuple and report digest of the
#: scenario corpus, pinned byte for byte.  A change to any scenario's
#: guest, schedule, fault plan or verdict logic moves its pin.
PINNED_SCENARIO_DIGESTS = {
    "rewrite_window":
        "854f9c04025ddaf3a291a1090afb84df835101a60acdbb0a1bbd13635ebebe6b",
    "differential":
        "adabc67daa40bf9b78e2b8c123cc4462b9a986b615130f6324339fbb0d7fa927",
    "transient_faults":
        "c212af5a1f76ae4d7962aa44864d6f381e7203376f75eb2d5727fddb762b115a",
    "mprotect_fault":
        "729269a1cfe12b681a3211b83fd5c4a1a279bb1314170ce9cb69977d392c220b",
    "sled_denied":
        "60452d62a1aa266efece443a107593efa94525d9b37e40dd842bb2af460a19ba",
    "setup_fault":
        "b28d202f66f248ec478666f63b66c144b8f1dd19c98973a38e396ad75460278f",
    "rewrite_fault":
        "0766687022f561269ed762f563e53f3ce5dd3b37bb111037e35165c54846322b",
    "signal_depth":
        "2b1add434f03a60edaecc0cfbad205eaf1e04698959068521b29e2f91cd0257f",
    "uring_signal":
        "677f66d497bcfaf99a717697a0d45a049d8a74d3afc3409f8841b537a9f2bb8b",
    "uring_async":
        "eb7b5a91c96e00fb4fe458fd195c494aa4c3500edb3cf934a39a2cb0a1bc5ed6",
    "shard_crash":
        "e7d461ea8aaec374eba7b54d0ee4b561b85dfb166f7d902a2202a13986f5a49b",
    "shard_hang":
        "156816c654efdb0af5010f0bced72b8923b15f9f97d8b228503be6aa1d543657",
    "shard_degraded":
        "eb3ab181a674160650aa46266e87f2602ac690f86a882d61ae598774048e51ad",
}


def scenario_digest(name: str) -> str:
    h = hashlib.sha256()
    for seed in range(8):
        h.update(SCENARIOS[name](seed).digest().encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_SCENARIO_DIGESTS))
def test_scenario_corpus_matches_pinned_digests(name):
    assert set(PINNED_SCENARIO_DIGESTS) == set(SCENARIOS)
    assert scenario_digest(name) == PINNED_SCENARIO_DIGESTS[name]


# -------------------------------------------------------------- determinism
@pytest.mark.parametrize(
    "scenario,seed",
    [("rewrite_window", 5), ("mprotect_fault", 1), ("transient_faults", 0)],
)
def test_same_seed_same_digest(scenario, seed):
    """Same (scenario, seed) twice -> byte-identical result digests."""
    first = SCENARIOS[scenario](seed)
    second = SCENARIOS[scenario](seed)
    assert first.ok and second.ok
    assert first.digest() == second.digest()
    assert first.digests == second.digests


def test_explorer_schedule_digest_is_stable():
    """Two policies with the same seed drive identical schedules."""
    digests = []
    for _ in range(2):
        machine = Machine(policy=ExplorerPolicy(1234))
        process = machine.load(build_two_signal_guest())
        Lazypoline._install(machine, process, TraceInterposer())
        machine.run(until=lambda: not process.alive, max_instructions=400_000)
        assert process.exit_code == 0x1
        digests.append(machine.scheduler.policy.trace.digest())
    assert digests[0] == digests[1]


def test_different_seeds_usually_differ():
    """Seeds are not silently ignored: 0 and 1 perturb differently."""
    traces = []
    for seed in (0, 1):
        machine = Machine(policy=ExplorerPolicy(seed))
        process = machine.load(build_two_signal_guest())
        Lazypoline._install(machine, process, TraceInterposer())
        machine.run(until=lambda: not process.alive, max_instructions=400_000)
        traces.append(machine.scheduler.policy.trace)
    assert traces[0].digest() != traces[1].digest()


def test_splitmix64_known_answers():
    """Pin the PRNG byte-for-byte: every seeded decision depends on this."""
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]
    r = SplitMix64(42)
    assert [r.next_u64() for _ in range(3)] == [
        0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52,
    ]
    r = SplitMix64(42)
    assert [r.below(10) for _ in range(6)] == [3, 1, 8, 4, 0, 2]
    r = SplitMix64(7)
    assert r.shuffle(list(range(8))) == [1, 4, 5, 2, 6, 0, 3, 7]
    assert SplitMix64(9).below(1) == 0
    assert not SplitMix64(9).chance(0, 10)


# ------------------------------------------------------------ injector units
class _FakeTask:
    def __init__(self, tid=1000):
        self.tid = tid


def test_fault_rule_skip_and_max_injections():
    rule = FaultRule(errno=errno.EINTR, name="write", skip=2, max_injections=2)
    task = _FakeTask()
    args = (1, 0, 2, 0, 0, 0)
    hits = [rule.matches(task, NR["write"], args) for _ in range(6)]
    assert hits == [False, False, True, True, False, False]
    # a different syscall never matches nor consumes skip budget
    assert not rule.matches(task, NR["read"], args)


def test_fault_rule_tid_and_predicate():
    rule = FaultRule(
        errno=errno.ENOMEM,
        name="mprotect",
        tid=7,
        predicate=lambda task, sysno, args: args[2] == 3,
    )
    assert not rule.matches(_FakeTask(tid=8), NR["mprotect"], (0, 0, 3))
    assert not rule.matches(_FakeTask(tid=7), NR["mprotect"], (0, 0, 5))
    assert rule.matches(_FakeTask(tid=7), NR["mprotect"], (0, 0, 3))


def test_injector_records_and_replays_plan():
    task = _FakeTask()
    injector = FaultInjector(
        rules=(FaultRule(errno=errno.EINTR, name="write", skip=1),)
    )
    results = [
        injector.intercept(None, task, NR["write"], ()) for _ in range(3)
    ]
    assert results == [None, -errno.EINTR, None]
    assert [r.seq for r in injector.plan] == [1]

    replay = FaultInjector.from_plan(injector.plan_json())
    results = [
        replay.intercept(None, task, NR["write"], ()) for _ in range(3)
    ]
    assert results == [None, -errno.EINTR, None]
    assert replay.plan_digest() == injector.plan_digest()


def test_fault_record_json_round_trip():
    record = FaultRecord(seq=3, tid=1000, sysno=NR["write"], errno=errno.EAGAIN)
    assert FaultRecord.from_json(record.to_json()) == record
    assert record.name == "write"


def test_seeded_injector_is_deterministic():
    task = _FakeTask()
    plans = []
    for _ in range(2):
        injector = FaultInjector(seed=99, rate=(1, 2), eligible=("write",))
        for _ in range(20):
            injector.intercept(None, task, NR["write"], ())
        plans.append(injector.plan_digest())
        assert injector.plan  # rate 1/2 over 20 calls: some faults injected
    assert plans[0] == plans[1]


# ------------------------------------------------------------ explorer units
def test_instruction_boundaries_walk():
    from repro.arch.encode import Assembler

    a = Assembler(base=0x1000)
    a.mov_imm("rax", 1)  # 10 bytes
    a.syscall()          # 2 bytes
    a.ret()              # 1 byte
    code = a.assemble()
    bounds = instruction_boundaries(code, 0x1000, 0x1000, 0x1000 + len(code))
    assert bounds[0] == 0x1000
    assert len(bounds) == 3
    assert bounds[-1] + 1 == 0x1000 + len(code)


def test_signal_trigger_arming():
    trig = SignalTrigger(addr=0x200, sig=10, arm_addr=0x400)
    assert not trig.armed and not trig.fired
    trig_no_arm = SignalTrigger(addr=0x200, sig=10)
    assert trig_no_arm.armed


def test_quantum_perturbation_bounds():
    policy = ExplorerPolicy(3, quantum=64, min_quantum=1)
    quanta = {policy.quantum_for(None, 64) for _ in range(200)}
    assert min(quanta) >= 1 and max(quanta) <= 64
    assert len(quanta) > 10  # actually perturbs
    fixed = ExplorerPolicy(3, perturb_quantum=False)
    assert fixed.quantum_for(None, 64) == 64


def test_schedule_order_is_permutation():
    policy = ExplorerPolicy(11)
    tasks = list(range(6))
    shuffled = policy.schedule_order(tasks)
    assert sorted(shuffled) == tasks
    stable = ExplorerPolicy(11, perturb_order=False)
    assert stable.schedule_order(tasks) == tasks


# --------------------------------------------------------------------- CLI
def test_cli_single_seed_ok(capsys):
    rc = faults_main(["--scenario", "mprotect_fault", "--seed", "2"])
    assert rc == 0
    assert "ok" in capsys.readouterr().out


def test_cli_json_output(capsys):
    rc = faults_main(["--scenario", "rewrite_window", "--seed", "0", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["digests"]


def test_cli_sweep_and_variant_flags(capsys):
    rc = faults_main(
        ["--scenario", "mprotect_fault", "--seeds", "0,1", "--no-order"]
    )
    assert rc == 0
    assert "2/2" in capsys.readouterr().out


def test_cli_reports_failures_with_reproduction(monkeypatch, capsys):
    def flaky(seed, *, perturb_order=True, perturb_quantum=True):
        from repro.faults.scenarios import ScenarioResult

        failing = seed >= 2 and perturb_order
        return ScenarioResult(
            scenario="flaky", seed=seed, ok=not failing,
            detail="synthetic failure" if failing else "",
        )

    monkeypatch.setitem(SCENARIOS, "flaky", flaky)
    rc = faults_main(["--scenario", "flaky", "--seeds", "0:4"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL flaky seed=2" in out
    assert "reproduce: python -m repro.faults --scenario flaky --seed 2" in out

    report = minimize("flaky", 3)
    # ingredient axis: failure needs perturb_order, survives without quantum
    assert report["variant"] == {
        "perturb_order": True, "perturb_quantum": False,
    }
    # seed axis: 2 is the smallest failing seed
    assert report["minimal_seed"] == 2
    assert report["command"] == (
        "python -m repro.faults --scenario flaky --seed 2 --no-quantum"
    )
    # and the printed command round-trips to the same failure
    assert run_one("flaky", 2, perturb_order=True, perturb_quantum=False).ok \
        is False


def test_cli_minimize_on_passing_seed():
    report = minimize("mprotect_fault", 0)
    assert report.get("already_passing") is True


# ------------------------------------------------------------- regressions
def _trampoline_seed_offsets() -> list[int]:
    """Seed values that map onto the sigreturn-trampoline boundaries."""
    machine = Machine()
    process = machine.load(build_two_signal_guest())
    tool = Lazypoline._install(machine, process, TraceInterposer())
    windows = lazypoline_windows(tool)
    offset = 0
    for name in PROBE_WINDOWS:
        if name == "trampoline":
            break
        w = windows[name]
        offset += len(
            instruction_boundaries(tool.blobs.code, 0, w.start, w.end)
        )
    w = windows["trampoline"]
    count = len(instruction_boundaries(tool.blobs.code, 0, w.start, w.end))
    return [offset + i for i in range(count)]


def test_regression_nested_signal_in_sigreturn_trampoline():
    """INVARIANT: sigreturn of a signal that interrupted the sigreturn
    trampoline must not overwrite the outer GS_TRAMP_SEL/GS_TRAMP_RIP
    slots — they still belong to the in-progress outer restore.  The fix
    resumes the nested return at the trampoline top (idempotent reads)
    instead; without it the outer gsjmp targets the trampoline itself and
    the guest livelocks in an infinite self-jump.
    """
    offsets = _trampoline_seed_offsets()
    assert len(offsets) >= 2  # gscopy8 and gsjmp at minimum
    for seed in offsets:
        result = SCENARIOS["rewrite_window"](seed)
        assert result.ok, (
            f"trampoline boundary seed {seed}: {result.detail}\n"
            f"  reproduce: python -m repro.faults "
            f"--scenario rewrite_window --seed {seed}"
        )


@pytest.mark.parametrize("tool", CORPUS["execve_chain"].tools)
def test_regression_execve_interposed_from_sigsys_handler(tool):
    """INVARIANT: after an interposer executes execve on the guest's
    behalf, the SIGSYS delivery path must not touch the old address
    space's selector or signal frame — a successful execve destroyed
    them.  The regression wrote the old selector address into the *new*
    image and segfaulted the freshly exec'd program.
    """
    program = CORPUS["execve_chain"]
    for seed in range(4):
        report = run_guest(
            program.build,
            tool,
            policy=ExplorerPolicy(seed),
            setup=program.setup,
            max_instructions=program.max_instructions,
        )
        assert not report.crashed, f"{tool} seed {seed}: guest crashed"
        assert report.signal is None, (
            f"{tool} seed {seed}: exec'd program killed by {report.signal}"
        )
        assert report.exit == 5
        assert report.stdout == b"before\nafter\n"


def test_regression_failed_opening_mprotect_keeps_slow_path():
    """INVARIANT: when the mprotect that would open lazypoline's rewrite
    window fails, the site must stay un-rewritten (permanent slow path)
    and the guest must observe nothing.  The regression ignored the
    failure and wrote through the still-read-only page, killing the guest
    with a spurious SIGSEGV.  Only the *opening* call (PROT_READ|WRITE)
    is failed: a failed restore legitimately strips execute permission
    from live code, which no userspace tool can recover from.
    """
    opening = PROT_READ | PROT_WRITE
    injector = FaultInjector(
        rules=(
            FaultRule(
                errno=errno.ENOMEM, name="mprotect", max_injections=10_000,
                predicate=lambda task, sysno, args: args[2] == opening,
            ),
        )
    )
    machine = Machine(policy=ExplorerPolicy(0))
    machine.kernel.fault_injector = injector
    process = machine.load(build_two_signal_guest())
    tool = Lazypoline._install(machine, process, TraceInterposer())
    machine.run(until=lambda: not process.alive, max_instructions=400_000)
    assert not process.alive
    assert process.term_signal is None
    assert process.exit_code == 0x1
    assert injector.plan, "no opening mprotect was ever attempted"
    guest_sites = {s for s in tool.rewritten if s >= layout.CODE_BASE}
    assert not guest_sites, (
        f"sites rewritten despite failed opening mprotect: "
        f"{[hex(s) for s in guest_sites]}"
    )


# ------------------------------------------------------- oracle sanity check
def test_differences_reports_divergence():
    """The differential oracle is not vacuous: a doctored report diverges."""
    report = run_guest(
        CORPUS["syscall_loop"].build, "lazypoline", policy=ExplorerPolicy(0)
    )
    twin = run_guest(
        CORPUS["syscall_loop"].build, "sud", policy=ExplorerPolicy(0)
    )
    assert differences(report, twin) == []
    import dataclasses

    doctored = dataclasses.replace(twin, exit=99)
    assert any("exit" in d for d in differences(report, doctored))
    doctored = dataclasses.replace(twin, stdout=b"tampered")
    assert any("stdout" in d for d in differences(report, doctored))


if __name__ == "__main__":  # pragma: no cover - re-pin helper
    print("PINNED_SCENARIO_DIGESTS = {")
    for name in sorted(SCENARIOS):
        print(f'    "{name}":\n        "{scenario_digest(name)}",')
    print("}")
