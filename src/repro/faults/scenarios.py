"""Named fault/schedule scenarios: one seed in, one verdict out.

Each scenario is a pure function ``fn(seed, **variant) -> ScenarioResult``;
the same seed always produces the same verdict and the same digests (that
determinism is itself tested).  The CLI (``python -m repro.faults``) sweeps
seeds over these scenarios and minimises failures; the pytest suite replays
the recorded seed corpus through the same functions, so a CI failure and a
command-line reproduction are literally the same code path.

Variants (``perturb_order`` / ``perturb_quantum``) exist so the minimiser
can switch perturbation ingredients off one at a time and report the
smallest configuration that still fails.  They are read in one place,
:func:`scenario`: each scenario body receives a ``policy()`` factory that
builds a fresh :class:`ExplorerPolicy` for its seed with those ingredients,
and returns ``(problems, digests, covered)``; ``ok``/``detail`` derive from
``problems`` there too.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

from repro.arch.encode import Assembler
from repro.faults.corpus import CORPUS
from repro.faults.explorer import (
    ExplorerPolicy,
    SignalTrigger,
    instruction_boundaries,
    lazypoline_windows,
)
from repro.faults.injector import FaultInjector, FaultRule
from repro.interpose import TraceInterposer, attach
from repro.kernel import errno
from repro.kernel.machine import Machine
from repro.kernel.signals import SA_NODEFER, SIGSEGV, SIGUSR1, SIGUSR2
from repro.kernel.syscalls.table import NR
from repro.loader.image import image_from_assembler
from repro.mem import layout

from repro.faults.oracle import FULL_EXPRESSIVENESS, differences, run_guest

#: Windows whose every instruction boundary the rewrite_window scenario
#: probes.  ``wrapper`` is excluded here only because signals *inside the
#: wrapper* are exercised separately with a dedicated two-signal guest.
PROBE_WINDOWS = ("stub", "slowpath", "trampoline")


@dataclass
class ScenarioResult:
    scenario: str
    seed: int
    ok: bool
    detail: str = ""
    #: byte-stable digests of everything observable; equality across two
    #: runs of the same seed is the determinism acceptance criterion
    digests: dict = field(default_factory=dict)
    #: (tid, addr) or addr coverage information, scenario-specific
    covered: tuple = ()

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.digests):
            h.update(key.encode())
            h.update(str(self.digests[key]).encode())
        h.update(repr((self.ok, self.detail, self.covered)).encode())
        return h.hexdigest()


#: name -> ``fn(seed, **variant)``, in registration order.
SCENARIOS: dict = {}


def scenario(body):
    """Register ``body(seed, policy)`` as scenario ``fn(seed, **variant)``.

    ``policy(**kwargs)`` builds a fresh :class:`ExplorerPolicy` for the
    seed with the variant's perturbation ingredients (``kwargs`` such as
    ``triggers`` pass through).  The body returns ``(problems, digests,
    covered)``: every broken invariant as one message, the byte-stable
    digests, and the coverage tuple.
    """
    name = body.__name__

    @functools.wraps(body)
    def run(seed: int, *, perturb_order: bool = True,
            perturb_quantum: bool = True) -> ScenarioResult:
        def policy(**kwargs):
            return ExplorerPolicy(seed, perturb_order=perturb_order,
                                  perturb_quantum=perturb_quantum, **kwargs)

        problems, digests, covered = body(seed, policy)
        return ScenarioResult(
            scenario=name, seed=seed, ok=not problems,
            detail="; ".join(problems), digests=digests, covered=covered,
        )

    SCENARIOS[name] = run
    return run


# --------------------------------------------------------------------- guests
def _scratch_page(a) -> None:
    """Prologue: mmap one anonymous read/write page, address in ``r14``."""
    a.mov_imm("rdi", 0)
    a.mov_imm("rsi", 4096)
    a.mov_imm("rdx", 3)
    a.mov_imm("r10", 0x22)
    a.mov_imm("r8", (1 << 64) - 1)
    a.mov_imm("r9", 0)
    a.mov_imm("rax", NR["mmap"])
    a.syscall()
    a.mov("r14", "rax")


def _sigaction(a, sig: int, act: str) -> None:
    """``rt_sigaction(sig, act, NULL, 8)``."""
    a.mov_imm("rdi", sig)
    a.mov_imm("rsi", act)
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 8)
    a.mov_imm("rax", NR["rt_sigaction"])
    a.syscall()


def _counting_handler(a, label: str, offset: int, reg: str) -> None:
    """Signal handler ``label``: increment the u64 at ``r14 + offset``."""
    a.label(label)
    a.load(reg, "r14", offset)
    a.inc(reg)
    a.store("r14", offset, reg)
    a.ret()


def _sigaction_struct(a, label: str, handler: str, flags: int = 0) -> None:
    """An 8-aligned ``struct sigaction``: handler, flags, no restorer/mask."""
    a.align(8, fill=0)
    a.label(label)
    a.dq(handler)
    a.dq(flags)
    a.dq(0)
    a.dq(0)


def _bit_if_positive(a, bit: int, skip: str) -> None:
    """``rdi |= bit`` when ``rdx`` (signed) is at least 1."""
    a.cmpi("rdx", 1)
    a.jl(skip)
    a.ori("rdi", bit)
    a.label(skip)


def build_two_signal_guest():
    """Register USR1+USR2 handlers, raise USR1 once, count both, exit.

    Exit code packs both counters (``usr2 << 4 | usr1``); the expected
    clean outcome is 0x11 — each handler ran exactly once — no matter
    where the explorer injects the second signal.
    """
    a = Assembler(base=layout.CODE_BASE)
    a.label("_start")
    _scratch_page(a)
    for sig, act in ((SIGUSR1, "act1"), (SIGUSR2, "act2")):
        _sigaction(a, sig, act)
    a.label("armed")  # both handlers are live past this point
    a.mov_imm("rax", NR["getpid"])
    a.syscall()
    a.mov("r13", "rax")
    a.mov_imm("rax", NR["gettid"])
    a.syscall()
    a.mov("rsi", "rax")
    a.mov("rdi", "r13")
    a.mov_imm("rdx", SIGUSR1)
    a.mov_imm("rax", NR["tgkill"])
    a.syscall()
    # a few syscalls after the raise, so triggers aimed at the fast-path
    # stub still find boundaries to hit once the handler has unwound
    a.mov_imm("rbx", 4)
    a.label("tail")
    a.mov_imm("rax", NR["getpid"])
    a.syscall()
    a.dec("rbx")
    a.cmpi("rbx", 0)
    a.jnz("tail")
    a.load("rdi", "r14", 0)
    a.load("rcx", "r14", 8)
    a.shl("rcx", 4)
    a.add("rdi", "rcx")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    _counting_handler(a, "h1", 0, "rdx")
    _counting_handler(a, "h2", 8, "rdx")
    _sigaction_struct(a, "act1", "h1")
    _sigaction_struct(a, "act2", "h2")
    return image_from_assembler("two_signal_guest", a, entry="_start")


def build_nested_signal_guest(nest: int = 5):
    """An SA_NODEFER handler re-raises its own signal ``nest`` times.

    Each re-raise is delivered *inside* the still-running handler (the
    signal is not auto-masked), so the wrapped-signal nesting depth grows
    by one per level — the guest that exercises lazypoline's per-task
    sigreturn-selector stack to any chosen depth.  Exit code is the total
    handler activation count: ``nest + 1`` when nothing kills the guest.
    """
    a = Assembler(base=layout.CODE_BASE)
    a.label("_start")
    _scratch_page(a)
    a.mov_imm("rdx", nest)  # [r14+0] = remaining re-raises
    a.store("r14", 0, "rdx")
    _sigaction(a, SIGUSR1, "act1")
    a.mov_imm("rax", NR["getpid"])
    a.syscall()
    a.store("r14", 16, "rax")
    a.mov_imm("rax", NR["gettid"])
    a.syscall()
    a.store("r14", 24, "rax")
    a.load("rdi", "r14", 16)
    a.load("rsi", "r14", 24)
    a.mov_imm("rdx", SIGUSR1)
    a.mov_imm("rax", NR["tgkill"])
    a.syscall()
    a.load("rdi", "r14", 8)  # activation count -> exit code
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("h1")
    a.load("rdx", "r14", 8)
    a.inc("rdx")
    a.store("r14", 8, "rdx")
    a.load("rdx", "r14", 0)
    a.cmpi("rdx", 0)
    a.jz("h1_done")
    a.dec("rdx")
    a.store("r14", 0, "rdx")
    a.load("rdi", "r14", 16)
    a.load("rsi", "r14", 24)
    a.mov_imm("rdx", SIGUSR1)
    a.mov_imm("rax", NR["tgkill"])
    a.syscall()
    # the re-raised signal is delivered here, nested inside this frame
    a.label("h1_done")
    a.ret()
    _sigaction_struct(a, "act1", "h1", SA_NODEFER)
    return image_from_assembler("nested_signal_guest", a, entry="_start")


def build_eintr_retry_guest():
    """write() in a retry-on-EINTR loop: the POSIX-correct consumer.

    Injected transient errnos must be invisible in the final state — the
    guest retries until the write succeeds, then exits 0.
    """
    a = Assembler(base=layout.CODE_BASE)
    a.label("_start")
    a.mov_imm("rbx", 4)  # four successful writes
    a.label("next")
    a.label("retry")
    a.mov_imm("rdi", 1)
    a.mov_imm("rsi", "msg")
    a.mov_imm("rdx", 2)
    a.mov_imm("rax", NR["write"])
    a.syscall()
    a.addi("rax", errno.EINTR)  # rax == -EINTR  ->  zero
    a.jz("retry")
    a.subi("rax", errno.EINTR)
    a.addi("rax", errno.EAGAIN)
    a.jz("retry")
    a.dec("rbx")
    a.cmpi("rbx", 0)
    a.jnz("next")
    a.mov_imm("rdi", 0)
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("msg")
    a.db(b"w\n")
    return image_from_assembler("eintr_retry", a, entry="_start")


def build_ring_signal_guest(async_drain: bool = False):
    """A syscall-aggregation ring whose drain a signal must race.

    Ring of [getpid, read(pipe), getpid] plus a SIGUSR1 handler.  Exit
    code packs the invariants (expected 15): bit0 = the handler ran at
    least once, bit1 = the read entry's result (below), bit2/bit3 = the
    surrounding getpid entries completed with the pid.

    * Synchronous (image ``uring_signal``): nothing ever writes the pipe,
      so the read can only complete with -EINTR (bit1) and the drain is
      guaranteed to split: partial CQ, handler runs, the guest's
      re-enter loop finishes the remainder — never a lost wakeup.
    * ``async_drain`` (image ``uring_async``): ``submit_async()`` parks
      the read on a kernel-side waiter while both getpids complete, and
      the guest blocks in ``wait(3)`` until the host feeder
      (:func:`arm_pipe_feeder`) writes the pipe.  Signals interrupt the
      wait (the re-enter loop resumes it); the parked read must survive
      every interruption and complete with a positive byte count (bit1)
      — never -EINTR.
    """
    from repro.libc.uring import GuestRing

    a = Assembler(base=layout.CODE_BASE)
    a.label("_start")
    _scratch_page(a)  # handler counter @0, pipe fds @8
    _sigaction(a, SIGUSR1, "act")
    # pipe(r14 + 8); only the host-side feeder (if any) ever writes it
    a.lea("rdi", "r14", 8)
    a.mov_imm("rax", NR["pipe"])
    a.syscall()
    a.load("r13", "r14", 8)
    a.shl("r13", 32)  # fds are two packed u32s; keep the read end
    a.shr("r13", 32)
    ring = GuestRing(a, entries=4, base="r9")
    ring.emit_mmap()
    ring.push("getpid")
    a.lea("rdx", "r14", 256)
    ring.push_read("r13", "rdx", 8)
    ring.push("getpid")
    if async_drain:
        ring.submit_async()  # consumes all 3; the read parks kernel-side
        ring.wait(3)         # interruptible; re-enters until all CQEs posted
    else:
        ring.submit()  # re-enters until all 3 complete (partial CQ + resume)
    # pack the exit code
    a.mov_imm("rdi", 0)
    a.load("rdx", "r14", 0)
    _bit_if_positive(a, 1, "no_handler")
    ring.load_result("rdx", 1)
    if async_drain:
        _bit_if_positive(a, 2, "no_bytes")
    else:
        a.mov_imm("rcx", (1 << 64) - errno.EINTR)
        a.cmp("rdx", "rcx")
        a.jnz("no_eintr")
        a.ori("rdi", 2)
        a.label("no_eintr")
    ring.load_result("rdx", 0)
    _bit_if_positive(a, 4, "no_pid0")
    ring.load_result("rdx", 2)
    _bit_if_positive(a, 8, "no_pid2")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    _counting_handler(a, "handler", 0, "rax")
    _sigaction_struct(a, "act", "handler")
    name = "uring_async" if async_drain else "uring_signal"
    return image_from_assembler(name, a, entry="_start")


def arm_pipe_feeder(machine, task, delay=100_000, interval=50_000,
                    payload=b"!"):
    """Write ``payload`` into the task's pipe at ``delay`` cycles.

    The byte lands directly in the shared :class:`~repro.kernel.fs.Pipe`
    buffer — no syscall, no scheduling side effects — so the *only* way
    the guest can observe it is through a wakeup of its parked read.
    Re-armed every ``interval`` until the task exits, so a guest that is
    still installing handlers when the first feed fires is fed again.
    """
    from repro.kernel.fs import PipeWriteEnd

    kernel = machine.kernel

    def feed():
        if not task.alive:
            return
        for desc in task.fdtable.fds.values():
            if isinstance(desc, PipeWriteEnd) and desc.pipe.read_open:
                desc.pipe.buffer += payload
                break
        kernel.post_event_in(interval, feed)

    kernel.post_event_in(delay, feed)


def arm_repeating_signal(machine, task, delay=20_000, interval=50_000):
    """SIGUSR1 at ``delay`` cycles, re-armed until the task exits.

    Firing is held until the guest has installed a SIGUSR1 handler —
    interposition tools shift guest progress later in simulated time, and
    a signal landing before ``rt_sigaction`` would take the default
    (terminate) action, which is correct behaviour but not the race this
    helper exists to provoke.
    """
    from repro.kernel.task import SIG_DFL, SIG_IGN

    kernel = machine.kernel

    def fire():
        if not task.alive:
            return
        if task.sighand.get(SIGUSR1).handler in (SIG_DFL, SIG_IGN):
            kernel.post_event_in(interval, fire)
            return
        kernel.post_signal(task, SIGUSR1)
        kernel.post_event_in(interval, fire)

    kernel.post_event_in(delay, fire)


# ------------------------------------------------------------ shared runs
class _KeepTool:
    """``configure`` hook for :func:`run_guest` that keeps the attached
    tool instance, for health/mode checks after the run."""

    tool = None

    def __call__(self, machine, process, tool):
        self.tool = tool


def _lazypoline_two_signal(policy, injector):
    """The two-signal guest under lazypoline with ``injector`` armed, run
    to exit.  Returns ``(process, tool, problems)``; no trigger posts
    SIGUSR2 here, so only the USR1 count (exit 0x1) is expected."""
    machine = Machine(policy=policy)
    machine.kernel.fault_injector = injector
    process = machine.load(build_two_signal_guest())
    tool = attach(machine, process, "lazypoline", interposer=TraceInterposer())
    machine.run(until=lambda: not process.alive, max_instructions=400_000)
    problems = []
    if process.alive:
        problems.append("guest did not terminate")
    elif process.term_signal is not None:
        problems.append(f"guest killed by signal {process.term_signal}")
    elif process.exit_code != 0x1:
        problems.append(f"exit={process.exit_code:#x}")
    return process, tool, problems


def _ring_signal_runs(seed, policy, *, async_drain):
    """:func:`build_ring_signal_guest` bare and under a seed-selected
    tool, a repeating SIGUSR1 with seed-varied timing armed against both
    (plus the pipe feeder for the async drain).

    Returns ``(reports, problems, covered)``: reports by label (``"bare"``
    and the tool name, ``covered[0]``), the exit-code verdicts — a lost
    wakeup shows up as the guest spinning to the instruction budget
    (crashed=True), a dropped or double completion as a missing bit —
    and the timing coverage.
    """
    tool = ("lazypoline", "zpoline", "ptrace")[seed % 3]
    delay = 10_000 + (seed * 7919) % 40_000
    interval = 30_000 + (seed * 104729) % 50_000
    covered = (tool, delay, interval)
    if async_drain:
        # the pipe is fed only after at least one signal has had time
        # to land on the parked read
        feed_delay = delay + 2 * interval + (seed * 31) % 20_000
        covered += (feed_delay,)

    def arm(machine, process, tool_instance):
        arm_repeating_signal(
            machine, process.task, delay=delay, interval=interval
        )
        if async_drain:
            arm_pipe_feeder(
                machine, process.task, delay=feed_delay, interval=interval
            )

    build = functools.partial(build_ring_signal_guest, async_drain)
    reports = {}
    problems = []
    for label, name in (("bare", None), (tool, tool)):
        report = reports[label] = run_guest(
            build, name, policy=policy(), configure=arm,
            max_instructions=2_000_000,
        )
        if report.crashed:
            problems.append(f"{label}: run did not terminate (lost wakeup?)")
        elif report.exit != 15:
            problems.append(f"{label}: exit={report.exit}, expected 15")
    return reports, problems, covered


def _chaos_runs(shards, fault, *, requests, tool=None, batched=False,
                deadline_cycles=None):
    """Serve ``requests`` on a cluster with one :class:`ShardFault`
    (``fault`` holds its fields), twice, with the same seed.

    Returns ``(report, problems, digests)``: the first run's report, the
    fleet invariants every chaos scenario asserts — 100 % of the requests
    complete via failover/retry, none is lost or duplicated, exactly the
    faulted shard is marked down, and the second run's report is
    byte-identical — and both report digests.
    """
    from repro.cluster import ChaosPlan, Cluster, ShardFault

    plan = ChaosPlan([ShardFault(**fault)])

    def serve():
        return Cluster(
            shards=shards, tool=tool, batched=batched, processes=False,
            chaos=plan, deadline_cycles=deadline_cycles,
        ).serve(requests=requests, warmup=4)

    report, replay = serve(), serve()
    av = report["availability"]
    problems = []
    if av["completed"] != requests:
        problems.append(
            f"completed {av['completed']}/{requests} "
            f"(lost ids: {av['failed_ids']})"
        )
    if av["duplicate_serves"]:
        problems.append(f"{av['duplicate_serves']} duplicated serves")
    if av["shards_down"] != [fault["shard"]]:
        problems.append(
            f"shards_down={av['shards_down']}, expected {[fault['shard']]}"
        )
    d1, d2 = _cluster_report_digest(report), _cluster_report_digest(replay)
    if d1 != d2:
        problems.append("same seed, different report (non-deterministic)")
    return report, problems, {"report": d1, "replay": d2}


def _cluster_report_digest(report: dict) -> str:
    """Byte-stable digest of a merged cluster report.

    Tier-independent on purpose: the superblock contract is identical
    *cycles*, not identical compile-activity counters, so the obs
    ``block_compile``/``block_invalidate`` counts (and the
    ``dropped_events`` overflow they can shift) are excluded — the
    corpus replays must digest the same with tiering on or off.
    """
    import json as _json

    clone = _json.loads(_json.dumps(report))
    obs = clone.get("obs") or {}
    for kind in ("block_compile", "block_invalidate"):
        obs.get("counts", {}).pop(kind, None)
    obs.pop("dropped_events", None)
    return hashlib.sha256(
        _json.dumps(clone, sort_keys=True).encode()
    ).hexdigest()


# ------------------------------------------------------------------ scenarios
@scenario
def rewrite_window(seed, policy):
    """Deliver a signal at one lazypoline-critical instruction boundary.

    The boundary is ``seed % len(boundaries)`` over the stub, the SIGSYS
    slow path and the sigreturn trampoline, so any seed sweep of at least
    ``len(boundaries)`` consecutive seeds covers every boundary.  The
    guest must still exit 0x11 (both handlers exactly once) and the
    per-task selector/sigreturn-stack state must be balanced afterwards.
    """
    machine = Machine()
    image = build_two_signal_guest()
    process = machine.load(image)
    tool = attach(machine, process, "lazypoline", interposer=TraceInterposer())

    windows = lazypoline_windows(tool)
    boundaries: list[int] = []
    for name in PROBE_WINDOWS:
        w = windows[name]
        boundaries.extend(
            instruction_boundaries(tool.blobs.code, 0, w.start, w.end)
        )
    target = boundaries[seed % len(boundaries)]
    explorer = policy(triggers=(
        SignalTrigger(target, SIGUSR2, arm_addr=image.symbols["armed"]),
    ))
    machine.scheduler.policy = explorer
    machine.run(until=lambda: not process.alive, max_instructions=400_000)

    problems = []
    if process.alive:
        problems.append("guest did not terminate (livelock/self-jump?)")
    elif process.term_signal is not None:
        problems.append(f"guest killed by signal {process.term_signal}")
    elif process.exit_code != 0x11:
        problems.append(f"handler counts wrong: exit={process.exit_code:#x}")
    if not explorer.all_triggers_fired:
        problems.append(f"trigger at {target:#x} never fired")
    # the selector/sigreturn-stack balance invariants are asserted per
    # instruction in-test via a CpuHook; here the verdict is behavioural
    return problems, {"schedule": explorer.trace.digest()}, (target,)


@scenario
def differential(seed, policy):
    """Corpus program under every full-expressiveness tool pair, one seed.

    The program is chosen by the seed; each tool runs under an
    :class:`ExplorerPolicy` built from the *same* seed, and every pairwise
    report difference is a failure.
    """
    names = sorted(CORPUS)
    program = CORPUS[names[seed % len(names)]]
    reports = {}
    for tool in program.tools:
        reports[tool] = run_guest(
            program.build,
            tool,
            policy=policy(),
            setup=program.setup,
            max_instructions=program.max_instructions,
        )
    problems = []
    tools = list(program.tools)
    for i, ta in enumerate(tools):
        for tb in tools[i + 1:]:
            for diff in differences(reports[ta], reports[tb]):
                problems.append(f"{ta} vs {tb}: {diff}")
    for tool, report in reports.items():
        if report.crashed:
            problems.append(f"{tool}: guest did not terminate")
    digests = {tool: r.digest() for tool, r in reports.items()}
    return problems, digests, (program.name,)


@scenario
def transient_faults(seed, policy):
    """Seeded EINTR/EAGAIN injection against a retry-correct guest.

    Runs under each full-expressiveness tool with the same seed; the guest
    must absorb every injected fault (exit 0, identical stdout), and the
    recorded fault plan must replay to a byte-identical report.
    """
    problems = []
    digests = {}
    for tool in FULL_EXPRESSIVENESS:
        injector = FaultInjector(
            seed=seed,
            rate=(1, 3),
            errnos=(errno.EINTR, errno.EAGAIN),
            eligible=("write",),
        )
        report = run_guest(
            build_eintr_retry_guest,
            tool,
            policy=policy(),
            injector=injector,
            max_instructions=2_000_000,
        )
        digests[tool] = report.digest()
        digests[tool + ":plan"] = injector.plan_digest()
        if report.crashed or report.exit != 0:
            problems.append(
                f"{tool}: exit={report.exit} crashed={report.crashed} "
                f"after {len(injector.plan)} injected faults"
            )
        if report.stdout != b"w\n" * 4:
            problems.append(f"{tool}: stdout {report.stdout!r}")
        # exact replay: same plan, no rng — identical observable run
        replayed = run_guest(
            build_eintr_retry_guest,
            tool,
            policy=policy(),
            injector=FaultInjector.from_plan(injector.plan),
            max_instructions=2_000_000,
        )
        if replayed.digest() != report.digest():
            problems.append(f"{tool}: replay diverged from recorded plan")
    return problems, digests, ()


@scenario
def mprotect_fault(seed, policy):
    """Fail the mprotect that *opens* lazypoline's rewrite window.

    A seed-selected opening mprotect (identified by its PROT_READ|WRITE
    argument — the restores ask for the saved protections back) returns
    ENOMEM; the site must simply stay on the slow path — same behaviour,
    more SIGSYS hits — and the guest must be none the wiser.  Failing the
    *restore* call is not probed: that genuinely strips execute permission
    from a live code page, which no userspace tool can paper over.
    """
    from repro.kernel.syscalls.mm import PROT_READ, PROT_WRITE

    opening = PROT_READ | PROT_WRITE
    injector = FaultInjector(
        rules=(
            FaultRule(
                errno=errno.ENOMEM, name="mprotect", skip=seed % 4,
                max_injections=1 + seed % 2,
                predicate=lambda task, sysno, args: args[2] == opening,
            ),
        )
    )
    _, _, problems = _lazypoline_two_signal(policy(), injector)
    if not injector.plan:
        problems.append("no mprotect was actually injected")
    return (problems, {"plan": injector.plan_digest()},
            tuple(r.seq for r in injector.plan))


# ------------------------------------------------- degradation scenarios
@scenario
def sled_denied(seed, policy):
    """Hostile ``mmap_min_addr``: the VA-0 sled is denied at attach time.

    lazypoline must come up in SUD_ONLY — interposition fully live, zero
    rewrites — and the guest must be indistinguishable from bare (behaviour)
    and from plain SUD (identical per-thread trace, since SUD_ONLY *is*
    selector-only SUD).
    """
    from repro.interpose.lazypoline.degrade import Mode

    min_addr = 4096 * (1 + seed % 4)
    keep = _KeepTool()
    reports = {
        name: run_guest(
            build_two_signal_guest,
            tool,
            policy=policy(),
            machine_opts={"mmap_min_addr": min_addr},
            configure=keep if tool == "lazypoline" else None,
            max_instructions=400_000,
        )
        for name, tool in (
            ("bare", None), ("lazypoline", "lazypoline"), ("sud", "sud"),
        )
    }
    tool = keep.tool
    problems = []
    if tool.mode is not Mode.SUD_ONLY:
        problems.append(f"attached in {tool.mode} instead of SUD_ONLY")
    if tool.rewritten:
        problems.append(f"{len(tool.rewritten)} sites rewritten without a sled")
    if reports["bare"].exit != 0x1:
        problems.append(f"bare guest exit={reports['bare'].exit}")
    if not reports["lazypoline"].trace:
        problems.append("no syscall was interposed in SUD_ONLY")
    for diff in differences(
        reports["lazypoline"], reports["bare"], compare_trace=False
    ):
        problems.append(f"lazypoline vs bare: {diff}")
    for diff in differences(reports["lazypoline"], reports["sud"]):
        problems.append(f"lazypoline vs sud: {diff}")
    digests = {name: r.digest() for name, r in reports.items()}
    return problems, digests, (min_addr, tool.health()["mode"])


@scenario
def setup_fault(seed, policy):
    """ENOMEM injected into lazypoline's setup-time mmaps.

    Even seeds fail only the VA-0 blob mapping (SUD_ONLY expected); odd
    seeds fail *both* mappings under a ``floor="passthrough"`` policy
    (PASSTHROUGH expected — nothing armed, guest runs bare but runs).
    Either way the guest's observable behaviour matches the bare run.
    """
    from repro.interpose.lazypoline.degrade import Mode

    floor_passthrough = seed % 2 == 1
    injector = FaultInjector(
        rules=(
            FaultRule(
                errno=errno.ENOMEM, name="mmap",
                max_injections=2 if floor_passthrough else 1,
            ),
        )
    )
    keep = _KeepTool()
    bare = run_guest(
        build_two_signal_guest, None, policy=policy(),
        max_instructions=400_000,
    )
    lazy = run_guest(
        build_two_signal_guest,
        "lazypoline",
        policy=policy(),
        injector=injector,
        configure=keep,
        tool_opts=(
            {"degrade_policy": "passthrough"} if floor_passthrough else None
        ),
        max_instructions=400_000,
    )
    tool = keep.tool
    expected = Mode.PASSTHROUGH if floor_passthrough else Mode.SUD_ONLY
    problems = []
    if tool.mode is not expected:
        problems.append(f"mode {tool.mode}, expected {expected}")
    if bare.exit != 0x1:
        problems.append(f"bare guest exit={bare.exit}")
    if not floor_passthrough and not lazy.trace:
        problems.append("no syscall was interposed in SUD_ONLY")
    if floor_passthrough and lazy.trace:
        problems.append("PASSTHROUGH mode still interposed syscalls")
    injected = [r for r in injector.plan if r.name == "mmap"]
    if len(injected) != len(injector.plan) or not injected:
        problems.append(f"unexpected fault plan: {injector.plan_json()}")
    # PASSTHROUGH armed nothing, so even the trace must match bare's
    # (both empty); in SUD_ONLY the trace is tool-internal knowledge.
    for diff in differences(
        lazy, bare, compare_trace=floor_passthrough
    ):
        problems.append(f"lazypoline vs bare: {diff}")
    digests = {
        "bare": bare.digest(), "lazypoline": lazy.digest(),
        "plan": injector.plan_digest(),
    }
    return problems, digests, (tool.health()["mode"], len(injected))


@scenario
def rewrite_fault(seed, policy):
    """Fail seed-selected rewrite mprotects — opening *and* restore calls.

    Unlike :func:`mprotect_fault` (which only probes the opening call),
    the rule here matches any rewrite-window mprotect: transient errnos
    exercise the bounded retry, the non-transient EACCES exercises
    blacklisting, and a failed *restore* exercises the full rollback.
    Whatever is hit, the invariant is absolute: the guest's behaviour is
    unchanged and no attempted site is ever left torn
    (:func:`repro.interpose.zpoline.rewriter.site_intact` on every one).
    """
    from repro.interpose.zpoline.rewriter import site_intact

    errnos = (errno.ENOMEM, errno.EAGAIN, errno.EACCES)
    injector = FaultInjector(
        rules=(
            FaultRule(
                errno=errnos[seed % 3], name="mprotect",
                skip=1 + seed % 6,  # skip >= 1: the attach-time blob
                max_injections=1 + seed % 3,  # mprotect always passes
            ),
        )
    )
    process, tool, problems = _lazypoline_two_signal(policy(), injector)
    if not injector.plan:
        problems.append("no mprotect fault was injected")
    attempted = (
        set(tool.rewritten)
        | tool.degrade.blacklist
        | set(tool.degrade.site_failures)
    )
    torn = [
        hex(site)
        for site in sorted(attempted)
        if not site_intact(process.task, site)
    ]
    if torn:
        problems.append(f"torn sites after injected faults: {torn}")
    # (seq, prot) per injection: prot==0x3 is a window opening, anything
    # with PROT_EXEC is a permission restore
    return (problems, {"plan": injector.plan_digest()},
            tuple((r.seq, r.args[2]) for r in injector.plan))


@scenario
def signal_depth(seed, policy):
    """Exhaust the per-task sigreturn-selector stack via nested signals.

    ``signal_depth_limit=3`` against a 6-deep nest: even seeds use the
    ``spill`` policy — selectors past the limit chain onto overflow pages
    and the guest result is identical to bare; odd seeds use the ``fault``
    policy — the guest takes a clean SIGSEGV (the kernel force_sigsegv
    analogue), never a host exception.
    """
    fault_variant = seed % 2 == 1
    keep = _KeepTool()
    bare = run_guest(
        build_nested_signal_guest, None, policy=policy(),
        max_instructions=400_000,
    )
    lazy = run_guest(
        build_nested_signal_guest,
        "lazypoline",
        policy=policy(),
        configure=keep,
        tool_opts={
            "degrade_policy": {
                "signal_depth_limit": 3,
                "depth_overflow": "fault" if fault_variant else "spill",
            }
        },
        max_instructions=400_000,
    )
    health = keep.tool.health()
    problems = []
    if bare.exit != 6:
        problems.append(f"bare guest exit={bare.exit}, expected 6 activations")
    if fault_variant:
        if lazy.signal != SIGSEGV:
            problems.append(
                f"expected clean SIGSEGV, got signal={lazy.signal} "
                f"exit={lazy.exit} crashed={lazy.crashed}"
            )
        if not health["depth_overflows"]:
            problems.append("no depth overflow was recorded")
    else:
        for diff in differences(lazy, bare, compare_trace=False):
            problems.append(f"lazypoline vs bare: {diff}")
        if not health["spills"]:
            problems.append("nest never spilled past the inline limit")
        if health["depth_overflows"]:
            problems.append("spill policy still took a depth overflow")
    digests = {"bare": bare.digest(), "lazypoline": lazy.digest()}
    return problems, digests, (
        "fault" if fault_variant else "spill",
        health["spills"], health["depth_overflows"],
    )


@scenario
def uring_signal(seed, policy):
    """Signals racing a ring drain: partial CQ + EINTR, never a lost wakeup.

    A repeating SIGUSR1 is armed with seed-varied timing against the
    synchronous :func:`build_ring_signal_guest`, whose ring contains a
    read of a forever-empty pipe — the drain *must* be interrupted.  The
    guest packs its invariants into the exit code (expected 15: handler
    ran, the read entry completed -EINTR, both surrounding entries
    completed), checked bare and under a seed-selected interposition tool
    on a perturbed schedule.
    """
    reports, problems, covered = _ring_signal_runs(
        seed, policy, async_drain=False
    )
    return problems, {k: r.digest() for k, r in reports.items()}, covered


@scenario
def uring_async(seed, policy):
    """Signals racing *parked* ring entries: resumable wait, no lost wakeup.

    The async :func:`build_ring_signal_guest` parks a pipe read on a
    kernel-side waiter and blocks in ``ring_wait`` for its CQE; a
    repeating SIGUSR1 (seed-varied timing) interrupts that wait while the
    entry is parked, and a host-side pipe feeder delivers the wakeup only
    after at least one signal has had time to land.  The guest must
    resume the wait after every interruption and the parked read must
    complete with the fed bytes (expected exit 15).  Checked bare and
    under a seed-selected interposition tool on a perturbed schedule;
    both runs must agree.
    """
    reports, problems, covered = _ring_signal_runs(
        seed, policy, async_drain=True
    )
    tool = covered[0]
    for diff in differences(reports["bare"], reports[tool],
                            compare_trace=False):
        problems.append(f"bare vs {tool}: {diff}")
    return problems, {k: r.digest() for k, r in reports.items()}, covered


# ------------------------------------------------------------- fleet chaos
# The schedule-perturbation variants don't apply at the fleet layer: these
# scenarios never call ``policy`` (the variant is accepted for CLI
# compatibility).
@scenario
def shard_crash(seed, policy):
    """A seeded shard crash mid-serve: failover completes every request.

    One shard of a 2- or 4-shard cluster (seed-picked, occasionally under
    lazypoline) crashes after a seed-picked request; the health model
    downs it, its breaker opens, and the balancer re-plans the stranded
    requests over the live shards.  Invariants: 100 % completion, no
    lost or duplicated request id, exactly the victim down — and the
    whole merged report byte-identical across two runs of the same seed.
    """
    shards = 4 if seed % 2 else 2
    tool = "lazypoline" if seed % 8 == 0 else None
    victim = (seed // 2) % shards
    at = 1 + (seed // 3) % 4
    _, problems, digests = _chaos_runs(
        shards, {"shard": victim, "kind": "crash", "at_request": at},
        requests=12 * shards, tool=tool,
    )
    return problems, digests, (shards, tool or "none", victim, at)


@scenario
def shard_hang(seed, policy):
    """A hung shard must return within its deadline, not stall the fleet.

    One shard stops responding mid-serve; the run is bounded by the
    shard deadline, and on the async ring leg (every other seed) the
    shard's in-flight parked entries cancel with ``-ETIMEDOUT`` instead
    of parking forever — asserted via the merged ``ring_timeouts``
    counter.  Same fleet invariants and same-seed byte-identity as
    :func:`shard_crash`.
    """
    batched = "async" if seed % 2 else False
    victim = (seed // 2) % 2
    at = 1 + (seed // 3) % 3
    report, problems, digests = _chaos_runs(
        2, {"shard": victim, "kind": "hang", "at_request": at,
            "deadline_cycles": 3_000_000},
        requests=24, batched=batched,
    )
    if batched == "async" and not report["availability"]["ring_timeouts"]:
        problems.append("async hang produced no -ETIMEDOUT ring completion")
    return problems, digests, (batched if batched else "direct", victim, at)


@scenario
def shard_degraded(seed, policy):
    """A slow shard blows per-request deadlines: suspect → down → retry.

    One shard pays a seed-picked surcharge on every request, pushing it
    past the cluster's per-request deadline; the health model demotes it
    (up → suspect → down over two bad rounds) and the backoff retries
    land the requests on the fast shard.  Same fleet invariants and
    same-seed byte-identity as :func:`shard_crash`.
    """
    victim = seed % 2
    slow = 260_000 + (seed % 4) * 40_000
    report, problems, digests = _chaos_runs(
        2, {"shard": victim, "kind": "degraded", "slow_cycles": slow},
        requests=24, deadline_cycles=250_000,
    )
    if not report["availability"]["timeouts"]:
        problems.append("degraded shard never blew a per-request deadline")
    if not report["availability"]["retries"]:
        problems.append("timeouts never produced a retry round")
    return problems, digests, (victim, slow)
