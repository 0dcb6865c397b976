"""The public Machine facade: kernel + CPU + scheduler in one object."""

from __future__ import annotations

from repro.cpu.costs import DEFAULT_COST_MODEL, CostModel
from repro.errors import GuestCrash
from repro.kernel.kernel import Kernel
from repro.kernel.scheduler import Scheduler
from repro.kernel.task import Task, TaskState
from repro.loader.image import ProgramImage
from repro.loader.loading import load_into
from repro.mem.address_space import AddressSpace


class Process:
    """Handle for a loaded program (its thread-group leader task)."""

    def __init__(self, machine: "Machine", task: Task):
        self.machine = machine
        self.task = task

    @property
    def pid(self) -> int:
        return self.task.pid

    @property
    def alive(self) -> bool:
        return self.task.alive

    @property
    def exit_code(self) -> int | None:
        return self.task.exit_code

    @property
    def term_signal(self) -> int | None:
        return self.task.term_signal

    @property
    def stdout(self) -> bytes:
        return bytes(self.task.stdout)

    @property
    def stderr(self) -> bytes:
        return bytes(self.task.stderr)

    def threads(self) -> list[Task]:
        return [
            t for t in self.machine.kernel.tasks.values() if t.pid == self.task.pid
        ]


class Machine:
    """A complete simulated machine.

    ::

        machine = Machine()
        proc = machine.load(image)
        machine.run()
        print(proc.stdout, proc.exit_code)
    """

    def __init__(
        self,
        costs: CostModel | None = None,
        *,
        quantum: int = 64,
        policy=None,
        translation_cache: bool = True,
        superblocks: bool = True,
        tracer=None,
        cores: int = 1,
        smp_seed: int = 0,
        mmap_min_addr: int = 0,
        ring_park_timeout: int | None = None,
    ):
        self.costs = costs or DEFAULT_COST_MODEL
        self.kernel = Kernel(
            self.costs,
            translation_cache=translation_cache,
            superblocks=superblocks,
        )
        self.kernel.mmap_min_addr = mmap_min_addr
        self.kernel.ring_park_timeout = ring_park_timeout
        self.scheduler = Scheduler(
            self.kernel, quantum=quantum, policy=policy,
            cores=cores, smp_seed=smp_seed,
        )
        self.kernel.scheduler = self.scheduler
        self.tracer = None
        if tracer is not None:
            self.attach_tracer(tracer)

    # ------------------------------------------------------------ observability
    def attach_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) an observability tracer.

        Wires the :class:`repro.obs.Tracer` into every instrumented layer:
        kernel dispatch, scheduler, signal delivery and the CPU translation
        cache.  Interposition tools read ``machine.kernel.tracer`` at their
        own emit sites, so tools installed before or after this call both
        report.  Simulated cycle accounting is identical either way.
        """
        self.tracer = tracer
        self.kernel.tracer = tracer
        self.kernel.cpu.tracer = tracer
        if tracer is not None:
            tracer.bind(self)

    # ------------------------------------------------------------------ time
    @property
    def clock(self) -> int:
        """Simulated elapsed time in CPU cycles.

        This is the *frontier* — the maximum over all per-core clocks —
        since cores retire cycles in parallel.  On a single-core machine
        it is exactly the kernel clock.
        """
        return self.scheduler.frontier()

    @property
    def seconds(self) -> float:
        return self.costs.cycles_to_seconds(self.clock)

    # ------------------------------------------------------------------- SMP
    @property
    def cores(self) -> list:
        """The per-core execution contexts (one :class:`Core` per core)."""
        return self.scheduler.cores

    @property
    def n_cores(self) -> int:
        return len(self.scheduler.cores)

    def superblock_stats(self) -> dict:
        """Tier-2 interpreter counters (compiles, invalidations, runs)."""
        return self.scheduler.superblock_stats()

    def core_stats(self) -> list[dict]:
        """Per-core utilization and coherence counters.

        ``utilization`` is busy cycles over the machine frontier;
        ``shootdowns`` counts cross-core translation-cache invalidations
        this core *received* from rewrites on other cores.
        """
        sched = self.scheduler
        frontier = self.clock
        stats = []
        for core in sched.cores:
            snap = core.snapshot(frontier)
            if not sched.smp:
                # One-core round: core 0's clock is the kernel clock.
                snap["clock"] = self.kernel.clock
                snap["tasks"] = len(self.kernel.live_tasks())
            stats.append(snap)
        return stats

    # ----------------------------------------------------------------- loading
    def load(
        self,
        image: ProgramImage,
        argv: tuple[str, ...] = (),
        *,
        register_binary: bool = True,
    ) -> Process:
        """Create a process from ``image`` (also registering it for execve)."""
        mem = AddressSpace()
        task = self.kernel.new_task(mem, comm=image.name)
        load_into(self.kernel, task, image, argv)
        if register_binary:
            self.kernel.binaries.setdefault("/bin/" + image.name, image)
        return Process(self, task)

    def register_binary(self, path: str, image: ProgramImage) -> None:
        """Make ``image`` reachable by execve at ``path``."""
        self.kernel.binaries[self.kernel.fs.normalize(path)] = image

    # ------------------------------------------------------------------- run
    def run(
        self,
        *,
        max_instructions: int | None = None,
        until=None,
        raise_on_deadlock: bool = True,
    ) -> None:
        """Run the scheduler until everything exits (or a bound is hit).

        ``until()`` is consulted once after each slice (or fused quantum
        of a nop slide), and again before a round only after events
        fired or time advanced.
        """
        self.scheduler.run(
            max_instructions=max_instructions,
            until=until,
            raise_on_deadlock=raise_on_deadlock,
        )

    def run_process(self, process: Process, *, max_instructions: int = 50_000_000) -> int:
        """Run until ``process`` exits and return its exit code."""
        self.run(until=lambda: not process.task.alive,
                 max_instructions=max_instructions)
        if process.task.alive:
            raise GuestCrash(
                f"process {process.task.comm!r} did not exit within "
                f"{max_instructions} instructions"
            )
        return process.exit_code

    # ------------------------------------------------------------ conveniences
    @property
    def fs(self):
        return self.kernel.fs

    def zombies(self) -> list[Task]:
        return [
            t for t in self.kernel.tasks.values() if t.state is TaskState.ZOMBIE
        ]
