"""The cycle cost model — every calibrated constant in one place.

The paper measures *ratios* between interposition mechanisms on a 2.10 GHz
Xeon.  We reproduce those ratios with a simple additive cost model: each
instruction class has a cycle cost, each syscall a service cost, and each
kernel or interposer path (mode switch, interception check, SUD selector
read and write, seccomp filter run, signal delivery, sigreturn, context
switch) a constant.  Every cycle the simulator charges comes from this
module: :data:`DEFAULT_INSN_COSTS`, :data:`SERVICE_COSTS` and the fields of
the immutable :class:`CostModel`.  DESIGN.md §5 lists the identities the
defaults satisfy; `tests/test_calibration.py` asserts them,
`tests/test_cost_sources.py` keeps cycle literals out of every other module,
and EXPERIMENTS.md records the resulting paper-vs-measured ratios.

The defaults are calibrated, not magic: e.g. ``xsave``/``xrstor`` at ~55
cycles for the full x87+SSE+AVX state matches the Fig. 4 "xstate
preservation" component (2.38x − 1.66x over a ~164-cycle baseline loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from types import MappingProxyType
from typing import Mapping

from repro.arch.isa import N_MNEMONICS, Mnemonic

_M = Mnemonic
_XSTATE = (_M.XSAVE, _M.XRSTOR)

#: Default per-instruction cycle costs by mnemonic.  Quarter-cycle values
#: are allowed: the trampoline sled's nops retire ~4 per cycle on the modelled
#: out-of-order core, which is what keeps the zpoline slide cheap even for
#: low syscall numbers (the paper's microbenchmark picks syscall 500 to
#: enter the sled at its tail and minimise even that).
DEFAULT_INSN_COSTS: dict[Mnemonic, float] = {
    _M.NOP: 0.25,
    _M.RET: 3,
    _M.HLT: 1,
    _M.INT3: 1,
    _M.SYSCALL: 0,  # kernel path costs charged by the kernel
    _M.SYSENTER: 0,
    _M.UD2: 0,
    _M.PUSH: 1,
    _M.POP: 1,
    _M.CALL_REG: 3,
    _M.JMP_REG: 2,
    _M.CALL_REL: 3,
    _M.JMP_REL: 2,
    _M.JZ: 2,
    _M.JNZ: 2,
    _M.JL: 2,
    _M.JG: 2,
    _M.JGE: 2,
    _M.JLE: 2,
    _M.MOV_IMM64: 1,
    _M.MOV: 1,
    _M.LOAD: 3,
    _M.STORE: 3,
    _M.LOAD8: 3,
    _M.STORE8: 3,
    _M.ADD: 1,
    _M.SUB: 1,
    _M.CMP: 1,
    _M.AND: 1,
    _M.OR: 1,
    _M.XOR: 1,
    _M.IMUL: 3,
    _M.SHL: 1,
    _M.SHR: 1,
    _M.ADDI: 1,
    _M.SUBI: 1,
    _M.CMPI: 1,
    _M.ANDI: 1,
    _M.ORI: 1,
    _M.XORI: 1,
    _M.INC: 1,
    _M.DEC: 1,
    _M.LEA: 1,
    _M.MOVQ_XG: 2,
    _M.MOVQ_GX: 2,
    _M.MOVUPS_LOAD: 3,
    _M.MOVUPS_STORE: 3,
    _M.MOVAPS: 2,
    _M.PUNPCKLQDQ: 2,
    _M.XORPS: 2,
    _M.VADDPD: 3,
    _M.FLD1: 3,
    _M.FADDP: 3,
    _M.FLD_MEM: 4,
    _M.FSTP_MEM: 4,
    _M.XSAVE: 0,  # computed from components, see xsave_cost()
    _M.XRSTOR: 0,
    _M.RDGSBASE: 1,
    _M.WRGSBASE: 1,
    _M.GSLOAD: 2,
    _M.GSSTORE: 2,
    _M.GSLOAD8: 2,
    _M.GSSTORE8: 2,
    _M.GSJMP: 3,
    _M.GSCOPY8: 3,
    _M.RDPKRU: 1,
    _M.WRPKRU: 23,  # serialising on real hardware
    _M.GSWRPKRU: 26,  # wrpkru + the protected spill it models
    _M.HCALL: 18,
}

#: Kernel-side service cost per syscall (cycles), beyond the mode switch,
#: keyed by Linux syscall name.  Tuned so that a small static HTTP request
#: costs a realistic few tens of thousands of cycles (~60k req/s single
#: worker at 2.1 GHz, Fig. 5 scale).
SERVICE_COSTS: dict[str, int] = {
    "read": 2800,
    "write": 2800,
    "readv": 3000,
    "writev": 3000,
    "pread64": 2400,
    "pwrite64": 2400,
    "open": 3200,
    "openat": 3200,
    "close": 1400,
    "stat": 1600,
    "fstat": 1100,
    "lseek": 120,
    "mmap": 600,
    "mprotect": 600,
    "munmap": 600,
    "sendfile": 2600,
    "socket": 1800,
    "bind": 700,
    "listen": 700,
    "accept": 3600,
    "accept4": 3600,
    "connect": 3600,
    "shutdown": 600,
    "epoll_create1": 800,
    "epoll_ctl": 900,
    "epoll_wait": 3200,
    "fork": 20000,
    "vfork": 12000,
    "clone": 9000,
    "execve": 60000,
    "wait4": 800,
    "getdents64": 900,
    "futex": 500,
    "rt_sigaction": 300,
    "rt_sigprocmask": 150,
    "getrandom": 700,
    # Fixed cost of a ring_enter crossing (header validation + ring setup);
    # each drained entry additionally pays CostModel.uring_per_entry plus
    # the entry's own service cost.
    "ring_enter": 250,
}

#: Service cost of every syscall :data:`SERVICE_COSTS` does not name.
DEFAULT_SERVICE_COST = 60


@dataclass(frozen=True)
class CostModel:
    """Cycle costs for instructions and kernel paths.

    All times are in CPU cycles at the paper's 2.10 GHz clock; convert with
    :meth:`cycles_to_seconds`.  A model cannot change once built (compiled
    blocks bake its costs in): build another one to recalibrate.
    """

    #: CPU frequency (Hz) used to convert cycles to time/throughput.
    frequency_hz: float = 2.10e9

    #: Per-mnemonic instruction costs (cycles; quarter-cycle multiples,
    #: see :meth:`__post_init__`), one for every mnemonic.  The model keeps
    #: a read-only copy.
    insn_costs: Mapping[Mnemonic, float] = field(
        default_factory=lambda: DEFAULT_INSN_COSTS
    )

    # ---- kernel syscall path ------------------------------------------------
    #: Round-trip user→kernel→user mode switch for a syscall.
    syscall_entry_exit: int = 150
    #: Extra cost of dispatching an out-of-range syscall number (ENOSYS).
    nosys_penalty: int = 10
    #: Kernel-side copy cost per byte moved between user and kernel buffers
    #: (read/write payloads).  Four bytes per cycle models a cache-cold
    #: copy_to_user on payload-sized buffers.
    copy_bytes_per_cycle: int = 4

    # ---- interception machinery ----------------------------------------------
    #: Extra syscall-entry work when *any* interception interface is armed
    #: (the "slower syscall entry path" Table II attributes to enabling SUD).
    interception_check: int = 54
    #: Reading the user-space SUD selector byte from the kernel entry path.
    sud_selector_read: int = 15
    #: One handler-side store to the SUD selector byte (ALLOW or BLOCK):
    #: the plain SUD tool's handler pays it on entry and on exit,
    #: lazypoline's SIGSYS slow path once.
    sud_selector_write: int = 3
    #: Fixed cost of invoking the seccomp machinery on syscall entry.
    seccomp_fixed: int = 45
    #: Cost per executed classic-BPF instruction.
    seccomp_per_insn: int = 3

    # ---- syscall aggregation (repro.kernel.uring) ----------------------------
    #: Per-entry bookkeeping while draining a submission ring: SQE fetch,
    #: CQE store, head/tail publication.  Ring entries deliberately do NOT
    #: pay ``syscall_entry_exit`` or ``sud_selector_read`` — amortizing the
    #: crossing is the whole point — but armed seccomp filters, fault
    #: injection, and the entry's own service cost still apply per entry.
    uring_per_entry: int = 30

    # ---- signals -------------------------------------------------------------
    #: Kernel cost of setting up a signal frame (includes xstate spill) and
    #: transferring to the handler.
    signal_delivery: int = 1640
    #: Kernel cost of rt_sigreturn (frame teardown + xstate reload).
    sigreturn_work: int = 1050
    #: A signal-path tool (SUD, seccomp trap) applying an application's
    #: nested rt_sigreturn to its outer SIGSYS frame, on top of the
    #: ucontext copy.
    nested_sigreturn_fixup: int = 20

    # ---- scheduling / ptrace ---------------------------------------------------
    #: One full context switch between tasks (ptrace tracer/tracee ping-pong).
    context_switch: int = 1500
    #: Cost of one ptrace() request made by the tracer (PTRACE_GETREGS, ...).
    ptrace_request: int = 400

    # ---- SMP ----------------------------------------------------------------
    #: One PAUSE-loop iteration while spinning on a contended spinlock
    #: (the §IV-A(b) rewrite lock under SMP).
    smp_spin_retry: int = 40
    #: IPI + remote decoded-insn flush when a code patch on one core
    #: invalidates a page another core has cached (charged to the writer,
    #: once per victim core).
    smp_shootdown_ipi: int = 800
    #: Migrating a task to an idle core (runqueue locking + the cold-cache
    #: penalty of the first slice on the new core), charged to the thief.
    smp_steal_cost: int = 2000

    # ---- memory management -------------------------------------------------
    #: mmap/mprotect/munmap fixed kernel cost per call.
    page_op: int = 600
    #: Additional cost per page affected by an mmap/mprotect.
    page_op_per_page: int = 30
    #: TLB shootdown / icache flush after writing code (per rewrite).
    code_patch_flush: int = 120

    # ---- lazypoline's host-side handlers (repro.interpose.lazypoline) ---------
    #: SIGSYS slow path: REG_RIP redirection to the fast-path entry, with
    #: the emulated ``call rax`` push.
    lazypoline_sigsys_redirect: int = 10
    #: Uncontended acquire of the §IV-A(b) rewrite spinlock (CAS + fences).
    lazypoline_rewrite_lock: int = 20
    #: Writing the two ``call rax`` bytes over a syscall site (or back, on
    #: a rollback); ``code_patch_flush`` is charged on top.
    lazypoline_site_patch: int = 3
    #: Wrapper-handler prologue: push the selector on the %gs sigreturn
    #: stack, set BLOCK and resolve the application handler.
    lazypoline_wrap_pre: int = 8
    #: Interposed rt_sigreturn: stash the selector and rip and point the
    #: frame at the sigreturn trampoline.
    lazypoline_sigreturn_detour: int = 12
    #: Interposed rt_sigaction: build the shadow registration.
    lazypoline_sigaction_shadow: int = 10

    # ---- xstate ---------------------------------------------------------------
    #: Fixed cost of an xsave/xrstor instruction.
    xsave_base: int = 10
    #: Additional cost per extended-state component saved/restored.
    xsave_per_component: int = 15

    def __post_init__(self) -> None:
        """Copy ``insn_costs`` read-only and build :attr:`op_costs`.

        Every instruction cost must be a non-negative multiple of 0.25
        below 2**40 (``ValueError`` otherwise).  The tier-1 path charges
        each instruction separately, so the running clock is the
        *sequential* float sum of the costs; a compiled block or a nop
        slide charges one precomputed total.  With such costs each
        partial sum is an exact dyadic rational K/4 with K < 2**52, every
        float addition along the way is exact, and the batched total
        equals the sequential sum bit for bit.  All DEFAULT_INSN_COSTS
        qualify (integers plus the 0.25-cycle NOP).
        """
        insn_costs = MappingProxyType(dict(self.insn_costs))
        table: list[float | None] = [None] * N_MNEMONICS
        for m, cost in insn_costs.items():
            if not (0 <= cost < 1 << 40 and (cost * 4) % 1 == 0):
                raise ValueError(
                    f"{m.name} cost {cost!r} is not a non-negative "
                    f"multiple of 0.25 below 2**40"
                )
            table[m.op_index] = cost
        if None in table:
            raise KeyError(list(Mnemonic)[table.index(None)])
        for m in _XSTATE:
            table[m.op_index] = None
        object.__setattr__(self, "insn_costs", insn_costs)
        #: The dense ``op_index -> cost`` table both interpreter tiers and
        #: the nop slide charge from.  ``None`` marks xsave/xrstor, whose
        #: cost depends on the task's xstate component count: tier 1
        #: computes it at charge time, and a compiled block bakes in
        #: :meth:`xsave_cost` of the count it is specialised on.
        object.__setattr__(self, "op_costs", tuple(table))

    def __reduce__(self):
        # A mappingproxy does not pickle: rebuild through the constructor.
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values["insn_costs"] = dict(self.insn_costs)
        return partial(CostModel, **values), ()

    # ------------------------------------------------------------------ helpers
    def insn_cost(self, mnemonic: Mnemonic) -> float:
        return self.insn_costs[mnemonic]

    def xsave_cost(self, component_count: int) -> int:
        """Cost of xsave or xrstor covering ``component_count`` components."""
        if component_count == 0:
            return 2  # mask read, nothing to move
        return self.xsave_base + self.xsave_per_component * component_count

    def copy_cost(self, nbytes: int) -> int:
        """Kernel copy cost for an n-byte user/kernel data transfer."""
        return nbytes // self.copy_bytes_per_cycle

    def cycles_to_seconds(self, cycles: int | float) -> float:
        return cycles / self.frequency_hz


#: The model every :class:`~repro.kernel.machine.Machine`, ``Kernel`` and
#: ``CPU`` built without one shares: a model never changes once built, so
#: one instance serves them all.
DEFAULT_COST_MODEL = CostModel()
