"""The cycle cost model — every calibrated constant in one place.

The paper measures *ratios* between interposition mechanisms on a 2.10 GHz
Xeon.  We reproduce those ratios with a simple additive cost model: each
instruction class has a cycle cost, and each kernel path (mode switch,
interception check, SUD selector read, seccomp filter run, signal delivery,
sigreturn, context switch) has a constant.  DESIGN.md §5 lists the identities
the defaults satisfy; `tests/test_calibration.py` asserts them and
EXPERIMENTS.md records the resulting paper-vs-measured ratios.

The defaults are calibrated, not magic: e.g. ``xsave``/``xrstor`` at ~55
cycles for the full x87+SSE+AVX state matches the Fig. 4 "xstate
preservation" component (2.38x − 1.66x over a ~164-cycle baseline loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.isa import N_MNEMONICS, Mnemonic

_M = Mnemonic

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


@dataclass
class CostModel:
    """Cycle costs for instructions and kernel paths.

    All times are in CPU cycles at the paper's 2.10 GHz clock; convert with
    :meth:`cycles_to_seconds`.
    """

    #: CPU frequency (Hz) used to convert cycles to time/throughput.
    frequency_hz: float = 2.10e9

    #: Per-mnemonic instruction costs (cycles; quarter-cycle multiples,
    #: see :meth:`refresh_tables`).
    insn_costs: dict[Mnemonic, float] = field(
        default_factory=lambda: dict(DEFAULT_INSN_COSTS)
    )

    # ---- kernel syscall path ------------------------------------------------
    #: Round-trip user→kernel→user mode switch for a syscall.
    syscall_entry_exit: int = 150
    #: Extra cost of dispatching an out-of-range syscall number (ENOSYS).
    nosys_penalty: int = 10
    #: Per-syscall service cost floor for real (existing) syscalls.
    syscall_service_floor: int = 60
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
    #: SIGSYS slow path: switching the SUD selector to ALLOW.
    lazypoline_sigsys_selector: int = 3
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
        self.refresh_tables()

    def refresh_tables(self) -> None:
        """Rebuild the precomputed lookup tables.

        Call after mutating ``insn_costs`` / ``xsave_base`` /
        ``xsave_per_component`` in place (tests do this to recalibrate).

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
        # Dense per-mnemonic cost list indexed by op_index; None marks
        # mnemonics absent from insn_costs so lookups still raise KeyError.
        table: list[float | None] = [None] * N_MNEMONICS
        for m, cost in self.insn_costs.items():
            if not (0 <= cost < 1 << 40 and (cost * 4) % 1 == 0):
                raise ValueError(
                    f"{m.name} cost {cost!r} is not a non-negative "
                    f"multiple of 0.25 below 2**40"
                )
            table[m.op_index] = cost
        self._insn_cost_table = table
        # xsave/xrstor cost for the common component counts (0..3).
        self._xsave_cost_table = tuple(
            self._xsave_cost_uncached(n) for n in range(4)
        )

    # ------------------------------------------------------------------ helpers
    def insn_cost(self, mnemonic: Mnemonic) -> float:
        cost = self._insn_cost_table[mnemonic.op_index]
        if cost is None:
            raise KeyError(mnemonic)
        return cost

    def _xsave_cost_uncached(self, component_count: int) -> int:
        if component_count == 0:
            return 2  # mask read, nothing to move
        return self.xsave_base + self.xsave_per_component * component_count

    def xsave_cost(self, component_count: int) -> int:
        """Cost of xsave or xrstor covering ``component_count`` components."""
        if component_count < 4:
            return self._xsave_cost_table[component_count]
        return self._xsave_cost_uncached(component_count)

    def copy_cost(self, nbytes: int) -> int:
        """Kernel copy cost for an n-byte user/kernel data transfer."""
        return nbytes // self.copy_bytes_per_cycle

    def cycles_to_seconds(self, cycles: int | float) -> float:
        return cycles / self.frequency_hz

