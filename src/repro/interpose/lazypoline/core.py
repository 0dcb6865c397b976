"""The lazypoline tool: hybrid slow-path/fast-path interposition."""

from __future__ import annotations

from repro.arch.isa import CALL_RAX_BYTES, SYSCALL_BYTES, SYSENTER_BYTES
from repro.arch.registers import MASK64, RAX, RDI, RDX, RSI, RSP, SYSCALL_ARG_REGS
from repro.errors import AttachError
from repro.interpose.api import (
    Interposer,
    SyscallContext,
    passthrough_interposer,
)
from repro.interpose.lazypoline import gsrel
from repro.interpose.lazypoline.asmblobs import LazypolineBlobs, build_blobs
from repro.interpose.lazypoline.config import LazypolineConfig
from repro.interpose.lazypoline.degrade import (
    DegradeController,
    DegradePolicy,
    Mode,
    as_degrade_policy,
)
from repro.kernel import errno
from repro.kernel.signals import (
    FRAME_SIGINFO,
    SA_RESTORER,
    SA_SIGINFO,
    SI_ADDR,
    SIGSEGV,
    SIGSYS,
    UC_GPRS,
    UC_RIP,
)
from repro.kernel.sud import SELECTOR_ALLOW, SudState
from repro.kernel.syscalls.mm import (
    MAP_ANONYMOUS,
    MAP_FIXED,
    MAP_PRIVATE,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
)
from repro.kernel.syscalls.table import NR
from repro.kernel.task import SIG_DFL, SIG_IGN, SigAction
from repro.mem.pages import PAGE_SIZE, Perm, page_align_down, page_align_up

_NR_MMAP = NR["mmap"]
_NR_MUNMAP = NR["munmap"]
_NR_MPROTECT = NR["mprotect"]

#: mprotect failures worth retrying during a rewrite (anything else —
#: e.g. EPERM/EACCES from a W^X policy — is permanent for that attempt).
_TRANSIENT_ERRNOS = frozenset({errno.EINTR, errno.EAGAIN, errno.ENOMEM})

#: CAS attempts before a contended rewrite-lock loser stops spinning and
#: backs off for the remainder of the owner's hold window.
SPIN_RETRY_BOUND = 64
_NR_RT_SIGACTION = NR["rt_sigaction"]
_NR_RT_SIGRETURN = NR["rt_sigreturn"]
_NR_CLONE = NR["clone"]
_NR_FORK = NR["fork"]
_NR_VFORK = NR["vfork"]
_NR_EXECVE = NR["execve"]

#: Stack bytes the fast-path prologue occupies above the caller's rsp:
#: the call-rax return address plus six pushed argument registers.
_STUB_STACK_BYTES = 8 + 6 * 8

_PERM_TO_PROT = {
    Perm.R: PROT_READ,
    Perm.RW: PROT_READ | PROT_WRITE,
    Perm.RX: PROT_READ | PROT_EXEC,
    Perm.RWX: PROT_READ | PROT_WRITE | PROT_EXEC,
}


class Lazypoline:
    """Exhaustive, expressive, efficient syscall interposition (§III)."""

    tool_name = "lazypoline"

    def __init__(self, machine, process, interposer: Interposer,
                 config: LazypolineConfig,
                 degrade_policy: DegradePolicy | None = None):
        self.machine = machine
        self.process = process
        self.interposer = interposer
        self.config = config
        self.blobs: LazypolineBlobs | None = None
        #: graceful-degradation state machine (see lazypoline/degrade.py)
        self.degrade = DegradeController(
            machine.kernel, degrade_policy or DegradePolicy(),
            mechanism=self.tool_name,
        )
        #: where the blob page actually landed (0 unless degraded)
        self._blob_base = 0
        self._hcall_ids: tuple[int, int, int] | None = None

        #: application signal handlers we shadow: sig -> SigAction
        self.app_handlers: dict[int, SigAction] = {}

        #: rewritten syscall sites (addresses), per address space: patches
        #: live in the pages of one address space, so a site rewritten in
        #: the parent after a fork is *not* rewritten in the child's copy
        #: (and vice versa) — tracking them in one shared set would make
        #: the other process skip the patch and slow-path that site forever.
        self._rewritten_by_space: dict[int, set[int]] = {}
        #: The spinlock of §IV-A(b), modelled as the *hold window* of the
        #: most recent critical section: (owner core, acquire clock,
        #: release clock), keyed by address space — the lock is process
        #: state, so forked processes contend only among their own threads.
        #: Slices are serialised in host order, so two cores contend
        #: exactly when the later (host-order) rewriter's core-local clock
        #: still falls inside the earlier one's window — it must then spin
        #: until the owner's release time.  On one core time only moves
        #: forward between syscalls, so the lock is always free: the
        #: uncontended acquire cost is all that is charged.
        self._lock_windows: dict[int, tuple[int, int, int]] = {}

        # statistics
        self.slowpath_hits = 0
        self.fastpath_hits = 0
        #: contended rewrite-lock acquisitions / cycles burnt spinning
        self.lock_contentions = 0
        self.lock_spin_cycles = 0

    @property
    def rewritten(self) -> set[int]:
        """Rewritten sites in the main process's current address space."""
        return self._rewritten_for(self.process.task.mem)

    def _rewritten_for(self, mem) -> set[int]:
        sites = self._rewritten_by_space.get(mem.asid)
        if sites is None:
            sites = self._rewritten_by_space[mem.asid] = set()
        return sites

    # ------------------------------------------------------------------ install
    @classmethod
    def _install(
        cls,
        machine,
        process,
        interposer: Interposer | None = None,
        config: LazypolineConfig | None = None,
        degrade_policy=None,
    ) -> "Lazypoline":
        config = config or LazypolineConfig()
        tool = cls(
            machine, process, interposer or passthrough_interposer, config,
            as_degrade_policy(degrade_policy),
        )
        kernel = machine.kernel
        task = process.task

        tool._hcall_ids = (
            kernel.register_hcall(tool._on_generic),
            kernel.register_hcall(tool._on_sigsys),
            kernel.register_hcall(tool._on_wrap_pre),
        )
        tool._build_blobs(base=0)
        # The blob page (sled + every entry point) is mapped through the
        # real syscall path: setup-time mmap/mprotect failures (injected
        # ENOMEM, mmap_min_addr's EPERM) become visible, degradable events
        # instead of host exceptions.
        tool._map_blobs(kernel, task)
        if tool.degrade.mode is Mode.PASSTHROUGH:
            return tool  # nothing armed: the guest runs bare but runs
        tool._setup_task(task, fresh_gs=True)
        if config.reinstall_on_exec:
            kernel.exec_hooks.append(tool._on_exec)
        return tool

    def _build_blobs(self, *, base: int) -> None:
        generic, sigsys, wrap_pre = self._hcall_ids
        self.blobs = build_blobs(
            generic_hcall=generic,
            sigsys_hcall=sigsys,
            wrap_pre_hcall=wrap_pre,
            preserve_xstate=self.config.preserves_any_xstate,
            pkey_protected=self.config.protect_gs_with_pkey,
            base=base,
        )

    def _map_blobs(self, kernel, task) -> None:
        """Map the blob page, walking the degradation ladder on failure.

        FULL_HYBRID needs the page at VA 0: ``call rax`` on a rewritten
        site lands at address == sysno, inside the sled.  If the fixed
        VA-0 mapping is denied (``mmap_min_addr``, injected ENOMEM) the
        blobs are rebuilt at whatever base the kernel grants — every entry
        point still works, only the sled (and hence rewriting) is lost —
        and the tool attaches in SUD_ONLY.  If even that allocation fails
        and the policy floor allows, it attaches armed with nothing
        (PASSTHROUGH).  A floor above the required mode raises
        :class:`AttachError` instead.
        """
        degrade = self.degrade
        size = page_align_up(len(self.blobs.code))
        rw = PROT_READ | PROT_WRITE

        ret = kernel.do_syscall(
            task, _NR_MMAP,
            (0, size, rw, MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED, 0, 0),
        )
        err = self._finish_blob_page(kernel, task, 0, size) if ret == 0 else -ret
        if err is None:
            self._blob_base = 0
            return
        if not degrade.degrade_to(
            Mode.SUD_ONLY,
            f"VA-0 blob page unavailable ({errno.errno_name(err)})",
            tid=task.tid,
        ):
            raise AttachError(
                f"lazypoline: cannot map the VA-0 sled page "
                f"({errno.errno_name(err)}) and the degrade floor is "
                f"{degrade.policy.floor.value}"
            )

        ret = kernel.do_syscall(
            task, _NR_MMAP, (0, size, rw, MAP_PRIVATE | MAP_ANONYMOUS, 0, 0)
        )
        if ret > 0:
            self._build_blobs(base=ret)
            err = self._finish_blob_page(kernel, task, ret, size)
            if err is None:
                self._blob_base = ret
                return
        else:
            err = -ret
        if not degrade.degrade_to(
            Mode.PASSTHROUGH,
            f"blob page unmappable anywhere ({errno.errno_name(err)})",
            tid=task.tid,
        ):
            raise AttachError(
                f"lazypoline: cannot map the blob page anywhere "
                f"({errno.errno_name(err)}) and the degrade floor is "
                f"{degrade.policy.floor.value}"
            )

    def _finish_blob_page(self, kernel, task, base: int, size: int) -> int | None:
        """Write the code and flip the page executable.  Returns None on
        success, the positive errno on failure (page unmapped again)."""
        task.mem.write(base, self.blobs.code, check=None)
        ret = kernel.do_syscall(
            task, _NR_MPROTECT, (base, size, PROT_READ | PROT_EXEC)
        )
        if ret == 0:
            return None
        kernel.do_syscall(task, _NR_MUNMAP, (base, size))
        return -ret

    def _setup_task(self, task, *, fresh_gs: bool) -> None:
        """Arm one task: gs region, xsave mask, SIGSYS handler, SUD."""
        if fresh_gs:
            base = gsrel.map_gs_region(task.mem)
            gsrel.init_gs_region(task.mem, base)
            task.regs.gs_base = base
        if self.config.protect_gs_with_pkey:
            self._arm_pkey(task)
        task.xsave_mask = self.config.preserve_xstate
        task.sighand.set(
            SIGSYS,
            SigAction(
                handler=self.blobs.sigsys_handler,
                flags=SA_SIGINFO | SA_RESTORER,
                restorer=self.blobs.internal_restorer,
            ),
        )
        if self.config.enable_sud:
            # Selector-only SUD: no allowlisted range whatsoever (§IV-A c).
            task.sud = SudState(
                selector_addr=task.regs.gs_base + gsrel.GS_SELECTOR,
                allow_start=0,
                allow_len=0,
            )

    def _arm_pkey(self, task) -> None:
        """§VI extension: put the protected part of the gs region behind a
        memory protection key, write-disabled for application code.

        Write-disable (not access-disable) is deliberate: the kernel's SUD
        entry path *reads* the selector byte through the user mapping on
        every syscall, and PKU applies to those reads too — so the selector
        must stay readable.  Blocking writes is exactly what defeats the
        selector-overwrite bypass.
        """
        mem = task.mem
        key = getattr(self, "_pkey", 0)
        if not key:
            key = mem.pkey_alloc()
            if key < 0:
                raise AttachError(
                    "no free protection keys (pkey_alloc would return ENOSPC)"
                )
            self._pkey = key
        mem.assign_pkey(task.regs.gs_base, gsrel.GS_PROTECTED_SIZE, key)
        closed = 2 << (2 * key)  # write-disable for the gs key
        mem.write_u32(task.regs.gs_base + gsrel.GS_APP_PKRU, closed, check=None)
        task.regs.pkru = closed
        mem.active_pkru = closed

    # ---------------------------------------------------------------- fast path
    def _on_generic(self, hctx) -> None:
        """The generic syscall handler, shared by fast and slow paths."""
        task = hctx.task
        regs = task.regs
        self.fastpath_hits += 1
        sysno = regs.read(RAX)
        tracer = hctx.kernel.tracer
        if tracer is not None:
            tracer.sled_enter(hctx.kernel.clock, task.tid, sysno, "lazypoline")
        args = tuple(regs.read(r) for r in SYSCALL_ARG_REGS)
        ctx = SyscallContext(
            hctx.kernel,
            task,
            sysno,
            args,
            mechanism="lazypoline",
            do_syscall=lambda nr, a: self._do_syscall(hctx, nr, a),
            defer=hctx.defer,
        )
        ret = self.interposer(ctx)
        if ret is not None:
            regs.write(RAX, ret & MASK64)

    def _do_syscall(self, hctx, sysno: int, args: tuple[int, ...]) -> int | None:
        """Re-issue a syscall, with tool cooperation for the complex ones.

        This is the "single syscall handling implementation shared between
        the fast and slow path" of §IV-A: rt_sigreturn, rt_sigaction and the
        spawn family need lazypoline's help to keep its own state coherent.
        """
        if sysno == _NR_RT_SIGRETURN:
            return self._do_rt_sigreturn(hctx)
        if sysno == _NR_RT_SIGACTION and self.config.wrap_signals:
            return self._do_rt_sigaction(hctx, args)
        if sysno in (_NR_CLONE, _NR_FORK, _NR_VFORK):
            return self._do_spawn(hctx, sysno, args)
        return hctx.do_syscall(sysno, args)

    # -------------------------------------------------------------- rt_sigreturn
    def _do_rt_sigreturn(self, hctx) -> None:
        """Interposed sigreturn: restore through the sigreturn trampoline.

        The frame being returned from sits just above the fast-path stub's
        stack usage.  The saved selector (pushed by the wrapper at delivery,
        Fig. 3 ①) must be restored *after* the kernel sigreturn — doing it
        before would re-trigger dispatch on the sigreturn itself — so the
        restored context detours through the trampoline (Fig. 3 ④).
        """
        task = hctx.task
        mem = task.mem
        regs = task.regs
        gs = regs.gs_base
        tracer = hctx.kernel.tracer
        if tracer is not None:
            tracer.sigreturn_tramp(hctx.kernel.clock, task.tid)

        frame_base = regs.read(RSP) + _STUB_STACK_BYTES - 8
        uc = frame_base + 48  # FRAME_UCONTEXT

        saved_selector = gsrel.pop_sigret_selector(mem, gs)
        if self.config.preserves_any_xstate:
            # The stub epilogue will never run for this invocation.
            gsrel.unwind_xstate_entry(mem, gs)

        original_rip = mem.read_u64(uc + UC_RIP, check=None)
        if self.blobs.sigreturn_trampoline <= original_rip < self.blobs.noop_ret:
            # INVARIANT (nested trampoline): a signal that lands *between*
            # the trampoline's gscopy8 and gsjmp belongs to an outer
            # restore whose GS_TRAMP_SEL/GS_TRAMP_RIP slots are still live.
            # Overwriting them here would make the outer gsjmp target the
            # trampoline address itself — an infinite self-jump.  Instead
            # leave the slots untouched and resume at the trampoline *top*:
            # every trampoline instruction is an idempotent read of those
            # slots, so re-running it completes the outer restore.  The
            # selector the nested wrapper pushed is discarded (popped
            # above) — gscopy8 re-derives the definitive value from the
            # outer GS_TRAMP_SEL.  In the pkey configuration the nested
            # frame's saved PKRU is already the patched-open value the
            # trampoline was interrupted with, so no UC_FLAGS surgery and
            # no touching the outer GS_TRAMP_PKRU stash.
            mem.write_u64(uc + UC_RIP, self.blobs.sigreturn_trampoline, check=None)
        else:
            mem.write_u64(gs + gsrel.GS_TRAMP_SEL, saved_selector, check=None)
            mem.write_u64(gs + gsrel.GS_TRAMP_RIP, original_rip, check=None)
            mem.write_u64(uc + UC_RIP, self.blobs.sigreturn_trampoline, check=None)
            if self.config.protect_gs_with_pkey:
                # The trampoline must write the selector: patch the frame's
                # saved PKRU open, stashing the interrupted context's real
                # PKRU for the trampoline to restore on its way out.
                from repro.kernel.signals import UC_FLAGS

                flags = mem.read_u64(uc + UC_FLAGS, check=None)
                mem.write_u64(gs + gsrel.GS_TRAMP_PKRU, flags >> 32, check=None)
                mem.write_u64(uc + UC_FLAGS, flags & 0xFFFFFFFF, check=None)
        hctx.charge(12)

        # Hand the kernel the rsp it expects for this frame, then sigreturn
        # with the selector (still) ALLOW.
        regs.write(RSP, frame_base + 8)
        hctx.do_syscall(_NR_RT_SIGRETURN, ())
        return None

    # -------------------------------------------------------------- rt_sigaction
    def _do_rt_sigaction(self, hctx, args: tuple[int, ...]) -> int:
        """Shadow application handler registrations behind the wrapper."""
        task = hctx.task
        mem = task.mem
        sig, act_ptr, oldact_ptr = args[0], args[1], args[2]
        if not 1 <= sig < 32:
            return -errno.EINVAL

        old = self.app_handlers.get(sig, SigAction())
        if oldact_ptr:
            mem.write_u64(oldact_ptr, old.handler, check=None)
            mem.write_u64(oldact_ptr + 8, old.flags, check=None)
            mem.write_u64(oldact_ptr + 16, old.restorer, check=None)
            mem.write_u64(oldact_ptr + 24, old.mask, check=None)
        if not act_ptr:
            return 0

        handler = mem.read_u64(act_ptr, check=None)
        flags = mem.read_u64(act_ptr + 8, check=None)
        mask = mem.read_u64(act_ptr + 24, check=None)

        if sig == SIGSYS:
            # SIGSYS belongs to lazypoline's slow path; virtualise the
            # registration so the application believes it succeeded.
            self.app_handlers[sig] = SigAction(handler, flags, 0, mask)
            return 0

        if handler in (SIG_DFL, SIG_IGN):
            self.app_handlers.pop(sig, None)
            return hctx.do_syscall(_NR_RT_SIGACTION, (sig, act_ptr, 0, 8)) or 0

        self.app_handlers[sig] = SigAction(handler, flags, 0, mask)
        # Build the shadow registration in per-task scratch space.
        scratch = task.regs.gs_base + gsrel.GS_SCRATCH
        mem.write_u64(scratch, self.blobs.wrapper_handler, check=None)
        mem.write_u64(scratch + 8, flags | SA_SIGINFO | SA_RESTORER, check=None)
        mem.write_u64(scratch + 16, self.blobs.app_restorer, check=None)
        mem.write_u64(scratch + 24, mask, check=None)
        hctx.charge(10)
        ret = hctx.do_syscall(_NR_RT_SIGACTION, (sig, scratch, 0, 8))
        return 0 if ret is None else ret

    def _on_wrap_pre(self, hctx) -> None:
        """Wrapper-handler prologue (Fig. 3 ①): save the selector on the
        %gs sigreturn stack, set BLOCK, and resolve the app handler.

        This is the only place nested-signal state grows, so it is also
        where resource exhaustion of the per-task %gs stacks is handled:
        by policy, an over-deep nest either spills onto chained overflow
        pages or takes a clean guest fault — never a host exception.
        """
        task = hctx.task
        regs = task.regs
        mem = task.mem
        gs = regs.gs_base
        sig = regs.read(RDI)
        policy = self.degrade.policy

        spill = policy.depth_overflow == "spill"
        depth = gsrel.sigret_depth(mem, gs)
        over_limit = depth >= min(
            policy.signal_depth_limit, gsrel.SIGRET_STACK_SLOTS
        )
        exhausted = over_limit and not spill
        if not exhausted and self.config.preserves_any_xstate:
            # The xstate stack cannot spill (the fast-path asm indexes it
            # directly); one slot is kept in reserve for the handler's own
            # syscalls.
            if gsrel.xstack_depth(mem, gs) >= gsrel.XSTACK_DEPTH - 1:
                exhausted = True
                spill = False
        if exhausted:
            # The real kernel's analogue of an unpushable signal frame is
            # force_sigsegv(): reset the disposition to SIG_DFL and kill.
            self.degrade.note_depth_overflow(tid=task.tid, depth=depth)
            task.sighand.set(SIGSEGV, SigAction())
            self.app_handlers.pop(SIGSEGV, None)
            regs.write(RAX, self.blobs.noop_ret)
            hctx.kernel.force_signal(
                task, SIGSEGV, {"addr": gs + gsrel.GS_SIGRET_SP}
            )
            return

        current = gsrel.read_selector(mem, gs)
        spilled = gsrel.push_sigret_selector(
            mem, gs, current, spill=spill, force=over_limit
        )
        if spilled:
            self.degrade.note_spill(tid=task.tid, depth=depth)
            hctx.charge(hctx.kernel.costs.page_op)
        gsrel.write_selector(mem, gs, 1)  # SELECTOR_BLOCK
        hctx.charge(8)

        action = self.app_handlers.get(sig)
        target = action.handler if action is not None else self.blobs.noop_ret
        regs.write(RAX, target)

    # -------------------------------------------------------------------- spawn
    def _do_spawn(self, hctx, sysno: int, args: tuple[int, ...]) -> int | None:
        """fork/vfork/clone: re-arm lazypoline in the child (§IV-B a).

        Two child shapes exist:

        * **fork-like** (own address space, inherited stack): the child
          resumes inside the fast-path stub on its *copy* of the parent's
          stack and unwinds through the normal epilogue; its gs pages came
          along with the address-space copy.
        * **thread-like** (``clone`` with a caller-provided stack): the new
          stack contains no stub frame to return through, so the child is
          redirected straight to the application return address — the slot
          the ``call rax`` pushed, read from the parent's stack — with a
          fresh, empty %gs region and the selector at BLOCK.  This is the
          clone complexity §IV-A's shared-handler design talks about.
        """
        parent = hctx.task
        new_stack = sysno == _NR_CLONE and args[1] != 0
        ret = hctx.do_syscall(sysno, args)
        if ret is None or ret <= 0:
            return ret
        child = hctx.kernel.tasks.get(ret)
        if child is None:
            return ret
        if new_stack:
            app_return = parent.mem.read_u64(
                parent.regs.read(RSP) + 6 * 8, check=None
            )
            child.regs.rip = app_return
            base = gsrel.map_gs_region(child.mem)
            gsrel.init_gs_region(child.mem, base)  # selector = BLOCK
            child.regs.gs_base = base
            self._setup_task(child, fresh_gs=False)
            if self.config.protect_gs_with_pkey:
                # The child starts directly in application code: closed.
                child.regs.pkru = child.mem.read_u32(
                    base + gsrel.GS_APP_PKRU, check=None
                )
        elif child.mem is parent.mem:
            # CLONE_VM without a new stack: the child shares the parent's
            # stack and resumes mid-stub; give it a private gs region with
            # the in-flight xstate frame replayed so its epilogue balances.
            base = gsrel.map_gs_region(child.mem)
            gsrel.init_gs_region(child.mem, base, selector=SELECTOR_ALLOW)
            parent_gs = parent.regs.gs_base
            depth_bytes = (
                child.mem.read_u64(parent_gs + gsrel.GS_XSP, check=None)
                - (parent_gs + gsrel.GS_XSTACK)
            )
            if depth_bytes > 0:
                blob = child.mem.read(
                    parent_gs + gsrel.GS_XSTACK, depth_bytes, check=None
                )
                child.mem.write(base + gsrel.GS_XSTACK, blob, check=None)
            child.mem.write_u64(
                base + gsrel.GS_XSP, base + gsrel.GS_XSTACK + max(depth_bytes, 0),
                check=None,
            )
            child.regs.gs_base = base
            self._setup_task(child, fresh_gs=False)
        else:
            # fork: the gs pages were copied with the address space and the
            # gs base register came along in the register copy.
            self._setup_task(child, fresh_gs=False)
        return ret

    def _on_exec(self, task) -> None:
        """execve wipes every mapping and SUD itself; re-install from scratch."""
        if task.pid != self.process.task.pid:
            return
        base = self._blob_base
        size = page_align_up(len(self.blobs.code))
        if not task.mem.is_mapped(base, size):
            task.mem.map(base, size, Perm.RW)
            task.mem.write(base, self.blobs.code, check=None)
            task.mem.protect(base, size, Perm.RX)
        self.rewritten.clear()
        self.app_handlers.clear()
        self._setup_task(task, fresh_gs=True)

    # ---------------------------------------------------------------- slow path
    def _on_sigsys(self, hctx) -> None:
        """The SUD SIGSYS handler (slow path, §IV-A).

        Sets the selector to ALLOW, rewrites the trapping syscall site, and
        redirects the interrupted context to the fast-path entry — emulating
        the ``call rax`` push so both entry paths look identical to the
        generic handler.  Sigreturns with the selector still ALLOW; the
        fast-path epilogue restores BLOCK.
        """
        task = hctx.task
        regs = task.regs
        mem = task.mem
        self.slowpath_hits += 1

        gsrel.write_selector(mem, regs.gs_base, SELECTOR_ALLOW)
        hctx.charge(3)

        siginfo = regs.read(RSI)
        uc = regs.read(RDX)
        frame_base = siginfo - FRAME_SIGINFO
        call_addr = mem.read_u64(frame_base + SI_ADDR, check=None)
        site = call_addr - 2  # si_call_addr points past the syscall insn
        tracer = hctx.kernel.tracer
        if tracer is not None:
            tracer.sigsys_trap(hctx.kernel.clock, task.tid, site, "lazypoline")

        if (
            self.config.rewrite
            and self.degrade.allows_rewrite
            and site not in self.degrade.blacklist
        ):
            self._rewrite_site(hctx, site)

        # REG_RIP redirection (§IV-A c), with an emulated call-rax push.
        saved_rsp = mem.read_u64(uc + UC_GPRS + 8 * RSP, check=None)
        new_rsp = saved_rsp - 8
        mem.write_u64(new_rsp, call_addr, check=None)
        mem.write_u64(uc + UC_GPRS + 8 * RSP, new_rsp, check=None)
        mem.write_u64(uc + UC_RIP, self.blobs.fastpath_entry, check=None)
        hctx.charge(10)

    def _spin_for_lock(self, hctx, release: int) -> None:
        """Spin (bounded retries, then yield) until the owner releases.

        Models a PAUSE-loop CAS retry: each iteration burns
        ``smp_spin_retry`` cycles; after ``SPIN_RETRY_BOUND`` failed
        attempts the loser stops hammering the line and sleeps out the
        remainder of the hold window (sched_yield-style backoff).
        """
        self.lock_contentions += 1
        kernel = hctx.kernel
        retry = kernel.costs.smp_spin_retry
        start = kernel.clock
        spins = 0
        while kernel.clock < release and spins < SPIN_RETRY_BOUND:
            hctx.charge(retry)
            spins += 1
        if kernel.clock < release:
            hctx.charge(release - kernel.clock)
        self.lock_spin_cycles += kernel.clock - start

    def _mprotect_retry(self, hctx, addr: int, length: int, prot: int) -> int:
        """mprotect with bounded, charged, exponential backoff on transient
        failure.  The §IV-A(b) lock stays held the whole time, so the
        backoff cycles are honestly burnt inside the critical section."""
        policy = self.degrade.policy
        ret = hctx.do_syscall(_NR_MPROTECT, (addr, length, prot))
        attempt = 0
        while (
            isinstance(ret, int)
            and ret < 0
            and -ret in _TRANSIENT_ERRNOS
            and attempt < policy.rewrite_retries
        ):
            hctx.charge(policy.retry_backoff << attempt)
            attempt += 1
            ret = hctx.do_syscall(_NR_MPROTECT, (addr, length, prot))
        return 0 if ret is None else ret

    def _rewrite_site(self, hctx, site: int) -> None:
        """Patch one verified syscall instruction to ``call rax``.

        Failure handling (all under the lock): a transient opening-mprotect
        failure is retried with backoff; an exhausted attempt leaves the
        site on the slow path and counts toward its blacklist budget; a
        failed *restore* rolls the patch back completely — original bytes,
        original protections — so no concurrent core can ever fetch a torn
        site, and no page is left writable-but-not-executable.
        """
        task = hctx.task
        mem = task.mem
        kernel = hctx.kernel
        degrade = self.degrade
        core_id = kernel.current_core_id
        # The spinlock of §IV-A(b): prevents one thread from revoking write
        # permission while another is mid-rewrite.  The uncontended acquire
        # (CAS + fences) always costs; under SMP a second core trapping on
        # the same window must additionally spin until the owner releases.
        hctx.charge(20)
        rewritten = self._rewritten_for(mem)
        owner, _acquired_at, release = self._lock_windows.get(
            mem.asid, (-1, 0, 0)
        )
        if owner not in (-1, core_id) and kernel.clock < release:
            self._spin_for_lock(hctx, release)
        acquired = kernel.clock
        try:
            if site in rewritten:
                # The lock holder beat us to this site: nothing to patch —
                # the sigreturn re-enters through the already-patched fast
                # path, which is exactly the loser's correct retry.
                return
            if site in degrade.blacklist:
                return
            insn = mem.read(site, 2, check=None)
            if insn not in (SYSCALL_BYTES, SYSENTER_BYTES):
                # The kernel guarantees a real syscall trapped here, so this
                # indicates concurrent self-modification; skip.
                return
            start = page_align_down(site)
            end = page_align_up(site + 2)
            pages = list(range(start, end, PAGE_SIZE))
            saved_perms = [mem.perm_at(p) for p in pages]
            saved = [
                _PERM_TO_PROT.get(perm, PROT_READ) for perm in saved_perms
            ]
            ret = self._mprotect_retry(
                hctx, start, end - start, PROT_READ | PROT_WRITE
            )
            if ret < 0:
                # Retries exhausted (or a permanent refusal, e.g. a W^X
                # policy's EPERM).  The site stays on the slow path —
                # correct, merely slower; writing anyway would fault on the
                # still read-only page and SIGSEGV the guest.  Repeated
                # failure blacklists just this site; other sites are
                # unaffected.
                degrade.note_rewrite_failure(site, -ret, tid=task.tid)
                return
            mem.write(site, CALL_RAX_BYTES, check="write")
            hctx.charge(3 + kernel.costs.code_patch_flush)
            restore_err = 0
            for page, prot in zip(pages, saved):
                ret = self._mprotect_retry(hctx, page, PAGE_SIZE, prot)
                if ret < 0:
                    restore_err = -ret
            if restore_err:
                # Roll back under the lock.  Order matters: first drop X
                # from every touched page (direct protect — restoring or
                # narrowing an existing VMA's protections needs no split
                # and cannot fail the way the syscall just did), so no
                # other core can fetch from the window; then put the
                # original bytes back; then force the saved protections.
                # Net effect: the site is byte-identical to before the
                # attempt and never observable in a torn state.
                for page in pages:
                    mem.protect(page, PAGE_SIZE, Perm.RW)
                mem.write(site, insn, check="write")
                hctx.charge(3 + kernel.costs.code_patch_flush)
                for page, perm in zip(pages, saved_perms):
                    mem.protect(page, PAGE_SIZE, perm)
                degrade.note_rewrite_failure(site, restore_err, tid=task.tid)
                return
            rewritten.add(site)
            tracer = kernel.tracer
            if tracer is not None:
                tracer.rewrite(
                    kernel.clock, task.tid, site, "lazypoline", origin="trap"
                )
        finally:
            self._lock_windows[mem.asid] = (core_id, acquired, kernel.clock)

    # ----------------------------------------------------------- degradation
    @property
    def mode(self) -> Mode:
        """Current degradation mode (FULL_HYBRID unless something failed)."""
        return self.degrade.mode

    def health(self) -> dict:
        """Degradation summary for this tool instance."""
        return self.degrade.health()

    # ------------------------------------------------------- manual rewriting
    def rewrite_site_now(self, site: int) -> None:
        """Host-side up-front rewrite (the microbenchmark's steady-state
        setup: "we manually rewrote the syscall instruction up front")."""
        if not self.degrade.allows_rewrite:
            raise AttachError(
                f"lazypoline: rewriting unavailable in "
                f"{self.degrade.mode.value} mode (no VA-0 sled)"
            )
        task = self.process.task
        insn = task.mem.read(site, 2, check=None)
        if insn not in (SYSCALL_BYTES, SYSENTER_BYTES):
            raise ValueError(f"no syscall instruction at {site:#x}")
        from repro.interpose.zpoline.rewriter import patch_site

        patch_site(task, site)
        self._rewritten_for(task.mem).add(site)
        tracer = self.machine.kernel.tracer
        if tracer is not None:
            tracer.rewrite(
                self.machine.kernel.clock, task.tid, site, "lazypoline",
                origin="manual",
            )
