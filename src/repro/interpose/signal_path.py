"""Shared machinery for SIGSYS-based interposition (SUD and seccomp-user).

Both mechanisms deliver a SIGSYS to the application whenever it makes a
syscall; a handler interposes the call *from within the signal handler* and
patches the saved context's ``rax`` with the result — the "typical
deployment" described in §II-A of the paper.  The handler's own sigreturn
executes a real syscall instruction from a page that must be exempted from
interception: an allowlisted address range for SUD, an IP-range filter
clause for seccomp.

One genuinely tricky case is an application's *own* ``rt_sigreturn``
arriving as a SIGSYS: the requested sigreturn targets the frame *below* the
SIGSYS frame.  It is emulated by copying the inner frame's saved ucontext
over the SIGSYS frame's ucontext, so returning from the handler restores the
pre-signal application context directly — the kind of complexity
lazypoline's "selector-only" design (§IV-A) exists to avoid.
"""

from __future__ import annotations

from repro.arch.encode import Assembler
from repro.arch.registers import R8, R9, R10, RAX, RDI, RDX, RSI, RSP
from repro.interpose.api import (
    Interposer,
    SyscallContext,
    passthrough_interposer,
)
from repro.kernel.signals import (
    FRAME_SIGINFO,
    FRAME_UCONTEXT,
    SA_RESTORER,
    SA_SIGINFO,
    SI_ADDR,
    SI_SYSCALL,
    SIGSYS,
    UC_GPRS,
    UC_RIP,
    UCONTEXT_SIZE,
)
from repro.kernel.syscalls.table import NR
from repro.kernel.task import SigAction
from repro.mem.pages import PAGE_SIZE, Perm

_NR_RT_SIGRETURN = NR["rt_sigreturn"]
_NR_FORK = NR["fork"]
_NR_VFORK = NR["vfork"]
_NR_CLONE = NR["clone"]

#: ucontext offsets of the syscall argument registers, in ABI order.
_ARG_REG_OFFSETS = tuple(UC_GPRS + 8 * r for r in (RDI, RSI, RDX, R10, R8, R9))


class SignalPathTool:
    """Base class: SIGSYS handler + restorer page, handler-side interposition."""

    mechanism = "signal-path"
    tool_name = "signal-path"

    def __init__(self, machine, process, interposer: Interposer):
        self.machine = machine
        self.process = process
        self.interposer = interposer
        self.code_base = 0
        self.data_base = 0
        self.handler_addr = 0
        self.restorer_addr = 0
        self.reissue_addr = 0  # IP the re-issued syscalls appear to come from
        self.sigsys_count = 0

    # ------------------------------------------------------------------ install
    @classmethod
    def _install(cls, machine, process, interposer: Interposer | None = None, **kw):
        tool = cls(machine, process, interposer or passthrough_interposer, **kw)
        tool._setup_pages(process.task)
        tool._arm(process.task)
        return tool

    def _setup_pages(self, task) -> None:
        kernel = self.machine.kernel
        self.data_base = task.mem.map_anywhere(PAGE_SIZE, Perm.RW, hint=0x2000_0000)
        hcall_id = kernel.register_hcall(self._on_sigsys)

        self.code_base = task.mem.map_anywhere(PAGE_SIZE, Perm.RW, hint=0x2010_0000)
        asm = Assembler(base=self.code_base)
        asm.label("sigsys_handler")
        asm.hcall(hcall_id)
        asm.ret()
        asm.label("restorer")
        asm.mov_imm("rax", _NR_RT_SIGRETURN)
        asm.label("restorer_syscall")
        asm.syscall()
        code = asm.assemble()
        task.mem.write(self.code_base, code, check=None)
        task.mem.protect(self.code_base, PAGE_SIZE, Perm.RX)

        self.handler_addr = asm.address_of("sigsys_handler")
        self.restorer_addr = asm.address_of("restorer")
        self.reissue_addr = asm.address_of("restorer_syscall")

        task.sighand.set(
            SIGSYS,
            SigAction(
                handler=self.handler_addr,
                flags=SA_SIGINFO | SA_RESTORER,
                restorer=self.restorer_addr,
            ),
        )

    def _arm(self, task) -> None:
        raise NotImplementedError

    # ----------------------------------------------------- mechanism-specific
    def _pre_interpose(self, hctx) -> None:
        """Called at handler start (e.g. SUD sets the selector to ALLOW)."""

    def _post_interpose(self, hctx) -> None:
        """Called at handler end (e.g. SUD resets the selector to BLOCK)."""

    def _after_spawn(self, hctx, child_task) -> None:
        """Fix up a freshly created child process/thread, if needed."""

    # ------------------------------------------------------------------ handler
    def _on_sigsys(self, hctx) -> None:
        task = hctx.task
        regs = task.regs
        self.sigsys_count += 1

        siginfo = regs.read(RSI)
        uc = regs.read(RDX)
        frame_base = siginfo - FRAME_SIGINFO
        tracer = hctx.kernel.tracer
        if tracer is not None:
            call_addr = task.mem.read_u64(frame_base + SI_ADDR, check=None)
            tracer.sigsys_trap(
                hctx.kernel.clock, task.tid, call_addr - 2, self.mechanism
            )
        sysno = task.mem.read_u32(frame_base + SI_SYSCALL, check=None)
        args = tuple(
            task.mem.read_u64(uc + off, check=None) for off in _ARG_REG_OFFSETS
        )

        self._pre_interpose(hctx)

        if sysno == _NR_RT_SIGRETURN:
            do = lambda nr, a: self._emulate_nested_sigreturn(hctx, uc)  # noqa: E731
        else:
            do = lambda nr, a: hctx.do_syscall(  # noqa: E731
                nr, a, insn_addr=self.reissue_addr
            )
        ctx = SyscallContext(
            hctx.kernel, task, sysno, args, mechanism=self.mechanism, do_syscall=do
        )
        mem_before = task.mem
        ret = self.interposer(ctx)
        if task.mem is not mem_before:
            # A successful execve replaced the address space: on Linux the
            # syscall never returns into the handler, the handler pages and
            # the signal frame are gone, and SUD/our sighand entry died with
            # the old image.  Touching the (old) selector/frame addresses
            # now would fault the *new* program, so stop here.
            return
        if ret is not None and sysno != _NR_RT_SIGRETURN:
            task.mem.write_u64(uc + UC_GPRS + 8 * RAX, ret, check=None)
        if sysno in (_NR_FORK, _NR_VFORK, _NR_CLONE) and ret is not None and ret > 0:
            child = hctx.kernel.tasks.get(ret)
            if child is not None:
                self._fix_spawned_child(hctx, child, uc, sysno, args)
                self._after_spawn(hctx, child)

        self._post_interpose(hctx)

    def _fix_spawned_child(self, hctx, child, uc: int, sysno: int,
                           args: tuple[int, ...]) -> None:
        """Make a child created *from inside the SIGSYS handler* resume in
        the application correctly.

        * fork/vfork: the child restarts mid-handler on its own copy of the
          signal frame and sigreturns through it; the frame's saved ``rax``
          (still the syscall number) must become the child's return value 0.
        * clone with a caller-provided stack: the fresh stack holds no
          handler frame at all, so the child's registers are rebuilt from
          the interrupted context saved in the (shared) outer frame and it
          is sent straight back to application code.
        """
        task = hctx.task
        if sysno == _NR_CLONE and args[1]:
            for i in range(16):
                child.regs.gpr[i] = task.mem.read_u64(
                    uc + UC_GPRS + 8 * i, check=None
                )
            child.regs.write(RAX, 0)
            child.regs.write(RSP, args[1])
            child.regs.rip = task.mem.read_u64(uc + UC_RIP, check=None)
        elif child.mem is not task.mem:
            child.mem.write_u64(uc + UC_GPRS + 8 * RAX, 0, check=None)

    def _emulate_nested_sigreturn(self, hctx, uc_outer: int) -> None:
        """Apply the application's sigreturn to the *outer* SIGSYS frame."""
        task = hctx.task
        mem = task.mem
        # The interrupted context sat in the app's restorer with rsp just
        # past the inner frame's return-address slot.
        app_rsp = mem.read_u64(uc_outer + UC_GPRS + 8 * RSP, check=None)
        inner_uc = (app_rsp - 8) + FRAME_UCONTEXT
        blob = mem.read(inner_uc, UCONTEXT_SIZE, check=None)
        mem.write(uc_outer, blob, check=None)
        hctx.charge(hctx.kernel.costs.copy_cost(UCONTEXT_SIZE) + 20)
        return None

    # ------------------------------------------------------------- diagnostics
    def saved_rip(self, hctx) -> int:
        uc = hctx.task.regs.read(RDX)
        return hctx.task.mem.read_u64(uc + UC_RIP, check=None)
