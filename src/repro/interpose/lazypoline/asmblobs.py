"""lazypoline's assembly: the VA-0 page and its entry points.

One page holds everything (the paper's is 200 lines of hand-written
assembly):

* the zpoline nop sled (offsets 0..511),
* ``fastpath_entry`` — the generic interposer entry reached by ``call rax``
  (or by the slow path's REG_RIP redirect): sets the selector to ALLOW,
  preserves the argument registers, optionally xsaves extended state to the
  per-task %gs xstate stack, host-calls the generic handler, and undoes it
  all with the selector left at BLOCK,
* ``sigsys_handler`` — the SUD SIGSYS handler body (slow path),
* ``internal_restorer`` — sigreturn restorer for lazypoline's own SIGSYS
  frames; always executed with selector ALLOW, hence never rewritten,
* ``wrapper_handler`` — the shim registered in place of application signal
  handlers (Fig. 3 ①),
* ``app_restorer`` — restorer for wrapped application handlers; its syscall
  instruction runs with selector BLOCK and is therefore lazily rewritten
  and interposed like any application syscall (Fig. 3 ③),
* ``sigreturn_trampoline`` — restores the saved selector and jumps to the
  original signal-delivery context without touching a single register or
  flag (Fig. 3 ④).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.arch.encode import Assembler
from repro.cpu.core import XSAVE_AREA_SIZE
from repro.interpose.lazypoline import gsrel
from repro.interpose.zpoline.trampoline import SLED_SIZE
from repro.kernel.sud import SELECTOR_ALLOW, SELECTOR_BLOCK
from repro.kernel.syscalls.table import NR

_ARG_REGS = ("rdi", "rsi", "rdx", "r10", "r8", "r9")


@dataclass(frozen=True)
class LazypolineBlobs:
    """Addresses of every entry point inside the VA-0 page."""

    code: bytes
    fastpath_entry: int
    sigsys_handler: int
    internal_restorer: int
    wrapper_handler: int
    app_restorer: int
    sigreturn_trampoline: int
    noop_ret: int


@functools.lru_cache(maxsize=64)
def build_blobs(
    *,
    generic_hcall: int,
    sigsys_hcall: int,
    wrap_pre_hcall: int,
    preserve_xstate: bool,
    pkey_protected: bool = False,
    base: int = 0,
) -> LazypolineBlobs:
    """Assemble the blob page at ``base`` (0 for the paper's VA-0 page).

    Memoised: the page is a pure function of the keyword arguments, and
    the result is frozen (``code`` is ``bytes``), so every attach with the
    same hcall ids, xstate/pkey configuration and base shares one
    assembled page instead of re-assembling the 512-nop sled.  A fresh
    machine registers its hcalls in the same order, so after the first
    attach in a process every later one is a hit.

    A non-zero base is the SUD_ONLY degradation layout: every entry point
    (SIGSYS handler, wrapper, restorers, trampoline) works anywhere, but
    ``call rax`` can only land in the sled when it sits at address 0 — so
    a relocated page means no rewriting, only the selector slow path.
    """
    asm = Assembler(base=base)

    # ---- the zpoline sled: `call rax` lands at offset <sysno> ------------
    for _ in range(SLED_SIZE):
        asm.nop()

    # ---- fast path --------------------------------------------------------
    asm.label("fastpath_entry")
    if pkey_protected:
        # Open the gs protection domain (r11 is a legal clobber).
        asm.mov_imm("r11", 0)
        asm.wrpkru("r11")
    asm.mov_imm("r11", SELECTOR_ALLOW)
    asm.gsstore8(gsrel.GS_SELECTOR, "r11")
    for reg in _ARG_REGS:
        asm.push(reg)
    if preserve_xstate:
        asm.gsload("r11", gsrel.GS_XSP)
        asm.xsave("r11", 0)
        asm.addi("r11", XSAVE_AREA_SIZE)
        asm.gsstore(gsrel.GS_XSP, "r11")
    asm.hcall(generic_hcall)
    if preserve_xstate:
        asm.gsload("r11", gsrel.GS_XSP)
        asm.subi("r11", XSAVE_AREA_SIZE)
        asm.gsstore(gsrel.GS_XSP, "r11")
        asm.xrstor("r11", 0)
    for reg in reversed(_ARG_REGS):
        asm.pop(reg)
    asm.mov_imm("r11", SELECTOR_BLOCK)
    asm.gsstore8(gsrel.GS_SELECTOR, "r11")
    if pkey_protected:
        asm.gswrpkru(gsrel.GS_APP_PKRU)  # close the domain again
    asm.ret()

    # ---- slow path: the SUD SIGSYS handler -------------------------------
    asm.label("sigsys_handler")
    asm.hcall(sigsys_hcall)
    asm.ret()

    asm.label("internal_restorer")
    asm.mov_imm("rax", NR["rt_sigreturn"])
    asm.syscall()  # always reached with selector == ALLOW: never dispatched

    # ---- signal wrapping (Fig. 3) -----------------------------------------
    asm.label("wrapper_handler")
    asm.hcall(wrap_pre_hcall)  # saves selector, sets BLOCK, rax := app handler
    asm.call_reg("rax")
    asm.ret()

    asm.label("app_restorer")
    asm.mov_imm("rax", NR["rt_sigreturn"])
    asm.syscall()  # runs with selector BLOCK: lazily rewritten + interposed

    asm.label("sigreturn_trampoline")
    # Entered via sigreturn with the frame's PKRU patched open, so the
    # selector write is permitted; the interrupted context's own PKRU —
    # saved next to the selector, since a signal may interrupt the open
    # interposer as well as closed application code — is then restored
    # from the unprotected slot.  No register or flag is touched at any
    # point (Fig. 3 ④).
    asm.gscopy8(gsrel.GS_SELECTOR, gsrel.GS_TRAMP_SEL)
    if pkey_protected:
        asm.gswrpkru(gsrel.GS_TRAMP_PKRU)
    asm.gsjmp(gsrel.GS_TRAMP_RIP)

    asm.label("noop_ret")
    asm.ret()

    code = asm.assemble()
    return LazypolineBlobs(
        code=code,
        fastpath_entry=asm.address_of("fastpath_entry"),
        sigsys_handler=asm.address_of("sigsys_handler"),
        internal_restorer=asm.address_of("internal_restorer"),
        wrapper_handler=asm.address_of("wrapper_handler"),
        app_restorer=asm.address_of("app_restorer"),
        sigreturn_trampoline=asm.address_of("sigreturn_trampoline"),
        noop_ret=asm.address_of("noop_ret"),
    )
