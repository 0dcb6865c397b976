"""Function-level interposition (LD_PRELOAD-style, §VII).

Interposes libc *wrapper functions* by name: each known wrapper's entry is
overwritten with a host-call + return, so calls to the wrapper divert into
the interposer, which performs the (possibly modified) syscall and places
the result in ``rax``.

The paper's verdict on this family (§VII): minimal performance impact, but
it "comes at the cost of exhaustiveness, since syscall instructions can
also appear outside of wrapper functions" — and identifying every wrapper
does not scale.  Both properties are visible here: unknown wrappers and raw
inline syscall instructions sail straight past this tool.
"""

from __future__ import annotations

from repro.arch.registers import MASK64, RAX, SYSCALL_ARG_REGS
from repro.interpose.api import (
    Interposer,
    SyscallContext,
    passthrough_interposer,
)
from repro.kernel.syscalls.table import NR
from repro.libc.wrappers import wrapper_symbol
from repro.mem.pages import PAGE_SIZE, Perm, page_align_down, page_align_up


class PreloadTool:
    """LD_PRELOAD-style wrapper-function interposition."""

    tool_name = "preload"

    def __init__(self, machine, process, interposer: Interposer):
        self.machine = machine
        self.process = process
        self.interposer = interposer
        self.patched: dict[str, int] = {}  # wrapper name -> address

    @classmethod
    def _install(
        cls,
        machine,
        process,
        interposer: Interposer | None = None,
        *,
        wrappers: list[str] | None = None,
    ) -> "PreloadTool":
        """Patch every resolvable wrapper symbol in the loaded image."""
        tool = cls(machine, process, interposer or passthrough_interposer)
        image = machine.kernel.binaries.get("/bin/" + process.task.comm)
        symbols = image.symbols if image is not None else {}

        names = wrappers if wrappers is not None else [
            name for name in NR if wrapper_symbol(name) in symbols
        ]
        for name in names:
            symbol = wrapper_symbol(name)
            if symbol not in symbols:
                continue  # does not scale in practice — and doesn't here
            tool._patch_wrapper(process.task, name, symbols[symbol])
        return tool

    def _patch_wrapper(self, task, name: str, addr: int) -> None:
        hcall_id = self.machine.kernel.register_hcall(
            lambda hctx, sysno=NR[name]: self._on_wrapper(hctx, sysno)
        )
        from repro.arch.encode import Assembler

        stub = Assembler()
        stub.hcall(hcall_id)
        stub.ret()
        code = stub.assemble()

        start = page_align_down(addr)
        end = page_align_up(addr + len(code))
        saved = task.mem.perm_at(start)
        task.mem.protect(start, end - start, Perm.RW)
        task.mem.write(addr, code, check=None)
        task.mem.protect(start, end - start, saved)
        self.patched[name] = addr

    def _on_wrapper(self, hctx, sysno: int) -> None:
        regs = hctx.task.regs
        args = tuple(regs.read(r) for r in SYSCALL_ARG_REGS)
        ctx = SyscallContext(
            hctx.kernel,
            hctx.task,
            sysno,
            args,
            mechanism="preload",
            do_syscall=lambda nr, a: hctx.do_syscall(nr, a),
        )
        ret = self.interposer(ctx)
        if ret is not None:
            regs.write(RAX, ret & MASK64)
