"""The typical Syscall User Dispatch deployment (§II-A of the paper).

The selector byte lives in a tool-owned data page; the SIGSYS handler sets
it to ALLOW on entry, interposes the syscall, resets it to BLOCK, and
sigreturns through a restorer inside the allowlisted code range so the
sigreturn syscall itself is never dispatched.

This is the configuration the paper benchmarks as "SUD": fully exhaustive
and expressive, but paying a signal delivery + sigreturn round trip on
every application syscall (Table II: ~20x a raw syscall).
"""

from __future__ import annotations

from repro.interpose.signal_path import SignalPathTool
from repro.kernel.sud import SELECTOR_ALLOW, SELECTOR_BLOCK, SudState
from repro.mem.pages import PAGE_SIZE


class SudTool(SignalPathTool):
    mechanism = "sud"
    tool_name = "sud"

    @property
    def selector_addr(self) -> int:
        return self.data_base  # byte 0 of the tool data page

    def _arm(self, task) -> None:
        task.mem.write_u8(self.selector_addr, SELECTOR_BLOCK, check=None)
        # prctl(PR_SET_SYSCALL_USER_DISPATCH, ON, code_base, PAGE_SIZE, &sel)
        task.sud = SudState(
            selector_addr=self.selector_addr,
            allow_start=self.code_base,
            allow_len=PAGE_SIZE,
        )

    def _pre_interpose(self, hctx) -> None:
        hctx.task.mem.write_u8(self.selector_addr, SELECTOR_ALLOW, check=None)
        hctx.charge(hctx.kernel.costs.sud_selector_write)

    def _post_interpose(self, hctx) -> None:
        hctx.task.mem.write_u8(self.selector_addr, SELECTOR_BLOCK, check=None)
        hctx.charge(hctx.kernel.costs.sud_selector_write)

    def _after_spawn(self, hctx, child_task) -> None:
        """SUD does not survive fork/clone: re-arm the child.

        The child's copy of the selector page currently reads ALLOW (the
        parent was mid-handler), so reset it to BLOCK.  For CLONE_VM
        children the selector page is *shared* — correct per-thread
        selectors are exactly what lazypoline's %gs scheme provides and
        this plain deployment does not.
        """
        if child_task.mem is not hctx.task.mem:
            child_task.mem.write_u8(self.selector_addr, SELECTOR_BLOCK, check=None)
        child_task.sud = SudState(
            selector_addr=self.selector_addr,
            allow_start=self.code_base,
            allow_len=PAGE_SIZE,
        )
