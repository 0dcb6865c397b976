"""Register file for the simulated CPU.

Registers follow the x86-64 layout: sixteen 64-bit general purpose
registers in hardware encoding order, sixteen 128-bit ``xmm`` vector
registers (the low half of the corresponding ``ymm``), an eight-slot x87
stack, and a small set of flags.  The ``%gs`` segment base is modelled as a
plain base address, exactly how lazypoline uses it for per-task storage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1

GPR_NAMES = (
    "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
)
GPR_INDEX = {name: i for i, name in enumerate(GPR_NAMES)}

RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI = range(8)
R8, R9, R10, R11, R12, R13, R14, R15 = range(8, 16)

#: Linux x86-64 syscall argument registers, in order.
SYSCALL_ARG_REGS = (RDI, RSI, RDX, R10, R8, R9)

#: Registers the kernel is allowed to clobber across a syscall.
SYSCALL_CLOBBERS = (RAX, RCX, R11)

XMM_NAMES = tuple(f"xmm{i}" for i in range(16))
XMM_INDEX = {name: i for i, name in enumerate(XMM_NAMES)}

X87_DEPTH = 8


class XComponent(enum.Flag):
    """Extended-state components, mirroring XSAVE feature bits."""

    X87 = enum.auto()
    SSE = enum.auto()
    AVX = enum.auto()

    @classmethod
    def all(cls) -> "XComponent":
        return cls.X87 | cls.SSE | cls.AVX

    @classmethod
    def none(cls) -> "XComponent":
        return cls(0)


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as two's complement."""
    value &= MASK64
    return value - (1 << 64) if value >> 63 else value


def to_unsigned(value: int) -> int:
    """Wrap a Python int into the 64-bit unsigned range."""
    return value & MASK64


@dataclass
class RegisterFile:
    """Complete user-visible register state of one hardware thread."""

    gpr: list[int] = field(default_factory=lambda: [0] * 16)
    xmm: list[int] = field(default_factory=lambda: [0] * 16)
    ymm_high: list[int] = field(default_factory=lambda: [0] * 16)
    x87: list[int] = field(default_factory=lambda: [0] * X87_DEPTH)
    x87_top: int = X87_DEPTH  # empty stack: top == depth
    rip: int = 0
    zf: bool = False
    lt: bool = False  # signed less-than result of the last compare
    gs_base: int = 0
    pkru: int = 0  # protection-key rights register (2 bits per key)

    # -- general purpose ---------------------------------------------------
    def read(self, reg: int) -> int:
        return self.gpr[reg]

    def write(self, reg: int, value: int) -> None:
        self.gpr[reg] = value & MASK64

    def read_name(self, name: str) -> int:
        return self.gpr[GPR_INDEX[name]]

    def write_name(self, name: str, value: int) -> None:
        self.write(GPR_INDEX[name], value)

    # -- vector ------------------------------------------------------------
    def read_xmm(self, reg: int) -> int:
        return self.xmm[reg]

    def write_xmm(self, reg: int, value: int) -> None:
        self.xmm[reg] = value & MASK128

    # -- x87 ---------------------------------------------------------------
    def x87_push(self, value: int) -> None:
        self.x87_top = (self.x87_top - 1) % X87_DEPTH
        self.x87[self.x87_top] = value & MASK64

    def x87_pop(self) -> int:
        value = self.x87[self.x87_top % X87_DEPTH]
        self.x87_top = min(self.x87_top + 1, X87_DEPTH)
        return value

    # -- state capture -----------------------------------------------------
    def snapshot_xstate(self, components: XComponent) -> dict:
        """Capture selected extended-state components (xsave analogue)."""
        snap: dict = {"components": components}
        if components & XComponent.SSE:
            snap["xmm"] = tuple(self.xmm)
        if components & XComponent.AVX:
            snap["ymm_high"] = tuple(self.ymm_high)
        if components & XComponent.X87:
            snap["x87"] = tuple(self.x87)
            snap["x87_top"] = self.x87_top
        return snap

    def restore_xstate(self, snap: dict) -> None:
        """Restore components captured by :meth:`snapshot_xstate`."""
        components: XComponent = snap["components"]
        if components & XComponent.SSE:
            self.xmm[:] = snap["xmm"]
        if components & XComponent.AVX:
            self.ymm_high[:] = snap["ymm_high"]
        if components & XComponent.X87:
            self.x87[:] = snap["x87"]
            self.x87_top = snap["x87_top"]

    def copy(self) -> "RegisterFile":
        clone = RegisterFile(
            gpr=list(self.gpr),
            xmm=list(self.xmm),
            ymm_high=list(self.ymm_high),
            x87=list(self.x87),
            x87_top=self.x87_top,
            rip=self.rip,
            zf=self.zf,
            lt=self.lt,
            gs_base=self.gs_base,
            pkru=self.pkru,
        )
        return clone
