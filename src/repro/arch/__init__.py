"""Simulated x86-64-flavoured architecture.

The instruction set keeps the encodings that the paper's mechanisms depend on
bit-identical to real x86-64:

* ``syscall``  = ``0F 05`` (two bytes),
* ``sysenter`` = ``0F 34`` (two bytes),
* ``call rax`` = ``FF D0`` (two bytes) — the zpoline replacement,
* ``nop``      = ``90`` (one byte) — the trampoline sled,
* rel32 jumps/calls are five bytes — too large to replace a syscall in place.

Everything else lives in a ``48``-prefixed namespace, one row per
instruction in :data:`repro.arch.isa.EXT_ROWS`, with lengths computed from
the row; the decoder, the assembler and the text assembler all read it.
"""

from repro.arch.registers import (
    GPR_NAMES,
    GPR_INDEX,
    RegisterFile,
    XComponent,
    RAX,
    RCX,
    RDX,
    RBX,
    RSP,
    RBP,
    RSI,
    RDI,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
)
from repro.arch.isa import Instruction, Mnemonic
from repro.arch.encode import Assembler
from repro.arch.asmtext import assemble_text
from repro.arch.decode import decode_one
from repro.arch.disasm import linear_sweep, find_syscall_sites

__all__ = [
    "GPR_NAMES",
    "GPR_INDEX",
    "RegisterFile",
    "XComponent",
    "Instruction",
    "Mnemonic",
    "Assembler",
    "assemble_text",
    "decode_one",
    "linear_sweep",
    "find_syscall_sites",
    "RAX",
    "RCX",
    "RDX",
    "RBX",
    "RSP",
    "RBP",
    "RSI",
    "RDI",
    "R8",
    "R9",
    "R10",
    "R11",
    "R12",
    "R13",
    "R14",
    "R15",
]
