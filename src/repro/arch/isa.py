"""Instruction set definition shared by the assembler, decoder and CPU.

Encoding summary
================

Faithful x86-64 encodings (load-bearing for the paper's mechanisms):

========================  =========================  ======
instruction               bytes                      length
========================  =========================  ======
``nop``                   ``90``                     1
``ret``                   ``C3``                     1
``hlt``                   ``F4``                     1
``int3``                  ``CC``                     1
``push r`` (r < 8)        ``50+r``                   1
``pop r`` (r < 8)         ``58+r``                   1
``push r`` (r >= 8)       ``41 50+(r-8)``            2
``pop r`` (r >= 8)        ``41 58+(r-8)``            2
``syscall``               ``0F 05``                  2
``sysenter``              ``0F 34``                  2
``ud2``                   ``0F 0B``                  2
``call r`` (r < 8)        ``FF D0+r``                2
``jmp r`` (r < 8)         ``FF E0+r``                2
``call r`` (r >= 8)       ``41 FF D0+(r-8)``         3
``jmp r`` (r >= 8)        ``41 FF E0+(r-8)``         3
``jmp rel8``              ``EB ib``                  2
``jz/jnz/jl/jg/jge/jle``  ``74/75/7C/7F/7D/7E ib``   2
``jmp rel32``             ``E9 id``                  5
``call rel32``            ``E8 id``                  5
``jz rel32``              ``0F 84 id``               6
``jnz rel32``             ``0F 85 id``               6
``mov r, imm64``          ``48 B8+r iq`` (r < 8)     10
``mov r, imm64``          ``49 B8+(r-8) iq``         10
========================  =========================  ======

Everything else lives in the ``48 <sub>`` extended namespace with an explicit
per-sub-opcode length (see ``EXT``); register operands are raw bytes, and
immediates/displacements are little-endian.  This is a deliberate
simplification of ModRM — the properties the paper depends on (two-byte
syscall, five-byte arbitrary jump, byte-searchable code) are preserved.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Mnemonic(str, enum.Enum):
    """All instruction mnemonics understood by the CPU."""

    NOP = "nop"
    RET = "ret"
    HLT = "hlt"
    INT3 = "int3"
    SYSCALL = "syscall"
    SYSENTER = "sysenter"
    UD2 = "ud2"
    PUSH = "push"
    POP = "pop"
    CALL_REG = "call_reg"
    JMP_REG = "jmp_reg"
    CALL_REL = "call_rel"
    JMP_REL = "jmp_rel"
    JZ = "jz"
    JNZ = "jnz"
    JL = "jl"
    JG = "jg"
    JGE = "jge"
    JLE = "jle"
    MOV_IMM64 = "mov_imm64"
    # 48-namespace
    MOV = "mov"
    LOAD = "load"
    STORE = "store"
    LOAD8 = "load8"
    STORE8 = "store8"
    ADD = "add"
    SUB = "sub"
    CMP = "cmp"
    AND = "and"
    OR = "or"
    XOR = "xor"
    IMUL = "imul"
    SHL = "shl"
    SHR = "shr"
    ADDI = "addi"
    SUBI = "subi"
    CMPI = "cmpi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    INC = "inc"
    DEC = "dec"
    LEA = "lea"
    MOVQ_XG = "movq_xg"  # xmm <- gpr
    MOVQ_GX = "movq_gx"  # gpr <- xmm (low 64 bits)
    MOVUPS_LOAD = "movups_load"  # xmm <- [mem]
    MOVUPS_STORE = "movups_store"  # [mem] <- xmm
    MOVAPS = "movaps"  # xmm <- xmm
    PUNPCKLQDQ = "punpcklqdq"
    XORPS = "xorps"
    VADDPD = "vaddpd"  # ymm-high touching op (AVX component)
    FLD1 = "fld1"
    FADDP = "faddp"
    FLD_MEM = "fld_mem"
    FSTP_MEM = "fstp_mem"
    XSAVE = "xsave"
    XRSTOR = "xrstor"
    RDGSBASE = "rdgsbase"
    WRGSBASE = "wrgsbase"
    GSLOAD = "gsload"
    GSSTORE = "gsstore"
    GSLOAD8 = "gsload8"
    GSSTORE8 = "gsstore8"
    GSJMP = "gsjmp"  # jmp qword ptr gs:[disp] — register-transparent jump
    GSCOPY8 = "gscopy8"  # byte move gs:[dst] <- gs:[src], no registers/flags
    RDPKRU = "rdpkru"
    WRPKRU = "wrpkru"
    GSWRPKRU = "gswrpkru"  # pkru <- u32 at gs:[disp]; register-transparent
    HCALL = "hcall"


# Dense per-mnemonic index for list-based dispatch and cost tables.  Named
# ``op_index`` (not ``index``) because Mnemonic is a str enum and a plain
# ``index`` attribute would shadow ``str.index``.
for _i, _m in enumerate(Mnemonic):
    _m.op_index = _i
del _i, _m

#: Number of mnemonics — the length of every op_index-keyed table.
N_MNEMONICS = len(Mnemonic)


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    ``operands`` is a tuple whose meaning depends on the mnemonic; see the
    decoder for the exact layout per mnemonic.  ``length`` is the encoded
    size in bytes, which the CPU uses to advance ``rip`` and the rewriters
    use to check in-place-patchability.

    An instruction is a pure value of its bytes: frozen, with no execution
    state attached.  That is what lets :func:`repro.arch.decode.decode_cached`
    hand one object to every address space and every CPU in the process;
    each CPU keeps its own handler and cycle cost in its translation-cache
    entries (see ``repro.cpu.core``), never on the instruction.
    """

    mnemonic: Mnemonic
    operands: tuple
    length: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        ops = ", ".join(str(o) for o in self.operands)
        return f"{self.mnemonic.value} {ops}".strip()


# Extended (0x48-prefixed) sub-opcodes: sub -> (mnemonic, total_length).
# Operand layouts are documented in decode.py next to each branch.
EXT: dict[int, tuple[Mnemonic, int]] = {
    0x01: (Mnemonic.MOV, 4),
    0x02: (Mnemonic.LOAD, 8),
    0x03: (Mnemonic.STORE, 8),
    0x04: (Mnemonic.ADD, 4),
    0x05: (Mnemonic.SUB, 4),
    0x06: (Mnemonic.CMP, 4),
    0x07: (Mnemonic.AND, 4),
    0x08: (Mnemonic.OR, 4),
    0x09: (Mnemonic.XOR, 4),
    0x0A: (Mnemonic.IMUL, 4),
    0x0B: (Mnemonic.SHL, 4),
    0x0C: (Mnemonic.SHR, 4),
    0x10: (Mnemonic.ADDI, 7),
    0x11: (Mnemonic.SUBI, 7),
    0x12: (Mnemonic.CMPI, 7),
    0x13: (Mnemonic.ANDI, 7),
    0x14: (Mnemonic.ORI, 7),
    0x15: (Mnemonic.XORI, 7),
    0x16: (Mnemonic.INC, 3),
    0x17: (Mnemonic.DEC, 3),
    0x18: (Mnemonic.LEA, 8),
    0x19: (Mnemonic.LOAD8, 8),
    0x1A: (Mnemonic.STORE8, 8),
    0x20: (Mnemonic.MOVQ_XG, 4),
    0x21: (Mnemonic.MOVQ_GX, 4),
    0x22: (Mnemonic.MOVUPS_LOAD, 8),
    0x23: (Mnemonic.MOVUPS_STORE, 8),
    0x24: (Mnemonic.PUNPCKLQDQ, 4),
    0x25: (Mnemonic.XORPS, 4),
    0x26: (Mnemonic.MOVAPS, 4),
    0x27: (Mnemonic.VADDPD, 4),
    0x28: (Mnemonic.FLD1, 2),
    0x2A: (Mnemonic.FADDP, 2),
    0x2C: (Mnemonic.FSTP_MEM, 7),
    0x2D: (Mnemonic.FLD_MEM, 7),
    0x30: (Mnemonic.XSAVE, 7),
    0x31: (Mnemonic.XRSTOR, 7),
    0x32: (Mnemonic.RDGSBASE, 3),
    0x33: (Mnemonic.WRGSBASE, 3),
    0x34: (Mnemonic.GSLOAD, 7),
    0x35: (Mnemonic.GSSTORE, 7),
    0x36: (Mnemonic.GSLOAD8, 7),
    0x37: (Mnemonic.GSSTORE8, 7),
    0x38: (Mnemonic.GSJMP, 6),
    0x3A: (Mnemonic.GSCOPY8, 10),
    0x3C: (Mnemonic.RDPKRU, 3),
    0x3D: (Mnemonic.WRPKRU, 3),
    0x3E: (Mnemonic.GSWRPKRU, 6),
    0x40: (Mnemonic.HCALL, 4),
}

EXT_SUB: dict[Mnemonic, int] = {mn: sub for sub, (mn, _len) in EXT.items()}

#: Conditional-jump short opcodes: opcode -> mnemonic.
JCC8: dict[int, Mnemonic] = {
    0x74: Mnemonic.JZ,
    0x75: Mnemonic.JNZ,
    0x7C: Mnemonic.JL,
    0x7F: Mnemonic.JG,
    0x7D: Mnemonic.JGE,
    0x7E: Mnemonic.JLE,
}
JCC8_OP: dict[Mnemonic, int] = {mn: op for op, mn in JCC8.items()}

#: Near conditional jumps (0F-prefixed, rel32).
JCC32: dict[int, Mnemonic] = {
    0x84: Mnemonic.JZ,
    0x85: Mnemonic.JNZ,
    0x8C: Mnemonic.JL,
    0x8D: Mnemonic.JGE,
    0x8E: Mnemonic.JLE,
    0x8F: Mnemonic.JG,
}
JCC32_OP: dict[Mnemonic, int] = {mn: op for op, mn in JCC32.items()}

#: Maximum encoded instruction length (mov r, imm64).
MAX_INSN_LEN = 10

#: The two-byte encodings central to the paper.
SYSCALL_BYTES = bytes((0x0F, 0x05))
SYSENTER_BYTES = bytes((0x0F, 0x34))
CALL_RAX_BYTES = bytes((0xFF, 0xD0))
NOP_BYTE = 0x90
