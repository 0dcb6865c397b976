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

Everything else lives in the ``48 <sub>`` extended namespace: one row per
instruction in ``EXT_ROWS`` gives its sub-opcode, mnemonic, text name and
operand fields, and the decoder, the :class:`~repro.arch.encode.Assembler`
and the text assembler all read it, with lengths computed from the row.
Register operands are raw bytes, and immediates/displacements are
little-endian.  This is a deliberate
simplification of ModRM — the properties the paper depends on (two-byte
syscall, five-byte arbitrary jump, byte-searchable code) are preserved.
"""

from __future__ import annotations

import enum
import struct
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

    ``operands`` is a tuple whose meaning depends on the mnemonic: a
    ``48``-namespace instruction's layout is its row in ``EXT_ROWS``, and
    :mod:`repro.cpu.ops` names and types every mnemonic's operands.
    ``length`` is the encoded size in bytes, which the CPU uses to advance
    ``rip`` and the rewriters use to check in-place-patchability.

    An instruction is a pure value of its bytes: frozen, with no execution
    state attached.  That is what lets :func:`repro.arch.decode.decode_cached`
    hand one object to every address space and every CPU in the process;
    each CPU keeps its own handler and cycle cost in its translation-cache
    entries (see ``repro.cpu.core``), never on the instruction.
    """

    mnemonic: Mnemonic
    operands: tuple
    length: int


#: The ``struct`` code of each operand field kind.
_FIELD_CODES = {"g": "B", "x": "B", "c": "B", "i": "i", "d": "i", "u": "I",
                "h": "H"}


class Encoding:
    """One ``48 <sub>`` instruction: its bytes and its text form.

    ``fields`` are the operand fields in byte order, as ``(kind, slot)``
    pairs: ``slot`` is the field's position in the decoded operand tuple.
    Field kinds are ``g``/``x`` (a GPR or xmm register byte, 0..15), ``c``
    (a shift-count byte), ``i`` (a signed 32-bit immediate), ``d`` (a
    signed 32-bit displacement after its base register), ``u`` (an
    unsigned 32-bit ``gs`` displacement) and ``h`` (a 16-bit host-call
    id).  The length is the two opcode bytes plus the fields.
    """

    __slots__ = ("sub", "mnemonic", "text", "fields", "kinds", "struct",
                 "length", "gather", "regs")

    def __init__(self, sub: int, mnemonic: Mnemonic, text: str, fields: str):
        self.sub = sub
        self.mnemonic = mnemonic
        #: The Intel text name (``mov``, ``movb``, ``add``, ``fld``, ...).
        self.text = text
        self.fields = tuple((f[0], int(f[1:])) for f in fields.split())
        #: Byte-order index of each decoded operand, and the field kinds
        #: in decoded order.
        self.gather = tuple(sorted(range(len(self.fields)),
                                   key=lambda i: self.fields[i][1]))
        assert [self.fields[i][1] for i in self.gather] == list(
            range(len(self.fields))), f"{mnemonic}: slots are not 0..n-1"
        self.kinds = "".join(self.fields[i][0] for i in self.gather)
        self.struct = struct.Struct(
            "<" + "".join(_FIELD_CODES[k] for k, _ in self.fields))
        self.length = 2 + self.struct.size
        #: Decoded positions of the register operands, in decoded order.
        self.regs = tuple(i for i, k in enumerate(self.kinds) if k in "gx")


M = Mnemonic
#: Every ``48 <sub>`` instruction, one row each: sub-opcode, mnemonic, text
#: name and fields (see :class:`Encoding`).
EXT_ROWS: tuple[Encoding, ...] = tuple(Encoding(*row) for row in (
    (0x01, M.MOV, "mov", "g0 g1"),
    (0x02, M.LOAD, "mov", "g0 g1 d2"),
    (0x03, M.STORE, "mov", "g2 g0 d1"),
    (0x04, M.ADD, "add", "g0 g1"),
    (0x05, M.SUB, "sub", "g0 g1"),
    (0x06, M.CMP, "cmp", "g0 g1"),
    (0x07, M.AND, "and", "g0 g1"),
    (0x08, M.OR, "or", "g0 g1"),
    (0x09, M.XOR, "xor", "g0 g1"),
    (0x0A, M.IMUL, "imul", "g0 g1"),
    (0x0B, M.SHL, "shl", "g0 c1"),
    (0x0C, M.SHR, "shr", "g0 c1"),
    (0x10, M.ADDI, "add", "g0 i1"),
    (0x11, M.SUBI, "sub", "g0 i1"),
    (0x12, M.CMPI, "cmp", "g0 i1"),
    (0x13, M.ANDI, "and", "g0 i1"),
    (0x14, M.ORI, "or", "g0 i1"),
    (0x15, M.XORI, "xor", "g0 i1"),
    (0x16, M.INC, "inc", "g0"),
    (0x17, M.DEC, "dec", "g0"),
    (0x18, M.LEA, "lea", "g0 g1 d2"),
    (0x19, M.LOAD8, "movb", "g0 g1 d2"),
    (0x1A, M.STORE8, "movb", "g2 g0 d1"),
    (0x20, M.MOVQ_XG, "movq", "x0 g1"),
    (0x21, M.MOVQ_GX, "movq", "g0 x1"),
    (0x22, M.MOVUPS_LOAD, "movups", "x0 g1 d2"),
    (0x23, M.MOVUPS_STORE, "movups", "x2 g0 d1"),
    (0x24, M.PUNPCKLQDQ, "punpcklqdq", "x0 x1"),
    (0x25, M.XORPS, "xorps", "x0 x1"),
    (0x26, M.MOVAPS, "movaps", "x0 x1"),
    (0x27, M.VADDPD, "vaddpd", "x0 x1"),
    (0x28, M.FLD1, "fld1", ""),
    (0x2A, M.FADDP, "faddp", ""),
    (0x2C, M.FSTP_MEM, "fstp", "g0 d1"),
    (0x2D, M.FLD_MEM, "fld", "g0 d1"),
    (0x30, M.XSAVE, "xsave", "g0 d1"),
    (0x31, M.XRSTOR, "xrstor", "g0 d1"),
    (0x32, M.RDGSBASE, "rdgsbase", "g0"),
    (0x33, M.WRGSBASE, "wrgsbase", "g0"),
    (0x34, M.GSLOAD, "mov", "g0 u1"),
    (0x35, M.GSSTORE, "mov", "g1 u0"),
    (0x36, M.GSLOAD8, "movb", "g0 u1"),
    (0x37, M.GSSTORE8, "movb", "g1 u0"),
    (0x38, M.GSJMP, "jmp", "u0"),
    (0x3A, M.GSCOPY8, "movb", "u0 u1"),
    (0x3C, M.RDPKRU, "rdpkru", "g0"),
    (0x3D, M.WRPKRU, "wrpkru", "g0"),
    (0x3E, M.GSWRPKRU, "wrpkru", "u0"),
    (0x40, M.HCALL, "hcall", "h0"),
))
del M

#: ``48 <sub>`` -> its row, and mnemonic -> its row.
EXT: dict[int, Encoding] = {row.sub: row for row in EXT_ROWS}
EXT_ROW: dict[Mnemonic, Encoding] = {row.mnemonic: row for row in EXT_ROWS}
assert len(EXT) == len(EXT_ROW) == len(EXT_ROWS), "one row per sub, mnemonic"

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
assert max(row.length for row in EXT_ROWS) <= MAX_INSN_LEN

#: The two-byte encodings central to the paper.
SYSCALL_BYTES = bytes((0x0F, 0x05))
SYSENTER_BYTES = bytes((0x0F, 0x34))
CALL_RAX_BYTES = bytes((0xFF, 0xD0))
NOP_BYTE = 0x90
