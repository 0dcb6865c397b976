"""Two-pass assembler with label support.

The :class:`Assembler` is a builder: each method appends one instruction and
returns ``self`` so call chains read like an assembly listing::

    a = Assembler(base=0x400000)
    a.label("loop")
    a.mov_imm("rax", 500)
    a.syscall()
    a.dec("rbx")
    a.jnz("loop")
    a.ret()
    code = a.assemble()

Register operands accept either an x86 register name (``"rax"``, ``"r10"``,
``"xmm3"``) or a raw index.  Branch targets accept a label name or an
absolute integer address.  Label references are patched in a second pass at
:meth:`assemble` time; ``mov_imm`` of a label always uses the 10-byte
imm64 form so the reference width is known up front.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.arch.isa import EXT_ROW, JCC32_OP, Mnemonic
from repro.arch.registers import GPR_INDEX, XMM_INDEX
from repro.errors import AssemblerError

M = Mnemonic
_S32 = struct.Struct("<i")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def _gpr(reg: int | str) -> int:
    if isinstance(reg, str):
        try:
            return GPR_INDEX[reg]
        except KeyError:
            raise AssemblerError(f"unknown register {reg!r}") from None
    if not 0 <= reg < 16:
        raise AssemblerError(f"GPR index out of range: {reg}")
    return reg


def _xmm(reg: int | str) -> int:
    if isinstance(reg, str):
        try:
            return XMM_INDEX[reg]
        except KeyError:
            raise AssemblerError(f"unknown xmm register {reg!r}") from None
    if not 0 <= reg < 16:
        raise AssemblerError(f"xmm index out of range: {reg}")
    return reg


def _same(value: int) -> int:
    return value


#: How each register or count field of a row takes its operand; the
#: other fields pack the operand as given.
_FIELD_VALUE = {"g": _gpr, "x": _xmm, "c": lambda count: count & 0xFF}


@dataclass
class _Fixup:
    """A label reference to patch at assemble time."""

    offset: int  # byte offset of the field within the code
    kind: str  # "rel32" (relative to insn end) or "abs64"
    target: str  # label name
    insn_end: int  # offset just past the instruction (rel32 anchor)


class Assembler:
    """Builds machine code for the simulated ISA."""

    def __init__(self, base: int = 0):
        self.base = base
        self._code = bytearray()
        self._labels: dict[str, int] = {}
        self._fixups: list[_Fixup] = []

    # ------------------------------------------------------------------ core
    def label(self, name: str) -> "Assembler":
        """Define ``name`` at the current position."""
        if name in self._labels:
            raise AssemblerError(f"duplicate label {name!r}")
        self._labels[name] = len(self._code)
        return self

    def here(self) -> int:
        """Absolute address of the next emitted byte."""
        return self.base + len(self._code)

    def db(self, data: bytes) -> "Assembler":
        """Emit raw data bytes (e.g. strings, tables) inline."""
        self._code += data
        return self

    def dq(self, value: int | str) -> "Assembler":
        """Emit a 64-bit data word; a label name emits its absolute address."""
        if isinstance(value, str):
            field = len(self._code)
            self._code += b"\x00" * 8
            self._fixups.append(_Fixup(field, "abs64", value, len(self._code)))
            return self
        self._code += _U64.pack(value & (1 << 64) - 1)
        return self

    def align(self, boundary: int, fill: int = 0x90) -> "Assembler":
        while len(self._code) % boundary:
            self._code.append(fill)
        return self

    def assemble(self) -> bytes:
        """Resolve label fixups and return the code bytes."""
        for fix in self._fixups:
            if fix.target not in self._labels:
                raise AssemblerError(f"undefined label {fix.target!r}")
            target_addr = self.base + self._labels[fix.target]
            if fix.kind == "rel32":
                rel = target_addr - (self.base + fix.insn_end)
                _S32.pack_into(self._code, fix.offset, rel)
            elif fix.kind == "abs64":
                _U64.pack_into(self._code, fix.offset, target_addr)
            else:  # pragma: no cover - internal invariant
                raise AssemblerError(f"bad fixup kind {fix.kind}")
        return bytes(self._code)

    def address_of(self, name: str) -> int:
        """Absolute address of a defined label (valid after definition)."""
        if name not in self._labels:
            raise AssemblerError(f"undefined label {name!r}")
        return self.base + self._labels[name]

    # ------------------------------------------------------------- emit utils
    def _emit(self, *parts: bytes | int) -> "Assembler":
        for part in parts:
            if isinstance(part, int):
                self._code.append(part)
            else:
                self._code += part
        return self

    def _branch_rel32(self, opcode: bytes, target: str | int) -> "Assembler":
        start = len(self._code)
        self._code += opcode
        field = len(self._code)
        self._code += b"\x00\x00\x00\x00"
        end = len(self._code)
        if isinstance(target, str):
            self._fixups.append(_Fixup(field, "rel32", target, end))
        else:
            rel = target - (self.base + end)
            _S32.pack_into(self._code, field, rel)
        del start
        return self

    # ----------------------------------------------------------- no operands
    def nop(self) -> "Assembler":
        return self._emit(0x90)

    def ret(self) -> "Assembler":
        return self._emit(0xC3)

    def hlt(self) -> "Assembler":
        return self._emit(0xF4)

    def int3(self) -> "Assembler":
        return self._emit(0xCC)

    def syscall(self) -> "Assembler":
        return self._emit(0x0F, 0x05)

    def sysenter(self) -> "Assembler":
        return self._emit(0x0F, 0x34)

    def ud2(self) -> "Assembler":
        return self._emit(0x0F, 0x0B)

    # ---------------------------------------------------------------- stack
    def push(self, reg: int | str) -> "Assembler":
        r = _gpr(reg)
        if r < 8:
            return self._emit(0x50 + r)
        return self._emit(0x41, 0x50 + r - 8)

    def pop(self, reg: int | str) -> "Assembler":
        r = _gpr(reg)
        if r < 8:
            return self._emit(0x58 + r)
        return self._emit(0x41, 0x58 + r - 8)

    # ---------------------------------------------------------- control flow
    def call_reg(self, reg: int | str) -> "Assembler":
        r = _gpr(reg)
        if r < 8:
            return self._emit(0xFF, 0xD0 + r)
        return self._emit(0x41, 0xFF, 0xD0 + r - 8)

    def jmp_reg(self, reg: int | str) -> "Assembler":
        r = _gpr(reg)
        if r < 8:
            return self._emit(0xFF, 0xE0 + r)
        return self._emit(0x41, 0xFF, 0xE0 + r - 8)

    def call(self, target: str | int) -> "Assembler":
        return self._branch_rel32(b"\xe8", target)

    def jmp(self, target: str | int) -> "Assembler":
        return self._branch_rel32(b"\xe9", target)

    def _jcc(self, mnemonic: Mnemonic, target: str | int) -> "Assembler":
        opcode = bytes((0x0F, JCC32_OP[mnemonic]))
        return self._branch_rel32(opcode, target)

    def jz(self, target: str | int) -> "Assembler":
        return self._jcc(Mnemonic.JZ, target)

    def jnz(self, target: str | int) -> "Assembler":
        return self._jcc(Mnemonic.JNZ, target)

    def jl(self, target: str | int) -> "Assembler":
        return self._jcc(Mnemonic.JL, target)

    def jg(self, target: str | int) -> "Assembler":
        return self._jcc(Mnemonic.JG, target)

    def jge(self, target: str | int) -> "Assembler":
        return self._jcc(Mnemonic.JGE, target)

    def jle(self, target: str | int) -> "Assembler":
        return self._jcc(Mnemonic.JLE, target)

    def jmp_short(self, rel: int) -> "Assembler":
        """Two-byte jump with an explicit rel8 (no label support)."""
        if not -128 <= rel <= 127:
            raise AssemblerError("rel8 out of range")
        return self._emit(0xEB, rel & 0xFF)

    # ------------------------------------------------------------------ data
    def mov_imm(self, reg: int | str, value: int | str) -> "Assembler":
        """``mov reg, imm``.

        A label name as ``value`` emits the 10-byte imm64 form with an
        absolute fixup; integers use the short imm32 form when they fit.
        """
        r = _gpr(reg)
        if isinstance(value, str):
            if r < 8:
                self._emit(0x48, 0xB8 + r)
            else:
                self._emit(0x49, 0xB8 + r - 8)
            field = len(self._code)
            self._code += b"\x00" * 8
            self._fixups.append(_Fixup(field, "abs64", value, len(self._code)))
            return self
        value &= (1 << 64) - 1
        if r < 8 and value < (1 << 32):
            return self._emit(0xB8 + r, _U32.pack(value))
        if r < 8:
            return self._emit(0x48, 0xB8 + r, _U64.pack(value))
        return self._emit(0x49, 0xB8 + r - 8, _U64.pack(value))

    # -------------------------------------------------------- 48 namespace
    def _ext(self, mnemonic: Mnemonic, *operands) -> "Assembler":
        """Emit the ``48 <sub>`` instruction ``mnemonic``; ``operands``
        are in decoded order and are packed through its row."""
        row = EXT_ROW[mnemonic]
        fields = [_FIELD_VALUE.get(kind, _same)(operands[slot])
                  for kind, slot in row.fields]
        self._code += bytes((0x48, row.sub)) + row.struct.pack(*fields)
        return self

    def mov(self, dst: int | str, src: int | str) -> "Assembler":
        return self._ext(M.MOV, dst, src)

    def add(self, dst: int | str, src: int | str) -> "Assembler":
        return self._ext(M.ADD, dst, src)

    def sub(self, dst: int | str, src: int | str) -> "Assembler":
        return self._ext(M.SUB, dst, src)

    def cmp(self, dst: int | str, src: int | str) -> "Assembler":
        return self._ext(M.CMP, dst, src)

    def and_(self, dst: int | str, src: int | str) -> "Assembler":
        return self._ext(M.AND, dst, src)

    def or_(self, dst: int | str, src: int | str) -> "Assembler":
        return self._ext(M.OR, dst, src)

    def xor(self, dst: int | str, src: int | str) -> "Assembler":
        return self._ext(M.XOR, dst, src)

    def imul(self, dst: int | str, src: int | str) -> "Assembler":
        return self._ext(M.IMUL, dst, src)

    def shl(self, dst: int | str, count: int) -> "Assembler":
        return self._ext(M.SHL, dst, count)

    def shr(self, dst: int | str, count: int) -> "Assembler":
        return self._ext(M.SHR, dst, count)

    def addi(self, dst: int | str, imm: int) -> "Assembler":
        return self._ext(M.ADDI, dst, imm)

    def subi(self, dst: int | str, imm: int) -> "Assembler":
        return self._ext(M.SUBI, dst, imm)

    def cmpi(self, dst: int | str, imm: int) -> "Assembler":
        return self._ext(M.CMPI, dst, imm)

    def andi(self, dst: int | str, imm: int) -> "Assembler":
        return self._ext(M.ANDI, dst, imm)

    def ori(self, dst: int | str, imm: int) -> "Assembler":
        return self._ext(M.ORI, dst, imm)

    def xori(self, dst: int | str, imm: int) -> "Assembler":
        return self._ext(M.XORI, dst, imm)

    def inc(self, reg: int | str) -> "Assembler":
        return self._ext(M.INC, reg)

    def dec(self, reg: int | str) -> "Assembler":
        return self._ext(M.DEC, reg)

    # --------------------------------------------------------------- memory
    def load(self, dst: int | str, base: int | str, disp: int = 0) -> "Assembler":
        return self._ext(M.LOAD, dst, base, disp)

    def store(self, base: int | str, disp: int, src: int | str) -> "Assembler":
        return self._ext(M.STORE, base, disp, src)

    def load8(self, dst: int | str, base: int | str, disp: int = 0) -> "Assembler":
        return self._ext(M.LOAD8, dst, base, disp)

    def store8(self, base: int | str, disp: int, src: int | str) -> "Assembler":
        return self._ext(M.STORE8, base, disp, src)

    def lea(self, dst: int | str, base: int | str, disp: int = 0) -> "Assembler":
        return self._ext(M.LEA, dst, base, disp)

    # --------------------------------------------------------------- vector
    def movq_xg(self, xmm: int | str, gpr: int | str) -> "Assembler":
        return self._ext(M.MOVQ_XG, xmm, gpr)

    def movq_gx(self, gpr: int | str, xmm: int | str) -> "Assembler":
        return self._ext(M.MOVQ_GX, gpr, xmm)

    def movups_load(self, xmm: int | str, base: int | str, disp: int = 0) -> "Assembler":
        return self._ext(M.MOVUPS_LOAD, xmm, base, disp)

    def movups_store(self, base: int | str, disp: int, xmm: int | str) -> "Assembler":
        return self._ext(M.MOVUPS_STORE, base, disp, xmm)

    def movaps(self, dst: int | str, src: int | str) -> "Assembler":
        return self._ext(M.MOVAPS, dst, src)

    def punpcklqdq(self, dst: int | str, src: int | str) -> "Assembler":
        return self._ext(M.PUNPCKLQDQ, dst, src)

    def xorps(self, dst: int | str, src: int | str) -> "Assembler":
        return self._ext(M.XORPS, dst, src)

    def vaddpd(self, dst: int | str, src: int | str) -> "Assembler":
        return self._ext(M.VADDPD, dst, src)

    # ------------------------------------------------------------------ x87
    def fld1(self) -> "Assembler":
        return self._ext(M.FLD1)

    def faddp(self) -> "Assembler":
        return self._ext(M.FADDP)

    def fld_mem(self, base: int | str, disp: int = 0) -> "Assembler":
        return self._ext(M.FLD_MEM, base, disp)

    def fstp_mem(self, base: int | str, disp: int = 0) -> "Assembler":
        return self._ext(M.FSTP_MEM, base, disp)

    # --------------------------------------------------------------- xstate
    def xsave(self, base: int | str, disp: int = 0) -> "Assembler":
        return self._ext(M.XSAVE, base, disp)

    def xrstor(self, base: int | str, disp: int = 0) -> "Assembler":
        return self._ext(M.XRSTOR, base, disp)

    # ------------------------------------------------------------------- gs
    def rdgsbase(self, dst: int | str) -> "Assembler":
        return self._ext(M.RDGSBASE, dst)

    def wrgsbase(self, src: int | str) -> "Assembler":
        return self._ext(M.WRGSBASE, src)

    def gsload(self, dst: int | str, disp: int) -> "Assembler":
        return self._ext(M.GSLOAD, dst, disp)

    def gsstore(self, disp: int, src: int | str) -> "Assembler":
        return self._ext(M.GSSTORE, disp, src)

    def gsload8(self, dst: int | str, disp: int) -> "Assembler":
        return self._ext(M.GSLOAD8, dst, disp)

    def gsstore8(self, disp: int, src: int | str) -> "Assembler":
        return self._ext(M.GSSTORE8, disp, src)

    def rdpkru(self, dst: int | str) -> "Assembler":
        return self._ext(M.RDPKRU, dst)

    def wrpkru(self, src: int | str) -> "Assembler":
        return self._ext(M.WRPKRU, src)

    def gswrpkru(self, disp: int) -> "Assembler":
        """Load PKRU from ``gs:[disp]`` without touching any register.

        Models the ERIM-style domain-close gadget (register spill to
        protected scratch + wrpkru) as one instruction.
        """
        return self._ext(M.GSWRPKRU, disp)

    def gsjmp(self, disp: int) -> "Assembler":
        """Jump to the address stored at ``gs:[disp]`` (clobbers nothing)."""
        return self._ext(M.GSJMP, disp)

    def gscopy8(self, dst_disp: int, src_disp: int) -> "Assembler":
        """Byte move ``gs:[dst] <- gs:[src]`` without touching registers."""
        return self._ext(M.GSCOPY8, dst_disp, src_disp)

    # ------------------------------------------------------------ host calls
    def hcall(self, hook_id: int) -> "Assembler":
        return self._ext(M.HCALL, hook_id)
