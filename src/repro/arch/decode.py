"""Single-instruction decoder.

``decode_one`` decodes exactly one instruction from a byte buffer.  It is the
single source of truth for instruction semantics shared by the CPU, the
linear-sweep disassembler, and the binary rewriters.  ``decode_cached`` is
the CPU's front end to it: a process-wide memo keyed on the fetched bytes.

Operand tuple layouts: the fixed x86 encodings decode inline below —
``(reg,)`` for push/pop and call/jmp through a register, ``(rel,)`` (the
signed displacement from the *next* instruction) for relative jumps and
calls, ``(reg, imm)`` for ``mov_imm64`` in both its 5- and 10-byte forms.
Every ``48 <sub>`` instruction decodes through its row in
:data:`repro.arch.isa.EXT_ROWS`, which lists its operand fields in byte
order with each field's position in the operand tuple.  The instruction
table in :mod:`repro.cpu.ops` names these operands and gives each its
role (register read or written, immediate, displacement).
"""

from __future__ import annotations

import struct

from repro.arch.isa import EXT, JCC8, JCC32, Instruction, Mnemonic
from repro.errors import InvalidOpcode

_S32 = struct.Struct("<i")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


#: Entries in the decode memo before a wholesale clear (as for the CPU's
#: per-address-space translation caches).
_DECODE_CAPACITY = 65536
_decoded: dict[bytes, Instruction] = {}


def decode_cached(window: bytes, addr: int = 0) -> Instruction:
    """``decode_one(window, 0, addr)``, memoised on the window's bytes.

    Sound because a decode depends on nothing but the bytes (``addr`` only
    labels errors) and an :class:`Instruction` is immutable, so one memo
    serves every address space in the process: a fresh guest of an
    already-run image decodes nothing.  Staleness is not this memo's
    concern — the key *is* the content, and callers still validate their
    own per-address caches against page generations.  A window that fails
    to decode raises before insertion, so it is never memoised.
    """
    insn = _decoded.get(window)
    if insn is None:
        insn = decode_one(window, 0, addr)
        if len(_decoded) >= _DECODE_CAPACITY:
            _decoded.clear()
        _decoded[window] = insn
    return insn


def _s8(b: int) -> int:
    return b - 256 if b >= 128 else b


def _need(buf: bytes, off: int, n: int, addr: int) -> None:
    if off + n > len(buf):
        raise InvalidOpcode(addr, buf[off] if off < len(buf) else None)


def decode_one(buf: bytes, off: int = 0, addr: int = 0) -> Instruction:
    """Decode one instruction from ``buf`` starting at ``off``.

    ``addr`` is the virtual address of the instruction, used only for error
    reporting.  Raises :class:`InvalidOpcode` on undefined encodings or a
    truncated buffer.
    """
    _need(buf, off, 1, addr)
    op = buf[off]

    # -- one-byte encodings -------------------------------------------------
    if op == 0x90:
        return Instruction(Mnemonic.NOP, (), 1)
    if op == 0xC3:
        return Instruction(Mnemonic.RET, (), 1)
    if op == 0xF4:
        return Instruction(Mnemonic.HLT, (), 1)
    if op == 0xCC:
        return Instruction(Mnemonic.INT3, (), 1)
    if 0x50 <= op <= 0x57:
        return Instruction(Mnemonic.PUSH, (op - 0x50,), 1)
    if 0x58 <= op <= 0x5F:
        return Instruction(Mnemonic.POP, (op - 0x58,), 1)

    # -- REX.B prefix for high registers ------------------------------------
    if op == 0x41:
        _need(buf, off, 2, addr)
        op2 = buf[off + 1]
        if 0x50 <= op2 <= 0x57:
            return Instruction(Mnemonic.PUSH, (8 + op2 - 0x50,), 2)
        if 0x58 <= op2 <= 0x5F:
            return Instruction(Mnemonic.POP, (8 + op2 - 0x58,), 2)
        if op2 == 0xFF:
            _need(buf, off, 3, addr)
            op3 = buf[off + 2]
            if 0xD0 <= op3 <= 0xD7:
                return Instruction(Mnemonic.CALL_REG, (8 + op3 - 0xD0,), 3)
            if 0xE0 <= op3 <= 0xE7:
                return Instruction(Mnemonic.JMP_REG, (8 + op3 - 0xE0,), 3)
        raise InvalidOpcode(addr, op)

    # -- FF group: register-indirect call/jmp --------------------------------
    if op == 0xFF:
        _need(buf, off, 2, addr)
        op2 = buf[off + 1]
        if 0xD0 <= op2 <= 0xD7:
            return Instruction(Mnemonic.CALL_REG, (op2 - 0xD0,), 2)
        if 0xE0 <= op2 <= 0xE7:
            return Instruction(Mnemonic.JMP_REG, (op2 - 0xE0,), 2)
        raise InvalidOpcode(addr, op)

    # -- relative control flow ----------------------------------------------
    if op == 0xEB:
        _need(buf, off, 2, addr)
        return Instruction(Mnemonic.JMP_REL, (_s8(buf[off + 1]),), 2)
    if op in JCC8:
        _need(buf, off, 2, addr)
        return Instruction(JCC8[op], (_s8(buf[off + 1]),), 2)
    if op == 0xE9:
        _need(buf, off, 5, addr)
        (rel,) = _S32.unpack_from(buf, off + 1)
        return Instruction(Mnemonic.JMP_REL, (rel,), 5)
    if op == 0xE8:
        _need(buf, off, 5, addr)
        (rel,) = _S32.unpack_from(buf, off + 1)
        return Instruction(Mnemonic.CALL_REL, (rel,), 5)

    # -- 0F two-byte namespace ----------------------------------------------
    if op == 0x0F:
        _need(buf, off, 2, addr)
        op2 = buf[off + 1]
        if op2 == 0x05:
            return Instruction(Mnemonic.SYSCALL, (), 2)
        if op2 == 0x34:
            return Instruction(Mnemonic.SYSENTER, (), 2)
        if op2 == 0x0B:
            return Instruction(Mnemonic.UD2, (), 2)
        if op2 in JCC32:
            _need(buf, off, 6, addr)
            (rel,) = _S32.unpack_from(buf, off + 2)
            return Instruction(JCC32[op2], (rel,), 6)
        raise InvalidOpcode(addr, op)

    # -- mov reg, imm ---------------------------------------------------------
    if 0xB8 <= op <= 0xBF:
        _need(buf, off, 5, addr)
        (imm,) = _U32.unpack_from(buf, off + 1)
        return Instruction(Mnemonic.MOV_IMM64, (op - 0xB8, imm), 5)
    if op == 0x49:
        _need(buf, off, 2, addr)
        op2 = buf[off + 1]
        if 0xB8 <= op2 <= 0xBF:
            _need(buf, off, 10, addr)
            (imm,) = _U64.unpack_from(buf, off + 2)
            return Instruction(Mnemonic.MOV_IMM64, (8 + op2 - 0xB8, imm), 10)
        raise InvalidOpcode(addr, op)

    # -- 48 extended namespace ------------------------------------------------
    if op == 0x48:
        _need(buf, off, 2, addr)
        sub = buf[off + 1]
        if 0xB8 <= sub <= 0xBF:
            _need(buf, off, 10, addr)
            (imm,) = _U64.unpack_from(buf, off + 2)
            return Instruction(Mnemonic.MOV_IMM64, (sub - 0xB8, imm), 10)
        row = EXT.get(sub)
        if row is None:
            raise InvalidOpcode(addr, op)
        _need(buf, off, row.length, addr)
        fields = row.struct.unpack_from(buf, off + 2)
        operands = tuple([fields[i] for i in row.gather])
        for slot in row.regs:  # only 16 registers exist (#UD else)
            if operands[slot] >= 16:
                raise InvalidOpcode(addr, operands[slot])
        return Instruction(row.mnemonic, operands, row.length)

    raise InvalidOpcode(addr, op)
