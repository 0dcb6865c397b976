"""Assembler/decoder round-trip tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.asmtext import assemble_text
from repro.arch.decode import decode_one
from repro.arch.encode import Assembler
from repro.arch.isa import (
    CALL_RAX_BYTES,
    EXT_ROWS,
    Instruction,
    MAX_INSN_LEN,
    Mnemonic,
    SYSCALL_BYTES,
)
from repro.arch.registers import GPR_NAMES
from repro.cpu.ops import ROWS
from repro.errors import AssemblerError
from tests import insn_corpus


def roundtrip(build, mnemonic, operands):
    a = Assembler()
    build(a)
    code = a.assemble()
    insn = decode_one(code)
    assert insn.mnemonic is mnemonic
    assert insn.operands == operands
    assert insn.length == len(code)
    return insn


def test_syscall_is_two_bytes_0f05():
    a = Assembler()
    a.syscall()
    assert a.assemble() == SYSCALL_BYTES


def test_sysenter_is_two_bytes_0f34():
    a = Assembler()
    a.sysenter()
    assert a.assemble() == bytes((0x0F, 0x34))


def test_call_rax_is_two_bytes_ffd0():
    a = Assembler()
    a.call_reg("rax")
    assert a.assemble() == CALL_RAX_BYTES


def test_syscall_and_call_rax_same_length():
    """The load-bearing property: in-place replaceability."""
    assert len(SYSCALL_BYTES) == len(CALL_RAX_BYTES) == 2


def test_nop_is_90():
    a = Assembler()
    a.nop()
    assert a.assemble() == b"\x90"


def test_rel32_jump_is_five_bytes():
    a = Assembler()
    a.label("target")
    a.jmp("target")
    code = a.assemble()
    assert len(code) == 5
    insn = decode_one(code)
    assert insn.mnemonic is Mnemonic.JMP_REL
    assert insn.operands == (-5,)


@pytest.mark.parametrize("reg,expected_len", [("rax", 1), ("rdi", 1), ("r8", 2), ("r15", 2)])
def test_push_pop_lengths(reg, expected_len):
    a = Assembler()
    a.push(reg)
    assert len(a.assemble()) == expected_len
    b = Assembler()
    b.pop(reg)
    assert len(b.assemble()) == expected_len


@pytest.mark.parametrize("reg", ["rax", "rbx", "r9", "r15"])
def test_push_pop_roundtrip(reg):
    from repro.arch.registers import GPR_INDEX

    a = Assembler()
    a.push(reg)
    insn = decode_one(a.assemble())
    assert insn.mnemonic is Mnemonic.PUSH
    assert insn.operands == (GPR_INDEX[reg],)


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=2**64 - 1))
def test_mov_imm_roundtrip(reg, value):
    a = Assembler()
    a.mov_imm(reg, value)
    insn = decode_one(a.assemble())
    assert insn.mnemonic is Mnemonic.MOV_IMM64
    assert insn.operands == (reg, value)


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_reg_reg_alu_roundtrip(dst, src):
    for method, mnemonic in [
        ("mov", Mnemonic.MOV),
        ("add", Mnemonic.ADD),
        ("sub", Mnemonic.SUB),
        ("cmp", Mnemonic.CMP),
        ("xor", Mnemonic.XOR),
        ("imul", Mnemonic.IMUL),
    ]:
        a = Assembler()
        getattr(a, method)(dst, src)
        insn = decode_one(a.assemble())
        assert insn.mnemonic is mnemonic
        assert insn.operands == (dst, src)


@given(
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
)
def test_load_store_roundtrip(reg, base, disp):
    a = Assembler()
    a.load(reg, base, disp)
    insn = decode_one(a.assemble())
    assert insn.mnemonic is Mnemonic.LOAD
    assert insn.operands == (reg, base, disp)

    b = Assembler()
    b.store(base, disp, reg)
    insn = decode_one(b.assemble())
    assert insn.mnemonic is Mnemonic.STORE
    assert insn.operands == (base, disp, reg)


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_imm_alu_roundtrip(reg, imm):
    a = Assembler()
    a.addi(reg, imm)
    insn = decode_one(a.assemble())
    assert insn.mnemonic is Mnemonic.ADDI
    assert insn.operands == (reg, imm)


def test_label_forward_and_backward():
    a = Assembler(base=0x1000)
    a.label("start")
    a.jmp("end")  # forward
    a.label("mid")
    a.jmp("start")  # backward
    a.label("end")
    a.ret()
    code = a.assemble()
    first = decode_one(code, 0, 0x1000)
    assert first.operands[0] == 5  # skips the second jump (5 bytes)
    second = decode_one(code, 5, 0x1005)
    assert 0x1005 + second.length + second.operands[0] == 0x1000


def test_mov_imm_label_uses_imm64_form():
    a = Assembler(base=0x2000)
    a.mov_imm("rax", "data")
    a.label("data")
    code = a.assemble()
    insn = decode_one(code)
    assert insn.length == 10
    assert insn.operands == (0, 0x2000 + 10)


def test_dq_label():
    a = Assembler(base=0x3000)
    a.label("table")
    a.dq("table")
    a.dq(0x1122334455667788)
    code = a.assemble()
    assert code[:8] == (0x3000).to_bytes(8, "little")
    assert code[8:] == bytes.fromhex("8877665544332211")


def test_duplicate_label_rejected():
    a = Assembler()
    a.label("x")
    with pytest.raises(AssemblerError):
        a.label("x")


def test_undefined_label_rejected():
    a = Assembler()
    a.jmp("nowhere")
    with pytest.raises(AssemblerError):
        a.assemble()


def test_unknown_register_rejected():
    a = Assembler()
    with pytest.raises(AssemblerError):
        a.mov_imm("eax", 1)  # 32-bit names are not a thing here


def test_gs_instructions_roundtrip():
    a = Assembler()
    a.gsstore8(0, "r11")
    a.gsload("r11", 24)
    a.gsjmp(16)
    a.gscopy8(0, 8)
    code = a.assemble()
    insn = decode_one(code)
    assert insn.mnemonic is Mnemonic.GSSTORE8
    assert insn.operands == (0, 11)
    off = insn.length
    insn = decode_one(code, off)
    assert insn.mnemonic is Mnemonic.GSLOAD
    assert insn.operands == (11, 24)
    off += insn.length
    insn = decode_one(code, off)
    assert insn.mnemonic is Mnemonic.GSJMP
    assert insn.operands == (16,)
    off += insn.length
    insn = decode_one(code, off)
    assert insn.mnemonic is Mnemonic.GSCOPY8
    assert insn.operands == (0, 8)


def test_hcall_roundtrip():
    a = Assembler()
    a.hcall(0x1234)
    insn = decode_one(a.assemble())
    assert insn.mnemonic is Mnemonic.HCALL
    assert insn.operands == (0x1234,)


@given(st.binary(min_size=0, max_size=MAX_INSN_LEN))
def test_decoder_never_crashes_on_garbage(blob):
    """Decoding arbitrary bytes either yields an instruction or a clean
    InvalidOpcode — never an unhandled exception."""
    from repro.errors import InvalidOpcode

    try:
        insn = decode_one(blob)
        assert 1 <= insn.length <= MAX_INSN_LEN
    except InvalidOpcode:
        pass


def test_every_assembled_instruction_decodes():
    """Exercise one instance of (nearly) every assembler method."""
    a = Assembler(base=0x5000)
    a.label("_start")
    a.nop(); a.ret(); a.hlt(); a.int3(); a.syscall(); a.sysenter(); a.ud2()
    a.push("rbx"); a.pop("rbx"); a.push("r12"); a.pop("r12")
    a.call_reg("rax"); a.jmp_reg("rdx"); a.call_reg("r10"); a.jmp_reg("r11")
    a.call("_start"); a.jmp("_start")
    a.jz("_start"); a.jnz("_start"); a.jl("_start"); a.jg("_start")
    a.jge("_start"); a.jle("_start")
    a.jmp_short(-2)
    a.mov_imm("rax", 5); a.mov_imm("r9", 2**40)
    a.mov("rax", "rbx"); a.add("rax", "rbx"); a.sub("rax", "rbx")
    a.cmp("rax", "rbx"); a.and_("rax", "rbx"); a.or_("rax", "rbx")
    a.xor("rax", "rbx"); a.imul("rax", "rbx"); a.shl("rax", 3); a.shr("rax", 3)
    a.addi("rax", -1); a.subi("rax", 1); a.cmpi("rax", 0)
    a.andi("rax", 0xFF); a.ori("rax", 1); a.xori("rax", 1)
    a.inc("rcx"); a.dec("rcx"); a.lea("rax", "rsp", 8)
    a.load("rax", "rsp", 0); a.store("rsp", 0, "rax")
    a.load8("rax", "rsp", 0); a.store8("rsp", 0, "rax")
    a.movq_xg("xmm0", "rax"); a.movq_gx("rax", "xmm0")
    a.movups_load("xmm1", "rsp", 0); a.movups_store("rsp", 0, "xmm1")
    a.movaps("xmm2", "xmm1"); a.punpcklqdq("xmm0", "xmm1")
    a.xorps("xmm3", "xmm3"); a.vaddpd("xmm4", "xmm5")
    a.fld1(); a.faddp(); a.fld_mem("rsp", 0); a.fstp_mem("rsp", 0)
    a.xsave("rsp", 0); a.xrstor("rsp", 0)
    a.rdgsbase("rax"); a.wrgsbase("rax")
    a.gsload("rax", 0); a.gsstore(0, "rax")
    a.gsload8("rax", 0); a.gsstore8(0, "rax")
    a.gsjmp(16); a.gscopy8(0, 8)
    a.hcall(7)
    code = a.assemble()

    off = 0
    count = 0
    while off < len(code):
        insn = decode_one(code, off, 0x5000 + off)
        off += insn.length
        count += 1
    assert off == len(code)
    assert count >= 60


# ------------------------------------------ one row per 48-namespace instruction
#: The row field kinds as ``insn_corpus.LAYOUT`` names them (kept apart
#: from the rows on purpose) and as the roles of ``repro.cpu.ops``.
_LAYOUT_KIND = {"g": "g", "x": "x", "c": "u8", "i": "s32", "d": "s32",
                "u": "u32", "h": "u16"}
_OPS_ROLES = {"g": {"g"}, "x": {"x", "xy"}, "c": {"count"}, "i": {"imm"},
              "d": {"disp"}, "u": {"disp"}, "h": {"id"}}
_ROW_IDS = [row.mnemonic.value for row in EXT_ROWS]


def test_rows_cover_every_mnemonic_outside_the_fixed_encodings():
    fixed = {Mnemonic.NOP, Mnemonic.RET, Mnemonic.HLT, Mnemonic.INT3,
             Mnemonic.SYSCALL, Mnemonic.SYSENTER, Mnemonic.UD2,
             Mnemonic.PUSH, Mnemonic.POP, Mnemonic.CALL_REG,
             Mnemonic.JMP_REG, Mnemonic.CALL_REL, Mnemonic.JMP_REL,
             Mnemonic.JZ, Mnemonic.JNZ, Mnemonic.JL, Mnemonic.JG,
             Mnemonic.JGE, Mnemonic.JLE, Mnemonic.MOV_IMM64}
    assert {row.mnemonic for row in EXT_ROWS} == set(Mnemonic) - fixed


@pytest.mark.parametrize("row", EXT_ROWS, ids=_ROW_IDS)
def test_row_kinds_agree_with_corpus_layout_and_ops_roles(row):
    m = row.mnemonic
    assert tuple(_LAYOUT_KIND[k] for k in row.kinds) == insn_corpus.LAYOUT[m]
    roles = [kind for _name, kind, _acc, slot in ROWS[m.op_index].operands
             if slot is not None]
    assert len(roles) == len(row.kinds)
    for k, role in zip(row.kinds, roles):
        assert role in _OPS_ROLES[k], (m, k, role)


@pytest.mark.parametrize("row", EXT_ROWS, ids=_ROW_IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_row_roundtrips_full_range_operands(row, data):
    """Every row's public Assembler method and ``_ext`` emit the same
    bytes, which decode back to exactly the operands."""
    ops = data.draw(insn_corpus.operands(row.mnemonic))
    code = insn_corpus.encode(row.mnemonic, ops)
    assert code == Assembler()._ext(row.mnemonic, *ops).assemble()
    assert len(code) == row.length
    assert decode_one(code) == Instruction(row.mnemonic, ops, row.length)


def _text_operands(kinds: str, ops: tuple) -> list[str]:
    out, i = [], 0
    while i < len(kinds):
        k, v = kinds[i], ops[i]
        if kinds[i:i + 2] == "gd":
            disp = ops[i + 1]
            sign = "+" if disp >= 0 else "-"
            out.append(f"[{GPR_NAMES[v]}{sign}{abs(disp)}]")
            i += 2
            continue
        out.append(GPR_NAMES[v] if k == "g" else f"xmm{v}" if k == "x"
                   else f"gs:[{v}]" if k == "u" else str(v))
        i += 1
    return out


@pytest.mark.parametrize("row", EXT_ROWS, ids=_ROW_IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_row_text_form_assembles_like_the_builder(row, data):
    ops = data.draw(insn_corpus.operands(row.mnemonic))
    text = f"{row.text} {', '.join(_text_operands(row.kinds, ops))}"
    assert assemble_text(text).assemble() == insn_corpus.encode(
        row.mnemonic, ops), text
