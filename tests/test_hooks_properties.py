"""Property tests on CPU hooks and xstate serialization."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.arch.decode import decode_one
from repro.arch.isa import MAX_INSN_LEN
from repro.arch.registers import RegisterFile, XComponent
from repro.cpu.core import (
    XSAVE_AREA_SIZE,
    XSAVE_MASK_OFF,
    XSAVE_TOP_OFF,
    XSAVE_X87_OFF,
    XSAVE_XMM_OFF,
    XSAVE_YMM_OFF,
    xrstor_apply,
    xsave_serialize,
)
from repro.cpu.hooks import reg_effects
from repro.errors import InvalidOpcode


@given(st.binary(min_size=1, max_size=MAX_INSN_LEN))
def test_reg_effects_total_over_decodable_instructions(blob):
    """Every instruction the decoder accepts has defined register effects."""
    try:
        insn = decode_one(blob)
    except InvalidOpcode:
        return
    reads, writes = reg_effects(insn)
    for regid in reads | writes:
        assert regid[0] in ("g", "x", "y", "st")
        if regid[0] != "st":
            assert 0 <= regid[1] < 16


@st.composite
def register_files(draw):
    regs = RegisterFile()
    regs.gpr[:] = draw(
        st.lists(st.integers(0, 2**64 - 1), min_size=16, max_size=16)
    )
    regs.xmm[:] = draw(
        st.lists(st.integers(0, 2**128 - 1), min_size=16, max_size=16)
    )
    regs.ymm_high[:] = draw(
        st.lists(st.integers(0, 2**128 - 1), min_size=16, max_size=16)
    )
    regs.x87[:] = draw(
        st.lists(st.integers(0, 2**64 - 1), min_size=8, max_size=8)
    )
    regs.x87_top = draw(st.integers(0, 8))
    return regs


@given(register_files())
def test_xsave_area_roundtrip_full(regs):
    area = xsave_serialize(regs, XComponent.all())
    assert len(area) == XSAVE_AREA_SIZE
    fresh = RegisterFile()
    xrstor_apply(fresh, area)
    assert fresh.xmm == regs.xmm
    assert fresh.ymm_high == regs.ymm_high
    assert fresh.x87 == regs.x87
    assert fresh.x87_top == regs.x87_top


def _reference_area(regs, bits: int) -> bytes:
    """The xsave area written field by field at the documented offsets."""
    area = bytearray(XSAVE_AREA_SIZE)
    area[XSAVE_MASK_OFF:XSAVE_MASK_OFF + 8] = bits.to_bytes(8, "little")
    for bit, off, values, width in ((2, XSAVE_XMM_OFF, regs.xmm, 16),
                                    (4, XSAVE_YMM_OFF, regs.ymm_high, 16),
                                    (1, XSAVE_X87_OFF, regs.x87, 8)):
        if bits & bit:
            for i, value in enumerate(values):
                start = off + width * i
                area[start:start + width] = value.to_bytes(width, "little")
    if bits & 1:
        area[XSAVE_TOP_OFF] = regs.x87_top
    return bytes(area)


@given(register_files(), st.integers(0, 7))
def test_xsave_area_layout(regs, bits):
    """Every component mask serializes to the documented byte layout, and
    restoring it loads exactly the selected components."""
    area = xsave_serialize(regs, XComponent(bits))
    assert area == _reference_area(regs, bits)
    fresh = RegisterFile()
    xrstor_apply(fresh, area)
    empty = RegisterFile()
    assert fresh.xmm == (regs.xmm if bits & 2 else empty.xmm)
    assert fresh.ymm_high == (regs.ymm_high if bits & 4 else empty.ymm_high)
    assert fresh.x87 == (regs.x87 if bits & 1 else empty.x87)
    assert fresh.x87_top == (regs.x87_top if bits & 1 else empty.x87_top)


@given(register_files())
def test_xsave_partial_mask_restores_only_selected(regs):
    area = xsave_serialize(regs, XComponent.SSE)
    fresh = RegisterFile()
    fresh.x87[0] = 0x1234
    xrstor_apply(fresh, area)
    assert fresh.xmm == regs.xmm  # SSE restored
    assert fresh.x87[0] == 0x1234  # x87 untouched


@given(register_files())
def test_snapshot_restore_roundtrip(regs):
    snap = regs.snapshot_xstate(XComponent.all())
    clobbered = regs.copy()
    clobbered.xmm[:] = [0] * 16
    clobbered.x87[:] = [0] * 8
    clobbered.restore_xstate(snap)
    assert clobbered.xmm == regs.xmm
    assert clobbered.x87 == regs.x87


@given(register_files())
def test_register_file_copy_is_deep(regs):
    clone = regs.copy()
    clone.gpr[0] = (regs.gpr[0] + 1) % 2**64
    clone.xmm[5] ^= 1
    assert regs.gpr[0] != clone.gpr[0]
    assert regs.xmm[5] != clone.xmm[5]


def test_syscall_effects_match_abi():
    from repro.arch.encode import Assembler

    a = Assembler()
    a.syscall()
    insn = decode_one(a.assemble())
    reads, writes = reg_effects(insn)
    read_idx = {r[1] for r in reads}
    write_idx = {w[1] for w in writes}
    assert {0, 7, 6, 2, 10, 8, 9} <= read_idx  # rax + six args
    assert write_idx == {0, 1, 11}  # rax, rcx, r11
