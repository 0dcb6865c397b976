"""Process-wide memos: the blob page, decodes and xstate areas.

``build_blobs``, ``decode_cached`` and the two xstate memos behind
``xsave_serialize``/``xrstor_apply`` are shared by every machine in the
process.  Each is sound only because what it memoises is a pure value of
the key; these tests pin the cases that would expose a memo keyed on too
little (a different configuration, a patched site, another component
mask, an edited area) or holding state that belongs to one machine (a
CPU's cost model, a register file's lists).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import decode
from repro.arch.decode import decode_cached
from repro.arch.encode import Assembler
from repro.arch.isa import Mnemonic
from repro.arch.registers import RegisterFile, XComponent
from repro.cpu import core
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
from repro.cpu.costs import DEFAULT_INSN_COSTS, CostModel
from repro.errors import InvalidOpcode
from repro.interpose.api import TraceInterposer
from repro.interpose.lazypoline import Lazypoline
from repro.interpose.lazypoline.asmblobs import build_blobs
from repro.kernel.machine import Machine
from repro.mem.pages import Perm

from tests.conftest import asm, emit_exit, emit_syscall, finish, hello_image
from tests.test_translation_cache import CODE, bare, run_until_hlt

BLOB_ARGS = dict(generic_hcall=0, sigsys_hcall=1, wrap_pre_hcall=2,
                 preserve_xstate=True)


# ------------------------------------------------------------ build_blobs
def test_build_blobs_returns_the_memoised_page():
    page = build_blobs(**BLOB_ARGS)
    assert build_blobs(**BLOB_ARGS) is page
    assert isinstance(page.code, bytes)


@pytest.mark.parametrize("change", [
    {"preserve_xstate": False},
    {"pkey_protected": True},
    {"base": 0x1000_0000},
])
def test_build_blobs_keys_on_every_argument(change):
    page = build_blobs(**BLOB_ARGS)
    other = build_blobs(**{**BLOB_ARGS, **change})
    assert other is not page
    assert other != page


def test_fresh_machines_share_one_blob_page():
    tools = []
    for _ in range(2):
        machine = Machine()
        proc = machine.load(hello_image())
        tools.append(Lazypoline._install(machine, proc, TraceInterposer()))
    assert tools[0].blobs is tools[1].blobs


# ---------------------------------------------------------- decode memo
def test_failed_decode_is_not_memoised():
    window = b"\x48\x3c\x10"  # rdpkru r16: register field out of range
    for addr in (0x1000, 0x2000):
        with pytest.raises(InvalidOpcode) as exc:
            decode_cached(window, addr)
        assert exc.value.address == addr
    assert window not in decode._decoded


def test_patched_site_decodes_new_bytes_after_another_machine_memoised_old():
    """Machine A memoises ``inc rbx`` at ``target``; machine B runs the same
    bytes, patches the site to nops and must execute the nops."""
    a = Assembler(base=CODE)
    a.label("_start")
    a.mov_imm("r8", "target")
    a.mov_imm("r9", 0x90)
    a.mov_imm("rcx", 0)
    a.label("target")
    a.inc("rbx")
    a.cmpi("rcx", 1)
    a.jz("done")
    a.inc("rcx")
    a.store8("r8", 0, "r9")
    a.store8("r8", 1, "r9")
    a.store8("r8", 2, "r9")
    a.jmp("target")
    a.label("done")
    a.hlt()
    code = a.assemble()
    decode._decoded.clear()

    cpu_a, task_a, _ = bare(code)
    for _ in range(4):  # the three mov_imms, then the inc at target
        cpu_a.step(task_a)
    assert task_a.regs.read_name("rbx") == 1
    at = a.address_of("target") - CODE
    nops = b"\x90" * 3 + code[at + 3:at + 10]  # the window after the patch
    assert nops not in decode._decoded  # only the old bytes are memoised

    cpu_b, task_b, env_b = bare(code, perm=Perm.RWX)
    run_until_hlt(cpu_b, task_b, env_b)
    assert task_b.regs.read_name("rbx") == 1  # the second pass ran nops
    assert decode._decoded[nops].mnemonic is Mnemonic.NOP


def _sled_loop_image():
    """One getpid site run four times: three trips down the nop sled."""
    a = asm()
    a.label("_start")
    a.mov_imm("rbx", 4)
    a.label("loop")
    emit_syscall(a, "getpid")
    a.dec("rbx")
    a.jnz("loop")
    emit_exit(a, 5)
    return finish(a, "sled-loop")


def _lazypoline_clock(costs: CostModel) -> int:
    machine = Machine(costs)
    proc = machine.load(_sled_loop_image())
    Lazypoline._install(machine, proc, TraceInterposer())
    assert machine.run_process(proc) == 5
    return machine.clock


def test_machines_with_different_cost_models_share_decodes():
    """Shared decodes carry no cost: each machine charges its own model."""
    slow_nops = {**DEFAULT_INSN_COSTS,
                 Mnemonic.NOP: 2 * DEFAULT_INSN_COSTS[Mnemonic.NOP]}
    models = {"default": CostModel,
              "slow_nops": lambda: CostModel(insn_costs=slow_nops)}
    alone = {}
    for name, make in models.items():
        decode._decoded.clear()
        alone[name] = _lazypoline_clock(make())
    assert alone["default"] != alone["slow_nops"]  # the sled's nops count
    for order in (("default", "slow_nops"), ("slow_nops", "default")):
        decode._decoded.clear()
        for name in order:
            assert _lazypoline_clock(models[name]()) == alone[name], (order, name)


# ------------------------------------------------------------ xstate memos
_COMPONENTS = ((2, XSAVE_XMM_OFF, "xmm", 16), (4, XSAVE_YMM_OFF, "ymm_high", 16),
               (1, XSAVE_X87_OFF, "x87", 8))


def _reference_save(regs, bits: int) -> bytes:
    """The xsave area written field by field, with no memo."""
    area = bytearray(XSAVE_AREA_SIZE)
    area[XSAVE_MASK_OFF:XSAVE_MASK_OFF + 8] = bits.to_bytes(8, "little")
    for bit, off, name, width in _COMPONENTS:
        if bits & bit:
            for i, value in enumerate(getattr(regs, name)):
                start = off + width * i
                area[start:start + width] = value.to_bytes(width, "little")
    if bits & 1:
        area[XSAVE_TOP_OFF] = regs.x87_top
    return bytes(area)


def _reference_restore(regs, area: bytes) -> None:
    """Restore the selected components field by field, with no memo."""
    bits = int.from_bytes(area[XSAVE_MASK_OFF:XSAVE_MASK_OFF + 8], "little")
    for bit, off, name, width in _COMPONENTS:
        if bits & bit:
            values = getattr(regs, name)
            for i in range(len(values)):
                start = off + width * i
                values[i] = int.from_bytes(area[start:start + width], "little")
    if bits & 1:
        regs.x87_top = area[XSAVE_TOP_OFF]


def _xstate(regs):
    return (list(regs.xmm), list(regs.ymm_high), list(regs.x87), regs.x87_top)


@st.composite
def _register_files(draw):
    regs = RegisterFile()
    regs.xmm[:] = draw(st.lists(st.integers(0, 2**128 - 1), min_size=16,
                                max_size=16))
    regs.ymm_high[:] = draw(st.lists(st.integers(0, 2**128 - 1), min_size=16,
                                     max_size=16))
    regs.x87[:] = draw(st.lists(st.integers(0, 2**64 - 1), min_size=8,
                                max_size=8))
    regs.x87_top = draw(st.integers(0, 8))
    return regs


@pytest.fixture
def empty_xstate_memos():
    core._saved.clear()
    core._restored.clear()
    yield
    core._saved.clear()
    core._restored.clear()


@settings(max_examples=60, deadline=None)
@given(regs=_register_files(), before=_register_files(),
       masks=st.lists(st.integers(0, 7), min_size=2, max_size=6))
def test_xstate_memos_match_an_unmemoised_reference(regs, before, masks):
    """Every mask, saved and restored twice (a miss, then a hit), gives
    the reference bytes and the reference register state; one register
    state saved under several masks never returns another mask's area."""
    for bits in masks + masks:
        area = xsave_serialize(regs, XComponent(bits))
        assert area == _reference_save(regs, bits), bits
        got, want = RegisterFile(), RegisterFile()
        for target in (got, want):
            target.xmm[:] = before.xmm
            target.ymm_high[:] = before.ymm_high
            target.x87[:] = before.x87
            target.x87_top = before.x87_top
        xrstor_apply(got, area)
        _reference_restore(want, area)
        assert _xstate(got) == _xstate(want), bits


def test_restore_leaves_unselected_components_untouched(empty_xstate_memos):
    regs = RegisterFile()
    regs.xmm[:] = range(1, 17)
    regs.ymm_high[:] = range(100, 116)
    regs.x87[:] = range(200, 208)
    regs.x87_top = 3
    area = xsave_serialize(regs, XComponent.SSE)
    for _ in range(2):  # a miss, then a hit
        other = RegisterFile()
        other.ymm_high[5] = 0xABC
        other.x87[2] = 0xDEF
        other.x87_top = 6
        xrstor_apply(other, area)
        assert other.xmm == regs.xmm
        assert other.ymm_high == [0] * 5 + [0xABC] + [0] * 10
        assert other.x87 == [0, 0, 0xDEF] + [0] * 5
        assert other.x87_top == 6


def test_guest_edited_area_restores_the_edited_bytes(empty_xstate_memos):
    """xsave, a store into the saved xmm0 slot, xrstor: the restore sees
    the edit although the unedited area is memoised."""
    a = Assembler(base=CODE)
    a.mov_imm("rsi", 0x8000)
    a.xsave("rsi", 0)
    a.xrstor("rsi", 0)  # memoises the unedited area
    a.mov_imm("rax", 0x1122334455667788)
    a.store("rsi", XSAVE_XMM_OFF, "rax")
    a.xrstor("rsi", 0)
    a.hlt()
    cpu, task, env = bare(a.assemble())
    task.regs.xmm[0] = 7 << 64 | 5
    run_until_hlt(cpu, task, env)
    assert task.regs.xmm[0] == 7 << 64 | 0x1122334455667788
    saved = task.mem.read(0x8000, XSAVE_AREA_SIZE)
    assert saved in core._restored  # both areas went through the memo


@pytest.mark.parametrize("top", [8, 9, 0x80, 0xFF])
def test_out_of_range_x87_top_byte_restores_as_is(top, empty_xstate_memos):
    """A top byte past the 8-slot stack is restored raw, round-trips, and
    the next push and pop wrap it exactly as the reference does."""
    regs = RegisterFile()
    regs.x87[:] = range(1, 9)
    area = bytearray(xsave_serialize(regs, XComponent.X87))
    area[XSAVE_TOP_OFF] = top
    area = bytes(area)
    for _ in range(2):
        got, want = RegisterFile(), RegisterFile()
        xrstor_apply(got, area)
        _reference_restore(want, area)
        assert _xstate(got) == _xstate(want)
        assert got.x87_top == top
        assert xsave_serialize(got, XComponent.X87) == area
        got.x87_push(0x55)
        want.x87_push(0x55)
        assert (got.x87_pop(), _xstate(got)) == (want.x87_pop(), _xstate(want))


def test_xstate_memos_clear_at_capacity(empty_xstate_memos):
    cap = core._XSTATE_CAPACITY
    assert cap <= 256
    regs = RegisterFile()
    for i in range(cap):
        regs.xmm[0] = i
        xrstor_apply(RegisterFile(), xsave_serialize(regs, XComponent.SSE))
    assert len(core._saved) == len(core._restored) == cap
    regs.xmm[0] = cap
    area = xsave_serialize(regs, XComponent.SSE)
    fresh = RegisterFile()
    xrstor_apply(fresh, area)
    assert len(core._saved) == len(core._restored) == 1
    assert fresh.xmm[0] == cap


def test_register_files_never_share_a_list(empty_xstate_memos):
    """Two restores of one memoised area fill each register file's own
    lists; writing one changes neither the other nor the memo."""
    regs = RegisterFile()
    regs.xmm[:] = range(16)
    regs.ymm_high[:] = range(16, 32)
    regs.x87[:] = range(32, 40)
    area = xsave_serialize(regs, XComponent.all())
    a, b = RegisterFile(), RegisterFile()
    lists = [(r.xmm, r.ymm_high, r.x87) for r in (a, b)]
    xrstor_apply(a, area)
    xrstor_apply(b, area)
    for r, own in zip((a, b), lists):
        assert (r.xmm, r.ymm_high, r.x87) == (regs.xmm, regs.ymm_high, regs.x87)
        assert all(x is y for x, y in zip((r.xmm, r.ymm_high, r.x87), own))
    a.write_xmm(0, 0xAA)
    a.ymm_high[1] = 0xBB
    a.x87_push(0xCC)
    assert (b.xmm[0], b.ymm_high[1], b.x87[7]) == (0, 17, 39)
    c = RegisterFile()
    xrstor_apply(c, area)
    assert _xstate(c) == _xstate(b)
