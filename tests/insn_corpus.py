"""Every mnemonic's operand layout, an encoder for it, and Hypothesis
strategies that draw single instructions with full-range operands.

Shared by the single-instruction tier lockstep test and the
``reg_effects`` tests.  The layouts are written out here, independently
of the CPU's own instruction table, so the tests check that table rather
than restate it.

Operand kinds:

* ``g`` — a general purpose register (0..15),
* ``x`` — an xmm register (0..15),
* ``s32`` — a signed 32-bit immediate or displacement,
* ``u32`` — an unsigned 32-bit ``gs`` displacement,
* ``u8`` — a shift count (0..255),
* ``u64`` — a 64-bit immediate,
* ``rel`` — a signed 32-bit branch displacement,
* ``u16`` — a host-call id.
"""

from __future__ import annotations

import random
import struct

from hypothesis import strategies as st

from repro.arch.encode import Assembler
from repro.arch.isa import JCC32_OP, Mnemonic
from repro.arch.registers import RSP, RegisterFile
from repro.cpu.core import BareTask, CPU, NullEnvironment
from repro.mem.address_space import AddressSpace
from repro.mem.pages import PAGE_SIZE, Perm

M = Mnemonic

LAYOUT: dict[Mnemonic, tuple[str, ...]] = {
    **{m: () for m in (M.NOP, M.RET, M.HLT, M.INT3, M.SYSCALL, M.SYSENTER,
                       M.UD2, M.FLD1, M.FADDP)},
    **{m: ("g",) for m in (M.PUSH, M.POP, M.CALL_REG, M.JMP_REG, M.INC,
                           M.DEC, M.RDGSBASE, M.WRGSBASE, M.RDPKRU,
                           M.WRPKRU)},
    **{m: ("rel",) for m in (M.CALL_REL, M.JMP_REL, M.JZ, M.JNZ, M.JL,
                             M.JG, M.JGE, M.JLE)},
    M.MOV_IMM64: ("g", "u64"),
    **{m: ("g", "g") for m in (M.MOV, M.ADD, M.SUB, M.CMP, M.AND, M.OR,
                               M.XOR, M.IMUL)},
    M.SHL: ("g", "u8"),
    M.SHR: ("g", "u8"),
    **{m: ("g", "s32") for m in (M.ADDI, M.SUBI, M.CMPI, M.ANDI, M.ORI,
                                 M.XORI, M.FLD_MEM, M.FSTP_MEM, M.XSAVE,
                                 M.XRSTOR)},
    **{m: ("g", "g", "s32") for m in (M.LOAD, M.LOAD8, M.LEA)},
    **{m: ("g", "s32", "g") for m in (M.STORE, M.STORE8)},
    M.MOVQ_XG: ("x", "g"),
    M.MOVQ_GX: ("g", "x"),
    M.MOVUPS_LOAD: ("x", "g", "s32"),
    M.MOVUPS_STORE: ("g", "s32", "x"),
    **{m: ("x", "x") for m in (M.MOVAPS, M.PUNPCKLQDQ, M.XORPS, M.VADDPD)},
    **{m: ("g", "u32") for m in (M.GSLOAD, M.GSLOAD8)},
    **{m: ("u32", "g") for m in (M.GSSTORE, M.GSSTORE8)},
    M.GSJMP: ("u32",),
    M.GSWRPKRU: ("u32",),
    M.GSCOPY8: ("u32", "u32"),
    M.HCALL: ("u16",),
}
assert set(LAYOUT) == set(Mnemonic)

#: Mnemonics whose (only) memory address is ``base + disp``: operand index
#: of the base register and of the displacement.
BASE_DISP = {
    **{m: (1, 2) for m in (M.LOAD, M.LOAD8, M.MOVUPS_LOAD)},
    **{m: (0, 1) for m in (M.STORE, M.STORE8, M.MOVUPS_STORE, M.FLD_MEM,
                           M.FSTP_MEM, M.XSAVE, M.XRSTOR)},
}
#: ``gs``-relative mnemonics: operand indices of their displacements.
GS_DISP = {
    M.GSLOAD: (1,), M.GSLOAD8: (1,), M.GSSTORE: (0,), M.GSSTORE8: (0,),
    M.GSJMP: (0,), M.GSWRPKRU: (0,), M.GSCOPY8: (0, 1),
}
#: Mnemonics that touch memory at ``rsp``.
STACK = frozenset((M.PUSH, M.POP, M.RET, M.CALL_REG, M.CALL_REL))

_ASM_NAME = {M.MOV_IMM64: "mov_imm", M.AND: "and_", M.OR: "or_"}
_S32 = struct.Struct("<i")

CODE = 0x10000
DATA = 0x40000
DATA_PAGES = 2  # mapped RW; the page after them is unmapped
M64 = (1 << 64) - 1


def encode(m: Mnemonic, ops: tuple) -> bytes:
    """The bytes of ``m`` with ``ops`` (in decoder operand order)."""
    if m is M.JMP_REL:
        return b"\xe9" + _S32.pack(ops[0])
    if m is M.CALL_REL:
        return b"\xe8" + _S32.pack(ops[0])
    if m in JCC32_OP:
        return bytes((0x0F, JCC32_OP[m])) + _S32.pack(ops[0])
    a = Assembler(base=CODE)
    getattr(a, _ASM_NAME.get(m, m.value))(*ops)
    return a.assemble()


_KIND = {
    # rsp drawn often: push/pop/call must alias it right.
    "g": st.one_of(st.integers(0, 15), st.just(RSP)),
    "x": st.integers(0, 15),
    "s32": st.one_of(st.integers(-(1 << 31), (1 << 31) - 1),
                     st.integers(-64, 64)),
    "u32": st.integers(0, (1 << 32) - 1),
    "u8": st.integers(0, 255),
    "u64": st.one_of(st.integers(0, M64), st.integers(0, 0xFFFF)),
    "rel": st.integers(-(1 << 31), (1 << 31) - 1),
    "u16": st.integers(0, 0xFFFF),
}


def operands(m: Mnemonic):
    """Strategy: a full-range operand tuple for ``m``."""
    return st.tuples(*(_KIND[k] for k in LAYOUT[m]))


def register_files():
    """Strategy: a register file with full-range GPRs, flags and gs base
    (``rip`` is set by the caller).  The vector and x87 state comes from a
    drawn seed: full-range too, and far cheaper to draw."""
    u64 = st.integers(0, M64)

    def build(gpr, zf, lt, gs, seed):
        rng = random.Random(seed)
        return RegisterFile(
            gpr=gpr,
            xmm=[rng.getrandbits(128) for _ in range(16)],
            ymm_high=[rng.getrandbits(128) for _ in range(16)],
            x87=[rng.getrandbits(64) for _ in range(8)],
            x87_top=rng.randrange(9), zf=zf, lt=lt, gs_base=gs,
        )

    return st.builds(build, st.lists(u64, min_size=16, max_size=16),
                     st.booleans(), st.booleans(), u64,
                     st.integers(0, 1 << 32))


#: Where an aimed access lands, relative to ``DATA``: anywhere in the
#: mapped pages, or straddling into the unmapped page after them.
_AIM = st.one_of(
    st.integers(0, DATA_PAGES * PAGE_SIZE - 1),
    st.integers(DATA_PAGES * PAGE_SIZE - 16, DATA_PAGES * PAGE_SIZE - 1),
)


@st.composite
def cases(draw, m: Mnemonic):
    """Strategy: ``(ops, regs, seed)`` for one instruction of ``m``.

    Memory operands are aimed at the mapped data pages most of the time
    (the aim overrides the base register, ``rsp`` or ``gs_base``); the
    rest fault at a random full-range address.  ``seed`` fills the data
    pages.
    """
    ops = draw(operands(m))
    gprs = [i for i, k in enumerate(LAYOUT[m]) if k == "g"]
    if len(gprs) > 1 and draw(st.booleans()):  # ``d == s``
        ops = tuple(ops[gprs[0]] if i in gprs else v
                    for i, v in enumerate(ops))
    regs = draw(register_files())
    if draw(st.integers(0, 3)):
        target = DATA + draw(_AIM)
        if m in BASE_DISP:
            base, disp = BASE_DISP[m]
            regs.gpr[ops[base]] = (target - ops[disp]) & M64
        elif m in GS_DISP:
            regs.gs_base = (target - ops[GS_DISP[m][0]]) & M64
        elif m in STACK:
            regs.gpr[RSP] = target
    return ops, regs, draw(st.integers(0, 1 << 32))


def machine(m: Mnemonic, ops: tuple, regs: RegisterFile, seed: int):
    """A bare CPU and task about to run one ``m`` at ``CODE``."""
    return bare(encode(m, ops), regs, seed)


def bare(code: bytes, regs: RegisterFile | None, seed: int,
         perm: Perm = Perm.RX):
    """A bare CPU and task about to run ``code`` at ``CODE`` (a ``perm``
    page), with ``regs`` (default: all zero) and the data pages filled
    from ``seed``."""
    mem = AddressSpace()
    mem.map(CODE, PAGE_SIZE, perm)
    mem.write(CODE, code, check=None)
    mem.map(DATA, DATA_PAGES * PAGE_SIZE, Perm.RW)
    mem.write(DATA, random.Random(seed).randbytes(DATA_PAGES * PAGE_SIZE),
              check=None)
    env = NullEnvironment()
    task = BareTask(mem, regs.copy() if regs is not None else None)
    task.regs.rip = CODE
    return CPU(env), task, env


def memory(task) -> bytes:
    """The bytes of every mapped page the instruction may have touched."""
    mem = task.mem
    return (mem.read(CODE, PAGE_SIZE, check=None)
            + mem.read(DATA, DATA_PAGES * PAGE_SIZE, check=None))
