"""Property-based tests: CPU arithmetic matches two's-complement semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from insn_corpus import CODE as CORPUS_CODE, LAYOUT, cases, machine
from repro.arch.encode import Assembler
from repro.arch.isa import Mnemonic
from repro.arch.registers import MASK64, to_signed, to_unsigned
from repro.cpu.core import BareTask, CPU, NullEnvironment
from repro.mem.address_space import AddressSpace
from repro.mem.pages import PAGE_SIZE, Perm

CODE = 0x1000
STACK = 0x8000

u64 = st.integers(min_value=0, max_value=MASK64)


def run_snippet(build, init_regs=()):
    mem = AddressSpace()
    a = Assembler(base=CODE)
    build(a)
    a.hlt()
    code = a.assemble()
    size = (len(code) + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
    mem.map(CODE, size, Perm.RX)
    mem.write(CODE, code, check=None)
    mem.map(STACK, PAGE_SIZE, Perm.RW)
    env = NullEnvironment()
    cpu = CPU(env)
    task = BareTask(mem)
    task.regs.rip = CODE
    task.regs.write_name("rsp", STACK + PAGE_SIZE)
    for name, value in init_regs:
        task.regs.write_name(name, value)
    for _ in range(10_000):
        if env.halted:
            break
        cpu.step(task)
    assert env.halted
    return task.regs


@given(u64, u64)
def test_add_matches_model(a, b):
    regs = run_snippet(lambda asm: asm.add("rax", "rbx"),
                       [("rax", a), ("rbx", b)])
    assert regs.read_name("rax") == (a + b) & MASK64


@given(u64, u64)
def test_sub_matches_model(a, b):
    regs = run_snippet(lambda asm: asm.sub("rax", "rbx"),
                       [("rax", a), ("rbx", b)])
    assert regs.read_name("rax") == (a - b) & MASK64


@given(u64, u64)
def test_imul_matches_signed_model(a, b):
    regs = run_snippet(lambda asm: asm.imul("rax", "rbx"),
                       [("rax", a), ("rbx", b)])
    assert regs.read_name("rax") == (to_signed(a) * to_signed(b)) & MASK64


@given(u64, u64)
def test_xor_and_or(a, b):
    regs = run_snippet(
        lambda asm: (asm.mov("rcx", "rax"), asm.xor("rcx", "rbx"),
                     asm.mov("rdx", "rax"), asm.and_("rdx", "rbx"),
                     asm.or_("rax", "rbx")),
        [("rax", a), ("rbx", b)],
    )
    assert regs.read_name("rcx") == a ^ b
    assert regs.read_name("rdx") == a & b
    assert regs.read_name("rax") == a | b


@given(u64, st.integers(min_value=0, max_value=63))
def test_shifts_match_model(a, count):
    regs = run_snippet(
        lambda asm: (asm.mov("rbx", "rax"), asm.shl("rax", count),
                     asm.shr("rbx", count)),
        [("rax", a)],
    )
    assert regs.read_name("rax") == (a << count) & MASK64
    assert regs.read_name("rbx") == a >> count


@given(u64, u64)
def test_cmp_sets_signed_flags(a, b):
    regs = run_snippet(lambda asm: asm.cmp("rax", "rbx"),
                       [("rax", a), ("rbx", b)])
    assert regs.zf == (to_signed(a) == to_signed(b))
    assert regs.lt == (to_signed(a) < to_signed(b))


@given(u64)
def test_push_pop_roundtrip(value):
    regs = run_snippet(
        lambda asm: (asm.push("rax"), asm.mov_imm("rax", 0), asm.pop("rbx")),
        [("rax", value)],
    )
    assert regs.read_name("rbx") == value


@given(u64, st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_addi_sign_extends(a, imm):
    regs = run_snippet(lambda asm: asm.addi("rax", imm), [("rax", a)])
    assert regs.read_name("rax") == (a + imm) & MASK64


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_signed_conversions_roundtrip(value):
    assert to_signed(to_unsigned(value)) == value


@given(u64, st.integers(min_value=0, max_value=PAGE_SIZE - 16))
def test_store_load_roundtrip(value, offset):
    regs = run_snippet(
        lambda asm: (asm.mov_imm("rbx", STACK), asm.store("rbx", offset, "rax"),
                     asm.load("rcx", "rbx", offset)),
        [("rax", value)],
    )
    assert regs.read_name("rcx") == value


#: Independent model of every flag-setting ALU op: result of ``(a, b)``
#: with ``b`` the source register, the sign-extended immediate or the
#: shift count as decoded.
_ALU_MODEL = {
    Mnemonic.ADD: lambda a, b: a + b,
    Mnemonic.SUB: lambda a, b: a - b,
    Mnemonic.AND: lambda a, b: a & b,
    Mnemonic.OR: lambda a, b: a | b,
    Mnemonic.XOR: lambda a, b: a ^ b,
    Mnemonic.IMUL: lambda a, b: to_signed(a) * to_signed(b),
    Mnemonic.ADDI: lambda a, b: a + b,
    Mnemonic.SUBI: lambda a, b: a - b,
    Mnemonic.ANDI: lambda a, b: a & to_unsigned(b),
    Mnemonic.ORI: lambda a, b: a | to_unsigned(b),
    Mnemonic.XORI: lambda a, b: a ^ to_unsigned(b),
    Mnemonic.SHL: lambda a, b: a << (b & 63),
    Mnemonic.SHR: lambda a, b: a >> (b & 63),
    Mnemonic.INC: lambda a, b: a + 1,
    Mnemonic.DEC: lambda a, b: a - 1,
}


@pytest.mark.parametrize("m", list(_ALU_MODEL), ids=lambda m: m.value)
@settings(max_examples=40)
@given(data=st.data())
def test_alu_result_and_flags_match_model(m, data):
    """Every flag-setting ALU op leaves the modelled result in its
    destination and sets ``zf``/``lt`` from it, whatever they were."""
    ops, regs, seed = data.draw(cases(m))
    cpu, task, _env = machine(m, ops, regs, seed)
    a = regs.gpr[ops[0]]
    if len(ops) == 1:
        b = None
    elif LAYOUT[m][1] == "g":
        b = regs.gpr[ops[1]]
    else:
        b = ops[1]
    cpu.step(task)
    result = _ALU_MODEL[m](a, b) & MASK64
    assert task.regs.gpr[ops[0]] == result
    assert task.regs.zf == (result == 0)
    assert task.regs.lt == (to_signed(result) < 0)


_JCC_MODEL = {
    Mnemonic.JZ: lambda zf, lt: zf,
    Mnemonic.JNZ: lambda zf, lt: not zf,
    Mnemonic.JL: lambda zf, lt: lt,
    Mnemonic.JG: lambda zf, lt: not lt and not zf,
    Mnemonic.JGE: lambda zf, lt: not lt,
    Mnemonic.JLE: lambda zf, lt: lt or zf,
}


@pytest.mark.parametrize("m", list(_JCC_MODEL), ids=lambda m: m.value)
@settings(max_examples=40)
@given(data=st.data())
def test_jcc_takes_the_modelled_branch(m, data):
    ops, regs, seed = data.draw(cases(m))
    cpu, task, _env = machine(m, ops, regs, seed)
    cpu.step(task)
    nxt = CORPUS_CODE + 6  # jcc rel32
    taken = (nxt + ops[0]) & MASK64
    assert task.regs.rip == (taken if _JCC_MODEL[m](regs.zf, regs.lt) else nxt)
