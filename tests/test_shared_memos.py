"""Process-wide memos: the blob page and the content-keyed decode memo.

``build_blobs`` and ``decode_cached`` are shared by every machine in the
process.  Both are sound only because what they memoise is a pure value
of the key; these tests pin the cases that would expose a memo keyed on
too little (a different configuration, a patched site) or holding state
that belongs to one machine (a CPU's cost model).
"""

from __future__ import annotations

import pytest

from repro.arch import decode
from repro.arch.decode import decode_cached
from repro.arch.encode import Assembler
from repro.arch.isa import Mnemonic
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
