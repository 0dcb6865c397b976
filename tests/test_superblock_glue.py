"""Tier 2 on the interposer's glue: gs-relative memory ops, xsave/xrstor
and cut gating.

Lazypoline's fast path wraps every interposed syscall in gs-relative
selector and xstate-pointer traffic and brackets its hcall with
xsave/xrstor.  Tier 2 compiles those loads and stores like any other
memory access, and the xstate pair behind a guard on the task's xstate
component count, so each case below pins one way the compiled form could
drift from single-stepping: a gs store or xsave that patches code, a gs
load or xrstor that faults, a guard that must miss, and the hotness gate
on a run's cut variant.  Both tiers serve a one-page access inline from the
address space's page maps; the fallback-edge cases at the end run
accesses the inline path must miss three ways (uncached reference, tier-1
steps, compiled block) and compare everything.
"""

from __future__ import annotations

import pytest

from repro.arch.encode import Assembler
from repro.arch.isa import Mnemonic
from repro.arch.registers import XComponent
from repro.cpu.core import BareTask, CPU, NullEnvironment
from repro.cpu.superblock import HOT_THRESHOLD
from repro.workloads.runner import attach_mechanism
from repro.errors import PageFault
from repro.kernel.machine import Machine
from repro.kernel.signals import SIGSEGV
from repro.kernel.syscalls.table import NR
from repro.loader.image import image_from_assembler
from repro.mem.address_space import AddressSpace
from repro.mem.pages import PAGE_SIZE, Perm
from repro.obs.events import BLOCK_COMPILE, BLOCK_INVALIDATE, CACHE_INVALIDATE
from repro.obs.tracer import Tracer

from tests.conftest import asm, emit_exit, emit_syscall

pytestmark = pytest.mark.superblock

CODE = 0x1000
STACK = 0x8000
#: Never mapped: a gs base here makes every gs access fault.
UNMAPPED = 0x50000


def _bare(code: bytes, perm: Perm = Perm.RX):
    mem = AddressSpace()
    mem.map(CODE, PAGE_SIZE, perm)
    mem.write(CODE, code, check=None)
    mem.map(STACK, PAGE_SIZE, Perm.RW)
    env = NullEnvironment()
    cpu = CPU(env)
    task = BareTask(mem)
    task.regs.rip = CODE
    task.regs.write_name("rsp", STACK + PAGE_SIZE)
    return cpu, task, env


def _outcomes(image, **opts):
    """Run ``image`` with tiering off and on; assert every observable
    matches and return the tiered machine and process."""
    skip = {BLOCK_COMPILE, BLOCK_INVALIDATE, CACHE_INVALIDATE}
    out = {}
    for sb in (False, True):
        tracer = Tracer()
        machine = Machine(superblocks=sb, tracer=tracer, **opts)
        proc = machine.load(image)
        machine.run(until=lambda: not proc.task.alive,
                    max_instructions=1_000_000)
        regs = proc.task.regs
        out[sb] = (
            proc.exit_code,
            proc.term_signal,
            regs.rip,
            tuple(regs.gpr),
            machine.clock,
            machine.scheduler.total_instructions,
            [(e.ts, e.kind, e.tid, tuple(sorted(e.data.items())))
             for e in tracer.events if e.kind not in skip],
        )
    assert out[False] == out[True]
    return machine, proc


def _compiled_heads(mem, mnemonic):
    """Heads of the live compiled blocks whose first ``n`` instructions
    include ``mnemonic``."""
    return [
        head for head, b in mem.block_cache.blocks.items()
        if b.fn is not None and any(
            i.mnemonic is mnemonic
            for _, i in b.insns)
    ]


# ------------------------------------------------------------- gs stores
def test_gs_store_into_executable_page_side_exits():
    """A compiled gs store that overwrites the block's own upcoming code
    exits right after it instead of running the stale instructions."""
    a = Assembler(base=CODE)
    a.mov_imm("rcx", 0x9090909090909090)
    a.gsstore(0, "rcx")
    a.label("patch")
    for _ in range(8):
        a.inc("rbx")
    a.hlt()
    cpu, task, _ = _bare(a.assemble(), Perm.RWX)
    patch = a.address_of("patch")
    task.regs.gs_base = patch
    block = cpu.compile_superblock(task.mem, CODE, task)
    assert block.fn is not None and block.n == 10

    charged = []
    retired = block.fn(task, lambda _task, cycles: charged.append(cycles))

    assert retired == 2
    assert task.regs.rip == patch
    assert task.regs.read_name("rbx") == 0
    assert task.mem.read(patch, 8) == b"\x90" * 8
    assert CODE not in task.mem.block_cache.blocks
    costs = cpu._cost_table
    assert sum(charged) == (costs[Mnemonic.MOV_IMM64.op_index]
                            + costs[Mnemonic.GSSTORE.op_index])


def _gs_smc_image():
    """A hot loop whose gs store rewrites its own next 8 bytes every
    pass, alternating all-nops and ``inc rax`` padded with nops."""
    inc = Assembler().inc("rax").assemble()
    nops = b"\x90" * 8
    p1 = int.from_bytes(nops, "little")
    p2 = int.from_bytes((inc + nops)[:8], "little")
    a = asm()
    a.label("_start")
    emit_syscall(a, "mprotect", a.base, PAGE_SIZE, 7)
    a.mov_imm("r12", "patch")
    a.wrgsbase("r12")
    a.mov_imm("r13", p1)
    a.mov_imm("r15", p1 ^ p2)
    a.mov_imm("rax", 0)
    a.mov_imm("rbp", 40)
    a.label("loop")
    a.inc("rbx")
    a.gsstore(0, "r13")
    a.xor("r13", "r15")
    a.label("patch")
    for _ in range(8):
        a.nop()
    a.dec("rbp")
    a.jnz("loop")
    a.mov("rdi", "rax")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    return image_from_assembler("gs-smc", a, entry="_start",
                                text_perm=Perm.RWX)


def test_gs_store_smc_loop_matches_single_step():
    machine, proc = _outcomes(_gs_smc_image())
    assert proc.exit_code == 20  # every other pass ran the patched inc
    stats = machine.superblock_stats()
    assert stats["compiled"] >= 1 and stats["invalidated"] >= 1


# -------------------------------------------------------------- gs loads
def _gs_load_code():
    a = Assembler(base=CODE)
    a.inc("rbx")
    a.inc("rbx")
    a.label("load")
    a.gsload("rax", 8)
    a.inc("rbx")
    a.hlt()
    return a.assemble(), a.address_of("load")


def test_gs_load_fault_in_block_charges_like_single_step():
    """A faulting gs load inside a block rewinds rip to the load and
    charges exactly the instructions single-stepping retires."""
    code, load = _gs_load_code()

    cpu, task, env = _bare(code)
    task.regs.gs_base = UNMAPPED
    with pytest.raises(PageFault) as stepped:
        while True:
            addr = task.regs.rip
            cpu.step(task)
    assert addr == load

    cpu2, task2, _ = _bare(code)
    task2.regs.gs_base = UNMAPPED
    block = cpu2.compile_superblock(task2.mem, CODE, task2)
    assert block.fn is not None and block.n == 4
    charged = []
    with pytest.raises(PageFault) as compiled:
        block.fn(task2, lambda _task, cycles: charged.append(cycles))

    assert task2.sb_fault == 3
    assert task2.regs.rip == load
    assert sum(charged) == env.cycles
    assert compiled.value.address == stepped.value.address == UNMAPPED + 8
    assert task2.regs.read_name("rbx") == task.regs.read_name("rbx") == 2


def test_gs_load_fault_in_hot_loop_matches_single_step():
    """The gs page is unmapped under a hot loop: the next gs load faults
    inside the compiled loop block, with the same SIGSEGV, rip and cycles
    as single-stepping."""
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, PAGE_SIZE, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.wrgsbase("r12")
    a.mov_imm("rbp", 60)
    a.label("loop")
    a.inc("rbx")
    a.inc("rbx")
    a.gsload("rdx", 16)
    a.add("r8", "rdx")
    a.dec("rbp")
    a.cmpi("rbp", 10)
    a.jnz("next")
    a.mov("rdi", "r12")
    a.mov_imm("rsi", PAGE_SIZE)
    a.mov_imm("rax", NR["munmap"])
    a.syscall()
    a.label("next")
    a.cmpi("rbp", 0)
    a.jnz("loop")
    emit_exit(a, 0)
    image = image_from_assembler("gs-fault", a, entry="_start")

    machine, proc = _outcomes(image)
    assert proc.term_signal == SIGSEGV
    assert proc.task.regs.rip == a.address_of("loop") + 2 * len(
        Assembler().inc("rbx").assemble())
    mem = proc.task.mem
    head = a.address_of("loop")
    assert head in _compiled_heads(mem, Mnemonic.GSLOAD)
    assert mem.block_cache.blocks[head].runs >= 16


# ------------------------------------------------------------- xsave/xrstor
def _xrstor_code():
    a = Assembler(base=CODE)
    a.inc("rbx")
    a.inc("rbx")
    a.label("xrstor")
    a.xrstor("rsi", 0)
    a.inc("rbx")
    a.hlt()
    return a.assemble(), a.address_of("xrstor")


def test_xrstor_fault_in_block_charges_like_single_step():
    """An xrstor from an unmapped area faults inside the compiled block:
    rip rewinds to it and the charge is exactly what single-stepping
    retires, the xrstor's own xstate cost included."""
    code, xrstor = _xrstor_code()

    cpu, task, env = _bare(code)
    task.regs.write_name("rsi", UNMAPPED)
    with pytest.raises(PageFault) as stepped:
        while True:
            addr = task.regs.rip
            cpu.step(task)
    assert addr == xrstor

    cpu2, task2, _ = _bare(code)
    task2.regs.write_name("rsi", UNMAPPED)
    block = cpu2.compile_superblock(task2.mem, CODE, task2)
    assert block.fn is not None and block.n == 4
    charged = []
    with pytest.raises(PageFault) as compiled:
        block.fn(task2, lambda _task, cycles: charged.append(cycles))

    assert task2.sb_fault == 3
    assert task2.regs.rip == xrstor
    assert sum(charged) == env.cycles
    assert compiled.value.address == stepped.value.address == UNMAPPED
    assert task2.regs.read_name("rbx") == task.regs.read_name("rbx") == 2


def test_xsave_into_executable_page_side_exits():
    """A compiled xsave whose area overwrites the block's own upcoming
    code exits right after it instead of running the stale instructions."""
    a = Assembler(base=CODE)
    a.mov_imm("rcx", 1)
    a.xsave("rsi", 0)
    a.label("patch")
    for _ in range(8):
        a.inc("rbx")
    a.hlt()
    cpu, task, _ = _bare(a.assemble(), Perm.RWX)
    patch = a.address_of("patch")
    task.regs.write_name("rsi", patch)
    block = cpu.compile_superblock(task.mem, CODE, task)
    assert block.fn is not None and block.n == 10

    charged = []
    retired = block.fn(task, lambda _task, cycles: charged.append(cycles))

    assert retired == 2
    assert task.regs.rip == patch
    assert task.regs.read_name("rbx") == 0
    assert task.mem.read(patch, 8) == (7).to_bytes(8, "little")  # mask word
    assert CODE not in task.mem.block_cache.blocks
    assert sum(charged) == (cpu._cost_table[Mnemonic.MOV_IMM64.op_index]
                            + cpu.costs.xsave_cost(3))


def _xstate_pair_code():
    a = Assembler(base=CODE)
    a.mov_imm("rsi", STACK)
    a.inc("rbx")
    a.label("xsave")
    a.xsave("rsi", 0)
    a.xrstor("rsi", 0)
    a.inc("rbx")
    a.label("end")
    a.hlt()
    return a.assemble(), a.address_of("xsave"), a.address_of("end")


@pytest.mark.parametrize("mask", [XComponent.all(), XComponent.SSE,
                                  XComponent.X87 | XComponent.AVX,
                                  XComponent.none()])
def test_block_compiled_for_one_component_set_never_charges_another(mask):
    """A block specialised on all three components, run by a task with
    ``mask``: a different count misses the guard before the xsave, having
    charged only what retired, and single-stepping the rest charges that
    count's own cost — so the total always equals single-stepping."""
    code, xsave, end = _xstate_pair_code()

    cpu, task, env = _bare(code)
    task.xsave_mask = mask
    while not env.halted:
        cpu.step(task)
    stepped_state = (task.regs.rip, task.regs.read_name("rbx"),
                     task.mem.read(STACK, 16))

    cpu2, task2, env2 = _bare(code)
    block = cpu2.compile_superblock(task2.mem, CODE, BareTask(task2.mem))
    assert block.n == 5
    task2.xsave_mask = mask
    charged = []
    retired = block.fn(task2, lambda _task, cycles: charged.append(cycles))
    hit = task2.xsave_components == 3
    assert retired == (5 if hit else 2)
    assert task2.regs.rip == (end if hit else xsave)
    assert sum(charged) == (block.cost if hit else 2)
    while not env2.halted:
        cpu2.step(task2)
    assert sum(charged) + env2.cycles == env.cycles
    assert (task2.regs.rip, task2.regs.read_name("rbx"),
            task2.mem.read(STACK, 16)) == stepped_state


# ------------------------------------------------------------ cut variants
def _loop_image(body: int, iters: int = 1_000_000):
    """``iters`` passes of a loop of ``body`` incs plus dec/jnz."""
    a = asm()
    a.label("_start")
    a.mov_imm("rbp", iters)
    a.label("loop")
    for _ in range(body):
        a.inc("rbx")
    a.dec("rbp")
    a.jnz("loop")
    emit_exit(a, 0)
    return image_from_assembler("cut", a, entry="_start"), a


def test_cut_variant_compiles_only_when_hot():
    """A run's cut variant is compiled on the run's HOT_THRESHOLD-th cut,
    not before, and every cut of the run counts toward it — slices that
    overrun the block at its head and slices resuming inside it alike.
    Until then each cut single-steps."""
    image, a = _loop_image(10)
    machine = Machine()
    proc = machine.load(image)
    task = proc.task
    head = a.address_of("loop")
    cpu = machine.kernel.cpu
    block = cpu.compile_superblock(task.mem, head, task)
    assert block.fn is not None and block.n == 12
    inner = block.insns[5][0]
    assert task.mem.block_cache.interior[inner] == (block, 5)
    base = machine.superblock_stats()["compiled"]
    sched = machine.scheduler
    for i in range(HOT_THRESHOLD - 1):
        task.regs.rip = head if i % 2 else inner
        assert sched.run_task_slice(task, quantum=3) == 3
        assert block.cut is None and block.cuts == i + 1
        assert machine.superblock_stats()["compiled"] == base
    task.regs.rip = head
    assert sched.run_task_slice(task, quantum=3) == 3
    stats = machine.superblock_stats()
    assert stats["compiled"] == base + 1 and stats["cut_compiled"] == 1
    assert block.cut is not None
    assert (block.cut_runs, block.cut_insns, block.runs) == (1, 3, 0)
    assert stats["cut_runs"] == 1 and stats["block_insns"] == 3
    assert all(type(k) is int for k in task.mem.block_cache.blocks)
    # A slice resuming inside the run enters the variant there.
    task.regs.rip = inner
    assert sched.run_task_slice(task, quantum=4) == 4
    assert task.regs.rip == block.insns[9][0]
    assert (block.cut_runs, block.cut_insns) == (2, 7)


def test_code_write_drops_the_runs_cut_and_interior_entries():
    """A write into a run's page drops the block with its cut variant and
    every interior entry, so a slice resuming inside the old run steps
    the new bytes instead of entering stale compiled code."""
    image, a = _loop_image(10)
    machine = Machine()
    proc = machine.load(image)
    task = proc.task
    mem = task.mem
    head = a.address_of("loop")
    cpu = machine.kernel.cpu
    block = cpu.compile_superblock(mem, head, task)
    cpu.compile_superblock(mem, head, task)
    assert block.cut is not None
    inner = block.insns[5][0]
    interior = mem.block_cache.interior
    assert {addr for addr, _ in block.insns[1:]} <= interior.keys()
    dec = Assembler().dec("rbx").assemble()
    mem.write(inner, dec, check=None)  # inc rbx -> dec rbx
    assert head not in mem.block_cache.blocks
    assert not interior
    task.regs.rip = inner
    task.regs.write_name("rbx", 5)
    assert machine.scheduler.run_task_slice(task, quantum=1) == 1
    assert task.regs.read_name("rbx") == 4


@pytest.mark.parametrize("quantum", [5, 7, 13])
def test_cut_variants_keep_cycles_identical(quantum):
    """Quanta that keep cutting the loop block: its cut variant compiles,
    runs, and every observable matches single-stepping; no block cache
    holds a second compiled entry for the run."""
    image, a = _loop_image(10, iters=400)
    machine, proc = _outcomes(image, quantum=quantum)
    assert proc.exit_code == 0
    blocks = proc.task.mem.block_cache.blocks
    loop = blocks[a.address_of("loop")]
    assert loop.cut is not None and loop.cut_runs
    addrs = {addr for addr, _ in loop.insns}
    assert not [h for h, b in blocks.items()
                if b.fn is not None and b is not loop and h in addrs]


# ------------------------------------------------------------ fallback edges
def _three_ways(code, prepare, perm=Perm.RX):
    """Run ``code`` at ``CODE`` to its hlt or first fault three ways — the
    uncached reference, tier-1 steps, and the block compiled at ``CODE``
    followed by tier-1 steps — after ``prepare(task)``.  Registers,
    memory, cycles, exec generations, ``code_epoch`` and the fault record
    (fault, rip of the faulting instruction, instructions retired) must
    agree.  Returns what the compiled block itself retired."""
    seen = {}
    block_retired = None
    for way in ("reference", "tier1", "tier2"):
        cpu, task, env = _bare(code, perm)
        if way == "reference":
            cpu = CPU(env, translation_cache=False)
        prepare(task)
        retired, fault = 0, None
        try:
            if way == "tier2":
                block = cpu.compile_superblock(task.mem, CODE, task)
                assert block.fn is not None
                try:
                    block_retired = block.fn(task, env.charge)
                except PageFault:
                    retired = task.sb_fault
                    raise
                retired = block_retired
            while not env.halted:
                addr = task.regs.rip
                retired += 1
                try:
                    cpu.step(task)
                except PageFault:
                    task.regs.rip = addr  # the scheduler's rewind
                    raise
        except PageFault as e:
            fault = (e.address, e.access, str(e))
        mem = task.mem
        seen[way] = (
            fault, task.regs.rip, retired, task.regs,
            sorted((pn, p.perm, p.pkey, bytes(p.data))
                   for pn, p in mem._pages.items()),
            env.cycles, sorted(mem.exec_gen.items()), mem.code_epoch,
        )
    assert seen["tier1"] == seen["reference"]
    assert seen["tier2"] == seen["tier1"]
    return block_retired, seen["tier2"]


def test_push_onto_executable_stack_page_bumps_and_side_exits():
    """A push onto an executable stack page misses ``wr``: its fallback
    bumps the page's exec generation and the block side-exits after it."""
    a = Assembler(base=CODE)
    a.mov_imm("rcx", 7)
    a.push("rcx")
    for _ in range(8):
        a.inc("rbx")
    a.hlt()

    def prepare(task):
        task.mem.protect(STACK, PAGE_SIZE, Perm.RWX)

    retired, (fault, *_, gens, epoch) = _three_ways(a.assemble(), prepare)
    assert retired == 2 and fault is None
    # the code page's own load bumped once, the push once more
    assert dict(gens)[STACK >> 12] == 1 and epoch == 2


@pytest.mark.parametrize("pkru", [0, 0b1000, 0b0100],
                         ids=["open", "write-disabled", "access-disabled"])
def test_gs_store_to_pkey_page(pkru):
    """gs traffic on a page tagged with key 1 (lazypoline_pkey's gs page)
    misses both maps: it lands through the accessor, or faults with the
    pkey message, at the same instruction in every tier."""
    a = Assembler(base=CODE)
    a.inc("rbx")
    a.gsstore(16, "rbx")
    a.gsload("rax", 16)
    a.gsstore8(24, "rax")
    a.inc("rbx")
    a.hlt()

    def prepare(task):
        mem = task.mem
        mem.assign_pkey(STACK, PAGE_SIZE, mem.pkey_alloc())
        mem.active_pkru = pkru
        task.regs.gs_base = STACK

    retired, (fault, *_) = _three_ways(a.assemble(), prepare)
    if pkru:
        assert fault is not None and "pkey 1 forbids" in fault[2]
    else:
        assert fault is None and retired == 5


@pytest.mark.parametrize("next_page", ["mapped", "unmapped"])
@pytest.mark.parametrize("offset", range(PAGE_SIZE - 7, PAGE_SIZE))
def test_u8_and_u64_accesses_at_page_end(offset, next_page):
    """u8 accesses in a page's last seven bytes stay inline; u64 ones
    straddle and fall back, into a mapped page or a fault."""
    a = Assembler(base=CODE)
    a.inc("rbx")
    a.load8("rax", "rsi", 0)
    a.store8("rsi", 0, "rbx")
    a.label("u64")
    a.load("rcx", "rsi", 0)
    a.store("rsi", 0, "rbx")
    a.inc("rbx")
    a.hlt()

    def prepare(task):
        if next_page == "mapped":
            task.mem.map(STACK + PAGE_SIZE, PAGE_SIZE, Perm.RW)
            task.mem.write(STACK + PAGE_SIZE, bytes(range(1, 9)), check=None)
        task.regs.write_name("rsi", STACK + offset)

    retired, (fault, rip, *_) = _three_ways(a.assemble(), prepare)
    if next_page == "mapped":
        assert fault is None and retired == 6
    else:
        assert fault[0] == STACK + PAGE_SIZE and rip == a.address_of("u64")


@pytest.mark.parametrize("order", ["load-first", "store-first"])
@pytest.mark.parametrize("perm", [Perm.R, Perm.W], ids=["r", "w"])
def test_read_only_and_write_only_pages(perm, order):
    """An R-only page is in ``rd`` only and a W-only page in ``wr`` only:
    the access the map admits runs inline, the other faults."""
    a = Assembler(base=CODE)
    a.inc("rbx")
    if order == "load-first":
        a.load("rax", "rsi", 8)
        a.store("rsi", 16, "rbx")
    else:
        a.store("rsi", 16, "rbx")
        a.load("rax", "rsi", 8)
    a.inc("rbx")
    a.hlt()

    def prepare(task):
        task.mem.protect(STACK, PAGE_SIZE, perm)
        task.regs.write_name("rsi", STACK)

    _, (fault, rip, retired, *_) = _three_ways(a.assemble(), prepare)
    admitted_first = (perm == Perm.R) == (order == "load-first")
    assert fault is not None and retired == (3 if admitted_first else 2)


@pytest.mark.parametrize("op", ["load", "store", "load8", "store8"])
def test_unmapped_target(op):
    a = Assembler(base=CODE)
    a.inc("rbx")
    if op.startswith("load"):
        getattr(a, op)("rax", "rsi", 0)
    else:
        getattr(a, op)("rsi", 0, "rbx")
    a.inc("rbx")
    a.hlt()

    def prepare(task):
        task.regs.write_name("rsi", UNMAPPED + 8)

    _, (fault, rip, retired, *_) = _three_ways(a.assemble(), prepare)
    assert fault[0] == UNMAPPED + 8 and retired == 2


def test_lazypoline_pkey_gs_glue_matches_every_tier():
    """A getpid loop under ``lazypoline_pkey``: the interposer's gs page
    carries a protection key, so every compiled gs access of its glue
    takes the fallback.  The uncached reference, tier 1 alone and both
    tiers end in the same state, and the glue did compile."""
    a = asm()
    a.label("_start")
    a.mov_imm("rbx", 64)
    a.label("loop")
    emit_syscall(a, "getpid")
    a.dec("rbx")
    a.jnz("loop")
    emit_exit(a, 0)
    image = image_from_assembler("pkey-loop", a, entry="_start")
    skip = {BLOCK_COMPILE, BLOCK_INVALIDATE, CACHE_INVALIDATE}
    out = {}
    for cached, sb in ((False, False), (True, False), (True, True)):
        tracer = Tracer()
        machine = Machine(translation_cache=cached, superblocks=sb,
                          tracer=tracer)
        proc = machine.load(image)
        attach_mechanism(machine, proc, "lazypoline_pkey")
        machine.run_process(proc, max_instructions=1_000_000)
        mem = proc.task.mem
        out[cached, sb] = (
            proc.exit_code, proc.term_signal, proc.task.regs, machine.clock,
            machine.scheduler.total_instructions,
            sorted((pn, bytes(p.data)) for pn, p in mem._pages.items()),
            sorted(mem.exec_gen.items()), mem.code_epoch,
            [(e.ts, e.kind, e.tid, tuple(sorted(e.data.items())))
             for e in tracer.events if e.kind not in skip],
        )
    assert out[True, False] == out[False, False]
    assert out[True, True] == out[True, False]
    assert out[True, True][0] == 0
    keyed = {pn for pn, p in mem._pages.items() if p.pkey}
    assert keyed and not keyed & (mem.rd.keys() | mem.wr.keys())
    assert _compiled_heads(mem, Mnemonic.GSSTORE)
