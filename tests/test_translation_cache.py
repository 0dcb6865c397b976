"""Translation cache: SMC invalidation, generation counters, equivalence.

The decoded-instruction cache (``AddressSpace.insn_cache`` + ``exec_gen``,
populated by ``CPU._translate``) must be invisible: every test here pins a
way self-modifying code or mapping changes could make a cached decode stale,
and asserts execution matches what a from-scratch decode would do.  The
paper's own mechanism is the adversary — lazypoline rewrites ``syscall`` ->
``call rax`` in place through mprotect+write+mprotect, and that exact dance
must invalidate exactly the rewritten site.
"""

from __future__ import annotations

import hashlib
from dataclasses import FrozenInstanceError

import pytest

from repro.arch.encode import Assembler
from repro.arch.isa import CALL_RAX_BYTES, Mnemonic
from repro.cpu.core import BareTask, CPU, NullEnvironment
from repro.cpu.costs import DEFAULT_INSN_COSTS, CostModel
from repro.cpu.superblock import HOT_THRESHOLD
from repro.errors import InvalidOpcode
from repro.interpose.api import TraceInterposer
from repro.interpose.lazypoline import Lazypoline
from repro.kernel.machine import Machine
from repro.kernel.signals import SIGILL, SIGSEGV, SIGTRAP
from repro.kernel.syscalls.proc import CLONE_VM, THREAD_FLAGS
from repro.kernel.syscalls.table import NR
from repro.loader.image import image_from_assembler
from repro.mem import layout
from repro.mem.address_space import AddressSpace
from repro.mem.pages import PAGE_SIZE, Perm
from repro.obs.events import BLOCK_COMPILE, BLOCK_INVALIDATE, CACHE_INVALIDATE
from repro.obs.tracer import Tracer
from repro.workloads.runner import attach_mechanism
from repro.workloads.webserver import SERVERS, ServerWorkload

from tests.conftest import asm, emit_exit, emit_syscall, finish, hello_image

CODE = 0x1000
STACK = 0x8000


def bare(code: bytes, *, perm: Perm = Perm.RX, stack: bool = True):
    """Map ``code`` at CODE and return (cpu, task, env) with caching on."""
    mem = AddressSpace()
    size = (len(code) + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
    mem.map(CODE, size, perm)
    mem.write(CODE, code, check=None)
    if stack:
        mem.map(STACK, PAGE_SIZE, Perm.RW)
    env = NullEnvironment()
    cpu = CPU(env)
    task = BareTask(mem)
    task.regs.rip = CODE
    task.regs.write_name("rsp", STACK + PAGE_SIZE)
    return cpu, task, env


def run_until_hlt(cpu, task, env, max_steps=10_000):
    for _ in range(max_steps):
        if env.halted:
            return
        cpu.step(task)
    raise AssertionError("program did not halt")


# ----------------------------------------------------------------- mechanics
def test_cache_hits_after_first_decode():
    a = Assembler(base=CODE)
    a.mov_imm("rbx", 0)
    a.label("loop")
    a.inc("rbx")
    a.cmpi("rbx", 100)
    a.jnz("loop")
    a.hlt()
    cpu, task, env = bare(a.assemble())
    run_until_hlt(cpu, task, env)
    assert task.regs.read_name("rbx") == 100
    # one miss per distinct site, everything else served from the cache
    assert cpu.cache_misses == 5
    assert cpu.cache_hits > 250
    assert len(task.mem.insn_cache) == 5


def test_cached_and_uncached_agree_per_step():
    a = Assembler(base=CODE)
    a.mov_imm("rax", 7)
    a.mov_imm("rbx", 5)
    a.imul("rax", "rbx")
    a.push("rax")
    a.pop("rcx")
    a.hlt()
    code = a.assemble()
    cpu_c, task_c, env_c = bare(code)
    mem_u = task_c.mem.fork_copy()
    env_u = NullEnvironment()
    cpu_u = CPU(env_u, translation_cache=False)
    task_u = BareTask(mem_u)
    task_u.regs.rip = CODE
    task_u.regs.write_name("rsp", STACK + PAGE_SIZE)
    while not env_c.halted:
        insn_c = cpu_c.step(task_c)
        insn_u = cpu_u.step(task_u)
        assert insn_c == insn_u
        assert task_c.regs.rip == task_u.regs.rip
    assert env_u.halted
    assert env_c.cycles == env_u.cycles
    assert task_c.regs.read_name("rcx") == task_u.regs.read_name("rcx") == 35


# ------------------------------------------------------- SMC by guest stores
def test_guest_store_invalidates_executed_site():
    """A plain store into an RWX page retires the old decode immediately."""
    a = Assembler(base=CODE)
    a.label("_start")
    a.mov_imm("r8", "target")
    a.mov_imm("r9", 0x90)  # nop byte
    a.mov_imm("rcx", 0)
    a.label("target")
    a.inc("rbx")  # 3 bytes, patched to 3 nops below
    a.cmpi("rcx", 1)
    a.jz("done")
    a.inc("rcx")
    a.store8("r8", 0, "r9")
    a.store8("r8", 1, "r9")
    a.store8("r8", 2, "r9")
    a.jmp("target")
    a.label("done")
    a.hlt()
    cpu, task, env = bare(a.assemble(), perm=Perm.RWX)
    run_until_hlt(cpu, task, env)
    # target executed twice; the second pass must see the nops, not the
    # cached inc
    assert task.regs.read_name("rbx") == 1
    # invalidation is page-granular and all code shares one page, so the
    # second pass re-translated: more misses than live cache entries
    assert cpu.cache_misses > len(task.mem.insn_cache)


def test_kernel_side_write_invalidates():
    """check=None writes (ptrace POKEDATA-style patches) also invalidate."""
    a = Assembler(base=CODE)
    a.inc("rbx")
    a.hlt()
    cpu, task, env = bare(a.assemble())
    cpu.step(task)
    assert task.regs.read_name("rbx") == 1
    task.regs.rip = CODE
    task.mem.write(CODE, b"\x90\x90\x90", check=None)
    insn = cpu.step(task)
    assert insn.mnemonic is Mnemonic.NOP
    assert task.regs.read_name("rbx") == 1


def test_mprotect_write_mprotect_rewrite_is_seen():
    """The lazypoline dance at the unit level: syscall -> call rax in place."""
    target = CODE + 0x100
    code = bytearray(b"\x90" * 0x200)
    code[0:2] = b"\x0f\x05"  # syscall at CODE
    code[0x100] = 0xF4  # hlt at target
    cpu, task, env = bare(bytes(code))
    cpu.step(task)
    assert len(env.syscalls) == 1

    mem = task.mem
    mem.protect(CODE, PAGE_SIZE, Perm.RW)
    mem.write(CODE, CALL_RAX_BYTES, check="write")
    mem.protect(CODE, PAGE_SIZE, Perm.RX)

    task.regs.write_name("rax", target)
    task.regs.rip = CODE
    insn = cpu.step(task)
    assert insn.mnemonic is Mnemonic.CALL_REG
    assert task.regs.rip == target
    # the pushed return address is the site + len(call rax)
    rsp = task.regs.read_name("rsp")
    assert task.mem.read_u64(rsp) == CODE + 2
    assert len(env.syscalls) == 1  # no second syscall from a stale decode


def test_protect_losing_x_faults_next_fetch():
    a = Assembler(base=CODE)
    a.nop()
    a.nop()
    a.hlt()
    cpu, task, env = bare(a.assemble())
    cpu.step(task)
    task.mem.protect(CODE, PAGE_SIZE, Perm.RW)
    from repro.errors import PageFault

    with pytest.raises(PageFault):
        cpu.step(task)


def test_unmap_remap_does_not_revalidate_stale_entries():
    """Generation counters survive unmap: a fresh page at the same address
    must not resurrect decodes from the old mapping."""
    a = Assembler(base=CODE)
    a.inc("rbx")
    a.hlt()
    cpu, task, env = bare(a.assemble())
    cpu.step(task)
    assert task.regs.read_name("rbx") == 1

    mem = task.mem
    mem.unmap(CODE, PAGE_SIZE)
    mem.map(CODE, PAGE_SIZE, Perm.RX)
    mem.write(CODE, b"\x90\x90\x90\xf4", check=None)
    task.regs.rip = CODE
    insn = cpu.step(task)
    assert insn.mnemonic is Mnemonic.NOP
    assert task.regs.read_name("rbx") == 1


# ---------------------------------------------------- region-boundary fetches
def test_fetch_truncation_at_region_boundary():
    """An insn ending exactly at the last executable byte decodes and caches;
    one spilling past it raises InvalidOpcode every time and is never cached."""
    mem = AddressSpace()
    mem.map(CODE, PAGE_SIZE, Perm.RX)  # next page unmapped
    env = NullEnvironment()
    cpu = CPU(env)
    task = BareTask(mem)

    end = CODE + PAGE_SIZE
    # 5-byte mov eax, imm32 occupying the final 5 bytes of the page
    mem.write(end - 5, b"\xb8\x2a\x00\x00\x00", check=None)
    task.regs.rip = end - 5
    insn = cpu.step(task)
    assert insn.mnemonic is Mnemonic.MOV_IMM64
    assert task.regs.read_name("rax") == 0x2A
    assert (end - 5) in mem.insn_cache

    # the same opcode 3 bytes from the end truncates mid-immediate
    mem.write(end - 3, b"\xb8\x2a\x00", check=None)
    task.regs.rip = end - 3
    with pytest.raises(InvalidOpcode):
        cpu.step(task)
    with pytest.raises(InvalidOpcode):  # re-raised, not cached
        cpu.step(task)
    assert (end - 3) not in mem.insn_cache


def test_write_to_second_page_invalidates_spanning_insn():
    """A 10-byte insn crossing a page boundary records both pages' gens."""
    mem = AddressSpace()
    mem.map(CODE, 2 * PAGE_SIZE, Perm.RX)
    env = NullEnvironment()
    cpu = CPU(env)
    task = BareTask(mem)

    site = CODE + PAGE_SIZE - 3  # 48 B8 + imm64: imm bytes live in page 2
    imm1 = 0x1111_2222_3333_4444
    mem.write(site, b"\x48\xb8" + imm1.to_bytes(8, "little"), check=None)
    task.regs.rip = site
    cpu.step(task)
    assert task.regs.read_name("rax") == imm1

    imm2 = 0x5555_6666_7777_8888
    # touch only the second page (the immediate's tail)
    mem.write(CODE + PAGE_SIZE, imm2.to_bytes(8, "little")[1:], check=None)
    task.regs.rip = site
    cpu.step(task)
    expected = int.from_bytes(
        imm1.to_bytes(8, "little")[:1] + imm2.to_bytes(8, "little")[1:], "little"
    )
    assert task.regs.read_name("rax") == expected


# ------------------------------------------------------------ whole machine
def test_lazypoline_rewrite_reexecutes_through_cache():
    """Full stack: the SIGSYS slow-path rewrite must be picked up by the
    cached interpreter on every later loop iteration."""
    results = {}
    for cached in (True, False):
        machine = Machine(translation_cache=cached)
        a = asm()
        a.label("_start")
        a.mov_imm("rbx", 6)
        a.label("loop")
        emit_syscall(a, "getpid")
        a.dec("rbx")
        a.jnz("loop")
        emit_exit(a, 0)
        proc = machine.load(finish(a))
        tool = Lazypoline._install(machine, proc, TraceInterposer())
        code = machine.run_process(proc)
        sites = sorted(tool.rewritten)
        for site in sites:
            assert proc.task.mem.read(site, 2, check=None) == CALL_RAX_BYTES
        results[cached] = (
            code,
            tool.slowpath_hits,
            tool.fastpath_hits,
            sites,
            machine.clock,
            machine.scheduler.total_instructions,
        )
    cpu = None  # noqa: F841 - clarity: compare cached against uncached run
    assert results[True] == results[False]
    # rewrite hit the slow path once per site, then ran hot through the cache
    _code, slow, fast, sites, _clock, _insns = results[True]
    assert slow == 2 and fast == 7 and len(sites) == 2


def test_fork_then_rewrite_in_child_diverges():
    """The child's self-patch must not leak into the parent's cache (and the
    parent's pre-fork cached decode must not leak into the child)."""
    a = asm()
    a.label("_start")
    a.call("fn")  # populate the parent's cache for fn before forking
    emit_syscall(a, "fork")
    a.cmpi("rax", 0)
    a.jz("child")
    # parent: wait for the child, then run the (unpatched) fn again
    a.mov_imm("rdi", (1 << 64) - 1)
    a.mov_imm("rsi", 0)
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 0)
    a.mov_imm("rax", NR["wait4"])
    a.syscall()
    a.call("fn")
    a.mov("rdi", "rax")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("child")
    # mprotect the code page RWX and patch fn's imm32 from 11 to 22
    emit_syscall(a, "mprotect", layout.CODE_BASE, 4096, 7)
    a.mov_imm("r8", "fn")
    a.mov_imm("r9", 22)
    a.store8("r8", 1, "r9")  # fn+1: low byte of the mov imm32
    a.call("fn")
    a.mov("rdi", "rax")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("fn")
    a.mov_imm("rax", 11)
    a.ret()

    machine = Machine()
    proc = machine.load(finish(a))
    code = machine.run_process(proc)
    assert code == 11  # parent still sees the original fn
    children = [t for t in machine.kernel.tasks.values() if t.parent is proc.task]
    assert len(children) == 1
    assert children[0].exit_code == 22  # child sees its own patch
    assert machine.kernel.cpu.cache_hits > 0


def test_machine_equivalence_cached_vs_uncached():
    out = {}
    for cached in (True, False):
        machine = Machine(translation_cache=cached)
        proc = machine.load(hello_image(b"cache\n", exit_code=3))
        code = machine.run_process(proc)
        out[cached] = (
            code,
            proc.stdout,
            machine.clock,
            machine.scheduler.total_instructions,
        )
    assert out[True] == out[False]


# ------------------------------------------------- superblock (tier-2) blocks
# Tier-2 blocks are keyed by the same per-page generation counters as the
# decoded-instruction cache, and every invalidation path that retires a
# stale decode must also retire every compiled block spanning the page.
# Every test from here on is in the ``superblock`` tier.

def _hot_loop_code():
    a = Assembler(base=CODE)
    a.label("_start")
    a.mov_imm("rbx", 0)
    a.label("loop")
    a.inc("rbx")
    a.addi("rbx", 0)
    a.cmpi("rbx", 200)
    a.jnz("loop")
    a.hlt()
    return a.assemble(), a.address_of("loop")


def _compiled(perm: Perm = Perm.RX):
    """(cpu, mem, head, block): a block compiled and installed at head."""
    code, head = _hot_loop_code()
    cpu, task, env = bare(code, perm=perm)
    block = cpu.compile_superblock(task.mem, head, task)
    assert block.fn is not None and block.n >= 2
    assert head in task.mem.block_cache.blocks
    return cpu, task.mem, head, block


@pytest.mark.superblock
def test_superblock_write_mid_block_invalidates():
    """A store landing in the middle of a compiled block's page drops it."""
    cpu, mem, head, block = _compiled(perm=Perm.RWX)
    mem.write(head + 3, b"\x90", check=None)
    assert head not in mem.block_cache.blocks
    assert not mem.block_cache.index.get(head >> 12)
    # recompilation against the patched bytes works immediately
    again = cpu.compile_superblock(mem, head, BareTask(mem))
    assert again.fn is not None
    assert again.g0 == block.g0 + 1


@pytest.mark.superblock
def test_superblock_mprotect_invalidates():
    cpu, mem, head, _ = _compiled()
    mem.protect(CODE, PAGE_SIZE, Perm.RW)
    assert head not in mem.block_cache.blocks


@pytest.mark.superblock
def test_superblock_munmap_invalidates():
    cpu, mem, head, _ = _compiled()
    mem.unmap(CODE, PAGE_SIZE)
    assert head not in mem.block_cache.blocks
    # a fresh mapping at the same address must not resurrect the block
    mem.map(CODE, PAGE_SIZE, Perm.RX)
    code, _ = _hot_loop_code()
    mem.write(CODE, code, check=None)
    assert head not in mem.block_cache.blocks


@pytest.mark.superblock
def test_superblock_unrelated_page_write_keeps_block():
    """Negative control: stores to other pages must not invalidate."""
    cpu, mem, head, block = _compiled()
    mem.write(STACK + 8, b"\xff" * 8, check=None)  # RW data page
    assert mem.block_cache.blocks.get(head) is block
    assert cpu.blocks_invalidated == 0


@pytest.mark.superblock
def test_superblock_fork_isolation():
    """fork_copy starts the child with an empty block cache, and child-side
    SMC never reaches back into the parent's blocks."""
    cpu, mem, head, block = _compiled(perm=Perm.RWX)
    child = mem.fork_copy()
    assert child.block_cache.blocks == {}
    assert child.block_cache is not mem.block_cache
    child.write(head + 3, b"\x90", check=None)
    assert mem.block_cache.blocks.get(head) is block


@pytest.mark.superblock
def test_superblock_lazypoline_rewrite_forces_recompile():
    """Full stack: a hot syscall loop tiers up, then lazypoline's SIGSYS
    rewrite patches `syscall` -> `call rax` inside the loop body — every
    block spanning the patched page must drop and recompile, and the run
    must stay bit-identical to the untiered machine."""
    results = {}
    for tiered in (True, False):
        machine = Machine(superblocks=tiered)
        a = asm()
        a.label("_start")
        a.mov_imm("rbx", 40)
        a.label("loop")
        a.inc("r8")
        a.addi("r8", 2)
        emit_syscall(a, "getpid")
        a.dec("rbx")
        a.jnz("loop")
        emit_exit(a, 0)
        proc = machine.load(finish(a))
        tool = Lazypoline._install(machine, proc, TraceInterposer())
        code = machine.run_process(proc)
        results[tiered] = (
            code,
            tool.slowpath_hits,
            tool.fastpath_hits,
            sorted(tool.rewritten),
            machine.clock,
            machine.scheduler.total_instructions,
        )
        if tiered:
            stats = machine.superblock_stats()
            assert stats["compiled"] >= 1
            assert stats["invalidated"] >= 1  # the rewrite landed mid-loop
    assert results[True] == results[False]


# ------------------------------------------------------ nop slide (tier 2)
# The scheduler slides nop runs in one dispatch instead of stepping them.
# A slide is bounded by its page and by the slice budget and is validated
# by the same exec-page generations, so every case below must stay cycle-
# and fault-identical to the single-step interpreter (superblocks=False).

#: Offset of the run's entry inside page_o: 256 nops reach the page end.
RUN_AT = 0xF00


def _slide_image(after=None, *, hot=None, threads=False, iters=24,
                 entry="run"):
    """A loop calling ``run``: a nop run that fills the tail of page
    ``page_o``, all of ``page_p`` and the head of ``page_q`` (5 nops, then
    ret); ``edge`` is its last nop in ``page_o``.  The loop enters the run
    at ``entry``.  ``hot(a)`` emits code run at iteration ``iters // 2``
    (and makes the text RWX); ``after(a)`` emits code run after the loop,
    before one more call into the run.  ``threads`` clones a CLONE_VM
    thread that runs the same loop."""
    a = asm()
    a.label("_start")
    a.mov_imm("r13", 1)
    if threads:
        emit_syscall(a, "mmap", 0, 8192, 3, 0x22, (1 << 64) - 1, 0)
        a.mov("r12", "rax")
        a.mov_imm("rdi", THREAD_FLAGS | CLONE_VM)
        a.lea("rsi", "r12", 8192)
        a.mov_imm("rdx", 0)
        a.mov_imm("r10", 0)
        a.mov_imm("r8", 0)
        a.mov_imm("rax", NR["clone"])
        a.syscall()
        a.mov("r13", "rax")  # 0 in the thread
    a.mov_imm("rbx", iters)
    a.label("loop")
    a.call(entry)
    if hot is not None:
        a.cmpi("rbx", iters // 2)
        a.jnz("cold")
        hot(a)
        a.label("cold")
    a.dec("rbx")
    a.jnz("loop")
    if threads:
        a.cmpi("r13", 0)
        a.jnz("join")
        a.mov_imm("rcx", 1)
        a.store("r12", 0, "rcx")
        a.label("park")
        a.jmp("park")
        a.label("join")
        a.load("rcx", "r12", 0)
        a.cmpi("rcx", 1)
        a.jnz("join")
    if after is not None:
        after(a)
        a.call("run")
    emit_exit(a, 0)
    a.align(PAGE_SIZE)
    a.db(b"\x90" * RUN_AT)
    a.label("run")
    a.db(b"\x90" * (PAGE_SIZE - RUN_AT - 1))
    a.label("edge")
    a.nop()
    a.label("page_p")
    a.db(b"\x90" * PAGE_SIZE)
    a.label("page_q")
    a.db(b"\x90" * 5)
    a.ret()
    a.align(PAGE_SIZE, fill=0)
    return image_from_assembler("slide", a, entry="_start",
                                text_perm=Perm.RWX if hot else Perm.RX), a


#: A non-default cost model: tier 1, compiled blocks and nop slides must
#: all charge from its one table, or the tiering identity below breaks.
_CUSTOM_COSTS = {**DEFAULT_INSN_COSTS,
                 Mnemonic.NOP: 2 * DEFAULT_INSN_COSTS[Mnemonic.NOP],
                 Mnemonic.MOV: 2}


def _recording_until(machine, stop):
    """An ``until()`` for ``machine`` that returns ``stop()`` and records
    the ``(clock, total_instructions)`` state it was consulted in."""
    seen = []
    sched = machine.scheduler

    def until():
        seen.append((machine.clock, sched.total_instructions))
        return stop()

    return until, seen


def _events(tracer, skip):
    return [(e.ts, e.kind, e.tid, e.core, tuple(sorted(e.data.items())))
            for e in tracer.events if e.kind not in skip]


#: Event kinds only tier 2 emits.
_TIER2_ONLY = {BLOCK_COMPILE, BLOCK_INVALIDATE}


def _record_slides(machine):
    """The set of addresses every nop slide of ``machine`` retires."""
    slid = set()
    sched = machine.scheduler
    slide = sched._slide

    def spy(task, start, end, room):
        k = slide(task, start, end, room)
        slid.update(range(start, start + k))
        return k

    sched._slide = spy
    return slid


def _split_stale(events):
    """``(cache_invalidate events, every other event)``."""
    stale = [e for e in events if e[1] == CACHE_INVALIDATE]
    return stale, [e for e in events if e[1] != CACHE_INVALIDATE]


def _assert_stale_decodes(untiered, tiered, slid):
    """Tier 2 reports tier 1's stale decodes, in order and at the same
    clocks, except some at nop addresses it slid: a slid nop is not
    decoded, so after a patch it cannot be found stale.  That is the only
    difference allowed."""
    missing = []
    rest = iter(tiered)
    want = next(rest, None)
    for event in untiered:
        if event == want:
            want = next(rest, None)
        else:
            missing.append(event)
    assert want is None, ("tier 2 reports a stale decode tier 1 does not",
                          want)
    assert all(dict(e[4])["addr"] in slid for e in missing), missing


def _slide_outcomes(image, *, cores=1, event_at=None, deadline=None):
    """Run ``image`` with tiering off and on, under a custom cost model and
    the default one; the default model's outcome and the tiered machine's
    superblock stats.  An outcome holds the tracer event stream and the
    states ``until()`` was consulted in.  ``event_at`` posts an event for
    that clock which records the clock and ``rip`` when it fires;
    ``deadline`` also stops the run once the clock reaches it (the
    fleet's deadline form)."""
    clocks = []
    for insn_costs in (_CUSTOM_COSTS, DEFAULT_INSN_COSTS):
        out, stale = {}, {}
        for sb in (False, True):
            tracer = Tracer()
            machine = Machine(CostModel(insn_costs=insn_costs),
                              superblocks=sb, tracer=tracer, cores=cores)
            slid = _record_slides(machine)
            proc = machine.load(image)
            fired = []
            if event_at is not None:
                kernel = machine.kernel
                kernel.post_event(event_at, lambda: fired.append(
                    (kernel.clock, proc.task.regs.rip)))
            until, seen = _recording_until(
                machine, lambda: not proc.task.alive or (
                    deadline is not None and machine.clock >= deadline))
            machine.run(until=until, max_instructions=1_000_000)
            stale[sb], events = _split_stale(_events(tracer, _TIER2_ONLY))
            out[sb] = (
                proc.exit_code,
                proc.term_signal,
                proc.task.regs.rip,
                machine.clock,
                machine.scheduler.total_instructions,
                machine.scheduler.shootdowns,
                events,
                seen,
                fired,
            )
            stats = machine.superblock_stats()
        assert out[False] == out[True], insn_costs is _CUSTOM_COSTS
        _assert_stale_decodes(stale[False], stale[True], slid)
        clocks.append(machine.clock)
    assert clocks[0] > clocks[1]  # the custom model's slid nops count
    return out[True], stats


@pytest.mark.superblock
def test_slide_plain_run_is_identical_and_slides():
    image, _ = _slide_image()
    (code, sig, *_), stats = _slide_outcomes(image)
    assert (code, sig) == (0, None)
    # each call slides once per page of the run
    assert stats["slides"] >= 3 * 24
    assert stats["slid_insns"] >= 24 * (PAGE_SIZE + PAGE_SIZE - RUN_AT - 3)


@pytest.mark.superblock
def test_slide_stops_at_page_end_before_non_executable_page():
    """The run reaches its page end and the next page has lost X: the
    fetch fault lands exactly on the next page's first byte."""
    image, a = _slide_image(
        lambda a: emit_syscall(a, "mprotect", "page_q", PAGE_SIZE, 1))
    (code, sig, rip, *_), stats = _slide_outcomes(image)
    assert sig == SIGSEGV and rip == a.address_of("page_q")
    assert stats["slides"] >= 1


@pytest.mark.superblock
def test_slide_after_mprotect_drops_x():
    """mprotect(PROT_READ) of a page the task already slid through."""
    image, a = _slide_image(
        lambda a: emit_syscall(a, "mprotect", "page_p", PAGE_SIZE, 1))
    (code, sig, rip, *_), _ = _slide_outcomes(image)
    assert sig == SIGSEGV and rip == a.address_of("page_p")


@pytest.mark.superblock
def test_slide_after_munmap():
    image, a = _slide_image(
        lambda a: emit_syscall(a, "munmap", "page_p", PAGE_SIZE))
    (code, sig, rip, *_), _ = _slide_outcomes(image)
    assert sig == SIGSEGV and rip == a.address_of("page_p")


@pytest.mark.parametrize("patch,signal,past", [
    (b"\x0f\x0b", SIGILL, 0),   # ud2
    (b"\xcc", SIGTRAP, 1),      # int3 traps after executing
])
@pytest.mark.superblock
def test_slide_smc_into_hot_run(patch, signal, past):
    """SMC writes a trapping opcode into the middle of a hot run: the
    next pass slides exactly up to it and traps there."""
    def hot(a):
        a.mov_imm("r8", "page_p")
        for i, byte in enumerate(patch):
            a.mov_imm("r9", byte)
            a.store8("r8", 100 + i, "r9")

    image, a = _slide_image(hot=hot)
    (code, sig, rip, *_), stats = _slide_outcomes(image)
    assert sig == signal and rip == a.address_of("page_p") + 100 + past
    assert stats["slides"] >= 12


@pytest.mark.superblock
def test_slide_fork_isolation():
    """A forked child patches its copy of a run the parent slid through;
    the parent keeps sliding its own, unpatched run."""
    def after(a):
        emit_syscall(a, "fork")
        a.cmpi("rax", 0)
        a.jnz("parent")
        a.mov_imm("r8", "page_p")
        a.mov_imm("r9", 0xCC)
        a.store8("r8", 100, "r9")
        a.call("run")  # the child dies of SIGTRAP here
        a.label("parent")
        emit_syscall(a, "wait4", (1 << 64) - 1, 0, 0, 0)

    def hot(a):  # the loop's own no-op patch: RWX text, bumped page
        a.mov_imm("r8", "page_p")
        a.mov_imm("r9", 0x90)
        a.store8("r8", 100, "r9")

    image, _ = _slide_image(after, hot=hot)
    (code, sig, *_), _ = _slide_outcomes(image)
    assert (code, sig) == (0, None)


@pytest.mark.superblock
def test_slide_revalidates_run_at_slice_start():
    """A thread patches the run while its sibling is cut mid-run by the
    quantum: the sibling's next slice must not resume on its record of
    the unpatched run, but slide only up to the ud2 and trap there."""
    def hot(a):
        a.mov_imm("r8", "page_p")
        a.mov_imm("r9", 0x0F)
        a.store8("r8", 4090, "r9")
        a.mov_imm("r9", 0x0B)
        a.store8("r8", 4091, "r9")

    image, _ = _slide_image(hot=hot, threads=True)
    (code, sig, *_), _ = _slide_outcomes(image)
    assert sig == SIGILL


@pytest.mark.superblock
def test_slide_cross_core_shootdown_identity():
    """Two CLONE_VM threads on two cores slide through one page; a store
    into it on one core must shoot down the other core's decodes with the
    same IPI charges as single-stepping.  page_p holds nothing but nops
    and the threads enter at its edge, so only the nop stepped at
    page_p's start, never one stepped on the page before it, may lead a
    slide through page_p: that step keeps the page in the decode
    cache."""
    def hot(a):
        a.mov_imm("r8", "page_p")
        a.mov_imm("r9", 0x90)
        a.store8("r8", 50, "r9")

    image, _ = _slide_image(hot=hot, threads=True, iters=40, entry="edge")
    (code, sig, _, _, _, shootdowns, *_), stats = _slide_outcomes(
        image, cores=2)
    assert (code, sig) == (0, None)
    assert shootdowns >= 1
    assert stats["slides"] >= 2 * 2 * 40


def _in_run(a, rip):
    """Whether ``rip`` lies strictly inside the slide image's nop run."""
    return a.address_of("run") < rip < a.address_of("page_q") + 5


@pytest.mark.superblock
def test_slide_event_due_mid_run_fires_at_the_same_boundary():
    """An event falls due while the task is cut mid-run: it fires at the
    same slice boundary, clock and ``rip`` as with single-stepping."""
    image, a = _slide_image()
    (code, sig, *_, fired), stats = _slide_outcomes(image, event_at=10_000)
    assert (code, sig) == (0, None)
    [(clock, rip)] = fired
    assert clock >= 10_000 and _in_run(a, rip)
    assert stats["slides"] >= 3 * 24


@pytest.mark.superblock
def test_slide_deadline_stops_inside_a_run():
    """``until()`` stops the run on ``clock >= X`` while the task is
    mid-run: it stops at the same quantum edge as single-stepping."""
    image, a = _slide_image()
    (code, sig, rip, clock, *_), _ = _slide_outcomes(image, deadline=13_000)
    assert code is None and sig is None
    assert clock >= 13_000 and _in_run(a, rip)


# ------------------------------------------------- sled entries (tier 2)
# Under lazypoline every interposed syscall is a ``call rax`` into the
# VA-0 nop sled.  Once the sled entry is a sentinel head and its run is
# recorded, the entry slides without stepping a nop; the cases below pin
# that this changes no IPI charge and that a patched sled steps again.

SLED_ENTRY = NR["getpid"]


def _sled_image(*, threads=False, patch_sled=False, iters=48):
    """A getpid loop (optionally in two CLONE_VM threads); with
    ``patch_sled`` the loop rewrites one sled byte in place (mprotect
    RWX, store, mprotect RX) at iteration ``iters // 2``."""
    a = asm()
    a.label("_start")
    a.mov_imm("r13", 1)
    if threads:
        emit_syscall(a, "mmap", 0, 8192, 3, 0x22, (1 << 64) - 1, 0)
        a.mov("r12", "rax")
        a.mov_imm("rdi", THREAD_FLAGS | CLONE_VM)
        a.lea("rsi", "r12", 8192)
        a.mov_imm("rdx", 0)
        a.mov_imm("r10", 0)
        a.mov_imm("r8", 0)
        a.mov_imm("rax", NR["clone"])
        a.syscall()
        a.mov("r13", "rax")  # 0 in the thread
    a.mov_imm("rbx", iters)
    a.label("loop")
    emit_syscall(a, "getpid")
    if patch_sled:
        a.cmpi("rbx", iters // 2)
        a.jnz("cold")
        emit_syscall(a, "mprotect", 0, PAGE_SIZE, 7)
        a.mov_imm("r8", 0)
        a.mov_imm("r9", 0x90)
        a.store8("r8", 200, "r9")
        emit_syscall(a, "mprotect", 0, PAGE_SIZE, 5)
        a.label("cold")
    a.dec("rbx")
    a.jnz("loop")
    if threads:
        a.cmpi("r13", 0)
        a.jnz("join")
        a.mov_imm("rcx", 1)
        a.store("r12", 0, "rcx")
        a.label("park")
        a.jmp("park")
        a.label("join")
        a.load("rcx", "r12", 0)
        a.cmpi("rcx", 1)
        a.jnz("join")
    emit_exit(a, 0)
    return finish(a, "sled")


def _sled_outcomes(image, *, cores=1):
    """Run ``image`` under lazypoline with tiering off and on; assert every
    outcome matches (the tracer event stream and the states ``until()``
    was consulted in included), and return, for the tiered run, the
    generation of the sled page at each nop stepped at the sled entry,
    and the stats."""
    out, stale = {}, {}
    entry_steps = []
    for sb in (False, True):
        tracer = Tracer()
        machine = Machine(CostModel(), superblocks=sb, cores=cores,
                          smp_seed=5, tracer=tracer)
        slid = _record_slides(machine)
        proc = machine.load(image)
        Lazypoline._install(machine, proc, TraceInterposer())
        cpu = machine.kernel.cpu
        step = cpu.step

        def spy(task, step=step, tiered=sb):
            addr = task.regs.rip
            insn = step(task)
            if tiered and addr == SLED_ENTRY:
                assert insn.mnemonic is Mnemonic.NOP
                entry_steps.append(task.mem.exec_gen.get(0, 0))
            return insn

        cpu.step = spy
        until, seen = _recording_until(machine, lambda: not proc.task.alive)
        machine.run(until=until, max_instructions=2_000_000)
        stale[sb], events = _split_stale(_events(tracer, _TIER2_ONLY))
        out[sb] = (
            proc.exit_code,
            proc.term_signal,
            machine.clock,
            machine.scheduler.total_instructions,
            machine.scheduler.shootdowns,
            [core.shootdowns for core in machine.scheduler.cores],
            events,
            seen,
        )
        stats = machine.superblock_stats()
    assert out[False] == out[True]
    _assert_stale_decodes(stale[False], stale[True], slid)
    return out[True], entry_steps, stats


@pytest.mark.superblock
def test_sled_entry_slides_without_a_step():
    """After warm-up the sled entry is a sentinel with a recorded run:
    nearly every interposed getpid slides from it without a step."""
    iters = 96
    (code, *_), entry_steps, stats = _sled_outcomes(
        _sled_image(iters=iters))
    assert code == 0
    assert stats["slides"] >= iters
    assert len(entry_steps) <= 2 * 16 < iters


@pytest.mark.superblock
def test_sled_entry_two_cores_keep_ipi_charges_identical():
    """Two threads on two cores enter the sled; both rewrite their shared
    getpid site and patch the sled page mid-run, each patch shooting down
    the other core's decodes.  Cycles and IPI counts (total and per core)
    match tiering off, with the sled entries sliding: each core steps the
    entry only until its sentinel compiles, before and after the patch."""
    iters = 96
    outcome, entry_steps, stats = _sled_outcomes(
        _sled_image(threads=True, patch_sled=True, iters=iters), cores=2)
    code, _, _, _, shootdowns, per_core, *_ = outcome
    assert code == 0
    assert shootdowns >= 2 and all(per_core)
    assert len(entry_steps) <= 2 * 2 * 16 < 2 * iters


@pytest.mark.superblock
def test_sled_entry_after_sled_patch_falls_back_to_stepping():
    """An SMC patch of the sled page drops the entry's sentinel and makes
    its run record stale: the next entries step the first nop again (at
    the new generation), then slide once the run is rescanned."""
    iters = 96
    (code, *_), entry_steps, _ = _sled_outcomes(
        _sled_image(patch_sled=True, iters=iters))
    assert code == 0
    before = [g for g in entry_steps if g == 0]
    after = [g for g in entry_steps if g > 0]
    assert before and after
    assert len(entry_steps) < iters


@pytest.mark.superblock
def test_entry_just_below_a_recorded_run_gets_recorded():
    """A run first entered one byte in, then at its first nop: stepping
    that nop finds the rest of the run recorded, and records the nop too,
    so later entries there slide from the sentinel instead of stepping."""
    a = asm()
    a.label("_start")
    a.mov_imm("rbx", 24)
    a.label("first")
    a.call("run1")
    a.dec("rbx")
    a.jnz("first")
    a.mov_imm("rbx", 64)
    a.label("second")
    a.call("run0")
    a.dec("rbx")
    a.jnz("second")
    emit_exit(a, 0)
    a.align(PAGE_SIZE)
    a.db(b"\x90" * 0x100)
    a.label("run0")
    a.nop()
    a.label("run1")
    a.db(b"\x90" * 200)
    a.ret()
    image = finish(a, "run-below")
    run0 = a.address_of("run0")
    out, steps = {}, []
    for sb in (False, True):
        machine = Machine(superblocks=sb)
        proc = machine.load(image)
        cpu = machine.kernel.cpu
        step = cpu.step

        def spy(task, step=step, tiered=sb):
            if tiered and task.regs.rip == run0:
                steps.append(task.regs.rip)
            return step(task)

        cpu.step = spy
        out[sb] = (machine.run_process(proc), machine.clock,
                   machine.scheduler.total_instructions)
    assert out[False] == out[True]
    assert len(steps) <= HOT_THRESHOLD < 64


# --------------------------------------- nginx under every sled (pinned)
# sha256 over nginx x {lazypoline, zpoline, none} serving 60 requests:
# the tracer event stream and counts, the clock, superblock_stats(), busy
# cycles and the states ``until()`` was consulted in (consecutive repeats
# collapsed).  Re-pin with ``PYTHONPATH=src:. python
# tests/test_translation_cache.py`` only for an intended change.
NGINX_PIN = "01ce5d8304e2014326f86f31e2fcb016fb6b1893ab46907a557e78c2df44fbfe"


def _repeats(states):
    return [s for i, s in enumerate(states) if i and s == states[i - 1]]


def _nginx_run(tool):
    """Serve 60 nginx requests under ``tool``; the digest parts, and the
    states each ``machine.run``'s ``until()`` was consulted in."""
    tracer = Tracer()
    machine = Machine(tracer=tracer)
    server = ServerWorkload(machine, SERVERS["nginx"], file_size=1024)
    attach_mechanism(machine, server.process, tool)
    runs = []
    run = machine.run

    def recorded(*, until, **kw):
        until, seen = _recording_until(machine, until)
        runs.append(seen)
        run(until=until, **kw)

    machine.run = recorded
    server.benchmark(requests=60, warmup=6)
    states = [s for seen in runs for s in seen]
    collapsed = [s for i, s in enumerate(states) if not i or s != states[i - 1]]
    parts = (
        _events(tracer, ()),
        sorted(tracer.counts.items()),
        machine.clock,
        sorted(machine.superblock_stats().items()),
        [core.busy_cycles for core in machine.scheduler.cores],
        collapsed,
    )
    return parts, runs


def _nginx_digest():
    h = hashlib.sha256()
    for tool in ("lazypoline", "zpoline", None):
        parts, runs = _nginx_run(tool)
        # one run consults its until() once per machine state
        assert not any(_repeats(seen) for seen in runs), tool
        h.update(repr((tool, parts)).encode())
    return h.hexdigest()


@pytest.mark.superblock
def test_nginx_under_every_sled_matches_pinned_digest():
    assert _nginx_digest() == NGINX_PIN


@pytest.mark.superblock
def test_cost_model_rejects_costs_a_batched_charge_cannot_sum_exactly():
    """Blocks and nop slides charge one precomputed total, which equals
    per-step charging only for quarter-cycle costs below 2**40: the cost
    model refuses any other instruction cost, every default passes, and a
    built model cannot be changed behind its table's back."""
    for bad in (0.1, -0.25, 2**40):
        with pytest.raises(ValueError):
            CostModel(insn_costs={**DEFAULT_INSN_COSTS, Mnemonic.NOP: bad})
    insn_costs = dict(DEFAULT_INSN_COSTS)
    costs = CostModel(insn_costs=insn_costs)
    for mnemonic, cost in DEFAULT_INSN_COSTS.items():
        assert costs.insn_cost(mnemonic) == cost
    with pytest.raises(TypeError):
        costs.insn_costs[Mnemonic.NOP] = 0.5
    with pytest.raises(FrozenInstanceError):
        costs.xsave_base = 1
    insn_costs[Mnemonic.NOP] = 0.5  # the model keeps its own copy
    assert costs.op_costs[Mnemonic.NOP.op_index] == DEFAULT_INSN_COSTS[Mnemonic.NOP]


if __name__ == "__main__":
    print(f'NGINX_PIN = "{_nginx_digest()}"')
