"""The CPU interpreter.

``CPU.step(task)`` fetches, decodes, charges and executes exactly one
instruction of ``task``.  The CPU itself is environment-agnostic: anything
that needs an OS (syscalls, host calls, halts) is delegated to the
``Environment`` the CPU was constructed with — normally the kernel, or a
:class:`NullEnvironment` in bare-metal unit tests.

Architectural faults (:class:`~repro.errors.PageFault`,
:class:`~repro.errors.InvalidOpcode`) propagate out of :meth:`CPU.step`; the
scheduler converts them into signals.

Translation cache
=================

With ``translation_cache=True`` (the default) the CPU memoises decoded
instructions per address space: ``AddressSpace.insn_cache`` maps instruction
address -> ``(insn, handler, cost, page, gen, page2, gen2)``.  An entry is
valid only while the per-page generation counters in
``AddressSpace.exec_gen`` still match the generations recorded at decode
time; the address space bumps a page's counter on any ``write``, ``protect``
or ``unmap`` touching an executable page.  That is exactly the set of
operations lazypoline's SIGSYS slow path performs when it rewrites
``syscall`` -> ``call rax`` in place (mprotect RW, write, mprotect back), so
self-modifying code invalidates precisely the stale entries.  A cached entry
records generations only for the page(s) the instruction's own bytes occupy
(one or two, since MAX_INSN_LEN < PAGE_SIZE): a decode depends on nothing
else.  Removing execute permission or unmapping also bumps, which forces the
next step through a real ``fetch`` and re-raises the page fault the uncached
interpreter would have raised.  Failed decodes are never cached.

A miss still fetches through the address space (so faults and generations
are exactly the uncached interpreter's) but decodes the fetched bytes with
:func:`~repro.arch.decode.decode_cached`, the process-wide content-keyed
memo, so a fresh guest of an image already run in this process decodes
nothing.  The uncached reference path calls ``decode_one`` directly, which
keeps the plain decoder the reference the lockstep harnesses compare to.

Execution itself dispatches through :data:`DISPATCH`, a dense list of
per-mnemonic handler functions indexed by ``Mnemonic.op_index``; each cache
entry carries its ``(handler, cost)`` pair so the steady-state step is
fetch-check-generation -> charge -> call.  ``cost`` comes from the cost
model's one ``op_index`` table (:attr:`repro.cpu.costs.CostModel.op_costs`,
which tier 2 and the nop slide read too); it is ``None`` for xsave/xrstor,
whose cost depends on the task's xstate component count.
The handlers are generated, in one ``compile`` at import, from the effect
templates of the instruction table in :mod:`repro.cpu.ops` — the same
table tier 2 emits its source from — and write ``task.regs.gpr``
directly.  Only the ops no template expresses are written out below:
the environment calls, the traps, ``faddp`` and xsave/xrstor.
"""

from __future__ import annotations

import struct
from typing import Protocol

from repro.arch.decode import decode_cached, decode_one
from repro.arch.isa import MAX_INSN_LEN, Instruction, Mnemonic
from repro.arch.registers import MASK64, MASK128, XComponent
from repro.cpu.costs import DEFAULT_COST_MODEL, CostModel
from repro.cpu.ops import dispatch
from repro.errors import BreakpointTrap, InvalidOpcode
from repro.mem.pages import PAGE_SHIFT

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")

#: Serialized xsave area layout (offsets within the area).
XSAVE_MASK_OFF = 0
XSAVE_XMM_OFF = 8
XSAVE_YMM_OFF = XSAVE_XMM_OFF + 16 * 16
XSAVE_X87_OFF = XSAVE_YMM_OFF + 16 * 16
XSAVE_TOP_OFF = XSAVE_X87_OFF + 8 * 8
XSAVE_AREA_SIZE = 1024

#: Entries per address-space insn cache before a wholesale clear.  Generous:
#: guest images are a few pages of code, so this only trips on pathological
#: self-modifying loops, where clearing is the honest answer anyway.
_CACHE_CAPACITY = 65536


class Environment(Protocol):
    """What the CPU needs from its surroundings."""

    def charge(self, task, cycles: float) -> None:
        """Account ``cycles`` of work performed by ``task``: a multiple of
        0.25 (instruction costs are quarter cycles; see
        :class:`repro.cpu.costs.CostModel`)."""

    def on_syscall(self, task) -> None:
        """A syscall instruction retired; rip already points past it."""

    def on_hlt(self, task) -> None:
        """A hlt instruction retired."""

    def on_hcall(self, task, hook_id: int) -> None:
        """A host-call instruction retired."""


class NullEnvironment:
    """Bare-metal environment for CPU unit tests: counts cycles, logs events."""

    def __init__(self):
        self.cycles = 0
        self.syscalls: list[tuple[int, tuple[int, ...]]] = []
        self.halted: list[object] = []
        self.hcalls: list[int] = []

    def charge(self, task, cycles: float) -> None:
        self.cycles += cycles

    def on_syscall(self, task) -> None:
        from repro.arch.registers import SYSCALL_ARG_REGS

        args = tuple(task.regs.read(r) for r in SYSCALL_ARG_REGS)
        self.syscalls.append((task.regs.read(0), args))
        task.regs.write(0, 0)

    def on_hlt(self, task) -> None:
        self.halted.append(task)

    def on_hcall(self, task, hook_id: int) -> None:
        self.hcalls.append(hook_id)


class BareTask:
    """Minimal task for bare-metal CPU tests: registers + memory, no kernel."""

    def __init__(self, mem, regs=None, xsave_mask: XComponent | None = None):
        from repro.arch.registers import RegisterFile

        self.mem = mem
        self.regs = regs or RegisterFile()
        self.xsave_mask = XComponent.all() if xsave_mask is None else xsave_mask

    @property
    def xsave_mask(self) -> XComponent:
        return self._xsave_mask

    @xsave_mask.setter
    def xsave_mask(self, mask: XComponent) -> None:
        self._xsave_mask = mask
        self.xsave_components = bin(mask.value).count("1")


# ------------------------------------------------------------------ handlers
# One function per mnemonic, uniform signature ``handler(cpu, task, insn,
# next_rip)``; ``regs.rip`` is already ``next_rip`` when it runs, and
# control transfers overwrite it.  :data:`DISPATCH` generates the handler
# of every row of the instruction table (``repro.cpu.ops``) that has an
# effect template; these are the ops no template expresses.


def _op_syscall(cpu, task, insn, next_rip):
    cpu.env.on_syscall(task)


def _op_hlt(cpu, task, insn, next_rip):
    cpu.env.on_hlt(task)


def _op_hcall(cpu, task, insn, next_rip):
    cpu.env.on_hcall(task, insn.operands[0])


def _op_int3(cpu, task, insn, next_rip):
    raise BreakpointTrap(next_rip - insn.length)


def _op_ud2(cpu, task, insn, next_rip):
    raise InvalidOpcode(next_rip - insn.length, 0x0F)


def _op_faddp(cpu, task, insn, next_rip):
    regs = task.regs
    a = _F64.unpack(_U64.pack(regs.x87_pop()))[0]
    b = _F64.unpack(_U64.pack(regs.x87_pop()))[0]
    regs.x87_push(_U64.unpack(_F64.pack(a + b))[0])


def _op_xsave(cpu, task, insn, next_rip):
    ops = insn.operands
    addr = (task.regs.gpr[ops[0]] + ops[1]) & MASK64
    task.mem.write(addr, xsave_serialize(task.regs, task.xsave_mask))


def _op_xrstor(cpu, task, insn, next_rip):
    ops = insn.operands
    addr = (task.regs.gpr[ops[0]] + ops[1]) & MASK64
    xrstor_apply(task.regs, task.mem.read(addr, XSAVE_AREA_SIZE))


#: Dense dispatch table: ``DISPATCH[mnemonic.op_index] -> handler``.
DISPATCH: list = dispatch({
    Mnemonic.SYSCALL: _op_syscall,
    Mnemonic.SYSENTER: _op_syscall,
    Mnemonic.HLT: _op_hlt,
    Mnemonic.HCALL: _op_hcall,
    Mnemonic.INT3: _op_int3,
    Mnemonic.UD2: _op_ud2,
    Mnemonic.FADDP: _op_faddp,
    Mnemonic.XSAVE: _op_xsave,
    Mnemonic.XRSTOR: _op_xrstor,
})


class CPU:
    """Interprets simulated machine code, one task at a time."""

    def __init__(
        self,
        env: Environment,
        cost_model: CostModel | None = None,
        translation_cache: bool = True,
        superblocks: bool = True,
    ):
        self.env = env
        self.costs = cost_model or DEFAULT_COST_MODEL
        self.hooks: list = []
        self.translation_cache = translation_cache
        #: Tier 2: compile hot straight-line runs into superblocks (see
        #: :mod:`repro.cpu.superblock`; the scheduler owns the dispatch).
        #: Tied to the translation cache — the uncached configuration is
        #: the pure reference interpreter and stays single-step.
        self.superblocks = superblocks and translation_cache
        self.cache_hits = 0
        self.cache_misses = 0
        #: Superblock counters (compiles/invalidations are rare; per-run
        #: counts live on the blocks themselves to keep the hot path lean).
        self.blocks_compiled = 0
        self.cuts_compiled = 0
        self.blocks_invalidated = 0
        #: Nop slides (one per dispatch, not per nop) and the nops they
        #: retired; the scheduler counts them (see repro.cpu.superblock).
        self.slides = 0
        self.slid_insns = 0
        #: observability tracer; only consulted on the (rare) generation-
        #: mismatch branch, never on the per-instruction hit path.
        self.tracer = None
        #: The cost model's dense ``op_index -> cost`` table (``None`` for
        #: xsave/xrstor), read by both tiers and the nop slide.
        self._cost_table = self.costs.op_costs

    # ------------------------------------------------------------ superblocks
    def compile_superblock(self, mem, head: int, task):
        """Compile the run at ``head`` into ``mem``'s bound block cache.

        The first call for a head compiles its full block (perhaps a
        sentinel); a call for a head that already holds a compiled block
        gives that block its *cut variant* instead, which the scheduler
        enters wherever a quantum cuts the run (see
        :func:`repro.cpu.superblock.compile_cut`).  Both are specialised on
        ``task``'s xstate component count, so xsave/xrstor compile
        (guarded; see :func:`repro.cpu.superblock.compile_block`).  Each
        compile counts in ``blocks_compiled`` and emits one
        ``block_compile`` event; a cut also counts in ``cuts_compiled``.
        """
        from repro.cpu.superblock import compile_block, compile_cut

        count = task.xsave_components
        xstate = (count, self.costs.xsave_cost(count))
        bc = mem.block_cache
        block = bc.blocks.get(head)
        if block is not None and block.fn is not None:
            block.cut = compile_cut(block, self._cost_table, xstate)
            self.cuts_compiled += 1
        else:
            block = compile_block(mem, head, self._cost_table, xstate)
            bc.add(block)
            if block.fn is None:
                return block
        self.blocks_compiled += 1
        if self.tracer is not None:
            self.tracer.block_compile(
                getattr(self.env, "clock", 0),
                getattr(task, "tid", -1), head, block.n,
            )
        return block

    def note_block_invalidate(self, head: int, tid: int, reason: str) -> None:
        """Account one compiled block an eager flush discarded (``reason``:
        ``smc`` from the bound cache, ``shootdown`` from another)."""
        self.blocks_invalidated += 1
        if self.tracer is not None:
            self.tracer.block_invalidate(
                getattr(self.env, "clock", 0), tid, head, reason
            )

    def add_hook(self, hook) -> None:
        self.hooks.append(hook)

    def remove_hook(self, hook) -> None:
        self.hooks.remove(hook)

    # ------------------------------------------------------------------ step
    def step(self, task) -> Instruction:
        """Execute one instruction of ``task`` and return it."""
        regs = task.regs
        mem = task.mem
        addr = regs.rip

        if self.translation_cache:
            entry = mem.insn_cache.get(addr)
            if entry is not None:
                gens = mem.exec_gen
                if gens.get(entry[3], 0) == entry[4] and gens.get(entry[5], 0) == entry[6]:
                    self.cache_hits += 1
                else:
                    if self.tracer is not None:
                        self.tracer.cache_invalidate(
                            getattr(self.env, "clock", 0),
                            getattr(task, "tid", -1), addr,
                        )
                    entry = self._translate(mem, addr)
            else:
                entry = self._translate(mem, addr)
            insn = entry[0]
            if self.hooks:
                for hook in self.hooks:
                    hook.on_insn(task, insn, addr)
            cost = entry[2]
            if cost is None:
                cost = self.costs.xsave_cost(task.xsave_components)
            self.env.charge(task, cost)
            next_rip = addr + insn.length
            regs.rip = next_rip
            entry[1](self, task, insn, next_rip)
            return insn

        # Uncached reference path: fetch + decode every step.
        window = mem.fetch(addr, MAX_INSN_LEN)
        insn = decode_one(window, 0, addr)
        for hook in self.hooks:
            hook.on_insn(task, insn, addr)
        cost = self._cost_table[insn.mnemonic.op_index]
        if cost is None:
            cost = self.costs.xsave_cost(task.xsave_components)
        self.env.charge(task, cost)
        next_rip = addr + insn.length
        regs.rip = next_rip
        DISPATCH[insn.mnemonic.op_index](self, task, insn, next_rip)
        return insn

    def _translate(self, mem, addr: int):
        """Fetch + decode at ``addr`` and install a cache entry for it.

        Raises the same PageFault/InvalidOpcode the uncached path would;
        failed decodes are never cached.
        """
        self.cache_misses += 1
        insn = decode_cached(mem.fetch(addr, MAX_INSN_LEN), addr)
        op = insn.mnemonic.op_index
        handler = DISPATCH[op]
        cost = self._cost_table[op]
        gens = mem.exec_gen
        first = addr >> PAGE_SHIFT
        last = (addr + insn.length - 1) >> PAGE_SHIFT
        entry = (insn, handler, cost, first, gens.get(first, 0), last, gens.get(last, 0))
        cache = mem.insn_cache
        if len(cache) >= _CACHE_CAPACITY:
            cache.clear()
            # Nop-run records vouch for an entry on their page (see
            # BlockCache.nop_run); they go with the entries.
            mem.block_cache.runs.clear()
        cache[addr] = entry
        return entry


# ----------------------------------------------------------------- xsave glue
# Both directions run on every interposed syscall (the lazypoline fast path
# brackets its hcall with xsave/xrstor), and a server saves the same vector
# state request after request.  So each direction is memoised on content in
# one process-wide table shared by every machine, like ``decode_cached``:
# ``xsave_serialize`` on the mask bits plus the values of the components
# they select, ``xrstor_apply`` on the area bytes.  Each memoises a pure
# value of its key (the area bytes, or immutable per-component tuples), so
# a guest that edits the saved area before xrstor restores the edit, and a
# restore copies into the register file's own lists.  A failed serialize
# or parse raises before anything is stored.
_VEC_BYTES = 16 * 16
_VEC_ZERO = bytes(_VEC_BYTES)
_X87_AREA = struct.Struct("<8QB")  # the x87 slots, then the top byte
_X87_ZERO = bytes(_X87_AREA.size)
_AREA_TAIL = bytes(XSAVE_AREA_SIZE - XSAVE_X87_OFF - _X87_AREA.size)

#: Entries per xstate memo before a wholesale clear.  Small on purpose: a
#: guest that churns vector state gets no hits, and its memo must not grow
#: the process (each restore entry holds a 1 KiB area).
_XSTATE_CAPACITY = 256
_saved: dict[tuple, bytes] = {}
_restored: dict[bytes, tuple] = {}


def _pack_vecs(values) -> bytes:
    return b"".join([v.to_bytes(16, "little") for v in values])


def _unpack_vecs(area, off: int) -> tuple[int, ...]:
    big = int.from_bytes(area[off : off + _VEC_BYTES], "little")
    return tuple([(big >> shift) & MASK128 for shift in range(0, 128 * 16, 128)])


def xsave_serialize(regs, mask: XComponent) -> bytes:
    """Serialize the selected xstate components into the xsave area format."""
    bits = mask.value & 7  # X87 = 1, SSE = 2, AVX = 4: the area's mask word
    key = (
        bits,
        tuple(regs.xmm) if bits & 2 else None,
        tuple(regs.ymm_high) if bits & 4 else None,
        (*regs.x87, regs.x87_top) if bits & 1 else None,
    )
    area = _saved.get(key)
    if area is None:
        area = b"".join((
            _U64.pack(bits),
            _pack_vecs(key[1]) if bits & 2 else _VEC_ZERO,
            _pack_vecs(key[2]) if bits & 4 else _VEC_ZERO,
            _X87_AREA.pack(*key[3]) if bits & 1 else _X87_ZERO,
            _AREA_TAIL,
        ))
        if len(_saved) >= _XSTATE_CAPACITY:
            _saved.clear()
        _saved[key] = area
    return area


def xrstor_apply(regs, area: bytes) -> None:
    """Restore xstate components from an xsave area."""
    state = _restored.get(area)
    if state is None:
        (bits,) = _U64.unpack_from(area, XSAVE_MASK_OFF)
        x87 = top = None
        if bits & 1:
            *x87, top = _X87_AREA.unpack_from(area, XSAVE_X87_OFF)
            x87 = tuple(x87)
        state = (
            bits,
            _unpack_vecs(area, XSAVE_XMM_OFF) if bits & 2 else None,
            _unpack_vecs(area, XSAVE_YMM_OFF) if bits & 4 else None,
            x87,
            top,
        )
        if len(_restored) >= _XSTATE_CAPACITY:
            _restored.clear()
        _restored[area] = state
    bits = state[0]
    if bits & 2:
        regs.xmm[:] = state[1]
    if bits & 4:
        regs.ymm_high[:] = state[2]
    if bits & 1:
        regs.x87[:] = state[3]
        regs.x87_top = state[4]
