"""Tier-2 of the interpreter: superblock compilation.

The PR-2 translation cache (tier 1) made :meth:`repro.cpu.core.CPU.step`
a dict hit plus one handler call, but the scheduler still pays the full
per-instruction boundary protocol — liveness, signal, policy and rebind
checks — around every step.  This module adds the second tier sketched in
ROADMAP item 1, using the dispatch-generation idiom of PyPy's blackhole
interpreter (SNIPPETS.md, Snippets 2-3): once a straight-line run of code
turns hot, its instructions are compiled *together* into one generated
Python function whose body is the fused, specialised sequence of the
handlers that tier 1 would have dispatched one call at a time.

What each instruction compiles to, and whether it compiles at all, comes
from its row in the instruction table (:mod:`repro.cpu.ops`): the same
effect template tier 1's handler is generated from, rendered over register
locals with immediates baked in, the row's flags rule, memory kind (fault
record, side exit) and block role (straight, inner, terminator or
tier-1-only).  Only xsave/xrstor and the spill-then-charge frame of a
terminator are emitted by hand here.

A superblock is a maximal straight-line run starting at a hot *head*:

* registers the block touches are hoisted into Python locals and spilled
  back at every exit,
* the per-instruction cycle charges are folded into one batched
  ``charge`` call per exit, read from the cost model's one
  ``op_index`` table (see :meth:`repro.cpu.costs.CostModel.__post_init__`
  for why the batched float sum is bit-identical to per-step charging),
* anything that can observe or change machine state mid-run — syscalls,
  hcalls, hlt, ``wrgsbase``/``wrpkru``, vector/x87 arithmetic —
  terminates the block: those instructions always execute on the tier-1
  path, so every syscall, signal-delivery point and scheduler boundary
  stays exactly where the single-step interpreter put it,
* gs-relative loads and stores (the interposer's selector and xstate
  pointer traffic) compile like any other memory access at
  ``gs_base + disp``: ``gs_base`` and PKRU are constant inside a block,
  because nothing that writes them compiles,
* xsave and xrstor (the interposer's ABI glue around its hcall) compile
  as a store and a load of the 1 KiB area, through the same
  content-keyed memos tier 1 uses.  Their cost depends on the task's
  xstate component count, so the block is specialised on the count it
  was compiled for, with that ``xsave_cost`` baked in, and guarded: when
  the running task's count differs, the block exits *before* the first
  xstate instruction, having charged only what retired, and tier 1 steps
  it at its own cost (the guard/deopt split of PyPy's blackhole
  interpreter, SNIPPETS.md 2-3).  Neither instruction ever heads a
  block, so a guard never returns 0 into the scheduler's one dispatch
  loop (``Scheduler.run_task_slice``: one lookup per block entry, then
  a chain from wherever the block exits),
* a conditional or indirect branch may terminate the block *compiled-in*:
  the generated code computes the successor rip and exits,
* loads and stores, the xsave/xrstor area included, run inline: a
  lookup of the page in the address space's ``rd``/``wr`` map (bound
  once per block entry) plus an ``unpack_from``/``pack_into`` on its
  bytearray, exactly as tier 1's generated handlers do; an access the
  map does not admit calls the typed accessor instead (see
  :func:`repro.cpu.ops.inline_access`),
* faults inside the block spill, rewind ``rip`` to the faulting
  instruction, charge exactly the instructions retired so far (the
  faulting one included, as ``CPU.step`` does) and re-raise for the
  scheduler's normal ``handle_fault`` path,
* a store that bumps :attr:`AddressSpace.code_epoch` (i.e. hit *any*
  executable page) conservatively side-exits after retiring, so a block
  that overwrites its own upcoming instructions never executes stale
  bytes.  Only a store's fallback can bump it (``wr`` holds no
  executable page), so the test sits in the fallback branch.

Runs of ``nop`` bytes are never compiled: a block never *starts* at a
``nop``.  The scheduler *slides* them instead — it retires ``k`` nops of
a run as one dispatch, advancing ``rip`` by ``k`` and charging ``k``
times the ``nop`` cost once (from the same lookup that dispatches
blocks, or right after a stepped ``nop``).  That is
the interposer's sled (``call rax`` lands at offset ``rax`` of a VA-0 nop
sled): every syscall number, and every quantum cut inside the sled, would
otherwise be a fresh block head.  A slide is sound under the same
conditions as a chained block — nothing inside can observe or change
machine state — plus four of its own:

* no interior boundary: a ``nop`` retires no syscall, hcall or fault;
* page- and quantum-bounded: a run ends at its page's end, and the slide
  at the slice budget, so the next page's fetch fault and every slice
  boundary land where single-stepping puts them.  When a slide is cut
  at the budget and its task runs alone on one core, the scheduler
  slides the run's next whole quanta without a new round
  (``Scheduler._slide_quanta``); each stays a slice of its own, with
  its tracer events, counters and ``until()`` call, and it stops at the
  first quantum an event, signal, new task or stale record could tell
  apart;
* generation-checked: :meth:`BlockCache.nop_run` records each run under
  its page's exec generation, so SMC, ``mprotect`` and ``munmap`` of the
  page fall back to a fresh scan and exact single-step semantics.  A
  run is recorded only after a nop on its page was stepped, which keeps
  cross-core shootdown IPIs exact even when a later entry — a slice
  resuming mid-run, or a ``call rax`` landing on the run's sentinel head
  — slides without a step (the proof is in ``nop_run``);
* exact cost: ``k`` charges of the ``nop`` cost sum exactly to one
  charge of ``k`` times it (a quarter-cycle multiple, which
  :class:`repro.cpu.costs.CostModel` enforces at construction).

Validity is kept by the writer, as lazypoline's in-place rewrite keeps
real caches coherent (§IV-A b): the reader never re-checks a block.  A
block records ``(page, gen)`` for the one or two pages its bytes span,
and ``AddressSpace._bump_exec_gen`` — the single choke point for SMC
writes, mprotect, munmap and lazypoline's in-place rewrites — eagerly
flushes every block spanning the bumped page from the bound cache.  SMP
uses one ``BlockCache`` per (core, asid) pair, and
``Scheduler._shootdown`` drops the page's blocks from every other one, so
no cache ever holds a block whose generations disagree with
``exec_gen`` (``tests/test_block_coherence.py`` checks this after every
code write).  Fork isolation is free: a forked space starts with a fresh
:class:`BlockCache`.
"""

from __future__ import annotations

from repro.arch.decode import decode_cached
from repro.arch.isa import MAX_INSN_LEN, NOP_BYTE, Mnemonic
from repro.cpu.ops import ACCESS_NAMES, ROWS, inline_access, render_tier2
from repro.errors import InvalidOpcode, PageFault
from repro.mem.pages import PAGE_SHIFT, PAGE_SIZE

#: Executions of a head address (observed at taken control transfers,
#: fallthrough past an instruction no block compiles across, slice starts
#: and block exits) before the run starting there is compiled.  The same
#: count gates each ``(head, leftover)`` tail variant.  High enough that
#: short-lived code and most unit-test guests never tier up, so the
#: legacy path keeps covering them byte-for-byte.
HOT_THRESHOLD = 16

#: Longest run compiled into one block.  Also bounded by the two-page
#: span limit below, and by the scheduler to the remaining slice budget
#: at entry (a block never straddles a quantum boundary).
BLOCK_CAP = 32

#: Shortest run worth compiling; a 1-instruction block would just be the
#: tier-1 step with extra spill traffic.
MIN_LEN = 2

_NOP = bytes((NOP_BYTE,))

_M64 = (1 << 64) - 1


class SuperBlock:
    """One compiled straight-line run (or a "don't retry" sentinel).

    ``fn(task, charge) -> int`` (``charge`` is the environment's charge
    method, hoisted by the caller) executes the run: it returns the
    number of instructions retired (all ``n`` unless a side exit or the
    xstate guard stopped it early, never 0) and leaves
    ``task.regs``/memory/cycle state exactly as that many tier-1 steps
    would have.  On a guest fault it
    sets ``task.sb_fault`` to the retired count (faulting instruction
    included) and re-raises.  ``fn is None`` marks a sentinel: the head's
    run is not compilable (too short, or starts with an excluded opcode);
    keeping the sentinel in the cache stops the scheduler re-counting and
    re-compiling it, and it is indexed under its pages like a block, so
    a code write there drops it and lets the head retry.
    """

    __slots__ = ("head", "n", "fn", "p0", "g0", "p1", "g1", "cost", "runs")

    def __init__(self, head, n, fn, p0, g0, p1, g1, cost):
        self.head = head
        self.n = n
        self.fn = fn
        self.p0 = p0
        self.g0 = g0
        self.p1 = p1
        self.g1 = g1
        self.cost = cost
        self.runs = 0


class BlockCache:
    """Superblock state for one address space (or one (core, asid) pair).

    ``blocks`` maps head address -> :class:`SuperBlock`; ``index`` maps
    page number -> set of head addresses whose blocks span that page, so
    a generation bump flushes exactly the stale blocks without a scan;
    ``heads`` holds the pre-compilation hotness counters, keyed by head
    address or, for a tail variant, by its ``(head, leftover)`` key (the
    same key it is cached under in ``blocks``); ``runs`` maps
    an address to the nop run it lies in (see :meth:`nop_run`).  Blocks
    bake their cycle costs in, which is sound because a
    :class:`~repro.cpu.costs.CostModel` never changes once built.
    """

    __slots__ = ("blocks", "index", "heads", "runs")

    def __init__(self):
        self.blocks: dict[int, SuperBlock] = {}
        self.index: dict[int, set] = {}
        self.heads: dict[int, int] = {}
        self.runs: dict[int, tuple[int, int, int]] = {}

    def nop_run(self, mem, addr: int):
        """Scan and record the nop run through ``addr``.

        The scheduler calls this only right after single-stepping a
        ``nop`` at ``addr - 1``.  Returns ``(end, page, gen)``: the run
        covers that nop and ``[addr, end)``, stopping at the first
        non-``nop`` byte or at the end of ``addr``'s page, whose exec
        generation was ``gen`` when scanned (``end == addr``: nothing left
        to slide).  Every address of the run, the stepped one included,
        gets the same record, so a slice that resumes mid-run, or a
        ``call rax`` that lands on the run's sentinel head, slides at
        once.  Returns ``None`` at a page start (the run would lie on
        another page).

        Why sliding from a record, without stepping even its first nop,
        leaves cross-core shootdown IPI charges as they are with tiering
        off:

        * ``_shootdown`` charges an IPI to a core iff that core's
          translation cache holds *some* entry on the patched page; which
          addresses of the page it holds does not matter.
        * ``addr`` is no page start, so the nop stepped at ``addr - 1``
          lies on page ``pn`` and left an entry for it, at generation
          ``gen``, in the translation cache bound alongside this block
          cache (the two are swapped together per core and address
          space).
        * That entry leaves the cache only when ``pn``'s generation is
          bumped (a remote shootdown drops it on the other cores) or when
          the cache is cleared at capacity, which clears these records
          too.  Every slide re-checks the record's generation.
        * So wherever a record is used, its page already holds an entry.
          The steps a slide skips would only add entries to that page,
          and the set of pages with entries — all an IPI reads — is the
          set single-stepping leaves.
        """
        off = addr & (PAGE_SIZE - 1)
        if not off:
            return None
        code = mem.fetch(addr, PAGE_SIZE - off)
        end = addr + len(code) - len(code.lstrip(_NOP))
        pn = addr >> PAGE_SHIFT
        rec = (end, pn, mem.exec_gen.get(pn, 0))
        runs = self.runs
        for a in range(addr - 1, max(end, addr + 1)):
            runs[a] = rec
        return rec


# --------------------------------------------------------------- classification
# A row's ``block`` role in the instruction table (repro.cpu.ops) says
# what the compiler does with it.  ``straight`` and ``inner`` ops fuse
# (``inner``: nop and xsave/xrstor, which never head a block), gs-relative
# loads and stores included: ``gs_base`` is constant inside a block
# because ``wrgsbase`` is not compiled.  xsave/xrstor fuse behind a guard
# on the task's xstate component count (their cost depends on it; see
# compile_block).  ``term`` ops are compiled in as the block's last
# instruction.  ``tier1`` ops end the block *before* them, so they execute
# on the tier-1 path with the full scheduler boundary protocol around
# them: syscalls, hcalls, hlt and traps (boundary points),
# ``wrgsbase``/``wrpkru``/``gswrpkru`` (would change ``gs_base`` or PKRU
# mid-block), ``gsjmp``/``gscopy8`` (sigreturn-trampoline glue), vector
# and x87 arithmetic.

#: xsave/xrstor: their cost depends on the task's xstate component count,
#: so a block holding one is specialised on that count and guarded.  Like
#: ``nop``, neither ever heads a block, so a guard never sits at entry.
_XSTATE = frozenset((Mnemonic.XSAVE, Mnemonic.XRSTOR))

#: ``ENDS_RUN[op_index]``: the scheduler counts the run after this
#: instruction as a head candidate even when execution falls through to
#: it — because no block compiles across it (it is tier-1-only or a
#: terminator), or, for xsave/xrstor, because it is only ever stepped
#: where a block's guard missed or a slice began at it.  (A stepped
#: ``nop`` slides before the scheduler reads this.)
ENDS_RUN = tuple(row.block != "straight" for row in ROWS)


def _decode_run(mem, head):
    """Decode the straight-line run at ``head`` (no address-space cache
    touched).

    Deliberately bypasses ``mem.insn_cache`` — compilation must not
    perturb tier-1 cache contents, or hit/miss counts and SMP shootdown
    charges would differ between tiering on and off.  It shares the
    content-keyed ``decode_cached`` memo with tier 1, which holds no
    per-space state and so perturbs nothing.  Stops at the first
    non-straight-line opcode, at a compiled-in terminator, at the block
    cap, or where decoding itself would fault (execution reaching that
    point side-exits and faults identically on the tier-1 path).  A run
    headed by a ``nop`` is empty (the scheduler slides nop runs instead),
    and so is one headed by xsave/xrstor (see ``_XSTATE``).
    """
    insns = []
    addr = head
    p0 = head >> PAGE_SHIFT
    while len(insns) < BLOCK_CAP:
        try:
            insn = decode_cached(mem.fetch(addr, MAX_INSN_LEN), addr)
        except (PageFault, InvalidOpcode):
            break
        if (addr + insn.length - 1) >> PAGE_SHIFT > p0 + 1:
            break  # keep every block within a two-page span
        block = ROWS[insn.mnemonic.op_index].block
        if block == "term":
            insns.append((addr, insn))
            break
        if block == "tier1" or (not insns and block == "inner"):
            break
        insns.append((addr, insn))
        addr += insn.length
    return insns


class _Emitter:
    """Builds the generated function source for one block.

    Flag assignments are *deferred*: an ALU instruction only records the
    two pending ``zf``/``lt`` lines, and they are materialised at the
    first point where the architectural flags are observable — a faulting
    instruction (the fault path spills them), a side exit, a Jcc read, or
    the final spill.  A later flag-setting instruction simply replaces
    the pending pair, which is exactly dead-store elimination: in a run
    of ALU ops only the last one's flags ever reach an observer.  Pending
    lines reference register locals, so any instruction that overwrites a
    referenced register without setting flags itself forces an early
    materialisation first.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.regs: set[int] = set()
        self.written: set[int] = set()
        self.flags_set = False
        self.flags_read = False
        self.load_flags = False
        self.uses_mem = False
        self.consts: dict[str, object] = {}
        self.pending: tuple[list[str], set[int]] | None = None

    def touch(self, *rs):
        self.regs.update(rs)

    def writes(self, *rs):
        self.regs.update(rs)
        self.written.update(rs)

    def emit(self, line):
        self.lines.append("        " + line)

    def set_flags_from(self, lines, refs):
        self.flags_set = True
        self.pending = (lines, set(refs))

    def materialize(self):
        if self.pending is not None:
            for line in self.pending[0]:
                self.emit(line)
            self.pending = None

    def materialize_if_clobbers(self, *written):
        if self.pending is not None and self.pending[1].intersection(written):
            self.materialize()

    def spill(self, indent="        "):
        # Only *written* registers spill; flags spill only if some
        # instruction set them (unwritten state is already architectural).
        out = []
        for r in sorted(self.written):
            out.append(f"{indent}g[{r}] = r{r}")
        if self.flags_set:
            out.append(f"{indent}regs.zf = zf")
            out.append(f"{indent}regs.lt = lt")
        return out


def _side_exit(e, charge_expr, next_addr, count):
    """Conservative mid-block exit after a store's fallback: state as if
    the run ended here.  Only the fallback can bump ``code_epoch`` (the
    ``wr`` map holds no executable page)."""
    return ["if mem.code_epoch != _e:",
            *e.spill("    "),
            f"    charge(task, {charge_expr})",
            f"    regs.rip = {next_addr}",
            f"    return {count}"]


def compile_block(mem, head, cost_table, xstate, max_len=None):
    """Compile the run at ``head``; always returns a :class:`SuperBlock`.

    A non-compilable head yields a sentinel block (``fn is None``) whose
    generation keys still let SMC invalidate and later retry it.

    ``max_len`` truncates the run to at most that many instructions: the
    scheduler compiles such a *tail* variant once a compiled block keeps
    meeting the same remaining slice budget shorter than itself, so that
    quantum remainder runs as one compiled call instead of single-stepping.
    A truncated run simply ends in a fallthrough exit at the cut point —
    exactly as a run cut by :data:`BLOCK_CAP` would.

    ``xstate`` is ``(components, cost)``: the xstate component count of
    the task the block is compiled for and ``xsave_cost`` of it.  The
    block compiles xsave/xrstor with that cost baked in, behind one guard
    before the first of them: when the running task's count differs, the
    block spills and charges what has retired, leaves ``rip`` at the
    xstate instruction and returns that (non-zero) count, before any of
    its side effects — the tier-1 path then steps it at its own cost.
    """
    # Deferred: repro.cpu.core imports the memory layer, which imports
    # this module for BlockCache.
    from repro.cpu.core import XSAVE_AREA_SIZE, xrstor_apply, xsave_serialize

    insns = _decode_run(mem, head)
    if max_len is not None:
        insns = insns[:max_len]
    gens = mem.exec_gen
    # A tail variant is worth compiling even at one instruction: the full
    # block at this head is already hot, and the single-insn call still
    # replaces a full boundary-protocol interpreter step.
    if len(insns) < (MIN_LEN if max_len is None else 1):
        p0 = head >> PAGE_SHIFT
        return SuperBlock(head, 0, None, p0, gens.get(p0, 0), p0, gens.get(p0, 0), 0)

    last_addr, last_insn = insns[-1]
    p0 = head >> PAGE_SHIFT
    p1 = (last_addr + last_insn.length - 1) >> PAGE_SHIFT
    end_rip = last_addr + last_insn.length

    costs = [
        xstate[1] if insn.mnemonic in _XSTATE
        else cost_table[insn.mnemonic.op_index]
        for _, insn in insns
    ]

    e = _Emitter()
    can_fault = False
    has_store = False
    uses_gs = False

    # Pre-pass: register/flag footprint, so prologue and spills agree.
    # ``written`` drives the spill set (read-only registers never spill);
    # the first-setter / first-fault indices decide whether the entry
    # flags are live anywhere the generated code could observe them —
    # only then does the prologue load ``regs.zf``/``regs.lt``.
    first_set = first_fault = None
    for i, (_, insn) in enumerate(insns):
        row = ROWS[insn.mnemonic.op_index]
        ops = insn.operands
        # A terminator updates the registers it writes in ``g`` directly
        # after the spill, so they are read-only as locals.
        term = row.block == "term"
        for slot, fixed, written in row.gprs:
            r = fixed if slot is None else ops[slot]
            if written and not term:
                e.writes(r)
            else:
                e.touch(r)
        if row.flags is not None:
            e.flags_set = True
        if row.reads_flags:
            e.flags_read = True
        if e.flags_set and first_set is None:
            first_set = i
        if row.mem is not None:
            e.uses_mem = True
            can_fault = True
            if first_fault is None:
                first_fault = i
        if row.mem == "store" and not term:
            has_store = True  # ``_e`` guards the side exits of stores
        if row.gs:
            uses_gs = True

    # Entry flags must be in locals if a Jcc reads them un-set, or if a
    # fault/side-exit spill can run before the first setter materialises
    # (the shared except-handler spill references the flag locals).
    e.load_flags = (e.flags_read and not e.flags_set) or (
        e.flags_set and first_fault is not None and first_fault < first_set
    )

    # Body.  ``running`` replays the exact cumulative charge the tier-1
    # path would have applied after each instruction (exact: see
    # CostModel.__post_init__).
    running = 0
    n = len(insns)
    guarded = False
    for k, (addr, insn) in enumerate(insns):
        m = insn.mnemonic
        row = ROWS[m.op_index]
        ops = insn.operands
        retired = running
        running = running + costs[k]
        is_term = row.block == "term"
        if row.mem is not None:
            e.materialize()  # the fault path spills architectural flags
            fk = f"_F{k}"
            # A faulting terminator (ret/call) spills and charges its full
            # batched total *before* touching memory, so its fault tuple
            # must not charge again; a mid-block fault is the only charge.
            e.consts[fk] = (addr, 0 if is_term else running, k + 1)
            e.emit(f"_f = {fk}")
        exit_cyc = repr(running)
        next_addr = addr + insn.length

        if m in _XSTATE:
            if not guarded:
                # Nothing a block runs changes the count, so one guard
                # covers every later xstate instruction.  k >= 1: no
                # block starts at one.
                guarded = True
                e.emit(f"if task.xsave_components != {xstate[0]}:")
                for line in e.spill("            "):
                    e.lines.append(line)
                e.lines.append(f"            charge(task, {retired!r})")
                e.lines.append(f"            regs.rip = {addr}")
                e.lines.append(f"            return {k}")
            area = f"(r{ops[0]} + {ops[1]}) & {_M64}"
            size = XSAVE_AREA_SIZE
            if m is Mnemonic.XSAVE:
                state = "_xsave(regs, task.xsave_mask)"
                lines = inline_access(
                    "wr", area, size, [f"_p[_o:_o + {size}] = {state}"],
                    [f"mem.write(_a, {state})",
                     *(_side_exit(e, exit_cyc, next_addr, k + 1)
                       if k != n - 1 else ())])
            else:
                lines = inline_access(
                    "rd", area, size,
                    [f"_xrstor(regs, bytes(_p[_o:_o + {size}]))"],
                    [f"_xrstor(regs, mem.read(_a, {size}))"])
            for line in lines:
                e.emit(line)
            continue
        on_miss = ()
        if row.mem == "store" and not is_term and k != n - 1:
            on_miss = _side_exit(e, exit_cyc, next_addr, k + 1)
        lines, flag_lines, refs = render_tier2(row, ops, next_addr, is_term,
                                               on_miss)
        if is_term:
            e.materialize()
            for line in e.spill():
                e.lines.append(line)
            e.emit(f"charge(task, {running!r})")
            for line in lines:
                e.emit(line)
            e.emit(f"return {n}")
            continue
        if row.flags is None:
            written = [fixed if slot is None else ops[slot]
                       for slot, fixed, w in row.gprs if w]
            e.materialize_if_clobbers(*written)
        for line in lines:
            e.emit(line)
        if row.flags is not None:
            e.set_flags_from(flag_lines, refs)

    if ROWS[insns[-1][1].mnemonic.op_index].block != "term":
        # Fallthrough exit: the next instruction is not compilable (or the
        # cap was hit); the tier-1 path picks up at ``end_rip``.
        e.materialize()
        for line in e.spill():
            e.lines.append(line)
        e.emit(f"charge(task, {running!r})")
        e.emit(f"regs.rip = {end_rip}")
        e.emit(f"return {n}")

    # Assemble: prologue, optionally fault-protected body, epilogue.
    src = ["def _sb(task, charge):"]
    src.append("    regs = task.regs")
    if e.regs:
        src.append("    g = regs.gpr")
    if e.uses_mem:
        src.append("    mem = task.mem")
        body = "\n".join(e.lines)
        src += [f"    {t} = mem.{t}" for t in ("rd", "wr") if f"{t}.get(" in body]
    if uses_gs:
        src.append("    gs = regs.gs_base")
    for r in sorted(e.regs):
        src.append(f"    r{r} = g[{r}]")
    if e.load_flags:
        src.append("    zf = regs.zf")
        src.append("    lt = regs.lt")
    if has_store:
        src.append("    _e = mem.code_epoch")
    if can_fault:
        src.append("    try:")
        src.extend(e.lines)
        src.append("    except BaseException:")
        for line in e.spill("        "):
            src.append(line)
        src.append("        regs.rip = _f[0]")
        src.append("        charge(task, _f[1])")
        src.append("        task.sb_fault = _f[2]")
        src.append("        raise")
    else:
        src.extend(line[4:] for line in e.lines)

    ns = dict(ACCESS_NAMES, **e.consts)
    if guarded:
        ns["_xsave"] = xsave_serialize
        ns["_xrstor"] = xrstor_apply
    exec(compile("\n".join(src), f"<superblock:{head:#x}>", "exec"), ns)
    fn = ns["_sb"]
    total = running
    return SuperBlock(
        head, n, fn, p0, gens.get(p0, 0), p1, gens.get(p1, 0), total
    )
