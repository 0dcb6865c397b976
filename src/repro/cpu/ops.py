"""One table of instruction semantics, read by both interpreter tiers and by
``reg_effects``.

Each :class:`Mnemonic` has one :class:`Row`, which states once:

* **operands**: a name and a role for each decoder operand, in decoder
  order (see :mod:`repro.arch.decode`; a ``48``-namespace instruction's
  order is its row in :data:`repro.arch.isa.EXT_ROWS`), plus the implicit
  ones (``rsp`` of the stack ops, the x87 stack ``st``).  Register roles
  are a kind — ``g`` (GPR), ``x`` (xmm), ``xy`` (xmm plus its ymm high
  half), ``st`` — and an access, ``r``, ``w`` or ``rw``.  Value roles
  are ``imm`` (a signed immediate, used as its 64-bit two's complement),
  ``count`` (a shift count, used mod 64), ``disp`` (a signed
  displacement), ``rel`` (a branch displacement, used as the absolute
  target) and ``id``;
* **effect**: a template over the operand names, one statement per line;
* **flags**: ``None``, ``"result"`` (``zf``/``lt`` of the value left in
  ``d``) or ``"cmp"`` (the signed comparison of ``d`` with ``s``);
* **mem**: ``None``, ``"load"`` or ``"store"`` (gs-relative rows are the
  ones whose effect names ``{gs}``);
* **block**: ``"straight"`` (tier 2 compiles it), ``"inner"`` (compiles,
  but never heads a block: ``nop`` and the xstate ops), ``"term"``
  (compiled in as a block's last instruction) or ``"tier1"`` (ends a
  block before it; it always single-steps).

Four things are generated from the table: the tier-1 handlers
(:func:`dispatch`), the tier-2 footprint and emission
(:func:`render_tier2`, used by :func:`repro.cpu.superblock.compile_block`),
the block classification (:data:`repro.cpu.superblock.ENDS_RUN` and the
run decoder) and :func:`repro.cpu.hooks.reg_effects`.  This is the
``@arguments``/``setup_insns`` idiom of PyPy's blackhole interpreter
(SNIPPETS.md 2-3): operand codes declared once, handlers generated.

A template is Python over named placeholders.  ``{d}`` is an operand;
``{d:flip}`` is its value with the sign bit flipped (so an unsigned
``<`` compares signed), ``{d:signed}`` its two's-complement value and
``{d:y}`` the ymm half of an ``xy`` operand.  ``{zf}``, ``{lt}``,
``{rip}``, ``{gs}`` (the gs base), ``{next}`` (the next instruction's
address) and the constants ``{M64}``, ``{M128}`` and ``{SBIT}`` render
per tier; ``mem`` and ``regs`` are bound in both.  Tier 1 renders a GPR
as ``g[d]`` over ``task.regs.gpr``; tier 2 renders it as the block's
register local ``r<n>`` and bakes immediates in.  A line ``{x} = ...``
writes ``x``.  Every template that writes a GPR or an xmm register
leaves a masked value, so tier 1 stores straight into the register file.

A line that is one fixed-width access, ``x = mem.read_u64(addr)`` or
``mem.write_u8(addr, v)`` (``u8``, ``u32``, ``u64``), is the one fast
path of guest memory in both tiers: it renders as a lookup of the page in
the address space's ``rd`` or ``wr`` map (see
:mod:`repro.mem.address_space`) plus an ``unpack_from``/``pack_into`` on
the page's bytearray, with the typed accessor as the fallback for every
access the map does not admit (:func:`inline_access`).  A stored value is
in range by construction (registers hold masked values), so the inline
store does not mask it again.  Tier 2 puts a store's side exit in that
fallback branch: a page in ``wr`` holds no code, so only the fallback can
bump ``code_epoch``.

An effect of ``None`` marks the ops no template expresses: the
environment calls (``syscall``/``sysenter``, ``hcall``, ``hlt``), the
traps (``int3``, ``ud2``), xsave/xrstor (their cost and the tier-2 guard
depend on the task's xstate components) and ``faddp``.  Their handlers
live in :mod:`repro.cpu.core`, and tier 2 emits xsave/xrstor by hand.

Adding an ALU op is a :class:`Mnemonic` member, a cost entry in
:mod:`repro.cpu.costs`, one row here, one encoding row in
:data:`repro.arch.isa.EXT_ROWS` and one ``Assembler`` one-liner in
:mod:`repro.arch.encode`; the decoder and the text assembler need no
edit.
"""

from __future__ import annotations

import re
import struct

from repro.arch.isa import Mnemonic
from repro.arch.registers import RAX, RSP, SYSCALL_ARG_REGS, SYSCALL_CLOBBERS

M = Mnemonic
M64 = (1 << 64) - 1
SBIT = 1 << 63
_CONSTS = {"M64": str(M64), "M128": str((1 << 128) - 1), "SBIT": str(SBIT)}

#: The lines of each flags rule.  ``cmp`` relies on
#: a <s b  <=>  (a ^ 2^63) <u (b ^ 2^63); equality is unaffected.
FLAGS = {
    "result": ("{zf} = {d} == 0", "{lt} = {d} >= {SBIT}"),
    "cmp": ("{zf} = {d} == {s}", "{lt} = {d:flip} < {s:flip}"),
}

#: Implicit operands: their fixed register (``st`` has none).
_IMPLICIT_REG = {"rsp": RSP, "st": None}
_REG_KINDS = ("g", "x", "xy", "st")
_LHS = re.compile(r"\{(\w+)\} = (.*)")

_ALL_XSTATE = frozenset(
    [("x", i) for i in range(16)] + [("y", i) for i in range(16)] + [("st",)]
)


class Row:
    """The semantics of one mnemonic (see the module docstring)."""

    __slots__ = ("mnemonic", "operands", "lines", "flags", "mem", "block",
                 "gs", "reads_flags", "zeroing", "gprs", "reads", "writes",
                 "fixed_reads", "fixed_writes")

    def __init__(self, m, operands, effect, flags, mem, block, zeroing,
                 reads, writes):
        self.mnemonic = m
        #: ``(name, kind, access, slot)``: ``slot`` is the decoder operand
        #: index, ``None`` for an implicit operand.
        self.operands = operands
        self.lines = (None if effect is None
                      else (effect,) if isinstance(effect, str) else effect)
        self.flags = flags
        self.mem = mem
        self.block = block
        text = " ".join(self.lines or ())
        self.gs = "{gs}" in text
        #: Only a Jcc's template reads a flag; the setters' lines are FLAGS.
        self.reads_flags = "{zf}" in text or "{lt}" in text
        #: ``reg_effects``: ``xor r, r`` / ``xorps x, x`` read nothing.
        self.zeroing = zeroing
        #: GPR operands as ``(slot, fixed register, written)``.
        self.gprs = tuple((slot, _IMPLICIT_REG.get(name), "w" in acc)
                          for name, kind, acc, slot in operands if kind == "g")
        #: ``reg_effects``: register ids as ``(kind, slot)`` pairs, and
        #: the fixed ones (implicit operands, the syscall ABI, xstate).
        slots = {"r": [], "w": []}
        fixed = {"r": set(reads), "w": set(writes)}
        for name, kind, acc, slot in operands:
            if kind not in _REG_KINDS:
                continue
            for a in acc:
                if kind == "st":
                    fixed[a].add(("st",))
                elif slot is None:
                    fixed[a].add((kind, _IMPLICIT_REG[name]))
                else:
                    slots[a].extend((k, slot) for k in
                                    (("x", "y") if kind == "xy" else (kind,)))
        self.reads, self.writes = tuple(slots["r"]), tuple(slots["w"])
        self.fixed_reads = frozenset(fixed["r"])
        self.fixed_writes = frozenset(fixed["w"])


def _row(m, operands="", effect=None, *, implicit="", flags=None, mem=None,
         block="straight", zeroing=False, reads=(), writes=()):
    ops = []
    for item, slot in [*((o, i) for i, o in enumerate(operands.split())),
                       *((o, None) for o in implicit.split())]:
        name, role = item.split(":")
        kind, _, acc = role.partition(".")
        ops.append((name, kind, acc, slot))
    return Row(m, tuple(ops), effect, flags, mem, block, zeroing, reads,
               writes)


_ADDR = "({b} + {disp}) & {M64}"
_GS_ADDR = "({gs} + {disp}) & {M64}"
_PUSH_NEXT = ("mem.write_u64(({rsp} - 8) & {M64}, {next})",
              "{rsp} = ({rsp} - 8) & {M64}")


def _jcc(m, cond):
    return _row(m, "t:rel", f"{{rip}} = {{t}} if {cond} else {{next}}",
                block="term")


_TABLE = [
    _row(M.NOP, effect=(), block="inner"),
    _row(M.RET, effect=("_v = mem.read_u64({rsp})",
                        "{rsp} = ({rsp} + 8) & {M64}",
                        "{rip} = _v"),
         implicit="rsp:g.rw", mem="load", block="term"),
    _row(M.HLT, block="tier1"),
    _row(M.INT3, block="tier1"),
    _row(M.SYSCALL, block="tier1",
         reads=[("g", r) for r in (RAX, *SYSCALL_ARG_REGS)],
         writes=[("g", r) for r in SYSCALL_CLOBBERS]),
    _row(M.SYSENTER, block="tier1",
         reads=[("g", r) for r in (RAX, *SYSCALL_ARG_REGS)],
         writes=[("g", r) for r in SYSCALL_CLOBBERS]),
    _row(M.UD2, block="tier1"),
    _row(M.PUSH, "s:g.r", ("_v = {s}",
                           "mem.write_u64(({rsp} - 8) & {M64}, _v)",
                           "{rsp} = ({rsp} - 8) & {M64}"),
         implicit="rsp:g.rw", mem="store"),
    _row(M.POP, "d:g.w", ("_v = mem.read_u64({rsp})",
                          "{rsp} = ({rsp} + 8) & {M64}",
                          "{d} = _v"),
         implicit="rsp:g.rw", mem="load"),
    _row(M.CALL_REG, "t:g.r", (*_PUSH_NEXT, "{rip} = {t}"),
         implicit="rsp:g.rw", mem="store", block="term"),
    _row(M.JMP_REG, "t:g.r", "{rip} = {t}", block="term"),
    _row(M.CALL_REL, "t:rel", (*_PUSH_NEXT, "{rip} = {t}"),
         implicit="rsp:g.rw", mem="store", block="term"),
    _row(M.JMP_REL, "t:rel", "{rip} = {t}", block="term"),
    _jcc(M.JZ, "{zf}"),
    _jcc(M.JNZ, "not {zf}"),
    _jcc(M.JL, "{lt}"),
    _jcc(M.JG, "not {lt} and not {zf}"),
    _jcc(M.JGE, "not {lt}"),
    _jcc(M.JLE, "{lt} or {zf}"),
    _row(M.MOV_IMM64, "d:g.w i:imm", "{d} = {i}"),
    _row(M.MOV, "d:g.w s:g.r", "{d} = {s}"),
    _row(M.LOAD, "d:g.w b:g.r disp:disp", f"{{d}} = mem.read_u64({_ADDR})",
         mem="load"),
    _row(M.STORE, "b:g.r disp:disp s:g.r", f"mem.write_u64({_ADDR}, {{s}})",
         mem="store"),
    _row(M.LOAD8, "d:g.w b:g.r disp:disp", f"{{d}} = mem.read_u8({_ADDR})",
         mem="load"),
    _row(M.STORE8, "b:g.r disp:disp s:g.r",
         f"mem.write_u8({_ADDR}, {{s}} & 0xFF)", mem="store"),
    _row(M.ADD, "d:g.rw s:g.r", "{d} = ({d} + {s}) & {M64}", flags="result"),
    _row(M.SUB, "d:g.rw s:g.r", "{d} = ({d} - {s}) & {M64}", flags="result"),
    _row(M.CMP, "d:g.r s:g.r", (), flags="cmp"),
    _row(M.AND, "d:g.rw s:g.r", "{d} = {d} & {s}", flags="result"),
    _row(M.OR, "d:g.rw s:g.r", "{d} = {d} | {s}", flags="result"),
    _row(M.XOR, "d:g.rw s:g.r", "{d} = {d} ^ {s}", flags="result",
         zeroing=True),
    _row(M.IMUL, "d:g.rw s:g.r", "{d} = ({d:signed} * {s:signed}) & {M64}",
         flags="result"),
    _row(M.SHL, "d:g.rw c:count", "{d} = ({d} << {c}) & {M64}",
         flags="result"),
    _row(M.SHR, "d:g.rw c:count", "{d} = {d} >> {c}", flags="result"),
    _row(M.ADDI, "d:g.rw i:imm", "{d} = ({d} + {i}) & {M64}", flags="result"),
    _row(M.SUBI, "d:g.rw i:imm", "{d} = ({d} - {i}) & {M64}", flags="result"),
    _row(M.CMPI, "d:g.r s:imm", (), flags="cmp"),
    _row(M.ANDI, "d:g.rw i:imm", "{d} = {d} & {i}", flags="result"),
    _row(M.ORI, "d:g.rw i:imm", "{d} = {d} | {i}", flags="result"),
    _row(M.XORI, "d:g.rw i:imm", "{d} = {d} ^ {i}", flags="result"),
    _row(M.INC, "d:g.rw", "{d} = ({d} + 1) & {M64}", flags="result"),
    _row(M.DEC, "d:g.rw", "{d} = ({d} - 1) & {M64}", flags="result"),
    _row(M.LEA, "d:g.w b:g.r disp:disp", f"{{d}} = {_ADDR}"),
    _row(M.MOVQ_XG, "d:x.w s:g.r", "{d} = {s}", block="tier1"),
    _row(M.MOVQ_GX, "d:g.w s:x.r", "{d} = {s} & {M64}", block="tier1"),
    _row(M.MOVUPS_LOAD, "d:x.w b:g.r disp:disp",
         f"{{d}} = int.from_bytes(mem.read({_ADDR}, 16), 'little')",
         mem="load", block="tier1"),
    _row(M.MOVUPS_STORE, "b:g.r disp:disp s:x.r",
         f"mem.write({_ADDR}, {{s}}.to_bytes(16, 'little'))",
         mem="store", block="tier1"),
    _row(M.MOVAPS, "d:x.w s:x.r", "{d} = {s}", block="tier1"),
    _row(M.PUNPCKLQDQ, "d:x.rw s:x.r",
         "{d} = ({d} & {M64}) | (({s} & {M64}) << 64)", block="tier1"),
    _row(M.XORPS, "d:x.rw s:x.r", "{d} = {d} ^ {s}", block="tier1",
         zeroing=True),
    # Lane-wise 64-bit add; also adds the AVX high halves.
    _row(M.VADDPD, "d:xy.rw s:xy.r",
         ("{d} = ((({d} & {M64}) + ({s} & {M64})) & {M64})"
          " | ((((({d} >> 64) & {M64}) + (({s} >> 64) & {M64})) & {M64}) << 64)",
          "{d:y} = ({d:y} + {s:y}) & {M128}"),
         block="tier1"),
    _row(M.FLD1, "", "regs.x87_push(0x3FF0000000000000)",  # 1.0
         implicit="st:st.w", block="tier1"),
    _row(M.FADDP, implicit="st:st.rw", block="tier1"),
    _row(M.FLD_MEM, "b:g.r disp:disp", (f"_v = mem.read_u64({_ADDR})",
                                        "regs.x87_push(_v)"),
         implicit="st:st.w", mem="load", block="tier1"),
    _row(M.FSTP_MEM, "b:g.r disp:disp",
         f"mem.write_u64({_ADDR}, regs.x87_pop())",
         implicit="st:st.rw", mem="store", block="tier1"),
    _row(M.XSAVE, "b:g.r disp:disp", mem="store", block="inner",
         reads=_ALL_XSTATE),
    _row(M.XRSTOR, "b:g.r disp:disp", mem="load", block="inner",
         writes=_ALL_XSTATE),
    _row(M.RDGSBASE, "d:g.w", "{d} = {gs} & {M64}", block="tier1"),
    _row(M.WRGSBASE, "s:g.r", "{gs} = {s}", block="tier1"),
    _row(M.GSLOAD, "d:g.w disp:disp", f"{{d}} = mem.read_u64({_GS_ADDR})",
         mem="load"),
    _row(M.GSSTORE, "disp:disp s:g.r", f"mem.write_u64({_GS_ADDR}, {{s}})",
         mem="store"),
    _row(M.GSLOAD8, "d:g.w disp:disp", f"{{d}} = mem.read_u8({_GS_ADDR})",
         mem="load"),
    _row(M.GSSTORE8, "disp:disp s:g.r",
         f"mem.write_u8({_GS_ADDR}, {{s}} & 0xFF)", mem="store"),
    # The interposer's sigreturn-trampoline glue: register-transparent.
    _row(M.GSJMP, "disp:disp", f"{{rip}} = mem.read_u64({_GS_ADDR})",
         mem="load", block="tier1"),
    _row(M.GSCOPY8, "dst:disp src:disp",
         ("_v = mem.read_u8(({gs} + {src}) & {M64})",
          "mem.write_u8(({gs} + {dst}) & {M64}, _v)"),
         mem="store", block="tier1"),
    _row(M.RDPKRU, "d:g.w", "{d} = regs.pkru", block="tier1"),
    _row(M.WRPKRU, "s:g.r", ("regs.pkru = {s} & 0xFFFFFFFF",
                             "mem.active_pkru = regs.pkru"), block="tier1"),
    _row(M.GSWRPKRU, "disp:disp", (f"regs.pkru = mem.read_u32({_GS_ADDR})",
                                   "mem.active_pkru = regs.pkru"),
         mem="load", block="tier1"),
    _row(M.HCALL, "id:id", block="tier1"),
]

#: ``ROWS[mnemonic.op_index]`` -> :class:`Row`.
ROWS: tuple[Row, ...] = tuple(_TABLE)
assert [r.mnemonic for r in ROWS] == list(Mnemonic), "one row per mnemonic"
del _TABLE


# ----------------------------------------------------------------- rendering
class _Val:
    """One placeholder's rendering: ``text``, plus the ``flip``/``signed``/
    ``y`` format specs."""

    __slots__ = ("text", "flip", "y")

    def __init__(self, text, flip=None, y=None):
        self.text = text
        self.flip = flip if flip is not None else f"({text} ^ {SBIT})"
        self.y = y

    def __format__(self, spec):
        if not spec:
            return self.text
        if spec == "signed":
            t = self.text
            return f"({t} if {t} < {SBIT} else {t} - {1 << 64})"
        return getattr(self, spec)


#: A template line that is one guest access of a fixed width:
#: ``<target> = mem.read_<k>(<addr>)`` or ``mem.write_<k>(<addr>, <value>)``.
_ACCESS = re.compile(r"(?:(?P<target>.+) = )?mem\.(?P<op>read|write)_"
                     r"(?P<kind>u8|u32|u64)\((?P<addr>[^,]+)(?:, (?P<value>.+))?\)")
_SIZE = {"u8": 1, "u32": 4, "u64": 8}
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: Globals of the generated code of both tiers: the inline accesses'
#: unpackers and packers.
ACCESS_NAMES = {"_ld32": _U32.unpack_from, "_ld64": _U64.unpack_from,
                "_st32": _U32.pack_into, "_st64": _U64.pack_into}


def inline_access(table, addr, size, hit, miss):
    """Source lines of one guest access of ``size`` bytes at ``addr``.

    ``table`` names the page map to look the page up in (the address
    space's ``rd`` or ``wr``).  When the access lies inside one page of
    that map, the ``hit`` lines run with ``_p``, the page's bytearray,
    and ``_o``, the offset in it; otherwise the ``miss`` lines run (the
    typed accessor, which takes the general path: straddles, unmapped,
    executable and pkey pages, faults).
    """
    # Deferred: the memory layer imports tier 2, which imports this module.
    from repro.mem.pages import PAGE_SHIFT, PAGE_SIZE

    fits = "" if size == 1 else f"_o <= {PAGE_SIZE - size} and "
    return [f"_a = {addr}", f"_o = _a & {PAGE_SIZE - 1}",
            f"if {fits}(_p := {table}.get(_a >> {PAGE_SHIFT})) is not None:",
            *("    " + line for line in hit), "else:",
            *("    " + line for line in miss)]


def _render(lines, env, lvalue=None, maps=None, on_miss=()):
    """Render template ``lines`` under ``env``; ``lvalue(name)``, when
    given, renders (and records) each ``{name} = ...`` target itself.

    With ``maps``, the names of the ``(rd, wr)`` page maps, each access
    line renders inline (:func:`inline_access`).  ``on_miss`` lines follow
    a store's fallback, after the rest of the instruction, which then
    renders into both branches.
    """
    out = []
    for i, line in enumerate(lines):
        acc = _ACCESS.fullmatch(line) if maps is not None else None
        if acc is not None:
            kind = acc["kind"]
            addr = acc["addr"].format_map(env)
            if acc["op"] == "read":
                # No terminator loads into an operand, so no ``lvalue``.
                target = acc["target"].format_map(env)
                hit = (f"{target} = _p[_o]" if kind == "u8"
                       else f"{target} = _ld{kind[1:]}(_p, _o)[0]")
                miss = f"{target} = mem.read_{kind}(_a)"
                table = maps[0]
                tail = ()
            else:
                value = acc["value"].format_map(env)
                hit = (f"_p[_o] = {value}" if kind == "u8"
                       else f"_st{kind[1:]}(_p, _o, {value})")
                miss = f"mem.write_{kind}(_a, {value})"
                table = maps[1]
                tail = on_miss
            rest = []
            if tail:
                rest = _render(lines[i + 1:], env, lvalue, maps)
            out += inline_access(table, addr, _SIZE[kind], [hit, *rest],
                                 [miss, *rest, *tail])
            if tail:
                return out
            continue
        lhs = _LHS.fullmatch(line) if lvalue is not None else None
        if lhs is not None and lhs.group(1) in env:
            rhs = lhs.group(2).format_map(env)
            out.append(f"{lvalue(lhs.group(1))} = {rhs}")
        else:
            out.append(line.format_map(env))
    return out


#: Value roles that transform their operand: tier 1's prologue statement
#: over the operand's local, and tier 2's function of ``(value, next)``.
_VALUES = {
    "imm": ("{0} = {0} & " + str(M64), lambda v, nxt: v & M64),
    "count": ("{0} = {0} & 63", lambda v, nxt: v & 63),
    "rel": ("{0} = (next_rip + {0}) & " + str(M64),
            lambda v, nxt: (nxt + v) & M64),
}


# Tier 1 ----------------------------------------------------------------------
_TIER1_NAMES = {
    "zf": _Val("regs.zf"), "lt": _Val("regs.lt"), "rip": _Val("regs.rip"),
    "gs": _Val("regs.gs_base"), "next": _Val("next_rip"), **_CONSTS,
}


def _tier1_def(row) -> str:
    """Source of the tier-1 handler ``handler(cpu, task, insn, next_rip)``
    of a templated row (``regs.rip`` is already ``next_rip``)."""
    env = dict(_TIER1_NAMES)
    prologue = []
    names = [name for name, _, _, slot in row.operands if slot is not None]
    if names:
        comma = "," if len(names) == 1 else ""
        prologue.append(f"{', '.join(names)}{comma} = insn.operands")
    for name, kind, _acc, slot in row.operands:
        if kind == "g":
            env[name] = _Val(f"g[{name if slot is not None else RSP}]")
        elif kind in ("x", "xy"):
            env[name] = _Val(f"xmm[{name}]", y=f"ymm[{name}]")
        elif kind != "st":
            env[name] = _Val(name)
            if kind in _VALUES:
                prologue.append(_VALUES[kind][0].format(name))
    body = _render(row.lines + FLAGS.get(row.flags, ()), env,
                   maps=("mem.rd", "mem.wr"))
    text = "\n".join(body)
    uses = {n for n in ("g", "xmm", "ymm", "mem", "regs")
            if re.search(rf"\b{n}\b", text)}
    if uses & {"g", "xmm", "ymm", "regs"}:
        prologue.append("regs = task.regs")
    prologue += [f"{n} = regs.{attr}" for n, attr in
                 (("g", "gpr"), ("xmm", "xmm"), ("ymm", "ymm_high"))
                 if n in uses]
    if "mem" in uses:
        prologue.append("mem = task.mem")
    src = [f"def _op_{row.mnemonic.value}(cpu, task, insn, next_rip):"]
    src += ["    " + line for line in prologue + body] or ["    pass"]
    return "\n".join(src)


def dispatch(hand_written: dict) -> list:
    """The dense tier-1 dispatch list, ``DISPATCH[op_index] -> handler``:
    ``hand_written[mnemonic]`` for the rows without a template, a handler
    generated from the template (all in one ``compile``) for the rest."""
    rows = [r for r in ROWS if r.lines is not None]
    assert not {r.mnemonic for r in rows} & set(hand_written)
    ns = dict(ACCESS_NAMES)
    exec(compile("\n\n".join(_tier1_def(r) for r in rows), "<tier1>", "exec"),
         ns)
    table = [hand_written.get(r.mnemonic) or ns.get(f"_op_{r.mnemonic.value}")
             for r in ROWS]
    assert all(fn is not None for fn in table), "mnemonic without handler"
    return table


# Tier 2 ----------------------------------------------------------------------
_TIER2_NAMES = {
    "zf": _Val("zf"), "lt": _Val("lt"), "rip": _Val("regs.rip"),
    "gs": _Val("gs"), **_CONSTS,
}


def render_tier2(row, operands, next_addr: int, term: bool, on_miss=()):
    """Tier-2 source of one instruction of ``row``.

    Returns ``(lines, flag_lines, flag_refs)``.  GPRs render as the
    block's register locals and values are baked in; memory accesses
    render inline over the block's ``rd``/``wr`` locals, and ``on_miss``
    (the block's side exit) follows a store's fallback.  In a terminator
    (``term``), which runs after the block has spilled, a written GPR
    goes straight to ``g[n]`` and later reads of it in the same
    instruction read ``g[n]`` too.
    """
    env = dict(_TIER2_NAMES)
    env["next"] = _Val(str(next_addr))
    regs = {}
    for name, kind, _acc, slot in row.operands:
        if kind == "g":
            r = operands[slot] if slot is not None else RSP
            regs[name] = r
            env[name] = _Val(f"r{r}")
        elif kind in _VALUES:
            v = _VALUES[kind][1](operands[slot], next_addr)
            env[name] = _Val(str(v), flip=str(v ^ SBIT))
        elif kind not in _REG_KINDS:
            env[name] = _Val(str(operands[slot]))

    lvalue = None
    if term:
        def lvalue(name):
            if name not in regs:
                return format(env[name])
            text = f"g[{regs[name]}]"
            for other, r in regs.items():  # ``call rsp`` aliases its target
                if r == regs[name]:
                    env[other] = _Val(text)
            return text

    lines = _render(row.lines, env, lvalue, ("rd", "wr"), on_miss)
    if row.flags is None:
        return lines, (), ()
    flag_lines = _render(FLAGS[row.flags], env)
    refs = ("d",) if row.flags == "result" else ("d", "s")
    return lines, flag_lines, [regs[n] for n in refs if n in regs]
