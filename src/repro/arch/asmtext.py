"""A text front-end for the assembler.

``assemble_text`` turns an Intel-flavoured listing into machine code via
the :class:`~repro.arch.encode.Assembler` builder::

    asm = assemble_text('''
    _start:
        mov rax, 39          ; getpid
        syscall
        mov rdi, rax
        mov rax, 231         ; exit_group
        syscall
    msg:
        .asciz "hello"
    ''', base=0x400000)
    code = asm.assemble()

Supported operand forms:

* registers (``rax`` … ``r15``, ``xmm0`` … ``xmm15``),
* immediates (decimal, ``0x`` hex, negative) and label references,
* memory ``[reg]``, ``[reg+disp]``, ``[reg-disp]``,
* gs-relative memory ``gs:[disp]``.

Directives: ``.ascii``/``.asciz`` (with the usual escapes), ``.byte``,
``.quad`` (values or labels), ``.align``.  Comments start with ``;`` or
``#``.  Byte-sized moves use the ``movb`` mnemonic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.arch.encode import Assembler
from repro.arch.isa import EXT_ROWS, Mnemonic
from repro.arch.registers import GPR_INDEX, XMM_INDEX
from repro.errors import AssemblerError

_MEM_RE = re.compile(r"^\[\s*(\w+)\s*(?:([+-])\s*(\w+)\s*)?\]$")
_GS_RE = re.compile(r"^gs:\[\s*([^\]]+)\s*\]$")
_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):(.*)$")


@dataclass(frozen=True)
class Gpr:
    index: int


@dataclass(frozen=True)
class Xmm:
    index: int


@dataclass(frozen=True)
class Imm:
    value: int


@dataclass(frozen=True)
class LabelRef:
    name: str


@dataclass(frozen=True)
class Mem:
    base: int
    disp: int


@dataclass(frozen=True)
class GsMem:
    disp: int


def _parse_int(text: str) -> int | None:
    try:
        return int(text.strip(), 0)
    except ValueError:
        return None


def parse_operand(text: str):
    """Parse one operand into a typed wrapper."""
    text = text.strip()
    low = text.lower()
    if low in GPR_INDEX:
        return Gpr(GPR_INDEX[low])
    if low in XMM_INDEX:
        return Xmm(XMM_INDEX[low])
    gs = _GS_RE.match(low)
    if gs:
        disp = _parse_int(gs.group(1))
        if disp is None:
            raise AssemblerError(f"bad gs displacement in {text!r}")
        return GsMem(disp)
    mem = _MEM_RE.match(low)
    if mem:
        base_name, sign, disp_text = mem.groups()
        if base_name not in GPR_INDEX:
            raise AssemblerError(f"bad base register in {text!r}")
        disp = 0
        if disp_text is not None:
            value = _parse_int(disp_text)
            if value is None:
                raise AssemblerError(f"bad displacement in {text!r}")
            disp = -value if sign == "-" else value
        return Mem(GPR_INDEX[base_name], disp)
    value = _parse_int(text)
    if value is not None:
        return Imm(value)
    if re.fullmatch(r"[A-Za-z_.$][\w.$]*", text):
        return LabelRef(text)
    raise AssemblerError(f"cannot parse operand {text!r}")


def _split_operands(rest: str) -> list:
    if not rest.strip():
        return []
    parts = []
    depth = 0
    current = ""
    for ch in rest:
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        current += ch
    parts.append(current)
    return [parse_operand(p) for p in parts]


def _unescape(raw: str) -> bytes:
    return raw.encode("utf-8").decode("unicode_escape").encode("latin-1")


def _signature(kinds: str) -> str:
    """The text operand signature of a row's decoded field kinds: a ``g``
    base followed by its ``d`` is one ``[mem]`` (``m``), ``u`` is
    ``gs:[disp]`` (``s``), and ``i``, ``c`` and ``h`` are immediates."""
    return (kinds.replace("gd", "m").replace("u", "s")
            .replace("c", "i").replace("h", "i"))


def _ext_form(mnemonic: Mnemonic):
    return lambda asm, *args: asm._ext(mnemonic, *args)


#: ``(text name, operand signature)`` -> ``emit(asm, *args)``.  Signature
#: letters: ``g`` register, ``x`` xmm register, ``m`` ``[mem]``, ``s``
#: ``gs:[disp]``, ``i`` immediate, ``l`` label.  Only the fixed x86
#: encodings are listed by hand; every ``48``-namespace form is a row.
_FORMS = {
    **{(m, ""): getattr(Assembler, m) for m in
       ("nop", "ret", "hlt", "int3", "syscall", "sysenter", "ud2")},
    ("push", "g"): Assembler.push,
    ("pop", "g"): Assembler.pop,
    ("call", "g"): Assembler.call_reg,
    ("call", "l"): Assembler.call,
    ("jmp", "g"): Assembler.jmp_reg,
    ("jmp", "l"): Assembler.jmp,
    **{(m, "l"): getattr(Assembler, m) for m in
       ("jz", "jnz", "jl", "jg", "jge", "jle")},
    ("je", "l"): Assembler.jz,
    ("jne", "l"): Assembler.jnz,
    ("mov", "gi"): Assembler.mov_imm,
    ("mov", "gl"): Assembler.mov_imm,
}
for _row in EXT_ROWS:
    _key = (_row.text, _signature(_row.kinds))
    assert _key not in _FORMS, f"two text forms {_key}"
    _FORMS[_key] = _ext_form(_row.mnemonic)
del _row, _key

_SIG_LETTER = {Gpr: "g", Xmm: "x", Mem: "m", GsMem: "s", Imm: "i",
               LabelRef: "l"}
_SIG_WORDS = {"g": "register", "x": "xmm register", "m": "[mem]",
              "s": "gs:[disp]", "i": "immediate", "l": "label"}


def _args(op) -> tuple:
    """An operand's Assembler arguments (``[mem]`` is base and disp)."""
    if isinstance(op, Mem):
        return op.base, op.disp
    if isinstance(op, (Gpr, Xmm)):
        return (op.index,)
    if isinstance(op, GsMem):
        return (op.disp,)
    if isinstance(op, Imm):
        return (op.value,)
    return (op.name,)


class _Line:
    def __init__(self, number: int, text: str):
        self.number = number
        self.text = text

    def error(self, message: str) -> AssemblerError:
        return AssemblerError(f"line {self.number}: {message} ({self.text!r})")


def _emit(asm: Assembler, mnemonic: str, ops: list, line: _Line) -> None:
    m = mnemonic.lower()
    form = _FORMS.get((m, "".join(_SIG_LETTER[type(op)] for op in ops)))
    if form is not None:
        form(asm, *(arg for op in ops for arg in _args(op)))
        return
    sigs = [sig for name, sig in _FORMS if name == m]
    if not sigs:
        raise line.error(f"unknown mnemonic {mnemonic!r}")
    raise line.error(f"{m} takes " + " or ".join(
        f"({', '.join(_SIG_WORDS[c] for c in sig)})" if sig
        else "no operands" for sig in sigs))


def _emit_directive(asm: Assembler, directive: str, rest: str, line: _Line) -> None:
    if directive in (".ascii", ".asciz"):
        match = re.match(r'^\s*"(.*)"\s*$', rest, re.DOTALL)
        if not match:
            raise line.error(f"{directive} needs a quoted string")
        data = _unescape(match.group(1))
        if directive == ".asciz":
            data += b"\x00"
        asm.db(data)
        return
    if directive == ".byte":
        for part in rest.split(","):
            value = _parse_int(part)
            if value is None or not 0 <= value <= 0xFF:
                raise line.error(f"bad byte value {part.strip()!r}")
            asm.db(bytes((value,)))
        return
    if directive == ".quad":
        for part in rest.split(","):
            operand = parse_operand(part)
            if isinstance(operand, Imm):
                asm.dq(operand.value)
            elif isinstance(operand, LabelRef):
                asm.dq(operand.name)
            else:
                raise line.error(f"bad .quad value {part.strip()!r}")
        return
    if directive == ".align":
        value = _parse_int(rest)
        if value is None or value <= 0:
            raise line.error("bad .align value")
        asm.align(value, fill=0)
        return
    raise line.error(f"unknown directive {directive!r}")


def assemble_text(source: str, *, base: int = 0) -> Assembler:
    """Assemble a text listing; returns the populated Assembler.

    Call ``.assemble()`` on the result for the code bytes, or pass it to
    :func:`repro.loader.image.image_from_assembler`.
    """
    asm = Assembler(base=base)
    for number, raw in enumerate(source.splitlines(), start=1):
        # strip comments (naive: quotes containing ;/# are not supported
        # except inside .ascii, handled by stripping only outside quotes)
        text = raw
        in_string = False
        cut = None
        for i, ch in enumerate(text):
            if ch == '"':
                in_string = not in_string
            elif ch in ";#" and not in_string:
                cut = i
                break
        if cut is not None:
            text = text[:cut]
        text = text.strip()
        if not text:
            continue
        line = _Line(number, text)

        label_match = _LABEL_RE.match(text)
        if label_match:
            asm.label(label_match.group(1))
            text = label_match.group(2).strip()
            if not text:
                continue
            line = _Line(number, text)

        if text.startswith("."):
            parts = text.split(None, 1)
            _emit_directive(asm, parts[0], parts[1] if len(parts) > 1 else "",
                            line)
            continue

        parts = text.split(None, 1)
        mnemonic = parts[0]
        ops = _split_operands(parts[1]) if len(parts) > 1 else []
        _emit(asm, mnemonic, ops, line)
    return asm
