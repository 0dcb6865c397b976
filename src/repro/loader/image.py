"""Program images — the simulator's executable file format.

A :class:`ProgramImage` is the ELF stand-in: named segments with load
addresses and permissions, an entry point, and a symbol table.  Images are
usually produced from an :class:`~repro.arch.encode.Assembler` via
:func:`image_from_assembler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.encode import Assembler
from repro.mem.pages import Perm


@dataclass(frozen=True)
class Segment:
    """One loadable segment."""

    addr: int
    data: bytes
    perm: Perm
    name: str = ""


@dataclass
class ProgramImage:
    """A loadable program."""

    name: str
    segments: list[Segment]
    entry: int
    symbols: dict[str, int] = field(default_factory=dict)

    def text_segments(self) -> list[Segment]:
        return [seg for seg in self.segments if seg.perm & Perm.X]


def image_from_assembler(
    name: str,
    asm: Assembler,
    *,
    entry: str | int = 0,
    extra_segments: list[Segment] | None = None,
    text_perm: Perm = Perm.RX,
) -> ProgramImage:
    """Build an image whose text segment is ``asm``'s output.

    ``entry`` may be a label name or an absolute address (0 = text base).
    All assembler labels become symbols.
    """
    code = asm.assemble()
    if isinstance(entry, str):
        entry_addr = asm.address_of(entry)
    else:
        entry_addr = entry or asm.base
    symbols = {label: asm.base + off for label, off in asm._labels.items()}
    segments = [Segment(asm.base, code, text_perm, name=".text")]
    if extra_segments:
        segments.extend(extra_segments)
    return ProgramImage(name, segments, entry_addr, symbols)
