"""Pages and permissions."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

PAGE_SIZE = 4096
PAGE_SHIFT = 12


class Perm(enum.IntFlag):
    """Page permission bits, mmap-style."""

    NONE = 0
    R = 1
    W = 2
    X = 4
    RW = R | W
    RX = R | X
    RWX = R | W | X


#: Raw permission bits as plain ints.  ``Page.perm`` holds a plain int mask
#: too: with a ``Perm`` on the left, ``page.perm & PERM_X`` would still
#: dispatch to ``Perm.__and__`` and build a new flag on every access, even
#: though the right operand is an int.  ``Perm`` is only the public type
#: (``perm_at()``, ``regions()``).
PERM_R = int(Perm.R)
PERM_W = int(Perm.W)
PERM_X = int(Perm.X)


def page_align_down(addr: int) -> int:
    return addr & ~(PAGE_SIZE - 1)


def page_align_up(addr: int) -> int:
    return (addr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


@dataclass
class Page:
    """One 4 KiB page of guest memory.

    ``perm`` is a plain int mask of ``Perm`` bits.  ``pkey`` is the memory
    protection key (MPK) the page is tagged with; key 0 is the default,
    unrestricted key.
    """

    data: bytearray = field(default_factory=lambda: bytearray(PAGE_SIZE))
    perm: int = 0
    pkey: int = 0

    def copy(self) -> "Page":
        return Page(bytearray(self.data), self.perm, self.pkey)
