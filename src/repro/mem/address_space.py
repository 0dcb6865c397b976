"""The per-process virtual address space.

An :class:`AddressSpace` is a sparse mapping from page numbers to
:class:`~repro.mem.pages.Page` objects with R/W/X permissions.  Guest
accesses go through :meth:`read`, :meth:`write`, :meth:`fetch` and the
typed accessors (``read_u64``, ``write_u32``, ``read_cstr``, ...), which
raise :class:`~repro.errors.PageFault` on unmapped pages, permission
violations or protection-key denials — the kernel turns those into
SIGSEGV.  Kernel-side accesses pass ``check=None``: they bypass
permissions and protection keys, like the kernel touching user memory
does, and fault only on unmapped pages.

Two maps from page number to ``page.data`` are the one fast path of
every guest load and store: :attr:`AddressSpace.rd` holds the readable
pages with protection key 0, :attr:`AddressSpace.wr` the writable,
non-executable pages with key 0.  Every page-table edit (:meth:`map`,
:meth:`unmap`, :meth:`protect`, :meth:`assign_pkey`, :meth:`fork_copy`)
updates them eagerly; nothing fills them lazily and nothing caches a
permission anywhere else.  An access inside one page found in the map
for its check reads or writes that bytearray directly: the typed
accessors here, and the memory ops that both interpreter tiers inline
(see :mod:`repro.cpu.ops`).  Key 0 is never denied by the PKRU, so the
maps need no update when ``active_pkru`` changes; and a page in ``wr``
holds no code, so a store through it never bumps an exec generation.
Everything else falls back to the general path (:meth:`_access` plus a
per-page chunked copy): a zero length, a page-straddling access, an
unmapped page, a missing permission, an executable target of a store
(which bumps the page's exec generation), a page with a nonzero key,
``check="exec"``.  Only the general path raises
:class:`~repro.errors.PageFault` outside :meth:`fetch`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.cpu.superblock import BlockCache
from repro.errors import MapError, PageFault
from repro.mem.pages import (
    PAGE_SIZE,
    PAGE_SHIFT,
    PERM_R,
    PERM_W,
    PERM_X,
    Page,
    Perm,
    page_align_down,
    page_align_up,
)

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_OFFSET_MASK = PAGE_SIZE - 1
_M64 = (1 << 64) - 1


@dataclass(frozen=True)
class Region:
    """A maximal run of contiguous pages with identical permissions."""

    start: int
    end: int  # exclusive
    perm: Perm

    @property
    def size(self) -> int:
        return self.end - self.start

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.start:#x}-{self.end:#x} {self.perm.describe()}"


_ACCESS_BIT = {"read": PERM_R, "write": PERM_W, "exec": PERM_X}

class AddressSpace:
    """Sparse paged virtual memory for one process.

    Memory protection keys (Intel MPK): each page carries a ``pkey``; user
    accesses are additionally checked against ``active_pkru``, the PKRU
    value of the currently running task (two bits per key: bit ``2k``
    disables access, bit ``2k+1`` disables writes).  The scheduler loads
    ``active_pkru`` on every task switch, mirroring the per-thread PKRU
    register.  Kernel-side accesses (``check=None``) bypass PKU, like the
    kernel does.
    """

    #: Monotonic address-space id allocator.  Per-core translation caches
    #: are keyed by ``asid`` rather than ``id(self)`` so a recycled Python
    #: object id can never alias a dead space's cached decodes.
    _next_asid = 0

    def __init__(self):
        self._pages: dict[int, Page] = {}
        #: Page number -> ``page.data`` of every readable page with
        #: protection key 0, and of every writable, non-executable one
        #: (see the module docstring).  Kept in step with ``_pages`` by
        #: :meth:`_sync`; both interpreter tiers read them inline, so they
        #: are never rebound.
        self.rd: dict[int, bytearray] = {}
        self.wr: dict[int, bytearray] = {}
        self.active_pkru = 0
        self.allocated_pkeys: set[int] = set()
        self.asid = AddressSpace._next_asid
        AddressSpace._next_asid += 1
        #: SMP cross-core shootdown hook, bound by the scheduler the first
        #: time this space runs on a multi-core machine: called as
        #: ``hook(self, pn)`` whenever an executable page is invalidated,
        #: so other cores drop their privately cached decodes of it.
        #: ``None`` on single-core machines — zero extra work there.
        self.smp_shootdown = None
        #: Translation cache: insn address -> (insn, handler, cost, page,
        #: gen, page2, gen2).  Populated and validated by the CPU (see
        #: ``repro.cpu.core``); this class only invalidates.
        self.insn_cache: dict = {}
        #: Per-page generation counters backing the translation cache.
        #: Bumped on any write/protect/unmap touching an executable page.
        #: Kept here (not on Page) so a counter survives unmap -> remap of
        #: the same page number — a fresh Page restarting at generation 0
        #: could otherwise revalidate entries decoded from the old mapping.
        self.exec_gen: dict[int, int] = {}
        #: Tier-2 superblock cache (see :mod:`repro.cpu.superblock`).  On
        #: SMP machines the scheduler swaps this for the running core's
        #: private per-asid cache at slice start, exactly like
        #: ``insn_cache``.  A forked space starts fresh, so child blocks
        #: never alias the parent's pages (fork isolation for free).
        self.block_cache = BlockCache()
        #: Monotone counter bumped alongside *any* exec-page generation.
        #: Compiled blocks snapshot it on entry and re-check after each
        #: store, so a block whose own store hits executable memory
        #: side-exits instead of running possibly-stale downstream bytes.
        self.code_epoch = 0
        #: Observability hook armed by the scheduler: called as
        #: ``hook(self, pn, heads)`` when a generation bump flushes
        #: compiled blocks, so block_invalidate events can be emitted
        #: without this module knowing about tracers.
        self.block_flush_hook = None

    def _bump_exec_gen(self, pn: int) -> None:
        """Invalidate cached decodes for page ``pn``.

        Soundness: a cache entry exists only for pages that were executable
        at fetch time, so bumping on mutations of *currently executable*
        pages (plus any X-permission removal, which goes through
        :meth:`protect` or :meth:`unmap`) covers every way an entry can go
        stale.
        """
        gens = self.exec_gen
        gens[pn] = gens.get(pn, 0) + 1
        self.code_epoch += 1
        bc = self.block_cache
        if bc.blocks:
            # Eagerly drop every compiled block spanning the bumped page;
            # the per-page index makes this a set lookup, not a scan.  A
            # head indexed under its *other* page may linger as a stale
            # index entry — the ``pop(h, None)`` below tolerates that.
            heads = bc.index.pop(pn, None)
            if heads:
                blocks = bc.blocks
                dropped = []
                for h in heads:
                    b = blocks.pop(h, None)
                    if b is not None and b.fn is not None:
                        dropped.append(h)  # sentinels drop silently
                hook2 = self.block_flush_hook
                if dropped and hook2 is not None:
                    hook2(self, pn, dropped)
        hook = self.smp_shootdown
        if hook is not None:
            hook(self, pn)

    def _sync(self, pn: int, page: Page | None) -> None:
        """Bring page ``pn``'s entries in :attr:`rd` and :attr:`wr` in line
        with ``page`` (``None``: unmapped)."""
        perm = page.perm if page is not None and not page.pkey else 0
        if perm & PERM_R:
            self.rd[pn] = page.data
        else:
            self.rd.pop(pn, None)
        if perm & (PERM_W | PERM_X) == PERM_W:
            self.wr[pn] = page.data
        else:
            self.wr.pop(pn, None)

    # ------------------------------------------------------------- mapping
    def map(self, addr: int, length: int, perm: Perm, *, fixed: bool = True) -> int:
        """Map ``length`` bytes at page-aligned ``addr`` with ``perm``.

        Overlapping an existing mapping is an error (use :meth:`protect` to
        change permissions).  Returns the mapped address.
        """
        if addr % PAGE_SIZE:
            raise MapError(f"unaligned map address {addr:#x}")
        if length <= 0:
            raise MapError(f"bad map length {length}")
        first = addr >> PAGE_SHIFT
        count = page_align_up(length) >> PAGE_SHIFT
        for pn in range(first, first + count):
            if pn in self._pages:
                raise MapError(f"mapping overlap at {pn << PAGE_SHIFT:#x}")
        perm = int(perm)
        for pn in range(first, first + count):
            page = self._pages[pn] = Page(perm=perm)
            self._sync(pn, page)
        return addr

    def map_anywhere(self, length: int, perm: Perm, hint: int = 0x1000_0000) -> int:
        """Map ``length`` bytes at the first free region at/above ``hint``."""
        count = page_align_up(max(length, 1)) >> PAGE_SHIFT
        pn = page_align_down(hint) >> PAGE_SHIFT
        while True:
            if all(pn + i not in self._pages for i in range(count)):
                addr = pn << PAGE_SHIFT
                return self.map(addr, length, perm)
            pn += 1

    def unmap(self, addr: int, length: int) -> None:
        if addr % PAGE_SIZE:
            raise MapError(f"unaligned unmap address {addr:#x}")
        first = addr >> PAGE_SHIFT
        count = page_align_up(length) >> PAGE_SHIFT
        for pn in range(first, first + count):
            page = self._pages.pop(pn, None)
            self._sync(pn, None)
            if page is not None and page.perm & PERM_X:
                self._bump_exec_gen(pn)

    def protect(self, addr: int, length: int, perm: Perm) -> None:
        """Change permissions (mprotect).  All pages must be mapped."""
        if addr % PAGE_SIZE:
            raise MapError(f"unaligned protect address {addr:#x}")
        first = addr >> PAGE_SHIFT
        count = page_align_up(length) >> PAGE_SHIFT
        pages = []
        for pn in range(first, first + count):
            page = self._pages.get(pn)
            if page is None:
                raise MapError(f"protect of unmapped page {pn << PAGE_SHIFT:#x}")
            pages.append(page)
        perm = int(perm)
        for pn, page in zip(range(first, first + count), pages):
            if page.perm & PERM_X:
                self._bump_exec_gen(pn)
            page.perm = perm
            self._sync(pn, page)

    def is_mapped(self, addr: int, length: int = 1) -> bool:
        first = addr >> PAGE_SHIFT
        last = (addr + length - 1) >> PAGE_SHIFT
        return all(pn in self._pages for pn in range(first, last + 1))

    def perm_at(self, addr: int) -> Perm:
        page = self._pages.get(addr >> PAGE_SHIFT)
        return Perm(page.perm) if page is not None else Perm.NONE

    def regions(self) -> list[Region]:
        """Merged list of mapped regions, sorted by address."""
        result: list[Region] = []
        for pn in sorted(self._pages):
            page = self._pages[pn]
            start = pn << PAGE_SHIFT
            if result and result[-1].end == start and result[-1].perm == page.perm:
                prev = result.pop()
                result.append(Region(prev.start, start + PAGE_SIZE, prev.perm))
            else:
                result.append(Region(start, start + PAGE_SIZE, Perm(page.perm)))
        return result

    def executable_regions(self) -> list[Region]:
        return [r for r in self.regions() if r.perm & Perm.X]

    # -------------------------------------------------------------- access
    def _access(self, addr: int, length: int, access: str | None) -> None:
        if length <= 0:
            return
        bit = _ACCESS_BIT[access] if access else None
        first = addr >> PAGE_SHIFT
        last = (addr + length - 1) >> PAGE_SHIFT
        for pn in range(first, last + 1):
            page = self._pages.get(pn)
            if page is None:
                raise PageFault(max(addr, pn << PAGE_SHIFT), access or "read")
            if bit is not None:
                if not page.perm & bit:
                    raise PageFault(max(addr, pn << PAGE_SHIFT), access)
                if page.pkey and access in ("read", "write"):
                    shift = 2 * page.pkey
                    access_disable = self.active_pkru >> shift & 1
                    write_disable = self.active_pkru >> (shift + 1) & 1
                    if access_disable or (write_disable and access == "write"):
                        raise PageFault(
                            max(addr, pn << PAGE_SHIFT),
                            access,
                            message=(
                                f"pkey {page.pkey} forbids {access} at "
                                f"{max(addr, pn << PAGE_SHIFT):#x} "
                                f"(pkru={self.active_pkru:#x})"
                            ),
                        )

    def _read_general(self, addr: int, length: int, check: str | None) -> bytes:
        self._access(addr, length, check)
        out = bytearray()
        remaining = length
        pos = addr
        while remaining:
            pn = pos >> PAGE_SHIFT
            off = pos & _OFFSET_MASK
            chunk = min(remaining, PAGE_SIZE - off)
            out += self._pages[pn].data[off : off + chunk]
            pos += chunk
            remaining -= chunk
        return bytes(out)

    def _write_general(self, addr: int, data: bytes, check: str | None) -> None:
        self._access(addr, len(data), check)
        pos = addr
        idx = 0
        while idx < len(data):
            pn = pos >> PAGE_SHIFT
            off = pos & _OFFSET_MASK
            chunk = min(len(data) - idx, PAGE_SIZE - off)
            page = self._pages[pn]
            page.data[off : off + chunk] = data[idx : idx + chunk]
            # Any store into a currently executable page (kernel-side
            # check=None writes included — ptrace POKEDATA patches code this
            # way) invalidates its cached decodes.
            if page.perm & PERM_X:
                self._bump_exec_gen(pn)
            pos += chunk
            idx += chunk

    def read(self, addr: int, length: int, *, check: str | None = "read") -> bytes:
        """Read ``length`` bytes, enforcing ``check`` permission."""
        off = addr & _OFFSET_MASK
        if 0 < length <= PAGE_SIZE - off and (check == "read" or check is None):
            buf = self.rd.get(addr >> PAGE_SHIFT)
            if buf is not None:
                return bytes(buf[off : off + length])
        return self._read_general(addr, length, check)

    def write(self, addr: int, data: bytes, *, check: str | None = "write") -> None:
        """Write ``data``, enforcing ``check`` permission."""
        off = addr & _OFFSET_MASK
        length = len(data)
        if 0 < length <= PAGE_SIZE - off and (check == "write" or check is None):
            buf = self.wr.get(addr >> PAGE_SHIFT)
            if buf is not None:
                buf[off : off + length] = data
                return
        self._write_general(addr, data, check)

    def fetch(self, addr: int, length: int) -> bytes:
        """Instruction fetch: like read but requires execute permission.

        Truncates at the first unmapped/non-executable page boundary so the
        decoder can still decode a short instruction that ends exactly at a
        region boundary; an empty result means the very first byte faulted.
        """
        out = bytearray()
        pos = addr
        remaining = length
        while remaining:
            pn = pos >> PAGE_SHIFT
            page = self._pages.get(pn)
            if page is None or not page.perm & PERM_X:
                if not out:
                    raise PageFault(pos, "exec")
                break
            off = pos & _OFFSET_MASK
            chunk = min(remaining, PAGE_SIZE - off)
            out += page.data[off : off + chunk]
            pos += chunk
            remaining -= chunk
        return bytes(out)

    # ------------------------------------------------------ typed accessors
    # Each tries its map first (``rd`` for a read, ``wr`` for a write;
    # ``check=None`` uses them too, since the kernel may do whatever a
    # user access may), then falls back to the general path.
    def read_u8(self, addr: int, *, check: str | None = "read") -> int:
        if check == "read" or check is None:
            buf = self.rd.get(addr >> PAGE_SHIFT)
            if buf is not None:
                return buf[addr & _OFFSET_MASK]
        return self._read_general(addr, 1, check)[0]

    def write_u8(self, addr: int, value: int, *, check: str | None = "write") -> None:
        if check == "write" or check is None:
            buf = self.wr.get(addr >> PAGE_SHIFT)
            if buf is not None:
                buf[addr & _OFFSET_MASK] = value & 0xFF
                return
        self._write_general(addr, bytes((value & 0xFF,)), check)

    def read_u16(self, addr: int, *, check: str | None = "read") -> int:
        off = addr & _OFFSET_MASK
        if off <= PAGE_SIZE - 2 and (check == "read" or check is None):
            buf = self.rd.get(addr >> PAGE_SHIFT)
            if buf is not None:
                return _U16.unpack_from(buf, off)[0]
        return _U16.unpack(self._read_general(addr, 2, check))[0]

    def read_u32(self, addr: int, *, check: str | None = "read") -> int:
        off = addr & _OFFSET_MASK
        if off <= PAGE_SIZE - 4 and (check == "read" or check is None):
            buf = self.rd.get(addr >> PAGE_SHIFT)
            if buf is not None:
                return _U32.unpack_from(buf, off)[0]
        return _U32.unpack(self._read_general(addr, 4, check))[0]

    def write_u32(self, addr: int, value: int, *, check: str | None = "write") -> None:
        off = addr & _OFFSET_MASK
        if off <= PAGE_SIZE - 4 and (check == "write" or check is None):
            buf = self.wr.get(addr >> PAGE_SHIFT)
            if buf is not None:
                _U32.pack_into(buf, off, value & 0xFFFFFFFF)
                return
        self._write_general(addr, _U32.pack(value & 0xFFFFFFFF), check)

    def read_u64(self, addr: int, *, check: str | None = "read") -> int:
        off = addr & _OFFSET_MASK
        if off <= PAGE_SIZE - 8 and (check == "read" or check is None):
            buf = self.rd.get(addr >> PAGE_SHIFT)
            if buf is not None:
                return _U64.unpack_from(buf, off)[0]
        return _U64.unpack(self._read_general(addr, 8, check))[0]

    def write_u64(self, addr: int, value: int, *, check: str | None = "write") -> None:
        off = addr & _OFFSET_MASK
        if off <= PAGE_SIZE - 8 and (check == "write" or check is None):
            buf = self.wr.get(addr >> PAGE_SHIFT)
            if buf is not None:
                _U64.pack_into(buf, off, value & _M64)
                return
        self._write_general(addr, _U64.pack(value & _M64), check)

    def read_cstr(self, addr: int, maxlen: int = 4096, *, check: str | None = "read") -> bytes:
        """Read a NUL-terminated byte string (at most ``maxlen`` bytes).

        Scans one page slice at a time; a page outside ``rd`` is read one
        byte at a time, so a fault lands on the first byte the string
        actually reaches.
        """
        rd = self.rd if check == "read" or check is None else {}
        out = bytearray()
        pos = addr
        while len(out) < maxlen:
            buf = rd.get(pos >> PAGE_SHIFT)
            if buf is None:
                byte = self._read_general(pos, 1, check)[0]
                if byte == 0:
                    break
                out.append(byte)
                pos += 1
                continue
            off = pos & _OFFSET_MASK
            chunk = min(maxlen - len(out), PAGE_SIZE - off)
            nul = buf.find(0, off, off + chunk)
            if nul >= 0:
                out += buf[off:nul]
                break
            out += buf[off : off + chunk]
            pos += chunk
        return bytes(out)

    def write_cstr(self, addr: int, data: bytes, *, check: str | None = "write") -> None:
        self.write(addr, data + b"\x00", check=check)

    # ------------------------------------------------------ protection keys
    def pkey_alloc(self) -> int:
        """Allocate the lowest free protection key (1..15); -1 if none."""
        for key in range(1, 16):
            if key not in self.allocated_pkeys:
                self.allocated_pkeys.add(key)
                return key
        return -1

    def pkey_free(self, key: int) -> bool:
        if key in self.allocated_pkeys:
            self.allocated_pkeys.discard(key)
            return True
        return False

    def assign_pkey(self, addr: int, length: int, key: int) -> None:
        """Tag the pages covering [addr, addr+length) with ``key``
        (pkey_mprotect without the permission change)."""
        if addr % PAGE_SIZE:
            raise MapError(f"unaligned pkey assignment at {addr:#x}")
        first = addr >> PAGE_SHIFT
        count = page_align_up(length) >> PAGE_SHIFT
        for pn in range(first, first + count):
            page = self._pages.get(pn)
            if page is None:
                raise MapError(f"pkey on unmapped page {pn << PAGE_SHIFT:#x}")
            page.pkey = key
            self._sync(pn, page)

    # ----------------------------------------------------------------- fork
    def fork_copy(self) -> "AddressSpace":
        """Deep copy for fork()."""
        clone = AddressSpace()
        clone._pages = {pn: page.copy() for pn, page in self._pages.items()}
        for pn, page in clone._pages.items():
            clone._sync(pn, page)
        clone.allocated_pkeys = set(self.allocated_pkeys)
        return clone
