"""The page maps of :class:`AddressSpace` are invisible.

Every accessor first tries to serve an access that lies inside one page
of its map (``rd``: readable pages with pkey 0; ``wr``: writable,
non-executable pages with pkey 0) straight from that page's bytearray;
anything else takes the general path (``_access`` plus a per-page chunked
copy).  The first property test runs every accessor against a reference
that always takes the general path, over random layouts, permissions,
protection keys and PKRU values, at addresses around page ends.  Results,
page faults (address, access kind, message), page contents and the
exec-generation counters must all agree.  The second runs random
sequences of page-table edits and checks after each step that both maps
equal a recomputation from the page table, entry by entry the very
``page.data`` object.  The regression tests pin the side effects a
fallback store must keep: compiled-block flushes, the tier-2
``code_epoch`` side exit, the pkey fault text and ``read_cstr`` fault
placement.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.encode import Assembler
from repro.cpu.core import BareTask, CPU, NullEnvironment
from repro.errors import MapError, PageFault
from repro.mem.address_space import AddressSpace
from repro.mem.pages import PAGE_SIZE, PERM_R, PERM_W, PERM_X, Perm

BASE = 0x40000
NPAGES = 3
CHECKS = ("read", "write", "exec", None)


# ------------------------------------------------------------- reference
def ref_read(mem, addr, length, check):
    """Read through the general path only: check every page, then copy."""
    mem._access(addr, length, check)
    out = bytearray()
    pos, remaining = addr, length
    while remaining:
        off = pos % PAGE_SIZE
        chunk = min(remaining, PAGE_SIZE - off)
        out += mem._pages[pos // PAGE_SIZE].data[off : off + chunk]
        pos += chunk
        remaining -= chunk
    return bytes(out)


def ref_write(mem, addr, data, check):
    """Write through the general path only, bumping exec pages per chunk."""
    mem._access(addr, len(data), check)
    pos, idx = addr, 0
    while idx < len(data):
        pn, off = divmod(pos, PAGE_SIZE)
        chunk = min(len(data) - idx, PAGE_SIZE - off)
        page = mem._pages[pn]
        page.data[off : off + chunk] = data[idx : idx + chunk]
        if page.perm & PERM_X:
            mem._bump_exec_gen(pn)
        pos += chunk
        idx += chunk


def ref_read_cstr(mem, addr, maxlen, check):
    out = bytearray()
    pos = addr
    while len(out) < maxlen:
        byte = ref_read(mem, pos, 1, check)[0]
        if byte == 0:
            break
        out.append(byte)
        pos += 1
    return bytes(out)


def _payload(value, length):
    return (value.to_bytes(8, "little") * 4)[:length]


#: op -> (call on the real space, call on the reference space); each takes
#: (mem, addr, length, value, check).
OPS = {
    "read": (
        lambda m, a, n, v, c: m.read(a, n, check=c),
        lambda m, a, n, v, c: ref_read(m, a, n, c),
    ),
    "write": (
        lambda m, a, n, v, c: m.write(a, _payload(v, n), check=c),
        lambda m, a, n, v, c: ref_write(m, a, _payload(v, n), c),
    ),
    "read_u8": (
        lambda m, a, n, v, c: m.read_u8(a, check=c),
        lambda m, a, n, v, c: ref_read(m, a, 1, c)[0],
    ),
    "read_u16": (
        lambda m, a, n, v, c: m.read_u16(a, check=c),
        lambda m, a, n, v, c: struct.unpack("<H", ref_read(m, a, 2, c))[0],
    ),
    "read_u32": (
        lambda m, a, n, v, c: m.read_u32(a, check=c),
        lambda m, a, n, v, c: struct.unpack("<I", ref_read(m, a, 4, c))[0],
    ),
    "read_u64": (
        lambda m, a, n, v, c: m.read_u64(a, check=c),
        lambda m, a, n, v, c: struct.unpack("<Q", ref_read(m, a, 8, c))[0],
    ),
    "write_u8": (
        lambda m, a, n, v, c: m.write_u8(a, v, check=c),
        lambda m, a, n, v, c: ref_write(m, a, bytes((v & 0xFF,)), c),
    ),
    "write_u32": (
        lambda m, a, n, v, c: m.write_u32(a, v, check=c),
        lambda m, a, n, v, c: ref_write(m, a, struct.pack("<I", v & 0xFFFFFFFF), c),
    ),
    "write_u64": (
        lambda m, a, n, v, c: m.write_u64(a, v, check=c),
        lambda m, a, n, v, c: ref_write(m, a, struct.pack("<Q", v), c),
    ),
    "read_cstr": (
        lambda m, a, n, v, c: m.read_cstr(a, n, check=c),
        lambda m, a, n, v, c: ref_read_cstr(m, a, n, c),
    ),
    "write_cstr": (
        lambda m, a, n, v, c: m.write_cstr(a, _payload(v, n), check=c),
        lambda m, a, n, v, c: ref_write(m, a, _payload(v, n) + b"\x00", c),
    ),
}


def _outcome(call):
    try:
        return ("ok", call())
    except PageFault as fault:
        return ("fault", fault.address, fault.access, str(fault))


def _build(layout, fills, pkru):
    mem = AddressSpace()
    for i, (spec, fill) in enumerate(zip(layout, fills)):
        if spec is None:
            continue
        perm, pkey = spec
        addr = BASE + i * PAGE_SIZE
        mem.map(addr, PAGE_SIZE, Perm.RW)
        mem.write(addr, fill[:32], check=None)
        mem.write(addr + PAGE_SIZE - 32, fill[32:], check=None)
        mem.protect(addr, PAGE_SIZE, Perm(perm))
        mem.assign_pkey(addr, PAGE_SIZE, pkey)
    mem.active_pkru = pkru
    return mem


def _state(mem):
    pages = {pn: bytes(page.data) for pn, page in mem._pages.items()}
    return pages, dict(mem.exec_gen), mem.code_epoch


page_spec = st.one_of(
    st.none(), st.tuples(st.integers(0, 7), st.integers(0, 2))
)
op_spec = st.tuples(
    st.sampled_from(sorted(OPS)),
    st.integers(1, NPAGES),  # which page end the address sits next to
    st.integers(-16, 16),  # offset from that page end
    st.integers(0, 24),  # length / maxlen
    st.integers(0, (1 << 64) - 1),  # value stored
    st.sampled_from(CHECKS),
)


@settings(max_examples=400, deadline=None)
@given(
    layout=st.lists(page_spec, min_size=NPAGES, max_size=NPAGES),
    fills=st.lists(
        st.binary(min_size=64, max_size=64), min_size=NPAGES, max_size=NPAGES
    ),
    pkru=st.integers(0, 63),
    ops=st.lists(op_spec, min_size=1, max_size=6),
)
def test_every_accessor_matches_the_general_path(layout, fills, pkru, ops):
    fast = _build(layout, fills, pkru)
    ref = _build(layout, fills, pkru)
    for name, end, delta, length, value, check in ops:
        addr = BASE + end * PAGE_SIZE + delta
        real_call, ref_call = OPS[name]
        got = _outcome(lambda: real_call(fast, addr, length, value, check))
        want = _outcome(lambda: ref_call(ref, addr, length, value, check))
        assert got == want, (name, hex(addr), length, check)
        assert _state(fast) == _state(ref), (name, hex(addr), length, check)


# ------------------------------------------------------- map invariant
def _expected_maps(mem):
    """``rd`` and ``wr`` recomputed from the page table."""
    rd, wr = {}, {}
    for pn, page in mem._pages.items():
        if page.pkey:
            continue
        if page.perm & PERM_R:
            rd[pn] = page.data
        if page.perm & PERM_W and not page.perm & PERM_X:
            wr[pn] = page.data
    return rd, wr


def _assert_maps(mem):
    for got, want in zip((mem.rd, mem.wr), _expected_maps(mem)):
        assert sorted(got) == sorted(want)
        assert all(got[pn] is want[pn] for pn in want)


_first = st.integers(0, 5)  # page index from BASE
_count = st.integers(1, 3)
edit_spec = st.one_of(
    st.tuples(st.just("map"), _first, _count, st.integers(0, 7)),
    st.tuples(st.just("unmap"), _first, _count),
    st.tuples(st.just("protect"), _first, _count, st.integers(0, 7)),
    st.tuples(st.just("pkey"), _first, _count, st.integers(0, 3)),
    st.tuples(st.just("fork")),
    st.tuples(st.just("pkru"), st.integers(0, 0xFF)),
)


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(edit_spec, min_size=1, max_size=16))
def test_page_maps_follow_every_page_table_edit(edits):
    mem = AddressSpace()
    for op, *args in edits:
        if op in ("map", "unmap", "protect", "pkey"):
            addr, length = BASE + args[0] * PAGE_SIZE, args[1] * PAGE_SIZE
        try:
            if op == "map":
                mem.map(addr, length, Perm(args[2]))
            elif op == "unmap":
                mem.unmap(addr, length)
            elif op == "protect":
                mem.protect(addr, length, Perm(args[2]))
            elif op == "pkey":
                mem.assign_pkey(addr, length, args[2])
            elif op == "fork":
                parent, mem = mem, mem.fork_copy()
                _assert_maps(parent)
            else:
                mem.active_pkru = args[0]
        except MapError:
            pass
        _assert_maps(mem)


# ----------------------------------------------------- side-effect pins
CODE = 0x1000
STACK = 0x8000


def _bare(code: bytes, perm: Perm):
    mem = AddressSpace()
    mem.map(CODE, PAGE_SIZE, perm)
    mem.write(CODE, code, check=None)
    mem.map(STACK, PAGE_SIZE, Perm.RW)
    cpu = CPU(NullEnvironment())
    task = BareTask(mem)
    task.regs.rip = CODE
    task.regs.write_name("rsp", STACK + PAGE_SIZE)
    return cpu, task


@pytest.mark.superblock
def test_kernel_write_u64_drops_spanning_block():
    """A check=None ``write_u64`` into an executable page (how a ptrace
    POKEDATA patch lands) drops the compiled block spanning it."""
    a = Assembler(base=CODE)
    a.label("loop")
    a.inc("rbx")
    a.addi("rbx", 0)
    a.cmpi("rbx", 200)
    a.jnz("loop")
    a.hlt()
    cpu, task = _bare(a.assemble(), Perm.RX)
    mem = task.mem
    block = cpu.compile_superblock(mem, CODE, task)
    assert block.fn is not None and CODE in mem.block_cache.blocks
    gen, epoch = mem.exec_gen.get(CODE >> 12, 0), mem.code_epoch

    mem.write_u64(CODE + 8, 0x9090909090909090, check=None)

    assert CODE not in mem.block_cache.blocks
    assert not mem.block_cache.index.get(CODE >> 12)
    assert mem.exec_gen[CODE >> 12] == gen + 1
    assert mem.code_epoch == epoch + 1
    assert cpu.compile_superblock(mem, CODE, task).g0 == block.g0 + 1


@pytest.mark.superblock
def test_block_storing_into_its_own_page_side_exits():
    """A tier-2 store into the block's own code page bumps ``code_epoch``
    through the fast path, so the block exits right after the store
    instead of running the overwritten instructions."""
    a = Assembler(base=CODE)
    a.label("_start")
    a.mov_imm("r12", "patch")
    a.mov_imm("rcx", 0x9090909090909090)
    a.store("r12", 0, "rcx")
    a.label("patch")
    for _ in range(8):
        a.inc("rbx")
    a.hlt()
    cpu, task = _bare(a.assemble(), Perm.RWX)
    patch = a.address_of("patch")
    block = cpu.compile_superblock(task.mem, CODE, task)
    assert block.fn is not None and block.n > 3

    charged = []
    retired = block.fn(task, lambda _task, cycles: charged.append(cycles))

    assert retired == 3
    assert task.regs.rip == patch
    assert task.regs.read_name("rbx") == 0
    assert task.mem.read(patch, 8) == b"\x90" * 8
    assert CODE not in task.mem.block_cache.blocks


def test_pkey_write_disable_write_u8_message():
    mem = AddressSpace()
    mem.map(0x1000, PAGE_SIZE, Perm.RW)
    key = mem.pkey_alloc()
    mem.assign_pkey(0x1000, PAGE_SIZE, key)
    mem.active_pkru = 2 << (2 * key)  # write-disable only
    assert mem.read_u8(0x1234) == 0
    with pytest.raises(PageFault) as exc:
        mem.write_u8(0x1234, 7)
    assert exc.value.address == 0x1234
    assert exc.value.access == "write"
    assert str(exc.value) == f"pkey {key} forbids write at 0x1234 (pkru=0x8)"
    mem.write_u8(0x1234, 7, check=None)  # the kernel bypasses PKU
    assert mem.read_u8(0x1234, check=None) == 7


def test_read_cstr_faults_at_first_unmapped_byte():
    mem = AddressSpace()
    mem.map(0x1000, PAGE_SIZE, Perm.RW)
    mem.write(0x2000 - 3, b"abc")  # no NUL before the page end
    with pytest.raises(PageFault) as exc:
        mem.read_cstr(0x2000 - 3)
    assert exc.value.address == 0x2000
    assert exc.value.access == "read"
    assert mem.read_cstr(0x2000 - 3, maxlen=3) == b"abc"
