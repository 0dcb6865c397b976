"""Instruction encodings pinned byte for byte.

Two kinds of sha256 pin guard any change to how instructions are encoded
or decoded:

* ``decode`` — what :func:`decode_one` returns for a fixed set of byte
  windows: every 1- and 2-byte window, and, for each ``48 <sub>``
  sub-opcode, seeded operand bodies (register bytes of 16 or more
  included) cut at every length.  A window records its
  :class:`Instruction`, or the :class:`InvalidOpcode` address and byte.
* one ``guest`` pin per family of guests the repo builds — coreutils
  (both libc variants), tcc, the micro and ring benchmarks, the web
  servers in every syscall shape, the fault corpus, the scenario guests,
  the lazypoline blob page and zpoline trampoline, the vDSO, the text
  assembler programs of ``examples/`` and the e2e ALU loop — over every
  segment, the entry point and the symbol table.

The sub-opcodes are found by decoding, not read from the ISA tables, so
the pins hold whatever shape those tables take.  An intended encoding
change must re-pin: ``PYTHONPATH=src:. python tests/test_encoding_pins.py``
prints the current digests.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from repro.arch.decode import decode_one
from repro.errors import InvalidOpcode

ROOT = Path(__file__).resolve().parent.parent

#: Seeded bodies per sub-opcode; each is decoded at every cut 0..8.
BODIES = 48
MAX_BODY = 8  # the longest 48-namespace instruction is 10 bytes


def _decoded(window: bytes, addr: int) -> str:
    try:
        insn = decode_one(window, 0, addr)
    except InvalidOpcode as err:
        return f"E {err.address:#x} {err.byte!r}"
    return f"{insn.mnemonic.value} {insn.operands!r} {insn.length}"


def ext_subs() -> list[int]:
    """The ``48 <sub>`` sub-opcodes that decode to something other than
    ``mov r, imm64`` when followed by zero bytes."""
    subs = []
    for sub in range(256):
        try:
            insn = decode_one(bytes((0x48, sub)) + bytes(MAX_BODY))
        except InvalidOpcode:
            continue
        if insn.mnemonic.value != "mov_imm64":
            subs.append(sub)
    return subs


def decode_windows():
    """``(window, addr)`` pairs of the decode pin, in a fixed order."""
    for b in range(256):
        yield bytes((b,)), 0x1000 + b
    for a, b in itertools.product(range(256), repeat=2):
        yield bytes((a, b)), 0x10000 + (a << 8 | b)
    for sub in ext_subs():
        rng = random.Random(sub)
        for k in range(BODIES):
            # Small bytes mostly decode; full-range ones mostly hit the
            # register check (or land in a displacement).
            top = 20 if k % 2 else 256
            body = bytes(rng.randrange(top) for _ in range(MAX_BODY))
            for cut in range(MAX_BODY + 1):
                yield (bytes((0x48, sub)) + body[:cut],
                       0x400000 + (sub << 12) + k * 16 + cut)


def decode_digest() -> str:
    h = hashlib.sha256()
    for window, addr in decode_windows():
        h.update(f"{window.hex()} {_decoded(window, addr)}\n".encode())
    return h.hexdigest()


# ------------------------------------------------------------------- guests
def _load_example(name: str):
    path = ROOT / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _coreutils():
    from repro.libc.variants import LIBC_VARIANTS
    from repro.workloads.coreutils import COREUTIL_NAMES, build_coreutil

    return [build_coreutil(name, variant)
            for variant in LIBC_VARIANTS.values() for name in COREUTIL_NAMES]


def _tcc():
    from repro.workloads.tcc import build_tcc_image

    return [build_tcc_image()]


def _microbench():
    from repro.workloads.microbench import build_syscall_loop

    return [build_syscall_loop(1000), build_syscall_loop(7, sysno=39)]


def _ringbench():
    from repro.workloads.ringbench import RING_BATCHES, build_ring_loop

    return [build_ring_loop(100, batch) for batch in RING_BATCHES]


def _servers():
    from repro.workloads.webserver import (
        SERVERS, build_async_server_image, build_server_image)

    images = []
    for spec in SERVERS.values():
        for workers in (1, 2):
            for batched in (False, True):
                images.append(build_server_image(
                    spec, 7, workers=workers, batched=batched))
    # The event-loop server is single-worker: its overlap is ``depth``.
    for spec in SERVERS.values():
        for depth in (4, 6):
            images.append(build_async_server_image(spec, 7, depth=depth))
    return images


def _fault_corpus():
    from repro.faults.corpus import CORPUS, build_execve_child

    return [p.build() for p in CORPUS.values()] + [build_execve_child()]


def _scenario_guests():
    from repro.faults import scenarios

    return [
        scenarios.build_two_signal_guest(),
        scenarios.build_nested_signal_guest(),
        scenarios.build_nested_signal_guest(2),
        scenarios.build_eintr_retry_guest(),
        scenarios.build_ring_signal_guest(False),
        scenarios.build_ring_signal_guest(True),
    ]


def _interposer_pages():
    from repro.interpose.lazypoline.asmblobs import build_blobs
    from repro.interpose.zpoline.trampoline import build_trampoline_code
    from repro.loader.loading import build_vdso

    pages = [build_blobs(generic_hcall=1, sigsys_hcall=2, wrap_pre_hcall=3,
                         preserve_xstate=xstate, pkey_protected=pkey).code
             for xstate in (False, True) for pkey in (False, True)]
    return pages + [build_trampoline_code(5)[0], build_vdso()]


def _examples():
    mvee = _load_example("mvee")
    replay = _load_example("record_replay")
    return [mvee.deterministic_program(), mvee.compromised_program(),
            replay.build()]


def _alu():
    from benchmarks.e2e.workloads import alu_image

    return [alu_image(1000), alu_image(2_000_000)]


GUESTS = {
    "coreutils": _coreutils,
    "tcc": _tcc,
    "microbench": _microbench,
    "ringbench": _ringbench,
    "servers": _servers,
    "fault_corpus": _fault_corpus,
    "scenario_guests": _scenario_guests,
    "interposer_pages": _interposer_pages,
    "examples": _examples,
    "alu": _alu,
}


def _describe(item) -> str:
    if isinstance(item, bytes):
        return item.hex()
    segments = " ".join(f"{s.addr:#x}/{int(s.perm)}/{s.name}/{s.data.hex()}"
                        for s in item.segments)
    symbols = sorted(item.symbols.items())
    return f"{item.name} {item.entry:#x} {symbols} {segments}"


def guest_digest(family: str) -> str:
    h = hashlib.sha256()
    for item in GUESTS[family]():
        h.update(_describe(item).encode() + b"\n")
    return h.hexdigest()


DECODE_PIN = "2518ddd399e87adc124214dc47ca44f9c48fdb2f5e6942d33088506a769bc83f"
GUEST_PINS = {
    "alu": "2dea3b71c76b6267be32d2f29b38a23ef6e57fd0eb239ada6a73104baec3f1d2",
    "coreutils": "422410d2144c1d2a7794a7575bac31ccd8a12cc89f857045209c2bebdba0cb8e",
    "examples": "eb26a9f7d03db6ad3cbf88c65026586c4a33fab931e496ccabba7b331b515f9d",
    "fault_corpus": "ec2c47fccff54e325f6942f8fd881270c64bdf22504fec53c639053aac2612fe",
    "interposer_pages": "f7beda59498117c0f8e77b2de8aedb65785d01fbbacae2e45f77637f410eb063",
    "microbench": "330c1160a453b29b2ae514d14d4bfdbb5358c9ad8a341088ba52f91bbfe90d7d",
    "ringbench": "1e091cff20947e5a76ca39dd97aeae3390bb3e3b1c476d19ac58de2c7f8cc051",
    "scenario_guests": "f4acab0b4bb1a13234250fb16efbf7f6b4aa6cb726f60e8f38f496b5edd5b3f1",
    "servers": "ae9f1bfeb602b59b84ef6427d2e5d2428342644c5cba6c1a645163db2ac6f720",
    "tcc": "085f11e9268d228d1032119684b3ac620bbedbb43d166532b58408617b32fd56",
}


def test_decode_windows_match_pin():
    assert decode_digest() == DECODE_PIN


def test_ext_sub_opcodes_are_the_pinned_49():
    assert len(ext_subs()) == 49


@pytest.mark.parametrize("family", sorted(GUESTS))
def test_guest_code_matches_pin(family):
    assert guest_digest(family) == GUEST_PINS[family]


if __name__ == "__main__":  # pragma: no cover - re-pin helper
    print(f'DECODE_PIN = "{decode_digest()}"')
    print("GUEST_PINS = {")
    for family in sorted(GUESTS):
        print(f'    "{family}": "{guest_digest(family)}",')
    print("}")
