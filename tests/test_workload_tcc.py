"""The tcc-style JIT workload itself (mechanism-independent checks)."""

from __future__ import annotations

from repro.arch.decode import decode_one
from repro.arch.isa import Mnemonic
from repro.kernel.syscalls.table import NR
from repro.mem.pages import Perm
from repro.obs import events as K
from repro.obs.tracer import Tracer
from repro.workloads import tcc


def test_jit_code_decodes_to_getpid_sequence():
    insn = decode_one(tcc.JIT_CODE, 0)
    assert insn.mnemonic is Mnemonic.MOV_IMM64
    assert insn.operands == (0, NR["getpid"])  # rax = __NR_getpid
    off = insn.length
    insn = decode_one(tcc.JIT_CODE, off)
    assert insn.mnemonic is Mnemonic.SYSCALL
    off += insn.length
    insn = decode_one(tcc.JIT_CODE, off)
    assert insn.mnemonic is Mnemonic.RET


def test_jit_code_is_exactly_one_store(machine):
    assert len(tcc.JIT_CODE) == 8  # emitted with a single 64-bit store


def test_workload_runs_natively(machine):
    tcc.setup_fs(machine)
    proc = machine.load(tcc.build_tcc_image())
    code = machine.run_process(proc)
    assert code == 0
    assert proc.stdout == b"ok\n"
    # the JIT-ed getpid's result landed in r13
    assert proc.task.regs.read_name("r13") == proc.pid


def test_jit_page_is_rwx(machine):
    tcc.setup_fs(machine)
    proc = machine.load(tcc.build_tcc_image())
    machine.run_process(proc)
    jit_page = proc.task.regs.read_name("r12")
    assert proc.task.mem.perm_at(jit_page) == Perm.RWX


def test_static_image_contains_no_getpid_site(machine):
    """The whole point: the getpid syscall instruction does not exist in
    the static image — only the JIT creates it."""
    from repro.arch.disasm import sweep_syscall_addresses

    image = tcc.build_tcc_image()
    text = image.segments[0]
    sites = sweep_syscall_addresses(text.data, text.addr)
    assert sites  # the compiler-phase syscalls are there...
    # ...but none of them is a getpid: check by looking at the preceding
    # mov rax, imm at each site in the static code
    machine_codes = text.data
    for site in sites:
        off = site - text.addr
        window = machine_codes[max(0, off - 10):off]
        assert bytes((0xB8, NR["getpid"])) not in window


def test_source_file_is_actually_read(machine):
    tcc.setup_fs(machine)
    proc = machine.load(tcc.build_tcc_image())
    tracer = Tracer()
    machine.attach_tracer(tracer)
    machine.run_process(proc)
    reads = [
        e.data for e in tracer.events
        if e.kind == K.SYSCALL and e.data["sysno"] == NR["read"]
    ]
    assert reads and reads[0]["ret"] == len(tcc.SOURCE_TEXT)
