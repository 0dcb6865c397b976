"""Tier-2 counters pinned run by run.

The superblock tier's cycle-identity tests prove that tiering never moves
a simulated cycle.  They cannot see a change in *how* tier 2 gets there:
a head counted twice, a tail variant never taken, a stale block kept one
lookup too long all leave cycles alone and only move the tier's own
bookkeeping.  This file pins that bookkeeping per run, as two sha256
digests over a fixed matrix of guests, tools and core counts:

* ``counters`` — ``superblock_stats()``, the decode-cache hits and
  misses, retired instructions, per-core slices/steals/shootdowns/busy
  cycles, every block cache's blocks (key, length, runs), hotness
  counters and recorded nop runs, and the obs event stream without its
  timestamps;
* ``clocks`` — ``machine.clock``, each core's clock and the timestamp of
  every obs event.

Any intended change to compile decisions, dispatch counting or the
machine's timeline must re-pin the affected runs:
``PYTHONPATH=src:. python tests/test_tier2_counter_pins.py`` prints the
current table.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults.corpus import CORPUS
from repro.kernel.machine import Machine
from repro.kernel.syscalls.proc import CLONE_VM, THREAD_FLAGS
from repro.kernel.syscalls.table import NR
from repro.obs.tracer import Tracer
from repro.workloads import coreutils, tcc
from repro.workloads.runner import attach_mechanism
from repro.workloads.webserver import SERVERS, ServerWorkload
from tests.conftest import asm, emit_exit, emit_syscall, finish
from tests.test_superblock_properties import build_guest, register_flip
from tests.test_translation_cache import _sled_image

pytestmark = pytest.mark.superblock

UTILS = ("ls", "pwd", "mkdir", "cp", "cat", "clear")
TOOLS = (None, "lazypoline", "zpoline")


def _alu_image(iterations: int):
    a = asm()
    a.label("_start")
    a.mov_imm("rbx", iterations)
    a.mov_imm("r12", 0)
    a.label("loop")
    a.addi("r12", 3)
    a.xori("r12", 0x55)
    a.inc("r13")
    a.dec("rbx")
    a.jnz("loop")
    emit_exit(a, 0)
    return finish(a, "alu-loop")


def _gs_fault_image():
    """A hot loop with a gs load; the gs page is unmapped at pass 50, so
    the load faults inside the compiled loop block."""
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.wrgsbase("r12")
    a.mov_imm("rbp", 60)
    a.label("loop")
    a.inc("rbx")
    a.gsload("rdx", 16)
    a.dec("rbp")
    a.cmpi("rbp", 10)
    a.jnz("next")
    a.mov("rdi", "r12")
    a.mov_imm("rsi", 4096)
    a.mov_imm("rax", NR["munmap"])
    a.syscall()
    a.label("next")
    a.cmpi("rbp", 0)
    a.jnz("loop")
    emit_exit(a, 0)
    return finish(a, "gs-fault")


def _nested_patch_image():
    """A hot loop whose hcall at pass 100 waits for a CLONE_VM sibling,
    then rewrites the loop's first byte in place (same value, new page
    generation).  On two cores the wait runs the sibling on the other
    core and rebinds the address space to the waiter's core before it
    returns, so the rewrite drops the waiter's loop blocks from the bound
    cache (``smc``) and the sibling's from the other core's
    (``shootdown``)."""
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 8192, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.mov_imm("r14", "loop")
    a.mov_imm("rdi", THREAD_FLAGS | CLONE_VM)
    a.lea("rsi", "r12", 8192)
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 0)
    a.mov_imm("r8", 0)
    a.mov_imm("rax", NR["clone"])
    a.syscall()
    a.cmpi("rax", 0)
    a.jz("child")
    a.mov_imm("rbx", 200)
    a.label("loop")
    a.inc("rdx")
    a.addi("r8", 3)
    a.xori("r8", 0x55)
    a.cmpi("rbx", 100)
    a.jnz("skip")
    a.hcall(0)
    a.label("skip")
    a.dec("rbx")
    a.jnz("loop")
    emit_exit(a, 0)
    a.label("child")
    a.mov_imm("rbp", 3000)
    a.label("spin")
    a.inc("r9")
    a.dec("rbp")
    a.jnz("spin")
    a.mov_imm("rcx", 1)
    a.store("r12", 0, "rcx")
    a.label("park")
    a.jmp("park")
    return finish(a, "nested-patch")


def _patch_after_wait(hctx):
    task, mem = hctx.task, hctx.mem
    flag = task.regs.read_name("r12")
    hctx.kernel.scheduler.wait_until(
        task, lambda: mem.read_u64(flag, check=None) == 1)
    loop = task.regs.read_name("r14")
    mem.write(loop, mem.read(loop, 1, check=None), check=None)


#: A body of every compiled kind the tier handles: ALU, a forward skip,
#: memory, push/pop, a nop run, gs loads/stores, xsave/xrstor, rdgsbase
#: and the xstate-flipping hcall.
BODY = [(0, 0, 1, 0), (15, 1, 2, 0x40), (16, 2, 3, 0x18), (17, 3, 0, 0),
        (18, 0, 0, 23), (19, 1, 2, 0x30), (21, 2, 0, 2), (21, 3, 1, 1),
        (22, 0, 0, 0), (8, 3, 0, 7)]


def _run_image(build, *, setup=None, tool=None):
    def go(machine):
        if setup is not None:
            setup(machine)
        proc = machine.load(build())
        attach_mechanism(machine, proc, tool)
        machine.run_process(proc, max_instructions=2_000_000)
    return go


def _run_web(batched, workers=1):
    def go(machine):
        wl = ServerWorkload(machine, SERVERS["nginx"], file_size=2048,
                            batched=batched, workers=workers)
        attach_mechanism(machine, wl.process, "lazypoline")
        wl.benchmark(requests=24, warmup=4)
    return go


#: run id -> (cores, quantum, fn(machine) that runs the guest)
RUNS = {
    **{
        f"{name}-{tool or 'none'}-{cores}c": (cores, 64, _run_image(
            lambda name=name: coreutils.build_coreutil(name),
            setup=coreutils.setup_fs, tool=tool))
        for name in UTILS for tool in TOOLS for cores in (1, 2)
    },
    **{
        f"tcc-{tool or 'none'}-1c": (1, 64, _run_image(
            tcc.build_tcc_image, setup=tcc.setup_fs, tool=tool))
        for tool in (None, "lazypoline")
    },
    "alu-none-1c": (1, 64, _run_image(lambda: _alu_image(3_000))),
    "web-direct-1c": (1, 64, _run_web(False)),
    "web-batched-1c": (1, 64, _run_web(True)),
    "web-async-1c": (1, 64, _run_web("async")),
    "web-prefork-2c": (2, 64, _run_web(False, workers=2)),
    "gs-fault-1c": (1, 64, _run_image(_gs_fault_image)),
    **{
        f"body-{kind}-{cores}c-q{quantum}": (cores, quantum, _run_image(
            lambda kind=kind: build_guest(
                BODY, 40, kind == "smc", kind == "signal"),
            setup=register_flip))
        for kind in ("plain", "smc", "signal")
        for cores, quantum in ((1, 5), (1, 13), (1, 64), (2, 7))
    },
    **{
        f"nested-patch-{cores}c": (cores, 64, _run_image(
            _nested_patch_image,
            setup=lambda m: m.kernel.register_hcall(_patch_after_wait)))
        for cores in (1, 2)
    },
    **{
        f"clone-{tool or 'none'}-{cores}c": (cores, 64, _run_image(
            CORPUS["clone_shared"].build, tool=tool))
        for tool in TOOLS for cores in (1, 2)
    },
    **{
        f"sled-{shape}-{cores}c": (cores, 64, _run_image(
            lambda shape=shape: _sled_image(
                threads=shape != "patch", patch_sled=shape != "threads"),
            tool="lazypoline"))
        for shape in ("threads", "patch", "both") for cores in (1, 2)
    },
}


def _block_caches(machine):
    """Every block cache the machine holds, in a stable order."""
    seen, out = set(), []
    for tid in sorted(machine.kernel.tasks):
        mem = machine.kernel.tasks[tid].mem
        if mem is not None and id(mem.block_cache) not in seen:
            seen.add(id(mem.block_cache))
            out.append(mem.block_cache)
    for core in machine.cores:
        for asid in sorted(core.block_caches):
            bc = core.block_caches[asid]
            if id(bc) not in seen:
                seen.add(id(bc))
                out.append(bc)
    return out


def run_digests(run_id: str) -> tuple[str, str]:
    """(counters, clocks) sha256 digests of one run of the matrix."""
    cores, quantum, drive = RUNS[run_id]
    tracer = Tracer()
    machine = Machine(cores=cores, quantum=quantum, smp_seed=7, tracer=tracer)
    drive(machine)
    sched = machine.scheduler
    cpu = machine.kernel.cpu
    caches = [
        (
            sorted((repr(k), b.n, b.runs, b.fn is None)
                   for k, b in bc.blocks.items()),
            sorted((repr(k), c) for k, c in bc.heads.items()),
            sorted(bc.runs.items()),
        )
        for bc in _block_caches(machine)
    ]
    counters = {
        "superblocks": machine.superblock_stats(),
        "decode": [cpu.cache_hits, cpu.cache_misses],
        "insns": sched.total_instructions,
        "cores": [
            [c.slices, c.steals, c.shootdowns, c.block_shootdowns,
             c.busy_cycles]
            for c in sched.cores
        ],
        "shootdowns": sched.shootdowns,
        "caches": caches,
        "events": [
            [e.kind, e.tid, e.core, sorted(e.data.items())]
            for e in tracer.events
        ],
    }
    clocks = {
        "clock": machine.clock,
        "cores": [c.clock for c in sched.cores] if cores > 1 else [],
        "ts": [e.ts for e in tracer.events],
    }

    def sha(obj):
        blob = json.dumps(obj, sort_keys=True, default=repr).encode()
        return hashlib.sha256(blob).hexdigest()

    return sha(counters), sha(clocks)


#: run id -> (counters sha256, clocks sha256)
PINNED = {
    "alu-none-1c": (
        "e636a237b429743ab7868f0cfe4adc7325f2aef4b95fd37d9e32b110d1711a7d",
        "e9d7be902245aa45e14cfe61ea6609124de7583e4ad6f170d266c16e66d7e996"),
    "body-plain-1c-q13": (
        "167a356836c960a73ba28613d4936f855386d3c8606f83043603f68db3d9f5d3",
        "e22647114459f05525e5d04cc892214a0b795bfd97a64f1d66e7cb5d5630d2cc"),
    "body-plain-1c-q5": (
        "f6465cceeadf3e572d19af8d4dd978d26c41114bdf3b7e849487fe82adbfe979",
        "d06d4a2bc5158548ece3579d333f010347c818d016286533814f4beb5a2fc8c8"),
    "body-plain-1c-q64": (
        "9c8cdbc3af415f39f7cfb1c46d8f45be5e0d803e370de750e29f8e5c380e4499",
        "a9dbd0878615b0656d7577068659f59e19259681aaca8bd46b04d4a2512a7a3c"),
    "body-plain-2c-q7": (
        "4d4f678dd044c2bbc056debf577642cccb74a9dc423cf8aeb17569d7b924b899",
        "119f4b229d55b6a58c04b05a53cbeb2bb8fe26998321d7e691bc009563624386"),
    "body-signal-1c-q13": (
        "36c264ba1b3e955fde2adfa45aadd2cc02f1e5cd4122fb46b0f1d69909c8d7dd",
        "d30be25992365e34650ae8810458c0eed41d306e9cba198ab03178c285210ece"),
    "body-signal-1c-q5": (
        "e5dd006905cf9f302aaea0a27d68357eb55ad50b2547c726774dbe82596eb7d0",
        "2167ac9ff62195770c2c21225c485754165e40d4c13ee4b76497fb7b7e4be2d3"),
    "body-signal-1c-q64": (
        "ae6a7466f2036d76639f13a5c3ce07f4031738ba1c823088f1a6df7e67740294",
        "c474bdf37c9711b8ce0d1fd26c4a97147b1e54874e9af9598b73ff774b6e9a76"),
    "body-signal-2c-q7": (
        "137034e36b808123c81453d3aa172abc077ecde76ee781adb8e8e12274420d9a",
        "34233a4ad53019b0ebebee4c239c98c50c70a8617eed7bc4ff6d7b9b06817fb0"),
    "body-smc-1c-q13": (
        "4fe69171bc98281d5fdc92be2d8e9a2dd5ab9d4b7f6fb6e0b3a5f35a8075aa2f",
        "c065a64f03bd935a8713bea07bde417a746512120a38d428ba0dda1f3fe5944e"),
    "body-smc-1c-q5": (
        "851c0b88451a743665bef066c541f89a4fcdb591c0d72c40fd75fc36b47ce1a8",
        "555d74fc1299781b7a6bfff31c9ec95f8d3b92916ab6c33197fd55083c69006e"),
    "body-smc-1c-q64": (
        "ef20fb1dd87462714d1b7ba4472b0f406e14fc6310a43ea42eb7a35348782ce5",
        "273027d23e6b72874bca2f1f158f4cc561e9006428a5a7ad61b41d3044cff342"),
    "body-smc-2c-q7": (
        "11c1b96ee1dc93eed091787d162a2196d2a3d7e2822d0b1f01df9877fa334771",
        "6589924b8e40cbbb69a12f505a27a307e6f2ccf07a8f388de85e86075ad90a67"),
    "cat-lazypoline-1c": (
        "e7fe778d074e81d2bc43025fd625a5d3d4086159ba9ab66f936c36e79edbd57e",
        "5b5fa98d1d954358f86cc3df1d092715e49ccfa8fb0e24971221ea15e857bfe6"),
    "cat-lazypoline-2c": (
        "9c3e158327dcb81d318ea8c9f3c5d9f02566461808f9147fd4a985baf3f1a74f",
        "9c26bedba3e9598dd82f7bdb5fb9c97b2eefe371350099026e2316f2ccb0a907"),
    "cat-none-1c": (
        "ba495ef6e6d6530dfd2b59021a066fb83690042e2a06f93b449741a4dbd44bd3",
        "d301f5e4184d6a7c0f00f2c447423c6146289080ffe3da5fcc19fcf8664437c0"),
    "cat-none-2c": (
        "2ff643919975bca9ce22274b5d5da416feae5fd912c26178f8da2e880c95f54d",
        "63b9f2ec598823609a3a7081873eb1029e737cc9c72c1a92328089cd4fca7d30"),
    "cat-zpoline-1c": (
        "c405b6c5906bcaaae2a2170f9d1310814dc7aec5067012f963407e3680e7fa8d",
        "d3e7642689273f30eb507db1d07e9c00519d3509f7b1306bf8b4233b4c541d44"),
    "cat-zpoline-2c": (
        "21f4c1798a5db47fd76f04645e76fdff98819c2c100a1e238cccc804fe5e427c",
        "d060dd9414b8bc7909e437f833af72d3bf132067070d234d4b513c74ce32405e"),
    "clear-lazypoline-1c": (
        "cd6b2d738523fe78f472f48a162433879683278fcf3fc8d048b12b5b2186e9ec",
        "fd3bb0d2617df81f75ce73e8152315a61e89dc69ba8c4ae46a7647c087b6e7c6"),
    "clear-lazypoline-2c": (
        "e12d8a84c48acf51898e39d6d74439cb3aeab9c240e9f48c0c58df213d36bdf0",
        "7ea25c0a58f001589008b8c06f6799cc3673c5fcba893a1b10cfc9beb6e00536"),
    "clear-none-1c": (
        "288aa3d117e8ab28574b6ede5068d8b9290768b2224d707479f6273a2f81a47e",
        "bb25eeeae87d10a2f33a3a320ad1e23e9ba2db09a2ffe249ecc267cc3747879a"),
    "clear-none-2c": (
        "eed8c15bb8c4f6eee00a5906a18802cf028c694e39f480c200ab7c604613192a",
        "c3483331b5454261e4247c898b417ee7ca7ed7a90a9bf4a4f8eebdcff82db0df"),
    "clear-zpoline-1c": (
        "f90945c3687fbc3218b8433b64327049604aae1acb29f1352efa111a5e35c2f0",
        "7d4d6c6b80fdd8806c706bcb6e157c9881e04ef8fb6b3f97496f07cc29a03a03"),
    "clear-zpoline-2c": (
        "c964e6199d8b180ed11a0a787f3e1b3cf0fbcbc40f004eb3f9d7e64f1c15b971",
        "dc34a11d6c0e7b76b9dc44569dd578e8a4f172833883e4e9a4dfeac71f08dc59"),
    "clone-lazypoline-1c": (
        "6e68ee87ecec0229ba09b95359dd7e718bf85b6d1fff33360cba0fca9daf45c4",
        "e8ee20a74c4c8a32fc61c31ff87ae4619bf89152ee7239d1ec5f558ed5e6c226"),
    "clone-lazypoline-2c": (
        "7974112f83a4048759cd7308f0a3137ce4bc42f4eac8d439596e7a20b6dc8586",
        "ccb634fca16d91433e52008d822fa253246940f544255b531effaf94d09cdefe"),
    "clone-none-1c": (
        "655d0062ec72f39851c62dd03eefd0572c8f15e7d587d49a4089c2cc9f8c75de",
        "c5b8c0a1ccebdcae4c2124c380e2cd2941dd503ae897ff2623c557d9b436296e"),
    "clone-none-2c": (
        "2d2328b51e9f6a989dbb4f878afa33dcb6e96258e4b807f76e2adbef9a54b558",
        "d7dd492c94e95780403f235759243d9c1836321e63f9019696a8a9efce9ff1f5"),
    "clone-zpoline-1c": (
        "d75a87a69d0afc2502d818018329f2472c0c3f5b1e8785e933a8b5229351d1af",
        "c1ab094b6e7d839b9d3ffa0b70786249bcdd24bd088b9a4639ca92d477231b50"),
    "clone-zpoline-2c": (
        "61afffab7df26c4cf827e55abb234678d7b2918e47bb1a10db9195f6ecebe8b1",
        "2bbd4927b0dd70404d1a38cdcd5342a474c48858c3ac9622fb3ffc38b501b83f"),
    "cp-lazypoline-1c": (
        "cbc0355654cff773fa7cf0e420c01bf9d87de38f981675dd72189f3fa33860ad",
        "3227794ce02613eb6238facfdee6fc2aa2be878bfdd7c47413c3f8cc16a51ae4"),
    "cp-lazypoline-2c": (
        "0e90c02603343db21675fdd4b0346dc2acd77036b5cf98c50ce144f5f90b13cc",
        "d95d0bd2cb7518d91b973522d139b72560d499b9857876d4a23220a34fd94c7a"),
    "cp-none-1c": (
        "94f6f71949fabf0ec69514b361dee1daca177682f82c79dddcf7a42f2b396c1b",
        "99bc4f5229a36fff02f6300e8c1cf11968b46fee904ffe94ba0952ca462b6101"),
    "cp-none-2c": (
        "16a24a7540eccc19b564b36964ffd70a2f12fc1c2d185f0eb644690a38b62e82",
        "0820b7256bb6f260d89c31f865ccc5330f499fc250498da75e22ef49b171e507"),
    "cp-zpoline-1c": (
        "4bd37a41b520782e05ff6d2cfbf71014c92451da5715e4f80b74a4f26a4de369",
        "bd5442ead28a46c0f445abe0c79ee587b5a2289d93a148298b93fb9f8e1f02fd"),
    "cp-zpoline-2c": (
        "e8cec0d840e89eebb00c59505a0365831975ae35a16c80f4f24b52fe9eb58322",
        "f0eabeeca69af09b0bab0f67a97499bfd714d75a3ab05e81f8e4dc8d367a1849"),
    "gs-fault-1c": (
        "feaa7d2f3b586943d9ad9a12f7ca8f2a5259453ed528663088ff7f0242d5392c",
        "f5251eeced5231fb18d8dbd381de8e04ca157dafcb3a3364d0166fc0313eb31b"),
    "ls-lazypoline-1c": (
        "698ea80292836967a9f8a83c7e318c50ed539a339804d4343dd82fb4d1bfe4a8",
        "41cf42c26f2498c188f6c4f0ba5c4fa66c7baed8f418bbc197ec16a95c8319eb"),
    "ls-lazypoline-2c": (
        "28904bb1a5fbb5bd365b7581cec46e40ae79c127625148011527428b8e5cb6d3",
        "76e47b92b06ef2093d7603dd2795c621457bec9a3ae88a485a45fb9441293492"),
    "ls-none-1c": (
        "263b4bc01681d687a1a02a63f8d8d61e76c5d2c68685f0198cc0efe35f4a17b7",
        "eb1444f9a43b88d28a6dad6ed4a03f8d8fe7b064fe7496b08e4937fb0be2b5b3"),
    "ls-none-2c": (
        "16b3e35be01e43db6f69b2fecbe13363d5665310fc7662439d34c943dbfbbbd6",
        "9666153adf36f1a20f462465baa79b2f515908c4455f159e4d5ac7f98374c5b1"),
    "ls-zpoline-1c": (
        "d2e91c5ea117bf6f19704063c111187fd65a4aca67ebf14f421a1917233646c7",
        "ee1aac3b90c6cda0d7c0ea9651e4d98ced7b6667e24e46fc5c0500be86ed6ae3"),
    "ls-zpoline-2c": (
        "5ac39a68aac0fe3d01c0b92ae4df28e8a1eb701935dde888dc7faa5eacae04af",
        "64c202900a515c5dd802bbfc488a86388c3f30a732e0572e9f57494f783ad3f4"),
    "mkdir-lazypoline-1c": (
        "803b7095d3253995c3483025678e4d3ce8abd054819849347b5494bf28fe035a",
        "7c837c4e6ef0e14e897d698c593708831a5417ae863ea2b3f2a8bb55fd169602"),
    "mkdir-lazypoline-2c": (
        "a160781c5d736960f031b9766ea80f41b58951178f83f9fd10ca7be957063d53",
        "26d89662f2dc3554635c1d4e9b3d1a1d539c522df742923582ef269265d24c35"),
    "mkdir-none-1c": (
        "57a6efa4673ec67d099ba2a55461d949b37778653b7d7ef4a61152325e29a93d",
        "49d6b01d796e9db127e2b880e058bfd13053d9488d65a59523a266689c31c89f"),
    "mkdir-none-2c": (
        "d5e010a2d3719fa99ae8376193b15b6a84dc49d3c3604ec245aec50e41e5c7b7",
        "e7c1d30fadabe04446565c90e5b8795952694c9864d6c73344481b46dc82d2e3"),
    "mkdir-zpoline-1c": (
        "cc23ba149138ab94538bb8255277133ed762016c00819af80a097c12568aaec0",
        "3540606431f92f84a45e876fb4c0716a0b13994142d5a519eabffbba99f8fb17"),
    "mkdir-zpoline-2c": (
        "ba50fcff3800c83047a99405da94fc46b771e107cd742d6b68936fafeb863863",
        "a435e0baf1d105c7fa978713dc22d1d3f7ee47c449e5542f03e109e074ef3bc0"),
    "nested-patch-1c": (
        "6ed2d4ede62e5eb4c7b077a6217918d55b81c7550a3f7c32442acddeed9363af",
        "d317a402b1273ba09fe2b526eff0b7c369e73f3937480ca98b8618b369d3ca65"),
    "nested-patch-2c": (
        "3a8e43659ad94e77395b32862d890d194f688aa21e822c6b14e5676b29b522ba",
        "1036cdbb35cf7e59f7d418b20701a770098a9a286a91f7bad00f99816cdadb6f"),
    "pwd-lazypoline-1c": (
        "7101cadf5c7a4b6a829048425abd686d076bd42a8783081e58a7da49e16530c6",
        "d171168073cc80a96aec0b78b1a073c3da62dce885dfd3a0b4f6b69d4dfee75e"),
    "pwd-lazypoline-2c": (
        "19c32eccc775195a2384052cad2d31e8e6c3cef57b4c27376330687d98b8e250",
        "0ea728a09a5b2e613683922dd012194296a64571ab695e7ba1c479b2796cefc8"),
    "pwd-none-1c": (
        "eedbcbef0f92455901ff54fdb1c2eb8c36df2fdc9b304ce61b8aa3652ff7cd25",
        "375252060c39cbd51fe1f628b752ff951de4a256e23c3817381ff1ba7af85233"),
    "pwd-none-2c": (
        "da82e82c83b2c973ec1f4f42cd22df6d013a9f9fff96f85a546fc241e48b8f9c",
        "296761839e3fb5ef74b799db6e9662ae155a98b997604eb174c59a8fe989dc17"),
    "pwd-zpoline-1c": (
        "f4f2eed0c9ebf2b738aa0875b258e7fdbce6c347248f819154ef2cb48733a61f",
        "34e9234875ca215218413fe4397239bb60dc09146823d989ec8cf527f6ab26f8"),
    "pwd-zpoline-2c": (
        "92a39d3eff64081ada8516c397f5b9538e9b68ab816aa1ce40135209b7638f6a",
        "bad1cb55344b5191de7600d22c6af2221e47119746aaf5b95a144de184b102db"),
    "sled-both-1c": (
        "5d976863d78fd1498459436d5e3b16a4c7bc5060629c1835b50ba6ba5d414e80",
        "d09272b40ebab67c9dbd1dce9d1ded001d6df90a8d927c379f47a6d9540a1e95"),
    "sled-both-2c": (
        "d84aaadefbd1db0ae1d4fd3b022ae272501c0925a62cfd832c6dffadb8f2eb33",
        "f7d9d1d5f782f92efa151f19a31b45ff906eb9f39e4afc056b73162837c0ddaa"),
    "sled-patch-1c": (
        "7b8983d39ea0ee82f3c2af876733f168cfb3b5a0a27a2e66254b7015651b5da8",
        "3150b09308def6066953ced29554013f10f30a46f54f22976d1dee313413c0a5"),
    "sled-patch-2c": (
        "01721872587d727c8447f064b06173b954ec89bfdc55db36a640da53a6ec89de",
        "d0d19a41ecb6b6001324dd7053e1e8f78388fe40e091abc05f4f8160f8be3a1d"),
    "sled-threads-1c": (
        "bf68f04470c6fcf48826f7488c41edbd8561dd429c0bc89df3283afc9374d8b4",
        "e951497d76ce9982180e51ede7167b760174b509eb972b106df28218fef03ec0"),
    "sled-threads-2c": (
        "8dc34dc3824cb85ac6c8489017a2618db21807c27fa3f725db5c999ab70d8a57",
        "3b52f36d6f2db0e8a19e16a2f74214cb7f588cecbd774b75c59cc15e96711e4e"),
    "tcc-lazypoline-1c": (
        "4fc1296743887fb70d451195efd44fa3ac38aa6d50f7f5b5721533d62aab4d35",
        "551cd2b353c31db9987518e32c0c1f925a05a7aaf72908277618508462dcb408"),
    "tcc-none-1c": (
        "c6406f6c2065e7ddda4c95f3897e238872dde2df8949f9b46b7a6b69f8b5f07b",
        "c19ca603b2f6bb31fc0c37849f16cb8efc7aeb237e9b05a822220591d19a17cf"),
    "web-async-1c": (
        "19ef293ba08440e131d992d39914372f3b45b78d0ab6cba510720e6568a240a2",
        "ac2aeebbeb36b0b0fe5775da5522e8a766e0e719e8e7ce5b7243248952f9bca6"),
    "web-batched-1c": (
        "582d5ea689c47ea50455afcd7a09838b0bcfebf4beb8b058f63b6c253f4075cb",
        "c8be468745ed53c4738ab50b36138a99ba6ac101d0cc4bc7fce34050af2d62a9"),
    "web-direct-1c": (
        "5206ff46aaca7329b8d63546dfd4b26eead256da76aec8526d1547cfdb593e45",
        "65a9f4101e172b773d588225eef444dbce3672a25b7d5cb9397c811170415cac"),
    "web-prefork-2c": (
        "61131e88e2a6a6b02ced738a0916044bc13ae4d323ed01b226cdf24604eb087f",
        "5a07e28d87b6967d03480fc9f1b58a3b10eb111c2dcb3bf84a09d1e3fa3aa0ba"),
}


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_tier2_counters_match_pins(run_id):
    assert set(PINNED) == set(RUNS)
    counters, clocks = run_digests(run_id)
    assert counters == PINNED[run_id][0], "tier-2 counters moved"
    assert clocks == PINNED[run_id][1], "simulated timeline moved"


if __name__ == "__main__":  # pragma: no cover - re-pin helper
    for rid in sorted(RUNS):
        c, t = run_digests(rid)
        print(f'    "{rid}": (\n        "{c}",\n        "{t}"),')
