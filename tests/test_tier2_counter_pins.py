"""Tier-2 counters pinned run by run.

The superblock tier's cycle-identity tests prove that tiering never moves
a simulated cycle.  They cannot see a change in *how* tier 2 gets there:
a head counted twice, a cut variant never taken, a stale block kept one
lookup too long all leave cycles alone and only move the tier's own
bookkeeping.  This file pins that bookkeeping per run, as two sha256
digests over a fixed matrix of guests, tools and core counts:

* ``counters`` — ``superblock_stats()``, the decode-cache hits and
  misses, retired instructions, per-core slices/steals/shootdowns/busy
  cycles, every block cache's blocks (key, length, runs, and the cut
  count, runs and retired instructions of its cut variant), hotness
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
            sorted((repr(k), b.n, b.runs, b.fn is None, b.cuts, b.cut_runs,
                    b.cut_insns, b.cut is None)
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
        "d908f3483b82f9ca9c9fc9097954c6ce2ca629220dbdba9059d88c12ddfd73b4",
        "6bb0ad6d11a01fe4089fcad6a35d119c8d81cb8b3754b0aeb930504e1c114f12"),
    "body-plain-1c-q13": (
        "3e09573b903b4b6cc35f31f085a489988959d69eedaac1dd4e74e5c53d23c7ac",
        "bfd56e679e0d7ac4e7b516ac96d55a6e4d0cfa1b5499fd6bcd80e6a1178246ca"),
    "body-plain-1c-q5": (
        "2afddbd843f966869ea48186a8ca93ae107dd92971a005d3dd35f806b511e5a0",
        "016eb2eaa2e3292ee79dce04130470a8662cfe627be01f48fdfe9993eecb5c9c"),
    "body-plain-1c-q64": (
        "9f5b26437b9f1ad6b46c5a095d8141cac5f980d6129c6575f131f71372e25569",
        "a9dbd0878615b0656d7577068659f59e19259681aaca8bd46b04d4a2512a7a3c"),
    "body-plain-2c-q7": (
        "7c3bdf7710b16b81fb2db0d965a80036985eca73f302ee7aa877857608ddff33",
        "4e7754b9178ad58efca6994dc3621667e86b812e264c6d2fa6100d76924481d9"),
    "body-signal-1c-q13": (
        "39eca84a6402e5f0aea0837f4213f4e84d2c01f40fc3dc6482aad6b3d4c45979",
        "d232814ccac27a25ad2ef17153c5b8aa201d7ceeaea0bd863c9576afc0759206"),
    "body-signal-1c-q5": (
        "671d5df04be083534d74376435141db5efe32eafc943e72a964a215e5747a6e2",
        "a6653354d84e20f8fa2d1668675032d0455873f3d88b4c0264a30e09bb0215f4"),
    "body-signal-1c-q64": (
        "b647f92cf2bedfc2049c730a29146510cabfea0ca4baf02457d87aa082f80672",
        "848ea00f26dde3a5e96344bd11272193d86dc2d189e3d34e51638fe9cd8d4f29"),
    "body-signal-2c-q7": (
        "d205c772c5e15143c27a64d1aefd240bfce863f9df622dc273bac67d2464344f",
        "24dd795afff03f0e95ac81479f21af1a7606fecfd58440e2e4c6013af168f91d"),
    "body-smc-1c-q13": (
        "2e6311e5de70cad4ef3b5335d18caa460fe6a05943a4d5ab7b2d49835f954905",
        "c065a64f03bd935a8713bea07bde417a746512120a38d428ba0dda1f3fe5944e"),
    "body-smc-1c-q5": (
        "a47d422b28e08c005e3596006c814ca323f4bc3a6e48566106cb1f1bab03a7ec",
        "4a285c8f161cef94163737aee3c6ba78a136b797f01e149c90b04f809155c1b7"),
    "body-smc-1c-q64": (
        "f84bf8f077239ed0ead293129d94fd99bd82e4afa2e4cab58006e40c6585ed08",
        "273027d23e6b72874bca2f1f158f4cc561e9006428a5a7ad61b41d3044cff342"),
    "body-smc-2c-q7": (
        "89520148029c0b1b86f8fa90163963c2828391bf087a29ac1bc720728e3bf1c8",
        "6589924b8e40cbbb69a12f505a27a307e6f2ccf07a8f388de85e86075ad90a67"),
    "cat-lazypoline-1c": (
        "1365aaf54abcaad37a26c6f920bcf74f2eecce9e5e66d55198bff7a588fb7d04",
        "5b5fa98d1d954358f86cc3df1d092715e49ccfa8fb0e24971221ea15e857bfe6"),
    "cat-lazypoline-2c": (
        "a4c6aaa7a8105571bb343c0cd2a9d66a5d391707509a60fdbf21bb60116023e2",
        "9c26bedba3e9598dd82f7bdb5fb9c97b2eefe371350099026e2316f2ccb0a907"),
    "cat-none-1c": (
        "3f3e61403149200ed9b28e1f6e93f5da1d507f940637de1d4669e923c45030e4",
        "d301f5e4184d6a7c0f00f2c447423c6146289080ffe3da5fcc19fcf8664437c0"),
    "cat-none-2c": (
        "637c7d11f0c95fb14a1c614c363541136780e03d6ae46ddebe46587df319fd93",
        "63b9f2ec598823609a3a7081873eb1029e737cc9c72c1a92328089cd4fca7d30"),
    "cat-zpoline-1c": (
        "461ec97de511b50125042958aea4160e267946e3e4b22aff65650778e7983787",
        "d3e7642689273f30eb507db1d07e9c00519d3509f7b1306bf8b4233b4c541d44"),
    "cat-zpoline-2c": (
        "d619857733376d72dfee63e461e1ef7cf3d82f6db206e14e3a014bd435957576",
        "d060dd9414b8bc7909e437f833af72d3bf132067070d234d4b513c74ce32405e"),
    "clear-lazypoline-1c": (
        "7350370d05b0fa49bd53cdba4e23d3a29af3e6b67a81512c8a30b8fa67e8ed2f",
        "fd3bb0d2617df81f75ce73e8152315a61e89dc69ba8c4ae46a7647c087b6e7c6"),
    "clear-lazypoline-2c": (
        "9b9ba0908a0593e66dc197550bcd0afd8791f9898f9652b90d629b08a7dda803",
        "7ea25c0a58f001589008b8c06f6799cc3673c5fcba893a1b10cfc9beb6e00536"),
    "clear-none-1c": (
        "7c687534bad06d6f7801dff5b813ff1b76d281e8c3f7e78a357f475f2a4023b6",
        "bb25eeeae87d10a2f33a3a320ad1e23e9ba2db09a2ffe249ecc267cc3747879a"),
    "clear-none-2c": (
        "6af8ce574425f299eb9aa9c24f11d0ba62dfbcd6d07f93734cae01ec6c20fba8",
        "c3483331b5454261e4247c898b417ee7ca7ed7a90a9bf4a4f8eebdcff82db0df"),
    "clear-zpoline-1c": (
        "2950924458667940c08f91007e63ed7039566d6e478e4093dcd6d362d40b90da",
        "7d4d6c6b80fdd8806c706bcb6e157c9881e04ef8fb6b3f97496f07cc29a03a03"),
    "clear-zpoline-2c": (
        "1d508bb7b214c41e339b3842b42fd33d3841e8461c6ad41f83a25f4e5401e205",
        "dc34a11d6c0e7b76b9dc44569dd578e8a4f172833883e4e9a4dfeac71f08dc59"),
    "clone-lazypoline-1c": (
        "4ecf479500cd7bd6579f784e5464de3ccd786b6df3738d855924280e04a2db9e",
        "e8ee20a74c4c8a32fc61c31ff87ae4619bf89152ee7239d1ec5f558ed5e6c226"),
    "clone-lazypoline-2c": (
        "a06dc986f663afeb6df741bac331c6b7296f07fa6a980cb1baba5b299f20e183",
        "ccb634fca16d91433e52008d822fa253246940f544255b531effaf94d09cdefe"),
    "clone-none-1c": (
        "c5436185d1b5ce785faa978431e325d82995109de6def8f1da76faf3cb75087c",
        "c5b8c0a1ccebdcae4c2124c380e2cd2941dd503ae897ff2623c557d9b436296e"),
    "clone-none-2c": (
        "dd5956137f3ddd292ed8ca34c9bda1a00a01438cbf258ce256fb31aff562fe43",
        "d7dd492c94e95780403f235759243d9c1836321e63f9019696a8a9efce9ff1f5"),
    "clone-zpoline-1c": (
        "dbd68238b3b32892b0558167072f2ee77174a7ea256c02b62ed7364a6aa10af3",
        "91be50e60371c43ab0df615d832bb51157839e1b263a581b403d16f56f49b3ce"),
    "clone-zpoline-2c": (
        "dcc63c7cadc38790f5fbae7503c8e87091018a4a16646211ff20989b928c7fb4",
        "143bfa1458d946198926fda0670ae401ea88d66e35ff093b7be60fbcb9f856e3"),
    "cp-lazypoline-1c": (
        "06b3548c52c8eb679f4f455db5b3658485e7570be07050a3f56484644fe5957e",
        "3227794ce02613eb6238facfdee6fc2aa2be878bfdd7c47413c3f8cc16a51ae4"),
    "cp-lazypoline-2c": (
        "f423d3c1e006794b5c4d56fe886af93662e215da0fa9b926111459b4ed62db6b",
        "d95d0bd2cb7518d91b973522d139b72560d499b9857876d4a23220a34fd94c7a"),
    "cp-none-1c": (
        "b3b75fae52dd292b2cfb69c311955fd35fd695569f053f0a509827d603ec9c6b",
        "99bc4f5229a36fff02f6300e8c1cf11968b46fee904ffe94ba0952ca462b6101"),
    "cp-none-2c": (
        "cb56bca832dab8e87b8d44bf01bd9e46824d368a3ec386d874797d7f241b8753",
        "0820b7256bb6f260d89c31f865ccc5330f499fc250498da75e22ef49b171e507"),
    "cp-zpoline-1c": (
        "b9d65a4b12ac94d84df47ef07a4cdc3e0e1bb040e12d9e1bca72592bd5e351a0",
        "bd5442ead28a46c0f445abe0c79ee587b5a2289d93a148298b93fb9f8e1f02fd"),
    "cp-zpoline-2c": (
        "ae207ee3cc410a8010944f5760bf1fdd709bd75d0f503dbc746bbaa3b41c5074",
        "f0eabeeca69af09b0bab0f67a97499bfd714d75a3ab05e81f8e4dc8d367a1849"),
    "gs-fault-1c": (
        "866c33ce715ef48b675af41fdc20e7a88cae6df766cf31588d38d455d51b59b0",
        "f5251eeced5231fb18d8dbd381de8e04ca157dafcb3a3364d0166fc0313eb31b"),
    "ls-lazypoline-1c": (
        "f87b1b3408edd97041fa162afbb0c923efbe54d5cc1f7dbcdd89bbf6959043b5",
        "41cf42c26f2498c188f6c4f0ba5c4fa66c7baed8f418bbc197ec16a95c8319eb"),
    "ls-lazypoline-2c": (
        "6ce391941b5e09d9a2f992221ce8b80d0cff4857ab82368d0a01e018e1a6b440",
        "76e47b92b06ef2093d7603dd2795c621457bec9a3ae88a485a45fb9441293492"),
    "ls-none-1c": (
        "b61a6f1bf3ad86650e75e187e1c191d6b99f527aee19738b478cf86c6d9c7fb0",
        "eb1444f9a43b88d28a6dad6ed4a03f8d8fe7b064fe7496b08e4937fb0be2b5b3"),
    "ls-none-2c": (
        "717ee21b3693c883c751185f69a0310e07bb90533653022a2351cfb68fb78d21",
        "9666153adf36f1a20f462465baa79b2f515908c4455f159e4d5ac7f98374c5b1"),
    "ls-zpoline-1c": (
        "6e799df0f4bf781e02fb56828041ac51d259142fc6f13721b56405300f24af3e",
        "ee1aac3b90c6cda0d7c0ea9651e4d98ced7b6667e24e46fc5c0500be86ed6ae3"),
    "ls-zpoline-2c": (
        "6ffc502495164eeb57288d8d7685568765ecfc92c16c199f13e28db555b0f94c",
        "64c202900a515c5dd802bbfc488a86388c3f30a732e0572e9f57494f783ad3f4"),
    "mkdir-lazypoline-1c": (
        "095d9f09323edd441934844c0bed4c29d9e556423e9832ecaf0f02aaf2005c2e",
        "7c837c4e6ef0e14e897d698c593708831a5417ae863ea2b3f2a8bb55fd169602"),
    "mkdir-lazypoline-2c": (
        "c4abdf646a5a66fce42cdc84978b5a860bc224ae8bac849f467783f79a38c81b",
        "26d89662f2dc3554635c1d4e9b3d1a1d539c522df742923582ef269265d24c35"),
    "mkdir-none-1c": (
        "3cc13c4e231d5af45e307dfc1c890dd398b165385cb511f90f0d65ec4557fed3",
        "49d6b01d796e9db127e2b880e058bfd13053d9488d65a59523a266689c31c89f"),
    "mkdir-none-2c": (
        "72055073eeadce16b1d04d7023eb327cf4c33394dd94fbdfb2f7c54477ac5bbb",
        "e7c1d30fadabe04446565c90e5b8795952694c9864d6c73344481b46dc82d2e3"),
    "mkdir-zpoline-1c": (
        "24c836788a4e26724a9b1585bece5da6d62150eaea2339e640ed6005fd6d958b",
        "3540606431f92f84a45e876fb4c0716a0b13994142d5a519eabffbba99f8fb17"),
    "mkdir-zpoline-2c": (
        "a9b87f8e802556966f832c945ba58dd527c6da88b9b6a1701b14c3a62d6ca0d4",
        "a435e0baf1d105c7fa978713dc22d1d3f7ee47c449e5542f03e109e074ef3bc0"),
    "nested-patch-1c": (
        "8011a269174f2ddd26e5c91c601200f03b069c51df908e263c9b3c7ee5eb8d40",
        "06ee195a279501cafc1b879ebfa1d6d0fc2c41ea3f2fb21529b81d4104999042"),
    "nested-patch-2c": (
        "aaaa2861b658257efec03458b283cc0402b88ea1779da8b859854d6fa9160454",
        "1b7d9a56e1cb84bfc5188498ce837b709940d7501d370a4de92a4be9d2c82513"),
    "pwd-lazypoline-1c": (
        "f5c941359c4b2100ccdcc45208d8cc8ff8cd712727c18342956206bb666540f7",
        "d171168073cc80a96aec0b78b1a073c3da62dce885dfd3a0b4f6b69d4dfee75e"),
    "pwd-lazypoline-2c": (
        "b798abb78b2ab965916fccef0e4eee9020fc34876ea3053627964308ea1de49a",
        "0ea728a09a5b2e613683922dd012194296a64571ab695e7ba1c479b2796cefc8"),
    "pwd-none-1c": (
        "38b368940813d5aea48559a4604d27f024dbe8a4042a2c23ffa9bcb062e309ce",
        "375252060c39cbd51fe1f628b752ff951de4a256e23c3817381ff1ba7af85233"),
    "pwd-none-2c": (
        "2f4b3c46e214dcb6ec5dd96921040b60baf969c2f8b44726fa128dfaa8a5e90b",
        "296761839e3fb5ef74b799db6e9662ae155a98b997604eb174c59a8fe989dc17"),
    "pwd-zpoline-1c": (
        "f3e38f2851aab7484a27800b86a8b2b915b3f5a1f9f7f288e0ff719f75e5a2ba",
        "34e9234875ca215218413fe4397239bb60dc09146823d989ec8cf527f6ab26f8"),
    "pwd-zpoline-2c": (
        "6decacfa5511deda1121e0d5572b7c4cb76b306c7c6b7c095e4ba43e2c9b917a",
        "bad1cb55344b5191de7600d22c6af2221e47119746aaf5b95a144de184b102db"),
    "sled-both-1c": (
        "f2231dc6e7e4f8480c8388ac02ead6afc437427e5790d1b688206b4847b141ad",
        "5286eee7d6be408f1e1d27f7ad259cddcf016762e55973b0d7290a82d5b1f231"),
    "sled-both-2c": (
        "a0235203878864555e36090a7c6d61e53c7818b81f86ded0bae844001abe2603",
        "f7d9d1d5f782f92efa151f19a31b45ff906eb9f39e4afc056b73162837c0ddaa"),
    "sled-patch-1c": (
        "d471dfb1d9dd18eae40d464f3ccaad90b31f6746bf43c23b3abd229eccb47b05",
        "3150b09308def6066953ced29554013f10f30a46f54f22976d1dee313413c0a5"),
    "sled-patch-2c": (
        "7218e040c7df1d28230b32e6171e274b68eaa562c8e45070872acee471c5550f",
        "d0d19a41ecb6b6001324dd7053e1e8f78388fe40e091abc05f4f8160f8be3a1d"),
    "sled-threads-1c": (
        "0c0901c0254ee17f49a3012599ccce20cad0023a004d044c324fc8784789f6f8",
        "261e5e4760bc1a231b0f5839c61dc4e89f2c74832d72e4bb32082da43b49a1c4"),
    "sled-threads-2c": (
        "47e24ab61921945b3478774134c8ac4cd51c253917a4846b7935514644756523",
        "3b52f36d6f2db0e8a19e16a2f74214cb7f588cecbd774b75c59cc15e96711e4e"),
    "tcc-lazypoline-1c": (
        "375dd11d3bfaa591666242aa2bdeaa6a49d72bbfa7d2cde061e99c4cb5d747d9",
        "551cd2b353c31db9987518e32c0c1f925a05a7aaf72908277618508462dcb408"),
    "tcc-none-1c": (
        "f7d1fe44aeff6d3c7f6165c1de179d35ba15dd131fd278c3c2b52b73ea6064c4",
        "c19ca603b2f6bb31fc0c37849f16cb8efc7aeb237e9b05a822220591d19a17cf"),
    "web-async-1c": (
        "28ed4bd066a4adc940f6c709f95aaeecc7a3fc582476c58283c2603304e25939",
        "ac2aeebbeb36b0b0fe5775da5522e8a766e0e719e8e7ce5b7243248952f9bca6"),
    "web-batched-1c": (
        "fc7eef7ec29b288341b42d9b54f0c14145ac98814773af2bf00b05e375603451",
        "636585d8424c63512e1e0f7299afadf00f4dea579e1f7d743c47d13081927417"),
    "web-direct-1c": (
        "472af2cd9101303cc5f2f4cb60195feceb389a9fad1ea97d9b753dab65b80701",
        "1a54bd0a091e3b00e6979db94ee328401a51ef25afeedc799511513179aed59d"),
    "web-prefork-2c": (
        "e6a9e762909e1d9629f0004bf3f126ab9cbf741f3e14c8e57dc31911ed4eac2c",
        "44c41d6fe083e026c2acb50eba36959a497eb875c8590b33fa1be04ced53ce57"),
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
