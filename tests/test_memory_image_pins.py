"""Guest memory images pinned run by run.

The tiering identity tests compare two configurations of the same code;
they cannot see a change that moves both tiers the same way.  This file
pins what a guest leaves in memory, as one sha256 digest per run over:

* every mapped page of every address space the run's tasks hold, in
  page order: its number, permission bits, protection key and bytes;
* each space's exec-generation counters and ``code_epoch``;
* the loaded process's exit code and terminating signal.

The runs cover the guest families whose loads and stores the two
interpreter tiers serve from memory: the coreutils under no tool,
lazypoline and zpoline; nginx under lazypoline (direct, batched and
async ring delivery) and with no tool; nginx under ``lazypoline_pkey``
(its gs page carries a protection key); and the tier-2 gs-fault loop.

Any intended change to what a guest writes must re-pin the affected
runs: ``PYTHONPATH=src:. python tests/test_memory_image_pins.py`` prints
the current table.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.kernel.machine import Machine
from repro.workloads import coreutils
from repro.workloads.runner import attach_mechanism
from repro.workloads.webserver import SERVERS, ServerWorkload
from tests.test_tier2_counter_pins import UTILS, _gs_fault_image

REQUESTS = 60


def _run_util(name, tool):
    def go(machine):
        coreutils.setup_fs(machine)
        proc = machine.load(coreutils.build_coreutil(name))
        attach_mechanism(machine, proc, tool)
        machine.run_process(proc, max_instructions=2_000_000)
        return proc
    return go


def _run_web(tool, batched):
    def go(machine):
        wl = ServerWorkload(machine, SERVERS["nginx"], file_size=2048,
                            batched=batched)
        attach_mechanism(machine, wl.process, tool)
        wl.benchmark(requests=REQUESTS, warmup=4)
        return wl.process
    return go


def _run_gs_fault(machine):
    proc = machine.load(_gs_fault_image())
    machine.run_process(proc, max_instructions=2_000_000)
    return proc


#: run id -> fn(machine) that runs the guest and returns its process
RUNS = {
    **{f"{name}-{tool or 'none'}": _run_util(name, tool)
       for name in UTILS for tool in (None, "lazypoline", "zpoline")},
    "nginx-direct-lazypoline": _run_web("lazypoline", False),
    "nginx-batched-lazypoline": _run_web("lazypoline", True),
    "nginx-async-lazypoline": _run_web("lazypoline", "async"),
    "nginx-direct-none": _run_web(None, False),
    "nginx-direct-lazypoline_pkey": _run_web("lazypoline_pkey", False),
    "gs-fault": _run_gs_fault,
}


def _spaces(machine, proc):
    """Every address space the run's tasks hold, in tid order, the loaded
    process's last one included."""
    seen, out = set(), []
    tasks = [machine.kernel.tasks[tid] for tid in sorted(machine.kernel.tasks)]
    for mem in [t.mem for t in tasks] + [proc.task.mem]:
        if mem is not None and id(mem) not in seen:
            seen.add(id(mem))
            out.append(mem)
    return out


def image_digest(run_id: str) -> str:
    """sha256 over the memory images, exec generations and exit state of
    one run."""
    machine = Machine()
    proc = RUNS[run_id](machine)
    h = hashlib.sha256()
    for mem in _spaces(machine, proc):
        h.update(b"space")
        for pn in sorted(mem._pages):
            page = mem._pages[pn]
            h.update(f"{pn}:{page.perm}:{page.pkey}:".encode())
            h.update(page.data)
        h.update(repr(sorted(mem.exec_gen.items())).encode())
        h.update(f"epoch {mem.code_epoch}".encode())
    h.update(f"exit {proc.exit_code!r} {proc.term_signal!r}".encode())
    return h.hexdigest()


#: run id -> sha256
PINNED = {
    "cat-lazypoline":
        "8686a40827bc62511276edebfb4e39d25bcb31a2c612655d631147bd0a49f979",
    "cat-none":
        "68590ad8721ac2c97d075e08e03a8bcc5277b768db2fc7be6fde0d544ee07da7",
    "cat-zpoline":
        "165b253f329aeaa07f907b11fb214c2b19282a7891b97bb3d4461182ea6a10ae",
    "clear-lazypoline":
        "fa5fda5239efd73e69cc4e5bea8c8d5a5bd3036bb3c7e45a07ad9703413f1753",
    "clear-none":
        "8c6718c063b9e2d6b959a30472b1ae10b88fef5ff51890fc6a751a4392387fc6",
    "clear-zpoline":
        "9c37137d6838c99d30394c54b4a02c5c2c09f06311b031e3d36619606c4e82fa",
    "cp-lazypoline":
        "b97282c629ab46d2cb84ada0071d94e51e747b0f7d44c3a32a28a50f9329f60a",
    "cp-none":
        "6dfda1c02e774b07c522c04fc0a8cf5d88f71f6a99db1adb1715973a01e62762",
    "cp-zpoline":
        "a72a518e906d107b847c8377b9f4b1b495fe72ac65cd9ef973648d52d977ac3d",
    "gs-fault":
        "6a8b6ffe3b253d38b73e4dbb7f03953746eff31bdf79dc92ba7d1fad2c749533",
    "ls-lazypoline":
        "3a5216c7323d5fc645d05cd76a7260738d9ffdbe90c3e8aeb43d87e265680dd6",
    "ls-none":
        "60ccebf709fc2a2e3744058f04788948cc4b85558de4b1239b0b029562ddb283",
    "ls-zpoline":
        "c6055fa19224de5bad4329495bba4b125f4a4757ce8f53a1a9e3cfbb6d018d84",
    "mkdir-lazypoline":
        "7eb6932aa4d452621eedda5e88686475343cedcd9292af7339f83c4c843dd544",
    "mkdir-none":
        "5f5c9855294bf3938a30b11f46ae6d6341fbb2fe8fe7d70fbb65d7fa86137268",
    "mkdir-zpoline":
        "dd7e2660c9e71abc04b0c050108f4c1951a4f1730342c48548d921f1b26f1cbe",
    "nginx-async-lazypoline":
        "1d6bf0320824ba639edbca2d2387e4458759a812a59894ee1e080a2d930c245c",
    "nginx-batched-lazypoline":
        "3bce30e25b69f2701c790e8228a1b504747015c92a1ca20016cb5c01c16a47c4",
    "nginx-direct-lazypoline":
        "232442d6ddfc0213ebc894e2ac9bebb8ef977b5b9f16556f349f96339c3a6361",
    "nginx-direct-lazypoline_pkey":
        "cebb6594a6521321b927970c18c7c6c330b838255ee127d7d2294df09ec13dca",
    "nginx-direct-none":
        "04f077ad953a5af5d5ab2e5aab8ebe9b4bc119c0ef9c68d013c0c456e9154303",
    "pwd-lazypoline":
        "ca2cc858e1aac9e156dbfe56f553445dba7b8181d49c818fac152b1b33b36032",
    "pwd-none":
        "9cecf1c7c69361ef79d02565a72212d1de062ed78bf4958e4412121073f33b87",
    "pwd-zpoline":
        "20f0baa02fa479b8624d6a138b18f2cc205de597289dd116dca29e1ce851ec45",
}


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_memory_image_matches_pin(run_id):
    assert image_digest(run_id) == PINNED[run_id]


if __name__ == "__main__":
    print("PINNED = {")
    for run_id in sorted(RUNS):
        print(f'    "{run_id}":\n        "{image_digest(run_id)}",')
    print("}")
