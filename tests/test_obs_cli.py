"""``python -m repro.obs``: pinned output of ``smoke`` and ``run``.

The CLI renders whole traced event streams (event counts by kind, the
simulated clock, slow/fast path split, rewritten sites, the per-syscall
table), so a byte-identical summary means the workload ran the same
guest, attached the same way and was driven the same way.  The digests
are sha256 over the exact stdout of each command.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.obs.cli import main

pytestmark = pytest.mark.obs

SMOKE_DIGEST = (
    "fcda73d27f0065359a39757aa8ccdbb2a953cab0e79dafcfed90906cf5450bc1"
)

#: (workload, tool) -> sha256 of ``run --workload W --tool T --format summary``
RUN_DIGESTS = {
    ("microbench", "lazypoline"):
        "46c9e50e387406cf15d0c85e084e2872ea2ca62b31b354020bd0bc4b2a592ed8",
    ("microbench", "zpoline"):
        "fd4c39b40140ebd27783673188b6136ba24dee65396ecac0ceb729f4211f2358",
    ("ls", "lazypoline"):
        "d36b449584e8c47bc4c3bc8b451d4457817faa36a1dc91bd88f259b60466f304",
    ("ls", "zpoline"):
        "c4f1e4ec518d4eb19d318ce8478c7694510565d6f9b73f4dec299bfa02427b1d",
    ("tcc", "lazypoline"):
        "9366373663021f8ac990b8de611e89bde31b25716b2b818e9aa273f9f5dde8d0",
    ("tcc", "zpoline"):
        "a977ba4dd5d4e8ce52aeae167e86976c1f2b0b1e4c8e400cc22142c6b7fdb7d6",
    ("webserver", "lazypoline"):
        "2e430da75f1b7d150899dca861030a7e79032c44335190181b309a3cee4ce3fe",
    ("webserver", "zpoline"):
        "a38b4c0a90e4006874d4d8ebc2b84e102ee73fb7e10d52585986a5f0ebbaa5b9",
}


def _digest(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_smoke_output_is_pinned(capsys):
    assert _digest(capsys, ["smoke"]) == SMOKE_DIGEST


@pytest.mark.parametrize(
    "workload,tool", sorted(RUN_DIGESTS), ids=lambda v: v
)
def test_run_summary_is_pinned(capsys, workload, tool):
    argv = ["run", "--workload", workload, "--tool", tool,
            "--format", "summary"]
    assert _digest(capsys, argv) == RUN_DIGESTS[workload, tool]


def test_run_rejects_unknown_tool(capsys):
    assert main(["run", "--tool", "strace"]) == 2
    assert "unknown tool 'strace'" in capsys.readouterr().err
