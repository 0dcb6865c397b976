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

from repro.interpose import available_tools
from repro.obs.cli import main

pytestmark = pytest.mark.obs

SMOKE_DIGEST = (
    "65654852affefbfa37a1ad44a57e9e57750fefd1e72ab6c3a5da5811fefdd5c3"
)

#: (workload, tool) -> sha256 of ``run --workload W --tool T --format summary``
RUN_DIGESTS = {
    ("microbench", "lazypoline"):
        "f5fb3e2f2b1f32102406239b9863fb38f9aec80a3eb3a9c5de30934aa248be75",
    ("microbench", "zpoline"):
        "1874125b537bb1e7442499a7a4a10b89318258152e5727149bbb36e71971a1aa",
    ("ls", "lazypoline"):
        "d36b449584e8c47bc4c3bc8b451d4457817faa36a1dc91bd88f259b60466f304",
    ("ls", "zpoline"):
        "c4f1e4ec518d4eb19d318ce8478c7694510565d6f9b73f4dec299bfa02427b1d",
    ("tcc", "lazypoline"):
        "9366373663021f8ac990b8de611e89bde31b25716b2b818e9aa273f9f5dde8d0",
    ("tcc", "zpoline"):
        "a977ba4dd5d4e8ce52aeae167e86976c1f2b0b1e4c8e400cc22142c6b7fdb7d6",
    ("webserver", "lazypoline"):
        "8c3bbfe9ffc0cd2ef54dbac8233db6e21eeada5c0609c2fee7b405407b88403c",
    ("webserver", "zpoline"):
        "db953100a579b6fce79e22f23466bc7c49ed40a10be3620e53bcd8cc7145bf0a",
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


def test_tools_lists_every_attachable_tool(capsys):
    assert main(["tools"]) == 0
    assert capsys.readouterr().out.split() == available_tools()
