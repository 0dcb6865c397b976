"""Shared test fixtures and guest-program builders."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.arch.encode import Assembler
from repro.arch.registers import GPR_INDEX
from repro.kernel.machine import Machine
from repro.kernel.syscalls.table import NR
from repro.loader.image import image_from_assembler
from repro.mem import layout


def pytest_addoption(parser):
    parser.addoption(
        "--fault-seeds",
        type=int,
        default=32,
        help="seed sweep breadth for @pytest.mark.faults tests (default 32: "
             "the smoke tier, which already covers every instruction "
             "boundary of the lazypoline windows; raise for deeper fuzzing)",
    )


@pytest.fixture(scope="session")
def fault_seed_count(request) -> int:
    return request.config.getoption("--fault-seeds")


@pytest.fixture(scope="session")
def fault_seed_corpus() -> dict:
    """Recorded regression seeds (tests/data/fault_seeds.json).

    Every seed in this file once exposed a bug or pins a boundary worth
    keeping hot; the corpus-replay test runs them before the sweeps do.
    """
    path = Path(__file__).parent / "data" / "fault_seeds.json"
    return json.loads(path.read_text())


@pytest.fixture
def machine() -> Machine:
    return Machine()


def asm(base: int = layout.CODE_BASE) -> Assembler:
    return Assembler(base=base)


def emit_syscall(a: Assembler, name: str, *args: int | str) -> None:
    """Emit a syscall with up to six arguments: ints, label names, or the
    names of registers that are not argument registers."""
    regs = ("rdi", "rsi", "rdx", "r10", "r8", "r9")
    for reg, value in zip(regs, args):
        if value in GPR_INDEX:
            a.mov(reg, value)
        else:
            a.mov_imm(reg, value)
    a.mov_imm("rax", NR[name])
    a.syscall()


def emit_exit(a: Assembler, code: int = 0) -> None:
    emit_syscall(a, "exit_group", code)


def expect_rax(a: Assembler, value: int, *, step: int) -> None:
    """Exit with code ``step`` unless ``rax == value`` (the exit is the
    ``bad`` label that :func:`exit_steps` emits)."""
    a.mov_imm("r15", step)
    a.cmpi("rax", value)
    a.jnz("bad")


def exit_steps(a: Assembler) -> None:
    """Exit 0, then the ``bad`` label: exit with the failed step in r15."""
    emit_exit(a, 0)
    a.label("bad")
    emit_syscall(a, "exit_group", "r15")


def finish(a: Assembler, name: str = "prog", entry: str = "_start"):
    return image_from_assembler(name, a, entry=entry)


def run_program(machine: Machine, image, argv=(), max_instructions=5_000_000):
    process = machine.load(image, argv)
    code = machine.run_process(process, max_instructions=max_instructions)
    return process, code


def hello_image(text: bytes = b"hello\n", exit_code: int = 0):
    a = asm()
    a.label("_start")
    emit_syscall(a, "write", 1, "msg", len(text))
    emit_exit(a, exit_code)
    a.label("msg")
    a.db(text)
    return finish(a, "hello")
