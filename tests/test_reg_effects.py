"""``reg_effects`` pinned, and checked against execution.

``reg_effects`` feeds the Pin-style analysis of §IV-B (Table III).  Two
checks keep it honest:

* a sha256 digest over every mnemonic × every combination of its
  register operands (other operands zero) pins the exact sets, so a
  change to how the sets are produced cannot change the sets;
* a property test runs one tier-1 step of any instruction on a random
  register file and checks that no register outside ``writes`` changes,
  and that the written values do not depend on registers outside
  ``reads`` (a second run with every other register re-randomised writes
  the same values and faults the same way; a register in ``writes`` that
  neither run changed, such as a syscall clobber the environment left
  alone, wrote nothing).
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from insn_corpus import LAYOUT, cases, machine
from repro.arch.isa import Instruction, Mnemonic
from repro.cpu.hooks import reg_effects
from repro.errors import BreakpointTrap, InvalidOpcode, PageFault

M = Mnemonic

#: sha256 of every (mnemonic, operands, reads, writes) line, recorded
#: before ``reg_effects`` was derived from the instruction table.
PINNED = "83e2cfae6898f420490f19ac3c926736d9a8e60883d7b3605d72c51ebd345617"

#: Conservative approximations, where a written value depends on state
#: that is not a read: the x87 stack is tracked as one unit, so ``fld1``
#: and ``fld_mem`` push onto slots they do not read; ``xrstor`` writes
#: every xstate register but restores only the components its area's
#: mask selects, leaving the others as they were.
DEPENDS_ON_UNREAD = frozenset((M.FLD1, M.FLD_MEM, M.XRSTOR))


def _effect_lines():
    for m in Mnemonic:
        kinds = LAYOUT[m]
        slots = [range(16) if k in ("g", "x") else (0,) for k in kinds]
        for ops in itertools.product(*slots):
            reads, writes = reg_effects(Instruction(m, ops, 1))
            yield f"{m.value} {ops} {sorted(reads)} {sorted(writes)}\n"


def test_reg_effects_match_pinned_digest():
    h = hashlib.sha256()
    for line in _effect_lines():
        h.update(line.encode())
    assert h.hexdigest() == PINNED


def _state(regs) -> dict:
    """Every register id ``reg_effects`` can name, with its value."""
    out = {("g", i): v for i, v in enumerate(regs.gpr)}
    out.update({("x", i): v for i, v in enumerate(regs.xmm)})
    out.update({("y", i): v for i, v in enumerate(regs.ymm_high)})
    out[("st",)] = (tuple(regs.x87), regs.x87_top)
    return out


def _rerandomise(regs, keep, seed: int):
    """A copy of ``regs`` with every register id outside ``keep`` drawn
    afresh."""
    rng = random.Random(seed)
    other = regs.copy()
    for i in range(16):
        if ("g", i) not in keep:
            other.gpr[i] = rng.getrandbits(64)
        if ("x", i) not in keep:
            other.xmm[i] = rng.getrandbits(128)
        if ("y", i) not in keep:
            other.ymm_high[i] = rng.getrandbits(128)
    if ("st",) not in keep:
        other.x87[:] = [rng.getrandbits(64) for _ in range(8)]
        other.x87_top = rng.randrange(9)
    return other


def _step(m, ops, regs, seed):
    cpu, task, _env = machine(m, ops, regs, seed)
    try:
        cpu.step(task)
    except (PageFault, InvalidOpcode, BreakpointTrap) as exc:
        return task.regs, (type(exc).__name__, str(exc))
    return task.regs, None


@pytest.mark.parametrize("m", list(Mnemonic), ids=lambda m: m.value)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_effects_bound_what_one_step_does(m, data):
    ops, regs, seed = data.draw(cases(m))
    other_seed = data.draw(st.integers(0, 1 << 32))
    reads, writes = reg_effects(Instruction(m, ops, 1))
    before = _state(regs)
    after_regs, fault = _step(m, ops, regs, seed)
    after = _state(after_regs)
    changed = {r for r in before if before[r] != after[r]}
    assert changed <= writes, (m, ops, changed - writes)
    if m in DEPENDS_ON_UNREAD:
        return
    other_input = _rerandomise(regs, reads, other_seed)
    other_before = _state(other_input)
    other_regs, other_fault = _step(m, ops, other_input, seed)
    assert other_fault == fault, (m, ops)
    other = _state(other_regs)
    for r in writes:
        # Only values actually written: a syscall's ABI clobbers, for
        # one, may keep their old values.
        if before[r] != after[r] or other_before[r] != other[r]:
            assert other[r] == after[r], (m, ops, r)
