"""A classic (cBPF) Berkeley Packet Filter interpreter.

This is the filter machine seccomp runs in kernel space.  Its deliberate
restrictions — 32-bit loads from a fixed-size data area, no pointer
dereferencing, bounded forward-only jumps — are exactly why the paper
classifies seccomp-bpf as *not expressive* (§II-A): a filter can read the
raw argument registers but can never follow an argument pointer into user
memory.

The instruction format and opcode values match Linux's
``struct sock_filter`` so real filter constants would assemble unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BpfError

# Instruction classes.
BPF_LD = 0x00
BPF_LDX = 0x01
BPF_ST = 0x02
BPF_STX = 0x03
BPF_ALU = 0x04
BPF_JMP = 0x05
BPF_RET = 0x06
BPF_MISC = 0x07

# Width / addressing mode.
BPF_W = 0x00
BPF_ABS = 0x20
BPF_IND = 0x40
BPF_MEM = 0x60
BPF_IMM = 0x00
BPF_LEN = 0x80

# Sources.
BPF_K = 0x00
BPF_X = 0x08
BPF_A = 0x10

# ALU/JMP ops.
BPF_ADD = 0x00
BPF_SUB = 0x10
BPF_MUL = 0x20
BPF_DIV = 0x30
BPF_OR = 0x40
BPF_AND = 0x50
BPF_LSH = 0x60
BPF_RSH = 0x70
BPF_NEG = 0x80
BPF_MOD = 0x90
BPF_XOR = 0xA0

BPF_JA = 0x00
BPF_JEQ = 0x10
BPF_JGT = 0x20
BPF_JGE = 0x30
BPF_JSET = 0x40

# MISC ops.
BPF_TAX = 0x00
BPF_TXA = 0x80

BPF_MAXINSNS = 4096
_SCRATCH_SLOTS = 16
_U32 = 0xFFFFFFFF


@dataclass(frozen=True)
class BpfInsn:
    """One ``sock_filter`` instruction."""

    code: int
    jt: int = 0
    jf: int = 0
    k: int = 0


def stmt(code: int, k: int) -> BpfInsn:
    """Non-branching instruction (Linux's BPF_STMT macro)."""
    return BpfInsn(code, 0, 0, k)


def jump(code: int, k: int, jt: int, jf: int) -> BpfInsn:
    """Branching instruction (Linux's BPF_JUMP macro)."""
    return BpfInsn(code, jt, jf, k)


class BpfProgram:
    """A validated cBPF program."""

    def __init__(self, insns: list[BpfInsn]):
        if not insns:
            raise BpfError("empty BPF program")
        if len(insns) > BPF_MAXINSNS:
            raise BpfError("BPF program too long")
        self.insns = list(insns)
        self._validate()

    def _validate(self) -> None:
        """Static checks mirroring the kernel verifier: all jumps must land
        inside the program, and every path must end in a RET."""
        n = len(self.insns)
        for pc, insn in enumerate(self.insns):
            cls = insn.code & 0x07
            if cls == BPF_JMP:
                if insn.code == BPF_JMP | BPF_JA:
                    target = pc + 1 + insn.k
                    if not 0 <= target < n:
                        raise BpfError(f"jump out of range at pc={pc}")
                else:
                    for offset in (insn.jt, insn.jf):
                        target = pc + 1 + offset
                        if not 0 <= target < n:
                            raise BpfError(f"branch out of range at pc={pc}")
        last = self.insns[-1]
        if last.code & 0x07 not in (BPF_RET, BPF_JMP):
            raise BpfError("program can fall off the end")


def run_bpf(program: BpfProgram, data: bytes) -> tuple[int, int]:
    """Run ``program`` against the packed data area.

    Returns ``(return_value, instructions_executed)``.  The instruction
    count feeds the cost model (seccomp charges per BPF instruction).
    """
    A = 0
    X = 0
    scratch = [0] * _SCRATCH_SLOTS
    pc = 0
    executed = 0
    insns = program.insns
    fuel = BPF_MAXINSNS * 4  # hard bound; validated programs cannot loop

    while fuel:
        fuel -= 1
        if pc >= len(insns):
            raise BpfError("BPF fell off the end")
        insn = insns[pc]
        executed += 1
        code = insn.code
        cls = code & 0x07
        pc += 1

        if cls == BPF_RET:
            src = code & 0x18
            if src == BPF_K:
                return insn.k & _U32, executed
            if src == BPF_A:
                return A & _U32, executed
            raise BpfError(f"bad RET source {code:#x}")

        if cls == BPF_LD:
            mode = code & 0xE0
            if mode == BPF_ABS:
                if insn.k + 4 > len(data) or insn.k < 0:
                    return 0, executed  # out-of-bounds load: reject (kernel kills)
                A = int.from_bytes(data[insn.k : insn.k + 4], "little")
            elif mode == BPF_IMM:
                A = insn.k & _U32
            elif mode == BPF_MEM:
                A = scratch[insn.k % _SCRATCH_SLOTS]
            else:
                raise BpfError(f"unsupported LD mode {code:#x}")
            continue

        if cls == BPF_LDX:
            mode = code & 0xE0
            if mode == BPF_IMM:
                X = insn.k & _U32
            elif mode == BPF_MEM:
                X = scratch[insn.k % _SCRATCH_SLOTS]
            else:
                raise BpfError(f"unsupported LDX mode {code:#x}")
            continue

        if cls == BPF_ST:
            scratch[insn.k % _SCRATCH_SLOTS] = A
            continue
        if cls == BPF_STX:
            scratch[insn.k % _SCRATCH_SLOTS] = X
            continue

        if cls == BPF_ALU:
            op = code & 0xF0
            operand = X if code & BPF_X else insn.k & _U32
            if op == BPF_ADD:
                A = (A + operand) & _U32
            elif op == BPF_SUB:
                A = (A - operand) & _U32
            elif op == BPF_MUL:
                A = (A * operand) & _U32
            elif op == BPF_DIV:
                if operand == 0:
                    return 0, executed
                A = (A // operand) & _U32
            elif op == BPF_MOD:
                if operand == 0:
                    return 0, executed
                A = (A % operand) & _U32
            elif op == BPF_OR:
                A = (A | operand) & _U32
            elif op == BPF_AND:
                A = (A & operand) & _U32
            elif op == BPF_XOR:
                A = (A ^ operand) & _U32
            elif op == BPF_LSH:
                A = (A << (operand & 31)) & _U32
            elif op == BPF_RSH:
                A = (A >> (operand & 31)) & _U32
            elif op == BPF_NEG:
                A = (-A) & _U32
            else:
                raise BpfError(f"unsupported ALU op {code:#x}")
            continue

        if cls == BPF_JMP:
            op = code & 0xF0
            if op == BPF_JA:
                pc += insn.k
                continue
            operand = X if code & BPF_X else insn.k & _U32
            if op == BPF_JEQ:
                taken = A == operand
            elif op == BPF_JGT:
                taken = A > operand
            elif op == BPF_JGE:
                taken = A >= operand
            elif op == BPF_JSET:
                taken = bool(A & operand)
            else:
                raise BpfError(f"unsupported JMP op {code:#x}")
            pc += insn.jt if taken else insn.jf
            continue

        if cls == BPF_MISC:
            op = code & 0xF8
            if op == BPF_TAX:
                X = A
            elif op == BPF_TXA:
                A = X
            else:
                raise BpfError(f"unsupported MISC op {code:#x}")
            continue

        raise BpfError(f"unsupported instruction class {code:#x}")

    raise BpfError("BPF fuel exhausted")
