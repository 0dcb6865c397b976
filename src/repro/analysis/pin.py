"""Register-preservation-expectation analysis (§IV-B of the paper).

The paper's Pin tool "tracks at run time whether a syscall is executed
between a consecutive write to and read from the same register", indicating
the application expects the register to survive the syscall.  This is the
same analysis as a CPU hook: per register we track

* WRITTEN — holds a live value,
* AT RISK — live value with one or more syscalls since the write;
  a read in this state is a preservation expectation (a *finding*).

Registers the syscall ABI legitimately clobbers (``rax``, ``rcx``, ``r11``)
are treated as written by the syscall itself, so reading them afterwards is
never a finding.  Like the paper's tool, this is a dynamic analysis: it
underestimates (only executed paths count).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.isa import Instruction, Mnemonic
from repro.arch.registers import RAX
from repro.cpu.hooks import reg_effects
from repro.kernel.syscalls.table import syscall_name

#: Register classes by id prefix.
_CLASS_NAMES = {"g": "gpr", "x": "sse", "y": "avx", "st": "x87"}


def _reg_name(regid: tuple) -> str:
    kind = regid[0]
    if kind == "g":
        from repro.arch.registers import GPR_NAMES

        return GPR_NAMES[regid[1]]
    if kind == "x":
        return f"xmm{regid[1]}"
    if kind == "y":
        return f"ymm{regid[1]}.high"
    return "x87"


@dataclass(frozen=True)
class PinFinding:
    """One observed preservation expectation."""

    regid: tuple
    sysno: int
    syscall_site: int  #: address of the intervening syscall instruction
    read_site: int  #: address of the read that completed the pattern
    tid: int

    @property
    def register(self) -> str:
        return _reg_name(self.regid)

    @property
    def component(self) -> str:
        return _CLASS_NAMES[self.regid[0]]

    @property
    def syscall(self) -> str:
        return syscall_name(self.sysno)

    @property
    def is_extended_state(self) -> bool:
        return self.regid[0] in ("x", "y", "st")


class RegisterPreservationTool:
    """CPU hook implementing the Pin analysis.  Attach with
    ``machine.kernel.cpu.add_hook(tool)``."""

    def __init__(self, *, track_gprs: bool = True):
        self.track_gprs = track_gprs
        self.findings: list[PinFinding] = []
        # per-task register state: tid -> {regid: ("w",) | ("r", sysno, site)}
        self._state: dict[int, dict] = {}
        self._dedupe: set[tuple] = set()

    # ------------------------------------------------------------------ hook
    def on_insn(self, task, insn: Instruction, addr: int) -> None:
        state = self._state.setdefault(task.tid, {})

        if insn.mnemonic in (Mnemonic.SYSCALL, Mnemonic.SYSENTER):
            sysno = task.regs.read(RAX)
            for regid, entry in list(state.items()):
                if entry[0] == "w":
                    state[regid] = ("r", sysno, addr)
            # The kernel clobbers rax/rcx/r11: they are freshly "written".
            for clobber in (("g", 0), ("g", 1), ("g", 11)):
                state[clobber] = ("w",)
            return

        reads, writes = reg_effects(insn)
        for regid in reads:
            if not self.track_gprs and regid[0] == "g":
                continue
            entry = state.get(regid)
            if entry is not None and entry[0] == "r":
                self._record(regid, entry[1], entry[2], addr, task.tid)
                state[regid] = ("w",)  # still live; re-arm for later syscalls
        for regid in writes:
            state[regid] = ("w",)

    def _record(self, regid, sysno, syscall_site, read_site, tid) -> None:
        key = (regid, sysno, syscall_site, read_site)
        if key in self._dedupe:
            return
        self._dedupe.add(key)
        self.findings.append(
            PinFinding(regid, sysno, syscall_site, read_site, tid)
        )

    # ----------------------------------------------------------------- report
    @property
    def xstate_findings(self) -> list[PinFinding]:
        return [f for f in self.findings if f.is_extended_state]

    @property
    def gpr_findings(self) -> list[PinFinding]:
        return [f for f in self.findings if not f.is_extended_state]

    def expects_xstate_preservation(self) -> bool:
        """The Table III verdict for one program run."""
        return bool(self.xstate_findings)

