"""Syscall interposition tools.

Every tool attaches through the same entry point —
``attach(machine, process, tool="lazypoline", interposer=...)``, the only
code that turns a tool name into a tool (benchmark names such as
``baseline`` or the lazypoline ablations go through
:func:`repro.workloads.runner.attach_mechanism`, which calls it) — and
drives the same user-facing interposer callable (see
:mod:`repro.interpose.api`), so the paper's comparisons run the
*identical* "dummy interposition function" under every mechanism:

* :mod:`repro.interpose.ptrace_tool` — tracer-process syscall stops,
* :mod:`repro.interpose.seccomp_bpf_tool` — in-kernel cBPF filtering,
* :mod:`repro.interpose.seccomp_user_tool` — SECCOMP_RET_TRAP to user space,
* :mod:`repro.interpose.usernotif_tool` — a SECCOMP_RET_USER_NOTIF supervisor,
* :mod:`repro.interpose.preload_tool` — LD_PRELOAD-style libc wrapper hooks,
* :mod:`repro.interpose.sud_tool` — the typical Syscall User Dispatch setup,
* :mod:`repro.interpose.zpoline` — pure static binary rewriting,
* :mod:`repro.interpose.lazypoline` — the paper's hybrid contribution.

Graceful degradation (hostile environments, resource exhaustion) is
configured per-attach with ``attach(..., "lazypoline",
degrade_policy=...)`` (any other tool rejects the keyword); the policy
types :class:`DegradePolicy` and :class:`Mode` are re-exported here lazily
from :mod:`repro.interpose.lazypoline.degrade` so importing this package
stays cheap.
"""

from repro.errors import AttachError
from repro.interpose.api import (
    Interposer,
    SyscallContext,
    TraceInterposer,
    passthrough_interposer,
)
from repro.interpose.registry import attach, available_tools

__all__ = [
    "AttachError",
    "DegradePolicy",
    "Interposer",
    "Mode",
    "SyscallContext",
    "TraceInterposer",
    "attach",
    "available_tools",
    "passthrough_interposer",
]


def __getattr__(name: str):
    # Lazy re-export: pulling in the degrade types must not import the
    # whole lazypoline tool at ``import repro.interpose`` time.
    if name in ("DegradePolicy", "Mode"):
        from repro.interpose.lazypoline import degrade

        return getattr(degrade, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
