"""The unified tool-attach API: one entry point for every mechanism.

``attach(machine, process, tool="lazypoline", interposer=..., **opts)``
is the only place that turns a tool name into a tool: it looks the name
up in a ``name -> (module, class)`` table, imports the module on first
use (so importing :mod:`repro.interpose` stays cheap) and calls the
class's private ``_install(machine, process, interposer, **opts)``.
Benchmark names (``baseline``, ``sud_enabled_allow``, the lazypoline
ablations) are layered on top by
:func:`repro.workloads.runner.attach_mechanism`, which ends here too.

Mechanism-specific options are ordinary keywords of the tool's
``_install``, so an option a tool does not take raises ``TypeError``:

* ``lazypoline`` — ``config=LazypolineConfig(...)``, ``degrade_policy=``
  (see :mod:`repro.interpose.lazypoline.degrade`);
* ``zpoline`` — ``mode="bytescan"``, ``rewrite=False``;
* ``seccomp_bpf`` — ``program=`` (a raw cBPF program) or ``denylist=``
  (syscall numbers failed with ``errno_value=``).  It takes **no
  interposer**: the filter runs in kernel space and can only
  allow/deny (Table I), so passing one raises ``ValueError``;
* ``seccomp_unotify`` — ``sysnos=[...]`` notifies only for those syscalls;
* ``ptrace`` — ``on_enter=``; ``preload`` — ``wrappers=``.
"""

from __future__ import annotations

from importlib import import_module

#: tool name -> (module, class name); the module is imported on attach.
_LAZY: dict[str, tuple[str, str]] = {
    "lazypoline": ("repro.interpose.lazypoline", "Lazypoline"),
    "zpoline": ("repro.interpose.zpoline", "Zpoline"),
    "sud": ("repro.interpose.sud_tool", "SudTool"),
    "seccomp_user": ("repro.interpose.seccomp_user_tool", "SeccompUserTool"),
    "seccomp_bpf": ("repro.interpose.seccomp_bpf_tool", "SeccompBpfTool"),
    "seccomp_unotify": ("repro.interpose.usernotif_tool", "UserNotifTool"),
    "ptrace": ("repro.interpose.ptrace_tool", "PtraceTool"),
    "preload": ("repro.interpose.preload_tool", "PreloadTool"),
}


def available_tools() -> list[str]:
    """Names accepted by :func:`attach`, sorted."""
    return sorted(_LAZY)


def attach(machine, process, tool: str = "lazypoline", *, interposer=None,
           **opts):
    """Attach an interposition tool to ``process`` on ``machine``.

    Returns the tool object.  ``interposer`` defaults to the passthrough
    interposer for tools that take one; mechanism-specific options go in
    ``**opts`` (see the module docstring).
    """
    try:
        module, cls_name = _LAZY[tool]
    except KeyError:
        raise ValueError(
            f"unknown interposition tool {tool!r}; "
            f"available: {', '.join(available_tools())}"
        ) from None
    cls = getattr(import_module(module), cls_name)
    return cls._install(machine, process, interposer, **opts)
