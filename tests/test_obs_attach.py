"""The unified attach API: one entry point for every registered tool."""

from __future__ import annotations

import warnings

import pytest

from repro.interpose import TraceInterposer, attach, available_tools
from repro.kernel.machine import Machine
from repro.kernel.syscalls.table import NR

from tests.conftest import hello_image

pytestmark = pytest.mark.obs

ALL_TOOLS = (
    "lazypoline", "zpoline", "sud", "seccomp_user", "seccomp_bpf",
    "seccomp_unotify", "ptrace", "preload",
)


def test_registry_lists_every_tool():
    assert set(available_tools()) == set(ALL_TOOLS)


@pytest.mark.parametrize("tool", ALL_TOOLS)
def test_attach_works_for_every_tool(tool):
    machine = Machine()
    process = machine.load(hello_image())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # attach itself never warns
        instance = attach(machine, process, tool)
    assert instance is not None
    assert type(instance).tool_name == tool
    code = machine.run_process(process)
    assert code == 0
    assert process.stdout == b"hello\n"


@pytest.mark.parametrize(
    "tool", ["lazypoline", "zpoline", "sud", "seccomp_user", "ptrace"]
)
def test_attach_with_interposer_traces(tool):
    machine = Machine()
    process = machine.load(hello_image())
    tracer = TraceInterposer()
    attach(machine, process, tool, interposer=tracer)
    machine.run_process(process)
    assert "write" in tracer.names
    assert tracer.count("write") == 1


def test_attach_unknown_tool_raises():
    machine = Machine()
    process = machine.load(hello_image())
    with pytest.raises(ValueError, match="unknown interposition tool"):
        attach(machine, process, "strace")


def test_seccomp_bpf_rejects_interposer():
    machine = Machine()
    process = machine.load(hello_image())
    with pytest.raises(ValueError, match="cannot run an interposer"):
        attach(machine, process, "seccomp_bpf", interposer=TraceInterposer())


def test_seccomp_bpf_denylist_opt():
    machine = Machine()
    process = machine.load(hello_image())
    attach(machine, process, "seccomp_bpf",
           denylist=[NR["write"]], errno_value=13)
    machine.run_process(process)
    assert process.stdout == b""  # write denied with EACCES


def test_seccomp_unotify_sysnos_opt():
    machine = Machine()
    process = machine.load(hello_image())
    tracer = TraceInterposer()
    attach(machine, process, "seccomp_unotify",
           interposer=tracer, sysnos=[NR["write"]])
    machine.run_process(process)
    assert tracer.names == ["write"]  # only the selected syscall notifies
    assert process.stdout == b"hello\n"


def test_register_tool_extension_point():
    from repro.interpose import register_tool

    seen = {}

    def fake_attach(machine, process, interposer=None, **opts):
        seen["opts"] = opts
        return "fake-tool"

    register_tool("faketool", fake_attach)
    try:
        machine = Machine()
        process = machine.load(hello_image())
        assert "faketool" in available_tools()
        assert attach(machine, process, "faketool", depth=3) == "fake-tool"
        assert seen["opts"] == {"depth": 3}
    finally:
        from repro.interpose import registry

        registry._REGISTRY.pop("faketool", None)


# ---------------------------------------------- attach replaces install
def test_attach_replaces_lazypoline_install():
    machine = Machine()
    process = machine.load(hello_image())
    tracer = TraceInterposer()
    tool = attach(machine, process, "lazypoline", interposer=tracer)
    machine.run_process(process)
    assert "write" in tracer.names
    assert tool.rewritten


def test_attach_replaces_zpoline_install():
    machine = Machine()
    process = machine.load(hello_image())
    attach(machine, process, "zpoline")
    assert machine.run_process(process) == 0


def test_attach_replaces_seccomp_bpf_denylist():
    machine = Machine()
    process = machine.load(hello_image())
    attach(machine, process, "seccomp_bpf", denylist=[NR["write"]])
    machine.run_process(process)
    assert process.stdout == b""


def test_attach_does_not_warn():
    machine = Machine()
    process = machine.load(hello_image())
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        attach(machine, process, "lazypoline")
    assert machine.run_process(process) == 0
