"""Sockets, epoll, and the wrk client model."""

from __future__ import annotations

import pytest

from repro.kernel import errno
from repro.kernel.machine import Machine
from repro.kernel.net import Connection, EpollDesc, ListenSocket, SocketDesc
from repro.kernel.fs import EPOLLIN, EPOLLOUT
from repro.kernel.syscalls.table import NR
from repro.workloads.webserver import NGINX, LIGHTTPD, ServerWorkload
from repro.workloads.wrk import HEADER_SIZE, WrkClient

from tests.conftest import (
    asm,
    emit_exit,
    emit_syscall,
    exit_steps,
    expect_rax,
    finish,
    run_program,
)


# -------------------------------------------------------------- unit level
def test_connection_pair_delivery():
    conn = Connection()
    received = []
    conn.client.on_data = received.append
    conn.client.send(b"request")
    assert conn.server.inbuf == b"request"
    conn.server.send(b"response")
    assert received == [b"response"]


def test_endpoint_close_propagates():
    conn = Connection()
    closed = []
    conn.client.on_close = lambda: closed.append(True)
    conn.server.close()
    assert closed == [True]
    assert conn.client.send(b"x") < 0  # EPIPE


def test_socketdesc_read_eof_after_peer_close():
    conn = Connection()
    desc = SocketDesc(conn.server)
    conn.client.send(b"ab")
    conn.client.close()
    assert desc.read(None, 10) == b"ab"
    assert desc.read(None, 10) == b""  # orderly EOF


def test_epoll_poll_masks():
    conn = Connection()
    desc = SocketDesc(conn.server)
    assert desc.poll() & EPOLLOUT
    assert not desc.poll() & EPOLLIN
    conn.client.send(b"x")
    assert desc.poll() & EPOLLIN


def test_epoll_ready_events_reports_interested_fds():
    from repro.kernel.task import FdTable

    conn = Connection()
    desc = SocketDesc(conn.server)
    listener = ListenSocket()
    fdt = FdTable()
    sfd = fdt.install(desc)
    lfd = fdt.install(listener)
    ep = EpollDesc()
    ep.interest[sfd] = (EPOLLIN, 0xAA)
    ep.interest[lfd] = (EPOLLIN, 0xBB)
    assert ep.ready_events(fdt) == []
    conn.client.send(b"x")
    assert ep.ready_events(fdt) == [(sfd, EPOLLIN, 0xAA)]
    listener.backlog.append(Connection())
    assert len(ep.ready_events(fdt)) == 2


# ----------------------------------------------------------- guest programs
def test_guest_echo_server(machine):
    """A tiny accept/read/write guest server against a host client."""
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r15", "rax")
    a.mov_imm("rdi", 2)
    a.mov_imm("rsi", 1)
    a.mov_imm("rdx", 0)
    a.mov_imm("rax", NR["socket"])
    a.syscall()
    a.mov("rbx", "rax")
    a.mov_imm("rcx", 0x1F)  # port 8080 = 0x1F90
    a.store8("r15", 2, "rcx")
    a.mov_imm("rcx", 0x90)
    a.store8("r15", 3, "rcx")
    a.mov("rdi", "rbx")
    a.mov("rsi", "r15")
    a.mov_imm("rdx", 16)
    a.mov_imm("rax", NR["bind"])
    a.syscall()
    a.mov("rdi", "rbx")
    a.mov_imm("rsi", 16)
    a.mov_imm("rax", NR["listen"])
    a.syscall()
    a.mov("rdi", "rbx")
    a.mov_imm("rsi", 0)
    a.mov_imm("rdx", 0)
    a.mov_imm("rax", NR["accept"])
    a.syscall()
    a.mov("r13", "rax")
    a.mov("rdi", "r13")
    a.lea("rsi", "r15", 64)
    a.mov_imm("rdx", 128)
    a.mov_imm("rax", NR["read"])
    a.syscall()
    a.mov("rdx", "rax")  # echo length
    a.mov("rdi", "r13")
    a.lea("rsi", "r15", 64)
    a.mov_imm("rax", NR["write"])
    a.syscall()
    emit_exit(a, 0)
    proc = machine.load(finish(a))

    received = []
    machine.run(
        until=lambda: 8080 in machine.kernel.net.listeners
        and machine.kernel.net.listeners[8080].listening,
        max_instructions=100_000,
    )
    conn = machine.kernel.net.connect(8080, on_data=received.append)
    conn.client.send(b"ping!")
    code = machine.run_process(proc)
    assert code == 0
    assert received == [b"ping!"]


def test_guest_setsockopt_shutdown_and_close(machine):
    """setsockopt is accepted on a socket; shutdown and close of an
    accepted connection each close the host peer's stream; closing the
    listener unbinds its port."""
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    emit_syscall(a, "socket", 2, 1, 0)
    a.mov("rbx", "rax")
    emit_syscall(a, "setsockopt", "rbx", 1, 2, "one", 4)  # SO_REUSEADDR
    expect_rax(a, 0, step=1)
    a.mov_imm("rcx", 0x1F)  # port 8081 = 0x1F91
    a.store8("r12", 2, "rcx")
    a.mov_imm("rcx", 0x91)
    a.store8("r12", 3, "rcx")
    emit_syscall(a, "bind", "rbx", "r12", 16)
    emit_syscall(a, "listen", "rbx", 16)
    emit_syscall(a, "shutdown", "rbx", 2)  # SHUT_RDWR on a listener
    expect_rax(a, -errno.ENOTSOCK, step=2)
    for step, call in ((3, "shutdown"), (4, "close")):
        emit_syscall(a, "accept", "rbx", 0, 0)
        a.mov("r13", "rax")
        emit_syscall(a, call, "r13", 2)
        expect_rax(a, 0, step=step)
    # closing the listener frees its port for the next bind
    emit_syscall(a, "socket", 2, 1, 0)
    a.mov("r13", "rax")
    emit_syscall(a, "bind", "r13", "r12", 16)
    expect_rax(a, -errno.EADDRINUSE, step=5)
    emit_syscall(a, "close", "rbx")
    expect_rax(a, 0, step=6)
    emit_syscall(a, "bind", "r13", "r12", 16)
    expect_rax(a, 0, step=7)
    exit_steps(a)
    a.label("one")
    a.db(b"\x01\x00\x00\x00")
    proc = machine.load(finish(a))
    machine.run(
        until=lambda: 8081 in machine.kernel.net.listeners
        and machine.kernel.net.listeners[8081].listening,
        max_instructions=100_000,
    )
    closed = []
    for name in ("shutdown", "close"):
        machine.kernel.net.connect(
            8081, on_close=lambda name=name: closed.append(name))
    code = machine.run_process(proc)
    assert code == 0, f"check {code} failed"
    assert closed == ["shutdown", "close"]


def test_guest_connect_to_guest_listener(machine):
    """Loopback between two guest processes (server + client)."""
    s = asm()
    s.label("_start")
    emit_syscall(s, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    s.mov("r15", "rax")
    s.mov_imm("rdi", 2)
    s.mov_imm("rsi", 1)
    s.mov_imm("rdx", 0)
    s.mov_imm("rax", NR["socket"])
    s.syscall()
    s.mov("rbx", "rax")
    s.mov_imm("rcx", 0x23)  # port 9000 = 0x2328
    s.store8("r15", 2, "rcx")
    s.mov_imm("rcx", 0x28)
    s.store8("r15", 3, "rcx")
    s.mov("rdi", "rbx")
    s.mov("rsi", "r15")
    s.mov_imm("rdx", 16)
    s.mov_imm("rax", NR["bind"])
    s.syscall()
    s.mov("rdi", "rbx")
    s.mov_imm("rsi", 16)
    s.mov_imm("rax", NR["listen"])
    s.syscall()
    s.mov("rdi", "rbx")
    s.mov_imm("rsi", 0)
    s.mov_imm("rdx", 0)
    s.mov_imm("rax", NR["accept"])
    s.syscall()
    s.mov("r13", "rax")
    s.mov("rdi", "r13")
    s.lea("rsi", "r15", 64)
    s.mov_imm("rdx", 16)
    s.mov_imm("rax", NR["read"])
    s.syscall()
    # server exits with the first received byte as its code
    s.load8("rdi", "r15", 64)
    s.mov_imm("rax", NR["exit_group"])
    s.syscall()
    server = machine.load(finish(s, name="srv"))

    c = asm()
    c.label("_start")
    emit_syscall(c, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    c.mov("r15", "rax")
    c.mov_imm("rdi", 2)
    c.mov_imm("rsi", 1)
    c.mov_imm("rdx", 0)
    c.mov_imm("rax", NR["socket"])
    c.syscall()
    c.mov("rbx", "rax")
    c.mov_imm("rcx", 0x23)
    c.store8("r15", 2, "rcx")
    c.mov_imm("rcx", 0x28)
    c.store8("r15", 3, "rcx")
    c.mov("rdi", "rbx")
    c.mov("rsi", "r15")
    c.mov_imm("rdx", 16)
    c.mov_imm("rax", NR["connect"])
    c.syscall()
    c.mov_imm("rcx", 55)
    c.store8("r15", 64, "rcx")
    c.mov("rdi", "rbx")
    c.lea("rsi", "r15", 64)
    c.mov_imm("rdx", 1)
    c.mov_imm("rax", NR["write"])
    c.syscall()
    emit_exit(c, 0)
    machine.load(finish(c, name="cli"))

    machine.run(until=lambda: not server.alive, max_instructions=2_000_000)
    assert server.exit_code == 55


# ------------------------------------------------------------- wrk + server
@pytest.mark.parametrize("spec", [NGINX, LIGHTTPD], ids=lambda s: s.name)
def test_server_serves_correct_bytes(spec):
    machine = Machine()
    workload = ServerWorkload(machine, spec, file_size=1000)
    workload.run_until_listening()
    client = WrkClient(machine.kernel, 8080, connections=1, response_size=1000)
    client.start()
    machine.run(
        until=lambda: client.stats.completed >= 3, max_instructions=10_000_000
    )
    assert client.stats.errors == 0
    assert client.stats.bytes_received == 3 * (HEADER_SIZE + 1000)


def test_wrk_throughput_positive_and_deterministic():
    def measure():
        machine = Machine()
        workload = ServerWorkload(machine, NGINX, file_size=4096)
        return workload.benchmark(requests=50, warmup=5)

    first = measure()
    second = measure()
    assert first > 0
    assert first == pytest.approx(second, rel=1e-9)


def test_throughput_decreases_with_file_size():
    def rate(size):
        machine = Machine()
        workload = ServerWorkload(machine, NGINX, file_size=size)
        return workload.benchmark(requests=60, warmup=5)

    assert rate(1024) > rate(65536) > rate(262144)


def test_multiple_connections_supported():
    machine = Machine()
    workload = ServerWorkload(machine, LIGHTTPD, file_size=512)
    workload.run_until_listening()
    client = WrkClient(machine.kernel, 8080, connections=6, response_size=512)
    client.start()
    machine.run(
        until=lambda: client.stats.completed >= 30,
        max_instructions=20_000_000,
    )
    assert client.stats.completed >= 30
    assert client.stats.errors == 0
