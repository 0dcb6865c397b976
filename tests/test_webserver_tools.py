"""The webserver serves under every interposition tool, in every shape.

``ServerWorkload.benchmark`` starts its wrk client from the ``listen()``
of the server's port, so no leg depends on where a tool's handler blocks
inside the slice that listens (the unotify supervisor's ``epoll_wait``,
seccomp-user's parked accept wave).  Every tool x {direct, batched,
async} cell must serve every request with the right bytes.
"""

from __future__ import annotations

import pytest

from repro.interpose.registry import available_tools
from repro.kernel.machine import Machine
from repro.workloads.runner import attach_mechanism
from repro.workloads.webserver import NGINX, ServerWorkload
from repro.workloads.wrk import HEADER_SIZE

FILE_SIZE = 1024
REQUESTS, WARMUP = 6, 2
#: Every cell serves within 0.9 M cycles; a cell that stalls (a trap loop
#: keeps the clock moving) stops here and fails instead of spinning.
DEADLINE = 20_000_000

RESPONSE = (b"HTTP/1.1 200 OK\r\nServer: nginx\r\n\r\n".ljust(HEADER_SIZE, b"\0")
            + bytes(FILE_SIZE))


def _serve(tool, batched, *, listen_first=False):
    """Serve ``REQUESTS + WARMUP`` requests; returns the client and the
    byte stream each connection received."""
    machine = Machine()
    server = ServerWorkload(machine, NGINX, file_size=FILE_SIZE,
                            batched=batched)
    attach_mechanism(machine, server.process, tool)
    streams = []
    connect = machine.kernel.net.connect

    def recording_connect(port, *, on_data, **kw):
        stream = bytearray()
        streams.append(stream)

        def record(data):
            stream.extend(data)
            on_data(data)

        return connect(port, on_data=record, **kw)

    machine.kernel.net.connect = recording_connect
    if listen_first:
        server.run_until_listening()
    server.benchmark(requests=REQUESTS, warmup=WARMUP,
                     deadline_cycles=DEADLINE)
    return server.last_client, streams


def _assert_served(client, streams):
    stats = client.stats
    assert stats.completed == REQUESTS + WARMUP
    assert stats.errors == 0
    assert len(streams) == client.connections
    for stream in streams:
        # whole responses, then at most the prefix of one still in flight
        whole = len(stream) - len(stream) % len(RESPONSE)
        assert stream[:whole] == RESPONSE * (whole // len(RESPONSE))
        assert RESPONSE.startswith(stream[whole:])
    assert sum(len(s) for s in streams) == stats.bytes_received


@pytest.mark.parametrize("batched", [False, True, "async"],
                         ids=["direct", "batched", "async"])
@pytest.mark.parametrize("tool", available_tools())
def test_every_tool_serves_every_leg(tool, batched):
    _assert_served(*_serve(tool, batched))


@pytest.mark.parametrize("batched", [False, True, "async"],
                         ids=["direct", "batched", "async"])
def test_benchmark_after_run_until_listening_serves(batched):
    """A caller that drives the server to its listen() first gets a
    client started at once."""
    _assert_served(*_serve("lazypoline", batched, listen_first=True))
