"""Event-driven static-content web servers (the Fig. 5 macrobenchmark).

Two server personalities model nginx and lighttpd: both are epoll-driven
accept/read/respond loops written in guest assembly, serving one static
file over keep-alive connections.  They differ the way the real servers do
at this workload:

* **nginx**: ``open`` + ``fstat`` + header ``write`` + a ``sendfile`` loop
  (one syscall per 64 KiB chunk, single kernel-side copy),
* **lighttpd**: ``open`` + ``fstat`` + header ``write`` + a ``read``/
  ``write`` loop (two syscalls and two copies per chunk), with slightly
  higher per-request user-space work.

Per-request application work (request parsing, response-header formatting,
logging) is charged through a host-call — it is user-space work that no
interposition mechanism touches, exactly like the real servers' C code.

The epoll server (direct or sync-batched, optionally preforked) and the
async event-loop server are built from one set of emitters: the buffer
``mmap``, socket/bind/listen, the ring-linked response tail and the data
section.  :meth:`ServerWorkload.benchmark` starts its wrk client from the
server's ``listen()`` in every shape (see :meth:`Network.on_listen`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.encode import Assembler
from repro.kernel.syscalls.table import NR
from repro.libc.uring import (
    DEFAULT_RING_ENTRIES,
    GuestRing,
    ring_region_size,
    ring_result,
)
from repro.loader.image import ProgramImage, image_from_assembler
from repro.mem import layout
from repro.workloads.wrk import HEADER_SIZE, WrkClient

FILE_PATH = "/www/file.bin"
CHUNK = 65536

# Buffer-page layout (r15-relative).
_EV = 0  # epoll_event (12 bytes)
_ADDR = 16  # sockaddr scratch
_REQBUF = 64
_FILEBUF = 8192
_RING = _FILEBUF + CHUNK  # submission/completion ring (batched variant)
_RING_ENTRIES = DEFAULT_RING_ENTRIES
_BUFSIZE = _RING + ring_region_size(_RING_ENTRIES)


@dataclass(frozen=True)
class ServerSpec:
    """One server personality."""

    name: str
    parse_cost: int  # user-space cycles per request (parse + headers + log)
    delivery: str  # "sendfile" | "readwrite"


NGINX = ServerSpec(name="nginx", parse_cost=8200, delivery="sendfile")
LIGHTTPD = ServerSpec(name="lighttpd", parse_cost=9800, delivery="readwrite")

SERVERS = {spec.name: spec for spec in (NGINX, LIGHTTPD)}


def _sys(a: Assembler, name: str) -> None:
    a.mov_imm("rax", NR[name])
    a.syscall()


def _emit_buffer(a: Assembler, size: int) -> None:
    """mmap ``size`` bytes of anonymous read-write memory; base in r15."""
    a.mov_imm("rdi", 0)
    a.mov_imm("rsi", size)
    a.mov_imm("rdx", 3)
    a.mov_imm("r10", 0x22)
    a.mov_imm("r8", (1 << 64) - 1)
    a.mov_imm("r9", 0)
    _sys(a, "mmap")
    a.mov("r15", "rax")


def _emit_listen(a: Assembler, port: int, sock_type: int) -> None:
    """socket + bind to ``port`` + listen; the listening fd in rbx."""
    a.mov_imm("rdi", 2)  # AF_INET
    a.mov_imm("rsi", sock_type)
    a.mov_imm("rdx", 0)
    _sys(a, "socket")
    a.mov("rbx", "rax")
    # sockaddr: port in network byte order at +2/+3
    a.mov_imm("rcx", (port >> 8) & 0xFF)
    a.store8("r15", _ADDR + 2, "rcx")
    a.mov_imm("rcx", port & 0xFF)
    a.store8("r15", _ADDR + 3, "rcx")
    a.mov("rdi", "rbx")
    a.lea("rsi", "r15", _ADDR)
    a.mov_imm("rdx", 16)
    _sys(a, "bind")
    a.mov("rdi", "rbx")
    a.mov_imm("rsi", 128)
    _sys(a, "listen")


def _emit_ring_tail(a: Assembler, ring: GuestRing, spec: ServerSpec,
                    filebuf: int) -> None:
    """Push one response tail for the connection in r13: open / fstat /
    header write / delivery / close.  The opened fd is not known until
    drain time, so the entries after ``open`` name it by result link."""
    a.lea("rdx", "r15", _ADDR + 16)  # fstat buffer
    fd = ring_result(ring.push("open", "file_path", 0, 0))
    ring.push("fstat", fd, "rdx")
    if spec.delivery == "sendfile":
        ring.push_write("r13", "header", HEADER_SIZE)
        ring.push("sendfile", "r13", fd, 0, CHUNK)
    else:
        a.lea("rsi", "r15", filebuf)
        nread = ring_result(ring.push_read(fd, "rsi", CHUNK))
        ring.push_write("r13", "header", HEADER_SIZE)
        ring.push_write("r13", "rsi", nread)
    ring.push("close", fd)


def _finish(a: Assembler, spec: ServerSpec, name: str) -> ProgramImage:
    """Emit the data section (file path, padded header) and link."""
    a.label("file_path")
    a.db(FILE_PATH.encode() + b"\x00")
    a.label("header")
    header = b"HTTP/1.1 200 OK\r\nServer: %s\r\n\r\n" % spec.name.encode()
    a.db(header.ljust(HEADER_SIZE, b"\x00"))
    return image_from_assembler(name, a, entry="_start")


def build_server_image(
    spec: ServerSpec,
    parse_hcall: int,
    *,
    port: int = 8080,
    workers: int = 1,
    batched: bool = False,
    base: int = layout.CODE_BASE,
) -> ProgramImage:
    """Build the server.  ``workers > 1`` emits a pre-forking master that
    forks ``workers - 1`` children after ``listen``; every worker runs its
    own epoll loop on the shared listening socket, like nginx's prefork
    model.

    ``batched=True`` emits the syscall-aggregation variant: the whole
    per-request tail (open / fstat / header write / delivery / close) is
    pushed into a submission ring in the worker's buffer page and drained
    with **one** ``ring_enter`` crossing, using result links for the file
    descriptor.  The accept/epoll front end stays unbatched (those are
    genuinely event-driven), and the response fits one chunk by
    construction (``ServerWorkload`` enforces ``file_size <= CHUNK``).
    """
    a = Assembler(base=base)
    sys = lambda name: _sys(a, name)  # noqa: E731

    a.label("_start")
    _emit_buffer(a, _BUFSIZE)
    # SOCK_NONBLOCK matters once there are multiple workers:
    # level-triggered epoll wakes every worker for one pending connection,
    # and a loser whose accept4 finds the backlog already drained must get
    # EAGAIN and return to its event loop — a blocking accept would wedge
    # it forever (real nginx marks the listen socket non-blocking for
    # exactly this reason).
    _emit_listen(a, port, 1 | 0o4000)  # SOCK_STREAM | SOCK_NONBLOCK

    # prefork: each child falls straight through to the worker loop; the
    # master forks workers-1 children and then serves as well.
    for _ in range(max(workers - 1, 0)):
        sys("fork")
        a.cmpi("rax", 0)
        a.jz("worker")
    a.label("worker")
    # Each worker mmaps its own buffer page (children inherited the
    # master's, but private copies keep the workers symmetric).
    _emit_buffer(a, _BUFSIZE)

    ring = None
    if batched:
        ring = GuestRing(a, entries=_RING_ENTRIES, base="r15", disp=_RING,
                         tag="srv")
        ring.emit_init()

    # epoll
    a.mov_imm("rdi", 0)
    sys("epoll_create1")
    a.mov("r14", "rax")
    # Register the listen fd.  Event layout: events u32 @0, data u64 @4 —
    # the u64 store of `events` is written first so the data store may
    # overlap it harmlessly.
    a.mov_imm("rcx", 1)  # EPOLLIN
    a.store("r15", _EV, "rcx")
    a.store("r15", _EV + 4, "rbx")
    a.mov("rdi", "r14")
    a.mov_imm("rsi", 1)  # EPOLL_CTL_ADD
    a.mov("rdx", "rbx")
    a.lea("r10", "r15", _EV)
    sys("epoll_ctl")

    # ---------------------------------------------------------- event loop
    a.label("loop")
    a.mov("rdi", "r14")
    a.lea("rsi", "r15", _EV)
    a.mov_imm("rdx", 1)  # one event at a time
    a.mov_imm("r10", (1 << 64) - 1)  # timeout -1: block
    sys("epoll_wait")
    a.cmpi("rax", 0)
    a.jle("loop")
    a.load("r13", "r15", _EV + 4)  # event data = fd
    a.cmp("r13", "rbx")
    a.jnz("conn_event")

    # -- new connection ----------------------------------------------------
    a.mov("rdi", "rbx")
    a.mov_imm("rsi", 0)
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 0)
    sys("accept4")
    a.cmpi("rax", 0)
    a.jl("loop")
    a.mov("r13", "rax")
    a.mov_imm("rcx", 1)
    a.store("r15", _EV, "rcx")
    a.store("r15", _EV + 4, "r13")
    a.mov("rdi", "r14")
    a.mov_imm("rsi", 1)  # ADD
    a.mov("rdx", "r13")
    a.lea("r10", "r15", _EV)
    sys("epoll_ctl")
    a.jmp("loop")

    # -- request on an existing connection -----------------------------------
    a.label("conn_event")
    a.mov("rdi", "r13")
    a.lea("rsi", "r15", _REQBUF)
    a.mov_imm("rdx", 4096)
    sys("read")
    a.cmpi("rax", 0)
    a.jle("conn_closed")

    a.hcall(parse_hcall)  # request parsing + response header build (user code)

    if batched:
        # The whole response tail rides the ring: one crossing instead of
        # five (nginx) / six (lighttpd).
        _emit_ring_tail(a, ring, spec, _FILEBUF)
        ring.flush()
        ring.reset()
        a.jmp("loop")

    # open the resource
    a.mov_imm("rdi", "file_path")
    a.mov_imm("rsi", 0)
    a.mov_imm("rdx", 0)
    sys("open")
    a.cmpi("rax", 0)
    a.jl("loop")
    a.mov("r12", "rax")
    # fstat for the response length
    a.mov("rdi", "r12")
    a.lea("rsi", "r15", _ADDR + 16)
    sys("fstat")
    # header
    a.mov("rdi", "r13")
    a.mov_imm("rsi", "header")
    a.mov_imm("rdx", HEADER_SIZE)
    sys("write")

    if spec.delivery == "sendfile":
        a.label("send_loop")
        a.mov("rdi", "r13")
        a.mov("rsi", "r12")
        a.mov_imm("rdx", 0)
        a.mov_imm("r10", CHUNK)
        sys("sendfile")
        a.cmpi("rax", 0)
        a.jg("send_loop")
    else:
        a.label("send_loop")
        a.mov("rdi", "r12")
        a.lea("rsi", "r15", _FILEBUF)
        a.mov_imm("rdx", CHUNK)
        sys("read")
        a.cmpi("rax", 0)
        a.jle("send_done")
        a.mov("rdx", "rax")
        a.mov("rdi", "r13")
        a.lea("rsi", "r15", _FILEBUF)
        sys("write")
        a.jmp("send_loop")
        a.label("send_done")

    a.mov("rdi", "r12")
    sys("close")
    a.jmp("loop")

    # -- peer closed -----------------------------------------------------------
    a.label("conn_closed")
    a.mov("rdi", "r14")
    a.mov_imm("rsi", 2)  # EPOLL_CTL_DEL
    a.mov("rdx", "r13")
    a.mov_imm("r10", 0)
    sys("epoll_ctl")
    a.mov("rdi", "r13")
    sys("close")
    a.jmp("loop")

    return _finish(a, spec, spec.name + ("-batched" if batched else ""))


def build_async_server_image(
    spec: ServerSpec,
    parse_hcall: int,
    *,
    port: int = 8080,
    depth: int = 4,
    base: int = layout.CODE_BASE,
) -> ProgramImage:
    """Build the event-loop server: **one** worker overlapping ``depth``
    in-flight requests through the asynchronous ring drain.

    There is no epoll and no per-request syscall crossing at all.  The
    worker keeps one blocking ``read`` SQE in flight per connection; the
    async drain parks them all kernel-side (``depth`` simultaneously
    blocked I/Os owned by a single task), and a ``ring_wait`` harvests the
    wave once every connection has a request pending.  Each wave then
    pushes all ``depth`` response tails (open / fstat / header write /
    delivery / close, linked on the opened fd) and submits them with one
    more crossing — two ``ring_enter`` crossings per ``depth`` requests,
    against the sync-batched leg's one crossing *plus* epoll_wait and read
    per request.
    """
    a = Assembler(base=base)
    connfd = 64  # per-connection fd array, u64 each
    req0 = connfd + 8 * depth  # per-connection request buffers
    filebuf = (req0 + 256 * depth + 63) & ~63
    ring_off = filebuf + CHUNK
    # One read plus the response tail per connection: open, fstat, header
    # write, close, and sendfile (nginx) or read + write (lighttpd).
    tail = 5 if spec.delivery == "sendfile" else 6
    entries = (1 + tail) * depth

    a.label("_start")
    _emit_buffer(a, ring_off + ring_region_size(entries))
    # *Blocking* on purpose (no SOCK_NONBLOCK): parked accept4 SQEs are
    # how the async drain overlaps the accept wave — there is exactly one
    # worker, so no thundering herd to dodge.
    _emit_listen(a, port, 1)  # SOCK_STREAM

    ring = GuestRing(a, entries=entries, base="r15", disp=ring_off,
                     tag="asrv")
    ring.emit_init()

    # -- accept wave: depth parked accepts, one crossing ------------------
    for _ in range(depth):
        ring.push_accept("rbx")
    ring.submit_async(min_complete=depth)
    # CQEs are slot-correlated, so conn fds harvest in slot order.
    for i in range(depth):
        ring.load_result("r13", i)
        a.store("r15", connfd + 8 * i, "r13")
    ring.reset()

    # ---------------------------------------------------------- event loop
    a.label("loop")
    ring.rewind()
    ring.reset()
    # Read wave: one blocking read per connection, all in flight at once.
    for i in range(depth):
        a.load("r13", "r15", connfd + 8 * i)
        a.lea("rsi", "r15", req0 + 256 * i)
        ring.push_read("r13", "rsi", 256)
    ring.submit_async(min_complete=depth)
    # Response wave: parse + the full batched tail per connection.
    for i in range(depth):
        a.hcall(parse_hcall)  # request parsing + header build (user code)
        a.load("r13", "r15", connfd + 8 * i)
        _emit_ring_tail(a, ring, spec, filebuf)
    ring.submit_async(min_complete=entries)
    a.jmp("loop")

    return _finish(a, spec, spec.name + "-async")


class ServerWorkload:
    """One loaded server process plus its content and parse-cost hook.

    ``batched`` selects the syscall shape: ``False`` (direct), ``True``
    (sync-batched response tails), or ``"async"`` (the event-loop leg —
    one worker, ``async_depth`` overlapping in-flight requests through
    the asynchronous ring drain).

    ``request_extra_cycles`` charges additional per-request user-space
    cycles, indexed by service order — the cluster layer uses it to model
    session-cache misses and cross-shard session migrations.
    """

    def __init__(self, machine, spec: ServerSpec, *, file_size: int,
                 port: int = 8080, workers: int = 1,
                 batched: bool | str = False, async_depth: int = 4,
                 request_extra_cycles: list[int] | None = None):
        if batched and file_size > CHUNK:
            raise ValueError(
                f"batched server delivers one chunk per request: "
                f"file_size {file_size} > {CHUNK}"
            )
        if batched == "async" and workers != 1:
            raise ValueError(
                "the async event-loop server is single-worker by design "
                f"(overlap comes from parked I/O, not processes): "
                f"workers={workers}"
            )
        self.machine = machine
        self.spec = spec
        self.port = port
        self.file_size = file_size
        self.workers = workers
        self.batched = batched
        self.async_depth = async_depth
        self.last_client = None
        machine.fs.create(FILE_PATH, bytes(file_size))
        extra = list(request_extra_cycles or ())
        served = {"n": 0}

        def parse(ctx):
            i = served["n"]
            served["n"] = i + 1
            cost = spec.parse_cost
            if i < len(extra):
                cost += extra[i]
            ctx.charge(cost)

        hcall = machine.kernel.register_hcall(parse)
        if batched == "async":
            self.image = build_async_server_image(
                spec, hcall, port=port, depth=async_depth
            )
        else:
            self.image = build_server_image(
                spec, hcall, port=port, workers=workers,
                batched=bool(batched),
            )
        self.process = machine.load(self.image)

    def run_until_listening(self, max_instructions: int = 500_000) -> None:
        net = self.machine.kernel.net
        self.machine.run(until=lambda: net.listening(self.port),
                         max_instructions=max_instructions)
        if not net.listening(self.port):
            raise RuntimeError(f"{self.spec.name} never started listening")

    def benchmark(
        self,
        *,
        requests: int = 300,
        warmup: int = 30,
        connections: int = 4,
        client_cycles_per_request: int = 0,
        deadline_cycles: int | None = None,
        partition_after: int | None = None,
    ) -> float:
        """Drive the server with the wrk model; returns requests/second.

        The client connects at once if the port already listens, and
        otherwise at the first event boundary after the server's
        ``listen()``: an event due at the listen clock, posted from that
        call.  So no leg depends on where the guest, or a tool's handler,
        blocks later in the slice that listens.

        The driving :class:`WrkClient` is kept on ``self.last_client`` so
        callers (the unified runner, the cluster shard worker) can read
        latency samples and the measured window after the run.

        With ``deadline_cycles`` set the run is bounded: instead of
        raising when the server stalls, it returns once the machine clock
        reaches the (absolute) deadline — the fleet hang-recovery path.
        ``partition_after`` caps the client's total sends (see
        :class:`WrkClient`); both default to off, leaving normal runs
        byte-identical.
        """
        kernel = self.machine.kernel
        client = self.last_client = WrkClient(
            kernel,
            self.port,
            connections=connections,
            response_size=self.file_size,
            warmup_requests=warmup,
            client_cycles_per_request=client_cycles_per_request,
            partition_after=partition_after,
        )
        if kernel.net.listening(self.port):
            client.start()
        else:
            kernel.net.on_listen(self.port, lambda: kernel.post_event(
                kernel.clock, client.start))
        total = warmup + requests
        if deadline_cycles is None:
            until = lambda: client.stats.completed >= total
        else:
            # a no-op timer guarantees an idle machine still advances
            # simulated time to the deadline instead of deadlocking
            kernel.post_event(deadline_cycles, lambda: None)
            until = lambda: (client.stats.completed >= total
                             or kernel.clock >= deadline_cycles)
        self.machine.run(until=until, max_instructions=1_000_000_000)
        client.stop()
        if client.stats.completed < total and deadline_cycles is None:
            raise RuntimeError(
                f"server stalled: {client.stats.completed}/{total} responses"
            )
        return client.throughput(self.machine.costs.frequency_hz)
