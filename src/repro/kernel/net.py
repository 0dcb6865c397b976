"""Loopback networking: stream sockets, listeners, epoll.

The network is a localhost-only fabric, which is exactly the paper's
macrobenchmark setup (client and server on one machine, communicating over
localhost, §V-B).  Guest programs use the socket/epoll syscalls; load
generators like the wrk model connect from the host side through
:meth:`Network.connect` and receive data callbacks.  A load generator
starts from the guest's ``listen()`` itself: :meth:`Network.on_listen`
registers a host callback that the ``listen()`` opening the port runs
once.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.kernel import errno
from repro.kernel.fs import (
    EPOLLERR,
    EPOLLHUP,
    EPOLLIN,
    EPOLLOUT,
    FileDescription,
)
from repro.kernel.waits import WouldBlock

AF_INET = 2
SOCK_STREAM = 1
SOCK_NONBLOCK = 0o4000

# epoll_ctl ops.
EPOLL_CTL_ADD = 1
EPOLL_CTL_DEL = 2
EPOLL_CTL_MOD = 3


class Endpoint:
    """One side of a stream connection."""

    def __init__(self, name: str):
        self.name = name
        self.inbuf = bytearray()
        self.closed = False
        self.peer: Optional["Endpoint"] = None
        #: host callback fired when data arrives at this endpoint
        self.on_data: Optional[Callable[[bytes], None]] = None
        #: host callback fired when the peer closes
        self.on_close: Optional[Callable[[], None]] = None

    def deliver(self, data: bytes) -> None:
        if self.on_data is not None:
            self.on_data(bytes(data))
        else:
            self.inbuf += data

    def send(self, data: bytes) -> int:
        """Send to the peer endpoint."""
        if self.peer is None or self.peer.closed:
            return -errno.EPIPE
        self.peer.deliver(data)
        return len(data)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.peer is not None and self.peer.on_close is not None:
            self.peer.on_close()


class Connection:
    """A connected stream pair."""

    _ids = 0

    def __init__(self):
        Connection._ids += 1
        self.id = Connection._ids
        self.client = Endpoint(f"conn{self.id}.client")
        self.server = Endpoint(f"conn{self.id}.server")
        self.client.peer = self.server
        self.server.peer = self.client


class SocketDesc(FileDescription):
    """A guest-visible connected stream socket."""

    def __init__(self, endpoint: Endpoint, flags: int = 0):
        super().__init__()
        self.endpoint = endpoint
        self.flags = flags

    def read(self, task, length: int):
        ep = self.endpoint
        if not ep.inbuf:
            if ep.peer is None or ep.peer.closed:
                return b""  # orderly EOF
            if self.nonblocking:
                return -errno.EAGAIN
            raise WouldBlock(
                lambda: bool(ep.inbuf) or ep.peer is None or ep.peer.closed
            )
        data = bytes(ep.inbuf[:length])
        del ep.inbuf[: len(data)]
        return data

    def write(self, task, data: bytes) -> int:
        return self.endpoint.send(data)

    def poll(self) -> int:
        mask = 0
        ep = self.endpoint
        if ep.inbuf:
            mask |= EPOLLIN
        if ep.peer is not None and ep.peer.closed:
            mask |= EPOLLIN | EPOLLHUP
        if not ep.closed:
            mask |= EPOLLOUT
        return mask

    def close(self) -> None:
        super().close()
        if self.refcount == 0:
            self.endpoint.close()


class ListenSocket(FileDescription):
    """A guest listening socket with an accept backlog."""

    def __init__(self, port: int = 0, flags: int = 0):
        super().__init__()
        self.port = port
        self.flags = flags
        self.backlog: list[Connection] = []
        self.listening = False

    def poll(self) -> int:
        return EPOLLIN if self.backlog else 0

    def accept_one(self) -> Connection | None:
        if self.backlog:
            return self.backlog.pop(0)
        return None


class EpollDesc(FileDescription):
    """An epoll instance."""

    def __init__(self):
        super().__init__()
        self.interest: dict[int, tuple[int, int]] = {}  # fd -> (events, data)

    def ready_events(self, fdtable) -> list[tuple[int, int, int]]:
        """Return (fd, revents, data) for every ready member."""
        out = []
        for fd, (events, data) in self.interest.items():
            desc = fdtable.get(fd)
            if desc is None:
                continue
            revents = desc.poll() & (events | EPOLLERR | EPOLLHUP)
            if revents:
                out.append((fd, revents, data))
        return out

    def poll(self) -> int:
        return 0  # nested epoll unsupported


class Network:
    """The loopback fabric: port bindings and host-side connections."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.listeners: dict[int, ListenSocket] = {}
        #: port -> host callbacks the next ``listen()`` on it runs once
        self._on_listen: dict[int, list[Callable[[], None]]] = {}

    def bind(self, sock: ListenSocket, port: int) -> int:
        if port in self.listeners:
            return -errno.EADDRINUSE
        sock.port = port
        self.listeners[port] = sock
        return 0

    def listen(self, sock: ListenSocket) -> int:
        sock.listening = True
        for callback in self._on_listen.pop(sock.port, ()):
            callback()
        return 0

    def listening(self, port: int) -> bool:
        listener = self.listeners.get(port)
        return listener is not None and listener.listening

    def on_listen(self, port: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` once, inside the next ``listen()`` on ``port``."""
        self._on_listen.setdefault(port, []).append(callback)

    def unbind(self, sock: ListenSocket) -> None:
        if self.listeners.get(sock.port) is sock:
            del self.listeners[sock.port]

    def connect(
        self,
        port: int,
        *,
        on_data: Callable[[bytes], None] | None = None,
        on_close: Callable[[], None] | None = None,
    ) -> Connection:
        """Host-side connect (used by load-generator models).

        The returned connection's *client* endpoint belongs to the caller:
        write with ``conn.client.send(...)``, receive through ``on_data``.
        """
        if not self.listening(port):
            raise ConnectionRefusedError(f"no listener on port {port}")
        conn = Connection()
        conn.client.on_data = on_data
        conn.client.on_close = on_close
        self.listeners[port].backlog.append(conn)
        return conn

    def guest_connect(self, port: int, flags: int = 0) -> "SocketDesc | int":
        """Guest-side connect to a guest listener on the loopback."""
        if not self.listening(port):
            return -errno.ECONNREFUSED
        conn = Connection()
        self.listeners[port].backlog.append(conn)
        return SocketDesc(conn.client, flags)
