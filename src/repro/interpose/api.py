"""The user-facing interposer API.

An *interposer* is a callable ``interposer(ctx) -> int | None`` invoked for
every intercepted syscall.  It may inspect and rewrite arguments, read and
write tracee memory, suppress the syscall, or re-issue it (possibly
modified) with :meth:`SyscallContext.do_syscall`.  Returning an integer sets
the application-visible return value; returning ``None`` leaves registers
untouched (required for context-replacing calls like ``rt_sigreturn``).

The paper's "dummy interposition function" — execute the syscall with its
original arguments and return the result — is :func:`passthrough_interposer`.

Interposers are mechanism-agnostic; *how well the mechanism survives a
hostile environment* is configured separately at attach time with
``attach(..., degrade_policy=...)`` (see
:mod:`repro.interpose.lazypoline.degrade` — a ``DegradePolicy``, a floor
``Mode``/mode name, or a dict of policy fields).  The interposer callable
itself never changes: under ``SUD_ONLY`` it simply sees every call arrive
via the slow path, and under ``PASSTHROUGH`` it is not invoked at all.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.kernel.syscalls.table import syscall_name
from repro.obs import events as _K
from repro.obs.format import format_call
from repro.obs.tracer import Tracer


class SyscallContext:
    """Everything an interposer can see and touch for one syscall."""

    def __init__(
        self,
        kernel,
        task,
        sysno: int,
        args: tuple[int, ...],
        *,
        mechanism: str = "",
        do_syscall: Optional[Callable] = None,
        defer: Optional[Callable] = None,
    ):
        self.kernel = kernel
        self.task = task
        self.sysno = sysno
        self.args = tuple(args) + (0,) * (6 - len(args))
        self.mechanism = mechanism
        self._do_syscall = do_syscall
        self._defer = defer

    # ------------------------------------------------------------- identity
    @property
    def name(self) -> str:
        return syscall_name(self.sysno)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<syscall {format_call(self.name, self.args)} via {self.mechanism}>"

    # ------------------------------------------------------------------ memory
    def read_mem(self, addr: int, length: int) -> bytes:
        """Read tracee memory (deep argument inspection)."""
        return self.task.mem.read(addr, length, check=None)

    def write_mem(self, addr: int, data: bytes) -> None:
        """Write tracee memory (deep argument modification)."""
        self.task.mem.write(addr, data, check=None)

    def read_cstr(self, addr: int, maxlen: int = 4096) -> bytes:
        return self.task.mem.read_cstr(addr, maxlen, check=None)

    # ------------------------------------------------------------------ defer
    @property
    def can_defer(self) -> bool:
        return self._defer is not None

    def defer(self, predicate) -> None:
        """Park the task; this interposition re-runs when ``predicate``
        holds.  Return ``None`` from the interposer immediately afterwards
        (nothing must execute the syscall on this visit).  Supported by the
        rewriting-based mechanisms (zpoline, lazypoline); lockstep monitors
        build their barriers on this."""
        if self._defer is None:
            raise RuntimeError(
                f"mechanism {self.mechanism!r} cannot defer interpositions"
            )
        self._defer(predicate)

    # ---------------------------------------------------------------- execute
    def do_syscall(
        self, sysno: int | None = None, args: tuple[int, ...] | None = None
    ) -> int | None:
        """Execute the (possibly modified) syscall and return its result."""
        if self._do_syscall is None:
            raise RuntimeError("this mechanism cannot re-issue syscalls")
        use_sysno = self.sysno if sysno is None else sysno
        use_args = self.args if args is None else tuple(args) + (0,) * (6 - len(args))
        return self._do_syscall(use_sysno, use_args)


class Interposer(Protocol):
    def __call__(self, ctx: SyscallContext) -> int | None: ...


def passthrough_interposer(ctx: SyscallContext) -> int | None:
    """The paper's dummy interposition function: re-issue unchanged."""
    return ctx.do_syscall()


class TraceInterposer:
    """Records every intercepted syscall, then passes it through.

    Backed by an observability tracer (:class:`repro.obs.Tracer`) instead of
    a private list: each interception becomes an ``interposition`` event and
    ``names``/``count`` delegate to the tracer's counters.  Pass a shared
    ``tracer`` to merge the tool-level view into a machine-wide stream.

    ``events`` still yields the legacy ``(name, sysno, args)`` tuples — the
    strace-style output the exhaustiveness experiment (§V-A) compares across
    tools.
    """

    def __init__(self, *, capture_results: bool = False, tracer: Tracer | None = None):
        self.tracer = tracer if tracer is not None else Tracer()
        self.results: list[int | None] = []
        self.capture_results = capture_results

    def __call__(self, ctx: SyscallContext) -> int | None:
        self.tracer.interposition(
            ctx.kernel.clock, ctx.task.tid, ctx.sysno, ctx.args, ctx.mechanism
        )
        ret = ctx.do_syscall()
        if self.capture_results:
            self.results.append(ret)
        return ret

    @property
    def events(self) -> list[tuple[str, int, tuple[int, ...]]]:
        return [
            (e.data["name"], e.data["sysno"], tuple(e.data["args"]))
            for e in self.tracer.events
            if e.kind == _K.INTERPOSITION
        ]

    @property
    def names(self) -> list[str]:
        return [
            e.data["name"]
            for e in self.tracer.events
            if e.kind == _K.INTERPOSITION
        ]

    def count(self, name: str) -> int:
        return self.tracer.interposition_counts.get(name, 0)


class DenyListInterposer:
    """Sandbox-style interposer: deny selected syscalls with an errno."""

    def __init__(self, denied: dict[int, int], fallback: Interposer | None = None):
        self.denied = dict(denied)  # sysno -> errno (positive)
        self.fallback = fallback or passthrough_interposer
        self.blocked: list[tuple[str, tuple[int, ...]]] = []

    def __call__(self, ctx: SyscallContext) -> int | None:
        if ctx.sysno in self.denied:
            self.blocked.append((ctx.name, ctx.args))
            return -self.denied[ctx.sysno]
        return self.fallback(ctx)
