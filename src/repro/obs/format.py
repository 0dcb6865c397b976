"""Shared syscall-rendering helpers.

One formatting vocabulary serves every consumer: the strace-style exporter
and the live tracers in ``examples/`` — the duplication that used to live in
each of them collapses to these functions.
"""

from __future__ import annotations

from repro.kernel.errno import errno_name, is_error

#: Which argument positions hold user-space path strings (for live decoding).
PATH_ARGS = {
    "open": (0,), "stat": (0,), "access": (0,), "unlink": (0,),
    "mkdir": (0,), "rmdir": (0,), "chmod": (0,), "chdir": (0,),
    "rename": (0, 1), "execve": (0,), "openat": (1,),
}


def format_args(args, limit: int = 6) -> str:
    """Hex-render the first ``limit`` syscall arguments."""
    return ", ".join(f"{a:#x}" for a in args[:limit])


def format_ret(ret) -> str:
    """Render a syscall return value, errno-decoded on error."""
    if isinstance(ret, int) and is_error(ret):
        return f"-1 {errno_name(-ret)}"
    return str(ret)


def render_live_args(ctx, max_args: int = 4) -> str:
    """Decode arguments with *live* tracee memory access.

    Path-typed arguments (per :data:`PATH_ARGS`) are dereferenced to
    strings; everything else renders as hex.  Only usable from inside an
    interposer, while the memory still exists.
    """
    rendered = []
    for i, arg in enumerate(ctx.args[:max_args]):
        if i in PATH_ARGS.get(ctx.name, ()):
            try:
                rendered.append(repr(ctx.read_cstr(arg).decode()))
            except Exception:
                rendered.append(f"{arg:#x}")
        else:
            rendered.append(f"{arg:#x}")
    return ", ".join(rendered)
