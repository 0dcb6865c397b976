"""Filesystem syscall tests (driven from guest programs)."""

from __future__ import annotations

import struct

from repro.kernel import errno
from repro.kernel.fs import (
    EPOLLERR,
    EPOLLHUP,
    EPOLLIN,
    EPOLLOUT,
    O_DIRECTORY,
    O_NONBLOCK,
)
from repro.kernel.net import EPOLL_CTL_ADD, EPOLL_CTL_DEL
from repro.kernel.syscalls.fs_calls import (
    F_DUPFD,
    F_GETFL,
    F_SETFL,
    S_IFDIR,
    S_IFREG,
)
from repro.kernel.syscalls.table import NR

from tests.conftest import (
    asm,
    emit_exit,
    emit_syscall,
    exit_steps,
    expect_rax,
    finish,
    run_program,
)

S_IFMT = 0o170000


def test_open_read_write_close(machine):
    machine.fs.create("/data/in.txt", b"ABCDEFGH")
    a = asm()
    a.label("_start")
    emit_syscall(a, "open", "path", 0, 0)  # O_RDONLY
    a.mov("rbx", "rax")  # fd
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")  # writable buffer
    # read(fd, buf, 4)
    a.mov("rdi", "rbx")
    a.mov("rsi", "r12")
    a.mov_imm("rdx", 4)
    a.mov_imm("rax", NR["read"])
    a.syscall()
    # write(1, buf, 4)
    a.mov_imm("rdi", 1)
    a.mov("rsi", "r12")
    a.mov_imm("rdx", 4)
    a.mov_imm("rax", NR["write"])
    a.syscall()
    # close(fd)
    a.mov("rdi", "rbx")
    a.mov_imm("rax", NR["close"])
    a.syscall()
    # a second read on the closed fd must fail with EBADF
    a.mov("rdi", "rbx")
    a.mov("rsi", "r12")
    a.mov_imm("rdx", 1)
    a.mov_imm("rax", NR["read"])
    a.syscall()
    a.cmpi("rax", -errno.EBADF)
    a.jnz("bad")
    emit_exit(a, 0)
    a.label("bad")
    emit_exit(a, 1)
    a.label("path")
    a.db(b"/data/in.txt\x00")
    proc, code = run_program(machine, finish(a))
    assert code == 0
    assert proc.stdout == b"ABCD"


def test_open_missing_file_enoent(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "open", "path", 0, 0)
    a.mov_imm("rbx", 0)
    a.sub("rbx", "rax")
    a.mov("rdi", "rbx")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("path")
    a.db(b"/no/such\x00")
    _proc, code = run_program(machine, finish(a))
    assert code == errno.ENOENT


def test_fs_host_api():
    from repro.kernel.fs import SimFS

    fs = SimFS()
    fs.create("/a/b/c.txt", b"xyz")
    assert fs.exists("/a/b/c.txt")
    assert fs.lookup("/a/b/c.txt").data == b"xyz"
    assert fs.listdir("/a") == ["b"]
    assert fs.listdir("/a/b") == ["c.txt"]
    assert fs.mkdir("/a/b") == -errno.EEXIST
    assert fs.rename("/a/b/c.txt", "/a/d.txt") == 0
    assert not fs.exists("/a/b/c.txt")
    assert fs.unlink("/a/d.txt") == 0
    assert fs.rmdir("/a/b") == 0
    assert fs.rmdir("/a") == 0


def test_fs_rmdir_nonempty():
    from repro.kernel.fs import SimFS

    fs = SimFS()
    fs.create("/dir/file", b"")
    assert fs.rmdir("/dir") == -errno.ENOTEMPTY


def test_fs_chmod():
    from repro.kernel.fs import SimFS

    fs = SimFS()
    fs.create("/f", b"")
    assert fs.chmod("/f", 0o600) == 0
    assert fs.lookup("/f").mode == 0o600
    assert fs.chmod("/nope", 0o600) == -errno.ENOENT


def test_normalize_paths():
    from repro.kernel.fs import SimFS

    assert SimFS.normalize("a/b") == "/a/b"
    assert SimFS.normalize("/a//b/./c/..") == "/a/b"


def _rw_program(machine, path_bytes: bytes, flags: int, payload: bytes):
    """Open with flags, write payload, read it back via pread, print it."""
    a = asm()
    a.label("_start")
    emit_syscall(a, "open", "path", flags, 0o644)
    a.mov("rbx", "rax")
    # write(fd, data, len)
    a.mov("rdi", "rbx")
    a.mov_imm("rsi", "data")
    a.mov_imm("rdx", len(payload))
    a.mov_imm("rax", NR["write"])
    a.syscall()
    # pread64(fd, heap, len, 0) — read into a writable mmap
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.mov("rdi", "rbx")
    a.mov("rsi", "r12")
    a.mov_imm("rdx", len(payload))
    a.mov_imm("r10", 0)
    a.mov_imm("rax", NR["pread64"])
    a.syscall()
    # write(1, heap, len)
    a.mov_imm("rdi", 1)
    a.mov("rsi", "r12")
    a.mov_imm("rdx", len(payload))
    a.mov_imm("rax", NR["write"])
    a.syscall()
    emit_exit(a, 0)
    a.label("path")
    a.db(path_bytes + b"\x00")
    a.label("data")
    a.db(payload)
    return finish(a)


def test_create_write_pread(machine):
    from repro.kernel.fs import O_CREAT, O_RDWR

    img = _rw_program(machine, b"/out.bin", O_CREAT | O_RDWR, b"PAYLOAD!")
    proc, code = run_program(machine, img)
    assert code == 0
    assert proc.stdout == b"PAYLOAD!"
    assert machine.fs.lookup("/out.bin").data == b"PAYLOAD!"


def test_lseek_and_stat(machine):
    machine.fs.create("/f", b"0123456789")
    machine.fs.create("/d/g", b"")
    a = asm()
    a.label("_start")
    emit_syscall(a, "open", "path", 0, 0)
    a.mov("rbx", "rax")
    # lseek(fd, 4, SEEK_SET)
    a.mov("rdi", "rbx")
    a.mov_imm("rsi", 4)
    a.mov_imm("rdx", 0)
    a.mov_imm("rax", NR["lseek"])
    a.syscall()
    expect_rax(a, 4, step=1)
    # fstat(fd, buf) then check size field == 10
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.mov("rdi", "rbx")
    a.mov("rsi", "r12")
    a.mov_imm("rax", NR["fstat"])
    a.syscall()
    a.load("rax", "r12", 0)  # st_size
    expect_rax(a, 10, step=2)
    # stat(path) of the same file: size and a regular-file mode
    emit_syscall(a, "stat", "path", "r12")
    expect_rax(a, 0, step=3)
    a.load("rax", "r12", 0)
    expect_rax(a, 10, step=4)
    a.load("rax", "r12", 8)  # st_mode
    a.andi("rax", S_IFMT)
    expect_rax(a, S_IFREG, step=5)
    # stat of a directory
    emit_syscall(a, "stat", "dir", "r12")
    expect_rax(a, 0, step=6)
    a.load("rax", "r12", 8)
    a.andi("rax", S_IFMT)
    expect_rax(a, S_IFDIR, step=7)
    # stat of a missing path
    emit_syscall(a, "stat", "missing", "r12")
    expect_rax(a, -errno.ENOENT, step=8)
    exit_steps(a)
    a.label("path")
    a.db(b"/f\x00")
    a.label("dir")
    a.db(b"/d\x00")
    a.label("missing")
    a.db(b"/nope\x00")
    _proc, code = run_program(machine, finish(a))
    assert code == 0, f"check {code} failed"


def test_pipe_roundtrip(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    # pipe(fds @ r12)
    a.mov("rdi", "r12")
    a.mov_imm("rax", NR["pipe"])
    a.syscall()
    # write(fds[1], msg, 3) — fds are small, one byte is plenty
    a.load8("r13", "r12", 0)  # read end
    a.load8("rdi", "r12", 4)  # write end
    a.mov_imm("rsi", "msg")
    a.mov_imm("rdx", 3)
    a.mov_imm("rax", NR["write"])
    a.syscall()
    # read(fds[0], buf@r12+100, 3)
    a.mov("rdi", "r13")
    a.lea("rsi", "r12", 100)
    a.mov_imm("rdx", 3)
    a.mov_imm("rax", NR["read"])
    a.syscall()
    # write(1, buf, 3)
    a.mov_imm("rdi", 1)
    a.lea("rsi", "r12", 100)
    a.mov_imm("rdx", 3)
    a.mov_imm("rax", NR["write"])
    a.syscall()
    emit_exit(a, 0)
    a.label("msg")
    a.db(b"xyz")
    proc, code = run_program(machine, finish(a))
    assert code == 0
    assert proc.stdout == b"xyz"


def test_getdents64_lists_directory(machine):
    machine.fs.create("/dir/a", b"")
    machine.fs.create("/dir/b", b"")
    machine.fs.makedirs("/dir/sub")
    a = asm()
    a.label("_start")
    emit_syscall(a, "open", "path", 0, 0)
    a.mov("rbx", "rax")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.mov("rdi", "rbx")
    a.mov("rsi", "r12")
    a.mov_imm("rdx", 4096)
    a.mov_imm("rax", NR["getdents64"])
    a.syscall()
    a.mov("rdi", "rax")  # bytes written as exit code (sanity > 0)
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("path")
    a.db(b"/dir\x00")
    proc, code = run_program(machine, finish(a))
    assert code > 0
    # host-side: verify the names are in the buffer
    task = proc.task
    # find the mmap region and check names appear
    blob = b"".join(
        task.mem.read(r.start, r.size, check=None)
        for r in task.mem.regions()
    )
    assert b"a" in blob and b"b" in blob and b"sub" in blob


def test_dup_and_fcntl(machine):
    machine.fs.create("/f", b"Z")
    a = asm()
    a.label("_start")
    emit_syscall(a, "open", "path", 0, 0)
    a.mov("rbx", "rax")
    a.mov("rdi", "rbx")
    a.mov_imm("rax", NR["dup"])
    a.syscall()
    a.mov("r12", "rax")  # dup'd fd
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r13", "rax")  # buffer
    # read 1 byte through the dup
    emit_syscall(a, "read", "r12", "r13", 1)
    expect_rax(a, 1, step=1)
    # F_GETFL of the O_RDONLY file
    emit_syscall(a, "fcntl", "rbx", F_GETFL, 0)
    expect_rax(a, 0, step=2)
    # F_DUPFD: a new fd on the same description, so at the shared EOF
    emit_syscall(a, "fcntl", "rbx", F_DUPFD, 0)
    a.mov("r14", "rax")
    emit_syscall(a, "read", "r14", "r13", 1)
    expect_rax(a, 0, step=3)
    # F_SETFL O_NONBLOCK on an empty pipe's read end: read says EAGAIN
    a.lea("rdi", "r13", 64)
    a.mov_imm("rax", NR["pipe"])
    a.syscall()
    a.load8("r14", "r13", 64)  # read end
    emit_syscall(a, "fcntl", "r14", F_SETFL, O_NONBLOCK)
    expect_rax(a, 0, step=4)
    emit_syscall(a, "fcntl", "r14", F_GETFL, 0)
    expect_rax(a, O_NONBLOCK, step=5)
    emit_syscall(a, "read", "r14", "r13", 1)
    expect_rax(a, -errno.EAGAIN, step=6)
    # an unknown command, then a bad fd
    emit_syscall(a, "fcntl", "rbx", 99, 0)
    expect_rax(a, -errno.EINVAL, step=7)
    a.mov_imm("r14", 99)
    emit_syscall(a, "fcntl", "r14", F_GETFL, 0)
    expect_rax(a, -errno.EBADF, step=8)
    exit_steps(a)
    a.label("path")
    a.db(b"/f\x00")
    _proc, code = run_program(machine, finish(a))
    assert code == 0, f"check {code} failed"


def test_pipe_close_eof_epipe_and_epoll(machine):
    """Closing one end of a pipe: the reader sees its data, then EOF, and
    EPOLLHUP; the writer sees -EPIPE and EPOLLERR."""
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")  # buffer; fds at +64, epoll events at +128
    emit_syscall(a, "epoll_create1", 0)
    a.mov("rbp", "rax")
    # pipe 1: write a byte, close the write end
    a.lea("rdi", "r12", 64)
    a.mov_imm("rax", NR["pipe"])
    a.syscall()
    a.load8("r13", "r12", 64)  # read end
    a.load8("r14", "r12", 68)  # write end
    emit_syscall(a, "epoll_ctl", "rbp", EPOLL_CTL_ADD, "r13", "want_in")
    expect_rax(a, 0, step=1)
    emit_syscall(a, "write", "r14", "msg", 1)
    expect_rax(a, 1, step=2)
    emit_syscall(a, "close", "r14")
    expect_rax(a, 0, step=3)
    _epoll_wait(a)
    expect_rax(a, 1, step=4)
    a.load("rax", "r12", 128)  # events of the one ready fd (data is 0)
    expect_rax(a, EPOLLIN | EPOLLHUP, step=5)
    emit_syscall(a, "read", "r13", "r12", 8)
    expect_rax(a, 1, step=6)  # the buffered byte first
    emit_syscall(a, "read", "r13", "r12", 8)
    expect_rax(a, 0, step=7)  # then EOF
    emit_syscall(a, "epoll_ctl", "rbp", EPOLL_CTL_DEL, "r13", "want_in")
    expect_rax(a, 0, step=8)
    # pipe 2: close the read end, then write
    a.lea("rdi", "r12", 64)
    a.mov_imm("rax", NR["pipe"])
    a.syscall()
    a.load8("r13", "r12", 64)
    a.load8("r14", "r12", 68)
    emit_syscall(a, "epoll_ctl", "rbp", EPOLL_CTL_ADD, "r14", "want_out")
    expect_rax(a, 0, step=9)
    emit_syscall(a, "close", "r13")
    expect_rax(a, 0, step=10)
    emit_syscall(a, "write", "r14", "msg", 1)
    expect_rax(a, -errno.EPIPE, step=11)
    _epoll_wait(a)
    expect_rax(a, 1, step=12)
    a.load("rax", "r12", 128)
    expect_rax(a, EPOLLOUT | EPOLLERR, step=13)
    exit_steps(a)
    a.label("msg")
    a.db(b"x")
    a.label("want_in")
    a.db(struct.pack("<IQ", EPOLLIN, 0))
    a.label("want_out")
    a.db(struct.pack("<IQ", EPOLLOUT, 0))
    _proc, code = run_program(machine, finish(a))
    assert code == 0, f"check {code} failed"


def test_pwrite64_writes_at_an_offset_and_keeps_the_file_offset(machine):
    machine.fs.create("/f", b"0123456789")
    a = asm()
    a.label("_start")
    emit_syscall(a, "open", "path", 2, 0)  # O_RDWR
    a.mov("rbx", "rax")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    emit_syscall(a, "pwrite64", "rbx", "msg", 2, 4)
    expect_rax(a, 2, step=1)
    emit_syscall(a, "read", "rbx", "r12", 3)  # the file offset is still 0
    expect_rax(a, 3, step=2)
    a.load8("rax", "r12", 0)
    expect_rax(a, ord("0"), step=3)
    # pwrite64 on a pipe, then on a bad fd
    a.lea("rdi", "r12", 64)
    a.mov_imm("rax", NR["pipe"])
    a.syscall()
    a.load8("r13", "r12", 68)  # write end
    emit_syscall(a, "pwrite64", "r13", "msg", 2, 0)
    expect_rax(a, -errno.ESPIPE, step=4)
    a.mov_imm("r13", 99)
    emit_syscall(a, "pwrite64", "r13", "msg", 2, 0)
    expect_rax(a, -errno.EBADF, step=5)
    exit_steps(a)
    a.label("path")
    a.db(b"/f\x00")
    a.label("msg")
    a.db(b"AB")
    _proc, code = run_program(machine, finish(a))
    assert code == 0, f"check {code} failed"
    assert bytes(machine.fs.lookup("/f").data) == b"0123AB6789"


def test_access_and_rmdir(machine):
    machine.fs.create("/d/g", b"")
    a = asm()
    a.label("_start")
    steps = [
        ("access", "dir", 0),
        ("access", "missing", -errno.ENOENT),
        ("rmdir", "dir", -errno.ENOTEMPTY),
        ("rmdir", "file", -errno.ENOTDIR),
        ("rmdir", "missing", -errno.ENOENT),
        ("unlink", "file", 0),
        ("rmdir", "dir", 0),
        ("access", "dir", -errno.ENOENT),
    ]
    for step, (name, path, want) in enumerate(steps, 1):
        emit_syscall(a, name, path, 0)
        expect_rax(a, want, step=step)
    exit_steps(a)
    a.label("dir")
    a.db(b"/d\x00")
    a.label("file")
    a.db(b"/d/g\x00")
    a.label("missing")
    a.db(b"/nope\x00")
    _proc, code = run_program(machine, finish(a))
    assert code == 0, f"check {code} failed"
    assert machine.fs.lookup("/d") is None


def test_epoll_read_and_write_on_every_descriptor_kind(machine):
    """epoll reports a regular file readable and writable, stdout
    writable, and a directory or an epoll fd never; read/write on an
    epoll fd are -EINVAL, and reading stdout reads nothing."""
    machine.fs.create("/d/f", b"data")
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    emit_syscall(a, "epoll_create1", 0)
    a.mov("rbp", "rax")
    emit_syscall(a, "open", "file", 0, 0)
    a.mov("r13", "rax")
    emit_syscall(a, "epoll_ctl", "rbp", EPOLL_CTL_ADD, "r13", "want_both")
    expect_rax(a, 0, step=1)
    a.mov_imm("r13", 1)  # stdout
    emit_syscall(a, "epoll_ctl", "rbp", EPOLL_CTL_ADD, "r13", "want_both")
    expect_rax(a, 0, step=2)
    emit_syscall(a, "open", "dir", O_DIRECTORY, 0)
    a.mov("r13", "rax")
    emit_syscall(a, "epoll_ctl", "rbp", EPOLL_CTL_ADD, "r13", "want_both")
    expect_rax(a, 0, step=3)
    emit_syscall(a, "epoll_create1", 0)
    a.mov("r14", "rax")  # a second epoll fd, nested in the first
    emit_syscall(a, "epoll_ctl", "rbp", EPOLL_CTL_ADD, "r14", "want_both")
    expect_rax(a, 0, step=4)
    _epoll_wait(a)
    expect_rax(a, 2, step=5)  # the file and stdout
    a.load("rax", "r12", 128)
    expect_rax(a, EPOLLIN | EPOLLOUT, step=6)
    a.load("rax", "r12", 128 + 12)
    expect_rax(a, EPOLLOUT, step=7)
    emit_syscall(a, "read", "r14", "r12", 1)
    expect_rax(a, -errno.EINVAL, step=8)
    emit_syscall(a, "write", "r14", "file", 1)
    expect_rax(a, -errno.EINVAL, step=9)
    a.mov_imm("r13", 1)
    emit_syscall(a, "read", "r13", "r12", 1)
    expect_rax(a, 0, step=10)
    exit_steps(a)
    a.label("file")
    a.db(b"/d/f\x00")
    a.label("dir")
    a.db(b"/d\x00")
    a.label("want_both")
    a.db(struct.pack("<IQ", EPOLLIN | EPOLLOUT, 0))
    _proc, code = run_program(machine, finish(a))
    assert code == 0, f"check {code} failed"


def _epoll_wait(a) -> None:
    """``epoll_wait(rbp, r12 + 128, 4, 0)``: the ready events, unblocked."""
    a.lea("rsi", "r12", 128)
    a.mov("rdi", "rbp")
    a.mov_imm("rdx", 4)
    a.mov_imm("r10", 0)
    a.mov_imm("rax", NR["epoll_wait"])
    a.syscall()
