"""Function-level reach audit of ``src/``: every function is run, or listed.

A function in ``src/`` that no test, scenario, example or benchmark ever
enters is either dead (delete it) or untested (add the test that reaches
it).  This module finds them.  It has two halves:

* **The tracer.**  A ``sys.settrace`` hook on call events only (it
  returns ``None``, so no line events) that records, per process, every
  code object of a ``src/`` file that is entered, as ``(file,
  firstlineno, qualname)``.  It is installed when this module is
  imported as a pytest plugin (``-p benchmarks.reach``), before any
  conftest, and in every other Python process through a generated
  ``sitecustomize`` that the plugin puts on ``PYTHONPATH``.  Each process
  writes a start marker when it is traced and a dump when it ends: at
  exit, from ``os._exit`` (forked pool workers) and on ``SIGTERM``
  (``Pool.terminate``).  A dump is written to a temporary name and
  renamed, so it is whole or absent, and a process that left a marker
  without a dump fails the audit: it did not "reach nothing".

* **The audit** (``python benchmarks/reach.py``, ``make reach``).  It
  runs the tracer over tier-1 (``--hypothesis-seed=0``), ``make
  faults``, ``make examples``, ``python -m repro.obs smoke`` and ``make
  bench-sim``, then compares the union of the dumps with every function
  defined in ``src/`` (each ``def``, nested ones and methods included;
  lambdas, comprehensions and class bodies are not functions).  Every
  unreached function must be listed in ``benchmarks/reach_allow.txt``
  with a reason.  The audit fails, naming the function, on a function
  that is unreached and not listed, on a listed function that is now
  reached, and on a listed function that no longer exists.

A function is named ``<path under src>::<qualname>``; the second and
later definitions of one qualname in a file (a property's setter) get
``#2``, ``#3`` in source order.  Names carry no line numbers, so the
allow list survives edits elsewhere in a file.

One tier-1 test is deselected under the tracer:
``tests/test_obs_overhead.py::test_disabled_tracer_keeps_baseline_mips``
is a wall-clock MIPS gate that any tracer's slowdown fails; it still
runs, untraced, in tier-1.

Usage::

    python benchmarks/reach.py                 # trace every run, audit
    python benchmarks/reach.py --out DIR       # keep dumps + reached.txt
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOW = ROOT / "benchmarks" / "reach_allow.txt"
ENV = "REACH_DIR"
DESELECT = ("tests/test_obs_overhead.py::"
            "test_disabled_tracer_keeps_baseline_mips")
SITECUSTOMIZE = f"""\
import importlib.util, sys
_spec = importlib.util.spec_from_file_location(
    "benchmarks.reach", {str(Path(__file__).resolve())!r})
_reach = importlib.util.module_from_spec(_spec)
sys.modules["benchmarks.reach"] = _reach
_spec.loader.exec_module(_reach)
_reach.install()
"""

# --------------------------------------------------------------- the tracer

_codes: dict[int, object] = {}      # id -> entered src/ code object
_is_src: dict[str, bool] = {}       # co_filename -> under src/
_src_prefix = str(SRC) + os.sep
_state = {"token": None, "dumping": False}
_real_exit = os._exit


def _trace(frame, event, arg):
    code = frame.f_code
    if id(code) not in _codes:
        name = code.co_filename
        src = _is_src.get(name)
        if src is None:
            src = _is_src[name] = os.path.realpath(name).startswith(
                _src_prefix)
        if src:
            _codes[id(code)] = code     # held, so the id is never reused


def _start() -> None:
    """Name this process and leave its start marker."""
    out = Path(os.environ[ENV])
    token = f"{os.getpid()}-{time.monotonic_ns()}"
    _state["token"] = token
    (out / f"{token}.start").write_text(" ".join(sys.argv) + "\n")


def dump() -> None:
    """Write what this process reached, whole or not at all."""
    token = _state["token"]
    if token is None or _state["dumping"]:
        return
    _state["dumping"] = True
    try:
        out = Path(os.environ[ENV])
        lines = sorted(
            f"{os.path.relpath(os.path.realpath(c.co_filename), SRC)}:"
            f"{c.co_firstlineno}:{c.co_qualname}"
            for c in list(_codes.values()))
        tmp = out / f"{token}.tmp"
        tmp.write_text("".join(line + "\n" for line in lines) + "end\n")
        os.replace(tmp, out / f"{token}.reach")
    finally:
        _state["dumping"] = False


def _exit(status):
    dump()
    _real_exit(status)


def _on_sigterm(signum, frame):
    if _state["dumping"]:
        return          # a repeated SIGTERM: the first one ends the process
    dump()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _after_fork() -> None:
    _start()
    signal.signal(signal.SIGTERM, _on_sigterm)


def _site(out: Path) -> Path:
    """The directory holding the ``sitecustomize`` that traces a process."""
    site = out / "site"
    site.mkdir(exist_ok=True)
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
    return site


def install() -> None:
    """Trace this process (and, through ``PYTHONPATH``, its children)."""
    if _state["token"] is not None or ENV not in os.environ:
        return
    _start()
    site = _site(Path(os.environ[ENV]))
    path = os.environ.get("PYTHONPATH", "")
    if str(site) not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(site), path) if p)
    sys.settrace(_trace)
    threading.settrace(_trace)
    atexit.register(dump)
    os._exit = _exit
    os.register_at_fork(after_in_child=_after_fork)
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _on_sigterm)


install()      # at import: as a pytest plugin this runs before any conftest


# ---------------------------------------------------------------- the audit

def functions() -> dict[tuple[str, int, str], str]:
    """Every function in ``src/``, as ``(file, line, qualname) -> name``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        seen: dict[str, int] = {}
        stack = [compile(path.read_text(), str(path), "exec")]
        codes = []
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if code.co_flags & 0x2 and not code.co_name.startswith("<"):
                codes.append(code)          # CO_NEWLOCALS: a def's body
        for code in sorted(codes, key=lambda c: c.co_firstlineno):
            n = seen[code.co_qualname] = seen.get(code.co_qualname, 0) + 1
            name = f"{rel}::{code.co_qualname}" + (f"#{n}" if n > 1 else "")
            found[rel, code.co_firstlineno, code.co_qualname] = name
    return found


def read_dumps(out: Path) -> tuple[set[tuple[str, int, str]], list[str]]:
    """The union of the dumps in ``out``, and one problem per bad process."""
    reached, problems = set(), []
    for marker in sorted(out.glob("*.start")):
        argv = marker.read_text().strip()
        path = marker.with_suffix(".reach")
        lines = path.read_text().splitlines() if path.exists() else []
        if not lines or lines[-1] != "end":
            problems.append(f"process {marker.stem} ({argv}) left no "
                            f"whole dump")
            continue
        for line in lines[:-1]:
            rel, lineno, qualname = line.split(":", 2)
            reached.add((rel, int(lineno), qualname))
    if not any(out.glob("*.start")):
        problems.append(f"no traced process left a marker in {out}")
    return reached, problems


def read_allow(path: Path = ALLOW) -> tuple[dict[str, str], list[str]]:
    """``name -> reason`` from the allow list, and its malformed lines."""
    allow, problems = {}, []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        if not reason.strip() or name in allow:
            problems.append(f"{path.name}:{number}: needs one entry with "
                            f"a reason: {line}")
        allow[name] = reason.strip()
    return allow, problems


def audit(out: Path) -> int:
    defined = functions()
    reached_keys, problems = read_dumps(out)
    allow, bad = read_allow()
    problems += bad
    reached = {defined[k] for k in reached_keys if k in defined}
    names = set(defined.values())
    where = {name: f"{rel}:{line}" for (rel, line, _), name in defined.items()}
    for name in sorted(names - reached - allow.keys()):
        problems.append(f"unreached and not listed: {name} "
                        f"(src/{where[name]})")
    for name in sorted(allow.keys() & reached):
        problems.append(f"listed but reached: {name}")
    for name in sorted(allow.keys() - names):
        problems.append(f"listed but not defined: {name}")
    text = "".join(name + "\n" for name in sorted(reached))
    (out / "reached.txt").write_text(text)
    print(f"reach: {len(reached)} of {len(names)} functions reached, "
          f"{len(allow)} listed; reached set sha256 "
          f"{hashlib.sha256(text.encode()).hexdigest()[:16]}")
    for problem in problems:
        print(f"reach: FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def runs(python: str) -> list[tuple[str, list[str]]]:
    """The traced runs: tier-1 and the make targets named in the module
    docstring, as the Makefile runs them."""
    examples = sorted(str(p.relative_to(ROOT))
                      for p in (ROOT / "examples").glob("*.py"))
    return [
        ("tier-1", [python, "-m", "pytest", "-x", "-q",
                    "-p", "benchmarks.reach", "--hypothesis-seed=0",
                    "--deselect", DESELECT]),
        ("faults", [python, "-m", "repro.faults", "--seeds", "0:64"]),
        *((f"examples {p}", [python, p]) for p in examples),
        ("trace", [python, "-m", "repro.obs", "smoke"]),
        ("bench-sim", [python, "benchmarks/check_sim.py"]),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path,
                        help="keep the dumps and reached.txt here")
    args = parser.parse_args(argv)
    out = args.out or Path(tempfile.mkdtemp(prefix="reach-"))
    out.mkdir(parents=True, exist_ok=True)
    out = out.resolve()
    env = dict(os.environ, **{ENV: str(out)})
    env["PYTHONPATH"] = os.pathsep.join([str(_site(out)), str(SRC)])
    try:
        for label, cmd in runs(sys.executable):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL)
            print(f"reach: {label}: exit {proc.returncode} "
                  f"({time.perf_counter() - t0:.0f} s)", flush=True)
            if proc.returncode != 0:
                print(f"reach: FAIL traced run {label} exited "
                      f"{proc.returncode}", file=sys.stderr)
                return 1
        return audit(out)
    finally:
        if args.out is None:
            shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
