"""Scheduler and Machine facade behaviour."""

from __future__ import annotations

import pytest

from repro.errors import GuestCrash
from repro.kernel.machine import Machine
from repro.kernel.syscalls.table import NR
from repro.kernel.task import TaskState
from repro.kernel.waits import DeadlockError

from tests.conftest import asm, emit_exit, emit_syscall, finish, hello_image, run_program


def _spin_image(exit_after: int):
    a = asm()
    a.label("_start")
    a.mov_imm("rbx", exit_after)
    a.label("loop")
    a.dec("rbx")
    a.jnz("loop")
    emit_exit(a, 0)
    return finish(a)


def test_two_processes_interleave(machine):
    p1 = machine.load(_spin_image(500))
    p2 = machine.load(_spin_image(500))
    machine.run()
    assert not p1.alive and not p2.alive
    # both made progress; neither starved
    assert p1.task.insn_count > 100
    assert p2.task.insn_count > 100


def test_run_until_predicate(machine):
    proc = machine.load(_spin_image(10_000))
    machine.run(until=lambda: proc.task.insn_count >= 100)
    assert proc.alive
    assert proc.task.insn_count >= 100


def test_max_instructions_bound(machine):
    proc = machine.load(_spin_image(1_000_000))
    machine.run(max_instructions=500)
    assert proc.alive
    assert 400 <= machine.scheduler.total_instructions <= 700


def test_run_process_raises_on_no_exit(machine):
    proc = machine.load(_spin_image(100_000_000))
    with pytest.raises(GuestCrash):
        machine.run_process(proc, max_instructions=1000)


def test_deadlock_detection(machine):
    # a task blocked on a pipe nobody ever writes to
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.mov("rdi", "r12")
    a.mov_imm("rax", NR["pipe"])
    a.syscall()
    a.load8("rdi", "r12", 0)
    a.mov("rsi", "r12")
    a.mov_imm("rdx", 1)
    a.mov_imm("rax", NR["read"])  # blocks forever
    a.syscall()
    emit_exit(a, 0)
    machine.load(finish(a))
    with pytest.raises(DeadlockError):
        machine.run()


def test_deadlock_suppressable(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.mov("rdi", "r12")
    a.mov_imm("rax", NR["pipe"])
    a.syscall()
    a.load8("rdi", "r12", 0)
    a.mov("rsi", "r12")
    a.mov_imm("rdx", 1)
    a.mov_imm("rax", NR["read"])
    a.syscall()
    emit_exit(a, 0)
    proc = machine.load(finish(a))
    machine.run(raise_on_deadlock=False)
    assert proc.alive
    assert proc.task.state is TaskState.BLOCKED


def test_posted_events_fire_in_order(machine):
    fired = []
    machine.kernel.post_event(100, lambda: fired.append("b"))
    machine.kernel.post_event(50, lambda: fired.append("a"))
    machine.kernel.post_event(150, lambda: fired.append("c"))
    machine.load(hello_image())
    machine.run()
    # events with times below the final clock all fired, in time order
    assert fired == ["a", "b", "c"]


def test_nanosleep_advances_clock(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r12", "rax")
    a.mov_imm("rcx", 0)
    a.store("r12", 0, "rcx")  # 0 seconds
    a.mov_imm("rcx", 1_000_000)  # 1 ms
    a.store("r12", 8, "rcx")
    a.mov("rdi", "r12")
    a.mov_imm("rsi", 0)
    a.mov_imm("rax", NR["nanosleep"])
    a.syscall()
    emit_exit(a, 0)
    proc, code = run_program(machine, finish(a))
    assert code == 0
    # 1 ms at 2.1 GHz = 2.1M cycles
    assert machine.clock >= 2_100_000


def test_zombies_listed(machine):
    proc = machine.load(hello_image())
    machine.run()
    assert proc.task in machine.zombies()


def test_sched_yield_allows_progress(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "sched_yield")
    emit_exit(a, 0)
    _proc, code = run_program(machine, finish(a))
    assert code == 0


def test_machine_seconds_property(machine):
    machine.load(hello_image())
    machine.run()
    assert machine.seconds == pytest.approx(
        machine.clock / machine.costs.frequency_hz
    )


def test_custom_quantum():
    m = Machine(quantum=8)
    p1 = m.load(_spin_image(100))
    p2 = m.load(_spin_image(100))
    m.run()
    assert not p1.alive and not p2.alive


def test_clock_identical_regardless_of_quantum():
    def total(quantum):
        m = Machine(quantum=quantum)
        m.load(_spin_image(200))
        m.run()
        return m.clock

    assert total(4) == total(64) == total(256)


def test_live_tasks_snapshot_changes_only_on_create_and_terminate(machine):
    proc = machine.load(_spin_image(10_000))
    kernel = machine.kernel
    snap = kernel.live_tasks()
    assert snap == (proc.task,)
    machine.run(max_instructions=200)
    assert kernel.live_tasks() is snap  # a running round rebuilds nothing
    child = kernel.new_task(proc.task.mem, comm="extra")
    grown = kernel.live_tasks()
    assert grown == (proc.task, child) and child not in snap
    assert kernel.live_tasks() is grown
    kernel.terminate_task(child)
    assert kernel.live_tasks() == (proc.task,)


def test_task_created_mid_round_waits_for_next_round():
    """A fork child is not offered a slice in the round its parent
    created it in: every slice belongs to a task of its round's
    snapshot."""
    from repro.kernel.scheduler import SchedulePolicy

    class Recorder(SchedulePolicy):
        def __init__(self):
            self.log = []

        def schedule_order(self, tasks):
            self.log.append(("round", tuple(t.tid for t in tasks)))
            return tasks

        def record_slice(self, task, executed):
            self.log.append(("slice", task.tid))

    a = asm()
    a.label("_start")
    emit_syscall(a, "fork")
    a.mov_imm("rbx", 50)
    a.label("loop")
    a.dec("rbx")
    a.jnz("loop")
    emit_exit(a, 0)
    policy = Recorder()
    m = Machine(policy=policy)
    proc = m.load(finish(a))
    m.run()
    assert not proc.alive
    rounds = [tids for kind, tids in policy.log if kind == "round"]
    child = next(t for t in m.kernel.tasks if t != proc.task.tid)
    assert child not in rounds[0]
    current = None
    sliced = set()
    for kind, value in policy.log:
        if kind == "round":
            current = value
        else:
            assert value in current
            sliced.add(value)
    assert child in sliced
