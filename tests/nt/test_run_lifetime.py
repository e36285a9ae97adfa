"""How long a run's objects live: dispatch state and teardown.

Library-call handlers (kernel32 and libc) are compiled once per
signature and bound to each process's context, and
``Machine.shutdown`` breaks every reference cycle of the finished
machine, so a run is freed by reference counting as soon as its caller
drops it, without help from the cyclic collector.
"""

import gc

from repro.core.runner import execute_run
from repro.core.workload import MiddlewareKind, get_workload
from repro.load.runner import execute_load_run
from repro.load.spec import LoadSpec
from repro.nt import Machine
from repro.nt.eventlog import EventType


class Sleeper:
    image_name = "sleeper.exe"

    def main(self, ctx):
        yield from ctx.k32.Sleep(1000)
        yield from ctx.k32.Sleep(0xFFFFFFF0)


def _unreachable_after(run) -> int:
    """Objects the cyclic collector finds once ``run()``'s result is
    dropped (collection paused meanwhile, so nothing is freed early)."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def test_handlers_are_compiled_once_per_signature():
    machine = Machine(seed=1)
    first = machine.processes.spawn(Sleeper(), role="a")
    second = machine.processes.spawn(Sleeper(), role="b")
    machine.run(until=5.0)
    one, two = first.context.k32.Sleep, second.context.k32.Sleep
    assert one.__func__ is two.__func__
    assert one.__self__ is first.context
    assert two.__self__ is second.context
    assert one.__qualname__ == "k32.Sleep"


def test_dispatch_state_binds_on_first_resolution(machine):
    process = machine.processes.spawn(Sleeper(), role="sleeper",
                                      suspended=True)
    machine.processes.resume(process)
    interception = machine.interception
    assert interception.roles_seen() == set()
    process.context.k32.GetTickCount  # resolved, never called
    assert interception.roles_seen() == {"sleeper"}
    assert interception.invocation_count(process.pid, "GetTickCount") == 0
    assert interception._invocations == {process.pid: {}}


def test_state_stays_readable_after_shutdown(machine):
    processes = [machine.processes.spawn(Sleeper(), role="sleeper")
                 for _ in range(3)]
    machine.run(until=5.0)
    machine.eventlog.write(machine.now, "Test", EventType.WARNING, 1, "x")
    machine.shutdown()
    assert [p.alive for p in processes] == [False] * 3
    assert [p.exit_code for p in processes] == [1] * 3
    assert machine.interception.call_count("Sleep") == 6
    assert machine.interception.called_functions("sleeper") == {"Sleep"}
    assert machine.transport.client_leaks == []
    assert [r.source for r in machine.eventlog.query()] == ["Test"]


def test_shut_down_machine_needs_no_cyclic_collection():
    def run():
        machine = Machine(seed=1)
        for role in ("a", "b"):
            machine.processes.spawn(Sleeper(), role=role)
        machine.run(until=5.0)
        machine.shutdown()

    assert _unreachable_after(run) == 0


def test_iis_run_teardown_budget():
    workload = get_workload("IIS")
    assert _unreachable_after(
        lambda: execute_run(workload, MiddlewareKind.NONE, None)) <= 100


def test_load_run_teardown_budget():
    spec = LoadSpec("Apache1", clients=100, iterations=2)
    assert _unreachable_after(lambda: execute_load_run(spec)) <= 1000


def test_linux_run_teardown_budget():
    # libc handlers are memoised on the context's proxy like kernel32's,
    # so the same release must break the same cycles.
    from repro.posix import APACHE1_LINUX

    assert _unreachable_after(lambda: execute_run(
        APACHE1_LINUX, MiddlewareKind.WATCHD, None)) == 0
