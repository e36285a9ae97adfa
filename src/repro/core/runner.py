"""Execution of a single fault-injection run (the inner box of Fig. 1).

    Create fault param file → Prepare workload progs → Start server
    prog (fault is injected) → Wait for server to be up → Start client
    prog → Workload termination → Gather results

A fresh :class:`~repro.nt.machine.Machine` is booted per run; one fault
is armed against the workload's target role; the server is brought up
(directly or through middleware); the client runs to completion; the
workload is terminated gracefully (the DTS shutdown event) and then
reaped; and everything the data collector needs is gathered.

The lifecycle is three phase functions around a caller's client phase
and its collect: :func:`boot` before the client, :func:`terminate`
after it, :func:`release` once the result is gathered.
:func:`execute_run` runs one synthetic client; a load run
(:func:`repro.load.execute_load_run`) runs a client population.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..nt.machine import Machine
from ..sim import derive_seed
from ..trace import TraceLevel, Tracer
from .collector import RunResult, collect
from .faults import FaultSpec
from .workload import MiddlewareKind, WorkloadSpec

# Operational timeouts (virtual seconds), from the main config file in
# the real tool.
DEFAULT_SERVER_UP_TIMEOUT = 90.0
DEFAULT_CLIENT_TIMEOUT = 240.0
SHUTDOWN_GRACE = 3.0
_POLL_STEP = 0.5


class RunConfig:
    """Per-run operational parameters (the main configuration file)."""

    def __init__(self, base_seed: int = 2000,
                 server_up_timeout: float = DEFAULT_SERVER_UP_TIMEOUT,
                 client_timeout: float = DEFAULT_CLIENT_TIMEOUT,
                 watchd_version: int = 3,
                 cpu_mhz: int = 100,
                 scm_lock_enabled: bool = True,
                 trace_level="off"):
        self.base_seed = base_seed
        self.server_up_timeout = server_up_timeout
        self.client_timeout = client_timeout
        self.watchd_version = watchd_version
        self.cpu_mhz = cpu_mhz
        self.scm_lock_enabled = scm_lock_enabled
        # Deliberately excluded from the store's config fingerprint:
        # tracing observes a run without influencing it, so results
        # recorded at different trace levels stay interchangeable.
        self.trace_level = TraceLevel.parse(trace_level)

    def seed_for(self, workload: WorkloadSpec, middleware: MiddlewareKind,
                 fault: Optional[FaultSpec]) -> int:
        parts = [workload.name, middleware.value, self.watchd_version]
        if fault is not None:
            parts.extend(fault.key)
        return derive_seed(self.base_seed, *parts)


def arm_fault(machine: Machine, workload: WorkloadSpec, fault):
    """Attach the injector for ``fault`` to a machine (None: no fault)."""
    if fault is None:
        return None
    injector = fault.injector(workload)
    injector.install(machine)
    return injector


class BootedRun:
    """A run between :func:`boot` and :func:`release`."""

    __slots__ = ("machine", "injector", "middleware_program",
                 "server_came_up")

    def __init__(self, machine: Machine, injector, middleware_program,
                 server_came_up: bool):
        self.machine = machine
        self.injector = injector
        self.middleware_program = middleware_program
        self.server_came_up = server_came_up


def boot(workload: WorkloadSpec, middleware: MiddlewareKind, fault,
         seed: int, config: RunConfig) -> BootedRun:
    """Fig. 1 up to "wait for server to be up": a fresh machine, the
    trace header, the workload prepared, the fault armed, the server
    started (directly or under middleware) and polled until it
    listens or ``config.server_up_timeout`` passes."""
    level = TraceLevel.parse(config.trace_level)
    tracer = Tracer(level) if level is not TraceLevel.OFF else None
    machine = Machine(seed=seed, cpu_mhz=config.cpu_mhz,
                      scm_lock_enabled=config.scm_lock_enabled,
                      tracer=tracer)
    if tracer is not None:
        tracer.emit(0.0, "run", "start", workload=workload.name,
                    middleware=middleware.value, seed=machine.seed,
                    watchd_version=config.watchd_version)
        if fault is not None:
            tracer.emit(0.0, "fault", "armed", **fault.armed_fields())
    workload.setup(machine)

    injector = arm_fault(machine, workload, fault)

    middleware_program = workload.deploy_middleware(
        machine, middleware, watchd_version=config.watchd_version)

    deadline = config.server_up_timeout
    listening = machine.transport.is_listening
    while machine.now < deadline and not listening(workload.port):
        machine.run(until=min(machine.now + _POLL_STEP, deadline))
    server_came_up = listening(workload.port)
    if tracer is not None:
        tracer.emit(machine.now, "run", "server-up", came_up=server_came_up)
    return BootedRun(machine, injector, middleware_program, server_came_up)


def terminate(run: BootedRun, cut_off: Sequence = ()) -> None:
    """Fig. 1's "workload termination", before the caller gathers its
    result: stop the middleware, cut off the caller's clients still
    running (``cut_off``), signal the DTS shutdown event."""
    machine = run.machine
    # The middleware stops first, so it does not take the shutdown for
    # a failure; clients still running at the caller's horizon are cut
    # off, not leakers.
    for role in ("mscs", "watchd"):
        for process in machine.processes.processes_with_role(role):
            if process.alive:
                process.terminate(exit_code=0)
    for process in cut_off:
        if process.alive:
            process.terminate(exit_code=1)
    _graceful_shutdown(machine)
    # A sustained-fault window still open is closed here, so its
    # activation trace event always has a deactivation pair.
    if run.injector is not None:
        run.injector.finalize()


def release(run: BootedRun, result):
    """After the caller gathered ``result``: attach the trace, assert
    connection hygiene and free the machine."""
    tracer = run.machine.tracer
    if tracer is not None:
        result.trace = tuple(tracer.events)
        result.trace_level = tracer.level
    # A client that finished on its own while leaving connections open
    # is a harness bug (the HttpClient retry-path leak), not an
    # injection outcome — fail the run loudly.
    run.machine.check_connection_hygiene()
    run.machine.shutdown()
    return result


def execute_run(workload: WorkloadSpec, middleware: MiddlewareKind,
                fault: Optional[FaultSpec],
                config: Optional[RunConfig] = None) -> RunResult:
    """Run one fault injection (or a fault-free profiling run when
    ``fault`` is None) and return the collected result."""
    config = config or RunConfig()
    run = boot(workload, middleware, fault,
               config.seed_for(workload, middleware, fault), config)
    machine = run.machine
    tracer = machine.tracer

    # --- Run the client -------------------------------------------------
    client = workload.make_client()
    if tracer is not None:
        tracer.emit(machine.now, "run", "client-start")
    client_process = machine.processes.spawn(client, role="dts-client")
    client_deadline = machine.now + config.client_timeout
    while client_process.alive and machine.now < client_deadline:
        machine.run(until=min(machine.now + 2.0, client_deadline))
    if tracer is not None:
        tracer.emit(machine.now, "run", "client-end",
                    completed=not client_process.alive)

    terminate(run)
    result = collect(
        machine=machine,
        workload=workload,
        middleware=middleware,
        fault=fault,
        injector=run.injector,
        client=client,
        middleware_program=run.middleware_program,
        server_came_up=run.server_came_up,
        watchd_version=config.watchd_version,
    )
    if tracer is not None:
        tracer.emit(machine.now, "run", "end",
                    outcome=result.outcome.value,
                    failure_mode=result.failure_mode.value,
                    restarts=result.restarts_detected,
                    activated=result.activated)
    return release(run, result)


def _graceful_shutdown(machine: Machine) -> None:
    """Signal the DTS shutdown event so well-behaved servers exit their
    normal path (this is also what completes the Table 1 call profile
    of the Apache master)."""
    from ..servers.apache import SHUTDOWN_EVENT

    event = machine.named_objects.get(SHUTDOWN_EVENT)
    if event is not None and hasattr(event, "set"):
        event.set()
        machine.run(until=machine.now + SHUTDOWN_GRACE)
