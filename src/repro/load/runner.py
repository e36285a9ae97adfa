"""Execution of a single multi-client load run.

A load run is the injection run's lifecycle (the phase functions of
:mod:`repro.core.runner`) with a whole client population in place of
the one synthetic client: clients arrive staggered and drain (or hit
the horizon), and clients still running at the horizon are cut off when
the workload is terminated.
"""

from __future__ import annotations

from typing import Optional

# Machine, arm_fault and _graceful_shutdown stay importable here, as
# perfbench patches them by module; the shared phases read the
# repro.core.runner globals.
from ..core.runner import (  # noqa: F401
    Machine,
    RunConfig,
    _graceful_shutdown,
    arm_fault,
    boot,
    release,
    terminate,
)
# Load specs carry the workload by registry name so they can cross
# process-pool boundaries.
from ..core.workload import get_workload as resolve_workload
from .client import LoadClient
from .result import ClientStats, LoadRunResult
from .spec import LoadSpec

# Virtual seconds per engine burst while the client population drains.
# Coarser than execute_run's 2.0s: with 100 clients in flight the
# alive-scan between bursts is the overhead worth amortizing.
_DRAIN_STEP = 5.0


def execute_load_run(spec: LoadSpec, rep: int = 0,
                     config: Optional[RunConfig] = None) -> LoadRunResult:
    """Run one repetition of a load spec and return the result."""
    config = config or RunConfig()
    workload = resolve_workload(spec.workload)
    run = boot(workload, spec.middleware, spec.fault,
               spec.seed(config.base_seed, config.watchd_version, rep),
               config)
    machine = run.machine

    # --- Release the client population ---------------------------------
    # All clients are spawned up front with their arrival offset baked
    # into the program (a Sleep), so arrivals cost no engine polling.
    load_clients = [
        LoadClient(client_id=index,
                   factory=workload.make_client,
                   cycles=spec.cycles_for(index),
                   think_time=spec.think_time,
                   start_delay=spec.arrival_time(index))
        for index in range(spec.clients)
    ]
    processes = [machine.processes.spawn(client, role="load-client")
                 for client in load_clients]

    horizon = machine.now + spec.run_horizon(config.client_timeout)
    while machine.now < horizon and \
            any(process.alive for process in processes):
        machine.run(until=min(machine.now + _DRAIN_STEP, horizon))

    terminate(run, cut_off=processes)
    injector = run.injector
    clients = [
        ClientStats(client_id=client.client_id,
                    arrived_at=client.arrived_at,
                    finished_at=client.finished_at,
                    completed=client.completed,
                    cycles=list(client.records))
        for client in load_clients
    ]
    return release(run, LoadRunResult(
        spec=spec, rep=rep, watchd_version=config.watchd_version,
        server_came_up=run.server_came_up, duration=machine.now,
        engine_events=machine.engine.events_processed, clients=clients,
        fault_activated=injector.fired if injector is not None else False,
        fault_noop=injector.was_noop if injector is not None else False))
