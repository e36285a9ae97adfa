"""Load campaigns: repetitions and client-count sweeps over a LoadSpec.

Same determinism contract as :mod:`repro.core.exec`: every load run
boots a fresh machine seeded from ``(base seed, spec identity, rep)``
and shares nothing with any other run, so a campaign is embarrassingly
parallel per run and the process-pool path produces byte-identical
store files to the serial path, whatever the worker count.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.exec import ExecutionBackend, SafeProgress, SerialBackend
from ..core.runner import RunConfig
from .result import LoadRunResult
from .runner import execute_load_run
from .spec import LoadSpec


class LoadTask:
    """One (spec, rep) cell of a load campaign."""

    __slots__ = ("spec", "rep")

    def __init__(self, spec: LoadSpec, rep: int):
        self.spec = spec
        self.rep = rep

    def __repr__(self) -> str:
        return f"<LoadTask {self.spec!r} rep={self.rep}>"


def plan_load_tasks(spec: LoadSpec, reps: int = 1,
                    sweep: Optional[Sequence[int]] = None) -> list[LoadTask]:
    """The task grid: every swept client count times every repetition.

    With no sweep the grid is just ``reps`` repetitions of the spec
    itself.  Sweep counts are run in the order given (canonical order
    for the store and the progress display).
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    specs = ([spec.replace(clients=count) for count in sweep]
             if sweep else [spec])
    return [LoadTask(variant, rep)
            for variant in specs for rep in range(reps)]


def _run_load_chunk(chunk: list[tuple[int, LoadTask]],
                    config: RunConfig) -> list[LoadRunResult]:
    """Worker body: execute one chunk of ``(slot, task)`` pairs."""
    return [execute_load_run(task.spec, task.rep, config)
            for _, task in chunk]


class LoadExecution:
    """What :func:`run_load_tasks` hands back to the CLI."""

    __slots__ = ("runs", "total", "executed_count", "cached_count")

    def __init__(self):
        self.runs: list[LoadRunResult] = []
        self.total = 0
        self.executed_count = 0
        self.cached_count = 0


def run_load_tasks(tasks: Sequence[LoadTask], config: RunConfig,
                   backend: Optional[ExecutionBackend] = None, store=None,
                   progress=None) -> LoadExecution:
    """Execute a load-task grid, checkpointing as runs complete.

    Results come back in task order whatever the ``backend`` (default
    serial); completed runs are checkpointed to ``store`` (when given)
    before the progress callback fires, and cached runs are served
    without re-execution.
    """
    backend = backend or SerialBackend()
    execution = LoadExecution()
    execution.total = len(tasks)
    safe_progress = SafeProgress(progress)
    done = 0

    # --- Serve cached runs, keeping slots for the rest ------------------
    slots: list[Optional[LoadRunResult]] = [None] * len(tasks)
    pending: list[tuple[int, LoadTask]] = []
    for index, task in enumerate(tasks):
        cached = (store.get(task.spec.fingerprint(config), task.spec.key(task.rep))
                  if store is not None else None)
        if cached is not None:
            slots[index] = cached
            execution.cached_count += 1
            done += 1
            safe_progress(done, execution.total, cached)
        else:
            pending.append((index, task))

    def record(item: tuple[int, LoadTask], run: LoadRunResult) -> None:
        nonlocal done
        index, task = item
        if store is not None:
            store.put(task.spec.fingerprint(config), task.spec.key(task.rep),
                      run)
        slots[index] = run
        execution.executed_count += 1
        done += 1
        safe_progress(done, execution.total, run)

    backend.map_chunks(_run_load_chunk, pending, config, on_result=record)
    execution.runs = [run for run in slots if run is not None]
    return execution

