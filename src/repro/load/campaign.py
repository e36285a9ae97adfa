"""Load campaigns: repetitions and client-count sweeps over a LoadSpec.

Same determinism contract as :mod:`repro.core.exec`: every load run
boots a fresh machine seeded from ``(base seed, spec identity, rep)``
and shares nothing with any other run, so a campaign is embarrassingly
parallel per run and the process-pool path produces byte-identical
store files to the serial path, whatever the worker count.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
from typing import Optional, Sequence

from ..core.exec import SafeProgress, exit_with_parent
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


def _run_load_chunk(tasks: list[LoadTask],
                    config: RunConfig) -> list[LoadRunResult]:
    """Worker body: execute one chunk of load tasks in a pool process."""
    return [execute_load_run(task.spec, task.rep, config)
            for task in tasks]


class LoadExecution:
    """What :func:`run_load_tasks` hands back to the CLI."""

    __slots__ = ("runs", "total", "executed_count", "cached_count")

    def __init__(self):
        self.runs: list[LoadRunResult] = []
        self.total = 0
        self.executed_count = 0
        self.cached_count = 0


def run_load_tasks(tasks: Sequence[LoadTask], config: RunConfig,
                   jobs: int = 1, store=None,
                   progress=None) -> LoadExecution:
    """Execute a load-task grid, checkpointing as runs complete.

    Results come back in task order regardless of ``jobs``; completed
    runs are checkpointed to ``store`` (when given) before the progress
    callback fires, and cached runs are served without re-execution.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
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

    def record(index: int, task: LoadTask, run: LoadRunResult) -> None:
        nonlocal done
        if store is not None:
            store.put(task.spec.fingerprint(config), task.spec.key(task.rep),
                      run)
        slots[index] = run
        execution.executed_count += 1
        done += 1
        safe_progress(done, execution.total, run)

    if jobs == 1 or len(pending) <= 1:
        for index, task in pending:
            record(index, task, execute_load_run(task.spec, task.rep, config))
    else:
        _run_pool(pending, config, jobs, record)

    execution.runs = [run for run in slots if run is not None]
    return execution


def _run_pool(pending, config: RunConfig, jobs: int, record) -> None:
    """Chunked process-pool dispatch, results in submission order."""
    context = None
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    chunk_size = max(1, len(pending) // (jobs * 4) + 1)
    chunks = [pending[start:start + chunk_size]
              for start in range(0, len(pending), chunk_size)]
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, mp_context=context,
            initializer=exit_with_parent,
            initargs=(os.getpid(),)) as pool:
        futures = [
            pool.submit(_run_load_chunk, [task for _, task in chunk], config)
            for chunk in chunks
        ]
        for chunk, future in zip(chunks, futures):
            for (index, task), run in zip(chunk, future.result()):
                record(index, task, run)
