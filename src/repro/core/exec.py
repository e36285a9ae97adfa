"""Pluggable execution backends and the wave scheduler.

A backend maps a chunk worker over a batch of items (campaign
:class:`~repro.core.plan.RunTask`\\ s, load-campaign cells); the
scheduler (:func:`run_plan`) walks a :class:`CampaignPlan` wave by
wave, consults the optional :class:`~repro.core.store.RunStore` for
already-checkpointed runs, applies the activation gates, and hands
every completed run back in canonical fault-list order.

**Determinism contract.**  Each run boots a fresh simulated machine
seeded from ``(base seed, workload, middleware, fault key)`` and shares
no state with any other run, so campaigns are embarrassingly parallel
per run: :class:`ProcessPoolBackend` results are bit-identical to
:class:`SerialBackend` results, whatever the worker count or completion
order.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Optional, Sequence

from .collector import RunResult, infer_result
from .plan import CampaignPlan, RunTask, TaskKind
from .runner import RunConfig, execute_run
from .workload import MiddlewareKind, WorkloadSpec, get_workload

OnResult = Callable[[Any, Any], None]


# How often a pool worker checks that its parent is still alive.
_PARENT_POLL_S = 0.25


def exit_with_parent(parent_pid: int) -> None:
    """Pool-worker initializer: exit as soon as the parent is gone.

    A worker idling on its call queue never learns that a SIGKILLed
    parent (a ``repro serve`` daemon, a ``repro run --jobs`` campaign)
    died; it would wait forever, reparented to init.  A daemon thread
    polls the parent pid instead and ends the worker once it changes.
    """
    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent",
                     daemon=True).start()


class ExecutionBackend:
    """Executes batches of items; results align with the batch."""

    def map_chunks(self, worker: Callable[..., list], items: Sequence,
                   *args, on_result: Optional[OnResult] = None) -> list:
        """Run ``worker(chunk, *args)`` over ``items`` cut into chunks.

        The worker returns a list aligned with its chunk.  ``on_result``
        (when given) is called with ``(item, result)`` once per item, in
        item order, and the results come back in item order.
        """
        raise NotImplementedError

    def run_tasks(self, tasks: Sequence[RunTask], workload: WorkloadSpec,
                  middleware: MiddlewareKind, config: RunConfig,
                  on_result: Optional[OnResult] = None) -> list[RunResult]:
        """Execute one batch of campaign run tasks."""
        return self.map_chunks(_run_chunk, tasks, workload, middleware,
                               config, on_result=on_result)

    def close(self) -> None:
        """Release worker resources (no-op for in-process backends)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process, one item at a time — the reference implementation.

    Each result reaches ``on_result`` before the next item starts."""

    def map_chunks(self, worker, items, *args, on_result=None) -> list:
        results = []
        for item in items:
            [result] = worker([item], *args)
            if on_result is not None:
                on_result(item, result)
            results.append(result)
        return results

    def __repr__(self) -> str:
        return "<SerialBackend>"


def _run_chunk(tasks: list[RunTask], workload: WorkloadSpec | str,
               middleware: MiddlewareKind,
               config: RunConfig) -> list[RunResult]:
    """Worker body: execute one chunk of run tasks.  A pool process
    gets the workload by name and resolves it from the registry."""
    if isinstance(workload, str):
        workload = get_workload(workload)
    return [execute_run(workload, middleware, task.fault, config)
            for task in tasks]


class ProcessPoolBackend(ExecutionBackend):
    """Dispatches chunks across a ``concurrent.futures`` process pool.

    Items are submitted in chunks (one IPC round-trip per chunk, not
    per item) and results are collected in submission order, so the
    caller sees the same sequence a serial backend would produce.

    Workloads cross the process boundary *by name*: workers resolve
    them from the registry, which the fork start method copies from the
    parent — plugin workloads registered before the first dispatch are
    therefore fully supported on POSIX platforms.
    """

    def __init__(self, jobs: Optional[int] = None,
                 chunk_size: Optional[int] = None):
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.chunk_size = chunk_size
        self._pool = None

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context,
                initializer=exit_with_parent, initargs=(os.getpid(),))
        return self._pool

    def _chunks(self, items: Sequence) -> list[list]:
        size = self.chunk_size
        if size is None:
            # Aim for a few chunks per worker so stragglers rebalance.
            size = max(1, len(items) // (self.jobs * 4) + 1)
        return [list(items[start:start + size])
                for start in range(0, len(items), size)]

    def run_tasks(self, tasks, workload, middleware, config,
                  on_result=None) -> list[RunResult]:
        return super().run_tasks(tasks, workload.name, middleware, config,
                                 on_result=on_result)

    def map_chunks(self, worker, items, *args, on_result=None) -> list:
        if not items:
            return []
        pool = self._ensure_pool()
        chunks = self._chunks(items)
        futures = [pool.submit(worker, chunk, *args) for chunk in chunks]
        results: list = []

        def record(chunk, chunk_results) -> None:
            for item, result in zip(chunk, chunk_results):
                if on_result is not None:
                    on_result(item, result)
                results.append(result)

        for index, future in enumerate(futures):
            try:
                record(chunks[index], future.result())
            except BaseException:
                self._drain_after_failure(chunks, futures, index, record)
                raise
        return results

    @staticmethod
    def _drain_after_failure(chunks, futures, failed, record) -> None:
        """A chunk raised: don't orphan the rest of the wave.

        Chunks still queued are cancelled; chunks already running are
        waited out and their completed results handed to ``on_result``,
        so every run that finished reaches the store before the
        exception propagates and a resume re-executes only what truly
        never ran.
        """
        remaining = futures[failed + 1:]
        for future in remaining:
            future.cancel()
        concurrent.futures.wait(remaining)
        for chunk, future in zip(chunks[failed + 1:], remaining):
            if future.cancelled():
                continue
            try:
                chunk_results = future.result()
            except BaseException:
                continue  # another failing chunk; the first wins
            try:
                record(chunk, chunk_results)
            except BaseException:
                continue  # recording itself is failing; keep draining

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __repr__(self) -> str:
        return f"<ProcessPoolBackend jobs={self.jobs}>"


# ----------------------------------------------------------------------
# Progress guarding
# ----------------------------------------------------------------------
class SafeProgress:
    """Shields the campaign from exceptions in user progress code.

    The first exception disables further reporting; the campaign grid
    itself is never aborted by a broken progress bar.
    """

    def __init__(self, callback):
        self._callback = callback
        self.broken = callback is None

    def __call__(self, done: int, total: int,
                 run: Optional[RunResult]) -> None:
        if self.broken:
            return
        try:
            self._callback(done, total, run)
        except Exception:
            self.broken = True


# ----------------------------------------------------------------------
# Serve from the store, or run and checkpoint
# ----------------------------------------------------------------------
def serve_or_run(items: Sequence, store,
                 locate: Callable[[Any], tuple[str, Any]],
                 execute: Callable[[list, OnResult], Any], execution,
                 keep: OnResult) -> None:
    """Serve each item's run from ``store`` or execute it; hand it to
    ``keep(item, run)``.  Campaign waves and load grids share this loop.

    ``locate(item)`` is the item's ``(fingerprint, key)``.  Stored runs
    are served first, in item order; the rest go to one
    ``execute(pending, record)`` backend call, and each run it completes
    is checkpointed before ``keep`` sees it, so an interrupt never loses
    a finished run.  ``execution`` counts both kinds.
    """
    pending = []
    for item in items:
        cached = store.get(*locate(item)) if store is not None else None
        if cached is None:
            pending.append(item)
        else:
            execution.cached_count += 1
            keep(item, cached)

    def record(item, run) -> None:
        if store is not None:
            store.put(*locate(item), run)
        execution.executed_count += 1
        keep(item, run)

    execute(pending, record)


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
class PlanExecution:
    """What :func:`run_plan` hands back to the campaign facade."""

    __slots__ = ("profile_run", "runs", "skipped_functions",
                 "total", "executed_count", "cached_count",
                 "inferred_count")

    def __init__(self):
        self.profile_run: Optional[RunResult] = None
        self.runs: list[RunResult] = []
        self.skipped_functions: set[str] = set()
        self.total = 0
        self.executed_count = 0
        self.cached_count = 0
        self.inferred_count = 0


def run_plan(plan: CampaignPlan, workload: WorkloadSpec,
             middleware: MiddlewareKind, config: RunConfig,
             fingerprint: str,
             backend: Optional[ExecutionBackend] = None,
             store=None, progress=None,
             on_stage=None) -> PlanExecution:
    """Execute a campaign plan wave by wave.

    Completed runs are checkpointed to ``store`` (when given) under
    ``fingerprint`` before the progress callback fires, so an interrupt
    never loses a finished run; runs already present in the store are
    served from it and not re-executed.

    ``on_stage`` (when given) is called with ``"profiling"``,
    ``"probing"`` and ``"releasing"`` as the corresponding wave starts
    — the serve daemon's job state machine rides on it.
    """
    backend = backend or SerialBackend()
    execution = PlanExecution()
    safe_progress = SafeProgress(progress)
    results: dict[str, RunResult] = {}
    state = {"done": 0}

    def dispatch(tasks: Sequence[RunTask], count: bool) -> None:
        def keep(task: RunTask, run: RunResult) -> None:
            results[task.task_id] = run
            if count:
                state["done"] += 1
                safe_progress(state["done"], execution.total, run)

        serve_or_run(
            tasks, store, lambda task: (fingerprint, task.fault),
            lambda pending, record: backend.run_tasks(
                pending, workload, middleware, config, on_result=record),
            execution, keep)

    # --- Wave 0: the fault-free profiling run --------------------------
    eligible = list(plan.functions)
    if plan.profile_task is not None:
        if on_stage is not None:
            on_stage("profiling")
        dispatch([plan.profile_task], count=False)
        execution.profile_run = results[plan.profile_task.task_id]
        called = set(execution.profile_run.called_functions)

        def gated(name: str) -> bool:
            # A fault may name the export whose presence in the profile
            # run's called set gates its probe (``profile_gate``); None
            # means always probe — transport ops and resource pressure
            # have no kernel32 footprint to gate on.  Parameter faults
            # gate on their own function name, as before.
            gate = getattr(plan.probes[name].fault, "profile_gate", name)
            return gate is None or gate in called

        eligible = [name for name in plan.functions if gated(name)]
        execution.skipped_functions = set(plan.functions) - set(eligible)

    execution.total = sum(1 + len(plan.releases[name])
                          for name in eligible)

    # --- Wave 1: probes (one fault per function) -----------------------
    if on_stage is not None:
        on_stage("probing")
    dispatch([plan.probes[name] for name in eligible], count=True)

    # --- Activation gate: release the rest of each activated function --
    released = []
    for name in eligible:
        probe_run = results[plan.probes[name].task_id]
        if probe_run.activated:
            released.extend(plan.releases[name])
        else:
            # The paper's shortcut: the function is not called, so its
            # remaining faults would not activate either.
            execution.skipped_functions.add(name)
            state["done"] += len(plan.releases[name])

    # --- Wave 2: released faults ---------------------------------------
    if on_stage is not None:
        on_stage("releasing")
    dispatch(released, count=True)

    # --- Expansion: pruned faults inherit their representative's run --
    # Never checkpointed: on resume the representative is served from
    # the store and the expansion is recomputed, so a store only ever
    # holds executed evidence.
    for name in eligible:
        if name in execution.skipped_functions:
            # The paper's shortcut applies to the whole function: the
            # full campaign would have skipped these faults too.
            continue
        for task in plan.inferred.get(name, ()):
            representative = results.get(task.representative)
            if representative is None:
                continue
            results[task.task_id] = infer_result(representative,
                                                 task.fault)
            execution.inferred_count += 1

    execution.runs = [results[task.task_id] for task in plan.tasks
                      if task.task_id in results]
    return execution
