"""Serial vs. process-pool load campaigns as a differential oracle.

Mirrors ``tests/trace/test_differential.py``: the pool path must
checkpoint a *byte-identical* store file to the serial path, whatever
the worker count, because every run boots a fresh machine seeded only
from ``(base seed, spec identity, rep)``.  Worker counts come from the
``REPRO_LOAD_JOBS`` environment variable (default ``1,4``) so CI can
run each width as its own job.
"""

import os

import pytest

from repro.core.exec import ProcessPoolBackend
from repro.core.runner import RunConfig
from repro.core.store import RunStore
from repro.load.campaign import plan_load_tasks, run_load_tasks
from repro.load.spec import LoadSpec

SPEC = LoadSpec(workload="Apache1", clients=4, iterations=1)
SWEEP = [2, 4]
REPS = 2


def _jobs_under_test() -> list[int]:
    raw = os.environ.get("REPRO_LOAD_JOBS", "1,4")
    return [int(part) for part in raw.split(",") if part.strip()]


def _run_to_store(path, jobs: int) -> bytes:
    config = RunConfig(base_seed=2000)
    tasks = plan_load_tasks(SPEC, reps=REPS, sweep=SWEEP)
    backend = ProcessPoolBackend(jobs) if jobs > 1 else None
    store = RunStore(path)
    try:
        execution = run_load_tasks(tasks, config, backend=backend,
                                   store=store)
    finally:
        store.close()
        if backend is not None:
            backend.close()
    assert len(execution.runs) == len(SWEEP) * REPS
    return path.read_bytes()


@pytest.fixture(scope="module")
def serial_store_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("load-serial") / "runs.jsonl"
    return _run_to_store(path, jobs=1)


@pytest.mark.parametrize("jobs", _jobs_under_test())
def test_pool_store_is_byte_identical_to_serial(tmp_path, jobs,
                                                serial_store_bytes):
    path = tmp_path / f"runs-{jobs}.jsonl"
    assert _run_to_store(path, jobs=jobs) == serial_store_bytes


def test_resume_serves_cached_runs_without_execution(tmp_path):
    config = RunConfig(base_seed=2000)
    tasks = plan_load_tasks(SPEC, reps=1)
    path = tmp_path / "runs.jsonl"

    store = RunStore(path)
    try:
        first = run_load_tasks(tasks, config, store=store)
    finally:
        store.close()
    assert first.executed_count == 1 and first.cached_count == 0

    store = RunStore(path)
    try:
        second = run_load_tasks(tasks, config, store=store)
    finally:
        store.close()
    assert second.executed_count == 0 and second.cached_count == 1
    assert len(second.runs) == 1


def test_pool_chunk_failure_keeps_finished_runs(tmp_path):
    """A failing pool chunk must not drop the load runs that finished in
    other chunks: they reach the store before the error propagates, so
    a resume re-executes only the failing cell."""
    from repro.core.faults import FaultSpec, FaultType
    from repro.load.campaign import LoadTask

    config = RunConfig(base_seed=2000)
    poison = SPEC.replace(fault=FaultSpec("NoSuchExport", 0,
                                          FaultType.ZERO, 1))
    tasks = [LoadTask(poison, 0)] + [LoadTask(SPEC, rep) for rep in range(3)]
    path = tmp_path / "runs.jsonl"
    with ProcessPoolBackend(jobs=2) as backend:
        with RunStore(path) as store:
            with pytest.raises(ValueError, match="NoSuchExport"):
                run_load_tasks(tasks, config, backend=backend, store=store)
        with RunStore(path) as store:
            assert len(store) == 3

        # The pool survives the failure and keeps dispatching.
        again = run_load_tasks(tasks[1:2], config, backend=backend)
        assert again.executed_count == 1 and len(again.runs) == 1
