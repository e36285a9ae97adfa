"""Single load runs: determinism, arrival models, hygiene."""

import json

import pytest

from repro.core.faults import FaultWindow, IoFault, ResourceFault
from repro.core.runner import RunConfig
from repro.load.result import load_result_to_dict
from repro.load.runner import execute_load_run, resolve_workload
from repro.load.spec import ArrivalMode, LoadSpec
from repro.trace import trace_to_jsonl


def small_spec(**overrides):
    params = dict(workload="Apache1", clients=3, iterations=1)
    params.update(overrides)
    return LoadSpec(**params)


class TestDeterminism:
    def test_same_spec_same_rep_is_bit_identical(self):
        spec = small_spec()
        config = RunConfig(base_seed=2000)
        first = execute_load_run(spec, 0, config)
        second = execute_load_run(spec, 0, config)
        assert json.dumps(load_result_to_dict(first), sort_keys=True) == \
            json.dumps(load_result_to_dict(second), sort_keys=True)

    def test_reps_are_independent_runs(self):
        spec = small_spec()
        config = RunConfig(base_seed=2000)
        rep0 = execute_load_run(spec, 0, config)
        rep1 = execute_load_run(spec, 1, config)
        # Different seeds, same healthy-run shape.
        assert rep0.completed_clients == rep1.completed_clients == 3
        assert spec.seed(2000, 2, 0) != spec.seed(2000, 2, 1)


class TestHealthyRun:
    def test_all_clients_complete_and_succeed(self):
        result = execute_load_run(small_spec(), 0, RunConfig())
        assert result.server_came_up
        assert result.completed_clients == 3
        assert result.success_fraction == 1.0
        # Two requests (static + CGI) per cycle per client.
        assert result.request_count == 6
        assert result.engine_events > 0

    def test_latencies_are_recorded(self):
        result = execute_load_run(small_spec(), 0, RunConfig())
        latencies = result.all_latencies()
        assert len(latencies) == result.request_count
        assert all(latency >= 0.0 for latency in latencies)
        assert result.mean_latency() == pytest.approx(
            sum(latencies) / len(latencies))


class TestClosedLoop:
    def test_each_client_runs_its_iterations(self):
        result = execute_load_run(small_spec(iterations=2), 0, RunConfig())
        for client in result.clients:
            assert len(client.cycles) == 2
        assert result.request_count == 3 * 2 * 2

    def test_staggered_arrival_times(self):
        spec = small_spec(clients=4, stagger=0.5)
        assert [spec.arrival_time(i) for i in range(4)] == \
            [0.0, 0.5, 1.0, 1.5]
        assert spec.cycles_for(0) == spec.iterations


class TestOpenLoop:
    def test_arrivals_follow_the_rate(self):
        spec = small_spec(clients=4, mode="open", arrival_rate=2.0)
        assert spec.mode is ArrivalMode.OPEN
        assert [spec.arrival_time(i) for i in range(4)] == \
            [0.0, 0.5, 1.0, 1.5]

    def test_open_loop_clients_issue_one_cycle_each(self):
        spec = small_spec(clients=3, mode="open", iterations=5,
                          arrival_rate=4.0)
        assert all(spec.cycles_for(i) == 1 for i in range(3))
        result = execute_load_run(spec, 0, RunConfig())
        for client in result.clients:
            assert len(client.cycles) == 1

    def test_observed_arrivals_are_spaced_by_the_rate(self):
        spec = small_spec(clients=3, mode="open", arrival_rate=2.0)
        result = execute_load_run(spec, 0, RunConfig())
        arrivals = sorted(client.arrived_at for client in result.clients)
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert gaps == pytest.approx([0.5, 0.5])


class TestSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LoadSpec(workload="Apache1", clients=0)
        with pytest.raises(ValueError):
            LoadSpec(workload="Apache1", iterations=0)
        with pytest.raises(ValueError):
            LoadSpec(workload="Apache1", think_time=-1.0)
        with pytest.raises(ValueError):
            LoadSpec(workload="Apache1", arrival_rate=0.0)

    def test_unknown_workload_names_the_known_ones(self):
        with pytest.raises(KeyError, match="Apache1"):
            resolve_workload("nosuchthing")


def test_load_run_trace_levels_nest():
    # The calls-level stream of a load run is the full-level stream
    # minus the engine/proc categories.
    spec = LoadSpec(workload="Apache1", clients=5, iterations=1)
    full = execute_load_run(
        spec, config=RunConfig(base_seed=2000, trace_level="full"))
    calls = execute_load_run(
        spec, config=RunConfig(base_seed=2000, trace_level="calls"))
    filtered = [event for event in full.trace
                if event.category not in ("engine", "proc")]
    assert [(e.time, e.category, e.name, e.data) for e in calls.trace] \
        == [(e.time, e.category, e.name, e.data) for e in filtered]
    for line in trace_to_jsonl(full.trace).splitlines():
        json.loads(line)  # every record is valid JSONL


@pytest.mark.parametrize("fault", [
    ResourceFault("memory", 0.5, FaultWindow("calls", 1, 10**6)),
    ResourceFault("cpu", 4.0, FaultWindow("time", 0.0, 10**6)),
    IoFault("net.recv", "error", "ECONNRESET", FaultWindow("time", 5.0, 10**6)),
], ids=["resource-calls", "resource-time", "io"])
def test_traced_load_run_pairs_every_window_event(fault):
    # A window still open when the clients are done is closed at
    # teardown, exactly as in an injection run, and the trace opens
    # with the fault.armed header.
    spec = small_spec(fault=fault)
    result = execute_load_run(
        spec, config=RunConfig(base_seed=2000, trace_level="outcome"))
    kinds = [event.kind for event in result.trace]
    assert kinds.count("fault.activated") >= 1
    assert kinds.count("fault.deactivated") == \
        kinds.count("fault.activated")
    [armed] = [event for event in result.trace
               if event.kind == "fault.armed"]
    assert armed.data == fault.armed_fields()
