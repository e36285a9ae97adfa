"""Property suite for the fault-family table and its codecs.

The run store is append-only and shared across campaigns, so every
spec type must survive the JSON round trip bit-for-bit and map to a
unique, stable store key.  Hypothesis drives the whole constructible
space of every row of ``FAMILIES`` — not just the default fault lists —
because resumed campaigns may read back faults written by a future (or
past) enumeration.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.families import FAMILIES
from repro.core.faults import (
    IO_ERROR_CHOICES,
    NET_IO_OPS,
    RESOURCE_KINDS,
    SHORT_IO_OPS,
    FaultSpec,
    FaultType,
    FaultWindow,
    IoFault,
    ResourceFault,
)
from repro.core.return_injector import ReturnFaultSpec
from repro.core.runner import RunConfig, execute_run
from repro.core.store import (
    config_fingerprint,
    fault_from_dict,
    fault_key_str,
    fault_to_dict,
)
from repro.core.workload import MiddlewareKind, get_workload
from repro.nt.machine import Machine

# ----------------------------------------------------------------------
# Strategies over the constructible spec space
# ----------------------------------------------------------------------
# Floats travel through JSON and f"{x:g}" tokens; restrict to values
# with short decimal forms so equality is exact, as the enumerated
# fault lists do in practice.
_RATIO = st.integers(min_value=0, max_value=99).map(lambda n: n / 100)
_DELAY = st.integers(min_value=1, max_value=400).map(lambda n: n / 4)

windows = st.one_of(
    st.tuples(st.integers(min_value=1, max_value=10_000),
              st.integers(min_value=1, max_value=10_000))
    .filter(lambda span: span[0] < span[1])
    .map(lambda span: FaultWindow("calls", span[0], span[1])),
    st.tuples(st.integers(min_value=0, max_value=4_000),
              st.integers(min_value=1, max_value=4_000))
    .filter(lambda span: span[0] < span[0] + span[1])
    .map(lambda span: FaultWindow("time", span[0] / 4,
                                  (span[0] + span[1]) / 4)),
)


def _io_faults():
    error = st.sampled_from(
        [(op, value) for op, values in IO_ERROR_CHOICES.items()
         for value in values]
    ).flatmap(lambda pair: windows.map(
        lambda window: IoFault(pair[0], "error", pair[1], window)))
    short = st.tuples(st.sampled_from(SHORT_IO_OPS), _RATIO, windows).map(
        lambda t: IoFault(t[0], "short", t[1], t[2]))
    delay = st.tuples(st.sampled_from(NET_IO_OPS + SHORT_IO_OPS), _DELAY,
                      windows).map(
        lambda t: IoFault(t[0], "delay", t[1], t[2]))
    return st.one_of(error, short, delay)


def _resource_faults():
    severity = {
        "memory": _RATIO.map(lambda r: r + 0.01),
        "handles": _RATIO.map(lambda r: r + 0.01),
        "cpu": st.integers(min_value=5, max_value=64).map(lambda n: n / 4),
    }
    return st.sampled_from(RESOURCE_KINDS).flatmap(
        lambda kind: st.tuples(severity[kind], windows).map(
            lambda t: ResourceFault(kind, t[0], t[1])))


io_faults = _io_faults()
resource_faults = _resource_faults()
param_faults = st.builds(
    FaultSpec,
    function=st.sampled_from(("CreateFileA", "ReadFile", "HeapAlloc")),
    param_index=st.integers(min_value=0, max_value=2),
    fault_type=st.sampled_from(list(FaultType)),
    invocation=st.integers(min_value=1, max_value=5),
)
return_faults = st.builds(
    ReturnFaultSpec,
    function=st.sampled_from(("GetACP", "ReadFile", "SetEvent")),
    fault_type=st.sampled_from(list(FaultType)),
    invocation=st.integers(min_value=1, max_value=5),
)
# One strategy per row of the family table.
FAMILY_FAULTS = {"parameter": param_faults, "return": return_faults,
                 "io": io_faults, "resource": resource_faults}
any_fault = st.one_of(*(FAMILY_FAULTS[mechanism] for mechanism in FAMILIES))


def _json_round_trip(fault):
    return fault_from_dict(json.loads(json.dumps(fault_to_dict(fault))))


# ----------------------------------------------------------------------
# Codec round trips
# ----------------------------------------------------------------------
@given(any_fault)
def test_json_round_trip_preserves_identity(fault):
    restored = _json_round_trip(fault)
    assert type(restored) is type(fault)
    assert restored == fault
    assert restored.key == fault.key


@given(io_faults)
def test_io_round_trip_preserves_every_field(fault):
    restored = _json_round_trip(fault)
    assert (restored.op, restored.mode, restored.value) \
        == (fault.op, fault.mode, fault.value)
    assert restored.window == fault.window


@given(resource_faults)
def test_resource_round_trip_preserves_every_field(fault):
    restored = _json_round_trip(fault)
    assert (restored.resource, restored.severity) \
        == (fault.resource, fault.severity)
    assert restored.window == fault.window


def test_every_family_has_a_strategy():
    assert list(FAMILY_FAULTS) == list(FAMILIES)


@given(any_fault)
def test_spec_store_key_and_dict_agree_with_the_table(fault):
    family = FAMILIES[fault_to_dict(fault)["mechanism"]]
    assert family is fault.family
    assert type(fault) is family.spec
    assert fault_key_str(fault) == fault.store_key()
    assert fault.store_key().split(":", 1)[0] == family.name
    assert family.spec.from_dict(fault.to_dict()) == fault


def test_none_fault_round_trips():
    assert fault_to_dict(None) is None
    assert fault_from_dict(None) is None


# ----------------------------------------------------------------------
# Store keys
# ----------------------------------------------------------------------
@given(any_fault)
def test_store_key_is_stable_across_round_trip(fault):
    assert fault_key_str(_json_round_trip(fault)) == fault_key_str(fault)


@given(any_fault, any_fault)
def test_distinct_faults_have_distinct_store_keys(first, second):
    if first == second:
        assert fault_key_str(first) == fault_key_str(second)
    else:
        assert fault_key_str(first) != fault_key_str(second)


@given(windows)
def test_window_token_survives_the_key(window):
    # The window is part of fault identity: the same io fault over a
    # different window is a different store entry.
    fault = ResourceFault("memory", 1.0, window)
    assert window.to_token() in fault_key_str(fault)
    assert FaultWindow.from_token(window.to_token()) == window


def test_store_keys_are_human_auditable():
    fault = IoFault("ReadFile", "error", "EIO", FaultWindow("calls", 1, 100))
    assert fault_key_str(fault) == "io:ReadFile:error:EIO:calls@1-100"
    fault = ResourceFault("cpu", 8.0, FaultWindow("time", 5.0, 60.0))
    assert fault_key_str(fault) == "resource:cpu:8:time@5-60"


# ----------------------------------------------------------------------
# Trace header and injectors
# ----------------------------------------------------------------------
# One fault per family with the store key, dict and ``fault.armed``
# payload (key order included) the per-family code paths produced
# before the family table replaced them.
PINNED = [
    (FaultSpec("CreateFileA", 1, FaultType.FLIP, 2),
     "param:CreateFileA:1:flip:2",
     [("mechanism", "parameter"), ("function", "CreateFileA"),
      ("param_index", 1), ("fault_type", "flip"), ("invocation", 2)],
     [("function", "CreateFileA"), ("mechanism", "parameter"),
      ("param_index", 1), ("fault_type", "flip"), ("invocation", 2)]),
    (ReturnFaultSpec("GetACP", FaultType.ONES, 1),
     "return:GetACP:ones:1",
     [("mechanism", "return"), ("function", "GetACP"),
      ("fault_type", "ones"), ("invocation", 1)],
     [("function", "GetACP"), ("mechanism", "return"),
      ("fault_type", "ones"), ("invocation", 1)]),
    (IoFault("ReadFile", "short", 0.5, FaultWindow("calls", 3, 40)),
     "io:ReadFile:short:0.5:calls@3-40",
     [("mechanism", "io"), ("op", "ReadFile"), ("mode", "short"),
      ("value", 0.5), ("window", {"unit": "calls", "start": 3, "end": 40})],
     [("function", "ReadFile"), ("mechanism", "io"), ("op", "ReadFile"),
      ("mode", "short"), ("value", 0.5), ("window_unit", "calls"),
      ("window_start", 3), ("window_end", 40)]),
    (ResourceFault("cpu", 3.0, FaultWindow("time", 5.0, 60.0)),
     "resource:cpu:3:time@5-60",
     [("mechanism", "resource"), ("resource", "cpu"), ("severity", 3.0),
      ("window", {"unit": "time", "start": 5.0, "end": 60.0})],
     [("function", "resource:cpu"), ("mechanism", "resource"),
      ("resource", "cpu"), ("severity", 3.0), ("window_unit", "time"),
      ("window_start", 5.0), ("window_end", 60.0)]),
]


def test_pinned_examples_cover_every_family():
    assert [fault.family.mechanism for fault, *_ in PINNED] == \
        list(FAMILIES)


@pytest.mark.parametrize("fault, key, data, armed", PINNED)
def test_codec_and_trace_header_are_unchanged(fault, key, data, armed):
    assert fault.store_key() == key
    assert list(fault.to_dict().items()) == data
    assert list(fault.armed_fields().items()) == armed


@pytest.mark.parametrize("fault", [fault for fault, *_ in PINNED])
def test_armed_fields_are_the_traced_armed_event(fault):
    run = execute_run(get_workload("IIS"), MiddlewareKind.NONE, fault,
                      RunConfig(trace_level="outcome"))
    armed = [event for event in run.trace
             if (event.category, event.name) == ("fault", "armed")]
    assert len(armed) == 1
    assert list(armed[0].data.items()) == \
        list(fault.armed_fields().items())


@settings(max_examples=25, deadline=None)
@given(any_fault)
def test_injector_installs_and_finalizes_on_a_fresh_machine(fault):
    machine = Machine(seed=7)
    injector = fault.injector(get_workload("IIS"))
    assert type(injector) is fault.family.injector
    injector.install(machine)
    machine.run(until=1.0)
    injector.finalize()
    assert injector.fault is fault
    assert injector.fired is False
    assert injector.was_noop is False


# ----------------------------------------------------------------------
# Config fingerprints
# ----------------------------------------------------------------------
def _fingerprint(mechanism):
    return config_fingerprint("IIS", MiddlewareKind.NONE, RunConfig(),
                              mechanism)


def test_fingerprint_is_stable_and_mechanism_sensitive():
    assert _fingerprint("io") == _fingerprint("io")
    assert len({_fingerprint(mechanism) for mechanism in
                ("parameter", "return", "io", "resource")}) == 4


def test_fingerprint_separates_workload_and_middleware():
    base = config_fingerprint("IIS", MiddlewareKind.NONE, RunConfig(), "io")
    assert base != config_fingerprint("Apache", MiddlewareKind.NONE,
                                      RunConfig(), "io")
    assert base != config_fingerprint("IIS", MiddlewareKind.WATCHD,
                                      RunConfig(), "io")
