"""Load runs, pinned byte for byte.

One untraced load run per (workload, middleware, fault) cell, serialized
as the store writes it and hashed in order.  Any change to the run
lifecycle, the client population or the load-result codec that moves a
single stored byte moves the digest.  The load-store fingerprints are
pinned alongside: a moved fingerprint orphans every existing load store.
"""

import hashlib
import json

from repro.core.faults import FaultSpec, FaultWindow, IoFault, ResourceFault
from repro.core.runner import RunConfig
from repro.core.store import serialize_result
from repro.core.workload import MiddlewareKind
from repro.load import LoadSpec, execute_load_run

WORKLOADS = ("Apache1", "IIS", "SQL")
MIDDLEWARES = (MiddlewareKind.NONE, MiddlewareKind.WATCHD)
FAULTS = (
    None,
    FaultSpec.from_line("CreateFileA 0 zero 1"),
    IoFault("net.recv", "error", "ECONNRESET", FaultWindow("time", 5.0, 60.0)),
    ResourceFault("memory", 0.5, FaultWindow("calls", 1, 100)),
)
EXPECTED_RUNS = 24
EXPECTED_DIGEST_PREFIX = "269ac9139dcb0baf"


def test_load_results_are_byte_identical():
    digest = hashlib.sha256()
    count = 0
    config = RunConfig(base_seed=11)
    for workload in WORKLOADS:
        for middleware in MIDDLEWARES:
            for fault in FAULTS:
                spec = LoadSpec(workload=workload, middleware=middleware,
                                clients=4, iterations=2, fault=fault)
                run = execute_load_run(spec, 0, config)
                digest.update(json.dumps(serialize_result(run),
                                         sort_keys=True).encode())
                count += 1
    assert count == EXPECTED_RUNS
    assert digest.hexdigest()[:16] == EXPECTED_DIGEST_PREFIX


def test_load_fingerprints_are_pinned():
    assert LoadSpec(workload="Apache1", clients=100).fingerprint(
        RunConfig()) == "d3ad5a41a9b7ec3d"
    spec = LoadSpec(workload="IIS", middleware=MiddlewareKind.WATCHD,
                    clients=4, fault=ResourceFault("memory", 0.5))
    assert spec.fingerprint(RunConfig(base_seed=7, watchd_version=2)) \
        == "7d093b1cbff6cb2b"
