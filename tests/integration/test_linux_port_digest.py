"""The Linux port, pinned byte for byte.

Every run of every (workload, middleware) cell of the Linux-port
campaigns, untraced and at the full trace level, hashed in order.  Any
change to libc dispatch, interception or the shared campaign flow that
moves a single result byte moves the digest.
"""

import hashlib
import json

from repro.core import Campaign, MiddlewareKind, RunConfig
from repro.core.store import run_result_to_dict
from repro.posix import APACHE1_LINUX, APACHE2_LINUX

EXPECTED_RUNS = 296
EXPECTED_DIGEST_PREFIX = "87adcc60d4320dc7"


def test_linux_port_results_are_byte_identical():
    digest = hashlib.sha256()
    count = 0
    for level in ("off", "full"):
        config = RunConfig(base_seed=3, trace_level=level)
        for workload in (APACHE1_LINUX, APACHE2_LINUX):
            for middleware in (MiddlewareKind.NONE, MiddlewareKind.WATCHD):
                result = Campaign(workload, middleware, config=config).run()
                for run in [result.profile_run, *result.runs]:
                    digest.update(json.dumps(run_result_to_dict(run),
                                             sort_keys=True).encode())
                    count += 1
    assert count == EXPECTED_RUNS
    assert digest.hexdigest()[:16] == EXPECTED_DIGEST_PREFIX
