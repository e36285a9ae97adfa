"""Unit tests for the main configuration file."""

import pytest

from repro.core.config import DtsConfig
from repro.core.workload import MiddlewareKind


def test_defaults():
    config = DtsConfig()
    assert config.workload == "Apache1"
    assert config.middleware is MiddlewareKind.NONE
    assert config.watchd_version == 3
    assert config.cpu_mhz == 100          # the paper's primary testbed


def test_text_roundtrip():
    original = DtsConfig(workload="SQL", middleware=MiddlewareKind.WATCHD,
                         watchd_version=2,
                         base_seed=7, server_up_timeout=50.0,
                         client_timeout=120.0, cpu_mhz=400)
    parsed = DtsConfig.from_text(original.to_text())
    assert parsed.workload == "SQL"
    assert parsed.middleware is MiddlewareKind.WATCHD
    assert parsed.watchd_version == 2
    assert parsed.base_seed == 7
    assert parsed.server_up_timeout == 50.0
    assert parsed.client_timeout == 120.0
    assert parsed.cpu_mhz == 400


def test_file_roundtrip(tmp_path):
    path = tmp_path / "dts.ini"
    path.write_text(DtsConfig(workload="IIS").to_text())
    assert DtsConfig.from_file(path).workload == "IIS"


def test_partial_file_uses_defaults():
    config = DtsConfig.from_text("[dts]\nworkload = IIS\n")
    assert config.workload == "IIS"
    assert config.middleware is MiddlewareKind.NONE
    assert config.client_timeout == 240.0


def test_run_config_propagation():
    config = DtsConfig(base_seed=99, watchd_version=2, cpu_mhz=400)
    run_config = config.run_config()
    assert run_config.base_seed == 99
    assert run_config.watchd_version == 2
    assert run_config.cpu_mhz == 400


def test_workload_spec_resolution():
    assert DtsConfig(workload="SQL").workload_spec().name == "SQL"
    with pytest.raises(KeyError):
        DtsConfig(workload="Netscape").workload_spec()


def test_execution_defaults():
    config = DtsConfig()
    assert config.jobs == 1
    assert config.store is None


def test_execution_section_roundtrip():
    original = DtsConfig(workload="IIS", jobs=4, store="runs.jsonl")
    parsed = DtsConfig.from_text(original.to_text())
    assert parsed.jobs == 4
    assert parsed.store == "runs.jsonl"


def test_missing_execution_section_uses_defaults():
    config = DtsConfig.from_text("[dts]\nworkload = IIS\n")
    assert config.jobs == 1
    assert config.store is None


def test_empty_store_value_means_none():
    config = DtsConfig.from_text("[execution]\njobs = 2\nstore =\n")
    assert config.jobs == 2
    assert config.store is None


def test_bad_middleware_rejected():
    with pytest.raises(ValueError):
        DtsConfig.from_text("[dts]\nmiddleware = chaosmonkey\n")


# What an earlier to_text wrote: the fault_list / reply / retry_wait
# keys nothing reads any more.
_OLD_TEXT = """[dts]
workload = SQL
middleware = watchd
watchd_version = 2
fault_list = 
base_seed = 7

[timeouts]
server_up = 50
client = 120
reply = 15
retry_wait = 15
"""


def test_files_with_the_dropped_keys_at_their_old_defaults_load():
    config = DtsConfig.from_text(_OLD_TEXT)
    assert config.workload == "SQL"
    assert config.base_seed == 7
    assert config.server_up_timeout == 50.0


@pytest.mark.parametrize("old, new, key", [
    ("fault_list = ", "fault_list = faults.lst", "fault_list"),
    ("reply = 15", "reply = 30", "reply"),
    ("retry_wait = 15", "retry_wait = soon", "retry_wait"),
])
def test_dropped_keys_rejected_unless_inert(old, new, key):
    with pytest.raises(ValueError, match=key):
        DtsConfig.from_text(_OLD_TEXT.replace(old, new))
