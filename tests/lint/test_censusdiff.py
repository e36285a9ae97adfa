"""The static↔dynamic census oracle and the dead-fault-space rule."""

import json

import pytest

from repro.core.runner import RunConfig, execute_run
from repro.core.store import run_result_to_dict
from repro.core.workload import WORKLOADS, MiddlewareKind
from repro.lint import run_lint
from repro.lint.censusdiff import (
    FaultReachabilityRule,
    census_diff,
    static_role_exports,
)
from repro.nt.kernel32.signatures import REGISTRY

from .conftest import project_of

# The real tree slice that defines the NT roles: the server programs
# plus the workload registry that spawns them.
TREE_PATHS = ["src/repro/servers", "src/repro/core/workload.py"]


@pytest.fixture(scope="module")
def tree_project():
    result = run_lint(TREE_PATHS, rules=[])
    assert not result.findings  # every file parsed
    return result.project


@pytest.fixture(scope="module")
def profile_entry():
    """One real Apache1 profile run, serialized the way a store is."""
    result = execute_run(WORKLOADS["Apache1"], MiddlewareKind.NONE, None,
                         RunConfig())
    return run_result_to_dict(result)


def write_store(path, run_dict):
    path.write_text(json.dumps(
        {"fp": "test", "key": "profile", "run": run_dict}) + "\n",
        encoding="utf-8")
    return str(path)


class TestStaticSide:
    def test_roles_discovered_from_real_tree(self, tree_project):
        table = static_role_exports(tree_project)
        assert {"apache1", "apache2", "iis", "sql"} <= set(table)

    def test_apache1_reaches_its_own_calls(self, tree_project):
        table = static_role_exports(tree_project)
        assert "CreateFileA" in table["apache1"]


class TestCensusDiff:
    def test_store_census_happy_path(self, tree_project, profile_entry,
                                     tmp_path):
        store = write_store(tmp_path / "runs.jsonl", profile_entry)
        report = census_diff(tree_project, store_paths=[store])
        assert report.clean
        apache1 = report.roles["apache1"]
        assert apache1.dynamic_exports
        assert apache1.unexplained == []

    def test_unexplained_activation_is_reported(self, tree_project,
                                                profile_entry, tmp_path):
        static = static_role_exports(tree_project)["apache1"]
        bogus = sorted(name for name in REGISTRY
                       if name not in static)[0]
        entry = dict(profile_entry)
        entry["called_functions"] = sorted(
            set(entry["called_functions"]) | {bogus})
        store = write_store(tmp_path / "runs.jsonl", entry)
        report = census_diff(tree_project, store_paths=[store])
        assert not report.clean
        assert report.roles["apache1"].unexplained == [bogus]
        assert bogus in report.render_text()

    def test_activated_fault_counts_as_evidence(self, tree_project,
                                                profile_entry, tmp_path):
        entry = dict(profile_entry)
        entry["fault"] = {"mechanism": "parameter",
                          "function": "CreateFileA", "param_index": 0,
                          "fault_type": "zero", "invocation": 1}
        entry["activated"] = True
        store = write_store(tmp_path / "runs.jsonl", entry)
        report = census_diff(tree_project, store_paths=[store])
        assert "CreateFileA" in report.roles["apache1"].dynamic_exports

    def test_json_shape(self, tree_project, profile_entry, tmp_path):
        store = write_store(tmp_path / "runs.jsonl", profile_entry)
        report = census_diff(tree_project, store_paths=[store])
        payload = report.to_json()
        assert payload["fault_space"]["exports"] == 681
        assert payload["fault_space"]["zero_param"] == 130
        assert payload["fault_space"]["injectable"] == 551
        assert payload["clean"] is True
        roles = {entry["role"] for entry in payload["roles"]}
        assert "apache1" in roles


# A miniature registered project whose only reachable export is the
# CreateFileA/CloseHandle pair — everything else is dead fault space.
MINI_PROJECT = {
    "mini/server.py": """
        class TinyServer:
            def main(self, ctx):
                handle = yield from ctx.k32.CreateFileA(
                    "d.dat", 1, 0, None, 3, 0, None)
                if handle == 0:
                    return
                yield from ctx.k32.CloseHandle(handle)
    """,
    "mini/setup.py": """
        from .server import TinyServer

        def register(machine):
            machine.processes.register_image(
                "tiny.exe", lambda cmd: TinyServer(), role="tiny")
    """,
}

FAULTS = """\
# function  param-index  fault-type  invocation
CreateFileA 0 zero 1
CreateNamedPipeA 0 zero 1
CreateNamedPipeA 0 ones 1
"""


class TestFaultReachabilityRule:
    def test_dead_fault_space_flagged(self, tmp_path):
        for name, source in MINI_PROJECT.items():
            target = tmp_path / name
            target.parent.mkdir(parents=True, exist_ok=True)
            import textwrap
            target.write_text(textwrap.dedent(source), encoding="utf-8")
        (tmp_path / "mini" / "faults.lst").write_text(
            FAULTS, encoding="utf-8")
        findings = [f for f in run_lint([str(tmp_path)]).findings
                    if f.rule == "fault-reachability"]
        assert len(findings) == 1  # one per function, not per line
        assert "CreateNamedPipeA" in findings[0].message
        assert "dead fault space" in findings[0].message

    def test_no_registrations_means_silent(self, lint_fault_file):
        # A fault file linted without any project context: every
        # export would look dead, so the rule must not fire at all.
        findings = [f for f in lint_fault_file(FAULTS)
                    if f.rule == "fault-reachability"]
        assert findings == []

    def test_reachable_entries_stay_silent(self):
        rule = FaultReachabilityRule()
        from repro.lint.core import FaultListFile
        findings = list(rule.check_fault_file(
            FaultListFile("faults.lst", "CreateFileA 0 zero 1\n"),
            project_of(MINI_PROJECT)))
        assert findings == []
