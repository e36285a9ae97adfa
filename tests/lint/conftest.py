"""Shared helpers for the lint test suite."""

import ast
import textwrap

import pytest

from repro.lint import ParsedModule, ProjectIndex, run_lint


def parse_project(sources):
    """``{path: source}`` -> ParsedModule list, in dict order.

    Paths are used verbatim (give them ``pkg/mod.py`` shapes so
    relative imports resolve); sources are dedented.
    """
    modules = []
    for path, source in sources.items():
        text = textwrap.dedent(source)
        modules.append(ParsedModule(path, ast.parse(text), text))
    return modules


def project_of(sources):
    """``{path: source}`` -> one lint project over :func:`parse_project`."""
    return ProjectIndex(parse_project(sources))


@pytest.fixture
def lint_project(tmp_path):
    """Write several sources into one temp tree and lint the tree."""

    def run(sources, rules=None):
        for name, source in sources.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        return run_lint([str(tmp_path)], rules=rules).findings

    return run


@pytest.fixture
def lint_source(tmp_path):
    """Write python source to a temp file and lint just that file."""

    def run(source, rules=None, filename="module.py"):
        path = tmp_path / filename
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return run_lint([str(path)], rules=rules).findings

    return run


@pytest.fixture
def lint_fault_file(tmp_path):
    """Write a fault-list file to a temp file and lint just it."""

    def run(text, filename="faults.lst"):
        path = tmp_path / filename
        path.write_text(textwrap.dedent(text), encoding="utf-8")
        return run_lint([str(path)]).findings

    return run


def rules_of(findings):
    return [finding.rule for finding in findings]


def messages_of(findings):
    return [finding.message for finding in findings]
