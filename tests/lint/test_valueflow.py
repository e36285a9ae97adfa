"""Tests for the value-flow tier: facts, classes, manifest, oracle."""

import pytest

from repro.core.faults import FaultSpec, FaultType
from repro.lint.valueflow import (
    ALL_FAULTS,
    DeadParamRule,
    EquivalenceManifest,
    UseBeforeValidateRule,
    classify,
    evaluate_impl,
    find_impl_sites,
)

from .conftest import parse_project


def _site(source, export):
    (module,) = parse_project({"pkg/impl.py": source})
    return find_impl_sites([module])[export]


def _facts(source, export):
    return evaluate_impl(_site(source, export))


def _usage(source, export, index):
    facts = _facts(source, export)
    assert not facts.imprecise
    return classify(facts.facts.get(index, set()),
                    facts.consts.get(index, set()))


# ----------------------------------------------------------------------
# The evaluator: accessor decodes and use facts
# ----------------------------------------------------------------------
BASIC = """
    @k32impl("FakeBasic")
    def fake_basic(frame):
        buf = frame.buffer(0)
        frame.uint(1)
        n = frame.uint(2)
        if n == 0:
            return frame.fail(87)
        cell = frame.opt_out_cell(3)
        if cell is not None:
            cell.value = 1
        return frame.succeed(1)
"""


def test_decode_facts_per_parameter():
    facts = _facts(BASIC, "FakeBasic")
    assert facts.facts[0] == {"deref"}
    assert facts.facts[1] == {"raw"}
    assert facts.facts[2] == {"raw", "null-check"}
    assert facts.facts[3] == {"opt-deref"}


def test_classification_of_basic_shapes():
    assert _usage(BASIC, "FakeBasic", 0) == \
        ("dereferenced", [list(ALL_FAULTS)])
    assert _usage(BASIC, "FakeBasic", 1) == \
        ("accepted-as-is", [list(ALL_FAULTS)])
    assert _usage(BASIC, "FakeBasic", 2) == \
        ("null-checked-only", [["ones", "flip"]])
    assert _usage(BASIC, "FakeBasic", 3) == \
        ("optional-deref", [["ones", "flip"]])


def test_unused_parameter_classifies_unused():
    assert classify(set(), set()) == ("unused", [list(ALL_FAULTS)])


def test_helper_inlining_carries_raw_values():
    source = """
        @k32impl("FakeHelper")
        def fake_helper(frame):
            return _shared(frame, 0)

        def _shared(frame, index):
            value = frame.uint(index)
            if value > 16:
                return frame.fail(87)
            return frame.succeed(1)
    """
    usage, groups = _usage(source, "FakeHelper", 0)
    # Bounds comparisons are value-consuming: no equivalence groups.
    assert usage == "bounds-compared"
    assert groups == []


def test_equality_branching_groups_depend_on_constants():
    nonzero = """
        @k32impl("FakeEq")
        def fake_eq(frame):
            mode = frame.uint(0)
            if mode == 3:
                return frame.succeed(2)
            if mode == 7:
                return frame.succeed(3)
            return frame.succeed(1)
    """
    usage, groups = _usage(nonzero, "FakeEq", 0)
    # zero / ones / flip all miss {3, 7}: one class of three.
    assert usage == "equality-branched"
    assert groups == [list(ALL_FAULTS)]

    with_zero = nonzero.replace("mode == 3", "mode == 0")
    usage, groups = _usage(with_zero, "FakeEq", 0)
    # A zero constant is reachable by the zero corruption: only the
    # two wild corruptions collapse.
    assert usage == "equality-branched"
    assert groups == [["ones", "flip"]]


def test_passthrough_never_groups():
    source = """
        @k32impl("FakePass")
        def fake_pass(frame):
            return frame.succeed(frame.uint(0))
    """
    usage, groups = _usage(source, "FakePass", 0)
    assert usage == "passed-through"
    assert groups == []


def test_escaping_frame_poisons_the_export():
    source = """
        @k32impl("FakeEscape")
        def fake_escape(frame):
            external_helper(frame)
            return frame.succeed(1)
    """
    assert _facts(source, "FakeEscape").imprecise


def test_literal_tuple_loops_resolve_indices():
    source = """
        @k32impl("FakeLoop")
        def fake_loop(frame):
            for index in (0, 1, 2):
                cell = frame.opt_out_cell(index)
                if cell is not None:
                    cell.value = 0
            return frame.succeed(1)
    """
    facts = _facts(source, "FakeLoop")
    assert not facts.imprecise
    assert facts.facts[0] == facts.facts[1] == facts.facts[2] == \
        {"opt-deref"}


# ----------------------------------------------------------------------
# The manifest
# ----------------------------------------------------------------------
CLASSES = [
    {"function": "SetEvent", "param": 0, "name": "hEvent",
     "usage": "handle-checked", "faults": ["zero", "ones", "flip"]},
    {"function": "CreateEventA", "param": 1, "name": "bManualReset",
     "usage": "boolean", "faults": ["ones", "flip"]},
]


def test_manifest_fingerprint_is_order_independent():
    forward = EquivalenceManifest(CLASSES)
    backward = EquivalenceManifest(list(reversed(CLASSES)))
    assert forward.fingerprint == backward.fingerprint
    assert forward.classes == backward.classes
    assert forward.collapsible_count == 3


def test_manifest_round_trips_through_disk(tmp_path):
    manifest = EquivalenceManifest(CLASSES)
    path = tmp_path / "equiv.json"
    manifest.save(str(path))
    loaded = EquivalenceManifest.load(str(path))
    assert loaded.fingerprint == manifest.fingerprint
    assert loaded.classes == manifest.classes


def test_manifest_rejects_malformed_payloads():
    with pytest.raises(ValueError):
        EquivalenceManifest.from_json({"version": 99, "classes": []})
    with pytest.raises(ValueError):
        EquivalenceManifest.from_json({"version": 1, "classes": [{}]})


def test_group_key_covers_only_listed_faults():
    manifest = EquivalenceManifest(CLASSES)
    zero = FaultSpec("SetEvent", 0, FaultType.ZERO)
    ones = FaultSpec("SetEvent", 0, FaultType.ONES)
    assert manifest.group_key(zero) == manifest.group_key(ones)
    # CreateEventA's class excludes zero: it is always scheduled.
    assert manifest.group_key(
        FaultSpec("CreateEventA", 1, FaultType.ZERO)) is None
    assert manifest.group_key(
        FaultSpec("CreateEventA", 1, FaultType.ONES)) is not None
    # Unknown (function, param) slices are never pruned.
    assert manifest.group_key(
        FaultSpec("ReadFile", 0, FaultType.ZERO)) is None


def test_group_key_ignores_return_value_faults():
    from repro.core.return_injector import ReturnFaultSpec

    manifest = EquivalenceManifest(CLASSES)
    fault = ReturnFaultSpec("SetEvent", FaultType.ZERO)
    assert manifest.group_key(fault) is None


# ----------------------------------------------------------------------
# The shipped tree
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tree_project():
    from repro.lint import load_project

    return load_project(["src"])


@pytest.fixture(scope="module")
def tree_flow(tree_project):
    return tree_project.valueflow


def test_shipped_tree_is_fully_analyzable(tree_flow):
    # Soundness floor: nothing in the shipped tree is poisoned and
    # every registered implementation is inside the linted scope.
    assert tree_flow.imprecise == set()
    assert tree_flow.unanalyzed == set()
    assert len(tree_flow.manifest.classes) > 1000


def test_shipped_tree_known_usages(tree_flow):
    by_param = {(u.function, u.index): u.usage
                for usages in tree_flow.usages.values()
                for u in usages}
    assert by_param[("CreateFileMappingA", 3)] == "accepted-as-is"
    assert by_param[("MapViewOfFile", 0)] == "handle-checked"
    assert by_param[("Sleep", 0)] == "timeout"
    assert by_param[("GetCurrentDirectoryA", 0)] != "unused"


def test_equiv_oracle_is_clean_on_sampled_classes(tree_project):
    from repro.lint.valueflow import equiv_check

    # The project already holds the value-flow tier, so the oracle
    # reuses the manifest and only pays for the runs.
    report = equiv_check(tree_project, sample=3)
    assert report.executed > 0
    assert report.clean, report.render_text()


# ----------------------------------------------------------------------
# The rules
# ----------------------------------------------------------------------
def test_dead_param_flags_unread_impl_parameters(lint_project):
    findings = [f for f in lint_project({
        "impl.py": """
            @k32impl("Sleep")
            def sleep_impl(frame):
                return frame.succeed(0)
        """,
    }, rules=[DeadParamRule()]) if f.rule == "dead-param"]
    assert len(findings) == 1
    assert "Sleep parameter 0" in findings[0].message


def test_dead_param_accepts_bare_discard_decodes(lint_project):
    findings = lint_project({
        "impl.py": """
            @k32impl("Sleep")
            def sleep_impl(frame):
                frame.uint(0)  # dwMilliseconds: accepted as-is
                return frame.succeed(0)
        """,
    }, rules=[DeadParamRule()])
    assert [f for f in findings if f.rule == "dead-param"] == []


def test_use_before_validate_flags_check_after_use(lint_project):
    findings = lint_project({
        "impl.py": """
            @k32impl("SetEvent")
            def set_event(frame):
                event = frame.handle_object(0)
                label = event.label
                if event is None:
                    return frame.fail(6)
                return frame.succeed(1)
        """,
    }, rules=[UseBeforeValidateRule()])
    assert len(findings) == 1
    assert findings[0].rule == "use-before-validate"
    assert "None-check only happens later" in findings[0].message


def test_use_before_validate_accepts_check_first(lint_project):
    findings = lint_project({
        "impl.py": """
            @k32impl("SetEvent")
            def set_event(frame):
                event = frame.handle_object(0)
                if event is None:
                    return frame.fail(6)
                label = event.label
                return frame.succeed(1)
        """,
    }, rules=[UseBeforeValidateRule()])
    assert findings == []


def test_valueflow_rules_carry_the_family_marker():
    assert DeadParamRule().family == "valueflow"
    assert UseBeforeValidateRule().family == "valueflow"
