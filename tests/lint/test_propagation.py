"""The error-propagation rule's three finding shapes."""

from repro.lint.propagation import ErrorPropagationRule

from .conftest import project_of


def findings_for(sources):
    rule = ErrorPropagationRule()
    return list(rule.check_project(project_of(sources)))


HELPER = """
    def load(ctx, path):
        handle = yield from ctx.k32.CreateFileA(
            path, 1, 0, None, 3, 0, None)
        if handle == 0:
            return None
        yield from ctx.k32.CloseHandle(handle)
        return handle
"""


class TestDroppedResult:
    def test_discarded_producer_result_is_flagged(self):
        findings = findings_for({
            "pkg/helpers.py": HELPER,
            "pkg/main.py": """
                from .helpers import load

                def main(ctx):
                    yield from load(ctx, "a.ini")
            """,
        })
        assert [f.rule for f in findings] == ["error-propagation"]
        assert "load()" in findings[0].message
        assert findings[0].symbol == "main"

    def test_bound_and_checked_is_silent(self):
        findings = findings_for({
            "pkg/helpers.py": HELPER,
            "pkg/main.py": """
                from .helpers import load

                def main(ctx):
                    handle = yield from load(ctx, "a.ini")
                    if handle is None:
                        return
            """,
        })
        assert findings == []

    def test_underscore_discard_is_silent(self):
        findings = findings_for({
            "pkg/helpers.py": HELPER,
            "pkg/main.py": """
                from .helpers import load

                def main(ctx):
                    _ = yield from load(ctx, "a.ini")
            """,
        })
        assert findings == []

    def test_valueless_helper_is_not_a_producer(self):
        # Guard-clause early exits in a function that never returns a
        # value are an idiom, not error signalling.
        findings = findings_for({
            "pkg/main.py": """
                def note(log, message):
                    if message is None:
                        return
                    log.append(message)

                def main(log):
                    note(log, "hello")
            """,
        })
        assert findings == []

    def test_pass_through_closure(self):
        # wrapper() returns load()'s failure result unexamined, so
        # discarding wrapper() is just as much a finding.
        findings = findings_for({
            "pkg/helpers.py": HELPER,
            "pkg/main.py": """
                from .helpers import load

                def wrapper(ctx):
                    result = yield from load(ctx, "a.ini")
                    return result

                def main(ctx):
                    yield from wrapper(ctx)
            """,
        })
        assert len(findings) == 1
        assert "wrapper()" in findings[0].message


class TestUnexaminedResult:
    def test_handle_used_without_examination(self):
        findings = findings_for({
            "pkg/main.py": """
                def main(ctx):
                    handle = yield from ctx.k32.CreateFileA(
                        "x", 1, 0, None, 3, 0, None)
                    yield from ctx.k32.ReadFile(
                        handle, None, 64, None, None)
            """,
        })
        assert [f.rule for f in findings] == ["error-propagation"]
        assert "'handle'" in findings[0].message
        assert "ever being examined" in findings[0].message

    def test_checked_handle_is_silent(self):
        findings = findings_for({
            "pkg/main.py": """
                def main(ctx):
                    handle = yield from ctx.k32.CreateFileA(
                        "x", 1, 0, None, 3, 0, None)
                    if handle == 0:
                        return
                    yield from ctx.k32.ReadFile(
                        handle, None, 64, None, None)
            """,
        })
        assert findings == []

    def test_returned_handle_is_propagation_not_finding(self):
        findings = findings_for({
            "pkg/main.py": """
                def open_it(ctx):
                    handle = yield from ctx.k32.CreateFileA(
                        "x", 1, 0, None, 3, 0, None)
                    yield from ctx.k32.SetLastError(0)
                    return handle
            """,
        })
        assert findings == []


class TestSwallowedFailure:
    def test_inert_failure_branch_is_flagged(self):
        findings = findings_for({
            "pkg/main.py": """
                def main(ctx):
                    ok = yield from ctx.k32.WriteFile(
                        1, b"x", 1, None, None)
                    if not ok:
                        pass
            """,
        })
        assert [f.rule for f in findings] == ["error-propagation"]
        assert "swallowed" in findings[0].message

    def test_acting_failure_branch_is_silent(self):
        findings = findings_for({
            "pkg/main.py": """
                def main(ctx):
                    ok = yield from ctx.k32.WriteFile(
                        1, b"x", 1, None, None)
                    if not ok:
                        return False
                    return True
            """,
        })
        assert findings == []
