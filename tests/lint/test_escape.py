"""The corruption-escape rule: taint sources, sinks, sanitisation."""

from repro.lint.escape import CorruptionEscapeRule

from .conftest import project_of


def findings_for(sources):
    rule = CorruptionEscapeRule()
    return list(rule.check_project(project_of(sources)))


class TestDirectSinks:
    def test_read_buffer_written_back_is_flagged(self):
        findings = findings_for({
            "pkg/main.py": """
                def main(ctx, handle, out_handle):
                    page = yield from ctx.k32.ReadFile(
                        handle, None, 512, None, None)
                    yield from ctx.k32.WriteFile(
                        out_handle, page, 512, None, None)
            """,
        })
        assert [f.rule for f in findings] == ["corruption-escape"]
        assert "'page'" in findings[0].message
        assert "filesystem" in findings[0].message

    def test_validated_buffer_is_silent(self):
        findings = findings_for({
            "pkg/main.py": """
                def main(ctx, handle, out_handle):
                    page = yield from ctx.k32.ReadFile(
                        handle, None, 512, None, None)
                    if not page:
                        return
                    yield from ctx.k32.WriteFile(
                        out_handle, page, 512, None, None)
            """,
        })
        assert findings == []

    def test_eventlog_sink(self):
        findings = findings_for({
            "pkg/main.py": """
                def main(ctx):
                    name = yield from ctx.k32.GetComputerNameA(None, 32)
                    ctx.machine.eventlog.write("src", name)
            """,
        })
        assert [f.rule for f in findings] == ["corruption-escape"]
        assert "event log" in findings[0].message

    def test_machine_rooted_store_sink(self):
        findings = findings_for({
            "pkg/main.py": """
                def main(ctx, handle):
                    size = yield from ctx.k32.GetFileSize(handle, None)
                    ctx.machine.registry["size"] = size
            """,
        })
        assert [f.rule for f in findings] == ["corruption-escape"]
        assert "'size'" in findings[0].message

    def test_zero_arg_api_result_is_not_tainted(self):
        # No parameters -> not injectable -> the result is trustworthy.
        findings = findings_for({
            "pkg/main.py": """
                def main(ctx, out_handle):
                    tick = yield from ctx.k32.GetTickCount()
                    yield from ctx.k32.WriteFile(
                        out_handle, tick, 4, None, None)
            """,
        })
        assert findings == []

    def test_taint_flows_through_assignment(self):
        findings = findings_for({
            "pkg/main.py": """
                def main(ctx, handle, out_handle):
                    raw = yield from ctx.k32.ReadFile(
                        handle, None, 512, None, None)
                    cooked = raw
                    yield from ctx.k32.WriteFile(
                        out_handle, cooked, 512, None, None)
            """,
        })
        assert len(findings) == 1
        assert "'cooked'" in findings[0].message


class TestInterprocedural:
    def test_tainted_return_propagates(self):
        findings = findings_for({
            "pkg/helpers.py": """
                def slurp(ctx, handle):
                    data = yield from ctx.k32.ReadFile(
                        handle, None, 512, None, None)
                    return data
            """,
            "pkg/main.py": """
                from .helpers import slurp

                def main(ctx, handle, out_handle):
                    body = yield from slurp(ctx, handle)
                    yield from ctx.k32.WriteFile(
                        out_handle, body, 512, None, None)
            """,
        })
        assert len(findings) == 1
        assert "'body'" in findings[0].message
        assert "slurp()" in findings[0].message

    def test_sink_parameter_flagged_at_call_site(self):
        findings = findings_for({
            "pkg/sinks.py": """
                def persist(ctx, payload):
                    yield from ctx.k32.WriteFile(
                        1, payload, 512, None, None)
            """,
            "pkg/main.py": """
                from .sinks import persist

                def main(ctx, handle):
                    data = yield from ctx.k32.ReadFile(
                        handle, None, 512, None, None)
                    yield from persist(ctx, data)
            """,
        })
        messages = [f.message for f in findings]
        assert any("persist()" in message for message in messages)

    def test_validated_before_call_is_silent_at_call_site(self):
        findings = findings_for({
            "pkg/sinks.py": """
                def persist(ctx, payload):
                    yield from ctx.k32.WriteFile(
                        1, payload, 512, None, None)
            """,
            "pkg/main.py": """
                from .sinks import persist

                def main(ctx, handle):
                    data = yield from ctx.k32.ReadFile(
                        handle, None, 512, None, None)
                    if data is None:
                        return
                    yield from persist(ctx, data)
            """,
        })
        assert all(f.symbol != "main" for f in findings)
