"""Corruption-escape rule — tainted values reaching restart-surviving
state.

The paper's most serious failure class is not the crash but the
*corruption that outlives the restart*: a value derived from an
injectable parameter (every argument of the 551 injectable exports is
a fault site) is written to disk, logged to the NT event log, or
stored into machine-rooted / module-global structures — state a
process restart does **not** clear.  Middleware can restart the server
forever; the poisoned checkpoint greets every incarnation.

Taint sources (per function, then closed over call edges):

- the bound result of any simulated API call that takes at least one
  argument — with a fault injected into any parameter, the result is
  untrustworthy;
- out-parameters of read-style calls (``ReadFile``'s buffer and
  byte-count) — the classic corrupted-buffer entry point;
- the result of a call to a function that *returns* tainted data
  (computed to fixpoint across the call graph, so a helper that reads
  a file three modules down still taints its callers).

Sinks come from the call-graph summaries: ``WriteFile``-family data
parameters, ``eventlog.write`` arguments, and assignments into
machine-rooted or module-global containers.  A sink reached through a
call chain is found too: :meth:`CallGraph.sink_params` marks which
*parameters* of which functions flow into sinks, so passing a tainted
value into such a parameter is reported at the call site — the caller
is where the taint and the escape meet.

Sanitisation is the paper's own defence: *examine the value first*.  A
name that was tested (compared, branched on) before the sink line is
considered validated and stays silent.  Validation is per-name, not
per-field — checking ``if conf is None:`` blesses ``conf``; the rule
does not track corruption of individual dictionary entries.
"""

from __future__ import annotations

from typing import Iterable

from .callgraph import CallGraph, FunctionSummary
from .core import Finding, Rule
from .engine import ProjectIndex

RULE = "corruption-escape"

# Read-style calls whose listed argument positions are *out* parameters:
# after the call, the names passed there hold externally supplied data.
OUT_PARAM_TAINT = {
    ("k32", "ReadFile"): (1, 3),
    ("k32", "ReadFileEx"): (1,),
    ("libc", "read"): (1,),
}

_SINK_KIND_LABEL = {
    "api-write": "the simulated filesystem",
    "eventlog": "the NT event log",
    "persistent-store": "restart-surviving state",
}


def _module_path(graph: CallGraph, module_name: str) -> str:
    index = graph.project.modules.get(module_name)
    return index.path if index is not None else module_name


def _local_taint(summary: FunctionSummary,
                 tainted_returns: dict) -> dict:
    """name -> origin description for every tainted local, closed over
    the function's assignment skeleton."""
    taint: dict[str, str] = {}
    for call in summary.api_calls:
        if call.arg_names:  # at least one injectable parameter
            for name in call.bound:
                taint.setdefault(
                    name, f"the result of {call.api}.{call.name}")
        out_positions = OUT_PARAM_TAINT.get((call.api, call.name))
        if out_positions:
            for position in out_positions:
                if position < len(call.arg_names):
                    for name in call.arg_names[position]:
                        taint.setdefault(
                            name, f"an out-parameter of "
                                  f"{call.api}.{call.name}")
    for site in summary.calls:
        if site.via_reference or site.callee not in tainted_returns:
            continue
        for name in site.bound:
            taint.setdefault(
                name, f"{site.callee[1]}(), which returns "
                      f"{tainted_returns[site.callee]}")
    if not taint:
        return taint
    # Close over assignments (two passes cover forward + simple loop
    # flows, mirroring _local_flow_closure).
    for _ in range(2):
        for target, rhs_names, _line in summary.assignments:
            if target in taint:
                continue
            for rhs in rhs_names:
                if rhs in taint:
                    taint[target] = taint[rhs]
                    break
    return taint


def _tainted_returns(graph: CallGraph) -> dict:
    """FuncKey -> origin description for functions returning tainted
    data, to fixpoint."""
    table: dict = {}
    changed = True
    while changed:
        changed = False
        for key in sorted(graph.summaries):
            if key in table:
                continue
            summary = graph.summaries[key]
            taint = _local_taint(summary, table)
            if not taint:
                continue
            for info in summary.returns:
                hit = sorted(info.names & set(taint))
                if hit:
                    table[key] = taint[hit[0]]
                    changed = True
                    break
    return table


def _sanitised(summary: FunctionSummary, name: str, line: int) -> bool:
    checked = summary.checked_names.get(name)
    return checked is not None and checked < line


class CorruptionEscapeRule(Rule):
    name = RULE
    description = ("values tainted by injectable parameters must be "
                   "validated before reaching restart-surviving state")

    def check_project(self, project: ProjectIndex) -> Iterable[Finding]:
        graph = project.callgraph
        tainted_returns = _tainted_returns(graph)
        sink_params = graph.sink_params()
        findings: list[Finding] = []
        seen: set = set()
        for key in sorted(graph.summaries):
            summary = graph.summaries[key]
            taint = _local_taint(summary, tainted_returns)
            if not taint:
                continue
            path = _module_path(graph, summary.module_name)
            for finding in self._direct_sinks(summary, path, taint):
                if finding.key not in seen:
                    seen.add(finding.key)
                    findings.append(finding)
            for finding in self._call_sinks(graph, summary, path, taint,
                                            sink_params):
                if finding.key not in seen:
                    seen.add(finding.key)
                    findings.append(finding)
        return findings

    # ------------------------------------------------------------------
    def _direct_sinks(self, summary: FunctionSummary, path: str,
                      taint: dict) -> Iterable[Finding]:
        for sink in summary.sinks:
            origin = taint.get(sink.name)
            if origin is None or _sanitised(summary, sink.name, sink.line):
                continue
            label = _SINK_KIND_LABEL.get(sink.kind, sink.kind)
            yield Finding(
                RULE, path, sink.line,
                f"'{sink.name}' derives from {origin} and flows into "
                f"{label} ({sink.detail}) without validation — an "
                "injected fault here survives a process restart",
                symbol=summary.qualname,
                suggestion=f"validate '{sink.name}' (or the producing "
                           "call's status) before it escapes")

    def _call_sinks(self, graph: CallGraph, summary: FunctionSummary,
                    path: str, taint: dict,
                    sink_params: dict) -> Iterable[Finding]:
        for site in summary.calls:
            if site.via_reference:
                continue
            callee_sinks = sink_params.get(site.callee)
            if not callee_sinks:
                continue
            callee = graph.summaries.get(site.callee)
            if callee is None:
                continue
            shift = 1 if callee.class_name is not None and \
                callee.param_names[:1] in (("self",), ("cls",)) else 0
            for position, names in enumerate(site.arg_names):
                if position + shift not in callee_sinks:
                    continue
                for name in sorted(set(names)):
                    origin = taint.get(name)
                    if origin is None or \
                            _sanitised(summary, name, site.line):
                        continue
                    yield Finding(
                        RULE, path, site.line,
                        f"'{name}' derives from {origin} and is passed "
                        f"to {site.callee[1]}(), which writes that "
                        "parameter into restart-surviving state — an "
                        "injected fault here survives a process restart",
                        symbol=summary.qualname,
                        suggestion=f"validate '{name}' before handing "
                                   f"it to {site.callee[1]}()")
