"""The static↔dynamic census oracle, and the dead-fault-space rule.

The campaign's activation shortcut rests on one prediction: a fault in
function *F* can only activate if the target role actually calls *F*.
PR 6's call graph makes that prediction *static* — from each
registered role's entry points, the reachable ``k32`` exports are the
activatable slice of the 681/130/551 fault space.  This module
reconciles that prediction against *dynamic* evidence:

- **live census** — fault-free profile runs of every registered
  workload under each middleware configuration (they cost milliseconds
  in simulated time), collecting the target role's called-function
  sets exactly as the campaign's wave-0 profiling run does;
- **store census** — previously checkpointed runs read back from
  JSONL run stores: each entry contributes its recorded
  ``called_functions`` set, plus the fault's own target function when
  the run reports activation.

The diff has two interesting directions:

- **unexplained activation** (dynamic − static): a function was
  observed called but the call graph cannot reach it — the analysis
  lost an edge (a resolution gap) or a registration.  On a healthy
  tree this set is empty, and CI keeps it that way.
- **dead fault space** (static-only, per fault list): a fault list
  entry targets a function *no* role can reach — the probe run is
  guaranteed wasted.  :class:`FaultReachabilityRule` reports these as
  ordinary findings on ``.lst`` files, so a stale fault list fails the
  lint gate like any other drift.

The asymmetry is deliberate: static reachability over-approximates
(both sides of every branch), so static − dynamic is *expected* to be
non-empty and is reported as coverage, not as findings.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Sequence

from .core import FaultListFile, Finding, Rule
from .engine import ProjectIndex

RULE = "fault-reachability"

# Middleware configurations each workload profiles under, mirroring the
# paper's three-configuration grid.
_MIDDLEWARE_NAMES = ("none", "mscs", "watchd")


# ----------------------------------------------------------------------
# Static side
# ----------------------------------------------------------------------
def static_role_exports(project: ProjectIndex) -> dict:
    """role -> set of statically reachable ``k32`` export names."""
    graph = project.callgraph
    table: dict[str, set] = {}
    for role, roots in graph.roles().items():
        table[role] = {name for api, name in graph.reachable_api(roots)
                       if api == "k32"}
    return table


def activatable_faults(exports: Iterable[str]) -> int:
    """Parameter-fault tuples activatable through the given exports."""
    from ..core.faultlist import fault_space_census

    per_function = fault_space_census()["per_function"]
    return sum(per_function.get(name, 0) for name in exports)


# ----------------------------------------------------------------------
# Dynamic side
# ----------------------------------------------------------------------
def dynamic_census_live(workload_names: Optional[Sequence[str]] = None,
                        ) -> dict:
    """role -> called ``k32`` exports, from fresh profile runs.

    Runs every requested workload under all three middleware
    configurations with no fault armed — the same collection path as
    the campaign's profiling wave, so the census and the campaign can
    never disagree about what "called" means.
    """
    from ..core.runner import RunConfig, execute_run
    from ..core.workload import WORKLOADS, MiddlewareKind

    names = sorted(workload_names if workload_names is not None
                   else WORKLOADS)
    table: dict[str, set] = {}
    for name in names:
        workload = WORKLOADS[name]
        bucket = table.setdefault(workload.target_role, set())
        for middleware_name in _MIDDLEWARE_NAMES:
            result = execute_run(workload, MiddlewareKind(middleware_name),
                                 None, RunConfig())
            bucket.update(result.called_functions)
    return table


def dynamic_census_from_stores(paths: Sequence[str]) -> dict:
    """role -> observed exports, read back from JSONL run stores.

    Every injection-run entry contributes its ``called_functions``
    set; entries that report fault activation also contribute the
    fault's target function (belt and braces: an activated fault *was*
    reached, whatever the called set says).  Load-run entries carry no
    called set and are skipped.
    """
    from ..core.store import RunStore
    from ..core.workload import WORKLOADS

    table: dict[str, set] = {}
    for path in paths:
        with RunStore(path) as store:
            for _fingerprint, _key, result in store.results():
                workload = WORKLOADS.get(
                    getattr(result, "workload_name", None))
                if workload is None or \
                        not hasattr(result, "called_functions"):
                    continue
                bucket = table.setdefault(workload.target_role, set())
                bucket.update(result.called_functions)
                fault = getattr(result, "fault", None)
                if fault is not None and getattr(result, "activated",
                                                 False) \
                        and not hasattr(fault, "window"):
                    # Windowed faults (io/resource) activate through
                    # transport ops or synthetic resource axes, not
                    # through a kernel32 export the call graph could
                    # predict — contributing their .function here would
                    # fabricate unexplained activations.
                    bucket.add(fault.function)
    return table


# ----------------------------------------------------------------------
# The diff
# ----------------------------------------------------------------------
class RoleCensus:
    """One role's static prediction vs dynamic observation."""

    __slots__ = ("role", "static_exports", "dynamic_exports")

    def __init__(self, role: str, static_exports: set,
                 dynamic_exports: set):
        self.role = role
        self.static_exports = static_exports
        self.dynamic_exports = dynamic_exports

    @property
    def unexplained(self) -> list:
        """Observed calls the call graph cannot explain (must be [])."""
        return sorted(self.dynamic_exports - self.static_exports)

    @property
    def unobserved(self) -> list:
        """Predicted-reachable exports no profiled run touched —
        branch-dependent coverage, not an error."""
        return sorted(self.static_exports - self.dynamic_exports)

    def to_json(self) -> dict:
        return {
            "role": self.role,
            "static": len(self.static_exports),
            "dynamic": len(self.dynamic_exports),
            "activatable_faults": activatable_faults(self.static_exports),
            "unexplained": self.unexplained,
            "unobserved": self.unobserved,
        }


class CensusReport:
    """The full reconciliation across roles."""

    def __init__(self, roles: dict):
        self.roles = roles  # role -> RoleCensus

    @property
    def clean(self) -> bool:
        return all(not census.unexplained
                   for census in self.roles.values())

    @property
    def unexplained_total(self) -> int:
        return sum(len(census.unexplained)
                   for census in self.roles.values())

    def to_json(self) -> dict:
        from ..core.faultlist import fault_space_census

        totals = fault_space_census()
        return {
            "fault_space": {key: totals[key] for key in
                            ("exports", "zero_param", "injectable",
                             "param_faults", "io_faults",
                             "resource_faults")},
            "roles": [self.roles[role].to_json()
                      for role in sorted(self.roles)],
            "clean": self.clean,
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    def render_text(self) -> str:
        from ..core.faultlist import fault_space_census

        totals = fault_space_census()
        lines = [
            "census-diff: static activatable prediction vs dynamic "
            "evidence",
            f"fault space: {totals['exports']} exports, "
            f"{totals['zero_param']} zero-param, "
            f"{totals['injectable']} injectable, "
            f"{totals['param_faults']} parameter faults, "
            f"{totals['io_faults']} io faults, "
            f"{totals['resource_faults']} resource faults",
        ]
        for role in sorted(self.roles):
            census = self.roles[role]
            lines.append(
                f"  {role}: static {len(census.static_exports)} exports "
                f"({activatable_faults(census.static_exports)} "
                f"activatable faults), dynamic "
                f"{len(census.dynamic_exports)}, "
                f"unobserved {len(census.unobserved)}, "
                f"unexplained {len(census.unexplained)}")
            for name in census.unexplained:
                lines.append(f"    unexplained activation: {name}")
        lines.append("census-diff: "
                     + ("clean — every dynamic activation is statically "
                        "explained"
                        if self.clean else
                        f"{self.unexplained_total} unexplained dynamic "
                        "activation(s): the call graph is missing edges"))
        return "\n".join(lines)


def census_diff(project: ProjectIndex,
                store_paths: Sequence[str] = (),
                workload_names: Optional[Sequence[str]] = None,
                ) -> CensusReport:
    """Reconcile the static prediction with dynamic evidence.

    With ``store_paths``, dynamic evidence comes from those run
    stores; otherwise fresh profile runs are executed.  Roles only
    present on one side still appear: a statically known role with no
    dynamic evidence reports empty observation (all-unobserved), and a
    dynamically observed role the graph does not know yields findings
    through its wholly unexplained set.
    """
    static = static_role_exports(project)
    if store_paths:
        dynamic = dynamic_census_from_stores(store_paths)
    else:
        dynamic = dynamic_census_live(workload_names)
    roles = {}
    for role in sorted(set(static) | set(dynamic)):
        roles[role] = RoleCensus(role, static.get(role, set()),
                                 dynamic.get(role, set()))
    return CensusReport(roles)


# ----------------------------------------------------------------------
# The rule: dead fault space in fault-list files
# ----------------------------------------------------------------------
class FaultReachabilityRule(Rule):
    name = RULE
    description = ("fault-list entries must target functions some "
                   "registered workload role can reach")

    def check_fault_file(self, fault_file: FaultListFile,
                         project: ProjectIndex) -> Iterable[Finding]:
        role_exports = static_role_exports(project)
        if not role_exports:
            # No registrations in scope (linting a fragment): without
            # roots every export would look dead, so stay silent.
            return
        from ..nt.kernel32.signatures import REGISTRY

        reachable = set().union(*role_exports.values())
        seen: set = set()
        for line_number, raw_line in enumerate(
                fault_file.text.splitlines(), start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            function = line.split()[0]
            # One finding per function per file; the fault-space rule
            # separately validates names/indices, so unknown exports
            # are its findings, not ours.
            if function in seen or function not in REGISTRY or \
                    function in reachable:
                continue
            seen.add(function)
            yield Finding(
                RULE, fault_file.path, line_number,
                f"fault targets {function}, which no registered "
                "workload role can statically reach — dead fault space "
                "(its probe run can never activate)",
                suggestion=f"drop the {function} entries, or register "
                           "the program that calls it")
