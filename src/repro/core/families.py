"""The fault-family table: the one place a fault family is declared.

Section 2 of the paper: "the basic DTS architecture is not dependent on
a particular fault injection mechanism".  Here a mechanism is a row of
:data:`FAMILIES`.  The runner, store, campaign, serve daemon, CLI and
analysis read the row, or the spec's
:class:`~repro.core.faults.FaultBase` methods, instead of branching on
the family themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Optional, Sequence

from ..nt.kernel32.signatures import REGISTRY
from .faultlist import generate_fault_list
from .faults import (
    IO_OPS,
    RESOURCE_KINDS,
    FaultSpec,
    IoFault,
    ResourceFault,
)
from .injector import Injector
from .return_injector import (
    ReturnFaultSpec,
    ReturnInjector,
    generate_return_fault_list,
)
from .windowed import (
    IoInjector,
    ResourceInjector,
    generate_io_fault_list,
    generate_resource_fault_list,
)


@dataclass(frozen=True)
class FaultFamily:
    """One row.  ``mechanism`` goes into fingerprints and stored fault
    dicts, ``name`` is the store-key prefix and ``--fault-family``
    value; ``space(functions, fault_types, invocations, registry)``
    enumerates the faults; ``functions`` picks from ``axis`` (None: the
    workload's exports); ``in_comparison``: run by ``--fault-family
    all``."""

    mechanism: str
    name: str
    label: str
    spec: type
    injector: type
    space: Callable
    axis: Optional[tuple] = None
    in_comparison: bool = True

    def __post_init__(self):
        self.spec.family = self

    def axis_names(self, workload) -> Collection[str]:
        if self.axis is not None:
            return self.axis
        return (workload.registry if workload.registry is not None
                else REGISTRY)


# Ordered: the paper's mechanism first.  Return-value corruption is an
# alternative to it, not an environment fault, so ``--fault-family
# all`` leaves it out.
FAMILIES = {family.mechanism: family for family in (
    FaultFamily("parameter", "param", "parameter corruption", FaultSpec,
                Injector, generate_fault_list),
    FaultFamily("return", "return", "return-value corruption",
                ReturnFaultSpec, ReturnInjector, generate_return_fault_list,
                in_comparison=False),
    FaultFamily("io", "io", "I/O-path faults", IoFault, IoInjector,
                lambda ops, *_: generate_io_fault_list(ops), IO_OPS),
    FaultFamily("resource", "resource", "resource exhaustion",
                ResourceFault, ResourceInjector,
                lambda kinds, *_: generate_resource_fault_list(kinds),
                RESOURCE_KINDS),
)}


def get_family(key: str) -> FaultFamily:
    """The family whose mechanism or short name is ``key``."""
    for family in FAMILIES.values():
        if key in (family.mechanism, family.name):
            return family
    raise ValueError(f"unknown mechanism {key!r} "
                     f"(want one of {', '.join(FAMILIES)})")


def split_functions(mechanisms: Sequence[str],
                    functions: Optional[Sequence[str]],
                    workload) -> dict[str, Optional[list[str]]]:
    """The ``functions`` rule of ``repro run`` and the serve daemon.

    Every name must lie on the axis of at least one selected family,
    else :class:`ValueError` lists the legal names.  Each family gets
    the names on its own axis; one that gets none (or ``functions``
    None) maps to None and runs its full space.
    """
    axes = {mechanism: FAMILIES[mechanism].axis_names(workload)
            for mechanism in mechanisms}
    stray = [name for name in functions or ()
             if not any(name in axis for axis in axes.values())]
    if stray:
        legal = "; ".join(
            f"{FAMILIES[mechanism].name}: " + (
                ", ".join(axis) if len(axis) <= 10
                else f"any of the workload's {len(axis)} exports")
            for mechanism, axis in axes.items())
        raise ValueError(f"not on any selected family's axis: "
                         f"{', '.join(stray)} (legal names — {legal})")
    return {mechanism: [name for name in functions or () if name in axis]
            or None for mechanism, axis in axes.items()}
