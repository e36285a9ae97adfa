"""Return-value corruption: an alternative fault-injection mechanism.

Section 2 of the paper stresses that "the basic DTS architecture is not
dependent on a particular fault injection mechanism" — parameter
corruption is merely the initial implementation.  This module plugs a
second mechanism into the same interception layer: corrupt the *result*
a library call hands back to the application (the technique of
Ghosh & Schmid's NT wrapping work the paper cites).

A return-value fault emulates a different fault class than a parameter
fault: the OS performed the operation correctly, but the application
*believes* it failed (zero), succeeded wildly (ones), or got garbage
(flip) — pure error-handling-path testing.
"""

from __future__ import annotations

from typing import Optional

from ..nt.interception import ReturnHook
from ..nt.kernel32.signatures import REGISTRY, FunctionSig
from .faults import DEFAULT_FAULT_TYPES, MASK32, FaultBase, FaultType
from .injector import OneShotInjector


class ReturnFaultSpec(FaultBase):
    """One injectable return-value fault."""

    __slots__ = ("function", "fault_type", "invocation")

    def __init__(self, function: str, fault_type: FaultType,
                 invocation: int = 1):
        if invocation < 1:
            raise ValueError(f"invocation index must be >= 1, got {invocation}")
        self.function = function
        self.fault_type = fault_type
        self.invocation = invocation

    def __repr__(self) -> str:
        return (f"<ReturnFault {self.function}() -> "
                f"{self.fault_type.value}@{self.invocation}>")


class ReturnInjector(OneShotInjector, ReturnHook):
    """Arms a single :class:`ReturnFaultSpec` against one process role.

    Unlike parameter corruption, *every* export is a candidate — the
    130 parameter-less functions included (they still return values).
    """

    def install(self, machine) -> None:
        machine.interception.add_return_hook(self)

    def on_return(self, process, sig: FunctionSig, invocation: int,
                  result: int) -> Optional[int]:
        if not self._fires(process, sig):
            return None
        corrupted = self.fault.fault_type.apply(result & MASK32)
        self.was_noop = corrupted == (result & MASK32)
        machine = process.machine
        tracer = machine.tracer
        if tracer is not None and tracer.outcome_enabled:
            # Return hooks run after dispatch counted this call.
            tracer.emit(machine.engine.now, "fault", "activated",
                        pid=process.pid, function=sig.name,
                        invocation=invocation, original=result,
                        corrupted=corrupted, noop=self.was_noop,
                        call_index=machine.interception.total_calls)
        if self.was_noop:
            return None  # value-preserving: activated but a no-op
        return corrupted


def generate_return_fault_list(functions=None, fault_types=None,
                               invocations=(1,),
                               registry=None) -> list[ReturnFaultSpec]:
    """Enumerate the return-value fault space (one fault per function ×
    type × invocation — parameters are irrelevant here).  ``registry``
    defaults to the KERNEL32 export table."""
    table = registry if registry is not None else REGISTRY
    names = list(functions) if functions is not None else list(table)
    for name in names:
        if name not in table:
            raise KeyError(name)
    fault_types = tuple(fault_types or DEFAULT_FAULT_TYPES)
    return [
        ReturnFaultSpec(name, fault_type, invocation)
        for name in names
        for invocation in invocations
        for fault_type in fault_types
    ]
