"""The libc view a simulated Linux program gets of its machine.

A :class:`PosixContext` is a :class:`repro.nt.context.Win32Context`
sibling that names the libc export table instead of kernel32: programs
call ``yield from ctx.libc.open(...)``, and every call runs the same
per-signature handler (:func:`repro.nt.context.build_call_handler`)
through the same interception layer.  That is the paper's portability
claim made concrete: the injector, fault lists and campaign flow run
unmodified; only the table this context names (the "JNI component")
is new.
"""

from __future__ import annotations

from ..nt.context import DispatchContext, ExportProxy
from .libc import LIBC_IMPLEMENTATIONS, LIBC_REGISTRY


class PosixContext(DispatchContext):
    """Per-process gateway to the simulated Linux machine."""

    registry = LIBC_REGISTRY
    implementations = LIBC_IMPLEMENTATIONS
    library = "libc"

    __slots__ = ("libc",)

    def __init__(self, machine, process):
        super().__init__(machine, process)
        self.libc = ExportProxy(self)
