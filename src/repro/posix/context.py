"""The libc view a simulated Linux program gets of its machine.

Mirrors :class:`repro.nt.context.Win32Context`, but dispatches through
the libc registry.  The *same* interception layer sits in the middle —
which is the paper's portability claim made concrete: the injector,
fault lists and campaign flow run unmodified; only this system-
dependent dispatch (the "JNI component") is new.
"""

from __future__ import annotations

import inspect
from typing import Any

from ..nt.kernel32 import runtime
from ..sim import Sleep
from .libc import LIBC_IMPLEMENTATIONS, LIBC_REGISTRY


class UnknownLibcExportError(AttributeError):
    """A program referenced a function libc does not export."""


_BLOCKING = {name for name, fn in LIBC_IMPLEMENTATIONS.items()
             if inspect.isgeneratorfunction(fn)}


class _LibcProxy:
    __slots__ = ("_ctx",)

    def __init__(self, ctx: "PosixContext"):
        self._ctx = ctx

    def __getattr__(self, name: str):
        sig = LIBC_REGISTRY.get(name)
        if sig is None:
            raise UnknownLibcExportError(f"libc has no export {name!r}")
        ctx = self._ctx

        def call(*args: Any):
            return ctx._invoke(sig, args)

        call.__name__ = name
        return call


class PosixContext:
    """Per-process gateway to the simulated Linux machine."""

    def __init__(self, machine, process):
        self.machine = machine
        self.process = process
        self.libc = _LibcProxy(self)

    def release(self) -> None:
        """Machine teardown: drop every reference this context holds
        (see :meth:`repro.nt.context.Win32Context.release`)."""
        self.machine = self.process = self.libc = None

    @property
    def now(self) -> float:
        return self.machine.engine.now

    def compute(self, seconds: float):
        yield Sleep(seconds * self.machine.cpu_scale)

    def memory(self, address: int):
        return self.machine.address_space.resolve(address)

    def _invoke(self, sig, sem_args):
        if len(sem_args) != len(sig.params):
            raise TypeError(
                f"{sig.name} takes {len(sig.params)} arguments,"
                f" got {len(sem_args)}")
        space = self.machine.address_space
        raw_args = tuple(space.encode(value) for value in sem_args)
        raw_args, override = self.machine.interception.dispatch(
            self.process, sig, raw_args)
        if override is not None:
            if override.delay > 0.0:
                yield Sleep(override.delay)
            if override.skip:
                # errno shares the last-error slot on the Linux port
                self.process.last_error = override.last_error
                return self.machine.interception.dispatch_return(
                    self.process, sig, override.result)
        decoded = [
            space.decode(raw, spec.ptype.pointer_like)
            for raw, spec in zip(raw_args, sig.params)
        ]
        frame = runtime.Frame(self.machine, self.process, sig, decoded)
        impl = LIBC_IMPLEMENTATIONS.get(sig.name)
        if impl is None:
            result = runtime.generic_implementation(frame)
        elif sig.name in _BLOCKING:
            result = yield from impl(frame)
        else:
            result = impl(frame)
        return self.machine.interception.dispatch_return(
            self.process, sig, result)
