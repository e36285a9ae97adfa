"""The Win32 view a simulated program gets of its machine.

A program's ``main(ctx)`` generator receives a :class:`Win32Context`.
Library calls go through ``ctx.k32`` and **must** be delegated with
``yield from`` so that blocking calls (waits, sleeps) can suspend the
calling thread::

    handle = yield from ctx.k32.CreateFileA("c:\\conf\\httpd.conf",
                                            GENERIC_READ, 0, None,
                                            OPEN_EXISTING, 0, None)
    status = yield from ctx.k32.WaitForSingleObject(child, 5000)

Every call runs a flattened per-signature *handler*, compiled by
:func:`build_call_handler` the first time any process touches an
export and bound to the calling process's context — the only dispatch
path, also for the Linux port's ``ctx.libc``
(:class:`repro.posix.context.PosixContext`):

1. semantic arguments are lowered to raw 32-bit words,
2. the interception layer lets hooks (the fault injector) rewrite them,
3. the raw words are decoded back against the declared signature,
4. the implementation (specific or generic) runs on the decoded frame.

Step 2/3 is exactly where a corrupted word changes meaning: a zeroed
string pointer decodes as NULL, a flipped handle stops resolving, an
all-ones size means four gigabytes.

The handler is a single generator frame.  What is fixed per signature
— the implementation, its blocking-ness, the arity, the per-parameter
pointer flags — is captured once, when the handler is compiled, and
the handler is cached on the :class:`FunctionSig` and shared by every
process of every machine.  What belongs to one process — the hook
lists, the invocation counters, the called set, the encoder/decoder,
the tracer — is read through ``ctx`` at call time, from slots the
context binds on its first resolution.  The hook list and return-hook
list are bound *by object identity*, so hooks added or removed later
(``add_hook`` mutates the list in place) are still honoured on the
next call.

At machine teardown :meth:`DispatchContext.release` drops every
reference the context holds, which breaks the cycles through its
proxy's memoised (context-bound) handlers.
"""

from __future__ import annotations

import inspect
from types import MethodType
from typing import TYPE_CHECKING, Any

from ..sim import Sleep
from .interception import CallOverride
from .kernel32 import runtime
from .kernel32.signatures import REGISTRY, FunctionSig
from .memory import MASK32, ArgKind, DecodedArg

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .machine import Machine
    from .process_manager import NTProcess


class UnknownExportError(AttributeError):
    """A program referenced a function its library does not export."""


def build_call_handler(ctx: "DispatchContext", sig: FunctionSig):
    """Resolve one export for one process: the signature's handler,
    bound to ``ctx``.

    The handler itself is compiled the first time any process resolves
    ``sig`` and cached on the signature; it captures only what is fixed
    per signature (name, arity, pointer flags, the implementation from
    ``ctx.implementations`` and its blocking-ness).  Everything
    per-process or per-machine — the hook lists, the per-pid invocation
    dict, the per-role called set, the encoder/decoder, the tracer — is
    read through ``ctx`` at call time, from slots
    :meth:`DispatchContext._bind` fills on the process's
    first resolution.  The hook lists are bound by identity, so hooks
    added or removed later are still honoured on the next call.
    """
    if ctx._per_pid is None:
        ctx._bind()
    try:
        return MethodType(sig._handler, ctx)
    except AttributeError:
        pass
    name = sig.name
    nparams = len(sig.params)
    pointer_flags = sig.pointer_flags
    has_pointers = any(pointer_flags)
    impl = ctx.implementations.get(name)
    if impl is None:
        impl = runtime.generic_implementation
    blocking = inspect.isgeneratorfunction(impl)
    Frame = runtime.Frame

    def call(ctx: "DispatchContext", *sem_args: Any):
        if len(sem_args) != nparams:
            raise TypeError(
                f"{name} takes {nparams} arguments, got {len(sem_args)}"
            )
        # --- 1. encode: semantic arguments to raw 32-bit words -------
        # (left-to-right, like the interning order corrupted-address
        # determinism depends on; plain ints — handles, sizes, flags —
        # take the inline path, everything else the full encoder)
        raw_list = []
        for value in sem_args:
            if type(value) is int:
                raw_list.append(value & MASK32)
            elif value is None:
                raw_list.append(0)
            else:
                raw_list.append(ctx._encode(value))
        raw_args = tuple(raw_list)
        # --- 2. interception: hooks may rewrite the raw words, or ----
        # preempt the call outright (a CallOverride: I/O and resource
        # faults fail or delay the call without touching its arguments)
        process = ctx.process
        per_pid = ctx._per_pid
        invocation = per_pid.get(name, 0) + 1
        per_pid[name] = invocation
        injected = False
        override = None
        hooks = ctx._hooks
        if hooks:
            for hook in hooks:
                replacement = hook.on_call(process, sig, invocation, raw_args)
                if replacement is not None:
                    if replacement.__class__ is CallOverride:
                        override = replacement
                    else:
                        raw_args = replacement
                    injected = True
        ctx._called_add(name)
        call_counts = ctx._call_counts
        call_counts[name] = call_counts.get(name, 0) + 1
        tracer = ctx._tracer
        if tracer is not None and tracer.calls_enabled:
            tracer.emit(ctx._engine.now, "call", "enter",
                        pid=process.pid, role=process.role, func=name,
                        invocation=invocation, injected=injected)
        if override is not None:
            if override.delay > 0.0:
                yield Sleep(override.delay)
            if override.skip:
                process.last_error = override.last_error
                result = override.result
                if not ctx._return_hooks:
                    if tracer is None or not tracer.calls_enabled:
                        return result
                return ctx._interception.dispatch_return(process, sig,
                                                         result)
        # --- 3. decode: raw words back against the declared types ----
        int_args = ctx._int_args
        decoded = []
        if has_pointers:
            decode = ctx._decode
            for raw, pointer_like in zip(raw_args, pointer_flags):
                if pointer_like:
                    decoded.append(decode(raw, True))
                else:
                    raw &= MASK32
                    arg = int_args.get(raw)
                    if arg is None:
                        arg = int_args[raw] = DecodedArg(raw, ArgKind.INT)
                    decoded.append(arg)
        else:
            for raw in raw_args:
                raw &= MASK32
                arg = int_args.get(raw)
                if arg is None:
                    arg = int_args[raw] = DecodedArg(raw, ArgKind.INT)
                decoded.append(arg)
        # --- 4. run the implementation on the decoded frame ----------
        frame = Frame(ctx.machine, process, sig, decoded)
        if blocking:
            result = yield from impl(frame)
        else:
            result = impl(frame)
        if not ctx._return_hooks:
            if tracer is None or not tracer.calls_enabled:
                return result  # nothing observes returns on this run
        return ctx._interception.dispatch_return(process, sig, result)

    call.__name__ = name
    call.__qualname__ = f"{ctx.library}.{name}"
    sig._handler = call
    return MethodType(call, ctx)


class ExportProxy:
    """Attribute-style access to a context's export table:
    ``ctx.k32.ReadFile``, ``ctx.libc.open``.

    Resolution binds the signature's handler (see
    :func:`build_call_handler`) to the context and memoises the bound
    method into the instance dict, so each export pays the
    ``__getattr__`` once per process rather than once per call.
    """

    def __init__(self, ctx: "DispatchContext"):
        self._ctx = ctx

    def __getattr__(self, name: str):
        ctx = self._ctx
        sig = ctx.registry.get(name)
        if sig is None:
            raise UnknownExportError(
                f"ctx.{ctx.library} has no export {name!r}")
        call = build_call_handler(ctx, sig)
        setattr(self, name, call)
        return call


class DispatchContext:
    """Per-process gateway to one library's export table.

    A subclass names the table: ``registry`` (name to
    :class:`FunctionSig`), ``implementations`` (name to implementation;
    unlisted exports run the generic one) and ``library``, the proxy
    attribute programs call through.
    """

    registry: dict[str, FunctionSig]
    implementations: dict[str, Any]
    library: str

    # The underscored slots are the per-process dispatch state the
    # shared handlers read at call time; None until the process
    # resolves its first export (see _bind).
    __slots__ = ("machine", "process", "_interception", "_hooks",
                 "_return_hooks", "_per_pid", "_called_add", "_call_counts",
                 "_encode", "_decode", "_int_args", "_engine", "_tracer")

    def __init__(self, machine: "Machine", process: "NTProcess"):
        self.machine = machine
        self.process = process
        self._per_pid = None

    def _bind(self) -> None:
        """Bind the dispatch state on the process's first resolution:
        the per-pid invocation dict and per-role called set come into
        being here, exactly when the process first touches its library."""
        machine = self.machine
        process = self.process
        interception = machine.interception
        space = machine.address_space
        self._interception = interception
        self._hooks = interception.hooks
        self._return_hooks = interception.return_hooks
        self._per_pid = interception._invocations.setdefault(process.pid, {})
        self._called_add = interception._called_by_role.setdefault(
            process.role, set()).add
        self._call_counts = interception._call_counts
        self._encode = space.encode
        self._decode = space.decode
        self._int_args = space._int_args
        self._engine = machine.engine
        self._tracer = machine.tracer  # fixed at Machine construction

    def release(self) -> None:
        """Machine teardown: drop every reference this context holds.
        Its proxy's memoised handlers are bound to it, and objects the
        program handed to the library (interned by the address space)
        may hold it, so either link would otherwise close a cycle."""
        for cls in type(self).__mro__[:-1]:
            for name in cls.__slots__:
                setattr(self, name, None)

    @property
    def now(self) -> float:
        return self.machine.engine.now

    def memory(self, address: int):
        """Resolve a raw pointer (e.g. a HeapAlloc result) back to its
        buffer — the program-side equivalent of dereferencing it."""
        return self.machine.address_space.resolve(address)

    def compute(self, seconds: float):
        """Model CPU-bound work; scales with the machine's clock speed
        and with any active CPU-starvation tax (a resource fault)."""
        machine = self.machine
        yield Sleep(seconds * machine.cpu_scale
                    * machine.pressure.cpu_tax(self.process.role))


class Win32Context(DispatchContext):
    """Per-process gateway to the simulated NT machine."""

    registry = REGISTRY
    implementations = runtime.IMPLEMENTATIONS
    library = "k32"

    __slots__ = ("k32",)

    def __init__(self, machine: "Machine", process: "NTProcess"):
        super().__init__(machine, process)
        self.k32 = ExportProxy(self)

    # ------------------------------------------------------------------
    # Conveniences for program code (not part of the Win32 surface)
    # ------------------------------------------------------------------
    def log_debug(self, message: str) -> None:
        """Program-side diagnostics kept on the machine for tests."""
        self.machine.debug_log.append((self.now, self.process.pid, message))
