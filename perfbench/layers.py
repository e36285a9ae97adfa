"""Layer tracing for the traced pass, from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer of the
``repro`` package (attribute patches undone by :meth:`uninstall`) and
adds a ``gc.callbacks`` hook.  Nothing here runs during an untraced
pass.  Spans are kept in memory as per-layer aggregates and per-run
phase records; :meth:`LayerTracer.dump` writes them out when the run
ends.

Self time: the sim-side layers (engine loop, kernel32 dispatch,
argument marshalling, transport, handler builds, GC pauses) share one
stack.  Each interval between two span boundaries is charged to the
label on top of the stack, so a layer's self time excludes the child
spans nested in it, and ``engine`` (``Machine.run``) keeps only what
no other wrapped layer claimed: the event loop, sim processes and the
server models.  Generator entry points (kernel32 handlers,
``Transport.connect``) are driven by hand so that time spent suspended
in the engine is not charged to them.

Run phases come from marks at layer boundaries inside one run:
setup is ``Machine()`` up to the end of ``deploy_middleware``; boot
runs from there until the harness sees the port listening; client
runs until the DTS shutdown signal; shutdown is the grace period plus
``Machine.shutdown``; collect is ``collect``.  Whatever is left of the
run's wall time is ``unattributed``.
"""

from __future__ import annotations

import concurrent.futures
import gc
import json
import threading
import time
from collections import defaultdict

PHASES = ("setup", "boot", "client", "shutdown", "collect")
_SIM_LABELS = ("engine", "k32", "memory", "net", "build", "gc")

perf_counter = time.perf_counter
_INHERITED = object()


class _RunRecord:
    """Phase marks of one simulated run (one ``execute_run`` call)."""

    __slots__ = ("start", "end", "setup_start", "deploy_end", "boot_end",
                 "shut_start", "shut_end", "machine_shutdown", "collect",
                 "boot_polls")

    def __init__(self, start: float):
        self.start = start
        self.end = None
        self.setup_start = None
        self.deploy_end = None
        self.boot_end = None
        self.shut_start = None
        self.shut_end = None
        self.machine_shutdown = 0.0
        self.collect = 0.0
        self.boot_polls = 0

    def phases(self) -> dict:
        setup = _span(self.setup_start, self.deploy_end)
        boot = _span(self.deploy_end, self.boot_end)
        client = _span(self.boot_end, self.shut_start)
        shutdown = _span(self.shut_start, self.shut_end) + \
            self.machine_shutdown
        return {"setup": setup, "boot": boot, "client": client,
                "shutdown": shutdown, "collect": self.collect,
                "wall": self.end - self.start}


def _span(start, end) -> float:
    if start is None or end is None:
        return 0.0
    return end - start


class LayerTracer:
    """Counts and times calls into every layer while installed."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.self_time = dict.fromkeys(_SIM_LABELS, 0.0)
        self.samples = defaultdict(list)   # name -> [seconds]
        self.runs: list[_RunRecord] = []
        self.gc_collected = 0
        self._stack: list[str] = []
        self._last = 0.0
        self._run = None
        self._in_engine = False
        self._gc_started = None
        self._jobs_by_spec = {}
        self._patches = []

    # ------------------------------------------------------------------
    # Self-time stack
    # ------------------------------------------------------------------
    def _push(self, label: str) -> None:
        now = perf_counter()
        if self._stack:
            self.self_time[self._stack[-1]] += now - self._last
        self._stack.append(label)
        self._last = now

    def _pop(self) -> None:
        now = perf_counter()
        self.self_time[self._stack.pop()] += now - self._last
        self._last = now

    def _timed_call(self, label: str, function, *args, **kwargs):
        self._push(label)
        try:
            return function(*args, **kwargs)
        finally:
            self._pop()

    def _timed_generator(self, label: str, generator):
        """``yield from generator``, charging only its running time."""
        method, argument = generator.send, None
        while True:
            self._push(label)
            try:
                value = method(argument)
            except StopIteration as stop:
                return stop.value
            finally:
                self._pop()
            try:
                argument = yield value
                method = generator.send
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # re-raised into the generator
                method, argument = generator.throw, exc

    # ------------------------------------------------------------------
    # Run boundaries
    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        self._run = _RunRecord(perf_counter())

    def end_run(self) -> None:
        run = self._run
        if run is not None:
            run.end = perf_counter()
            self.runs.append(run)
        self._run = None

    def traced_run(self, function):
        """Wrap a run entry point (``execute_run``) with begin/end."""
        def run(*args, **kwargs):
            self.begin_run()
            try:
                return function(*args, **kwargs)
            finally:
                self.end_run()
        return run

    def _mark(self, name: str) -> None:
        """Stamp a phase boundary of the current run (first time only)."""
        run = self._run
        if run is not None and getattr(run, name) is None:
            setattr(run, name, perf_counter())

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append(
            (owner, name, owner.__dict__.get(name, _INHERITED)))
        setattr(owner, name, replacement)

    def install(self) -> "LayerTracer":
        import repro.core.campaign as campaign_module
        import repro.core.exec as exec_module
        import repro.core.runner as runner_module
        import repro.load.runner as load_runner_module
        import repro.nt.context as context_module
        from repro.core.exec import ProcessPoolBackend
        from repro.core.store import RunStore, ShardedRunStore, _StoreIndex
        from repro.core.workload import WorkloadSpec
        from repro.net.transport import Transport
        from repro.nt.machine import Machine
        from repro.nt.memory import AddressSpace
        from repro.serve.jobs import JobQueue
        from repro.serve.spec import CampaignJobSpec

        tracer = self
        counts = self.counts

        # --- core.runner: run boundaries and phase marks --------------
        for module in (exec_module, campaign_module):
            self._patch(module, "execute_run",
                        self.traced_run(module.execute_run))

        def machine_factory(original):
            def build(*args, **kwargs):
                tracer._mark("setup_start")
                return original(*args, **kwargs)
            return build

        for module in (runner_module, load_runner_module):
            self._patch(module, "Machine", machine_factory(module.Machine))

        def arm_fault_factory(original):
            def arm_fault(*args, **kwargs):
                counts["runner.arm_fault"] += 1
                return original(*args, **kwargs)
            return arm_fault

        for module in (runner_module, load_runner_module):
            self._patch(module, "arm_fault",
                        arm_fault_factory(module.arm_fault))

        def graceful_factory(original):
            def graceful(machine):
                tracer._mark("shut_start")
                try:
                    return original(machine)
                finally:
                    tracer._mark("shut_end")
            return graceful

        for module in (runner_module, load_runner_module):
            self._patch(module, "_graceful_shutdown",
                        graceful_factory(module._graceful_shutdown))

        original_collect = runner_module.collect

        def collect(*args, **kwargs):
            started = perf_counter()
            try:
                return original_collect(*args, **kwargs)
            finally:
                if tracer._run is not None:
                    tracer._run.collect += perf_counter() - started

        self._patch(runner_module, "collect", collect)

        setup = WorkloadSpec.setup
        deploy = WorkloadSpec.deploy_middleware
        make_client = WorkloadSpec.make_client

        def workload_setup(spec, machine):
            counts["runner.workload_setups"] += 1
            return setup(spec, machine)

        def deploy_middleware(spec, *args, **kwargs):
            try:
                return deploy(spec, *args, **kwargs)
            finally:
                tracer._mark("deploy_end")

        def client_factory(spec):
            if not tracer._in_engine:
                tracer._mark("boot_end")
            return make_client(spec)

        self._patch(WorkloadSpec, "setup", workload_setup)
        self._patch(WorkloadSpec, "deploy_middleware", deploy_middleware)
        self._patch(WorkloadSpec, "make_client", client_factory)

        # --- sim.engine via the machine --------------------------------
        machine_run = Machine.run
        machine_shutdown = Machine.shutdown

        def run(machine, until):
            run_record = tracer._run
            if run_record is not None and run_record.deploy_end is not None \
                    and run_record.boot_end is None:
                run_record.boot_polls += 1
            counts["engine.bursts"] += 1
            tracer._in_engine = True
            tracer._push("engine")
            try:
                return machine_run(machine, until)
            finally:
                tracer._pop()
                tracer._in_engine = False

        def shutdown(machine):
            started = perf_counter()
            try:
                return machine_shutdown(machine)
            finally:
                counts["engine.events"] += machine.engine.events_processed
                if tracer._run is not None:
                    tracer._run.machine_shutdown += perf_counter() - started

        self._patch(Machine, "run", run)
        self._patch(Machine, "shutdown", shutdown)

        # --- net.transport ---------------------------------------------
        is_listening = Transport.is_listening
        connect = Transport.connect
        send = Transport.send

        def transport_is_listening(transport, port):
            listening = tracer._timed_call("net", is_listening,
                                           transport, port)
            if listening and not tracer._in_engine:
                tracer._mark("boot_end")
            return listening

        def transport_connect(transport, *args, **kwargs):
            counts["transport.connects"] += 1
            return (yield from tracer._timed_generator(
                "net", connect(transport, *args, **kwargs)))

        def transport_send(transport, *args, **kwargs):
            counts["transport.sends"] += 1
            return tracer._timed_call("net", send, transport,
                                      *args, **kwargs)

        self._patch(Transport, "is_listening", transport_is_listening)
        self._patch(Transport, "connect", transport_connect)
        self._patch(Transport, "send", transport_send)

        # --- nt.context: handler builds and the handlers they return ---
        build_call_handler = context_module.build_call_handler

        def build(ctx, sig):
            counts["k32.handler_builds"] += 1
            handler = tracer._timed_call("build", build_call_handler,
                                         ctx, sig)

            def call(*args):
                counts["k32.calls"] += 1
                return (yield from tracer._timed_generator(
                    "k32", handler(*args)))

            call.__name__ = handler.__name__
            call.__qualname__ = handler.__qualname__
            return call

        self._patch(context_module, "build_call_handler", build)

        # --- nt.memory ---------------------------------------------------
        encode = AddressSpace.encode
        decode = AddressSpace.decode

        def space_encode(space, value):
            counts["memory.encodes"] += 1
            return tracer._timed_call("memory", encode, space, value)

        def space_decode(space, raw, pointer_like):
            counts["memory.decodes"] += 1
            return tracer._timed_call("memory", decode, space, raw,
                                      pointer_like)

        self._patch(AddressSpace, "encode", space_encode)
        self._patch(AddressSpace, "decode", space_decode)

        # --- core.store ----------------------------------------------------
        samples = self.samples
        store_get = _StoreIndex.get

        def timed_sample(name, function):
            def timed(*args, **kwargs):
                started = perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    samples[name].append(perf_counter() - started)
            return timed

        def get(store, fingerprint, fault):
            result = store_get(store, fingerprint, fault)
            counts["store.gets"] += 1
            if result is not None:
                counts["store.hits"] += 1
            return result

        for store_class in (RunStore, ShardedRunStore):
            self._patch(store_class, "__init__", timed_sample(
                "store.open", store_class.__init__))
            self._patch(store_class, "put", timed_sample(
                "store.put", store_class.put))
            self._patch(store_class, "get", get)

        # --- core.exec -------------------------------------------------
        run_tasks = ProcessPoolBackend.run_tasks

        def pool_run_tasks(backend, tasks, *args, **kwargs):
            if not tasks:
                return run_tasks(backend, tasks, *args, **kwargs)
            return timed_sample("exec.wave", run_tasks)(
                backend, tasks, *args, **kwargs)

        self._patch(ProcessPoolBackend, "run_tasks", pool_run_tasks)

        executor_submit = concurrent.futures.ProcessPoolExecutor.submit
        run_chunk = exec_module._run_chunk

        def submit(executor, fn, *args, **kwargs):
            future = executor_submit(executor, fn, *args, **kwargs)
            if fn is run_chunk:
                counts["exec.chunks"] += 1
                started = perf_counter()
                future.add_done_callback(lambda _future: samples[
                    "exec.chunk"].append(perf_counter() - started))
            return future

        self._patch(concurrent.futures.ProcessPoolExecutor, "submit",
                    submit)

        # --- serve: queue wait (submission to execution start) -------
        queue_submit = JobQueue.submit
        spec_campaign = CampaignJobSpec.campaign

        def job_submit(queue, spec):
            job = queue_submit(queue, spec)
            tracer._jobs_by_spec[id(spec)] = job
            return job

        def campaign(spec, *args, **kwargs):
            job = tracer._jobs_by_spec.pop(id(spec), None)
            if job is not None:
                samples["serve.queue"].append(
                    time.monotonic() - job.submitted_at)
            return spec_campaign(spec, *args, **kwargs)

        self._patch(JobQueue, "submit", job_submit)
        self._patch(CampaignJobSpec, "campaign", campaign)

        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
            self.counts[f"gc.gen{info['generation']}"] += 1
            # Only the single-threaded sim passes use the stack; a
            # collection in a daemon thread is timed but not stacked.
            if threading.current_thread() is threading.main_thread():
                self._push("gc")
        elif self._gc_started is not None:
            self.samples["gc.pause"].append(perf_counter() -
                                            self._gc_started)
            self.gc_collected += info["collected"]
            self._gc_started = None
            if self._stack and self._stack[-1] == "gc":
                self._pop()

    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write the in-memory spans (aggregates and run phases)."""
        payload = {
            "counts": dict(self.counts),
            "self_seconds": self.self_time,
            "samples": {name: values
                        for name, values in self.samples.items()},
            "runs": [run.phases() for run in self.runs],
            "gc_collected": self.gc_collected,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")
