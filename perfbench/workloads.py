"""The benchmark's three workloads: paper-grid, load-apache, serve-mixed.

Each workload turns ``(seed, seconds)`` into fixed inputs, sets the
program up, runs one *pass* over the inputs, and checks the outputs.
A pass returns a :class:`PassResult`: raw and host-speed-scaled wall
time and per-operation latencies (see ``calibrate.py``), the executed
run count, a census digest of every output, and the failed checks.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import http.client
import json
import os
import pstats
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from calibrate import Calibrator
from repro.analysis.experiment import MIDDLEWARE as GRID_MIDDLEWARE
from repro.analysis.experiment import WORKLOADS as GRID_WORKLOADS
from repro.analysis.experiment import ExperimentSuite
from repro.analysis.report import shape_checks
from repro.core.campaign import profile_workload
from repro.core.exec import ProcessPoolBackend, SerialBackend
from repro.core.plan import plan_campaign
from repro.core.runner import RunConfig
from repro.core.store import ShardedRunStore, fault_key_str, serialize_result
from repro.core.workload import MiddlewareKind, get_workload
from repro.load import LoadSpec, execute_load_run
from repro.net.transport import ConnectionLeakError
from repro.serve import ReproServer, spec_from_dict

perf_counter = time.perf_counter

SETUP_REPEATS = 3
# Input sizes per requested second, calibrated so a pass lasts about
# ``--seconds`` on a 2-core host; the floor keeps at least 100 latency
# samples, so a p90 has ten samples beyond it.
LOAD_RUNS_PER_SECOND = 14
SERVE_JOBS_PER_SECOND = 7
MIN_OPS = 100
LOAD_INPUTS = 4
LOAD_CLIENTS = 100
LOAD_ITERATIONS = 2
SERVE_WORKLOADS = ("IIS", "Apache1", "SQL")
SERVE_MIDDLEWARE = ("none", "watchd")
# The serve job mix is fixed; the seed draws base seeds and the order.
SERVE_MIX_SEED = 2000
POLL_FIRST, POLL_MAX = 0.001, 0.004
SERVE_POLL_INTERVAL = 0.05
JOB_TIMEOUT = 120.0


class PassResult:
    """What one pass over a workload's inputs measured."""

    def __init__(self):
        self.raw_wall = 0.0      # seconds of the measured region
        self.raw_busy = 0.0      # seconds the run throughput is over
        self.raw_ops: list[tuple[float, float]] = []  # (end, seconds)
        self.wall = self.busy = 0.0   # the same, host-speed scaled
        self.ops: list[float] = []
        self.runs = 0            # simulated runs executed
        self.attempted = 0
        self.failures: list[str] = []
        self.census = hashlib.sha256()
        self.figures: dict = {}  # workload-specific extras

    def op(self, started: float, ended: float) -> None:
        self.raw_ops.append((ended, ended - started))

    @property
    def raw_seconds(self) -> list[float]:
        return [seconds for _end, seconds in self.raw_ops]

    def scale(self, calibrator: Calibrator) -> None:
        """Fill the scaled figures from the raw ones."""
        self.ops = calibrator.scale_ops(self.raw_ops)
        raw_total = sum(self.raw_seconds)
        factor = sum(self.ops) / raw_total if raw_total else 1.0
        self.wall = self.raw_wall * factor
        self.busy = self.raw_busy * factor
        self.figures["reference_ms"] = calibrator.median_ms

    @property
    def digest(self) -> str:
        return self.census.hexdigest()


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True)
                          .encode("utf-8")).hexdigest()


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, point: int) -> float:
    """The ``point``-th percentile (0 for no samples)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[point - 1]


class Workload:
    """Common shape: inputs from the seed, set-up, passes, checks."""

    name = ""
    imports = ""     # what a user's process imports before any work

    def __init__(self, root: str, workdir: str, seed: int, seconds: int):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds

    def timed_setup(self) -> float:
        """Seconds of one set-up, from a fresh interpreter's imports on.

        Raw host time: imports are mostly file reads and compilation,
        which the reference slice does not track (scaling by it made
        set-up time noisier, not steadier)."""
        self.close()
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        started = perf_counter()
        subprocess.run([sys.executable, "-c", f"import {self.imports}"],
                       cwd=self.root, env=env, check=True)
        self.setup()
        return perf_counter() - started

    def setup(self) -> None:
        """Program set-up beyond the imports; repeatable."""

    def run_pass(self, tracer=None) -> PassResult:
        raise NotImplementedError

    def check(self, passes: list[PassResult]) -> None:
        """Checks that need more than one pass's own outputs."""

    def summary(self, result: PassResult) -> list[tuple]:
        """The workload's own names for its end-to-end figures:
        ``(name, scaled, raw, unit, sample count or None)``."""
        raise NotImplementedError

    def profile(self) -> pstats.Stats:
        raise NotImplementedError

    def close(self) -> None:
        """Release whatever set-up left running."""


def _latency(name: str, scaled: list, raw: list, point: int,
             unit_seconds: float, unit: str) -> list[tuple]:
    """Median and ``point``-th percentile rows for one latency."""
    return [(f"{name}.p50", median(scaled) / unit_seconds,
             median(raw) / unit_seconds, unit, len(scaled)),
            (f"{name}.p{point}", percentile(scaled, point) / unit_seconds,
             percentile(raw, point) / unit_seconds, unit, len(scaled))]


# ----------------------------------------------------------------------
# paper-grid
# ----------------------------------------------------------------------
class _StampedBackend(SerialBackend):
    """Serial backend timing each run between consecutive completions
    (the progress-callback intervals), with reference slices in the
    gaps."""

    def __init__(self, result: PassResult, calibrator: Calibrator):
        self.result = result
        self.calibrator = calibrator

    def run_tasks(self, tasks, workload, middleware, config,
                  on_result=None):
        last = perf_counter()

        def stamp(task, run):
            nonlocal last
            self.result.op(last, perf_counter())
            if on_result is not None:
                on_result(task, run)
            self.calibrator.maybe_sample()
            last = perf_counter()

        return super().run_tasks(tasks, workload, middleware, config,
                                 on_result=stamp)


class GridWorkload(Workload):
    """The full ExperimentSuite grid, serial, no store."""

    name = "paper-grid"
    imports = "repro.analysis.experiment, repro.analysis.report"

    def __init__(self, *args):
        super().__init__(*args)
        self.base_seed = random.Random(self.seed).randrange(1 << 31)

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult()
        calibrator = Calibrator()
        backend = _StampedBackend(result, calibrator)
        gc.collect()
        started = perf_counter()
        suite = ExperimentSuite(base_seed=self.base_seed, backend=backend)
        checks = shape_checks(suite)
        result.raw_wall = result.raw_busy = \
            perf_counter() - started - calibrator.spent
        result.scale(calibrator)
        result.runs = result.attempted = len(result.ops)
        for check in checks:
            if not check.holds:
                result.failures.append(f"shape check deviates: "
                                       f"{check.claim}")
        if not suite.table1().matches_paper():
            result.failures.append("Table 1 does not match the paper")
        sets = {(w, m.value, 3): s
                for (w, m), s in suite.figure2_grid().items()}
        sets.update({(w, "watchd", v): s
                     for (w, v), s in suite.figure5_grid().items()})
        for key in sorted(sets):
            workload_set = sets[key]
            result.census.update(repr(key).encode())
            runs = list(workload_set.runs)
            if workload_set.profile_run is not None:
                runs.insert(0, workload_set.profile_run)
            for run in runs:
                result.census.update(fault_key_str(run.fault).encode())
                result.census.update(
                    _digest(serialize_result(run)).encode())
        for workload in GRID_WORKLOADS:
            for middleware in GRID_MIDDLEWARE:
                called = sorted(suite.profile(workload, middleware))
                result.census.update(
                    repr((workload, middleware.value, called)).encode())
        return result

    def summary(self, result: PassResult) -> list[tuple]:
        return [("runs_per_s", result.runs / result.busy,
                 result.runs / result.raw_busy, "1/s", None),
                *_latency("run_ms", result.ops, result.raw_seconds, 99,
                          1e-3, "ms")]

    def profile(self) -> pstats.Stats:
        suite = ExperimentSuite(base_seed=self.base_seed)
        profiler = cProfile.Profile()
        profiler.enable()
        for workload, middleware in (("IIS", MiddlewareKind.NONE),
                                     ("Apache1", MiddlewareKind.WATCHD),
                                     ("SQL", MiddlewareKind.MSCS)):
            suite.workload_set(workload, middleware)
        profiler.disable()
        return pstats.Stats(profiler)


# ----------------------------------------------------------------------
# load-apache
# ----------------------------------------------------------------------
class LoadWorkload(Workload):
    """Repeated 100-client closed-loop Apache1 load runs."""

    name = "load-apache"
    imports = "repro.load"

    def __init__(self, *args):
        super().__init__(*args)
        rng = random.Random(self.seed)
        distinct = [(rng.randrange(1 << 31), rng.randrange(1000))
                    for _ in range(LOAD_INPUTS)]
        count = max(MIN_OPS, round(self.seconds * LOAD_RUNS_PER_SECOND))
        # Each distinct input repeats count / LOAD_INPUTS times, so the
        # outputs of repetitions can be compared exactly.
        self.inputs = [distinct[index % LOAD_INPUTS]
                       for index in range(count)]
        self.spec = LoadSpec(workload="Apache1", clients=LOAD_CLIENTS,
                             iterations=LOAD_ITERATIONS)

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult()
        calibrator = Calibrator()
        first: dict = {}
        events = 0
        gc.collect()
        for base_seed, rep in self.inputs:
            config = RunConfig(base_seed=base_seed)
            result.attempted += 1
            if tracer is not None:
                tracer.begin_run()
            started = perf_counter()
            try:
                run = execute_load_run(self.spec, rep, config)
            except ConnectionLeakError as exc:
                result.failures.append(f"connection hygiene: {exc}")
                continue
            finally:
                ended = perf_counter()
                if tracer is not None:
                    tracer.end_run()
            result.op(started, ended)
            result.runs += 1
            events += run.engine_events
            digest = _digest({
                "events": run.engine_events,
                "completions": [client.completed for client in run.clients],
                "run": serialize_result(run)})
            if first.setdefault((base_seed, rep), digest) != digest:
                result.failures.append(
                    f"load run (base_seed={base_seed}, rep={rep}) differs "
                    "from its first repetition")
            result.census.update(digest.encode())
            calibrator.maybe_sample()
        # Load runs are the whole measured work; checking is not timed.
        result.raw_wall = result.raw_busy = sum(result.raw_seconds)
        result.scale(calibrator)
        result.figures["engine_events"] = events
        return result

    def summary(self, result: PassResult) -> list[tuple]:
        events = result.figures["engine_events"]
        return [("events_per_s", events / result.wall,
                 events / result.raw_wall, "1/s", None),
                *_latency("load_run_ms", result.ops, result.raw_seconds,
                          90, 1e-3, "ms")]

    def profile(self) -> pstats.Stats:
        profiler = cProfile.Profile()
        profiler.enable()
        for base_seed, rep in self.inputs[:10]:
            execute_load_run(self.spec, rep, RunConfig(base_seed=base_seed))
        profiler.disable()
        return pstats.Stats(profiler)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class _Daemon:
    """An in-process ReproServer on a durable sharded store, serving
    from a background thread.

    Requests open a fresh connection each, as ``curl`` and ``urllib``
    clients do.  (On a kept-alive connection the server's separate
    header and body writes meet the client's delayed ACK and stall
    each response by about 40 ms.)
    """

    def __init__(self, store_dir: str, jobs: int):
        self.store = ShardedRunStore(store_dir, durable=True)
        self.server = ReproServer(("127.0.0.1", 0), self.store, jobs=jobs)
        # A short poll interval, so that closing the daemon for the
        # restart does not wait out serve_forever's default 0.5 s.
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       args=(SERVE_POLL_INTERVAL,),
                                       name="perfbench-serve", daemon=True)
        self.thread.start()
        self.address = self.server.server_address[:2]

    def warm_pool(self) -> None:
        """Fork the worker pool now rather than on the first job."""
        backend = self.server.queue.backend
        if isinstance(backend, ProcessPoolBackend):
            task = plan_campaign([]).profile_task
            backend.run_tasks([task] * (2 * backend.jobs),
                              get_workload("IIS"), MiddlewareKind.NONE,
                              RunConfig())

    def request(self, method: str, path: str, body=None):
        headers = {"Content-Type": "application/json"} if body else {}
        connection = http.client.HTTPConnection(*self.address,
                                                timeout=JOB_TIMEOUT)
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def close(self) -> None:
        self.server.close()
        self.thread.join(timeout=JOB_TIMEOUT)


class ServeWorkload(Workload):
    """Closed-loop submitter against an in-process daemon: cold jobs
    execute and append to the store, warm resubmissions after a daemon
    restart are served from it."""

    name = "serve-mixed"
    imports = "repro.serve, repro.core.campaign"

    def __init__(self, *args):
        super().__init__(*args)
        self.jobs = max(1, min(4, len(os.sched_getaffinity(0))))
        count = max(MIN_OPS, round(self.seconds * SERVE_JOBS_PER_SECOND))
        # A fixed mix: every (workload, middleware) pair equally often,
        # two to five functions each, from the functions the workload
        # calls (so most faults activate and release a full wave).  Jobs
        # of a few dozen runs keep pool wake-ups, which the reference
        # slice cannot scale, a small part of a job's latency.
        mix = random.Random(SERVE_MIX_SEED)
        called = {name: sorted(profile_workload(name, MiddlewareKind.NONE))
                  for name in SERVE_WORKLOADS}
        pairs = [(workload, middleware) for workload in SERVE_WORKLOADS
                 for middleware in SERVE_MIDDLEWARE]
        shapes = []
        for index in range(count):
            workload, middleware = pairs[index % len(pairs)]
            size = 2 + (index // len(pairs)) % 4
            shapes.append((workload, middleware,
                           mix.sample(called[workload], size)))
        rng = random.Random(self.seed)
        rng.shuffle(shapes)
        base_seeds = rng.sample(range(1 << 31), count)
        self.specs = [{"kind": "campaign", "workload": workload,
                       "middleware": middleware, "functions": functions,
                       "base_seed": base_seed}
                      for (workload, middleware, functions), base_seed
                      in zip(shapes, base_seeds)]
        self._daemon = None
        self._store_dir = None

    def setup(self) -> None:
        self.close()
        self._store_dir = tempfile.mkdtemp(prefix="store-",
                                           dir=self.workdir)
        self._daemon = _Daemon(self._store_dir, self.jobs)
        self._daemon.warm_pool()

    def close(self) -> None:
        if self._daemon is not None:
            self._daemon.close()
            self._daemon = None
        if self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)
            self._store_dir = None

    def _job(self, daemon: _Daemon, spec: dict, samples: dict) -> dict:
        """POST one spec, poll it to a final state, fetch its results."""
        started = perf_counter()
        status, body = daemon.request("POST", "/campaigns",
                                      json.dumps(spec).encode("utf-8"))
        samples["post"].append(perf_counter() - started)
        if status != 201:
            return {"state": f"HTTP {status}", "error": body.decode(),
                    "executed": 0, "body": b"", "started": started,
                    "ended": perf_counter()}
        job_id = json.loads(body)["id"]
        delay = POLL_FIRST
        while True:
            status, body = daemon.request("GET", f"/campaigns/{job_id}")
            job = json.loads(body)
            if job["state"] in ("done", "failed", "cancelled"):
                break
            if perf_counter() - started > JOB_TIMEOUT:
                raise TimeoutError(f"{job_id} still {job['state']}")
            time.sleep(delay)
            delay = min(2 * delay, POLL_MAX)
        fetched = perf_counter()
        status, results = daemon.request("GET",
                                         f"/campaigns/{job_id}/results")
        ended = perf_counter()
        samples["results"].append(ended - fetched)
        return {"state": job["state"], "error": job["error"],
                "executed": job["progress"]["executed"], "body": results,
                "started": started, "ended": ended}

    def _phase(self, daemon, calibrator, samples) -> list[dict]:
        jobs = []
        for spec in self.specs:
            jobs.append(self._job(daemon, spec, samples))
            calibrator.maybe_sample()
        return jobs

    def run_pass(self, tracer=None) -> PassResult:
        if self._daemon is None:
            raise RuntimeError("serve-mixed needs setup() before a pass")
        daemon, self._daemon = self._daemon, None
        store_dir, self._store_dir = self._store_dir, None
        result = PassResult()
        calibrator = Calibrator()
        samples = {"post": [], "results": []}
        gc.collect()
        try:
            started = perf_counter()
            cold = self._phase(daemon, calibrator, samples)
            result.raw_busy = perf_counter() - started - calibrator.spent
            daemon.close()
            daemon = _Daemon(store_dir, self.jobs)     # restart, same store
            warm = self._phase(daemon, calibrator, samples)
            result.raw_wall = perf_counter() - started - calibrator.spent
        finally:
            daemon.close()
            shutil.rmtree(store_dir, ignore_errors=True)
        for job in cold:
            result.op(job["started"], job["ended"])
        result.scale(calibrator)
        warm_ops = [(job["ended"], job["ended"] - job["started"])
                    for job in warm]
        result.figures.update(
            warm_ops=calibrator.scale_ops(warm_ops),
            raw_warm_ops=[seconds for _end, seconds in warm_ops],
            cold_bodies=[job["body"] for job in cold],
            post=samples["post"], results=samples["results"])
        result.runs = sum(job["executed"] for job in cold)
        result.attempted = len(cold) + len(warm)
        for spec, cold_job, warm_job in zip(self.specs, cold, warm):
            name = (f"{spec['workload']}/{spec['middleware']} "
                    f"base_seed={spec['base_seed']}")
            for label, job in (("cold", cold_job), ("warm", warm_job)):
                if job["state"] != "done":
                    result.failures.append(
                        f"{label} job {name} ended {job['state']}: "
                        f"{job['error']}")
            if warm_job["executed"]:
                result.failures.append(f"warm job {name} executed "
                                       f"{warm_job['executed']} run(s)")
            if warm_job["body"] != cold_job["body"]:
                result.failures.append(f"warm results of {name} differ "
                                       "from cold results")
            result.census.update(
                hashlib.sha256(cold_job["body"]).hexdigest().encode())
        return result

    def check(self, passes: list[PassResult]) -> None:
        """Cold results must match an in-process serial Campaign."""
        for index, spec in enumerate(self.specs):
            expected = _serial_results(spec)
            for result in passes:
                if result.figures["cold_bodies"][index] != expected:
                    result.failures.append(
                        f"cold results of {spec['workload']}/"
                        f"{spec['middleware']} base_seed="
                        f"{spec['base_seed']} differ from a serial "
                        "Campaign")

    def summary(self, result: PassResult) -> list[tuple]:
        return [("runs_per_s", result.runs / result.busy,
                 result.runs / result.raw_busy, "1/s", None),
                *_latency("cold_job_s", result.ops, result.raw_seconds, 90,
                          1.0, "s"),
                *_latency("warm_job_s", result.figures["warm_ops"],
                          result.figures["raw_warm_ops"], 90, 1.0, "s")]

    def profile(self) -> pstats.Stats:
        """Profile the CPU time of every parent thread through a short
        serve pass (runs execute in pool workers and are not part of
        it; time spent waiting is not self time)."""
        profilers = [cProfile.Profile(time.thread_time)]

        def start_thread_profile(*_args):
            sys.setprofile(None)
            profiler = cProfile.Profile(time.thread_time)
            profilers.append(profiler)
            profiler.enable()

        saved_specs, self.specs = self.specs, self.specs[:20]
        threading.setprofile(start_thread_profile)
        try:
            profilers[0].enable()
            self.setup()
            self.run_pass()
        finally:
            profilers[0].disable()
            threading.setprofile(None)
            self.specs = saved_specs
        stats = pstats.Stats(profilers[0])
        for profiler in profilers[1:]:
            profiler.disable()
            stats.add(profiler)
        return stats


def _serial_results(spec: dict) -> bytes:
    """The results body the daemon should serve for ``spec``, computed
    by an in-process serial Campaign with no store."""
    job_spec = spec_from_dict(spec)
    campaign = job_spec.campaign().run()
    fingerprint = job_spec.fingerprint()
    runs = list(campaign.runs)
    if campaign.profile_run is not None:
        runs.append(campaign.profile_run)
    entries = {fault_key_str(run.fault): serialize_result(run)
               for run in runs}
    lines = [json.dumps({"fp": fingerprint, "key": key,
                         "run": entries[key]})
             for key in sorted(entries)]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


WORKLOADS = {workload.name: workload
             for workload in (GridWorkload, LoadWorkload, ServeWorkload)}
