#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` sets the program up
several times, makes one untraced pass over the seed's inputs, checks
every output, and reports the end-to-end metrics.  ``--trace 1`` makes
an untraced pass, a traced pass (layer wrappers and ``gc.callbacks``
installed, see ``layers.py``) and a profiled pass, checks that the
traced outputs equal the untraced ones, and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``; see
``perfbench/README.md`` for what each means on each workload.

Human-readable figures go to stdout first; the last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")

SHARE_LAYERS = ("sim", "nt.context", "nt.memory", "nt.kernel32",
                "nt.other", "servers", "middleware", "net", "clients",
                "load", "serve", "core", "stdlib", "other")
_SHARE_PREFIXES = (("sim/", "sim"), ("nt/context.py", "nt.context"),
                   ("nt/memory.py", "nt.memory"),
                   ("nt/kernel32/", "nt.kernel32"), ("nt/", "nt.other"),
                   ("servers/", "servers"), ("middleware/", "middleware"),
                   ("net/", "net"), ("clients/", "clients"),
                   ("load/", "load"), ("serve/", "serve"),
                   ("core/", "core"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_declared() -> dict:
    """``BENCHMARK.json``: the metric names and units to report."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def share_layer(filename: str) -> str:
    """The package a profiled function's file belongs to."""
    package = os.path.join(SRC, "repro") + os.sep
    if not filename.startswith(package):
        if filename.startswith(ROOT + os.sep):
            return "other"      # the benchmark's own frames
        return "stdlib"         # standard library and builtins
    relative = filename[len(package):].replace(os.sep, "/")
    for prefix, layer in _SHARE_PREFIXES:
        if relative.startswith(prefix):
            return layer
    return "other"


def package_shares(stats) -> dict:
    """Self time grouped by package, as shares of the profiled total."""
    totals = defaultdict(float)
    for (filename, _line, _name), entry in stats.stats.items():
        totals[share_layer(filename)] += entry[2]      # tottime
    total = sum(totals.values()) or 1.0
    return {f"share.{layer}": totals[layer] / total
            for layer in SHARE_LAYERS}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(setups, result, rss) -> dict:
    from workloads import median, percentile

    return {
        "setup_s": median(setups),
        "wall_s": result.wall,
        "runs_per_s": result.runs / result.busy,
        "op_ms.p50": median(result.ops) * 1e3,
        "op_ms.p90": percentile(result.ops, 90) * 1e3,
        "peak_rss_mb": rss,
    }


def per_layer(tracer, untraced, traced, shares) -> dict:
    from layers import PHASES
    from workloads import median, percentile

    counts, samples, self_time = tracer.counts, tracer.samples, \
        tracer.self_time
    metrics = {}
    phases = [run.phases() for run in tracer.runs]
    run_wall = sum(phase["wall"] for phase in phases) or 1.0
    attributed = 0.0
    for name in PHASES:
        values = [phase[name] for phase in phases]
        metrics[f"runner.{name}_ms"] = median(values) * 1e3
        metrics[f"runner.{name}_share"] = sum(values) / run_wall
        attributed += sum(values)
    metrics["runner.unattributed_share"] = \
        1.0 - attributed / run_wall if phases else 0.0
    metrics["runner.runs"] = len(phases)
    metrics["runner.boot_polls"] = (
        sum(run.boot_polls for run in tracer.runs) / len(phases)
        if phases else 0.0)

    events = counts["engine.events"]
    metrics["engine.events"] = events
    metrics["engine.self_ms"] = self_time["engine"] * 1e3
    metrics["engine.us_per_event"] = (
        self_time["engine"] * 1e6 / events if events else 0.0)

    calls = counts["k32.calls"]
    metrics["k32.calls"] = calls
    metrics["k32.handler_builds"] = counts["k32.handler_builds"]
    metrics["k32.builds_per_call"] = (
        counts["k32.handler_builds"] / calls if calls else 0.0)
    metrics["k32.ms"] = (self_time["k32"] + self_time["memory"]) * 1e3
    metrics["k32.build_ms"] = self_time["build"] * 1e3

    metrics["memory.encodes"] = counts["memory.encodes"]
    metrics["memory.decodes"] = counts["memory.decodes"]
    metrics["memory.ms"] = self_time["memory"] * 1e3

    metrics["transport.connects"] = counts["transport.connects"]
    metrics["transport.sends"] = counts["transport.sends"]
    metrics["transport.ms"] = self_time["net"] * 1e3

    pauses = samples["gc.pause"]
    for generation in range(3):
        metrics[f"gc.gen{generation}"] = counts[f"gc.gen{generation}"]
    metrics["gc.pause_ms"] = sum(pauses) * 1e3
    metrics["gc.pause_share"] = sum(pauses) / traced.raw_wall
    metrics["gc.collected_per_run"] = \
        tracer.gc_collected / max(1, traced.runs)

    puts = samples["store.put"]
    gets = counts["store.gets"]
    metrics["store.puts"] = len(puts)
    metrics["store.put_ms.p50"] = median(puts) * 1e3
    metrics["store.put_ms.p99"] = percentile(puts, 99) * 1e3
    metrics["store.gets"] = gets
    metrics["store.hit_ratio"] = counts["store.hits"] / gets if gets else 0.0
    metrics["store.open_ms"] = median(samples["store.open"]) * 1e3

    metrics["exec.chunks"] = counts["exec.chunks"]
    metrics["exec.chunk_ms.p50"] = median(samples["exec.chunk"]) * 1e3
    metrics["exec.wave_ms"] = median(samples["exec.wave"]) * 1e3

    figures = traced.figures
    metrics["serve.post_ms.p50"] = median(figures.get("post", [])) * 1e3
    metrics["serve.queue_ms.p50"] = median(samples["serve.queue"]) * 1e3
    metrics["serve.results_ms.p50"] = \
        median(figures.get("results", [])) * 1e3
    cold = traced.raw_seconds if "raw_warm_ops" in figures else []
    metrics["serve.cold_job_ms.p50"] = median(cold) * 1e3
    metrics["serve.warm_job_ms.p50"] = \
        median(figures.get("raw_warm_ops", [])) * 1e3

    metrics.update(shares)
    metrics["trace_overhead"] = traced.raw_wall / untraced.raw_wall
    return metrics


def summary_lines(workload, setups, result, metrics) -> list[str]:
    """Every end-to-end figure, also under its workload-specific name,
    scaled to the reference host speed with the raw figure beside it."""
    rows = [("wall_s", result.wall, result.raw_wall, "s", None),
            *workload.summary(result)]
    lines = [f"{workload.name} seed={workload.seed}: reference slice "
             f"{result.figures['reference_ms']:.4f} ms",
             f"  setup_s {metrics['setup_s']:.4f} s (raw, median of "
             f"{len(setups)})",
             f"  peak_rss_mb {metrics['peak_rss_mb']:.1f} MB",
             f"  failed_ratio {len(result.failures)}/{result.attempted}"]
    for name, scaled, raw, unit, count in rows:
        samples = f", n={count}" if count is not None else ""
        lines.append(f"  {name} {scaled:.4f} {unit} (raw {raw:.4f}{samples})")
    return lines


# ----------------------------------------------------------------------
def measure(workload, trace: bool):
    """Run the passes; returns (metrics, attempted, failures)."""
    from layers import LayerTracer
    from workloads import SETUP_REPEATS

    if not trace:
        setups = [workload.timed_setup() for _ in range(SETUP_REPEATS)]
        result = workload.run_pass()
        metrics = end_to_end(setups, result, peak_rss_mb())
        workload.check([result])
        for line in summary_lines(workload, setups, result, metrics):
            print(line)
        return metrics, result.attempted, result.failures

    workload.setup()
    untraced = workload.run_pass()
    workload.setup()
    tracer = LayerTracer()
    with tracer:
        traced = workload.run_pass(tracer)
    tracer.dump(os.path.join(
        WORKDIR, f"trace-{workload.name}-seed{workload.seed}.json"))
    shares = package_shares(workload.profile())
    workload.check([untraced, traced])
    failures = untraced.failures + traced.failures
    if traced.digest != untraced.digest:
        failures.append("traced census differs from the untraced census")
    metrics = per_layer(tracer, untraced, traced, shares)
    print(f"{workload.name} seed={workload.seed}: traced pass "
          f"{traced.raw_wall:.3f} s, untraced {untraced.raw_wall:.3f} s, "
          f"census {untraced.digest[:16]}")
    return metrics, untraced.attempted + traced.attempted, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    declared = load_declared()
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}

    sys.path.insert(0, SRC)
    os.makedirs(WORKDIR, exist_ok=True)
    # Temporary files of the program and its workers stay in the checkout.
    os.environ["TMPDIR"] = WORKDIR
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT, WORKDIR, args.seed,
                                        args.seconds)
    try:
        metrics, attempted, failures = measure(workload, bool(args.trace))
    finally:
        workload.close()
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    failed = min(len(failures), attempted)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
