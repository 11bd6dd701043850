"""Serving-stack benchmark: one workload, one seed, one JSON line of metrics.

Run from the root of a checkout::

    python3 servebench/run.py --workload longtail-thread --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` spends half the time untraced and half traced and reports
the per-layer metrics instead.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
progress and diagnostics go to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STARTED = time.perf_counter()

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: Root evaluation spans may fall short of the envelopes' ``evaluation_s``
#: by the cache-counter reads around the call: at most this share plus
#: :data:`SPAN_SLACK_S` per evaluation, and never exceed it.
SPAN_TOLERANCE = 0.02
SPAN_SLACK_S = 50e-6


def process_age_s() -> float:
    """Seconds since this process started (Linux), else since this module loaded."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, IndexError, ValueError, AttributeError):
        return time.perf_counter() - STARTED


def machine_cpu_s() -> Tuple[float, float]:
    """Busy and stolen CPU seconds of the whole machine so far (Linux), else zeros."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0.0, 0.0
    ticks = os.sysconf("SC_CLK_TCK")
    return sum(fields[:3] + fields[5:7]) / ticks, fields[7] / ticks


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(run, timed, setup_s: float, rss_mib: float) -> Dict[str, Dict[str, object]]:
    from loads import percentile

    latencies = [sample.latency_s for sample in timed.completed]
    if len(latencies) < 1000:
        log(f"warning: {len(latencies)} latency samples; p99 needs 1000 for ten beyond it")
    return {
        "setup_s": metric(setup_s, "s"),
        "throughput_qps": metric(timed.throughput, "req/s"),
        "latency_p50_ms": metric(percentile(latencies, 50) * 1e3, "ms"),
        "latency_p99_ms": metric(percentile(latencies, 99) * 1e3, "ms"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
        "refresh_p50_ms": metric(statistics.median(run.refresh_s) * 1e3, "ms"),
    }


def per_layer(run, layers, setup_layers, untraced, traced, planner) -> Dict[str, Dict[str, object]]:
    from loads import CACHE_NAMES, percentile

    completed = traced.completed
    per_request = 1.0 / max(len(completed), 1)
    evaluated = [sample for sample in completed if not sample.deduplicated]
    process = run.workload.pool == "process"
    traced_s, traced_counts = layers
    # Snapshot writes and first loads happen in set-up: the storage, delta
    # and registry means cover set-up plus the traced phase and its probe.
    self_s = traced_s + setup_layers[0]
    counts = traced_counts + setup_layers[1]

    def ms_per_request(layer: str) -> Dict[str, object]:
        return metric(traced_s[layer] * 1e3 * per_request, "ms/req")

    def per_req(counter: str) -> Dict[str, object]:
        return metric(traced_counts[counter] * per_request, "1/req")

    def ms_per_call(layer: str) -> Dict[str, object]:
        calls = counts[f"{layer}.calls"]
        return metric(self_s[layer] * 1e3 / calls if calls else 0.0, "ms/call")

    tuples = sum(sample.count for sample in evaluated if sample.spec.output_variables)
    admitted = traced.broker.get("admitted", 0)
    deduplicated = traced.broker.get("deduplicated", 0)
    affinity = traced.pool.get("affinity_hits", 0) + traced.pool.get("affinity_misses", 0)
    if run.workload.clients:
        overhead = (untraced.throughput - traced.throughput) / untraced.throughput * 100
    else:
        # An open loop's throughput is its schedule: compare p50 latency.
        before = percentile([sample.latency_s for sample in untraced.completed], 50)
        after = percentile([sample.latency_s for sample in completed], 50)
        overhead = (after - before) / before * 100
    metrics = {
        "requests.parse_ms": ms_per_request("requests.parse"),
        "requests.serialise_ms": ms_per_request("requests.serialise"),
        "engine.classify_ms": ms_per_request("engine.classify"),
        "engine.evaluations": metric(
            (len(evaluated) if process else traced_counts["engine.evaluations"]) * per_request, "1/req"
        ),
        "broker.queue_wait_p50_ms": metric(percentile([s.queue_wait_s for s in completed], 50) * 1e3, "ms"),
        "broker.queue_wait_p99_ms": metric(percentile([s.queue_wait_s for s in completed], 99) * 1e3, "ms"),
        "broker.dedup_ratio": metric(deduplicated / max(admitted + deduplicated, 1), "ratio"),
        "broker.batch_size_mean": metric(admitted / max(traced.broker.get("batches", 0), 1), "req/batch"),
        "workers.evaluation_p50_ms": metric(percentile([s.evaluation_s for s in evaluated], 50) * 1e3, "ms"),
        "workers.evaluation_p99_ms": metric(percentile([s.evaluation_s for s in evaluated], 99) * 1e3, "ms"),
        "workers.overhead_p50_ms": metric(
            percentile([s.latency_s - s.queue_wait_s - s.evaluation_s for s in evaluated], 50) * 1e3, "ms"
        ),
        "procpool.dispatch_p50_ms": metric(
            percentile([s.queue_wait_s for s in evaluated], 50) * 1e3 if process else 0.0, "ms"
        ),
        "procpool.affinity_hit_ratio": metric(
            traced.pool.get("affinity_hits", 0) / affinity if affinity else 0.0, "ratio"
        ),
        "procpool.requeued": metric(traced.pool.get("requeued", 0), "count"),
        "normal_form.self_ms": ms_per_request("normal_form"),
        "normal_form.calls": per_req("normal_form.calls"),
        "vsf.combinations": per_req("vsf.combinations"),
        "bounded.self_ms": ms_per_request("bounded"),
        "bounded.instantiations": per_req("bounded.instantiations"),
        "joins.self_ms": ms_per_request("joins"),
        "joins.morphisms": per_req("joins.morphisms"),
        "planner.forced_pairs": metric(planner["forced_pairs"] * per_request, "1/req"),
        "planner.backward_activations": metric(planner["backward_activations"] * per_request, "1/req"),
        "relations.self_ms": ms_per_request("relations"),
        "relations.row_calls": per_req("relations.row_calls"),
        "relations.rows_per_tuple": metric(
            traced_counts["relations.row_calls"] / tuples if tuples else 0.0, "1/tuple"
        ),
        "sync.self_ms": ms_per_request("sync"),
        "sync.calls": per_req("sync.calls"),
    }
    for name in CACHE_NAMES:
        for counter in ("hits", "misses", "evictions"):
            metrics[f"cache.{name}.{counter}"] = metric(traced.caches[name][counter] * per_request, "1/req")
    metrics["cache.entries"] = metric(sum(traced.caches[name]["entries"] for name in CACHE_NAMES), "count")
    metrics.update(
        {
            "storage.compact_ms": ms_per_call("storage.compact"),
            "storage.load_ms": ms_per_call("storage.load"),
            "delta.append_ms": ms_per_call("delta.append"),
            "registry.refresh_ms": ms_per_call("registry.refresh"),
            "registry.swap_ms": ms_per_call("registry.swap"),
            "loadgen.late_p99_ms": metric(percentile([s.late_s for s in completed], 99) * 1e3, "ms"),
            "trace.overhead_pct": metric(overhead, "%"),
        }
    )
    return metrics


async def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str):
    from loads import WORKLOADS, Run, worker_cache_totals
    from repro.engine.planner import planner_stats
    from tracing import Tracer

    tracer = Tracer() if trace else None
    run = Run(WORKLOADS[name], seed, workdir, tracer)
    if tracer is not None:
        tracer.install()
    run.realise(seconds)
    service = run.start()
    problems: List[str] = []
    try:
        await run.warmup()
        setup_s = process_age_s()
        log(f"{name} seed {seed}: set-up {setup_s:.2f}s, {len(run.stream)} requests in the stream")
        if tracer is None:
            cpu, machine = time.process_time(), machine_cpu_s()
            timed = await run.phase("timed", seconds)
            phases = [timed]
            wall = timed.ended - timed.started
            busy, steal = (after - before for after, before in zip(machine_cpu_s(), machine))
            log(f"timed phase: {timed.throughput:.1f} req/s; this process used "
                f"{(time.process_time() - cpu) / wall:.2f} CPUs, the machine {busy / wall:.2f} "
                f"busy and {steal / wall:.2f} stolen")
        else:
            setup_mark = len(tracer.spans)
            tracer.uninstall()
            untraced = await run.phase("untraced", seconds / 2)
            tracer.install()
            traced_mark = len(tracer.spans)
            planner_before = planner_stats()
            traced = await run.phase("traced", seconds / 2)
            planner_after = planner_stats()
            planner = {key: planner_after[key] - planner_before[key] for key in planner_after}
            phases = [untraced, traced]
        rss_mib = run.rss_mib
        for entry in list(run.retired.values()) + list(run.live.values()):
            run.ledger.settle(entry)
        totals = run.ledger.totals() if run.workload.pool == "thread" else None
        await run.probe()
    finally:
        await service.close()
    if totals is None:
        totals = worker_cache_totals(service.stats().get("worker_caches", []))
    if tracer is not None:
        tracer.uninstall()
    mismatch = run.check_cache_totals(totals)
    if mismatch is not None:
        problems.append(f"cache cross-check: {mismatch}")
    if tracer is not None and run.workload.pool == "thread":
        spans_s = sum(
            span.busy for span in tracer.spans[traced_mark:] if span.layer == "engine.evaluate"
        )
        evaluated = [s for s in traced.completed if not s.deduplicated]
        envelopes_s = sum(s.evaluation_s for s in evaluated)
        slack = envelopes_s * SPAN_TOLERANCE + SPAN_SLACK_S * len(evaluated)
        log(f"evaluation spans {spans_s * 1e3:.1f} ms against envelopes {envelopes_s * 1e3:.1f} ms")
        if not envelopes_s - slack <= spans_s <= envelopes_s:
            problems.append(
                f"span cross-check: root evaluation spans sum to {spans_s:.4f}s, "
                f"envelopes to {envelopes_s:.4f}s"
            )
    answer_problems = run.check_answers()
    problems.extend(answer_problems[:5])
    if len(answer_problems) > 5:
        problems.append(f"... {len(answer_problems) - 5} more answer mismatches")
    measured = [sample for phase in phases for sample in phase.samples]
    failed = [sample for sample in measured if not sample.ok]
    for sample in failed[:5]:
        log(f"request {sample.index} failed: {sample.error}")
    if tracer is None:
        metrics = end_to_end(run, timed, setup_s, rss_mib)
    else:
        metrics = per_layer(
            run,
            tracer.aggregate(traced_mark),
            tracer.aggregate(0, setup_mark),
            untraced,
            traced,
            planner,
        )
        spans_path = os.path.join(HERE, "out", f"spans-{name}-{seed}.tsv")
        tracer.dump(spans_path)
        log(f"{len(tracer.spans)} spans written to {spans_path}")
    for problem in problems:
        log(problem)
    return {
        "correct": not problems,
        "attempted": len(measured),
        "failed": len(failed),
        "metrics": metrics,
    }


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        log(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    from loads import WORKLOADS

    if arguments.workload not in WORKLOADS:
        log(f"unknown workload {arguments.workload!r} (known: {', '.join(WORKLOADS)})")
        return 2
    workdir = os.path.join(HERE, "out", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = asyncio.run(
            measure(arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace), workdir)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
