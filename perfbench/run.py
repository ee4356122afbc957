"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload query_full --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped: the
engine is set up several times (the median is ``setup_s``), then the
workload's closed loop runs for ``--seconds`` and every call is timed.
The gated times (``setup_s``, ``ops_per_s``) are in reference seconds:
wall time rescaled by a speed probe run between operations (see
:func:`probe`); their wall-clock values are printed beside them.
``--trace 1`` is a separate run that wraps each layer's public entry point
(see ``tracer.py``), runs one fixed pass of the workload untraced and one
traced, each on a freshly set-up engine, asserts that both passes moved
the per-layer counters identically, and reports per-layer self times,
counts and the tracing overhead.  Either way the correctness oracle of the
workload runs outside the timed region, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed oracle exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Engine set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 5
#: Loop iterations of the speed probe (about 10 ms on the reference
#: machine), and how often the timed loop runs it.
PROBE_ITERATIONS = 100_000
PROBE_EVERY_S = 0.5
#: The unit of reference time: one reference second is the wall time in
#: which the machine runs ``1 / REFERENCE_PROBE_S`` = 100 probes (0.7 to
#: 1.1 wall seconds on the reference machine, as its speed drifts).
REFERENCE_PROBE_S = 0.0100

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _spec:
    SPEC = json.load(_spec)
#: Name -> unit of the metrics each mode reports, as ``BENCHMARK.json``
#: lists them.
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


class HarnessError(Exception):
    """The benchmark itself is broken (not an engine failure)."""


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile_ms(samples: list[float], share: float):
    """The ``share`` percentile in ms, or ``None`` with fewer than ten
    samples beyond it."""
    if len(samples) * (1 - share) < 10:
        return None
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))] * 1000


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: how fast this CPU runs
    the interpreter at the moment, independent of the engine's code.

    The reference machine's speed drifts by a third in phases of seconds
    to minutes, and the engine's time follows this loop's in proportion,
    so wall seconds times ``REFERENCE_PROBE_S / probe()`` (reference
    seconds) stay put while wall seconds do not.  The collector is off so
    the engine's heap and thresholds cannot change the loop's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        total = 0
        for number in range(PROBE_ITERATIONS):
            total += number * number % 7
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


def probes_now() -> list[float]:
    """Three probes in a row, taken before and after a timed interval."""
    return [probe() for __ in range(3)]


def reference_seconds(wall_s: float, probes: list[float]) -> float:
    """``wall_s`` in reference seconds, from the probes taken while it
    elapsed."""
    return wall_s * REFERENCE_PROBE_S / statistics.mean(probes)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def machine() -> dict:
    from repro.graph import vector

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "vector_backend": vector.BACKEND.name,
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )


def report_check(problems: list[str]) -> bool:
    for problem in problems:
        print(f"  oracle FAILED: {problem}")
    print(f"  oracle: {'ok' if not problems else 'FAILED'}")
    return not problems


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def timed_loop(workload, engine, seconds: float):
    """Run the closed loop for ``seconds`` (a cycled list finishes its
    pass), probing the machine's speed between operations; per-kind
    latencies, failures, operations attempted, wall time without the
    probes, and the probe times."""
    latencies: dict[str, list[float]] = {"search": [], "apply": [], "batch": []}
    failures: Counter = Counter()
    attempted = 0
    ops = workload.ops
    position = 0
    probes = [probe()]
    probing = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    next_probe = start + PROBE_EVERY_S
    while not (workload.stream and position >= len(ops)):
        op = ops[position % len(ops)]
        position += 1
        began = time.perf_counter()
        try:
            workload.execute(engine, op)
        except Exception as error:  # an engine failure is a counted outcome
            failures[type(error).__name__] += op.weight
        else:
            latencies[op.kind].append(time.perf_counter() - began)
        attempted += op.weight
        now = time.perf_counter()
        if now >= next_probe:
            probes.append(probe())
            next_probe = time.perf_counter()
            probing += next_probe - now
            next_probe += PROBE_EVERY_S
        # A cycled list ends on a whole pass, so every run does the same
        # mix of cheap and costly queries.
        if now >= deadline and (workload.stream or position % len(ops) == 0):
            break
    elapsed = time.perf_counter() - start - probing
    probes.append(probe())
    return latencies, failures, attempted, elapsed, probes


def end_to_end(workload, seconds: float) -> int:
    setups_wall = []
    setups = []
    engine = None
    try:
        for __ in range(SETUPS):
            if engine is not None:
                engine.close()
                engine = None
            before = probes_now()
            began = time.perf_counter()
            engine = workload.setup()
            setups_wall.append(time.perf_counter() - began)
            setups.append(reference_seconds(setups_wall[-1], before + probes_now()))
        latencies, failures, attempted, elapsed, probes = timed_loop(workload, engine, seconds)
        correct = report_check(workload.check(engine))
    finally:
        if engine is not None:
            engine.close()
    failed = sum(failures.values())
    completed = attempted - failed
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": completed / reference_seconds(elapsed, probes),
        "peak_rss_mb": peak_rss_mb(),
    }
    speed = REFERENCE_PROBE_S / statistics.mean(probes)
    issue_view = {
        "setup_s": (metrics["setup_s"], "s", f"median of {SETUPS} set-ups, reference seconds"),
        "ops_per_s": (metrics["ops_per_s"], "1/s", f"{attempted} ops in {elapsed:.1f} wall s, per reference second"),
        "query_p50_ms": (percentile_ms(latencies["search"], 0.5), "ms", f"n={len(latencies['search'])}"),
        "query_p95_ms": (percentile_ms(latencies["search"], 0.95), "ms", f"n={len(latencies['search'])}"),
        "apply_p50_ms": (percentile_ms(latencies["apply"], 0.5), "ms", f"n={len(latencies['apply'])}"),
        "apply_p95_ms": (percentile_ms(latencies["apply"], 0.95), "ms", f"n={len(latencies['apply'])}"),
        "batch_p50_ms": (percentile_ms(latencies["batch"], 0.5), "ms", f"n={len(latencies['batch'])}"),
        "failed_ratio": (ratio(failed, attempted), "ratio", dict(failures) or "no failures"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB", "client process"),
        "setup_wall_s": (statistics.median(setups_wall), "s", "median of the set-ups, wall clock"),
        "ops_per_wall_s": (completed / elapsed, "1/s", "per wall-clock second"),
        "machine_speed": (speed, "ratio", f"reference probe time / mean of {len(probes)} probes"),
    }
    for name, (value, unit, note) in issue_view.items():
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"  {name:<16} {shown:>12} {unit:<6} {note}")
    print(f"  all metrics: {json.dumps({name: entry[0] for name, entry in issue_view.items()})}")
    emit(correct, attempted, failed, metrics, END_TO_END)
    return 0 if correct else 1


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def counted_pass(workload, engine, ops, tracer) -> tuple[dict, Counter, float, list]:
    """One pass over ``ops``; the public counters it moved, its failures,
    its wall time and the per-query planner estimate errors."""
    counts: Counter = Counter()
    failures: Counter = Counter()
    errors: list[float] = []
    began = time.perf_counter()
    for op in ops:
        tracer.query_id += 1
        cache = engine.traversal_cache
        before = (cache.hits, cache.misses, cache.paths_enumerated, cache.trees_enumerated)
        stats = engine.result_cache.stats
        hits, lookups, invalidated = stats.hits, stats.hits + stats.misses, stats.invalidated
        wal_size = os.path.getsize(engine.wal.path) if engine.wal is not None else 0
        searcher = tracer.last_searcher
        transport = (searcher.shm_batches, searcher.pipe_batches) if searcher else (0, 0)
        tracer.last_estimates = None
        traced = tracer.active
        if traced:
            tracer.enter()
        try:
            workload.execute(engine, op)
        except Exception as error:  # an engine failure is a counted outcome
            failures[type(error).__name__] += op.weight
            continue
        finally:
            if traced:
                tracer.exit(f"op.{op.kind}")
        counts["ops"] += op.weight
        counts["dist_hits"] += cache.hits - before[0]
        counts["dist_misses"] += cache.misses - before[1]
        counts["units"] += cache.paths_enumerated + cache.trees_enumerated - before[2] - before[3]
        counts["cache_hits"] += stats.hits - hits
        counts["cache_lookups"] += stats.hits + stats.misses - lookups
        if op.kind == "apply":
            counts["applies"] += 1
            counts["mutations"] += len(op.mutations)
            counts["invalidated"] += stats.invalidated - invalidated
            counts["wal_bytes"] += os.path.getsize(engine.wal.path) - wal_size
            continue
        counts["queries"] += op.weight
        if stats.hits > hits:
            continue  # served from the result cache: no executor work
        last = engine.last_stats
        counts["candidates"] += last.candidates
        counts["emitted"] += last.emitted
        counts["pruned"] += last.pruned
        counts["shard_skips"] += last.shard_skips
        if op.kind == "batch":
            counts["batches"] += 1
            searcher = tracer.last_searcher
            if searcher is not None:
                if searcher.shm_batches < transport[0]:
                    transport = (0, 0)
                counts["shm"] += searcher.shm_batches - transport[0]
                counts["pipe"] += searcher.pipe_batches - transport[1]
        elif tracer.last_estimates and last.candidates:
            estimate = sum(unit.est_candidates for unit in tracer.last_estimates)
            errors.append(abs(estimate - last.candidates) / last.candidates)
    return counts, failures, time.perf_counter() - began, errors


def planner_probe(workload, engine, tracer) -> list[float]:
    """Estimate errors of in-process searches over the batches' distinct
    queries (the pool's workers plan out of the coordinator's sight)."""
    from workloads import Op, distinct

    queries = distinct(Op("search", q) for op in workload.ops for q in op.batch)
    return counted_pass(workload, engine, queries, tracer)[3]


def count_metrics(counts: Counter, errors: list[float]) -> dict:
    queries = counts["queries"]
    return {
        "csr.units_enumerated": ratio(counts["units"], queries),
        "csr.distance_hit_ratio": ratio(counts["dist_hits"], counts["dist_hits"] + counts["dist_misses"]),
        "executor.candidates_per_query": ratio(counts["candidates"], queries),
        "executor.emitted_per_candidate": ratio(counts["emitted"], counts["candidates"]),
        "planner.pruned_per_query": ratio(counts["pruned"], queries),
        "planner.est_error_median": statistics.median(errors) if errors else 0.0,
        "result_cache.hit_ratio": ratio(counts["cache_hits"], counts["cache_lookups"]),
        "result_cache.invalidated_per_apply": ratio(counts["invalidated"], counts["applies"]),
        "wal.bytes_per_mutation": ratio(counts["wal_bytes"], counts["mutations"]),
        "shards.skips_per_query": ratio(counts["shard_skips"], queries),
        "parallel.shm_batch_ratio": ratio(counts["shm"], counts["shm"] + counts["pipe"]),
    }


#: Stream prefix a traced ``live_rw`` run replays (a fixed length keeps
#: the counts deterministic; later operations run on a cooler cache).
TRACED_STREAM_OPS = 300


def traced_ops(workload) -> list:
    """The fixed operation list both passes of a traced run execute."""
    if workload.stream:
        return workload.ops[:TRACED_STREAM_OPS]
    return workload.ops


def traced(workload, trace_path: str) -> int:
    import tracer as tracer_module

    tracer = tracer_module.install()
    ops = traced_ops(workload)
    pool = workload.name == "batch_pool"
    engine = None
    try:
        engine = workload.setup()
        # Pass times are compared in reference seconds (see probe()).
        before = probes_now()
        counts_a, failures_a, untraced_s, errors_a = counted_pass(workload, engine, ops, tracer)
        untraced_s = reference_seconds(untraced_s, before + probes_now())
        serial_s = 0.0
        if pool:
            errors_a = planner_probe(workload, engine, tracer)
            serial = [op.batch for op in ops]
            for __ in range(2):  # the first pass warms the coordinator
                before = probes_now()
                began = time.perf_counter()
                for batch in serial:
                    engine.search_batch(list(batch))
                serial_s = reference_seconds(time.perf_counter() - began, before + probes_now())
        engine.close()
        engine = None

        tracer.query_id = 0  # spans outside any operation carry query 0
        tracer.active = True
        engine = workload.start()
        tracer.active = False
        workload.warm(engine)
        before = probes_now()
        tracer.active = True
        counts_b, failures_b, traced_s, errors_b = counted_pass(workload, engine, ops, tracer)
        tracer.active = False
        traced_s = reference_seconds(traced_s, before + probes_now())
        if pool:
            errors_b = planner_probe(workload, engine, tracer)
        correct = report_check(workload.check(engine))
    finally:
        if engine is not None:
            engine.close()
        tracer.uninstall()

    layer_counts = count_metrics(counts_b, errors_b)
    if (counts_a, failures_a, count_metrics(counts_a, errors_a)) != (counts_b, failures_b, layer_counts):
        raise HarnessError(
            f"per-layer counts differ between two passes of the same seed: "
            f"{dict(counts_a)} vs {dict(counts_b)}"
        )

    times = tracer.self_times()

    def self_ms(name: str) -> float:
        return times.get(name, (0.0, 0.0, 0))[0] * 1000

    queries = 0 if pool else counts_b["queries"]
    batches = counts_b["batches"]
    opened = times.get("snapshot.open", (0.0, 0.0, 0))
    metrics = {
        "matching.ms_per_query": ratio(self_ms("matching"), queries),
        "plan.ms_per_query": ratio(self_ms("plan"), queries),
        "csr.prefetch_ms_per_query": ratio(self_ms("csr.prefetch"), queries),
        "csr.kernel_ms_per_query": ratio(self_ms("csr.kernel"), queries),
        "connections.materialise_ms_per_query": ratio(self_ms("connections.materialise"), queries),
        "ranking.score_ms_per_query": ratio(self_ms("ranking.score"), queries),
        "executor.self_ms_per_query": ratio(self_ms("op.search"), queries),
        "result_cache.ms_per_op": ratio(self_ms("result_cache"), counts_b["ops"]),
        "live.apply_ms": ratio(self_ms("live.apply"), counts_b["applies"]),
        "wal.append_ms": ratio(self_ms("wal.append"), counts_b["applies"]),
        "snapshot.open_ms": ratio(opened[1] * 1000, opened[2]),
        "parallel.run_ms_per_batch": ratio(self_ms("parallel.run"), batches),
        "parallel.revive_ms_per_batch": ratio(self_ms("parallel.revive"), batches),
        "planner.route_ms_per_batch": ratio(self_ms("planner.route"), batches),
        **layer_counts,
        "parallel.speedup_vs_serial": ratio(serial_s, untraced_s),
        "trace.overhead_ratio": ratio(traced_s, untraced_s) - 1,
    }

    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write(trace_path)
    op_total = sum(inclusive for name, (__, inclusive, ___) in times.items() if name.startswith("op."))
    accounted = sum(own for name, (own, __, ___) in times.items() if name != "snapshot.open")
    print(f"  traced pass {traced_s:.3f} s, untraced pass {untraced_s:.3f} s (reference seconds), "
          f"tracing overhead {metrics['trace.overhead_ratio']:+.1%}")
    print(f"  layer self times account for {accounted * 1000:.1f} ms of "
          f"{op_total * 1000:.1f} ms traced operation time ({ratio(accounted, op_total):.1%})")
    print("  self time per span name (share of traced operation time):")
    for name, (own, inclusive, calls) in sorted(times.items(), key=lambda item: -item[1][0]):
        print(f"    {name:<26} {own * 1000:10.1f} ms {ratio(own, op_total):7.1%}  calls={calls}")
    if pool:
        print("  batch_pool: only coordinator-side calls are visible; layers that run "
              "in the pool workers (matching .. scoring) report 0")
    print(f"  spans written to {os.path.relpath(trace_path, ROOT)}")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<38} {metrics[name]:>12.4f} {unit}")
    failed = sum(failures_b.values())
    emit(correct, counts_b["ops"] + failed, failed, metrics, PER_LAYER)
    return 0 if correct else 1


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts to track
    the pool's shared memory, so no process outlives the run."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no engine sources at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if WORKLOADS[args.workload].pinned:
        # A single-threaded client that migrates between CPUs loses its
        # caches; pinned, it varied less from run to run on a 2-vCPU VM.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print(f"  machine: {json.dumps(machine())}")
        print(f"  sizes: {json.dumps(workload.sizes())}")
        if args.trace:
            trace_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl")
            return traced(workload, trace_path)
        return end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set and dict iteration order feed the engine's counters; pin the
        # hash seed so one workload seed always does identical work.
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.exit(main())
