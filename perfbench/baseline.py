"""Run the benchmark over several seeds and summarise it as a baseline.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --seeds 1-10 [--seconds S] [--workload NAME ...] [--out FILE]

For every workload it makes one ``--trace 0`` run per seed, one after the
other, and reports the median, quartiles and spread (inter-quartile range
over the median, the statistic the bounds in ``BENCHMARK.json`` are
checked against) of every end-to-end metric the run prints, gated or
not.  It then makes two ``--trace 1`` runs on the first seed: the first
gives the per-layer table, and the per-layer counts of both must agree
exactly.  ``--out`` writes the
summary as JSON; ``perfbench/baseline.json`` is the committed one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Seed no benchmark setting was tuned on; a claimed gain must hold on it.
HELD_OUT_SEED = 7919
#: Per-layer metrics derived from timings; every other one is a count.
TIMED_RATIOS = {"parallel.speedup_vs_serial", "trace.overhead_ratio"}


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    began = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - began
    for line in lines:
        for key, prefix in (("sizes", "  sizes: "), ("all_metrics", "  all metrics: ")):
            if line.startswith(prefix):
                result[key] = json.loads(line[len(prefix):])
    return result


def summarise(values: list[float]) -> dict:
    q1, __, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()
    names = args.workload or [workload["name"] for workload in spec["workloads"]]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    chosen = seeds(args.seeds)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from run import machine

    summary = {
        "machine": machine(),
        "load": {
            "loop": "closed, one client process",
            "processes": "jobs=2 worker pool in batch_pool only; no threads",
            "flush": "live_rw fdatasyncs every WAL append before applying it",
        },
        "held_out_seed": HELD_OUT_SEED,
        "seeds": chosen,
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in chosen:
            result = run(name, seed, args.seconds, 0)
            for metric, value in result["all_metrics"].items():
                if value is not None:  # a percentile with too few samples
                    values.setdefault(metric, []).append(value)
            print(f"{name} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                  + f" ({result['wall_s']:.0f} s)", flush=True)
        end_to_end = {  # a metric some run could not report is left out
            metric: summarise(series)
            for metric, series in values.items()
            if len(series) == len(chosen)
        }
        for metric, stats in end_to_end.items():
            bound = bounds.get(metric)
            flag = "" if bound is None or stats["spread"] <= bound / 3 else "  (above a third of its bound)"
            print(f"  {metric:<12} median {stats['median']:.4g}  spread {stats['spread']:.3f}"
                  f"  bound {bound or 'none (not gated)'}{flag}", flush=True)
        traced = run(name, chosen[0], args.seconds, 1)
        again = run(name, chosen[0], args.seconds, 1)
        counts = {
            metric: (entry["value"], again["metrics"][metric]["value"])
            for metric, entry in traced["metrics"].items()
            if entry["unit"] != "ms" and metric not in TIMED_RATIOS
        }
        differing = {metric: pair for metric, pair in counts.items() if pair[0] != pair[1]}
        if differing:
            raise SystemExit(f"{name}: per-layer counts differ between two traced runs: {differing}")
        print(f"  per-layer counts identical over two traced runs of seed {chosen[0]}", flush=True)
        summary["workloads"][name] = {
            "sizes": traced["sizes"],
            "end_to_end": end_to_end,
            "per_layer_seed": chosen[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
