"""Experiment P9: cost-based planning and routing gates.

Deterministic gates over a skewed workload (Zipf-popular keywords whose
popularity correlates with match-list size — the shape where plan-order
enumeration would waste the most work):

* **pushdown identity** — answering the workload top-k on the compiled
  ``csr`` core, whose pushdown heaps drain units cheapest admissible
  distance bound first and skip provably-empty units, must return
  answers, scores and ranks bit-identical to the ``reference`` core.
  The pruned-unit count is printed alongside.
* **dispatch gate** — LPT cost routing of a ``jobs=4`` full-enumeration
  batch must achieve a makespan (per-worker sum of observed candidate
  work) no worse than contiguous round-robin chunking, and the pooled
  batch must return bit-identical answers to the serial run.  Full mode
  is the regime batch dispatch serves: without a top-k cut the work a
  query does tracks its posting sizes, which is exactly what
  ``engine.query_cost`` predicts from.

Report lines parsed by ``run_all.py`` into the consolidated report's
``"planner"`` key (schema ``repro-bench-report/6``)::

    planner-makespan-ratio: <float>

Run standalone::

    PYTHONPATH=src python benchmarks/bench_planner.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_planner.py --quick  # CI gate
"""

import argparse
import sys
import tempfile
from pathlib import Path

from repro.core.engine import KeywordSearchEngine
from repro.core.search import SearchLimits
from repro.datasets.synthetic import SyntheticConfig, generate_company_like
from repro.datasets.workload import (
    SkewedWorkloadConfig,
    generate_skewed_workload,
)
from repro.planner import route_by_cost

CONFIG = SyntheticConfig(
    departments=8,
    projects_per_department=3,
    employees_per_department=8,
    works_on_per_employee=2,
    dependents_per_employee=0.5,
    seed=11,
)
WORKLOAD = SkewedWorkloadConfig(
    queries=30, keyword_pool=10, max_matches=16, seed=5
)
LIMITS = SearchLimits(max_rdb_length=4, max_tuples=4)
TOP_K = 3
JOBS = 4


def build_workload():
    database = generate_company_like(CONFIG)
    queries = generate_skewed_workload(database, WORKLOAD)
    return database, [query.text for query in queries]


def snap(results):
    return [(r.render(), r.score, r.rank) for r in results]


def run_serial(database, texts, core="csr", top_k=TOP_K):
    """Answer the workload; returns (answers, work, pruned, engine)."""
    engine = KeywordSearchEngine(database, core=core)
    answers = []
    work = []
    pruned = 0
    for text in texts:
        answers.append(snap(engine.search(text, limits=LIMITS, top_k=top_k)))
        work.append(max(1, engine.last_stats.candidates))
        pruned += engine.last_stats.pruned
    return answers, work, pruned, engine


def makespan(assignment, work) -> float:
    return max(
        (sum(work[p] for p in chunk) for chunk in assignment if chunk),
        default=0.0,
    )


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI gate: smaller workload, pooled leg on 12 "
                             "queries")
    args = parser.parse_args(argv)

    database, texts = build_workload()
    if args.quick:
        texts = texts[:20]

    # -- pushdown identity ---------------------------------------------
    csr_answers, __, pruned, __ = run_serial(database, texts)
    reference_answers, __, __, __ = run_serial(
        database, texts, core="reference")
    print(f"pushdown: {len(texts)} skewed queries top-{TOP_K}, "
          f"{pruned} provably-empty units pruned on csr", file=out)
    if csr_answers != reference_answers:
        print("FAIL: csr top-k answers diverged from the reference core",
              file=out)
        return 1
    print("OK: csr top-k answers bit-identical to the reference core",
          file=out)

    # -- dispatch gate (full enumeration) ------------------------------
    __, work, __, engine = run_serial(database, texts, top_k=None)
    costs = [engine.query_cost(text) for text in texts]
    routed = route_by_cost(costs, JOBS)
    size = (len(texts) + JOBS - 1) // JOBS
    contiguous = [list(range(start, min(start + size, len(texts))))
                  for start in range(0, len(texts), size)]
    routed_span = makespan(routed, work)
    contiguous_span = makespan(contiguous, work)
    ratio = contiguous_span / max(1.0, routed_span)
    print(f"dispatch: jobs={JOBS}, contiguous makespan "
          f"{contiguous_span:g}, cost-routed {routed_span:g} "
          f"(observed candidate work, full enumeration)", file=out)
    print(f"planner-makespan-ratio: {ratio:.3f}", file=out)
    if routed_span > contiguous_span:
        print("FAIL: cost routing produced a worse makespan than "
              "contiguous chunking", file=out)
        return 1
    print(f"OK: cost-routed makespan {ratio:.2f}x better-or-equal", file=out)

    # -- pooled correctness --------------------------------------------
    pooled_texts = texts[:12] if args.quick else texts
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "planner.snap")
        KeywordSearchEngine(database).save(path)
        pooled = KeywordSearchEngine.open(path)
        try:
            batched = pooled.search_batch(
                pooled_texts, limits=LIMITS, top_k=TOP_K, jobs=JOBS)
            observed = [snap(results) for results in batched]
        finally:
            pooled.close_pool()
            pooled.close()
    expected = csr_answers[:len(pooled_texts)]
    if observed != expected:
        print("FAIL: pooled cost-routed batch diverged from serial answers",
              file=out)
        return 1
    print(f"OK: pooled jobs={JOBS} batch over {len(pooled_texts)} queries "
          f"bit-identical to serial", file=out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
