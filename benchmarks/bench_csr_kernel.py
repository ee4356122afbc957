"""Experiment P3 (extension): the compiled CSR kernel, timed and sized.

Measures the integer-interned CSR traversal kernels
(:mod:`repro.graph.csr`) on a planted synthetic workload:

* **identity** — every simple path (to a depth bound) over a pair
  workload and every joining tree over a required-set workload must
  equal the brute-force reference kernels' output, order included.
* **batch enumeration** — drain the same workloads from warm caches
  (pure kernel time), reported in ms.
* **top-k style enumeration** — consume only the first ``k`` items of
  each enumeration (the executor's pushdown consumption pattern), where
  per-call setup (distance rows, visited scratch) weighs more than
  steady-state throughput.
* **memory footprint** — the compiled graph's flat arrays, reported in
  bytes and bytes/entry.
* **vector backend (P6)** — multi-source distance blocks and component
  labelling on a large synthetic graph, vectorized numpy backend vs the
  scalar csr core (``vector=False``), bit-identity asserted first; the
  combined cold-sweep ratio is the gate (>= 10x).  Skipped (without
  failing) when numpy is unavailable so the no-numpy CI leg stays
  green.  Footprint deltas between the two backends are reported —
  ~zero is the point: the numpy views are zero-copy.

CSR speed against the reference core is gated end to end by
``bench_workload_throughput.py`` (>= 2x).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_csr_kernel.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_csr_kernel.py --quick  # CI gate

or through pytest-benchmark like the other benches
(``pytest benchmarks/ -o python_files='bench_*.py'``).
"""

import argparse
import sys
import time
from itertools import islice

import pytest

from repro.datasets.synthetic import SyntheticConfig, generate_company_like
from repro.graph.csr import (
    FrozenGraph,
    csr_enumerate_joining_trees,
    csr_enumerate_simple_paths,
)
from repro.graph.data_graph import DataGraph
from repro.graph.traversal import enumerate_joining_trees, enumerate_simple_paths
from repro.graph.traversal_cache import TraversalCache


def _database(departments=12, employees=12, works_on=4):
    return generate_company_like(
        SyntheticConfig(
            departments=departments,
            projects_per_department=4,
            employees_per_department=employees,
            works_on_per_employee=works_on,
            seed=17,
        )
    )


def _workloads(graph, pairs=50, combos=8):
    """Deterministic pair / required-set workloads over one data graph."""
    nodes = sorted(graph.graph.nodes, key=str)
    employees = [n for n in nodes if n.relation == "EMPLOYEE"]
    projects = [n for n in nodes if n.relation == "PROJECT"]
    pair_workload = [
        (e, p) for e in employees[:12] for p in projects[:6]
    ][:pairs]
    combo_workload = [
        (employees[i % len(employees)],
         projects[i % len(projects)],
         employees[(i + 3) % len(employees)])
        for i in range(combos)
    ]
    return pair_workload, combo_workload


def _drain_paths(graph, pairs, depth, cache):
    produced = 0
    for source, target in pairs:
        for __ in csr_enumerate_simple_paths(
            graph, source, target, depth, cache=cache
        ):
            produced += 1
    return produced


def _drain_trees(graph, combos, max_tuples, cache):
    produced = 0
    for combo in combos:
        for __ in csr_enumerate_joining_trees(
            graph, list(combo), max_tuples, cache=cache
        ):
            produced += 1
    return produced


def _topk_paths(graph, pairs, depth, cache, k):
    produced = 0
    for source, target in pairs:
        for __ in islice(
            csr_enumerate_simple_paths(graph, source, target, depth, cache=cache),
            k,
        ):
            produced += 1
    return produced


def _topk_trees(graph, combos, max_tuples, cache, k):
    produced = 0
    for combo in combos:
        for __ in islice(
            csr_enumerate_joining_trees(
                graph, list(combo), max_tuples, cache=cache
            ),
            k,
        ):
            produced += 1
    return produced


def _best(callable_, rounds):
    best = None
    for __ in range(rounds):
        started = time.perf_counter()
        callable_()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def kernel_setup():
    graph = DataGraph(_database())
    pairs, combos = _workloads(graph)
    cache = TraversalCache(graph)
    cache.frozen()
    return graph, pairs, combos, cache


def test_path_enumeration(benchmark, kernel_setup):
    graph, pairs, __, cache = kernel_setup
    benchmark.group = "P3 path enumeration"
    benchmark.name = "csr"
    _drain_paths(graph, pairs, 6, cache)  # warm caches
    produced = benchmark(lambda: _drain_paths(graph, pairs, 6, cache))
    assert produced > 0


def test_tree_enumeration(benchmark, kernel_setup):
    graph, __, combos, cache = kernel_setup
    benchmark.group = "P3 tree enumeration"
    benchmark.name = "csr"
    _drain_trees(graph, combos, 6, cache)
    produced = benchmark(lambda: _drain_trees(graph, combos, 6, cache))
    assert produced > 0


# ----------------------------------------------------------------------
# standalone report (CI smoke runs this with --quick)
# ----------------------------------------------------------------------
def _kernel_section(graph, pairs, combos, depth, max_tuples, rounds, out):
    """Time the csr kernels after checking them against the reference;
    returns the compiled graph for the footprint report."""
    cache = TraversalCache(graph)
    csr_paths = [
        list(csr_enumerate_simple_paths(graph, source, target, depth,
                                        cache=cache))
        for source, target in pairs
    ]
    csr_trees = [
        list(csr_enumerate_joining_trees(graph, list(combo), max_tuples,
                                         cache=cache))
        for combo in combos
    ]
    assert csr_paths == [
        list(enumerate_simple_paths(graph, source, target, depth))
        for source, target in pairs
    ], "csr paths diverged from the reference kernel"
    assert csr_trees == [
        list(enumerate_joining_trees(graph, list(combo), max_tuples))
        for combo in combos
    ], "csr trees diverged from the reference kernel"
    batch = (
        _best(lambda: _drain_paths(graph, pairs, depth, cache), rounds),
        _best(lambda: _drain_trees(graph, combos, max_tuples, cache), rounds),
    )
    topk = (
        _best(lambda: _topk_paths(graph, pairs, depth, cache, 3), rounds),
        _best(lambda: _topk_trees(graph, combos, max_tuples, cache, 3), rounds),
    )
    paths = sum(len(found) for found in csr_paths)
    trees = sum(len(found) for found in csr_trees)
    print(f"kernel workload: {graph.number_of_nodes()} tuples, "
          f"{graph.number_of_edges()} edges, {len(pairs)} pairs "
          f"(depth {depth}), {len(combos)} required sets "
          f"(max {max_tuples} tuples) -> {paths} paths, {trees} trees",
          file=out)
    for label, (paths_s, trees_s) in (("batch (drain)", batch),
                                      ("top-k (islice 3)", topk)):
        print(f"  {label:18} csr {(paths_s + trees_s) * 1e3:8.2f} ms   "
              f"(paths {paths_s * 1e3:.2f} ms, trees {trees_s * 1e3:.2f} ms)",
              file=out)
    print("  answers identical to the reference kernels", file=out)
    return cache.frozen()


def _vector_section(rounds, out, sources_wanted=128):
    """P6: vectorized frontier-at-a-time kernels vs the scalar csr core.

    Returns the combined cold-sweep speedup, or ``None`` when the
    vectorized backend is unavailable (stdlib fallback active) — the
    caller then skips the gate instead of failing, so the no-numpy CI
    leg can still run this benchmark.
    """
    graph = DataGraph(_database(departments=30, employees=30, works_on=5))
    scalar = FrozenGraph(graph, vector=False)
    vector = FrozenGraph(graph)
    capacity = scalar.capacity
    step = max(1, capacity // sources_wanted)
    sources = list(range(0, capacity, step))[:sources_wanted]
    print(f"vector workload: {capacity} tuples, "
          f"{len(scalar._targets)} CSR entries, "
          f"{len(sources)}-source distance block + component labelling "
          f"[backend: {vector.backend_name}]", file=out)
    if not vector._backend.vectorized:
        print("  numpy unavailable (or REPRO_NO_VECTOR set) — vectorized "
              "gate skipped, stdlib fallback is the only backend", file=out)
        return None

    block = vector.distances_block(sources)
    for node in sources:
        assert block[node] == scalar.distances(node), \
            f"vector BFS row diverged for source {node}"
    assert vector.components() == scalar.components(), \
        "vector component labels diverged"

    def cold_block(frozen):
        def run():
            frozen._distances.clear()
            frozen.distances_block(sources)
        return run

    def cold_components(frozen):
        def run():
            frozen._components = None
            frozen.components()
        return run

    times = {
        name: (
            _best(cold_block(frozen), rounds),
            _best(cold_components(frozen), rounds),
        )
        for name, frozen in (("scalar", scalar), ("vector", vector))
    }
    for label, index in (("distance block", 0), ("components", 1)):
        ratio = times["scalar"][index] / max(times["vector"][index], 1e-9)
        print(f"  {label:18} scalar {times['scalar'][index] * 1e3:8.2f} ms   "
              f"vector {times['vector'][index] * 1e3:8.2f} ms   "
              f"speedup {ratio:.1f}x", file=out)
    combined = sum(times["scalar"]) / max(sum(times["vector"]), 1e-9)
    print(f"  {'combined':18} scalar {sum(times['scalar']) * 1e3:8.2f} ms   "
          f"vector {sum(times['vector']) * 1e3:8.2f} ms   "
          f"speedup {combined:.1f}x", file=out)

    scalar_footprint = scalar.memory_footprint()
    vector_footprint = vector.memory_footprint()
    deltas = ", ".join(
        f"{key} {vector_footprint[key] - scalar_footprint[key]:+,}"
        for key in ("arrays", "distances", "payload", "total")
    )
    print(f"  footprint delta (vector - scalar, bytes): {deltas} "
          f"— numpy views are zero-copy over the same buffers", file=out)
    return combined


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for CI smoke runs")
    args = parser.parse_args(argv)

    rounds = 3 if args.quick else 5
    depth = 6 if args.quick else 7
    graph = DataGraph(_database())
    pairs, combos = _workloads(graph, pairs=40 if args.quick else 60,
                               combos=6 if args.quick else 10)

    failures = []
    frozen = _kernel_section(graph, pairs, combos, depth, 6, rounds, out)

    footprint = frozen.memory_footprint()
    per_edge = footprint["total"] / max(1, len(frozen._targets))
    print(f"memory: compiled graph {footprint['total']:,} bytes for "
          f"{frozen.capacity} nodes / {len(frozen._targets)} CSR entries "
          f"({per_edge:.1f} bytes/entry) — arrays {footprint['arrays']:,}, "
          f"distance rows {footprint['distances']:,}, "
          f"edge payload {footprint['payload']:,}", file=out)

    vector_ratio = _vector_section(rounds, out)
    if vector_ratio is not None and vector_ratio < 10.0:
        failures.append(
            f"vector: combined speedup {vector_ratio:.1f}x < 10x over the "
            f"scalar csr core"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=out)
        return 1
    vector_note = (
        f"vector {vector_ratio:.1f}x >= 10x"
        if vector_ratio is not None
        else "vector gate skipped (stdlib backend)"
    )
    print(f"OK: {vector_note}, csr enumeration identical to the reference",
          file=out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
