"""The benchmark's workloads: inputs, set-up, operations, oracles.

Every workload is a closed loop driven by one client: each operation
waits for its reply before the next is sent.  Inputs come only from the
generators in ``repro.datasets``, seeded from the command-line seed, and
the engine is driven only through ``KeywordSearchEngine`` (constructor,
``open``, ``search``, ``search_batch``, ``apply``).

Why these: ``query_full`` loads the kernel, materialisation and scoring
and leaves the cache, WAL and pool idle; ``query_topk`` loads the
planner, pushdown heaps, distance prefetch and network scoring;
``live_rw`` puts durable writes beside cached reads; ``batch_pool`` is
the only one that runs the worker pool, cost routing, shards and
snapshots.  Each optimisation thus has a workload that exercises it and
one that does not.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from repro import KeywordSearchEngine, SearchLimits
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_company_like,
    generate_tenants,
)
from repro.datasets.workload import (
    MixedWorkloadConfig,
    SkewedWorkloadConfig,
    generate_mixed_workload,
    generate_skewed_workload,
)

#: The re-anchor workload's budget: paths of at most four FK edges.
QUERY_LIMITS = SearchLimits(max_rdb_length=4)
#: Joining networks capped at four tuples; at five, single 3-keyword AND
#: queries on this database shape take tens of seconds (the match cliff).
TOPK_LIMITS = SearchLimits(max_rdb_length=4, max_tuples=4)
TOP_K = 10
JOBS = 2
KEYWORD_POOL = 12


@dataclass(frozen=True)
class Op:
    """One closed-loop call: a search, an apply batch or a search batch."""

    kind: str  # "search" | "apply" | "batch"
    query: str = ""
    semantics: str = "and"
    top_k: int | None = None
    mutations: tuple = ()
    batch: tuple = ()

    @property
    def weight(self) -> int:
        """Operations this call completes (queries of a batch)."""
        return len(self.batch) if self.kind == "batch" else 1


def answers(results) -> list[tuple]:
    """The oracle's view of a result list: render, score and rank."""
    return [(r.answer.render(), r.score, r.rank) for r in results]


def distinct(ops) -> list[Op]:
    return list(dict.fromkeys(ops))


#: Generator seeds of the fixed inputs: the ROADMAP re-anchor database
#: and the skewed workload's default keyword planting.  Where a seed
#: plants its keywords moves throughput by more than a run's noise, so
#: every workload fixes its database and planted query multiset, and
#: ``--seed`` draws the order of the operations (and the ``live_rw``
#: stream).
DATABASE_SEED = 3
PLANT_SEED = 17


def planted(database, queries: int, max_matches: int, keywords_per_query: int = 2):
    """Plant the 12-keyword skewed pool into ``database``; its queries."""
    return generate_skewed_workload(
        database,
        SkewedWorkloadConfig(
            queries=queries,
            keywords_per_query=keywords_per_query,
            keyword_pool=KEYWORD_POOL,
            max_matches=max_matches,
            seed=PLANT_SEED,
        ),
    )


def company():
    return generate_company_like(
        SyntheticConfig(departments=40, employees_per_department=25, seed=DATABASE_SEED)
    )


class Workload:
    """Base: subclasses set ``ops`` and implement ``start``/``check``."""

    name = ""
    why = ""
    #: Whether ``ops`` is a stream consumed once rather than a cycle.
    stream = False
    #: Whether the client may be pinned to one CPU (not when it forks a
    #: worker pool, whose workers would inherit the pin).
    pinned = True

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ops: list[Op] = []

    def sizes(self) -> dict:
        raise NotImplementedError

    def start(self) -> KeywordSearchEngine:
        """Build or open the engine (the first half of set-up)."""
        raise NotImplementedError

    def warm(self, engine: KeywordSearchEngine) -> None:
        """Run every distinct read once so the distance-row cache, the CSR
        compile and lazy snapshot sections are done.  A fixed order keeps
        the work (and the planner calibration it leaves) independent of
        the order the seed gave the operations."""
        reads = distinct(op for op in self.ops if op.kind != "apply")
        for op in sorted(reads, key=lambda op: (op.batch, op.query, op.semantics)):
            self.execute(engine, op)

    def setup(self) -> KeywordSearchEngine:
        engine = self.start()
        self.warm(engine)
        return engine

    def execute(self, engine: KeywordSearchEngine, op: Op):
        if op.kind == "search":
            return engine.search(op.query, top_k=op.top_k, semantics=op.semantics)
        if op.kind == "apply":
            return engine.apply(op.mutations)
        return engine.search_batch(list(op.batch), jobs=JOBS)

    def check(self, engine: KeywordSearchEngine) -> list[str]:
        """Correctness problems found after the run (empty when correct)."""
        raise NotImplementedError


class QueryFull(Workload):
    name = "query_full"
    why = (
        "2-keyword AND, full enumeration, no result cache: kernel, "
        "materialisation and scoring do the work; cache, WAL and pool idle"
    )
    queries = 200
    max_matches = 20
    reference_sample = 2

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.database = company()
        queries = planted(self.database, self.queries, self.max_matches)
        self.ops = [Op("search", query.text) for query in queries]
        random.Random(seed).shuffle(self.ops)

    def sizes(self) -> dict:
        return {
            "tuples": self.database.count(),
            "queries": len(self.ops),
            "distinct_queries": len(distinct(self.ops)),
            "keyword_pool": KEYWORD_POOL,
            "max_matches": self.max_matches,
        }

    def start(self) -> KeywordSearchEngine:
        return KeywordSearchEngine(
            self.database, limits=QUERY_LIMITS, result_cache_entries=0
        )

    def check(self, engine: KeywordSearchEngine) -> list[str]:
        # The reference core costs seconds per query, so compare the few
        # cheapest queries that have answers, bit for bit.
        costed = []
        for op in distinct(self.ops):
            results = self.execute(engine, op)
            if results:
                costed.append((engine.last_stats.candidates, op.query, results))
        costed.sort(key=lambda item: item[:2])
        reference = KeywordSearchEngine(
            self.database,
            limits=QUERY_LIMITS,
            result_cache_entries=0,
            core="reference",
        )
        problems = []
        for __, query, results in costed[: self.reference_sample]:
            if answers(reference.search(query)) != answers(results):
                problems.append(f"{query!r}: csr core differs from reference core")
        if len(costed) < self.reference_sample:
            problems.append("too few answered queries for the reference check")
        return problems


class QueryTopK(Workload):
    name = "query_topk"
    why = (
        "3-keyword AND/OR top-10: planner, pushdown heaps, distance "
        "prefetch and network scoring do the work below the match cliff"
    )
    queries = 100
    max_matches = 6
    oracle_sample = 10

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.database = company()
        queries = planted(self.database, self.queries, self.max_matches, 3)
        semantics = random.Random(PLANT_SEED)
        self.ops = [
            Op("search", query.text, semantics.choice(("and", "or")), TOP_K)
            for query in queries
        ]
        random.Random(seed).shuffle(self.ops)

    def sizes(self) -> dict:
        return {
            "tuples": self.database.count(),
            "queries": len(self.ops),
            "distinct_queries": len(distinct(self.ops)),
            "keyword_pool": KEYWORD_POOL,
            "max_matches": self.max_matches,
            "top_k": TOP_K,
        }

    def start(self) -> KeywordSearchEngine:
        return KeywordSearchEngine(
            self.database, limits=TOPK_LIMITS, result_cache_entries=0
        )

    def check(self, engine: KeywordSearchEngine) -> list[str]:
        # Top-k must be the first k of the full answer list; sample the
        # distinct queries evenly by cost, skipping the costliest tenth.
        costed = []
        for op in distinct(self.ops):
            results = self.execute(engine, op)
            costed.append((engine.last_stats.candidates, op.query, op.semantics, results))
        costed.sort(key=lambda item: item[:3])
        usable = costed[: max(1, len(costed) * 9 // 10)]
        step = max(1, len(usable) // self.oracle_sample)
        problems = []
        for __, query, semantics, results in usable[::step][: self.oracle_sample]:
            full = engine.search(query, semantics=semantics)
            if answers(full[:TOP_K]) != answers(results):
                problems.append(f"{query!r} ({semantics}): top-k differs from full list")
        return problems


class LiveReadWrite(Workload):
    name = "live_rw"
    why = (
        "top-10 reads with the result cache beside durable apply batches "
        "(WAL fdatasync): cache, live maintenance, CSR patching and WAL work"
    )
    stream = True
    queries = 200
    max_matches = 20
    operations = 6000
    update_ratio = 0.2
    mutations_per_batch = 4

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        database = company()
        mixed = generate_mixed_workload(
            database,
            planted(database, self.queries, self.max_matches),
            MixedWorkloadConfig(
                operations=self.operations,
                update_ratio=self.update_ratio,
                mutations_per_batch=self.mutations_per_batch,
                skew=1.0,
                seed=seed,
            ),
        )
        self.ops = [
            Op("search", op.query, top_k=TOP_K)
            if op.kind == "search"
            else Op("apply", mutations=op.mutations)
            for op in mixed
        ]
        self.tuples = database.count()
        self.snapshot = os.path.join(workdir, "live.snap")
        engine = KeywordSearchEngine(database, limits=QUERY_LIMITS)
        engine.save(self.snapshot)
        engine.close()

    def sizes(self) -> dict:
        return {
            "tuples": self.tuples,
            "stream_operations": len(self.ops),
            "distinct_queries": len(distinct(op for op in self.ops if op.kind == "search")),
            "keyword_pool": KEYWORD_POOL,
            "max_matches": self.max_matches,
            "update_ratio": self.update_ratio,
            "mutations_per_batch": self.mutations_per_batch,
            "top_k": TOP_K,
        }

    def start(self) -> KeywordSearchEngine:
        wal = self.snapshot + ".wal"
        if os.path.exists(wal):
            os.remove(wal)
        return KeywordSearchEngine.open(self.snapshot, wal=True, limits=QUERY_LIMITS)

    def warm(self, engine: KeywordSearchEngine) -> None:
        super().warm(engine)
        engine.result_cache.clear()

    def check(self, engine: KeywordSearchEngine) -> list[str]:
        queries = distinct(op for op in self.ops if op.kind == "search")
        fresh = KeywordSearchEngine(engine.database, limits=QUERY_LIMITS)
        expected = [answers(self.execute(fresh, op)) for op in queries]
        problems = [
            f"{op.query!r}: live engine differs from a fresh build"
            for op, want in zip(queries, expected)
            if answers(self.execute(engine, op)) != want
        ]
        engine.detach_wal()
        with KeywordSearchEngine.open(
            self.snapshot, wal=True, limits=QUERY_LIMITS
        ) as replayed:
            problems += [
                f"{op.query!r}: snapshot + WAL replay differs from a fresh build"
                for op, want in zip(queries, expected)
                if answers(self.execute(replayed, op)) != want
            ]
        return problems


class BatchPool(Workload):
    name = "batch_pool"
    why = (
        "full-mode search_batch(jobs=2) on a 4-shard snapshot of 4 tenants: "
        "worker pool, cost routing, shards and snapshot do the work"
    )
    pinned = False
    queries = 192
    batch_size = 16
    tenants = 4
    max_matches = 20
    oracle_batches = 3

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        database = generate_tenants(
            SyntheticConfig(
                departments=10, employees_per_department=25, seed=DATABASE_SEED
            ),
            tenants=self.tenants,
        )
        texts = [query.text for query in planted(database, self.queries, self.max_matches)]
        self.ops = [
            Op("batch", batch=tuple(texts[start : start + self.batch_size]))
            for start in range(0, len(texts), self.batch_size)
        ]
        random.Random(seed).shuffle(self.ops)
        self.tuples = database.count()
        self.snapshot = os.path.join(workdir, "pool.snap")
        engine = KeywordSearchEngine(
            database, limits=QUERY_LIMITS, shards=4, result_cache_entries=0
        )
        engine.save(self.snapshot)
        engine.close()

    def sizes(self) -> dict:
        return {
            "tuples": self.tuples,
            "tenants": self.tenants,
            "shards": 4,
            "queries": self.queries,
            "batch_size": self.batch_size,
            "keyword_pool": KEYWORD_POOL,
            "max_matches": self.max_matches,
            "jobs": JOBS,
        }

    def start(self) -> KeywordSearchEngine:
        return KeywordSearchEngine.open(
            self.snapshot, limits=QUERY_LIMITS, result_cache_entries=0
        )

    def check(self, engine: KeywordSearchEngine) -> list[str]:
        problems = []
        for index, op in enumerate(self.ops[: self.oracle_batches]):
            pooled = self.execute(engine, op)
            serial = engine.search_batch(list(op.batch))
            if [answers(r) for r in pooled] != [answers(r) for r in serial]:
                problems.append(f"batch {index}: pooled results differ from serial")
        return problems


WORKLOADS = {
    workload.name: workload
    for workload in (QueryFull, QueryTopK, LiveReadWrite, BatchPool)
}
