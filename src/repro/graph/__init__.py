"""Graph views over schemas and database instances.

* :mod:`repro.graph.schema_graph` — relations as nodes, foreign keys as
  edges annotated with the cardinality they implement;
* :mod:`repro.graph.data_graph` — tuples as nodes (the BANKS view of a
  database) plus the *conceptual* collapse that removes middle-relation
  tuples;
* :mod:`repro.graph.traversal` — brute-force bounded enumeration of
  paths and joining trees: the ``reference`` core and oracle;
* :mod:`repro.graph.csr` — the compiled integer-interned CSR kernel
  (the ``csr`` core, which serves every query by default), bit-identical
  to the reference and patched in place by live updates;
* :mod:`repro.graph.traversal_cache` — the engine-owned cache holding
  the compiled graph and its reuse counters.
"""

from repro.graph.schema_graph import SchemaGraph
from repro.graph.csr import FrozenGraph, resolve_core
from repro.graph.data_graph import DataGraph
from repro.graph.traversal_cache import TraversalCache

__all__ = [
    "DataGraph",
    "FrozenGraph",
    "SchemaGraph",
    "TraversalCache",
    "resolve_core",
]
