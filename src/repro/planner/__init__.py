"""Cost-based planning: estimates, calibration, and routing.

The planner layer turns statistics the engine already collects —
posting lengths, :class:`~repro.relational.statistics.DatabaseStatistics`
fan-outs, CSR distance rows, shard sizes and observed
:class:`~repro.core.executor.ExecutionStats` — into three decisions:

* **selectivity-ordered enumeration** — pushdown execution orders
  `PairPaths` / `NetworkGrowth` units by an admissible distance bound
  instead of plan order, so score lower bounds are reached sooner and
  provably empty units never run (see ``core/executor.py``);
* **cost-routed dispatch** — ``search_batch(jobs=N)`` assigns queries
  to workers by predicted cost (:func:`route_by_cost`) instead of
  contiguous chunking;
* **online recalibration** — observed candidate counts feed a
  :class:`CalibrationTable` persisted through the snapshot.

Everything here is advisory: answers stay bit-identical to full
enumeration (``pushdown=False``) and to the ``reference`` core.
"""

from repro.planner.cost import (
    DEFAULT_FANOUT,
    CalibrationTable,
    CostModel,
    UnitEstimate,
)
from repro.planner.dispatch import route_by_cost

__all__ = [
    "DEFAULT_FANOUT",
    "CalibrationTable",
    "CostModel",
    "UnitEstimate",
    "route_by_cost",
]
