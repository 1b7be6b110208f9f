"""Centralized algorithms (paper Sec. 4 plus transferred results).

Algorithm 1 for bounded-growth decay spaces, the general-metric greedy,
an exact optimum, conflict-graph baselines, the separation partitions of
Lemmas B.3/4.1, the Theorem-4 amicability extraction, and scheduling by
repeated capacity.
"""

from repro.algorithms.amicability import (
    AmicabilityReport,
    amicable_subset,
    verify_amicability,
)
from repro.algorithms.capacity import CapacityResult, capacity_bounded_growth
from repro.algorithms.context import DynamicContext, SchedulingContext
from repro.algorithms.capacity_general import (
    capacity_general_metric,
    capacity_strongest_first,
)
from repro.algorithms.capacity_opt import OPT_LIMIT, capacity_optimum
from repro.algorithms.capacity_weighted import (
    weighted_capacity_greedy,
    weighted_capacity_optimum,
)
from repro.algorithms.connectivity import (
    AggregationResult,
    aggregation_schedule,
    aggregation_tree,
)
from repro.algorithms.conflict_graph import (
    affectance_conflict_graph,
    capacity_conflict_graph,
    distance_conflict_graph,
    exact_independent_set,
    greedy_independent_set,
)
from repro.algorithms.repair import (
    CapacityRepairScheduler,
    OnlineRepairScheduler,
    RepairStats,
)
from repro.algorithms.partition import (
    lemma_b2_separation,
    partition_eta_separated,
    partition_feasible_to_separated,
)
from repro.algorithms.scheduling import (
    Schedule,
    schedule_first_fit,
    schedule_repeated_capacity,
)

__all__ = [
    "AggregationResult",
    "AmicabilityReport",
    "CapacityRepairScheduler",
    "CapacityResult",
    "DynamicContext",
    "OPT_LIMIT",
    "OnlineRepairScheduler",
    "RepairStats",
    "Schedule",
    "SchedulingContext",
    "affectance_conflict_graph",
    "amicable_subset",
    "capacity_bounded_growth",
    "capacity_conflict_graph",
    "capacity_general_metric",
    "capacity_optimum",
    "capacity_strongest_first",
    "distance_conflict_graph",
    "exact_independent_set",
    "greedy_independent_set",
    "lemma_b2_separation",
    "partition_eta_separated",
    "partition_feasible_to_separated",
    "schedule_first_fit",
    "schedule_repeated_capacity",
    "verify_amicability",
    "weighted_capacity_greedy",
    "weighted_capacity_optimum",
    "aggregation_schedule",
    "aggregation_tree",
]
