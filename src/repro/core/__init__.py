"""URR core: the paper's primary contribution.

Problem model (Section 2), the transfer-event structure and single-rider
insertion (Section 3), and the four solvers plus the exact baseline
(Sections 4-7).
"""

from repro.core.assignment import Assignment
from repro.core.bilateral import run_bilateral
from repro.core.bounds import BoundReport, serviceable_riders, utility_upper_bound
from repro.core.candidates import (
    CANDIDATE_MODES,
    CandidateIndex,
    VehicleColumns,
    build_candidate_index,
)
from repro.core.cost_first import run_cost_first
from repro.core.dispatch import DispatchConfig, Dispatcher, FrameReport
from repro.core.metrics import (
    AssignmentMetrics,
    RiderMetrics,
    compute_metrics,
    format_metrics,
)
from repro.core.exact import solve_optimal
from repro.core.greedy import run_efficient_greedy
from repro.core.hardness import (
    KnapsackItem,
    dense_subgraph_to_urr,
    knapsack_to_urr,
)
from repro.core.grouping import (
    GroupingPlan,
    estimate_best_k,
    gbs_cost_derivative,
    gbs_cost_model,
    prepare_grouping,
    run_grouping,
)
from repro.core.insertion import (
    InsertionCandidate,
    InsertionPlan,
    InsertionResult,
    arrange_single_rider,
    arrange_single_rider_reference,
    can_serve,
    plan_insertion,
    valid_insertions,
)
from repro.core.instance import URRInstance
from repro.core.local_search import SearchStats, improve_assignment
from repro.core.reorder import arrange_single_rider_reordered
from repro.core.requests import Rider
from repro.core.schedule import Stop, StopKind, TransferSequence
from repro.core.scoring import PairEvaluation, SolverState, greedy_assign
from repro.core.solver import METHODS, solve
from repro.core.utility import UtilityModel, trajectory_utility
from repro.core.utility_ext import (
    ExtendedUtilityModel,
    UtilityComponent,
    empty_distance_component,
    punctuality_component,
)
from repro.core.vehicles import Vehicle

__all__ = [
    "Assignment",
    "AssignmentMetrics",
    "BoundReport",
    "CANDIDATE_MODES",
    "CandidateIndex",
    "DispatchConfig",
    "Dispatcher",
    "ExtendedUtilityModel",
    "FrameReport",
    "GroupingPlan",
    "KnapsackItem",
    "InsertionCandidate",
    "InsertionPlan",
    "InsertionResult",
    "METHODS",
    "PairEvaluation",
    "Rider",
    "SearchStats",
    "SolverState",
    "Stop",
    "StopKind",
    "TransferSequence",
    "URRInstance",
    "RiderMetrics",
    "UtilityComponent",
    "UtilityModel",
    "Vehicle",
    "VehicleColumns",
    "arrange_single_rider",
    "arrange_single_rider_reference",
    "compute_metrics",
    "dense_subgraph_to_urr",
    "empty_distance_component",
    "format_metrics",
    "punctuality_component",
    "arrange_single_rider_reordered",
    "build_candidate_index",
    "can_serve",
    "estimate_best_k",
    "gbs_cost_derivative",
    "gbs_cost_model",
    "greedy_assign",
    "improve_assignment",
    "knapsack_to_urr",
    "plan_insertion",
    "prepare_grouping",
    "run_bilateral",
    "serviceable_riders",
    "utility_upper_bound",
    "run_cost_first",
    "run_efficient_greedy",
    "run_grouping",
    "solve",
    "solve_optimal",
    "trajectory_utility",
    "valid_insertions",
]
