"""Approximate maximum-weight degree-capped matching via adaptive sketching.

The package solves maximum-weight b-matching on general (nonbipartite)
graphs to a ``1 - O(eps)`` factor by running a dual-primal
multiplicative-weights loop over simulated adaptive sketching rounds,
and ships exact small-scale oracles so every guarantee can be checked
on desk-sized inputs.
"""

from __future__ import annotations

from .driver import (
    SolveReport,
    SolverConfig,
    ratio_floor_for,
    round_cap_for,
    solve,
    space_cap_for,
)
from .exact import (
    brute_force_bmatching,
    check_dual_feasible,
    enumerate_cuts_check,
    exact_lp_values,
)
from .graph import (
    Graph,
    GraphFormatError,
    LeveledGraph,
    OddSetFamily,
    count_small_odd_sets,
    discretize,
    enumerate_small_odd_sets,
    find_max_weight,
    load_graph,
)
from .oracle import (
    BMatching,
    DualStep,
    PrimalCertificate,
    check_dual_step,
    check_primal_certificate,
    extract_integral,
    initial_solution,
    matching_oracle,
    offline_bmatching,
    verify_switch,
)
from .sketch import (
    DeferredSketch,
    RoundLedger,
    build_deferred,
    refine_deferred,
)
from .system import DualIterate, SystemIndex, budget_value, convert_to_matching_dual

__version__ = "0.1.0"

__all__ = [
    "BMatching",
    "DeferredSketch",
    "DualIterate",
    "DualStep",
    "Graph",
    "GraphFormatError",
    "LeveledGraph",
    "OddSetFamily",
    "PrimalCertificate",
    "RoundLedger",
    "SolveReport",
    "SolverConfig",
    "SystemIndex",
    "__version__",
    "brute_force_bmatching",
    "budget_value",
    "build_deferred",
    "check_dual_feasible",
    "check_dual_step",
    "check_primal_certificate",
    "convert_to_matching_dual",
    "count_small_odd_sets",
    "discretize",
    "enumerate_cuts_check",
    "enumerate_small_odd_sets",
    "exact_lp_values",
    "extract_integral",
    "find_max_weight",
    "initial_solution",
    "load_graph",
    "matching_oracle",
    "offline_bmatching",
    "ratio_floor_for",
    "refine_deferred",
    "round_cap_for",
    "solve",
    "space_cap_for",
    "verify_switch",
]
