"""Multicast-aware cache placement for small-cell networks.

Expected-cost model for deadline-batched multicast delivery, cache
placement solvers (greedy, local search, popularity baseline, exhaustive
optimum), a Monte Carlo validator, the set-packing hardness reduction,
and an experiment harness for scheme comparisons.
"""

from .errors import CapacityError
from .model import (
    MBS_AREA,
    CachingPolicy,
    Instance,
    mbs_triggered,
    request_probability,
    subset_probability,
)
from .cost import (
    CostBreakdown,
    cost_bruteforce,
    cost_closed_form,
    cost_unicast,
)
from .solvers import (
    SolverReport,
    exact_optimal,
    greedy_macp,
    local_search,
    popularity_placement,
)
from .reduction import (
    DecisionInstance,
    SppInstance,
    decision_cost,
    macdp_decide,
    packing_from_policy,
    policy_from_packing,
    spp_decide,
    spp_to_macdp,
)
from .sim import SimConfig, SimReport, simulate
from .scenario import (
    SCHEMES,
    ScenarioConfig,
    SchemeResult,
    SweepResult,
    SweepRow,
    cost_reduction_summary,
    generate_scenario,
    run_comparison,
    sweep,
    sweep_csv,
    write_sweep_csv,
    zipf_weights,
)

__all__ = [
    "CapacityError",
    "MBS_AREA",
    "Instance",
    "CachingPolicy",
    "request_probability",
    "subset_probability",
    "mbs_triggered",
    "CostBreakdown",
    "cost_bruteforce",
    "cost_closed_form",
    "cost_unicast",
    "SolverReport",
    "greedy_macp",
    "local_search",
    "popularity_placement",
    "exact_optimal",
    "SppInstance",
    "DecisionInstance",
    "spp_to_macdp",
    "decision_cost",
    "macdp_decide",
    "spp_decide",
    "packing_from_policy",
    "policy_from_packing",
    "SimConfig",
    "SimReport",
    "simulate",
    "SCHEMES",
    "ScenarioConfig",
    "SchemeResult",
    "SweepRow",
    "SweepResult",
    "generate_scenario",
    "run_comparison",
    "sweep",
    "sweep_csv",
    "write_sweep_csv",
    "cost_reduction_summary",
    "zipf_weights",
]

__version__ = "0.1.0"
