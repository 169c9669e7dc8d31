"""Shared builders and reference oracles for the test suite."""

import itertools
import math

import numpy as np

from macp import CachingPolicy, DecisionInstance, Instance, SppInstance
from macp.cost import _area_rates, _cached_split, _file_terms
from macp.reduction import COST_SLACK

# Two-SCBS, three-file walkthrough instance: unit macro cost, free SCBS
# transmissions, one cache slot each, one-second period.
MOTIVATING_RATES = [
    [0.0, 0.0, 0.0],
    [0.51, 0.49, 0.0],
    [0.51, 0.0, 0.49],
]


def motivating_instance() -> Instance:
    return Instance(
        num_scbs=2,
        num_files=3,
        cache_size=[1, 1],
        cost_backhaul=0.4,
        cost_mbs_tx=0.6,
        cost_scbs_tx=[0.0, 0.0],
        demand=MOTIVATING_RATES,
        deadline=1.0,
    )


def motivating_optimal_policy() -> CachingPolicy:
    # second file at the first SCBS, third file at the second
    return CachingPolicy.from_pairs(2, 3, [(1, 1), (2, 2)])


def motivating_popular_policy() -> CachingPolicy:
    # the locally most popular file at both SCBSs
    return CachingPolicy.from_pairs(2, 3, [(1, 0), (2, 0)])


def random_instance(
    rng: np.random.Generator,
    max_scbs: int = 8,
    max_files: int = 6,
    rate_high: float = 2.0,
    heavy_scbs_costs: bool = False,
) -> Instance:
    """Random small instance.

    By default SCBS costs are scaled so their sum stays below the macro
    cost, which keeps placements cost-monotone; ``heavy_scbs_costs`` lifts
    that restriction (still respecting c_n <= c_W) to exercise the general
    cost regime.
    """
    n = int(rng.integers(1, max_scbs + 1))
    i = int(rng.integers(1, max_files + 1))
    cost_w = float(rng.uniform(0.2, 1.5))
    cost_b = float(rng.uniform(0.0, 1.5))
    if heavy_scbs_costs:
        c = rng.uniform(0.0, cost_w, size=n)
    else:
        c = rng.uniform(0.0, min(cost_w, (cost_b + cost_w) / n), size=n)
    demand = rng.uniform(0.0, rate_high, size=(n + 1, i))
    demand[rng.random(demand.shape) < 0.2] = 0.0
    if rng.random() < 0.3:
        demand[0] = 0.0
    return Instance(
        num_scbs=n,
        num_files=i,
        cache_size=rng.integers(0, i + 1, size=n),
        cost_backhaul=cost_b,
        cost_mbs_tx=cost_w,
        cost_scbs_tx=c,
        demand=demand,
        deadline=float(rng.uniform(0.2, 3.0)),
    )


def random_policy(rng: np.random.Generator, instance: Instance) -> CachingPolicy:
    """Uniformly random feasible placement for the instance."""
    x = np.zeros((instance.num_scbs, instance.num_files), dtype=np.int8)
    for row in range(instance.num_scbs):
        k = int(rng.integers(0, instance.cache_size[row] + 1))
        if k:
            x[row, rng.choice(instance.num_files, size=k, replace=False)] = 1
    return CachingPolicy(x)


def random_spp(rng: np.random.Generator, max_elements: int = 6, max_subsets: int = 6) -> SppInstance:
    """Random set packing question over a small integer universe."""
    n = int(rng.integers(1, max_elements + 1))
    universe = list(range(1, n + 1))
    count = int(rng.integers(1, max_subsets + 1))
    subsets = []
    for _ in range(count):
        mask = rng.random(n) < rng.uniform(0.2, 0.8)
        subsets.append(frozenset(e for e, hit in zip(universe, mask) if hit))
    return SppInstance(frozenset(universe), tuple(subsets), int(rng.integers(0, count + 1)))


# Reference oracles: the scalar per-policy scans that the block scans of
# ``exact_optimal`` and ``macdp_decide`` replaced, one placement per Python
# iteration, with their own enumerator.  The library must agree with them
# placement for placement and bit for bit.


def reference_feasible_placements(num_files, cache_sizes):
    """Every feasible placement as a tuple of 0/1 row tuples, lexicographic order."""
    per_row = []
    for s in cache_sizes:
        rows = []
        for k in range(min(int(s), num_files) + 1):
            for combo in itertools.combinations(range(num_files), k):
                row = [0] * num_files
                for f in combo:
                    row[f] = 1
                rows.append(tuple(row))
        rows.sort()
        per_row.append(rows)
    return itertools.product(*per_row)


def reference_exact_optimal(instance: Instance):
    """``(placement, evaluations, best_cost)`` of the scalar exhaustive scan."""
    i = instance.num_files
    c_mbs, rate_mbs, rate, local_cost = _area_rates(instance)
    best_cost = math.inf
    best = None
    evaluations = 0
    for rows in reference_feasible_placements(i, instance.cache_size):
        x = np.array(rows, dtype=bool)
        rate_out, local = _cached_split(rate_mbs, rate, local_cost, x)
        cost = float(_file_terms(c_mbs, rate_out, local).sum())
        evaluations += 1
        if cost < best_cost:
            best_cost = cost
            best = x
    return best.astype(np.int8), evaluations, best_cost


def reference_macdp_decide(decision: DecisionInstance):
    """``(answer, placement or None)`` of the scalar scan with its early break."""
    n, i = decision.num_scbs, decision.num_files
    c = decision.cost_scbs_tx
    c_mbs = decision.cost_backhaul + decision.cost_mbs_tx
    limit = decision.threshold + COST_SLACK

    # Entries touching the macro-only area cost c_mbs under any policy.
    fixed = 0.0
    dynamic = []
    for file, entries in enumerate(decision.probabilities):
        for areas, pr in entries:
            if not areas or pr == 0.0:
                continue
            if 0 in areas:
                fixed += pr * c_mbs
            else:
                rows = tuple(a - 1 for a in sorted(areas))
                local = pr * sum(c[r] for r in rows)
                dynamic.append((file, rows, pr * c_mbs, local))

    if fixed > limit:
        return False, None

    for assignment in reference_feasible_placements(i, decision.cache_size):
        cost = fixed
        for file, rows, mbs_term, local_term in dynamic:
            if all(assignment[r][file] for r in rows):
                cost += local_term
            else:
                cost += mbs_term
            if cost > limit:
                break
        else:
            return True, np.array(assignment, dtype=np.int8).reshape(n, i)
    return False, None


def random_decision(
    rng: np.random.Generator, max_scbs: int = 3, max_files: int = 4
) -> DecisionInstance:
    """Random threshold question over a general probability table.

    Entries may include the macro-only area, carry zero probability or
    list no area; a file's masses may sum below 1; SCBS costs are non-zero
    and caches may hold more than one file.  The threshold is drawn below
    the cost of caching nothing, mostly, so both answers occur and most
    witnesses cache something.
    """
    n = int(rng.integers(1, max_scbs + 1))
    i = int(rng.integers(1, max_files + 1))
    table = []
    for _ in range(i):
        entries = []
        mass = 0.0
        for _ in range(int(rng.integers(0, 4))):
            k = int(rng.integers(1, n + 1))
            areas = {int(a) + 1 for a in rng.choice(n, size=k, replace=False)}
            if rng.random() < 0.2:
                areas.add(0)
            if rng.random() < 0.05:
                areas = set()
            areas = frozenset(areas)
            pr = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 1.0 - mass))
            mass += pr
            entries.append((areas, pr))
        table.append(tuple(entries))
    cost_w = float(rng.uniform(0.2, 1.5))
    c_mbs = float(rng.uniform(0.0, 1.0)) + cost_w
    c = rng.uniform(0.05, 1.0, size=n) * cost_w / n
    # the cost of caching nothing, which every other policy can only undercut
    all_macro = sum(pr * c_mbs for entries in table for areas, pr in entries if areas)
    return DecisionInstance(
        num_scbs=n,
        num_files=i,
        cache_size=rng.integers(0, i + 1, size=n),
        cost_backhaul=c_mbs - cost_w,
        cost_mbs_tx=cost_w,
        cost_scbs_tx=c,
        deadline=1.0,
        probabilities=tuple(table),
        threshold=float(rng.uniform(0.4, 1.02)) * all_macro,
    )
