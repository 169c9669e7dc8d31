"""Shared builders and reference oracles for the test suite."""

import itertools
import math

import numpy as np

from macp import CachingPolicy, CostBreakdown, DecisionInstance, Instance, SolverReport, SppInstance
from macp.cost import _area_rates, _cached_split, _file_terms, cost_closed_form
from macp.reduction import COST_SLACK
from macp.solvers import _placement_tables

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


def empty_policy(num_scbs: int, num_files: int) -> CachingPolicy:
    """The policy that caches nothing."""
    return CachingPolicy(np.zeros((num_scbs, num_files), dtype=np.int8))


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


# Test-only views of the library: no library, CLI or demo code needs them.


def marginal_cost(
    instance: Instance,
    policy: CachingPolicy,
    scbs: int,
    file: int,
    base: CostBreakdown | None = None,
) -> float:
    """Objective value after additionally caching ``file`` at SCBS ``scbs``.

    Only the placed file's term is recomputed; all other per-file terms are
    reused from ``base`` (the closed-form breakdown of ``policy``, computed
    here when not supplied).
    """
    n = instance.num_scbs
    if not 1 <= scbs <= n:
        raise ValueError(f"scbs id {scbs} outside 1..{n}")
    if not 0 <= file < instance.num_files:
        raise ValueError(f"file index {file} outside 0..{instance.num_files - 1}")
    row = scbs - 1
    if policy.placement[row, file]:
        raise ValueError(f"file {file} is already cached at SCBS {scbs}")
    if policy.placement[row].sum() >= instance.cache_size[row]:
        raise ValueError(f"cache of SCBS {scbs} is full")
    if base is None:
        base = cost_closed_form(instance, policy)
    cached = policy.placement[:, [file]].astype(bool)
    cached[row] = True
    c_mbs, *rates = _area_rates(instance)
    term = _file_terms(c_mbs, *_cached_split(*(r[..., [file]] for r in rates), cached))
    return base.total - float(base.per_file[file]) + float(term[0])


def cached_areas(policy: CachingPolicy, file: int) -> frozenset[int]:
    """Area ids (1..N) of the SCBSs holding ``file``."""
    return frozenset(int(n) + 1 for n in np.flatnonzero(policy.placement[:, file]))


def exact_multicast_std(instance: Instance, policy: CachingPolicy) -> float:
    """Exact standard deviation of one period's multicast cost, from per-pair rates.

    File f is triggered with P_t = -expm1(-(its rate outside the cached
    set)) and then costs c_mbs.  Otherwise each SCBS n caching f sends it
    with its own p_n = -expm1(-lambda_nf * d), independently, so
    E[X^2] = P_t c_mbs^2 + (1 - P_t) (sum c_n^2 p_n (1 - p_n) + (sum c_n p_n)^2).
    Files are independent, so their variances add up.  Each file's
    variance E[X^2] - E[X]^2 is taken in the equal form
    P_t (1 - P_t) (c_mbs - L)^2 + (1 - P_t) sum c_n^2 p_n (1 - p_n), with
    L = sum c_n p_n, which has no cancellation and is never negative.
    """
    lam = instance.demand * instance.deadline
    cached = policy.placement.astype(bool)
    c_mbs = instance.cost_backhaul + instance.cost_mbs_tx
    c = instance.cost_scbs_tx[:, None]
    p_t = -np.expm1(-(lam[0] + np.where(cached, 0.0, lam[1:]).sum(axis=0)))
    p = np.where(cached, -np.expm1(-lam[1:]), 0.0)
    local = (c * p).sum(axis=0)
    spread = (c**2 * p * (1.0 - p)).sum(axis=0)
    variance = p_t * (1.0 - p_t) * (c_mbs - local) ** 2 + (1.0 - p_t) * spread
    return math.sqrt(float(variance.sum()))


def iter_feasible_placements(num_files: int, cache_sizes):
    """The placements ``exact_optimal`` and ``macdp_decide`` scan, as tuples.

    Each matrix is a tuple of rows, each row a tuple of 0/1 ints, in the
    order of the library's block scans: the tuple view of its per-SCBS
    option tables, the last SCBS varying fastest.
    """
    tables = _placement_tables(num_files, cache_sizes)
    return itertools.product(*([tuple(r) for r in t.astype(int).tolist()] for t in tables))


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
    for file, areas, pr in decision.prob_table:
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
    for file in range(i):
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
            table.append((file, areas, pr))
    cost_w = float(rng.uniform(0.2, 1.5))
    c_mbs = float(rng.uniform(0.0, 1.0)) + cost_w
    c = rng.uniform(0.05, 1.0, size=n) * cost_w / n
    # the cost of caching nothing, which every other policy can only undercut
    all_macro = sum(pr * c_mbs for _, areas, pr in table if areas)
    return DecisionInstance(
        num_scbs=n,
        num_files=i,
        cache_size=rng.integers(0, i + 1, size=n),
        cost_backhaul=c_mbs - cost_w,
        cost_mbs_tx=cost_w,
        cost_scbs_tx=c,
        deadline=1.0,
        prob_table=tuple(table),
        threshold=float(rng.uniform(0.4, 1.02)) * all_macro,
    )


# Reference solvers: the step-by-step loops that ``greedy_macp`` and
# ``local_search`` replaced.  The greedy re-picked globally after every
# commit; the local search re-scored every column and called
# ``cost_closed_form`` on a fresh policy each step.  The library must agree
# with them bit for bit (greedy) and placement for placement (local search).


def reference_greedy_macp(instance: Instance) -> SolverReport:
    """The stepwise ``greedy_macp``: one global pick per commit, its allowed cells in a mask.

    The cells with the file not cached there and the SCBS's cache not full;
    ``greedy_macp`` keeps them only as its finite gains.  Each commit scores
    the committed file's allowed cells one by one, with ``math.expm1``.
    """
    n, i = instance.num_scbs, instance.num_files
    sizes = instance.cache_size.tolist()
    c_mbs, rate_mbs, rate, local_cost = _area_rates(instance)
    rate_out, local = _cached_split(rate_mbs, rate, local_cost, np.zeros((n, i), dtype=bool))
    terms = _file_terms(c_mbs, rate_out, local)
    # file-major (I, N) layout, so a file's column is one contiguous row
    rate, local_cost = rate.T.copy(), local_cost.T.copy()
    cached = np.zeros((i, n), dtype=bool)
    fill = [0] * n
    # allowed[f, n]: f is not cached at n and n's cache has room
    has_cache = instance.cache_size > 0
    allowed = np.zeros((i, n), dtype=bool)
    allowed[:, has_cache] = True

    total = float(terms.sum())
    gain = np.full((i, n), np.inf)
    gain[:, has_cache] = _file_terms(
        c_mbs, rate_out[:, None] - rate[:, has_cache], local_cost[:, has_cache]
    ) - terms[:, None]
    best = gain.min(axis=1)
    evaluations = int(np.count_nonzero(allowed))

    rate_rows, local_rows = rate.tolist(), local_cost.tolist()
    trace: list[tuple[int, int, int, float]] = []
    for iteration in range(1, sum(sizes) + 1):
        file = int(best.argmin())
        limit = best[file] + 1e-12 * max(1.0, abs(total))
        # another file within the limit is rare; only then scan them all
        if np.count_nonzero(best <= limit) == 1:
            row = int((gain[file] <= limit).argmax())
        else:
            row, file = min(
                (int((gain[f] <= limit).argmax()), f)
                for f in np.flatnonzero(best <= limit).tolist()
            )
        cached[file, row] = True
        allowed[file, row] = False
        fill[row] += 1

        # the file's sums SCBS by SCBS, as ``_cached_split`` adds them, and
        # its term with numpy's expm1: the closed form's term, bit for bit
        outside = local_f = 0.0
        for r, v, c in zip(rate[file].tolist(), local_cost[file].tolist(), cached[file].tolist()):
            if c:
                local_f += v
            else:
                outside += r
        rate_out_f = float(rate_mbs[file]) + outside
        term_f = float(_file_terms(c_mbs, rate_out_f, local_f))
        terms[file] = term_f
        total = float(terms.sum())
        trace.append((iteration, row + 1, file, total))

        full = fill[row] == sizes[row]
        if full:
            allowed[:, row] = False
            gain[:, row] = np.inf
        # at most N cells, scored one by one: cheaper than numpy calls on them
        rates, costs = rate_rows[file], local_rows[file]
        column = [math.inf] * n
        for k, ok in enumerate(allowed[file].tolist()):
            if ok:
                # ``_file_terms`` written out on Python floats, with ``math.expm1``
                local_k = local_f + costs[k]
                e = math.expm1(-(rate_out_f - rates[k]))
                column[k] = local_k + e * (local_k - c_mbs) - term_f
                evaluations += 1
        gain[file] = column
        if full:
            best = gain.min(axis=1)
        else:
            best[file] = min(column)

    policy = CachingPolicy(cached.T.astype(np.int8))
    return SolverReport(policy=policy, trace=tuple(trace), evaluations=evaluations)


def reference_popularity_placement(instance: Instance) -> CachingPolicy:
    """Per-SCBS ``np.lexsort`` ranking: rate descending, then file index ascending."""
    x = np.zeros((instance.num_scbs, instance.num_files), dtype=np.int8)
    files = np.arange(instance.num_files)
    for row, k in enumerate(instance.cache_size.tolist()):
        order = np.lexsort((files, -instance.demand[row + 1]))
        x[row, order[:k]] = 1
    return CachingPolicy(x)


def reference_local_search(instance: Instance, policy: CachingPolicy) -> CachingPolicy:
    """The full-rescore ``local_search``: every column and a fresh ``cost_closed_form`` per step."""
    *_, last = reference_search_placements(instance, policy)
    return CachingPolicy(last.astype(np.int8))


def reference_search_placements(instance: Instance, policy: CachingPolicy):
    """``reference_local_search``'s placements as bool arrays: the start, then one per move."""
    policy.check_feasible(instance)
    c_mbs, rate_mbs, rate, local_cost = _area_rates(instance)
    sizes = instance.cache_size
    has_cache = sizes > 0
    # rate no completion can cover: areas without any cache
    rate_bare = rate_mbs + rate[~has_cache].sum(axis=0)
    rows = np.arange(instance.num_scbs)

    cached = policy.placement.astype(bool)
    best = cost_closed_form(instance, policy).total
    yield cached
    while True:
        rate_out, local = _cached_split(rate_mbs, rate, local_cost, cached)
        terms = _file_terms(c_mbs, rate_out, local)
        # change of each file's term when one cell is toggled
        toggle = _file_terms(
            c_mbs,
            rate_out + np.where(cached, rate, -rate),
            local + np.where(cached, -local_cost, local_cost),
        ) - terms
        drop = np.where(cached, toggle, np.inf)
        add = np.where(cached, np.inf, toggle)

        # cheapest slot to free per SCBS; a free slot costs nothing
        out = drop.argmin(axis=1)
        out_delta = drop[rows, out]
        full = cached.sum(axis=1) >= sizes
        use_free = ~full & ~(out_delta < 0.0)
        into = add.argmin(axis=1)
        swap = np.where(use_free, 0.0, out_delta) + add[rows, into]

        # completions: the full SCBSs lacking f each drop their file out[n],
        # so the drops are grouped by file before scoring
        lacks = ~cached & has_cache[:, None]
        cover = _file_terms(
            c_mbs, rate_bare, local + np.where(lacks, local_cost, 0.0).sum(axis=0)
        ) - terms
        freed = np.unique(out[full & has_cache])
        dropping = (lacks & full[:, None]).astype(np.float64)
        onehot = out[:, None] == freed
        extra_rate = np.einsum("nf,nk->fk", dropping, onehot * rate[rows, out][:, None])
        extra_local = np.einsum("nf,nk->fk", dropping, onehot * local_cost[rows, out][:, None])
        cover += (
            _file_terms(c_mbs, rate_out[freed] + extra_rate, local[freed] - extra_local)
            - terms[freed]
        ).sum(axis=1)

        row = int(swap.argmin())
        file = int(cover.argmin())
        x = cached.copy()
        # the two are scored from different sums: a tie is a tie within the greedy's limit
        if swap[row] <= cover[file] + 1e-12 * max(1.0, abs(best)):
            if not swap[row] < 0.0:
                break
            if not use_free[row]:
                x[row, out[row]] = False
            x[row, into[row]] = True
        else:
            if not cover[file] < 0.0:
                break
            drops = full & lacks[:, file]
            x[drops, out[drops]] = False
            x[lacks[:, file], file] = True
        cost = cost_closed_form(instance, CachingPolicy(x.astype(np.int8))).total
        if not cost < best:
            break
        cached, best = x, cost
        yield cached
