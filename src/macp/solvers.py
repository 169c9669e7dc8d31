"""Cache placement solvers.

``greedy_macp`` is the multicast-aware heuristic (commit the single best
placement until every cache is full), ``local_search`` improves a given
placement by swaps and coverage completions, ``popularity_placement`` is
the conventional per-SCBS top-k baseline, and ``exact_optimal``
exhaustively enumerates feasible placements as an optimality oracle for
tiny instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .cost import _area_rates, _cached_split, _file_terms, cost_closed_form
from .errors import CapacityError
from .model import CachingPolicy, Instance

DEFAULT_POLICY_CAP = 10_000_000


@dataclass(frozen=True, eq=False)
class SolverReport:
    """Solver output: the policy, a placement audit trail, and work counters.

    ``trace`` holds one ``(iteration, scbs, file, objective_after)`` entry
    per committed placement (greedy only; exhaustive search leaves it
    empty).  ``evaluations`` counts the candidates the solver scored: the
    single-placement gains the greedy computed (see ``greedy_macp``), or
    the feasible placements exhaustive search evaluated.
    """

    policy: CachingPolicy
    trace: tuple[tuple[int, int, int, float], ...]
    evaluations: int


def greedy_macp(instance: Instance) -> SolverReport:
    """Greedy multicast-aware placement.

    Starts from empty caches and commits, one at a time, the placement
    with the smallest gain (objective after minus before, which can be
    positive), until every cache is full.

    The objective is a sum of per-file terms, so the gain of caching file
    f at SCBS n depends on file f's column only.  Each file's term is kept
    in the rate-sum form of ``_file_terms``: the rate outside its
    cached set and the local cost of its cached SCBSs.  The gain matrix is
    evaluated once; a commit of (n, f) then recomputes file f's rate and
    local cost from fresh sums over its column (not running differences) and
    re-evaluates column f only.  When the commit fills SCBS n, row n leaves
    the running.  That is O(N * I) work once and O(N + I) per commit, plus
    O(N * I) for each of at most N rows that fill.

    Tie rule: the eligible candidates are those whose gain is within
    ``1e-12 * max(1, |objective|)`` of the minimal gain, the objective
    being the one before the commit; among them the smallest SCBS wins,
    then the smallest file.

    ``evaluations`` counts the gains computed, for allowed cells only (the
    file not cached there and the SCBS's cache not full): every allowed
    cell once at the start, then the allowed cells of the committed file's
    column after each commit.  It is 0 when no SCBS has a cache.
    """
    n, i = instance.num_scbs, instance.num_files
    sizes = instance.cache_size.tolist()
    c_mbs, rate_mbs, rate, local_cost = _area_rates(instance)
    # file-major (I, N) layout, so a file's column is one contiguous row
    rate, local_cost = rate.T.copy(), local_cost.T.copy()
    cached = np.zeros((i, n), dtype=bool)
    fill = [0] * n
    # allowed[f, n]: f is not cached at n and n's cache has room
    has_cache = instance.cache_size > 0
    allowed = np.zeros((i, n), dtype=bool)
    allowed[:, has_cache] = True

    rate_out = rate_mbs + rate.sum(axis=1)
    terms = _file_terms(c_mbs, rate_out, 0.0)
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

        # the file's term from fresh sums over its column: a running
        # difference would keep a residue of every rate taken out
        column_cached = cached[file]
        rate_out_f = float(rate_mbs[file]) + math.fsum(rate[file][~column_cached].tolist())
        local_f = math.fsum(local_cost[file][column_cached].tolist())
        term_f = _file_terms(c_mbs, rate_out_f, local_f, math.expm1)
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
                column[k] = _file_terms(
                    c_mbs, rate_out_f - rates[k], local_f + costs[k], math.expm1
                ) - term_f
                evaluations += 1
        gain[file] = column
        if full:
            best = gain.min(axis=1)
        else:
            best[file] = min(column)

    policy = CachingPolicy(cached.T.astype(np.int8))
    return SolverReport(policy=policy, trace=tuple(trace), evaluations=evaluations)


def popularity_placement(instance: Instance) -> CachingPolicy:
    """Each SCBS independently caches its locally most demanded files.

    Ranks files by the SCBS's own request rate, ties broken by the smaller
    file index, and fills the cache with the top entries.
    """
    n, i = instance.num_scbs, instance.num_files
    x = np.zeros((n, i), dtype=np.int8)
    ranks = np.arange(i)
    for row in range(n):
        k = int(instance.cache_size[row])
        if k == 0:
            continue
        order = np.lexsort((ranks, -instance.demand[row + 1]))
        x[row, order[:k]] = 1
    return CachingPolicy(x)


def local_search(instance: Instance, policy: CachingPolicy) -> CachingPolicy:
    """Improve a placement by strictly cost-lowering moves until none is left.

    Each step scores two kinds of move:

    * a swap within one SCBS: drop one cached file (or use a free slot)
      and cache one file the SCBS lacks;
    * coverage completion of file f: cache f at every SCBS with a non-zero
      cache that lacks it, each full one of them dropping its cheapest file
      to remove.

    Per-file terms are separable, so every move is scored exactly from each
    file's request rate outside the cached set and its local serving cost,
    adding or removing one area's ``d * lambda``.  The best-scoring move is
    taken only when it strictly lowers ``cost_closed_form``; otherwise the
    search stops, so it always ends.  Ties go to a swap over a completion,
    then to the smallest SCBS, then to the smallest file.
    """
    policy.check_feasible(instance)
    c_mbs, rate_mbs, rate, local_cost = _area_rates(instance)
    sizes = instance.cache_size
    has_cache = sizes > 0
    # rate no completion can cover: areas without any cache
    rate_bare = rate_mbs + rate[~has_cache].sum(axis=0)
    rows = np.arange(instance.num_scbs)

    cached = policy.placement.astype(bool)
    best = cost_closed_form(instance, policy).total
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
        if swap[row] <= cover[file]:
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
    return CachingPolicy(cached.astype(np.int8))


def iter_feasible_placements(
    num_files: int, cache_sizes
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every 0/1 placement matrix with row sums within the cache sizes.

    Each matrix is a tuple of rows, each row a tuple of 0/1 ints.
    Matrices arrive in lexicographic row-major order (all-zeros first), so
    a first-strict-minimum scan picks the lexicographically smallest
    optimum deterministically.
    """
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


def count_feasible_placements(num_files: int, cache_sizes) -> int:
    """Number of matrices ``iter_feasible_placements`` would yield."""
    return math.prod(
        sum(math.comb(num_files, k) for k in range(min(int(s), num_files) + 1))
        for s in cache_sizes
    )


def exact_optimal(instance: Instance, max_policies: int = DEFAULT_POLICY_CAP) -> SolverReport:
    """Minimize the objective by exhaustive search over feasible placements.

    Only viable on tiny instances; raises CapacityError with the search
    space cardinality when it exceeds ``max_policies``.  Among equal-cost
    optima the lexicographically smallest placement matrix wins.
    """
    i = instance.num_files
    space = count_feasible_placements(i, instance.cache_size)
    if space > max_policies:
        raise CapacityError(
            f"{space} feasible placements exceed the enumeration cap of {max_policies}"
        )

    c_mbs, rate_mbs, rate, local_cost = _area_rates(instance)
    best_cost = math.inf
    best: np.ndarray | None = None
    evaluations = 0
    for rows in iter_feasible_placements(i, instance.cache_size):
        x = np.array(rows, dtype=bool)
        rate_out, local = _cached_split(rate_mbs, rate, local_cost, x)
        cost = float(_file_terms(c_mbs, rate_out, local).sum())
        evaluations += 1
        if cost < best_cost:
            best_cost = cost
            best = x
    assert best is not None
    policy = CachingPolicy(best.astype(np.int8))
    return SolverReport(policy=policy, trace=(), evaluations=evaluations)
