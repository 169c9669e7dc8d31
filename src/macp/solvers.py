"""Cache placement solvers.

``greedy_macp`` is the multicast-aware heuristic (commit the single best
placement until every cache is full), ``greedy_macp_ladder`` runs it once
for instances that differ only in nested cache sizes, ``local_search``
improves a given placement by swaps and coverage completions,
``popularity_placement`` is the conventional per-SCBS top-k baseline, and
``exact_optimal`` exhaustively enumerates feasible placements as an
optimality oracle for tiny instances.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .cost import _area_rates, _cached_split, _file_terms, _split_cost
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
    in the rate-sum form of ``_file_terms``: the rate outside its cached set
    and the local cost of its cached SCBSs.  After the gain matrix is
    evaluated once, commits come in runs of one file f: while no other
    file's best gain is within the tie limit and no SCBS fills, f is
    committed again at its first row within the limit and only column f is
    re-scored, in plain Python.  A fill or a tie ends the run; the next
    pick is global.  That is O(N * I) work once, O(N + I) per commit and
    O(N * I) per filled row.

    Each trace objective is ``cost_closed_form``'s total of the placement so
    far, bit for bit: a committed file's sums are added as ``_cached_split``
    adds them and its term takes numpy's ``expm1``.  Candidate gains are
    scores, never reported: running differences taken with ``math.expm1``.

    Tie rule: the eligible candidates are those whose gain is within
    ``1e-12 * max(1, |objective|)`` of the minimal gain, the objective
    being the one before the commit; among them the smallest SCBS wins,
    then the smallest file.

    ``evaluations`` counts the gains computed, for allowed cells only (the
    file not cached there and the SCBS's cache not full): every allowed
    cell once at the start, then the allowed cells of the committed file's
    column after each commit.  It is 0 when no SCBS has a cache.
    """
    return greedy_macp_ladder([instance])[0]


def greedy_macp_ladder(instances) -> list[SolverReport]:
    """``greedy_macp`` of instances that differ only in their cache sizes.

    The greedy's picks read the cache sizes only through fills: until a
    commit fills an SCBS, its state is the same for any sizes with caches
    at the same SCBSs.  So the ladder runs one greedy at the largest sizes
    and, on the commit that fills a smaller member's cache first, copies
    the state, ends the run and closes the row there, and finishes that
    member from the copy; members with equal sizes share one run.  The
    reports equal ``greedy_macp``'s on each instance, trace and
    ``evaluations`` included, in input order (none for no instances);
    apart from the copies it does no work that separate calls would not.

    Raises ValueError unless the instances agree in everything but
    ``cache_size``, have caches at the same SCBSs, and have size vectors
    that are nested elementwise.
    """
    instances = list(instances)
    if not instances:
        return []
    first = instances[0]
    for inst in instances[1:]:
        if (
            (inst.num_scbs, inst.num_files, inst.cost_backhaul, inst.cost_mbs_tx, inst.deadline)
            != (first.num_scbs, first.num_files, first.cost_backhaul, first.cost_mbs_tx,
                first.deadline)
            or not np.array_equal(inst.cost_scbs_tx, first.cost_scbs_tx)
            or not np.array_equal(inst.demand, first.demand)
        ):
            raise ValueError("ladder instances may differ in cache_size only")
        if not np.array_equal(inst.cache_size > 0, first.cache_size > 0):
            raise ValueError("ladder instances must have caches at the same SCBSs")
    sizes = [tuple(inst.cache_size.tolist()) for inst in instances]
    ladder = sorted(set(sizes), key=sum)
    for small, large in zip(ladder, ladder[1:]):
        if not all(a <= b for a, b in zip(small, large)):
            raise ValueError(f"cache sizes {list(small)} and {list(large)} are not nested")

    n, i = first.num_scbs, first.num_files
    c_mbs, rate_mbs, rate, local_cost = _area_rates(first)
    rate_out, local = _cached_split(rate_mbs, rate, local_cost, np.zeros((n, i), dtype=bool))
    terms = _file_terms(c_mbs, rate_out, local)
    # file-major (I, N) layout, so a file's column is one contiguous row
    rate, local_cost = rate.T.copy(), local_cost.T.copy()
    # allowed[f, n]: f is not cached at n and n's cache has room
    has_cache = first.cache_size > 0
    allowed = np.zeros((i, n), dtype=bool)
    allowed[:, has_cache] = True

    gain = np.full((i, n), np.inf)
    gain[:, has_cache] = _file_terms(
        c_mbs, rate_out[:, None] - rate[:, has_cache], local_cost[:, has_cache]
    ) - terms[:, None]
    start = _GreedyState(
        cached=np.zeros((i, n), dtype=bool), fill=[0] * n, allowed=allowed, gain=gain,
        best=gain.min(axis=1), terms=terms, total=float(terms.sum()), trace=[],
        evaluations=int(np.count_nonzero(allowed)),
    )
    data = (c_mbs, rate_mbs.tolist(), rate.tolist(), local_cost.tolist())
    done: dict[tuple[int, ...], SolverReport] = {}
    pending = [(start, ladder)]
    while pending:
        _greedy_finish(*pending.pop(), data, pending, done)
    return [done[s] for s in sizes]


@dataclass
class _GreedyState:
    """What the greedy carries from one global pick to the next (file-major arrays)."""

    cached: np.ndarray
    fill: list[int]
    allowed: np.ndarray
    gain: np.ndarray
    best: np.ndarray
    terms: np.ndarray
    total: float
    trace: list[tuple[int, int, int, float]]
    evaluations: int


def _end_run(state: _GreedyState, file: int, row: int, open_rows, column, best_f, full) -> None:
    """Store the run's last column; on a fill, close the row to every file."""
    state.allowed[file], state.gain[file], state.best[file] = open_rows, column, best_f
    if full:
        state.allowed[:, row] = False
        state.gain[:, row] = np.inf
        state.gain.min(axis=1, out=state.best)


def _greedy_finish(state: _GreedyState, ladder, data, pending, done) -> None:
    """Run the greedy from ``state`` for the nested sizes ``ladder``, smallest first.

    The loop runs at the largest sizes.  A commit that fills the smallest
    member's cache below the largest's forks: the members whose cache fills
    there go into ``pending`` with a copy that ends the run and closes the
    row, and the rest go on.  The remaining members' report goes into ``done``.
    """
    c_mbs, rate_mbs, rate_rows, local_rows = data
    sizes = ladder[-1]
    stop = ladder[0]  # where the next fill of some member comes
    cached, fill, allowed, gain, best, terms = (
        state.cached, state.fill, state.allowed, state.gain, state.best, state.terms)
    total, trace, evaluations = state.total, state.trace, state.evaluations
    while len(trace) < sum(sizes):
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
        # the other files' gains hold while only this file's column changes
        best[file] = np.inf
        others = float(best.min())
        open_rows, rates, costs = allowed[file].tolist(), rate_rows[file], local_rows[file]
        on = cached[file].tolist()
        while True:
            cached[file, row] = on[row] = True
            open_rows[row] = False
            fill[row] += 1
            # the file's sums SCBS by SCBS, as ``_cached_split`` adds them, and
            # its term with numpy's expm1: the closed form's term, bit for bit
            outside = local_f = 0.0
            for r, v, c in zip(rates, costs, on):
                if c:
                    local_f += v
                else:
                    outside += r
            rate_out_f = rate_mbs[file] + outside
            term_f = terms[file] = float(_file_terms(c_mbs, rate_out_f, local_f))
            total = float(terms.sum())
            trace.append((len(trace) + 1, row + 1, file, total))
            # at most N cells, scored one by one: cheaper than numpy calls on them
            column = [_file_terms(c_mbs, rate_out_f - r, local_f + v, math.expm1) - term_f
                      if ok else math.inf for r, v, ok in zip(rates, costs, open_rows)]
            evaluations += open_rows.count(True)
            best_f = min(column)
            full = fill[row] == stop[row]
            if full and stop[row] < sizes[row]:
                # the members whose cache at this row fills here go on alone
                k = sum(member[row] == fill[row] for member in ladder)
                fork = _GreedyState(cached.copy(), fill.copy(), allowed.copy(), gain.copy(),
                                    best.copy(), terms.copy(), total, trace.copy(), evaluations)
                _end_run(fork, file, row, open_rows, column, best_f, True)
                pending.append((fork, ladder[:k]))
                ladder = ladder[k:]
                stop, full = ladder[0], False
            limit = best_f + 1e-12 * max(1.0, abs(total))
            # the global path's pick while no other file is within the limit
            if full or not others > limit:
                break
            # the first row within the limit; filter and index scan in C
            row = column.index(next(filter(limit.__ge__, column)))
        _end_run(state, file, row, open_rows, column, best_f, full)

    report = SolverReport(policy=CachingPolicy(cached.T.astype(np.int8)), trace=tuple(trace),
                          evaluations=evaluations)
    for member in ladder:
        done[member] = report


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
    adding or removing one area's ``d * lambda``.  Those rates and costs,
    the file terms and each cell's toggle change are kept between steps, and
    a move recomputes only the columns it touched, with ``_cached_split`` on
    those columns alone: its sums do not depend on the other columns, so
    they equal a full split's.  The best-scoring move is taken only when it
    strictly lowers the objective, computed as ``cost_closed_form`` does;
    otherwise the search stops, so it always ends.
    Ties go to a swap over a completion, then to the smallest SCBS, then to
    the smallest file.  A completion's rate outside is a separate sum
    (``rate_bare``), so the best swap counts as tied with the best
    completion when it scores within the greedy's tie limit,
    ``1e-12 * max(1, |objective|)``, of it.
    """
    policy.check_feasible(instance)
    c_mbs, rate_mbs, rate, local_cost = _area_rates(instance)
    sizes = instance.cache_size
    has_cache = sizes > 0
    # rate no completion can cover: areas without any cache
    rate_bare = rate_mbs + rate[~has_cache].sum(axis=0)
    rows = np.arange(instance.num_scbs)

    cached = policy.placement.astype(bool)
    rate_out, local = _cached_split(rate_mbs, rate, local_cost, cached)
    best = _split_cost(c_mbs, rate_out, local).total
    terms, toggle, touched = np.empty_like(local), np.empty_like(rate), np.arange(local.size)
    while True:
        # the touched files' terms, and their change when one cell is toggled
        on, r, c = (a.take(touched, axis=1) for a in (cached, rate, local_cost))
        t = terms[touched] = _file_terms(c_mbs, rate_out[touched], local[touched])
        toggle[:, touched] = _file_terms(
            c_mbs, rate_out[touched] + np.where(on, r, -r), local[touched] + np.where(on, -c, c)
        ) - t
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
        dropping = (lacks & full[:, None]).astype(np.float64).T
        onehot = out[:, None] == freed
        extra_rate = dropping @ (onehot * rate[rows, out][:, None])
        extra_local = dropping @ (onehot * local_cost[rows, out][:, None])
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
            moved = {into[row], out[row]}
            if not use_free[row]:
                x[row, out[row]] = False
            x[row, into[row]] = True
        else:
            if not cover[file] < 0.0:
                break
            drops = full & lacks[:, file]
            moved = {file, *out[drops]}
            x[drops, out[drops]] = False
            x[lacks[:, file], file] = True
        assert (x.sum(axis=1) <= sizes).all(), "a move overfilled a cache"
        touched = np.array(sorted(moved))
        rate_out[touched], local[touched] = _cached_split(
            rate_mbs[touched], *(a.take(touched, axis=1) for a in (rate, local_cost, x))
        )
        cost = _split_cost(c_mbs, rate_out, local).total
        if not cost < best:
            break
        cached, best = x, cost
    return CachingPolicy(cached.astype(np.int8))


# Placements per numpy block of the exhaustive scans (``exact_optimal`` and
# ``macdp_decide``): a few arrays of _BLOCK x max(N, I) values, whatever the space.
_BLOCK = 4096


@functools.lru_cache(maxsize=64)
def _row_options(num_files: int, size: int) -> np.ndarray:
    """Read-only bool table of the rows holding at most ``size`` files, sorted."""
    rows = sorted(
        tuple(f in combo for f in range(num_files))
        for k in range(min(size, num_files) + 1)
        for combo in itertools.combinations(range(num_files), k)
    )
    table = np.array(rows, dtype=bool)
    table.setflags(write=False)
    return table


def _placement_tables(num_files: int, cache_sizes, max_policies=math.inf) -> list[np.ndarray]:
    """Each SCBS's row options, after checking the space against ``max_policies``."""
    space = count_feasible_placements(num_files, cache_sizes)
    if space > max_policies:
        raise CapacityError(
            f"{space} feasible placements exceed the enumeration cap of {max_policies}"
        )
    return [_row_options(num_files, min(int(s), num_files)) for s in cache_sizes]


def _placement_blocks(tables) -> Iterator[tuple[int, list[np.ndarray]]]:
    """Yield ``(size, rows)`` for consecutive blocks of the enumeration.

    Placement k is the mixed-radix number whose digit n, ``rows[n]``, indexes
    ``tables[n]``; the last SCBS varies fastest.  Each table is sorted, so
    the placements come in lexicographic row-major order (all-zeros first),
    and a first-strict-minimum scan picks the lexicographically smallest
    optimum.
    """
    radix = [len(t) for t in tables]
    space = math.prod(radix)
    for start in range(0, space, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, space))
        rows = []
        for r in reversed(radix):
            quotient = k // r  # numpy divides by a scalar with libdivide; divmod does not
            rows.append(k - quotient * r)
            k = quotient
        yield min(_BLOCK, space - start), rows[::-1]


def count_feasible_placements(num_files: int, cache_sizes) -> int:
    """Number of 0/1 placement matrices with row sums within the cache sizes."""
    return math.prod(
        sum(math.comb(num_files, k) for k in range(min(int(s), num_files) + 1))
        for s in cache_sizes
    )


def exact_optimal(instance: Instance, max_policies: int = DEFAULT_POLICY_CAP) -> SolverReport:
    """Minimize the objective by exhaustive search over feasible placements.

    Only viable on tiny instances; raises CapacityError with the search
    space cardinality when it exceeds ``max_policies``, before any table is
    built.  Scores the feasible placements in the numpy blocks of
    ``_placement_blocks`` (O(_BLOCK x max(N, I)) values held at once), adding
    each SCBS's per-option rate outside and local cost in turn, SCBS 1 first,
    as ``_cached_split`` does; so each policy's cost equals
    ``_file_terms(...).sum()`` of its own ``_cached_split`` bit for bit.
    Among equal-cost optima the lexicographically smallest placement wins:
    the first minimum of a block, and a later block only if strictly
    cheaper.  ``evaluations`` counts every policy.
    """
    tables = _placement_tables(instance.num_files, instance.cache_size, max_policies)
    c_mbs, rate_mbs, rate, local_cost = _area_rates(instance)
    rate_options = [np.where(t, 0.0, r) for t, r in zip(tables, rate)]
    local_options = [np.where(t, c, 0.0) for t, c in zip(tables, local_cost)]
    best_cost = math.inf
    best: np.ndarray | None = None
    for _, rows in _placement_blocks(tables):
        outside, local = (sum(o.take(r, axis=0) for o, r in zip(options, rows))
                          for options in (rate_options, local_options))
        cost = _file_terms(c_mbs, rate_mbs + outside, local).sum(axis=1)
        j = int(cost.argmin())
        if cost[j] < best_cost:
            best_cost = float(cost[j])
            best = np.array([t[r[j]] for t, r in zip(tables, rows)])
    assert best is not None
    policy = CachingPolicy(best.astype(np.int8))
    evaluations = math.prod(len(t) for t in tables)
    return SolverReport(policy=policy, trace=(), evaluations=evaluations)
