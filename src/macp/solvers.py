"""Cache placement solvers.

``greedy_macp`` is the multicast-aware heuristic (commit the single best
placement until every cache is full) and ``local_search`` improves a given
placement by swaps and coverage completions.  Each runs a private kernel
on the ``_stack`` of its one instance's objective inputs: ``_greedy_runs``,
whose lockstep steps each commit a chain of verified runs, each run of one
file, and ``_search``, whose steps each score again only the columns the
last move changed.  A sweep runs the same two kernels on one stack of a
whole axis (``scenario._comparisons``), where members with the same
objective inputs whose caches nest follow one lockstep row of the greedy
until they fill a row of their own.
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

from .cost import _area_rates, _cached_split, _file_terms, _scbs_sum
from .errors import CapacityError
from .model import CachingPolicy, Instance

DEFAULT_POLICY_CAP = 10_000_000


@dataclass(frozen=True, eq=False)
class SolverReport:
    """Solver output: the policy, a placement audit trail, and work counters.

    ``trace`` holds one ``(iteration, scbs, file, objective_after)`` entry
    per committed placement, in commit order (greedy only, replayed from
    its runs; exhaustive search leaves it empty).  ``evaluations`` counts
    the candidates the solver scored: the single-placement gains of the
    stepwise greedy (see ``greedy_macp``), or the feasible placements
    exhaustive search evaluated.
    """

    policy: CachingPolicy
    trace: tuple[tuple[int, int, int, float], ...]
    evaluations: int


def greedy_macp(instance: Instance) -> SolverReport:
    """Greedy multicast-aware placement.

    Starts from empty caches and commits, one at a time, the placement
    with the smallest gain (objective after minus before, which can be
    positive), until every cache is full.  Tie rule: the eligible
    candidates are those whose gain is within ``1e-12 * max(1,
    |objective|)`` of the minimal gain, the objective being the one before
    the commit; among them the smallest SCBS wins, then the smallest file.

    This is ``_greedy_runs`` of the instance's ``_stack``, its trace
    replayed from the runs its steps commit: after each commit of a run,
    the file takes the term the step scored for that state and the terms
    are summed again (O(I) per commit), so each trace objective is
    ``cost_closed_form``'s total of the placement so far, bit for bit.
    ``evaluations`` counts the gains a greedy of one commit per step
    computes, for allowed cells only (the file not cached there and the
    SCBS's cache not full: the finite gains): every allowed cell once at
    the start, then the allowed cells of the committed file's column after
    each commit.  It is 0 when no SCBS has a cache.
    """
    trace: list[tuple[int, int, int, float]] = []
    cached, evaluations = _greedy_runs(_stack([instance]), trace)
    return SolverReport(CachingPolicy(cached[0]), tuple(trace), evaluations)


# Values per array of one group of the greedy's starts in ``_greedy_runs``:
# max(1, _START_VALUES // (N * I)) leaders, 5 at (14, 100).
_START_VALUES = 1 << 13

# The most runs a greedy step chains per lockstep row, and the values per
# (cells, rows, chain, states) array of a step: a wide step chains fewer runs,
# max(1, _STEP_VALUES // (rows * N * (N + 1))) at most, 2 for 40 rows of
# (14, 100).  Chains of 5 took the fewest steps per ``paper-sweep`` axis for
# their cost; longer chains on wide steps raised its peak memory.
_CHAIN, _STEP_VALUES = 5, 3 << 13


def _greedy_runs(stack, trace=None):
    """``greedy_macp``'s cached sets of a ``_stack``'s instances, solved in lockstep.

    Returns a (B, N, I) bool array, the placements in stack order, and a
    count.  ``stack`` is only read: each lockstep row reads its own entry,
    a follower's entry being its leader's bit for bit.  With ``trace``, a
    list, the stack is of one instance: the list gets its
    ``SolverReport.trace`` entries, replayed from the chain's runs in commit
    order, and the count is its ``evaluations``.  Otherwise nothing is
    recorded and the count is 0.

    The greedy commits in runs of one file: caching a file at one SCBS pays
    mostly once every SCBS has it.  Each step commits, for every lockstep
    row with cache room left, a chain of up to ``_CHAIN`` runs (fewer on a
    wide step, see ``_STEP_VALUES``), those of the files with the smallest
    best gains at the step start, in that order.  A run is its file's pick,
    its first cell within the tie limit, then its other open cells in the
    order of their gains now.  The N + 1 states "first s cells committed"
    of every run are scored at once, each file's sums added SCBS by SCBS as
    ``_cached_split`` adds them, so their gains are the stepwise greedy's.

    A run goes on from a state while its next cell is within the tie limit
    under a lower bound of the objective, no cell before it is within the
    limit under an upper bound, and every other file's best gain lies above
    that limit: the later files' at the step start, the chain's earlier
    files' after their runs.  The chain's first pick is the step's global
    pick under ``greedy_macp``'s tie rule; a later run's pick must pass the
    same check from its state 0.  So a chain ends at a pick that another
    file's best undercuts or ties, after a run that fills a row of the
    lockstep row's leader or of a follower (a full row changes gains), after
    a pick that needed a tie scan, and at its length; what it leaves is the
    next step's global pick, so the placements are the stepwise greedy's.

    The start is O(N * I) work per row.  A step is O(I) per row to choose
    its chain, O(k * N^2) per row for the states of its k runs, and O(N * I)
    more for a row that scans a tie or fills a cache.  Its cost grows with
    its width: about 0.26, 0.38, 0.72 and 1.03 ms at 1, 5, 15 and 45
    distinct members of (14, 100, 20), with chains of 5, 5, 5 and 2 runs,
    so the batch pays off by its width, by the runs' length and by how many
    runs a chain verifies.

    Members with the same objective inputs whose caches nest share a row
    (see ``_leaders``): a cache size enters the greedy only through which
    rows are full, so a follower makes its leader's commits until one of them
    fills a row of its own.  The rest of that run is still its stepwise
    prefix, since the run's other cells lie in rows still open and the
    other files' gains only rise, and the chain ends with it; the follower
    then takes a copy of the leader's state, its full rows out, as a row of
    its own.

    A step's tie limits take the objective between two bounds that hold at
    every state of its chain: the step's total with the chain files' terms
    at 0 and at their largest over the states, widened by the rounding of
    the sums.
    """
    c_mbs, rate_mbs, rate, local_cost, sizes = stack
    b, n, i = rate.shape
    left = sizes.copy()
    lead = _leaders(stack)
    rows = np.flatnonzero(lead == np.arange(b))
    # a follower's state is its leader's until it takes a copy of its own
    terms, gain, best = np.empty((b, i)), np.empty((b, n, i)), np.empty((b, i))
    # The leaders' starts a few at a time: stacked temporaries of a whole sweep
    # axis raised the peak memory, and were slower per leader.  A start is the
    # file terms of the empty placement and gain[n, f], the objective's change
    # when f is cached at SCBS n, infinite where n has no cache; it is
    # elementwise work and ``_scbs_sum``, so each row's values are its own.
    width = max(1, _START_VALUES // (n * i))
    for s in range(0, rows.size, width):
        part = rows[s:s + width]
        c, rates = c_mbs[part, None], rate[part]
        rate_out, local = _cached_split(rate_mbs[part], rates, local_cost[part],
                                        np.zeros(rates.shape, dtype=bool))
        terms[part] = _file_terms(c, rate_out, local)
        gain[part] = np.where(sizes[part, :, None] > 0, _file_terms(
            c[..., None], rate_out[:, None] - rates, local_cost[part]) - terms[part, None], np.inf)
    best[rows] = gain[rows].min(axis=1)
    evaluations = 0 if trace is None else int(np.count_nonzero(gain < np.inf))
    cached = np.zeros((b, n, i), dtype=bool)
    states, files = np.arange(n + 1), np.arange(i)
    cells, lines = states[:n, None, None], np.arange(b)
    # a cell's rate is summed outside the cached set, its cost inside
    inside = np.array([False, True])[:, None, None, None]
    gain_t, cached_t = gain.transpose(1, 0, 2), cached.transpose(1, 0, 2)
    rate_t, local_t = rate.transpose(1, 0, 2), local_cost.transpose(1, 0, 2)

    live = rows[left[rows].any(axis=1)]
    attached = np.flatnonzero(lead != np.arange(b))
    while live.size:
        at = lines[:live.size]
        # a chain of up to k files
        k = min(_CHAIN, i, max(1, _STEP_VALUES // (live.size * n * (n + 1))))
        members = np.arange(k)
        # Adding I non-negative terms in any order errs by at most (I - 1) * 2**-53
        # of their sum: with rounding, a total after the chain's commits is within
        # this share of the step's total plus the chain files' largest terms of
        # the step's total with those terms replaced, a few float operations included.
        slack = (i + 2 + 2 * k) * 2.0 ** -51
        best_now, start = best[live], terms[live].sum(axis=1)
        # the chain: the k files with the smallest bests in order, each one's
        # next best (of the files after it), and its pick, its first cell
        # within the limit; every file term is non-negative, so |objective|
        # is the objective.  Sorts are stable: a process's first ``argpartition``
        # or default-kind sort loads numpy code that raised its peak memory.
        near = best_now.argsort(axis=1, kind="stable")[:, :k + 1]
        chain, value = near[:, :k], best_now[at[:, None], near]
        nxt = value[:, 1:] if k < i else np.concatenate([value[:, 1:], np.full((live.size, 1), np.inf)], axis=1)
        limit = value[:, :k] + 1e-12 * np.maximum(start, 1.0)[:, None]
        column = gain_t[:, live[:, None], chain]
        pick = (column <= limit).argmax(axis=0)
        tied = nxt[:, 0] <= limit[:, 0]
        if tied.any():
            # several files within the limit: the smallest row, then file, is
            # the chain's only run
            within = best_now <= limit[:, :1]
            first = (gain[live] <= limit[:, :1, None]).argmax(axis=1)
            row, file = np.divmod(np.where(within, first * i + files, n * i).min(axis=1), i)
            nxt = nxt.copy()
            nxt[:, 0] = np.where(file == chain[:, 0], nxt[:, 0], value[:, 0])
            nxt[tied, 1:] = -np.inf
            pick[:, 0], chain[:, 0], column[..., 0] = row, file, gain[live, :, file].T
        # The runs: each pick, then the file's other open cells by their gains
        # now.  On (cells, rows, chain, states) arrays, state s has the run's
        # first s cells committed, so a sum or a minimum over cells is a row at a time.
        order = np.where(cells == pick, -np.inf, column).argsort(axis=0, kind="stable")
        rank = order.argsort(axis=0, kind="stable")
        on = np.where(cached_t[:, live[:, None], chain], -1, rank)[..., None] < states
        # the file's sums SCBS by SCBS, as ``_cached_split`` adds them; values[:, 0]
        # and values[:, 1] are the SCBS rates and local costs, cells first
        values = np.array([rate_t[:, live[:, None], chain],
                           local_t[:, live[:, None], chain]]).swapaxes(0, 1)
        both = np.where(on[:, None] == inside, values[..., None], 0.0)
        rate_out, local = _scbs_sum(both.reshape(n, -1)).reshape(2, live.size, k, n + 1)
        rate_out += rate_mbs[live[:, None], chain][..., None]
        # each state's rate outside with each cell taken out of it; ``both`` goes before
        # the scores' temporaries are made, as they set the peak memory
        outside = rate_out - both[:, 0]
        del both
        c = c_mbs[live, None, None]
        term = _file_terms(c, rate_out, local)
        gains = np.where(on | (column == np.inf)[..., None], np.inf,
                         _file_terms(c, outside, local + values[:, 1, ..., None]) - term)
        del outside
        least = gains.min(axis=0)
        # state s commits order[s] next, at this gain
        ahead = order.transpose(1, 2, 0)
        next_gain = gains[ahead, at[:, None, None], members[:, None], states[:n]]
        # every total the chain can reach lies between the step's total with
        # the chain files' terms at 0 and at their most over the states
        base = start - terms[live[:, None], chain].sum(axis=1)
        most = term.max(axis=2).sum(axis=1)
        margin = slack * (start + most)
        low = least[..., :n] + (1e-12 * np.maximum(base - margin, 1.0))[:, None, None]
        high = least[..., :n] + (1e-12 * np.maximum(base + most + margin, 1.0))[:, None, None]
        # A run goes on from state s while order[s] is the stepwise greedy's
        # next commit: within the limit under the lower bound, no cell before
        # it within the limit under the upper bound, and the other files'
        # bests above that limit, the earlier runs' files' bests after their
        # runs among them.  The first run's pick is the step's.
        leading = ~((gains[..., :n] <= high) & (cells[..., None] < ahead)).any(axis=0)
        keep = (next_gain <= low) & leading & (nxt[..., None] > high)
        keep[:, 0, 0] = True
        count = np.logical_and.accumulate(keep, axis=2).sum(axis=2)
        # A run cut short by an earlier file's best leaves that best at most
        # its next file's, so the next run's pick fails the check.
        floor = np.minimum.accumulate(least[at[:, None], members, count], axis=1)[:, :-1]
        count[:, 1:] = np.minimum(count[:, 1:], np.logical_and.accumulate(
            high[:, 1:] < floor[..., None], axis=2).sum(axis=2))
        # a run follows only runs that fill no row of the leader or of a follower
        went = count > 0
        # the fewest slots left at each SCBS among a leader and its followers
        room = left[live]
        np.minimum.at(room, live.searchsorted(lead[attached]), left[attached])
        if ((room > 0) & (room < k)).any():
            run = rank.transpose(1, 2, 0) < count[..., None]
            went &= ~(run & (run.cumsum(axis=1) == room[:, None])).any(axis=2)
        count[:, 1:] *= np.logical_and.accumulate(went[:, :-1], axis=1)
        run = rank.transpose(1, 2, 0) < count[..., None]
        if trace is not None:
            # the one instance's runs, commit by commit: each file takes each
            # state's term, and each commit scores the column's cells left open
            for j in np.flatnonzero(count[0]).tolist():
                f, open_cells = int(chain[0, j]), int(np.count_nonzero(column[:, 0, j] < np.inf))
                for t, cell in enumerate(order[:count[0, j], 0, j].tolist()):
                    terms[0, f] = term[0, j, t + 1]
                    trace.append((len(trace) + 1, cell + 1, f, float(terms[0].sum())))
                    evaluations += open_cells - t - 1
        w, j = np.nonzero(count)
        v, f, s = live[w], chain[w, j], count[w, j]
        cached[v, :, f] |= run[w, j]
        terms[v, f] = term[w, j, s]
        gain[v, :, f], best[v, f] = gains[:, w, j, s].T, least[w, j, s]
        run = run.sum(axis=1)
        left[live] -= run
        # the members whose full rows changed: leaders whose runs filled a row
        filled = live[((run > 0) & (left[live] <= 0)).any(axis=1)]
        if attached.size:
            # each follower commits its leader's runs; one that fills a row
            # with them splits off with a copy of the leader's state and is
            # masked with the leaders (its full rows include its leader's)
            ahead = run[live.searchsorted(lead[attached])]
            left[attached] -= ahead
            fills = ((ahead > 0) & (left[attached] <= 0)).any(axis=1)
            if fills.any():
                split, attached = attached[fills], attached[~fills]
                was = lead[split]
                cached[split], terms[split], gain[split] = cached[was], terms[was], gain[was]
                live, filled = np.sort(np.concatenate([live, split])), np.concatenate([filled, split])
        if filled.size:
            # a full row has no gain; rows full before this step already had none
            member, row = np.nonzero(left[filled] <= 0)
            gain[filled[member], row] = np.inf
            best[filled] = gain[filled].min(axis=1)
        live = live[(left[live] > 0).any(axis=1)]

    return cached, evaluations


def _leaders(stack) -> np.ndarray:
    """Each member's leader in ``_greedy_runs``: itself, or the member it follows.

    A member with some cache follows the first leader, members taken by
    total cache size largest first, that has the same objective inputs (the
    bytes of its ``c_mbs``, ``rate_mbs``, ``rate`` and ``local_cost`` in
    ``stack``, all the greedy reads but the cache sizes), at least its cache
    size at every SCBS and no cache at the same SCBSs.  A member with no
    cache leads itself.
    """
    sizes = stack[4]
    lead = np.arange(len(sizes))
    groups: dict[tuple, list[int]] = {}
    for k in np.argsort(-sizes.sum(axis=1), kind="stable").tolist():
        if not sizes[k].any():
            continue
        group = groups.setdefault(tuple(a[k].tobytes() for a in stack[:4]), [])
        for j in group:
            if ((sizes[j] >= sizes[k]) & ((sizes[j] > 0) == (sizes[k] > 0))).all():
                lead[k] = j
                break
        else:
            group.append(k)
    return lead


def _stack(instances):
    """The objective inputs of a sequence of instances of one shape, stacked on a first axis.

    Returns ``(c_mbs, rate_mbs, rate, local_cost, cache_size)``: the
    ``_area_rates`` and the cache sizes.  Raises ValueError unless every
    instance has the same ``num_scbs`` and ``num_files``.
    """
    if len({(x.num_scbs, x.num_files) for x in instances}) > 1:
        raise ValueError("batched instances must share num_scbs and num_files")
    return tuple(map(np.array, zip(*((*_area_rates(x), x.cache_size) for x in instances))))


def popularity_placement(instance: Instance) -> CachingPolicy:
    """Each SCBS independently caches its locally most demanded files.

    Ranks files by the SCBS's own request rate, ties broken by the smaller
    file index, and fills the cache with the top entries (``_popular``).
    """
    return CachingPolicy(_popular(instance.demand[1:], instance.cache_size))


def _popular(demand, sizes) -> np.ndarray:
    """``popularity_placement``'s cached sets of (..., N, I) demand and (..., N) cache sizes."""
    # a stable sort keeps equal rates in file order; one scatter marks the top entries
    order = np.argsort(-demand, axis=-1, kind="stable")
    cached = np.empty(demand.shape, dtype=bool)
    np.put_along_axis(cached, order, np.arange(demand.shape[-1]) < sizes[..., None], axis=-1)
    return cached


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
    adding or removing one area's ``d * lambda``; the scores are kept across
    steps, and a move's columns are scored again from the new placement's
    sums, added again in those columns only, as ``_cached_split`` adds
    them.  The best-scoring move is taken only when it strictly
    lowers the objective, computed as ``cost_closed_form`` does; otherwise
    the search stops, so it always ends.
    Ties go to a swap over a completion, then to the smallest SCBS, then to
    the smallest file.  A completion's rate outside is a separate sum
    (``rate_bare``), so the best swap counts as tied with the best
    completion when it scores within the greedy's tie limit,
    ``1e-12 * max(1, |objective|)``, of it.  This is ``_search`` of the
    instance's ``_stack``, after ``policy.check_feasible(instance)``.
    """
    policy.check_feasible(instance)
    return CachingPolicy(_search(_stack([instance]), policy.placement.astype(bool)[None])[0][0])


# Values per array of a ``_search`` chunk: max(1, _SEARCH_VALUES // (N * I))
# instances, so a sweep axis of up to 46 instances of (14, 100) is one chunk.
_SEARCH_VALUES = 1 << 16


def _search(stack, cached):
    """``local_search`` of a ``_stack``'s instances from (B, N, I) bool placements.

    Runs ``_search_chunk`` on chunks of ``max(1, _SEARCH_VALUES // (N * I))``
    instances, each the stack's slices, so the search uses up the stack.
    Each step sums and scores again the columns of every instance of the
    chunk still searching that its last move changed, and makes one move of
    each; an instance leaves the chunk at the first step whose total is not
    below its last one.  Returns the improved placements, written over
    ``cached``, and their (B,) objectives, each ``cost_closed_form``'s total
    of its placement.
    """
    width = max(1, _SEARCH_VALUES // math.prod(cached.shape[1:]))
    objective = np.empty(len(cached))
    for start in range(0, len(cached), width):
        part = slice(start, start + width)
        objective[part] = _search_chunk(tuple(a[part] for a in stack), cached[part])[1]
    return cached, objective


# a cached cell's sign (index 1) and an uncached one's (index 0) in ``_search_chunk``
_SIGN = np.array([-1.0, 1.0])


def _least(values, where):
    """Index and value of the least entry on the last axis where ``where`` holds, or 0 and inf."""
    masked = np.where(where, values, np.inf)
    return masked.argmin(axis=-1), masked.min(axis=-1)


def _search_chunk(stack, cached):
    """``_search`` of one chunk: its ``_stack`` and (B, N, I) bool placements.

    Returns the improved placements, written over ``cached``, and their
    objectives, a (B,) array.  Each step starts with one pass over the
    columns the last move changed, every column at the first step: from the
    column's gathered rates, local costs and cells it takes the file's sums
    through ``_cached_split``, its term, its cells' toggle scores and its
    completion score.  The step's total, ``per_file.sum()`` of the terms, is
    then the ``cost_closed_form`` total of the placement, bit for bit.  One
    rule stops an instance: its total is not below the last step's (``inf``
    at the first).  That holds when it made no move, so no column changed,
    and when its exact total refused the move its scores chose; either way
    it keeps the placement from before its last move and that placement's
    total.  Instances that stop leave the chunk's arrays, which are
    compacted in place, so the search uses up the stack it is given.
    """
    c_mbs, rate_mbs, rate, local_cost, sizes = stack
    c_mbs = c_mbs[:, None]
    has_cache = sizes > 0
    # rate no completion can cover: areas without any cache
    rate_bare = rate_mbs + _scbs_sum(np.where(has_cache[..., None], 0.0, rate))
    # each file's sums and term, each cell's change of its file's term when toggled, and
    # each file's own change when cached at every SCBS with a cache; kept across steps
    rate_out, local, terms, cover0 = (np.empty(rate_bare.shape) for _ in range(4))
    toggle, touched = np.empty(rate.shape), np.ones(rate_bare.shape, dtype=bool)
    best = np.full(len(sizes), np.inf)
    live = np.arange(best.size)
    # ``cached`` takes the results: an instance's row is written when it stops, and
    # read no more
    placed, objective, before = cached, np.empty_like(best), cached
    # (m, n) with m < n: an earlier SCBS in a group of drops
    earlier = np.triu(np.ones((rate.shape[1],) * 2, dtype=bool), 1)
    while True:
        # sum and score the columns the last move changed, every column at first: a column's
        # sums and scores are its own, bit for bit; a few instances' worth at a time keeps
        # temporaries small
        pairs, part = np.argwhere(touched), 8 * cover0.shape[1]
        for k, f in (pairs[s:s + part].T for s in range(0, len(pairs), part)):
            rate_f, cost_f, cached_f = (a[k, :, f] for a in (rate, local_cost, cached))
            out_f, local_f = _cached_split(rate_mbs[k, f], rate_f.T, cost_f.T, cached_f.T)
            rate_out[k, f], local[k, f] = out_f, local_f
            terms[k, f] = term_f = _file_terms(c_mbs[k, 0], out_f, local_f)
            # the sign adds a cached cell's values back and takes an uncached one's out
            sign = _SIGN.take(cached_f.view(np.uint8))
            toggle[k, :, f] = _file_terms(c_mbs[k], out_f[:, None] + rate_f * sign,
                                          local_f[:, None] - cost_f * sign) - term_f[:, None]
            lacks_f = ~cached_f & has_cache[k]
            cover0[k, f] = _file_terms(c_mbs[k, 0], rate_bare[k, f], local_f + _scbs_sum(
                (cost_f * lacks_f).T)) - term_f
        # An instance stops once its total does not fall: it made no move, so nothing
        # was touched and the total is the same sum, or its exact total refused the
        # move.  It keeps the placement from before its last move and that total.
        cost = terms.sum(axis=1)
        stop = ~(cost < best)
        placed[live[stop]], objective[live[stop]] = before[stop], best[stop]
        if stop.all():
            return placed, objective
        state = [cost, terms, rate_out, local, toggle, cover0,
                 live, c_mbs, rate_mbs, rate, local_cost, sizes, has_cache, rate_bare]
        if stop.any():
            # in place, one array at a time, so no second copy of the state is held;
            # ``cached`` is copied instead, as it is ``placed`` at the first step
            keep = np.flatnonzero(~stop)
            for a in state:
                a[:keep.size] = a[keep]
            state, cached = [a[:keep.size] for a in state], cached[keep]
        (best, terms, rate_out, local, toggle, cover0,
         live, c_mbs, rate_mbs, rate, local_cost, sizes, has_cache, rate_bare) = state
        at = np.arange(live.size)
        # cheapest slot to free per SCBS; a free slot costs nothing
        out, out_delta = _least(toggle, cached)
        # bytes counted in int32: the same counts as a bool sum, in less time
        full = cached.view(np.uint8).sum(axis=2, dtype=np.int32) >= sizes
        use_free = ~full & ~(out_delta < 0.0)
        into, add_delta = _least(toggle, ~cached)
        swap = np.where(use_free, 0.0, out_delta) + add_delta

        # completions: the full SCBSs lacking f each drop their file out[n],
        # so the drops are grouped by file, each group scored at its first SCBS
        lacks = ~cached & has_cache[..., None]
        dropper = full & has_cache
        group = (out[:, :, None] == out[:, None, :]) & dropper[:, :, None] & dropper[:, None, :]
        first = dropper & ~(group & earlier).any(axis=1)
        dropping = lacks & full[..., None]
        # a group of one SCBS m changes out[m]'s term by out_delta[m] bit for bit (the same
        # inputs); any other is scored at its first SCBS m from its members' drops
        size = group.sum(axis=1)
        alone = first & (size == 1)
        k, m = np.nonzero(first & ~alone)
        # the larger groups first, so the groups with a p-th member are a prefix
        by = np.argsort(-size[k, m], kind="stable")
        k, m = k[by], m[by]
        gone, size = out[k, m, None], size[k, m]
        # each group's members in SCBS order, their drops (non-negative, times 1 or 0, which
        # is exact) added one after another, as ``_scbs_sum`` adds rows
        place = np.argsort(~group[k, :, m], axis=1, kind="stable")[:, :size.max(initial=1)]
        drops = np.array([a[k[:, None], place, gone] for a in (rate, local_cost)])[..., None]
        took = dropping[k[:, None], place]
        sums = drops[:, :, 0] * took[:, 0]
        for p, g in enumerate((size > np.arange(1, place.shape[1])[:, None]).sum(axis=1).tolist(), 1):
            sums[:, :g] += drops[:, :g, p] * took[:g, p]
        rate_in, local_in = sums
        # times 1 or 0 (out_delta is finite at a full SCBS with a cache): a product of 0
        # may be -0.0, which changes a sum of shares only where it is 0, and cover0 plus
        # 0.0 or -0.0 is cover0
        shares = np.where(alone, out_delta, 0.0)[..., None] * dropping
        rate_in += rate_out[k[:, None], gone]
        np.subtract(local[k[:, None], gone], local_in, out=local_in)
        shares[k, m] = _file_terms(c_mbs[k], rate_in, local_in) - terms[k[:, None], gone]
        # summed over the SCBS rows in order
        cover = cover0 + shares.sum(axis=1)
        del shares, rate_in, local_in

        row = swap.argmin(axis=1)
        file = cover.argmin(axis=1)
        # the two are scored from different sums: a tie is a tie within the greedy's limit
        by_swap = swap[at, row] <= cover[at, file] + 1e-12 * np.maximum(1.0, np.abs(best))
        moving = np.where(by_swap, swap[at, row] < 0.0, cover[at, file] < 0.0)
        x = cached.copy()
        b = np.flatnonzero(moving & by_swap)
        r = row[b]
        freeing = ~use_free[b, r]
        x[b[freeing], r[freeing], out[b, r][freeing]] = False
        x[b, r, into[b, r]] = True
        b = np.flatnonzero(moving & ~by_swap)
        f = file[b]
        gaining = lacks[b, :, f]
        k, n = np.nonzero(gaining & full[b])
        x[b[k], n, out[b[k], n]] = False
        k, n = np.nonzero(gaining)
        x[b[k], n, f[k]] = True
        assert (x.view(np.uint8).sum(axis=2, dtype=np.int32) <= sizes).all(), "a move overfilled a cache"
        touched = (x != cached).any(axis=1)
        before, cached = cached, x


# Values per array of an exhaustive-scan block, whatever the space.  2^15 ran
# the hardness bench fastest (2^12 to 2^17 tried) without raising its peak RSS.
_BLOCK = 1 << 15


@functools.lru_cache(maxsize=64)
def _row_options(num_files: int, size: int) -> np.ndarray:
    """Read-only bool table of the rows holding at most ``size <= num_files`` files, sorted.

    Built from the last file back: rows lacking a file sort before those holding it.
    """
    rows = {0: np.zeros((1, 0), dtype=bool)}  # k: the sorted rows of the last m files, <= k held
    for m in range(1, num_files + 1):
        rows = {k: np.concatenate([np.insert(rows[min(k, m - 1)], 0, False, axis=1),
                                   np.insert(rows[k - 1] if k else rows[0][:0], 0, True, axis=1)])
                for k in range(max(0, size - num_files + m), min(m, size) + 1)}
    rows[size].setflags(write=False)
    return rows[size]


def _placement_tables(num_files: int, cache_sizes, max_policies=math.inf) -> list[np.ndarray]:
    """Each SCBS's row options, after checking the space against ``max_policies``."""
    space = count_feasible_placements(num_files, cache_sizes)
    if space > max_policies:
        raise CapacityError(
            f"{space} feasible placements exceed the enumeration cap of {max_policies}"
        )
    return [_row_options(num_files, min(int(s), num_files)) for s in cache_sizes]


def _placement_blocks(tables, width: int) -> Iterator[tuple[tuple[int, ...], list[np.ndarray]]]:
    """Yield ``(shape, rows)`` for consecutive blocks of the enumeration.

    Placement k is the mixed-radix number whose digit n indexes
    ``tables[n]``; the last SCBS varies fastest.  Each table is sorted, so
    the placements come in lexicographic row-major order (all-zeros first),
    and a first-strict-minimum scan picks the lexicographically smallest
    optimum.  A block is a C-ordered slab of at most ``max(1, _BLOCK //
    width)`` placements; ``rows[n]``, SCBS n's digits, has length 1 on every
    axis of ``shape`` but its own.
    """
    radix, chunks, tail = [len(t) for t in tables], [], 1
    # from the last SCBS back: whole tables while they fit, one run, then single options
    for r in reversed(radix):
        chunks.insert(0, min(r, max(1, _BLOCK // width) // tail))
        tail *= chunks[0]
    runs = ([np.arange(s, min(s + k, r)) for s in range(0, r, k)] for r, k in zip(radix, chunks))
    for digits in itertools.product(*runs):
        yield tuple(map(len, digits)), list(np.ix_(*digits))


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
    built.  Scores the feasible placements in the blocks of
    ``_placement_blocks`` of width I, adding each SCBS's per-option rate
    outside and local cost in turn, SCBS 1 first, as ``_cached_split`` does,
    into sums that broadcast to the block; so each policy's cost equals
    ``_file_terms(...).sum()`` of its own ``_cached_split`` bit for bit.
    Among equal-cost optima the lexicographically smallest placement wins:
    the first minimum of a block, and a later block only if strictly
    cheaper.  ``evaluations`` counts every policy.
    """
    i = instance.num_files
    tables = _placement_tables(i, instance.cache_size, max_policies)
    c_mbs, rate_mbs, rate, local_cost = _area_rates(instance)
    rate_options = [np.where(t, 0.0, r) for t, r in zip(tables, rate)]
    local_options = [np.where(t, c, 0.0) for t, c in zip(tables, local_cost)]
    best_cost, best = math.inf, None
    for _, rows in _placement_blocks(tables, i):
        outside, local = (sum(o.take(r, axis=0) for o, r in zip(options, rows)).reshape(-1, i)
                          for options in (rate_options, local_options))
        cost = _file_terms(c_mbs, rate_mbs + outside, local).sum(axis=1)
        j = int(cost.argmin())
        if cost[j] < best_cost:
            best_cost = float(cost[j])
            best = np.array([t[r.flat[j]] for t, r in zip(tables, np.broadcast_arrays(*rows))])
    assert best is not None
    return SolverReport(policy=CachingPolicy(best), trace=(),
                        evaluations=math.prod(map(len, tables)))
