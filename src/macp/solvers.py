"""Cache placement solvers.

``greedy_macp`` is the multicast-aware heuristic (commit the single best
placement until every cache is full) and ``local_search`` improves a given
placement by swaps and coverage completions.  Each is the batch of one of
``greedy_macp_batch`` or ``local_search_batch``, which solve many instances
of one shape in lockstep numpy steps, the greedy's steps each committing a
verified run of one file, the search's each scoring again only the columns
its last move changed.  Members that differ only in nested cache sizes
follow one lockstep row of the greedy until they fill a row of their own.
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

    This is ``greedy_macp_batch`` of one instance, its trace replayed from
    the runs its steps commit: after each commit of a run, the file takes
    the term the step scored for that state and the terms are summed
    again (O(I) per commit), so each trace objective is
    ``cost_closed_form``'s total of the placement so far, bit for bit.
    ``evaluations`` counts the gains a greedy of one commit per step
    computes, for allowed cells only (the file not cached there and the
    SCBS's cache not full: the finite gains): every allowed cell once at
    the start, then the allowed cells of the committed file's column after
    each commit.  It is 0 when no SCBS has a cache.
    """
    trace: list[tuple[int, int, int, float]] = []
    cached, evaluations = _greedy_runs([instance], trace)
    return SolverReport(CachingPolicy(cached[0].T.astype(np.int8)), tuple(trace), evaluations)


# Values per array of one stacked ``_greedy_start`` in ``greedy_macp_batch``:
# max(1, _START_VALUES // (N * I)) leaders, 5 at (14, 100).
_START_VALUES = 1 << 13


def greedy_macp_batch(instances) -> list[CachingPolicy]:
    """``greedy_macp``'s placements of instances of one shape, solved in lockstep.

    The greedy commits in runs of one file: caching a file at one SCBS pays
    mostly once every SCBS has it.  Each step makes, for every lockstep row
    with cache room left, the global pick under ``greedy_macp``'s tie rule,
    file f at SCBS n, then f's other open cells in the order of their gains
    now for as long as it can verify that the stepwise greedy takes them.
    The N states "first t + 1 cells committed" are scored at once, f's sums
    added SCBS by SCBS as ``_cached_split`` adds them, so their gains are
    the stepwise greedy's.  The next cell is committed while it is state
    t's first cell within the tie limit under a lower and an upper bound of
    the state's objective, and every other file's best gain at the step
    start lies above that limit (those gains only rise while f runs, to inf
    where a row fills); a failed check leaves the pick to the next step.

    The start is O(N * I) work per row; a step is O(I + N^2) per row, and
    O(N * I) more for a row that scans a tie or fills a cache.  A step of
    45 distinct rows costs about four times a step of one, so the batch
    pays off by its width and by the runs' length.

    Members that differ only in nested cache sizes share a row (see
    ``_leaders``): a cache size enters the greedy only through which rows
    are full, so a follower makes its leader's commits until one of them
    fills a row of its own.  The rest of that step's run is still its
    stepwise prefix, since the run's other cells lie in rows still open and
    the other files' gains only rise; the follower then takes a copy of the
    leader's state, its full rows out, as a row of its own.

    Returns the placements in input order (none for no instances).  Raises
    ValueError unless every instance has the same ``num_scbs`` and
    ``num_files``.
    """
    return [CachingPolicy(x.T.astype(np.int8)) for x in _greedy_runs(list(instances))[0]]


def _greedy_runs(instances, trace=None):
    """``greedy_macp_batch``'s cached sets, as a (B, I, N) bool array, and a count.

    With ``trace``, a list, the batch is of one instance: the list gets its
    ``SolverReport.trace`` entries and the count is its ``evaluations``.
    Otherwise nothing is recorded and the count is 0.
    """
    if not instances:
        return [], 0
    n, i = instances[0].num_scbs, instances[0].num_files
    if any((inst.num_scbs, inst.num_files) != (n, i) for inst in instances):
        raise ValueError("batched instances must share num_scbs and num_files")
    b = len(instances)
    left = np.array([inst.cache_size for inst in instances])
    lead = _leaders(instances, left)
    rows = np.flatnonzero(lead == np.arange(b))
    # the objective inputs are held per leader, read by each member through its leader
    g, source = rows.size, rows.searchsorted(lead)
    c_mbs, rate_mbs = np.empty(g), np.empty((g, i))
    rate, local_cost = np.empty((g, i, n)), np.empty((g, i, n))
    # a follower's state is its leader's until it takes a copy of its own
    terms, gain, best, total = np.empty((b, i)), np.empty((b, n, i)), np.empty((b, i)), np.empty(b)
    # the leaders' starts a few at a time: stacked temporaries of a whole sweep
    # axis raised the peak memory, and were slower per leader
    width = max(1, _START_VALUES // (n * i))
    for s in range(0, g, width):
        part = rows[s:s + width]
        (c_mbs[s:s + width], rate_mbs[s:s + width], rate[s:s + width], local_cost[s:s + width],
         terms[part], start) = _greedy_start([instances[k] for k in part.tolist()])
        gain[part] = start.transpose(0, 2, 1)
    best[rows], total[rows] = gain[rows].min(axis=1), terms[rows].sum(axis=1)
    evaluations = 0 if trace is None else int(np.count_nonzero(gain < np.inf))
    cached = np.zeros((b, i, n), dtype=bool)
    states, files = np.arange(n), np.arange(i)
    # Adding I non-negative terms in any order errs by at most (I - 1) * 2**-53
    # of their sum: with rounding, a state's total is within this share of the
    # step's total plus the state's term of the sum with f's term replaced.
    slack = (i + 2) * 2.0 ** -51

    live = rows[left[rows].any(axis=1)]
    attached = np.flatnonzero(lead != np.arange(b))
    while live.size:
        at, src = np.arange(live.size), source[live]
        best_now = best[live]
        file = best_now.argmin(axis=1)
        # every file term is non-negative, so |objective| is the objective
        limit = best_now[at, file] + 1e-12 * np.maximum(total[live], 1.0)
        within = best_now <= limit[:, None]
        column = gain[live, :, file]
        if np.count_nonzero(within) == live.size:
            row = (column <= limit[:, None]).argmax(axis=1)
        else:
            # several files within the limit: the smallest row, then file
            first = (gain[live] <= limit[:, None, None]).argmax(axis=1)
            row, file = np.divmod(np.where(within, first * i + files, n * i).min(axis=1), i)
            column = gain[live, :, file]
        best_now[at, file] = np.inf
        others = best_now.min(axis=1)
        # The run: the pick, then the file's other open cells by their gains
        # now.  State t, on the last axis, has the first t + 1 committed.
        order = np.where(states == row[:, None], -np.inf, column).argsort(axis=1, kind="stable")
        rank = np.empty_like(order)
        rank[at[:, None], order] = states
        committed = rank[..., None] <= states
        # the file's sums SCBS by SCBS, as ``_cached_split`` adds them
        on = committed | cached[live, file][..., None]
        outside = np.where(on, 0.0, rate[src, file][..., None])
        costs = local_cost[src, file][..., None]
        rate_out = rate_mbs[src, file][:, None] + outside.cumsum(axis=1)[:, -1]
        local = np.where(on, costs, 0.0).cumsum(axis=1)[:, -1]
        c = c_mbs[src, None]
        term = _file_terms(c, rate_out, local)
        scores = _file_terms(c[..., None], rate_out[:, None] - outside, local[:, None] + costs)
        gains = np.where((column < np.inf)[..., None] & ~committed, scores - term[:, None], np.inf)
        least = gains.min(axis=1)
        # each state's tie limit under a lower and an upper bound of its total
        start = total[live, None]
        guess, margin = start - terms[live, file][:, None] + term, slack * (start + term)
        low = least + 1e-12 * np.maximum(guess - margin, 1.0)
        high = least + 1e-12 * np.maximum(guess + margin, 1.0)
        # after state t, commit order[t + 1] while it is the stepwise pick
        after = order[:, 1:]
        keep = ((gains[at[:, None], after, states[:-1]] <= low[:, :-1])
                & ((gains[..., :-1] <= high[:, None, :-1]).argmax(axis=1) == after)
                & (others[:, None] > high[:, :-1]))
        last = np.logical_and.accumulate(keep, axis=1).sum(axis=1)
        if trace is not None:
            # the one instance's run, commit by commit: its file takes each
            # state's term, and each commit scores the column's cells left open
            f, open_cells = int(file[0]), int(np.count_nonzero(column[0] < np.inf))
            for t, r in enumerate(order[0, :last[0] + 1].tolist()):
                terms[0, f] = term[0, t]
                trace.append((len(trace) + 1, r + 1, f, float(terms[0].sum())))
                evaluations += open_cells - t - 1
        run = committed[at, :, last]
        cached[live, file] |= run
        left[live] -= run
        terms[live, file] = term[at, last]
        total[live] = terms[live].sum(axis=1)
        gain[live, :, file], best[live, file] = gains[at, :, last], least[at, last]
        full = run & (left[live] == 0)
        moved = full.any()
        if moved:
            filled, filled_row = np.nonzero(full)
            gain[live[filled], filled_row] = np.inf
            filled = live[full.any(axis=1)]
            best[filled] = gain[filled].min(axis=1)
        if attached.size:
            # each follower commits its leader's run; one that fills a row
            # with it goes on from a copy of the leader's state, its full
            # rows out (the leader's full rows are among them)
            ahead = run[live.searchsorted(lead[attached])]
            left[attached] -= ahead
            fills = (ahead & (left[attached] == 0)).any(axis=1)
            if fills.any():
                k, attached = attached[fills], attached[~fills]
                was = lead[k]
                cached[k], terms[k], total[k] = cached[was], terms[was], total[was]
                gain[k] = np.where((left[k] == 0)[:, :, None], np.inf, gain[was])
                best[k] = gain[k].min(axis=1)
                live, moved = np.sort(np.concatenate([live, k])), True
        if moved:
            live = live[left[live].any(axis=1)]

    return cached, evaluations


def _leaders(instances, sizes) -> np.ndarray:
    """Each member's leader in ``greedy_macp_batch``: itself, or the member it follows.

    A member with some cache follows the first leader, members taken by
    total cache size largest first, that has the same objective inputs
    (demand, deadline and costs), at least its cache size at every SCBS and
    no cache at the same SCBSs.  A member with no cache leads itself.
    """
    lead = np.arange(len(instances))
    groups: dict[tuple, list[int]] = {}
    for k in np.argsort(-sizes.sum(axis=1), kind="stable").tolist():
        if not sizes[k].any():
            continue
        inst = instances[k]
        # the demand by the hash of its bytes, its values compared within a group
        key = (hash(inst.demand.tobytes()), inst.deadline, inst.cost_backhaul, inst.cost_mbs_tx,
               inst.cost_scbs_tx.tobytes())
        group = groups.setdefault(key, [])
        for j in group:
            if (((sizes[j] >= sizes[k]) & ((sizes[j] > 0) == (sizes[k] > 0))).all()
                    and np.array_equal(instances[j].demand, inst.demand)):
                lead[k] = j
                break
        else:
            group.append(k)
    return lead


def _stacked_rates(instances):
    """``_area_rates`` of instances of one shape, each output stacked on a first axis."""
    return tuple(map(np.array, zip(*map(_area_rates, instances))))


def _greedy_start(instances):
    """The greedy's inputs and gains before its first commit, file-major.

    For instances of one shape, returns ``(c_mbs, rate_mbs, rate,
    local_cost, terms, gain)``, each stacked on a first axis: the
    ``_area_rates`` with ``rate`` and ``local_cost`` as (I, N) arrays, so a
    file's column is one contiguous row; the file terms of the empty
    placement; and ``gain[f, n]``, the objective's change when f is cached
    at SCBS n, infinite where n has no cache.  All of it is elementwise work
    and ``_scbs_sum``, so each instance's values are its own, bit for bit.
    """
    c_mbs, rate_mbs, rate, local_cost = _stacked_rates(instances)
    rate_out, local = _cached_split(rate_mbs, rate, local_cost, np.zeros(rate.shape, dtype=bool))
    terms = _file_terms(c_mbs[:, None], rate_out, local)
    rate, local_cost = rate.transpose(0, 2, 1).copy(), local_cost.transpose(0, 2, 1).copy()
    has_cache = np.array([inst.cache_size for inst in instances])[:, None, :] > 0
    gain = np.where(has_cache, _file_terms(c_mbs[:, None, None], rate_out[..., None] - rate,
                                           local_cost) - terms[..., None], np.inf)
    return c_mbs, rate_mbs, rate, local_cost, terms, gain


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
    ``1e-12 * max(1, |objective|)``, of it.  This is ``local_search_batch``
    of one instance.
    """
    return local_search_batch([instance], [policy])[0]


# Values per array of a ``local_search_batch`` chunk: max(1, _SEARCH_VALUES // (N * I))
# instances, so a sweep axis of up to 46 instances of (14, 100) is one chunk.
_SEARCH_VALUES = 1 << 16


def local_search_batch(instances, policies) -> list[CachingPolicy]:
    """``local_search`` of each instance from its policy, in lockstep numpy steps.

    The instances go in chunks of ``max(1, _SEARCH_VALUES // (N * I))``;
    each step scores and makes one move of every instance of the chunk
    still searching, and an instance leaves the chunk at the step where it
    stops.  Returns the improved placements in input order (none for no
    instances).

    Raises ValueError unless there is one policy per instance and every
    instance has the same ``num_scbs`` and ``num_files``.
    """
    instances, policies = list(instances), list(policies)
    if len(instances) != len(policies):
        raise ValueError("need one policy per instance")
    if any((inst.num_scbs, inst.num_files) != (instances[0].num_scbs, instances[0].num_files)
           for inst in instances):
        raise ValueError("batched instances must share num_scbs and num_files")
    for inst, policy in zip(instances, policies):
        policy.check_feasible(inst)
    width = max(1, _SEARCH_VALUES // (policies[0].placement.size if policies else 1))
    return [result for start in range(0, len(instances), width)
            for result in _search_chunk(instances[start:start + width],
                                        policies[start:start + width])]


def _least(values, where):
    """Index and value of the least entry on the last axis where ``where`` holds, or 0 and inf."""
    masked = np.where(where, values, np.inf)
    return masked.argmin(axis=-1), masked.min(axis=-1)


def _search_chunk(instances, policies) -> list[CachingPolicy]:
    """``local_search_batch`` of one chunk of instances, as (B, N, I) arrays."""
    c_mbs, rate_mbs, rate, local_cost = _stacked_rates(instances)
    c_mbs = c_mbs[:, None]
    sizes = np.array([inst.cache_size for inst in instances])
    has_cache = sizes > 0
    # rate no completion can cover: areas without any cache
    rate_bare = rate_mbs + _scbs_sum(np.where(has_cache[..., None], 0.0, rate))
    cached = np.array([policy.placement for policy in policies], dtype=bool)
    rate_out, local = _cached_split(rate_mbs, rate, local_cost, cached)
    terms = _file_terms(c_mbs, rate_out, local)
    best = terms.sum(axis=1)
    # each cell's change of its file's term when toggled, and each file's own change
    # when cached at every SCBS with a cache; kept across steps
    toggle, cover0 = np.empty(rate.shape), np.empty(terms.shape)
    touched = np.ones(terms.shape, dtype=bool)
    live = np.arange(len(instances))
    # (m, n) with m < n: an earlier SCBS in a group of drops
    earlier = np.triu(np.ones((rate.shape[1],) * 2, dtype=bool), 1)
    rows = np.arange(rate.shape[1])
    done = [None] * len(instances)
    while True:
        # score the columns the last move changed, every column at first: a column's scores
        # are its own, bit for bit; a few instances' worth at a time keeps temporaries small
        pairs, part = np.argwhere(touched), 8 * cover0.shape[1]
        for k, f in (pairs[s:s + part].T for s in range(0, len(pairs), part)):
            rate_f, cost_f, cached_f = (a[k, :, f] for a in (rate, local_cost, cached))
            # the sign adds a cached cell's values back and takes an uncached one's out
            sign = np.where(cached_f, 1.0, -1.0)
            toggle[k, :, f] = _file_terms(c_mbs[k], rate_out[k, f, None] + rate_f * sign,
                                          local[k, f, None] - cost_f * sign) - terms[k, f, None]
            lacks_f = ~cached_f & has_cache[k]
            cover0[k, f] = _file_terms(c_mbs[k, 0], rate_bare[k, f], local[k, f] + _scbs_sum(
                np.where(lacks_f, cost_f, 0.0).T)) - terms[k, f]
        at = np.arange(live.size)
        # cheapest slot to free per SCBS; a free slot costs nothing
        out, out_delta = _least(toggle, cached)
        full = cached.sum(axis=2) >= sizes
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
        # inputs, and a matmul with one non-zero product is exact); any other is scored at
        # its first SCBS m, the j-th such of instance k, from its members' drops
        alone = first & (group.sum(axis=1) == 1)
        k, m = np.nonzero(first & ~alone)
        j = (first & ~alone).cumsum(axis=1)[k, m] - 1
        weights = np.zeros((live.size, j.max(initial=-1) + 1, len(rows)), dtype=bool)
        weights[k, j] = group[k, :, m]
        ones = dropping.astype(np.float64)
        rate_in, local_in = (np.matmul(weights * a[at[:, None], rows, out][:, None], ones)[k, j]
                             for a in (rate, local_cost))
        # free each (B, N, I) temporary before the next: they set the peak memory
        del ones
        shares = np.where(dropping & alone[..., None], out_delta[..., None], 0.0)
        gone = out[k, m, None]
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
        assert (x.sum(axis=2) <= sizes).all(), "a move overfilled a cache"

        # the new placement's sums, added again only in the columns the move changed:
        # ``cumsum`` adds the SCBS rows in turn, so they are ``_cached_split``'s bits
        changed = (x != cached).any(axis=1)
        k, f = np.nonzero(changed)
        x_f = x[k, :, f]
        out_f = rate_mbs[k, f] + np.where(x_f, 0.0, rate[k, :, f]).cumsum(axis=1)[:, -1]
        local_f = np.where(x_f, local_cost[k, :, f], 0.0).cumsum(axis=1)[:, -1]
        x_out, x_local, x_terms = rate_out.copy(), local.copy(), terms.copy()
        x_out[k, f], x_local[k, f] = out_f, local_f
        x_terms[k, f] = _file_terms(c_mbs[k, 0], out_f, local_f)
        cost = x_terms.sum(axis=1)
        going = moving & (cost < best)
        for j in np.flatnonzero(~going).tolist():
            done[live[j]] = CachingPolicy(cached[j].astype(np.int8))
        if not going.any():
            return done
        state = [x, changed, cost, x_terms, x_out, x_local, toggle, cover0,
                 live, c_mbs, rate_mbs, rate, local_cost, sizes, has_cache, rate_bare]
        if not going.all():
            # in place, one array at a time, so no second copy of the state is held
            keep = np.flatnonzero(going)
            for a in state:
                a[:keep.size] = a[keep]
            state = [a[:keep.size] for a in state]
        (cached, touched, best, terms, rate_out, local, toggle, cover0,
         live, c_mbs, rate_mbs, rate, local_cost, sizes, has_cache, rate_bare) = state


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
