import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from macp import (
    CachingPolicy,
    CapacityError,
    Instance,
    ScenarioConfig,
    SppInstance,
    cost_closed_form,
    exact_optimal,
    generate_scenario,
    greedy_macp,
    local_search,
    macdp_decide,
    popularity_placement,
    spp_to_macdp,
)
import macp
import macp.solvers as solvers_module
from macp.cost import _area_rates, _cached_split, _file_terms
from macp.scenario import _comparisons, _replication_seeds
from macp.solvers import (
    _greedy_runs,
    _placement_tables,
    _search,
    _search_chunk,
    _stack,
    count_feasible_placements,
)
from helpers import (
    empty_policy,
    iter_feasible_placements,
    marginal_cost,
    motivating_instance,
    motivating_optimal_policy,
    random_decision,
    random_instance,
    random_policy,
    random_spp,
    reference_exact_optimal,
    reference_feasible_placements,
    reference_greedy_macp,
    reference_local_search,
    reference_macdp_decide,
    reference_popularity_placement,
    reference_search_placements,
)


class TestGreedy:
    def test_solves_walkthrough_optimally(self):
        inst = motivating_instance()
        report = greedy_macp(inst)
        exact = exact_optimal(inst)
        got = cost_closed_form(inst, report.policy).total
        best = cost_closed_form(inst, exact.policy).total
        assert got == pytest.approx(best, abs=1e-12)
        assert got == pytest.approx(0.6394, abs=5e-4)

    def test_no_cache_no_iterations(self):
        inst = Instance(2, 3, [0, 0], 1, 1, [0, 0], np.ones((3, 3)), 1.0)
        report = greedy_macp(inst)
        assert report.trace == ()
        assert report.evaluations == 0
        assert report.policy.placement.sum() == 0
        q = 1.0 - inst.request_probabilities()
        expected = (2.0 * (1.0 - q.prod(axis=0))).sum()
        assert cost_closed_form(inst, report.policy).total == pytest.approx(expected, abs=1e-12)

    def test_oversized_caches_store_everything(self):
        inst = Instance(2, 3, [7, 9], 1, 1, [0, 0], np.ones((3, 3)), 1.0)
        report = greedy_macp(inst)
        assert report.policy.placement.all()
        assert len(report.trace) == 6  # min(S, I) placements per SCBS

    def test_trace_shape_and_monotonicity(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            inst = random_instance(rng, max_scbs=5, max_files=5)
            report = greedy_macp(inst)
            assert len(report.trace) == int(inst.cache_size.sum())
            values = [entry[3] for entry in report.trace]
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
            iterations = [entry[0] for entry in report.trace]
            assert iterations == list(range(1, len(values) + 1))

    def test_evaluation_budget(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            inst = random_instance(rng, max_scbs=5, max_files=5)
            report = greedy_macp(inst)
            budget = int(inst.cache_size.sum())
            assert report.evaluations <= budget * inst.num_scbs * inst.num_files

    def test_trace_values_match_closed_form(self):
        rng = np.random.default_rng(31)
        inst = random_instance(rng, max_scbs=4, max_files=4, heavy_scbs_costs=True)
        report = greedy_macp(inst)
        x = np.zeros((inst.num_scbs, inst.num_files), dtype=np.int8)
        for _, scbs, file, value in report.trace:
            x[scbs - 1, file] = 1
            assert value == pytest.approx(
                cost_closed_form(inst, CachingPolicy(x)).total, abs=1e-9
            )

    def test_every_trace_entry_is_the_closed_form_total(self):
        # entry k is cost_closed_form's total after the first k commits, bit
        # for bit: zero and heavy SCBS costs, zero, unequal and clamped
        # caches, up to twelve SCBSs, and generated scenarios
        rng = np.random.default_rng(97)
        instances = []
        for k in range(90):
            inst = random_instance(rng, max_scbs=12, max_files=8, heavy_scbs_costs=k % 3 == 1)
            if k % 3 == 0:
                inst = dataclasses.replace(inst, cost_scbs_tx=np.zeros(inst.num_scbs))
            on = inst.cache_size > 0
            instances += [_with_sizes(inst, np.where(on, s, 0)) for s in (3, 1, 6)]
        for seed, cost in itertools.product(range(3), (0.0, 0.3)):
            base = generate_scenario(ScenarioConfig(num_scbs=10, num_files=40, cost_scbs=cost,
                                                    seed=seed))
            instances += [_with_sizes(base, [c] * 10) for c in (8, 2, 20)]
        assert sum(inst.num_scbs >= 9 for inst in instances) >= 60
        for inst in instances:
            x = np.zeros((inst.num_scbs, inst.num_files), dtype=np.int8)
            for _, scbs, file, value in greedy_macp(inst).trace:
                x[scbs - 1, file] = 1
                assert value == cost_closed_form(inst, CachingPolicy(x)).total, inst

    def test_matches_stepwise_marginal_argmin(self):
        # every committed placement against direct marginal evaluation under
        # the stated tie rule, on random, generated and saturated instances
        rng = np.random.default_rng(37)
        instances = [
            random_instance(rng, heavy_scbs_costs=k % 2 == 1) for k in range(100)
        ]
        instances += [
            generate_scenario(ScenarioConfig(num_scbs=5, num_files=30, cache_size=6, seed=s))
            for s in range(3)
        ]
        instances += [_saturated(rng, random_instance(rng, heavy_scbs_costs=k % 2 == 1))
                      for k in range(20)]
        for inst in instances:
            _check_against_marginal_oracle(inst)

    def test_tie_rule_takes_smallest_scbs_then_file(self):
        # identical files at identical SCBSs: all six first placements gain
        # the same, and the next one completes file 0's coverage
        inst = Instance(2, 3, [1, 1], 0.4, 0.6, [0.0, 0.0],
                        [[0.0] * 3, [0.5] * 3, [0.5] * 3], 1.0)
        assert [entry[1:3] for entry in greedy_macp(inst).trace] == [(1, 0), (2, 0)]
        # the macro-only area requests every file almost surely, so the macro
        # multicast fires whatever is cached and every gain is zero
        demand = np.full((4, 5), 0.7)
        demand[0] = 1e3
        inst = Instance(3, 5, [2, 3, 1], 0.4, 0.6, [0.1, 0.3, 0.2], demand, 1.0)
        assert [entry[1:3] for entry in greedy_macp(inst).trace] == [
            (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0),
        ]

    def test_rounding_level_ties_count_as_ties(self):
        # Files 1 and 2 hold file 0's three SCBS rates in another order, so
        # caching the 1.61 rate gains the same for (1, 0), (1, 1) and (3, 2)
        # up to the order of a three-term sum; the computed gain of (1, 0)
        # is the largest of the three by one rounding step.
        a, b, c = 1.61, 0.54, 0.2
        demand = [[0.0] * 3, [a, a, c], [b, c, b], [c, b, a]]
        inst = Instance(3, 3, [1, 1, 1], 0.4, 0.6, [0.25] * 3, demand, 1.0)
        assert greedy_macp(inst).trace[0][1:3] == (1, 0)

    def test_deterministic(self):
        inst = motivating_instance()
        a = greedy_macp(inst)
        b = greedy_macp(inst)
        assert a.trace == b.trace
        assert a.evaluations == b.evaluations
        assert np.array_equal(a.policy.placement, b.policy.placement)

    def test_matches_stepwise_reference(self):
        # the gains alone, infinite where a cell is not allowed, give the
        # placement, trace and evaluations of the loop with an allowed mask
        for inst in _equivalence_cases(61):
            _assert_same_greedy(inst)

    @pytest.mark.parametrize("event, inst", [
        # file 1 then file 2 at SCBS 1, whose cache still has room
        ("cut", Instance(2, 3, [2, 2], 0.5, 0.5, [0.0, 0.0],
                         [[0, 0, 0], [2, 1, 0.3], [2, 0, 0.3]], 1.0)),
        # file 0 at SCBS 1, which that commit fills, then at SCBS 2
        ("fill", Instance(2, 2, [1, 2], 0.5, 0.5, [0.0, 0.0],
                          [[0, 0], [0.5, 2], [0.5, 2]], 1.0)),
        # after file 0 at SCBSs 1 and 2, its last cell (no demand at SCBS 3)
        # gains exactly 0, as does every cell of the requestless file 1
        ("tie", Instance(3, 2, [2, 2, 2], 0.5, 0.5, [0.1, 0.1, 0.1],
                         [[0, 0], [2, 0], [2, 0], [0, 0]], 1.0)),
    ])
    def test_run_cut_filled_or_tied_mid_run(self, event, inst):
        assert event in _run_events(inst)
        _assert_same_greedy(inst)


def _with_sizes(inst: Instance, sizes) -> Instance:
    return Instance(inst.num_scbs, inst.num_files, sizes, inst.cost_backhaul, inst.cost_mbs_tx,
                    inst.cost_scbs_tx, inst.demand, inst.deadline)


def _stepwise(inst: Instance) -> np.ndarray:
    """``reference_greedy_macp``'s placement as a bool array."""
    return reference_greedy_macp(inst).policy.placement.astype(bool)


def _bools(policies) -> np.ndarray:
    """The policies' placements as one (B, N, I) bool array, as ``_search`` takes them."""
    return np.array([policy.placement for policy in policies], dtype=bool)


class TestGreedyBatch:
    # ``_greedy_runs`` on a stack of many instances, as ``_comparisons`` runs
    # it on a sweep axis: each placement must be the stepwise greedy's.

    def test_matches_stepwise_reference(self):
        # 400 random batches of one shape on 1 to 8 SCBSs: up to five
        # members that differ in their cache sizes (zero, unequal, or above
        # num_files and clamped to it), some with other demand, costs or
        # deadline too, repeated members; plus every axis of generated sweeps.
        rng = np.random.default_rng(71)
        batches = []
        for k in range(400):
            inst = random_instance(rng, heavy_scbs_costs=k % 2 == 1)
            members = [
                _with_sizes(inst, rng.integers(0, inst.num_files + 4, size=inst.num_scbs))
                for _ in range(int(rng.integers(1, 6)))
            ]
            if k % 3 == 0:
                members.append(_saturated(rng, members[0]))
                members.append(dataclasses.replace(
                    members[-1], demand=rng.uniform(0.0, 2.0, size=inst.demand.shape),
                    deadline=float(rng.uniform(0.2, 3.0)), cost_backhaul=0.0))
            if rng.random() < 0.3:
                members.append(members[int(rng.integers(len(members)))])
            batches.append([members[j] for j in rng.permutation(len(members))])
        for seed in range(2):
            config = ScenarioConfig(num_scbs=5, num_files=30, seed=seed)
            for axis, values in (("cache_size", (12, 3, 0, 30, 6, 3, 45)),
                                 ("zipf_shape", (0.0, 0.8, 1.6)), ("deadline", (0.5, 10.0))):
                batches.append([generate_scenario(dataclasses.replace(config, **{axis: v}))
                                for v in values])
        for members in batches:
            placed = _greedy_runs(_stack(members))[0]
            assert placed.dtype == bool and len(placed) == len(members)
            for inst, x in zip(members, placed):
                assert np.array_equal(x, _stepwise(inst)), inst

    def test_zero_unequal_and_clamped_caches_in_one_batch(self):
        base = generate_scenario(ScenarioConfig(num_scbs=4, num_files=6, seed=3))
        sizes = ([0, 0, 0, 0], [0, 2, 0, 5], [1, 3, 2, 4], [9, 9, 9, 9], [6, 0, 7, 1])
        batch = [_with_sizes(base, s) for s in sizes]
        for inst, x in zip(batch, _greedy_runs(_stack(batch))[0]):
            assert np.array_equal(x, _stepwise(inst))
            assert (x.sum(axis=1) == inst.cache_size).all()

    def test_ties_in_one_member_only(self):
        # the tie-rule cases, batched with a member of their shape whose
        # gains never tie, so the tie scan runs for part of the batch
        tied = [
            Instance(2, 3, [1, 1], 0.4, 0.6, [0.0, 0.0], [[0.0] * 3, [0.5] * 3, [0.5] * 3], 1.0),
            Instance(3, 5, [2, 3, 1], 0.4, 0.6, [0.1, 0.3, 0.2],
                     np.vstack([np.full(5, 1e3), np.full((3, 5), 0.7)]), 1.0),
        ]
        rng = np.random.default_rng(5)
        for inst in tied:
            plain = dataclasses.replace(inst, demand=rng.uniform(0.1, 2.0, size=inst.demand.shape))
            batch = [plain, inst, plain]
            for member, x in zip(batch, _greedy_runs(_stack(batch))[0]):
                assert np.array_equal(x, _stepwise(member))

    def test_one_instance(self):
        inst = motivating_instance()
        (x,) = _greedy_runs(_stack([inst]))[0]
        assert np.array_equal(x, _stepwise(inst))

    @pytest.mark.parametrize("change", [
        {"cache_size": [2, 1, 2]},
        {"demand": np.full((4, 4), 0.6)},
        {"deadline": 2.0},
        {"cache_size": [0, 2, 2]},
    ], ids=["not nested", "other demand", "other deadline", "caches at other SCBSs"])
    def test_accepts_other_differences(self, change):
        # one batch takes members of one shape that differ in more than
        # nested cache sizes at the same SCBSs
        fields = dict(num_scbs=3, num_files=4, cache_size=[1, 2, 2], cost_backhaul=0.5,
                      cost_mbs_tx=0.5, cost_scbs_tx=[0.1, 0.1, 0.1],
                      demand=np.full((4, 4), 0.5), deadline=1.0)
        batch = [Instance(**fields), Instance(**{**fields, **change})]
        for inst, x in zip(batch, _greedy_runs(_stack(batch))[0]):
            assert np.array_equal(x, _stepwise(inst))

    def test_nested_caches_follow_one_row(self):
        # One demand draw with nested caches, equal ones among them, follows
        # the largest; it is batched with another draw, with members that
        # differ only in their deadline or one cost, a member without cache
        # and members whose zero rows differ from the leader's.
        base = generate_scenario(ScenarioConfig(num_scbs=4, num_files=12, cache_size=5, seed=12))
        other = generate_scenario(ScenarioConfig(num_scbs=4, num_files=12, cache_size=5, seed=13))
        batch = [_with_sizes(base, s) for s in ([1, 1, 1, 1], [5, 5, 5, 5], [4, 2, 5, 3],
                                                [5, 5, 5, 5], [0, 0, 0, 0], [5, 0, 5, 5],
                                                [3, 0, 2, 1], [0, 2, 1, 1])]
        batch += [_with_sizes(other, [2, 2, 2, 2]), other,
                  dataclasses.replace(base, cache_size=[3, 3, 3, 3], deadline=base.deadline / 2),
                  dataclasses.replace(base, cache_size=[3, 3, 3, 3], cost_backhaul=0.5),
                  dataclasses.replace(base, cache_size=[3, 3, 3, 3], cost_scbs_tx=[0, 0, 0, 0.1])]
        lead = solvers_module._leaders(_stack(batch))
        assert lead.tolist() == [1, 1, 1, 1, 4, 5, 5, 7, 9, 9, 10, 11, 12]
        for inst, x in zip(batch, _greedy_runs(_stack(batch))[0]):
            assert np.array_equal(x, _stepwise(inst))

    def test_followers_match_on_objective_inputs(self):
        # Members whose fields differ from the leader's but whose objective
        # inputs are the same bits follow it: macro costs with the same sum,
        # demand doubled at half the deadline, and an SCBS cost changed where
        # that SCBS has no demand.  A member one rate ulp away leads itself.
        config = ScenarioConfig(num_scbs=4, num_files=12, cache_size=5, deadline=1.0,
                                cost_scbs=0.2, seed=12)
        demand = generate_scenario(config).demand.copy()
        demand[2] = 0.0
        leader = dataclasses.replace(generate_scenario(config), demand=demand)
        off = demand.copy()
        off[1, 3] = np.nextafter(off[1, 3], np.inf)
        batch = [leader,
                 dataclasses.replace(leader, cache_size=[3, 3, 3, 3], cost_backhaul=0.5,
                                     cost_mbs_tx=1.5),
                 dataclasses.replace(leader, cache_size=[4, 2, 5, 3], demand=demand * 2,
                                     deadline=0.5),
                 dataclasses.replace(leader, cache_size=[2, 2, 2, 2],
                                     cost_scbs_tx=[0.2, 0.7, 0.2, 0.2]),
                 dataclasses.replace(leader, demand=off)]
        stack = _stack(batch)
        # the doubled demand at half the deadline is the leader's stack entry, bit for bit
        assert all(a[2].tobytes() == a[0].tobytes() for a in stack[:4])
        rate = stack[2]
        assert np.flatnonzero(rate[4] != rate[0]).size == 1
        assert rate[4, 0, 3] == np.nextafter(rate[0, 0, 3], np.inf)
        assert solvers_module._leaders(stack).tolist() == [0, 0, 0, 0, 4]
        for inst, x in zip(batch, _greedy_runs(_stack(batch))[0]):
            assert np.array_equal(x, _stepwise(inst))

    def test_follower_fills_a_row_inside_its_leaders_run(self):
        # The follower's SCBS 2 fills at the middle commit of one of the
        # leader's runs of one file.  Its stepwise greedy makes the leader's
        # commits through the end of that run, bit for bit, and then goes on
        # alone with room left.
        base = generate_scenario(ScenarioConfig(num_scbs=4, num_files=12, cache_size=5, seed=12))
        leader, follower = _with_sizes(base, [5, 5, 5, 5]), _with_sizes(base, [4, 2, 5, 3])
        ahead, alone = reference_greedy_macp(leader).trace, reference_greedy_macp(follower).trace
        left = follower.cache_size.copy()
        t = 0
        while True:
            left[ahead[t][1] - 1] -= 1
            if not left.all():
                break
            t += 1
        files = [entry[2] for entry in ahead]
        end = t + 1
        while files[end] == files[t]:
            end += 1
        assert files[t - 1] == files[t] == files[t + 1]
        assert alone[:end] == ahead[:end] and alone[end][1:3] != ahead[end][1:3]
        for member, x in zip([leader, follower], _greedy_runs(_stack([leader, follower]))[0]):
            assert np.array_equal(x, _stepwise(member))

    @pytest.mark.parametrize("event, inst", [
        # file 1 then file 2 at SCBS 1, whose cache still has room
        ("cut", Instance(2, 3, [2, 2], 0.5, 0.5, [0.0, 0.0],
                         [[0, 0, 0], [2, 1, 0.3], [2, 0, 0.3]], 1.0)),
        # file 0 at SCBS 1 fills it, and with it file 1's best cell, whose
        # gain is below file 0's at SCBS 2
        ("stale", Instance(2, 2, [1, 2], 0.5, 0.5, [0.0, 0.0],
                           [[0, 0], [5, 0.8], [0.3, 0]], 1.0)),
        # after file 0 at SCBS 3, SCBS 1 gains more than SCBS 2, the other
        # way round from the run's start
        ("reorder", Instance(3, 2, [2, 2, 2], 0.5, 0.5, [0.2, 0.5, 0.5],
                             [[0, 0], [1, 2], [1.5, 1], [2, 0.5]], 1.0)),
        # after file 1 at SCBS 3, its cells at SCBSs 1 and 2 gain the same
        # within the limit, so it takes SCBS 1's one slot before file 0
        # can, although SCBS 2 gained a little more at the run's start
        ("reorder", Instance(3, 2, [1, 2, 2], 0.5, 0.5, [0.5, 0.5, 0.4],
                             [[0, 0.5], [2, 0.75], [2, 0.75 + 1e-13], [1.75, 2.75]], 1.0)),
        # file 0's last cell and every cell of file 1 gain exactly 0
        ("tie", Instance(3, 2, [2, 2, 2], 0.5, 0.5, [0.1, 0.1, 0.1],
                         [[0, 0], [2, 0], [2, 0], [0, 0]], 1.0)),
    ])
    def test_runs_end_where_the_stepwise_greedy_turns(self, event, inst):
        # batched with a member whose runs cover every SCBS and one whose
        # commits run out in its first run while the others go on
        assert event in _run_events(inst)
        n, i = inst.num_scbs, inst.num_files
        whole, short = (Instance(n, i, [size] * n, 0.5, 0.5, [0.0] * n,
                                 [[0.0] * i] + [[3.0 / (f + 1) for f in range(i)]] * n, 1.0)
                        for size in (i, 1))
        files = [entry[2] for entry in reference_greedy_macp(whole).trace]
        assert all(len(set(files[k:k + n])) == 1 for k in range(0, n * i, n))
        assert len({entry[2] for entry in reference_greedy_macp(short).trace}) == 1
        batch = [whole, inst, short, inst]
        for member, x in zip(batch, _greedy_runs(_stack(batch))[0]):
            assert np.array_equal(x, _stepwise(member))

    def test_rejects_mixed_shapes(self):
        other = Instance(2, 2, [1, 1], 0.5, 0.5, [0.0, 0.0], np.full((3, 2), 0.5), 1.0)
        with pytest.raises(ValueError, match="share num_scbs and num_files"):
            _stack([motivating_instance(), other])


def _lockstep_steps(monkeypatch, batch) -> int:
    """The lockstep steps ``_greedy_runs`` takes: each scores its chains in one 4-D call."""
    calls = []
    scored = solvers_module._file_terms

    def counting(c_mbs, rate_out, local):
        calls.append(np.ndim(rate_out) == 4)
        return scored(c_mbs, rate_out, local)

    with monkeypatch.context() as m:
        m.setattr(solvers_module, "_file_terms", counting)
        _greedy_runs(_stack(batch))
    return sum(calls)


class TestGreedyChains:
    # A step commits a chain of up to ``_CHAIN`` runs per lockstep row, and a
    # chain ends wherever the next run is not provably the stepwise greedy's.
    # Each case is one way a chain ends; the placements, and for one instance
    # the trace and evaluations, must be the stepwise greedy's.

    def test_ends_where_a_run_fills_a_row_of_the_leader(self):
        # file 0's run fills SCBS 1; then file 1's pick fills SCBS 2, where
        # the next file in the chain, file 2, has its only open cell
        inst = Instance(2, 3, [1, 2], 0.5, 0.5, [0.1, 0.1],
                        [[0.25, 0.5, 0.25], [1.5, 0.25, 1.5], [0.75, 0.5, 0.75]], 1.0)
        assert [entry[1:3] for entry in reference_greedy_macp(inst).trace] == [(1, 0), (2, 0), (2, 1)]
        _assert_same_greedy(inst)

    def test_ends_where_a_run_fills_a_row_of_a_follower(self):
        # the follower's SCBS 2 fills in the first run of its leader's first
        # chain, and the leader's next run would not be the follower's; a second
        # follower's SCBS 2 fills one commit later, after the first has split
        fields = dict(num_scbs=2, num_files=3, cost_backhaul=0.5, cost_mbs_tx=0.5,
                      cost_scbs_tx=[0.2, 0.1], deadline=1.0,
                      demand=[[0.25, 0.0, 0.5], [0.5, 0.25, 0.5], [1.5, 0.5, 2.0]])
        batch = [Instance(cache_size=[1, 3], **fields), Instance(cache_size=[1, 1], **fields),
                 Instance(cache_size=[1, 2], **fields)]
        assert solvers_module._leaders(_stack(batch)).tolist() == [0, 0, 0]
        for inst, x in zip(batch, _greedy_runs(_stack(batch))[0]):
            assert np.array_equal(x, _stepwise(inst))

    @pytest.mark.parametrize("inst, first", [
        # Files 1 and 2 are mirrored, so after file 0's run their best gains
        # are equal: the tie goes to file 2, whose best cell is at SCBS 1,
        # though file 1 comes first in the chain.
        (Instance(2, 3, [2, 2], 0.5, 0.5, [0.1, 0.1], [[0, 0, 0], [3, 0.5, 1.5], [0, 1.5, 0.5]],
                  1.0), [(1, 0), (1, 2)]),
        # files 0 and 1 are mirrored too, and tie at the step's own pick: the
        # tie scan's run is the chain's only one
        (Instance(2, 3, [3, 3], 0.5, 0.5, [0.1, 0.1],
                  [[0.5, 0.5, 0.5], [0.75, 1.0, 2.0], [1.0, 0.75, 1.25]], 1.0), [(1, 1), (2, 1)]),
    ], ids=["chained pick", "step's pick"])
    def test_ends_where_a_pick_ties_another_file(self, inst, first):
        assert [entry[1:3] for entry in reference_greedy_macp(inst).trace][:2] == first
        _assert_same_greedy(inst)

    @pytest.mark.parametrize("inst", [
        # after file 0's run its best undercuts file 2's at the next pick
        Instance(2, 3, [3, 3], 0.5, 0.5, [0.0, 0.2],
                 [[0.0, 0.0, 0.5], [0.25, 1.5, 0.0], [0.75, 1.25, 0.25]], 1.0),
        # in the first step's fourth run, an earlier file's best undercuts
        # the run's after its first commit
        Instance(3, 5, [4, 2, 4], 0.5, 0.5, [0.1, 0.1, 0.2],
                 [[0.5, 0.25, 0.25, 0.0, 0.0], [0.5, 1.0, 0.5, 2.0, 1.75],
                  [2.0, 2.0, 0.0, 1.0, 0.25], [0.5, 0.0, 1.5, 1.0, 0.25]], 1.0),
    ], ids=["at the pick", "mid-run"])
    def test_ends_where_an_earlier_files_best_undercuts(self, inst):
        _assert_same_greedy(inst)

    def test_reaches_its_length(self, monkeypatch):
        # two more files than a chain has runs, each caching at both SCBSs in
        # turn, so the first step's chain is full and a second step ends it
        chain = solvers_module._CHAIN
        demand = [[0.0] * (chain + 2)] + [[3.0 / (f + 1) for f in range(chain + 2)]] * 2
        inst = Instance(2, chain + 2, [chain + 2] * 2, 0.5, 0.5, [0.1, 0.1], demand, 1.0)
        files = [entry[2] for entry in reference_greedy_macp(inst).trace]
        assert sorted(files[::2]) == list(range(chain + 2)) and files[::2] == files[1::2]
        _assert_same_greedy(inst)
        assert _lockstep_steps(monkeypatch, [inst]) == 2

    def test_halves_the_steps_of_single_runs(self, monkeypatch):
        # A guard against a step quietly going back to one run per row: a
        # generated axis of six rows in at most half the steps it takes with
        # one run per step (33 of them; chains of three to five runs take
        # 10 to 13).
        config = ScenarioConfig(num_scbs=8, num_files=60, cache_size=12, seed=3)
        batch = [generate_scenario(dataclasses.replace(config, zipf_shape=z, seed=s))
                 for s in (3, 4) for z in (0.4, 0.8, 1.2)]
        chained = _lockstep_steps(monkeypatch, batch)
        monkeypatch.setattr(solvers_module, "_CHAIN", 1)
        single = _lockstep_steps(monkeypatch, batch)
        assert chained <= single / 2, (chained, single)


# sha256 of the greedy's (SCBS, file) commits and evaluation counts and of
# MAC-MT's placements, on the instances below; recorded with numpy 2.4 on
# x86-64, equal under the AVX-512 and the baseline expm1 kernel
PINNED_CHOICES = "caa820793bdc0730d5b6e7680f724c1c024ed90d0de8dd72451704a90defc729"


def test_choices_are_pinned_on_any_expm1_kernel():
    # The choices, not the float objectives, so the digest holds whichever
    # kernel numpy's expm1 runs: the points of the pinned sweep CSV's three
    # runs, one batch per axis as ``sweep`` makes them and compares them
    # (``_comparisons``), and the paper's default instance at seeds 4 and 5.
    cfg = ScenarioConfig(num_scbs=5, num_files=24, cache_size=4, seed=2024)
    seeds = _replication_seeds(cfg.seed, 2)
    batches = [
        [generate_scenario(dataclasses.replace(cfg, **{axis: v}, seed=s))
         for s in seeds for v in values]
        for axis, values in (("cache_size", [0, 3, 8, 30]), ("zipf_shape", [0.4, 1.2]),
                             ("deadline", [1.0, 5.0]))
    ]
    batches.append([generate_scenario(ScenarioConfig(seed=s)) for s in (4, 5)])
    digest = hashlib.sha256()
    for batch in batches:
        for inst, x in zip(batch, _comparisons(batch)[1]):
            report = greedy_macp(inst)
            digest.update(repr(([t[1:3] for t in report.trace], report.evaluations)).encode())
            digest.update(x.tobytes())
    assert digest.hexdigest() == PINNED_CHOICES


def test_public_surface():
    # every exported name resolves, none twice; the lockstep kernels a sweep
    # runs stay private, so each solver has one public entry
    assert len(set(macp.__all__)) == len(macp.__all__)
    assert all(hasattr(macp, name) for name in macp.__all__)
    for name in ("greedy_macp_batch", "local_search_batch"):
        assert name not in macp.__all__
        assert not hasattr(macp, name) and not hasattr(solvers_module, name)


def _saturated(rng: np.random.Generator, inst: Instance) -> Instance:
    """The instance with about a third of its rates raised to lambda * d = 1e3."""
    demand = np.array(inst.demand)
    demand[rng.random(demand.shape) < 0.35] = 1e3 / inst.deadline
    return Instance(inst.num_scbs, inst.num_files, inst.cache_size, inst.cost_backhaul,
                    inst.cost_mbs_tx, inst.cost_scbs_tx, demand, inst.deadline)


def _equivalence_cases(seed: int) -> list[Instance]:
    """Instances on which a solver must match its step-by-step reference.

    1,000 ``random_instance``s, half with heavy SCBS costs (caches are
    drawn from 0..I, so zero and unequal caches are common); 200 of them
    again with about a third of the rates saturated at lambda * d = 1e3;
    100 with 9 to 14 SCBSs, enough rows that numpy's ``sum`` would add a
    lone column pairwise, a quarter of them with one file; and generated
    instances, the paper's defaults among them, and one of 300 files
    whose runs are mostly of three commits or fewer.
    """
    rng = np.random.default_rng(seed)
    cases = [random_instance(rng, heavy_scbs_costs=k % 2 == 1) for k in range(1000)]
    cases += [_saturated(rng, inst) for inst in cases[:200]]
    for k in range(100):
        inst = random_instance(rng, max_scbs=14, heavy_scbs_costs=k % 2 == 1)
        n = int(rng.integers(9, 15))
        i = 1 if k % 4 == 0 else inst.num_files
        cases.append(Instance(n, i, rng.integers(0, i + 1, size=n), inst.cost_backhaul,
                              inst.cost_mbs_tx, rng.uniform(0.0, inst.cost_mbs_tx, size=n),
                              rng.uniform(0.0, 2.0, size=(n + 1, i)), inst.deadline))
    cases += [
        generate_scenario(ScenarioConfig(num_scbs=5, num_files=30, cache_size=6, seed=s))
        for s in range(3)
    ]
    cases.append(generate_scenario(ScenarioConfig(seed=0)))
    cases.append(generate_scenario(ScenarioConfig(num_files=300, cache_size=60, seed=4)))
    return cases


def _assert_same_greedy(inst: Instance) -> None:
    report, reference = greedy_macp(inst), reference_greedy_macp(inst)
    assert report.trace == reference.trace, inst
    assert report.evaluations == reference.evaluations, inst
    assert np.array_equal(report.policy.placement, reference.policy.placement), inst


def _run_events(inst: Instance) -> set[str]:
    """How the greedy's runs of commits of one file end, replayed with ``marginal_cost``.

    After a commit of file f, the next commit is of another file although
    f's commit left its SCBS room (``"cut"``), or is of f again although
    f's commit filled its SCBS (``"fill"``), or f ties with another file
    within the limit (``"tie"``).  A run of f goes on past a commit that
    filled the SCBS of the other files' best cell, although that cell's gain
    is within the limit of f's next commit (``"stale"``), or commits f's
    cells out of the order of their gains at the run's start (``"reorder"``).
    """
    events = set()
    x = np.zeros((inst.num_scbs, inst.num_files), dtype=np.int8)
    previous = None
    for _, scbs, file, _ in reference_greedy_macp(inst).trace:
        pol = CachingPolicy(x)
        base = cost_closed_form(inst, pol)
        after = {
            (row + 1, f): marginal_cost(inst, pol, row + 1, f, base=base)
            for row in range(inst.num_scbs)
            if x[row].sum() < inst.cache_size[row]
            for f in range(inst.num_files)
            if not x[row, f]
        }
        limit = min(after.values()) + 1e-12 * max(1.0, abs(base.total))
        tied = {f for (_, f), v in after.items() if v <= limit}
        x[scbs - 1, file] = 1
        filled = x[scbs - 1].sum() == inst.cache_size[scbs - 1]
        if previous is not None:
            last_file, last_filled, last_scbs, runner_up, ranking = previous
            if last_file != file and not last_filled:
                events.add("cut")
            if last_file == file and last_filled:
                events.add("fill")
            if last_file in tied and len(tied) > 1:
                events.add("tie")
            if last_file == file and last_filled and runner_up[1] == last_scbs and (
                    runner_up[0] <= limit - base.total):
                events.add("stale")
            if last_file == file and ranking[:1] != [scbs]:
                events.add("reorder")
        if previous is None or previous[0] != file:
            ranking = [s for _, s in sorted((v, s) for (s, f), v in after.items() if f == file)]
        ranking = [s for s in ranking if s != scbs]
        # the other files' best gain and its SCBS
        runner_up = min(((v - base.total, s) for (s, f), v in after.items() if f != file),
                        default=(math.inf, 0))
        previous = (file, filled, scbs, runner_up, ranking)
    return events


def _check_against_marginal_oracle(inst: Instance) -> None:
    """Replay the greedy's trace against ``marginal_cost``.

    Each commit must be the smallest (SCBS, file) among the allowed cells
    whose objective after the placement is within 1e-12 * max(1, |objective|)
    of the best one, and each trace value must be the closed-form objective.
    """
    report = greedy_macp(inst)
    assert len(report.trace) == int(inst.cache_size.sum())
    x = np.zeros((inst.num_scbs, inst.num_files), dtype=np.int8)
    for _, scbs, file, value in report.trace:
        pol = CachingPolicy(x)
        base = cost_closed_form(inst, pol)
        after = {
            (row + 1, f): marginal_cost(inst, pol, row + 1, f, base=base)
            for row in range(inst.num_scbs)
            if x[row].sum() < inst.cache_size[row]
            for f in range(inst.num_files)
            if not x[row, f]
        }
        limit = min(after.values()) + 1e-12 * max(1.0, abs(base.total))
        assert (scbs, file) == min(cell for cell, v in after.items() if v <= limit)
        x[scbs - 1, file] = 1
        assert value == pytest.approx(cost_closed_form(inst, CachingPolicy(x)).total, abs=1e-9)


class TestPopularity:
    def test_walkthrough_places_most_popular_everywhere(self):
        pol = popularity_placement(motivating_instance())
        assert np.array_equal(pol.placement, [[1, 0, 0], [1, 0, 0]])

    def test_tie_break_prefers_small_indices(self):
        inst = Instance(1, 4, [2], 1, 1, [0], [[0] * 4, [0.3] * 4], 1.0)
        pol = popularity_placement(inst)
        assert np.array_equal(pol.placement, [[1, 1, 0, 0]])

    def test_empty_cache_rows(self):
        inst = Instance(2, 3, [0, 2], 1, 1, [0, 0], np.ones((3, 3)), 1.0)
        pol = popularity_placement(inst)
        assert pol.placement[0].sum() == 0
        assert pol.placement[1].sum() == 2

    def test_ranks_by_local_demand(self):
        inst = Instance(
            2, 3, [1, 1], 1, 1, [0, 0],
            [[0, 0, 0], [0.1, 0.9, 0.2], [0.5, 0.1, 0.6]], 1.0,
        )
        pol = popularity_placement(inst)
        assert np.array_equal(pol.placement, [[0, 1, 0], [0, 0, 1]])

    def test_always_feasible(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            inst = random_instance(rng)
            popularity_placement(inst).check_feasible(inst)

    def test_matches_per_scbs_lexsort(self):
        # integer rates 0..2 make ties common; caches 0..I+1 include empty
        # and over-full ones (clamped to I)
        rng = np.random.default_rng(59)
        for _ in range(3000):
            n, i = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            demand = rng.integers(0, 3, size=(n + 1, i)).astype(float)
            inst = Instance(n, i, rng.integers(0, i + 2, size=n), 1, 1, [0] * n, demand, 1.0)
            assert np.array_equal(popularity_placement(inst).placement,
                                  reference_popularity_placement(inst).placement)


def _popularity_gap(inst: Instance) -> tuple[float, float]:
    """``popularity_placement``'s and ``exact_optimal``'s closed-form totals."""
    return (cost_closed_form(inst, popularity_placement(inst)).total,
            cost_closed_form(inst, exact_optimal(inst).policy).total)


class TestPopularityOptimality:
    # With identical SCBS rows, equal caches, free SCBS transmissions and no
    # macro-only demand, file f's term when k of the N SCBSs cache it is
    # c_mbs * (1 - exp(-(N - k) * a_f)), concave in k; so some optimum caches
    # each file at every SCBS or at none, and the S most popular files are
    # the best S: popularity's placement.  Breaking any one condition can
    # leave popularity strictly above the optimum.

    def test_popularity_is_optimal_without_rate_spread(self):
        # 150 tiny instances, every other one with rates tied in threes
        rng = np.random.default_rng(14)
        for k in range(150):
            i, size = int(rng.integers(3, 7)), int(rng.integers(1, 3))
            row = rng.integers(1, 4, size=i) * 0.5 if k % 2 else rng.uniform(0.05, 2.0, size=i)
            inst = Instance(3, i, [size] * 3, float(rng.uniform(0.2, 1.0)),
                            float(rng.uniform(0.2, 1.0)), [0.0] * 3,
                            np.vstack([np.zeros(i)] + [row] * 3), float(rng.uniform(0.5, 2.0)))
            popular, best = _popularity_gap(inst)
            # equal rates tie up to the order of the sums: the greedy's tie limit
            assert best <= popular <= best + 1e-12 * max(1.0, best), inst

    @pytest.mark.parametrize("broken, plain", [
        # a cached file costs c_n at each SCBS with a request, so the rarer
        # file gains more from a slot than the one requested almost surely
        (Instance(2, 2, [1, 1], 0.5, 0.5, [0.45, 0.45], [[0, 0], [5.0, 0.5], [5.0, 0.5]], 1.0),
         {"cost_scbs_tx": [0.0, 0.0]}),
        # file 0's macro-only demand fires the macro multicast whatever is cached
        (Instance(2, 2, [1, 1], 0.5, 0.5, [0.0, 0.0], [[10.0, 0], [1.0, 0.5], [1.0, 0.5]], 1.0),
         {"demand": [[0, 0], [1.0, 0.5], [1.0, 0.5]]}),
        # one cache covers one area only, which pays most at lambda * d = ln 2
        (Instance(2, 2, [0, 1], 0.5, 0.5, [0.0, 0.0], [[0, 0], [3.0, 0.5], [3.0, 0.5]], 1.0),
         {"cache_size": [1, 1]}),
    ], ids=["SCBS cost", "macro-only demand", "unequal caches"])
    def test_each_broken_condition_can_make_popularity_worse(self, broken, plain):
        popular, best = _popularity_gap(broken)
        assert popular > best * 1.1
        # the same instance with that condition restored: popularity is optimal
        popular, best = _popularity_gap(dataclasses.replace(broken, **plain))
        assert best <= popular <= best + 1e-12 * max(1.0, best)


class TestExactOptimal:
    def test_walkthrough_policy(self):
        report = exact_optimal(motivating_instance())
        assert np.array_equal(
            report.policy.placement, motivating_optimal_policy().placement
        )
        assert report.trace == ()
        assert report.evaluations == count_feasible_placements(3, [1, 1])

    def test_zero_demand_returns_all_zeros(self):
        inst = Instance(2, 3, [1, 1], 1, 1, [0, 0], np.zeros((3, 3)), 1.0)
        report = exact_optimal(inst)
        assert report.policy.placement.sum() == 0

    def test_capacity_error_reports_cardinality(self):
        inst = Instance(6, 10, [5] * 6, 1, 1, [0] * 6, np.ones((7, 10)), 1.0)
        space = count_feasible_placements(10, [5] * 6)
        with pytest.raises(CapacityError, match=str(space)):
            exact_optimal(inst)

    def test_cost_is_the_least_closed_form_total(self):
        # the placement is the first in enumeration order whose
        # cost_closed_form total is the least, compared exactly
        rng = np.random.default_rng(89)
        for _ in range(25):
            inst = _capped(random_instance(rng, max_scbs=3, max_files=4, heavy_scbs_costs=True), 2)
            placements = list(iter_feasible_placements(inst.num_files, inst.cache_size))
            totals = [cost_closed_form(inst, CachingPolicy(np.array(rows, dtype=np.int8))).total
                      for rows in placements]
            report = exact_optimal(inst)
            assert cost_closed_form(inst, report.policy).total == min(totals), inst
            assert report.policy.placement.tolist() == [
                list(row) for row in placements[totals.index(min(totals))]
            ], inst

    def test_never_beaten_by_greedy(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            inst = random_instance(rng, max_scbs=3, max_files=5, heavy_scbs_costs=True)
            inst = Instance(
                inst.num_scbs,
                inst.num_files,
                np.minimum(inst.cache_size, 2),
                inst.cost_backhaul,
                inst.cost_mbs_tx,
                inst.cost_scbs_tx,
                inst.demand,
                inst.deadline,
            )
            best = cost_closed_form(inst, exact_optimal(inst).policy).total
            greedy = cost_closed_form(inst, greedy_macp(inst).policy).total
            assert best <= greedy + 1e-9


def _capped(inst: Instance, cap: int) -> Instance:
    return Instance(
        inst.num_scbs,
        inst.num_files,
        np.minimum(inst.cache_size, cap),
        inst.cost_backhaul,
        inst.cost_mbs_tx,
        inst.cost_scbs_tx,
        inst.demand,
        inst.deadline,
    )


class TestLocalSearch:
    def test_completes_coverage_where_greedy_is_myopic(self):
        # one slot per SCBS; file 0 is requested almost surely at both, so
        # caching it at one SCBS alone gains almost nothing and the greedy
        # spends both slots on file 1
        rates = -np.log1p(-np.array([[0.0, 0.0], [0.99, 0.5], [0.99, 0.3]]))
        inst = Instance(2, 2, [1, 1], 1, 1, [0, 0], rates, 1.0)
        greedy = greedy_macp(inst).policy
        assert cost_closed_form(inst, greedy).total == pytest.approx(1.9998, abs=1e-12)
        for policy in (
            popularity_placement(inst),
            exact_optimal(inst).policy,
            local_search(inst, greedy),
        ):
            assert np.array_equal(policy.placement, [[1, 0], [1, 0]])
            assert cost_closed_form(inst, policy).total == pytest.approx(1.3, abs=1e-12)

    @pytest.mark.parametrize("rate_mbs, rate", [(0.1, 0.2), (0.3, 0.7), (0.6, 1.1)])
    def test_exact_swap_completion_tie_goes_to_the_swap(self, rate_mbs, rate):
        # One file, requested at SCBS 1 and in the macro-only area; SCBS 2
        # has no demand.  Caching it at SCBS 1 alone (a free-slot swap) and
        # at both SCBSs (a completion) give the same cost, but the swap's
        # rate outside is (rate_mbs + rate) - rate, one rounding step above
        # the completion's rate_mbs, so it scores a last bit worse.
        assert (rate_mbs + rate) - rate > rate_mbs
        inst = Instance(2, 1, [1, 1], 0.5, 0.5, [0.25, 0.25], [[rate_mbs], [rate], [0.0]], 1.0)
        for search in (local_search, reference_local_search):
            got = search(inst, empty_policy(2, 1))
            assert np.array_equal(got.placement, [[1], [0]])

    def test_between_start_and_exact_optimum(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            inst = _capped(
                random_instance(rng, max_scbs=3, max_files=5, heavy_scbs_costs=True), 2
            )
            best = cost_closed_form(inst, exact_optimal(inst).policy).total
            for start in (greedy_macp(inst).policy, random_policy(rng, inst)):
                result = local_search(inst, start)
                result.check_feasible(inst)
                got = cost_closed_form(inst, result).total
                assert got <= cost_closed_form(inst, start).total
                assert best <= got + 1e-9

    def test_no_single_swap_improves(self):
        # brute-force check of the swap scoring: at the result, no swap
        # within one SCBS (or addition to a free slot) lowers the objective
        rng = np.random.default_rng(53)
        for _ in range(40):
            inst = random_instance(rng, max_scbs=4, max_files=5, heavy_scbs_costs=True)
            result = local_search(inst, random_policy(rng, inst))
            x = result.placement
            got = cost_closed_form(inst, result).total
            for row in range(inst.num_scbs):
                outs = list(np.flatnonzero(x[row]))
                if x[row].sum() < inst.cache_size[row]:
                    outs.append(None)
                for out in outs:
                    for into in np.flatnonzero(x[row] == 0):
                        y = x.copy()
                        if out is not None:
                            y[row, out] = 0
                        y[row, into] = 1
                        moved = cost_closed_form(inst, CachingPolicy(y)).total
                        assert moved >= got - 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            inst = random_instance(rng, max_scbs=5, max_files=6)
            start = greedy_macp(inst).policy
            a = local_search(inst, start)
            b = local_search(inst, start)
            assert np.array_equal(a.placement, b.placement)

    def test_matches_full_rescore_reference(self, monkeypatch):
        # ``_search`` makes the moves of the search that re-scored
        # every column and called cost_closed_form on each candidate, from
        # greedy and from random starts: in batches of one shape, in chunks
        # of the default width, of 3 and of 1 (instances leave a chunk at
        # different steps).  Placements are compared; scores may differ in
        # the last bit.
        rng = np.random.default_rng(67)
        runs = [(inst, start) for inst in _equivalence_cases(61)
                for start in (greedy_macp(inst).policy, random_policy(rng, inst))]
        want = [reference_local_search(inst, start).placement.astype(bool) for inst, start in runs]
        groups = {}
        for k, (inst, _) in enumerate(runs):
            groups.setdefault((inst.num_scbs, inst.num_files), []).append(k)
        assert max(map(len, groups.values())) > 3
        default = solvers_module._SEARCH_VALUES
        for width in (None, 3, 1):
            for (n, i), members in groups.items():
                monkeypatch.setattr(solvers_module, "_SEARCH_VALUES",
                                    default if width is None else width * n * i)
                instances, starts = zip(*(runs[k] for k in members))
                for k, x in zip(members, _search(_stack(instances), _bools(starts))[0]):
                    assert np.array_equal(x, want[k]), runs[k][0]
        for (inst, start), placement in zip(runs[::5], want[::5]):
            assert np.array_equal(local_search(inst, start).placement.astype(bool), placement), inst

    def test_grouped_drops_add_in_scbs_order_in_any_batch(self, monkeypatch):
        # Every SCBS caches only file 0, so completing any other file drops
        # file 0 at all nine: one group per instance, scored from its rate
        # and local-cost sums in one call.  Those sums are the same bits for
        # an instance alone and among six, and equal its rates added one
        # SCBS after another (a BLAS product gave other last bits here).
        rng = np.random.default_rng(3)
        n, i = 9, 4
        batch = [Instance(n, i, [1] * n, 0.5, 0.5, rng.uniform(0.0, 0.3, size=n),
                          rng.uniform(0.1, 2.0, size=(n + 1, i)), 1.0) for _ in range(6)]
        start = CachingPolicy(np.eye(1, i, dtype=np.int8).repeat(n, axis=0))

        def group_sums(instances):
            seen = []
            scored = solvers_module._file_terms

            def recording(c_mbs, rate_out, local):
                # the groups' sums: the first call over files after the toggles' over SCBSs
                shape = np.shape(rate_out)
                if len(shape) == 2 and shape[1] == n:
                    seen.append(None)
                elif len(shape) == 2 and shape[1] == i and seen and seen[-1] is None:
                    seen.append((rate_out.copy(), local.copy()))
                return scored(c_mbs, rate_out, local)

            with monkeypatch.context() as m:
                m.setattr(solvers_module, "_file_terms", recording)
                _search(_stack(instances), _bools([start] * len(instances)))
            return next(sums for sums in seen if sums is not None)

        many = group_sums(batch)
        assert many[0].shape == (6, i)
        for j, inst in enumerate(batch):
            alone = group_sums([inst])
            assert np.array_equal(alone[0][0], many[0][j]) and np.array_equal(alone[1][0], many[1][j])
            _, rate_mbs, rate, local_cost = _area_rates(inst)
            rate_out, local = _cached_split(rate_mbs, rate, local_cost, start.placement.astype(bool))
            drops, costs = 0.0, 0.0
            for row in range(n):
                drops, costs = drops + float(rate[row, 0]), costs + float(local_cost[row, 0])
            # file 0 itself is cached at every member, which drops nothing for it
            assert alone[0][0].tolist() == [0.0 + rate_out[0]] + [drops + rate_out[0]] * (i - 1)
            assert alone[1][0].tolist() == [local[0] - 0.0] + [local[0] - costs] * (i - 1)

    def test_batch_matches_reference_through_grouped_drops_and_stops(self):
        # One batch, one chunk, from greedy and from random starts.  Some move
        # is a completion whose drops free one file at a single SCBS and
        # another at two or more (the groups of one are scored from the drop
        # scores, the others through their own terms), and the members stop
        # at different steps, so the finished ones are compacted away while
        # the others search on.
        rng = np.random.default_rng(5)
        instances = [generate_scenario(ScenarioConfig(num_scbs=6, num_files=12, cache_size=4,
                                                      zipf_shape=0.6, seed=s)) for s in range(8)]
        runs = [(inst, start) for inst in instances
                for start in (greedy_macp(inst).policy, random_policy(rng, inst))]
        paths = [list(reference_search_placements(inst, start)) for inst, start in runs]
        mixed = 0
        for path in paths:
            for before, after in zip(path, path[1:]):
                counts = (before & ~after).sum(axis=0)
                mixed += (counts == 1).any() and (counts >= 2).any()
        assert mixed > 0
        assert len({len(path) for path in paths}) > 1
        instances, starts = zip(*runs)
        for inst, x, path in zip(instances, _search(_stack(instances), _bools(starts))[0], paths):
            assert np.array_equal(x, path[-1]), inst

    def test_refused_move_keeps_the_start(self):
        # One SCBS with one slot and two files of equal rates, file 0 cached:
        # swapping it for file 1 scores a last bit below 0, as file 1's rate
        # outside once cached is scored as (rate_mbs + rate) - rate, but the
        # exact total is the same sum of the same two terms, so the move is
        # refused.
        # Alone, and first in a batch whose other member moves once and
        # searches on after the refused one has left the chunk.
        fields = dict(num_scbs=1, num_files=2, cache_size=[1], cost_backhaul=0.5,
                      cost_mbs_tx=1.0, cost_scbs_tx=[0.5], deadline=0.3)
        refused = Instance(demand=[[0.1, 0.1], [1.0, 1.0]], **fields)
        mover = Instance(demand=[[0.1, 0.1], [0.2, 2.0]], **fields)
        start = CachingPolicy([[1, 0]])
        # the drop of file 0 plus the add of file 1, as the search scores them
        c_mbs, rate_mbs, rate, local_cost = _area_rates(refused)
        cached_out, r, cost = rate_mbs[0] + 0.0, rate[0, 0], local_cost[0, 0]
        drop = _file_terms(c_mbs, cached_out + r, 0.0) - _file_terms(c_mbs, cached_out, cost)
        add = _file_terms(c_mbs, (cached_out + r) - r, cost) - _file_terms(c_mbs, cached_out + r, 0.0)
        assert drop + add < 0.0
        total = cost_closed_form(refused, start).total
        assert cost_closed_form(refused, CachingPolicy([[0, 1]])).total == total
        for batch in ([refused], [refused, mover]):
            placed, objective = _search(_stack(batch), _bools([start] * len(batch)))
            assert np.array_equal(placed[0], start.placement)
            assert objective[0].hex() == total.hex()
            for inst, x, got in zip(batch, placed, objective.tolist()):
                assert np.array_equal(x, reference_local_search(inst, start).placement)
                assert got.hex() == cost_closed_form(inst, CachingPolicy(x)).total.hex()
        assert placed[1].tolist() == [[False, True]]

    def test_chunk_objectives_are_closed_form_totals(self):
        # ``_search_chunk`` returns each instance's placement and objective at
        # the step where it stops: from greedy, random and empty starts at
        # caches of 0 to 5, members of one chunk stop after 0 to 5 moves.
        # Every objective is the closed form's total bit for bit.
        rng = np.random.default_rng(11)
        runs = [(inst, start) for inst in (
            generate_scenario(ScenarioConfig(num_scbs=5, num_files=10, cache_size=s,
                                             zipf_shape=0.3 * s, seed=s)) for s in range(6))
                for start in (greedy_macp(inst).policy, random_policy(rng, inst), empty_policy(5, 10))]
        starts = [start for _, start in runs]
        assert {len(list(reference_search_placements(*run))) for run in runs} == set(range(1, 7))
        placed, objective = _search_chunk(_stack([inst for inst, _ in runs]), _bools(starts))
        assert placed.dtype == bool and placed.shape == (len(runs), 5, 10)
        assert objective.shape == (len(runs),)
        for (inst, start), x, got in zip(runs, placed, objective.tolist()):
            assert np.array_equal(x, local_search(inst, start).placement)
            assert got.hex() == cost_closed_form(inst, CachingPolicy(x)).total.hex()

    def test_peak_memory_near_the_greedy_batch(self):
        # The search keeps its (B, N, I) scores between steps and runs a whole
        # sweep axis as one chunk.  Traced peaks on the 45 cache-size
        # instances of seed 7, in (B, N, I) float64 arrays of 0.504 MB: 6.5
        # for the search (5.3 when it re-scored every column in chunks of 16,
        # 8.7 before its temporaries were trimmed), 4.9 for the greedy when
        # each member had its own lockstep row, 2.1 once the members followed
        # one row per replication and 4.4 since it reads every member's
        # objective inputs from one stack (traced with the stack it builds,
        # as are the search's), and 6.84 for the whole comparison of schemes,
        # whose stack feeds the greedy and the search.  The
        # search may hold about one more array at its peak than now, 1.5
        # times the greedy's old peak, the greedy no more than when each
        # member had its own row, and the comparison 5% more than 6.84.
        config = ScenarioConfig(seed=7)
        seeds = _replication_seeds(config.seed, 5)
        batch = [generate_scenario(dataclasses.replace(config, cache_size=size, seed=seed))
                 for seed in seeds for size in range(10, 100, 10)]
        array = len(batch) * batch[0].num_scbs * batch[0].num_files * 8
        tracemalloc.start()
        try:
            starts = _greedy_runs(_stack(batch))[0]
            greedy_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _search(_stack(batch), starts)
            search_peak = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _comparisons(batch)
            comparison_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert greedy_peak <= 4.9 * array, greedy_peak / array
        assert search_peak <= 7.35 * array, search_peak / array
        assert comparison_peak <= 7.18 * array, comparison_peak / array

    def test_rejects_an_infeasible_start(self):
        # a start that overfills a cache or has another shape; mixed shapes
        # in one stack are ``TestGreedyBatch.test_rejects_mixed_shapes``
        inst = motivating_instance()
        for start, message in (([[1, 1, 0], [0, 0, 0]], "SCBS 1 holds 2 files"),
                               ([[1, 0], [0, 1]], "does not match instance")):
            with pytest.raises(ValueError, match=message):
                local_search(inst, CachingPolicy(start))


def _exhaustive_cases(seed: int, count: int) -> list[Instance]:
    """Random tiny instances plus the edge cases of the block scan.

    Caches are capped at 2 and may be 0; a few instances have every cache
    at 0, a few duplicate a file (exact ties between mirror placements),
    two have no demand at all (every placement ties), and a few have one
    file and nine SCBSs, where numpy's ``sum`` would add the rates pairwise.
    """
    rng = np.random.default_rng(seed)
    cases = [
        _capped(random_instance(rng, max_scbs=3, max_files=4, heavy_scbs_costs=k % 2 == 1), 2)
        for k in range(count)
    ]
    mirrored = [inst for inst in cases if inst.num_files > 1][:8]
    for k, inst in enumerate(cases[:4] + mirrored):
        sizes = np.zeros(inst.num_scbs, dtype=int) if k < 4 else inst.cache_size
        demand = inst.demand.copy()
        if k >= 4:
            demand[:, -1] = demand[:, 0]
        cases.append(Instance(inst.num_scbs, inst.num_files, sizes, inst.cost_backhaul,
                              inst.cost_mbs_tx, inst.cost_scbs_tx, demand, inst.deadline))
    cases.append(Instance(2, 3, [1, 2], 1, 1, [0.5, 0.5], np.zeros((3, 3)), 1.0))
    cases.append(Instance(3, 2, [1, 1, 2], 0.5, 1, [0, 0.2, 0.4], np.zeros((4, 2)), 2.0))
    for _ in range(4):
        demand = rng.uniform(0.0, 2.0, size=(10, 1)) * 10.0 ** rng.integers(-6, 1, size=(10, 1))
        cases.append(Instance(9, 1, rng.integers(0, 2, size=9), 0.4, 0.8,
                              rng.uniform(0.0, 0.8, size=9), demand, 1.3))
    return cases


class TestExhaustiveBlocks:
    def test_exact_matches_scalar_reference(self):
        cases = _exhaustive_cases(71, 200)
        ties = 0
        for inst in cases:
            report = exact_optimal(inst)
            placement, evaluations, best_cost = reference_exact_optimal(inst)
            assert np.array_equal(report.policy.placement, placement), inst
            assert report.evaluations == evaluations
            c_mbs, rate_mbs, rate, local_cost = _area_rates(inst)
            split = _cached_split(rate_mbs, rate, local_cost, report.policy.placement.astype(bool))
            assert float(_file_terms(c_mbs, *split).sum()) == best_cost
            demand = inst.demand
            ties += demand.shape[1] > 1 and np.array_equal(demand[:, 0], demand[:, -1])
        assert ties >= 8

    def test_every_policy_scored_as_the_scalar_split(self, monkeypatch):
        # the per-policy inputs of _file_terms equal _cached_split's for the
        # same placement bit for bit, also with one file among nine SCBSs
        seen = []

        def recording(c_mbs, rate_out, local, *rest):
            seen.append((rate_out, local))
            return _file_terms(c_mbs, rate_out, local, *rest)

        monkeypatch.setattr(solvers_module, "_file_terms", recording)
        monkeypatch.setattr(solvers_module, "_BLOCK", 100)
        for inst in _exhaustive_cases(83, 40)[-24:]:
            seen.clear()
            exact_optimal(inst)
            rate_out = np.concatenate([r for r, _ in seen])
            local = np.concatenate([c for _, c in seen])
            c_mbs, rate_mbs, rate, local_cost = _area_rates(inst)
            placements = reference_feasible_placements(inst.num_files, inst.cache_size)
            for k, rows in enumerate(placements):
                want = _cached_split(rate_mbs, rate, local_cost, np.array(rows, dtype=bool))
                assert np.array_equal(rate_out[k], want[0]), (inst, k)
                assert np.array_equal(local[k], want[1]), (inst, k)

    def test_tuple_view_matches_reference_enumerator(self):
        for num_files, sizes in [(1, [0]), (3, [1, 2]), (4, [0, 4, 2]), (5, [3])]:
            assert list(iter_feasible_placements(num_files, sizes)) == list(
                reference_feasible_placements(num_files, sizes)
            )

    def test_block_boundary_does_not_change_result(self, monkeypatch):
        # exact ties (no demand, mirrored files) must still go to the first
        # placement when they fall in different blocks
        instances = [
            inst for inst in _exhaustive_cases(73, 30)
            if count_feasible_placements(inst.num_files, inst.cache_size) <= 600
        ]
        rng = np.random.default_rng(79)
        decisions = [random_decision(rng, max_files=3) for _ in range(30)]
        decisions += [spp_to_macdp(random_spp(rng, 3, 4)) for _ in range(30)]
        default = solvers_module._BLOCK
        runs = []
        for block in (default, 1, 7):
            monkeypatch.setattr(solvers_module, "_BLOCK", block)
            exact = [exact_optimal(inst) for inst in instances]
            decided = [macdp_decide(dec) for dec in decisions]
            runs.append((
                [(r.policy.placement.tolist(), r.evaluations) for r in exact],
                [(a, None if w is None else w.placement.tolist()) for a, w in decided],
            ))
        assert runs[1] == runs[0], "block 1 differs from the default"
        assert runs[2] == runs[0], "block 7 differs from the default"

    def test_row_options_match_sorted_tuples(self):
        for num_files in range(1, 9):
            for size in range(num_files + 1):
                table = solvers_module._row_options(num_files, size)
                rows = sorted(tuple(f in combo for f in range(num_files))
                              for k in range(size + 1)
                              for combo in itertools.combinations(range(num_files), k))
                want = np.array(rows, dtype=bool)
                assert table.dtype == want.dtype and table.shape == want.shape
                assert table.tobytes() == want.tobytes(), (num_files, size)
                assert not table.flags.writeable

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("block", [1, 3, 5, 50, 200])
    def test_blocks_are_bounded_slabs_in_order(self, monkeypatch, block, width):
        monkeypatch.setattr(solvers_module, "_BLOCK", block)
        rng = np.random.default_rng(block * 10 + width)
        radices = [[7] * 4, [1], [3, 1, 4], [2, 7, 3, 5]]
        radices += [list(rng.integers(1, 9, size=rng.integers(1, 5))) for _ in range(6)]
        for radix in radices:
            tables = [np.zeros((r, 1), dtype=bool) for r in radix]
            seen = []
            for shape, rows in solvers_module._placement_blocks(tables, width):
                assert np.prod(shape) <= max(1, block // width), (radix, shape)
                for n, r in enumerate(rows):
                    assert r.shape == tuple(s if m == n else 1 for m, s in enumerate(shape))
                seen += zip(*(r.ravel() for r in np.broadcast_arrays(*rows)))
            assert seen == list(np.ndindex(*radix)), radix

    @pytest.mark.parametrize("block", [3, 5, 50])
    def test_mid_run_blocks_match_scalar_references(self, monkeypatch, block):
        instances = [inst for inst in _exhaustive_cases(89, 40)
                     if count_feasible_placements(inst.num_files, inst.cache_size) <= 2000]
        rng = np.random.default_rng(97)
        decisions = [random_decision(rng) for _ in range(40)]
        decisions += [spp_to_macdp(random_spp(rng, 4, 5)) for _ in range(20)]
        monkeypatch.setattr(solvers_module, "_BLOCK", block)
        for inst in instances:
            report = exact_optimal(inst)
            placement, evaluations, _ = reference_exact_optimal(inst)
            assert np.array_equal(report.policy.placement, placement), inst
            assert report.evaluations == evaluations
        for dec in decisions:
            answer, witness = macdp_decide(dec)
            expect, placement = reference_macdp_decide(dec)
            assert answer == expect, dec
            assert (witness is None) == (placement is None)
            assert witness is None or np.array_equal(witness.placement, placement), dec

    # a NO answer scans all 7^6 placements: 9604 blocks at block 20, too slow here
    @pytest.mark.parametrize("block, targets", [(20, (3,)), (100, (3, 4)), (300, (3, 4))])
    def test_six_cycle_reductions_split_mid_run(self, monkeypatch, block, targets):
        edges = tuple(frozenset({j, (j + 1) % 6}) for j in (1, 3, 5, 4, 2, 0))
        decisions = [spp_to_macdp(SppInstance(frozenset(range(6)), edges, target))
                     for target in targets]
        want = [reference_macdp_decide(dec) for dec in decisions]
        assert [a for a, _ in want] == [target <= 3 for target in targets]
        monkeypatch.setattr(solvers_module, "_BLOCK", block)
        # some block ends inside an SCBS's 7 options
        blocks = solvers_module._placement_blocks(_placement_tables(6, [1] * 6), 1)
        assert any(set(shape) - {1, 7} for shape, _ in blocks)
        for dec, (expect, placement) in zip(decisions, want):
            answer, witness = macdp_decide(dec)
            assert answer == expect
            assert (witness is None) == (placement is None)
            assert witness is None or np.array_equal(witness.placement, placement)

    @pytest.mark.parametrize("block", [1, 5, 24, 100])
    def test_file_terms_arrays_stay_within_the_block(self, monkeypatch, block):
        seen = []

        def recording(c_mbs, rate_out, local, *rest):
            seen.extend((rate_out, local))
            return _file_terms(c_mbs, rate_out, local, *rest)

        monkeypatch.setattr(solvers_module, "_file_terms", recording)
        monkeypatch.setattr(solvers_module, "_BLOCK", block)
        for inst in _exhaustive_cases(101, 30):
            seen.clear()
            placement, _, _ = reference_exact_optimal(inst)
            assert np.array_equal(exact_optimal(inst).policy.placement, placement)
            assert seen and max(a.size for a in seen) <= max(block, inst.num_files), inst
