import numpy as np
import pytest

from macp import (
    CachingPolicy,
    CapacityError,
    Instance,
    ScenarioConfig,
    cost_closed_form,
    exact_optimal,
    generate_scenario,
    greedy_macp,
    local_search,
    marginal_cost,
    popularity_placement,
)
from macp.solvers import count_feasible_placements
from helpers import (
    motivating_instance,
    motivating_optimal_policy,
    random_instance,
    random_policy,
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


def _saturated(rng: np.random.Generator, inst: Instance) -> Instance:
    """The instance with about a third of its rates raised to lambda * d = 1e3."""
    demand = np.array(inst.demand)
    demand[rng.random(demand.shape) < 0.35] = 1e3 / inst.deadline
    return Instance(inst.num_scbs, inst.num_files, inst.cache_size, inst.cost_backhaul,
                    inst.cost_mbs_tx, inst.cost_scbs_tx, demand, inst.deadline)


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
