import math

import numpy as np
import pytest

from macp import (
    CachingPolicy,
    CapacityError,
    Instance,
    cost_bruteforce,
    cost_closed_form,
    cost_unicast,
    exact_optimal,
)
from macp.cost import _area_rates, _cached_split
from helpers import (
    empty_policy,
    marginal_cost,
    motivating_instance,
    motivating_optimal_policy,
    motivating_popular_policy,
    random_instance,
    random_policy,
)

GOLDEN_TOL = 5e-4  # printed 4-decimal values carry last-digit rounding slack


class TestGoldenWalkthrough:
    def test_optimal_policy_cost(self):
        inst = motivating_instance()
        pol = motivating_optimal_policy()
        assert cost_bruteforce(inst, pol).total == pytest.approx(0.6394, abs=GOLDEN_TOL)
        assert cost_closed_form(inst, pol).total == pytest.approx(0.6394, abs=GOLDEN_TOL)

    def test_popularity_policy_cost(self):
        inst = motivating_instance()
        pol = motivating_popular_policy()
        assert cost_bruteforce(inst, pol).total == pytest.approx(0.7747, abs=GOLDEN_TOL)
        assert cost_closed_form(inst, pol).total == pytest.approx(0.7747, abs=GOLDEN_TOL)


class TestBruteforce:
    def test_zero_demand_costs_nothing(self):
        inst = Instance(2, 2, [1, 1], 1, 1, [0.1, 0.1], np.zeros((3, 2)), 2.0)
        out = cost_bruteforce(inst, random_policy(np.random.default_rng(0), inst))
        assert out.total == 0.0
        assert out.per_file.tolist() == [0.0, 0.0]

    def test_refuses_large_instances(self):
        n = 17
        inst = Instance(n, 1, [1] * n, 1, 1, [0] * n, np.ones((n + 1, 1)), 1.0)
        with pytest.raises(CapacityError, match="cost_closed_form"):
            cost_bruteforce(inst, empty_policy(n, 1))

    def test_rejects_infeasible_policy(self):
        inst = motivating_instance()
        with pytest.raises(ValueError):
            cost_bruteforce(inst, CachingPolicy([[1, 1, 0], [0, 0, 0]]))

    def test_breakdown_identities(self):
        # every evaluator's total is the numpy sum of its per-file terms, exactly
        rng = np.random.default_rng(11)
        for _ in range(20):
            inst = random_instance(rng, max_scbs=5, max_files=4, heavy_scbs_costs=True)
            pol = random_policy(rng, inst)
            for evaluator in (cost_bruteforce, cost_closed_form, cost_unicast):
                out = evaluator(inst, pol)
                assert out.total == out.per_file.sum(), evaluator
                assert out.total == pytest.approx(out.mbs_component + out.scbs_component,
                                                  abs=1e-9)
                assert out.total >= 0


class TestClosedFormEquivalence:
    """The factored evaluator must match literal enumeration everywhere."""

    @pytest.mark.parametrize("heavy", [False, True])
    def test_matches_bruteforce_on_random_instances(self, heavy):
        rng = np.random.default_rng(42 if heavy else 7)
        for _ in range(100):
            inst = random_instance(rng, heavy_scbs_costs=heavy)
            pol = random_policy(rng, inst)
            bf = cost_bruteforce(inst, pol)
            cf = cost_closed_form(inst, pol)
            assert abs(bf.total - cf.total) <= 1e-9
            assert np.abs(bf.per_file - cf.per_file).max() <= 1e-9
            assert abs(bf.mbs_component - cf.mbs_component) <= 1e-9
            assert abs(bf.scbs_component - cf.scbs_component) <= 1e-9

    def test_empty_policy_closed_form(self):
        # with nothing cached, every requesting subset pays the macro cost
        rng = np.random.default_rng(5)
        inst = random_instance(rng, max_scbs=6, max_files=5)
        q = 1.0 - inst.request_probabilities()
        expected = (inst.cost_backhaul + inst.cost_mbs_tx) * (1.0 - q.prod(axis=0))
        out = cost_closed_form(inst, empty_policy(inst.num_scbs, inst.num_files))
        assert np.allclose(out.per_file, expected, atol=1e-12)
        assert out.scbs_component == 0.0

    def test_cost_scaling(self):
        rng = np.random.default_rng(21)
        inst = random_instance(rng, heavy_scbs_costs=True)
        pol = random_policy(rng, inst)
        alpha = 2.5
        scaled = Instance(
            inst.num_scbs,
            inst.num_files,
            inst.cache_size,
            alpha * inst.cost_backhaul,
            alpha * inst.cost_mbs_tx,
            alpha * inst.cost_scbs_tx,
            inst.demand,
            inst.deadline,
        )
        base = cost_closed_form(inst, pol)
        out = cost_closed_form(scaled, pol)
        assert out.total == pytest.approx(alpha * base.total, rel=1e-12)
        assert out.mbs_component == pytest.approx(alpha * base.mbs_component, rel=1e-12)
        assert out.scbs_component == pytest.approx(alpha * base.scbs_component, rel=1e-12, abs=1e-15)
        assert np.allclose(out.per_file, alpha * base.per_file, rtol=1e-12, atol=1e-15)

    def test_placements_never_raise_cost_when_scbs_costs_small(self):
        # holds whenever the summed SCBS costs stay below the macro cost
        rng = np.random.default_rng(31)
        for _ in range(60):
            inst = random_instance(rng)
            pol = random_policy(rng, inst)
            before = cost_closed_form(inst, pol).total
            free = np.argwhere(
                (pol.placement == 0)
                & (pol.placement.sum(axis=1) < inst.cache_size)[:, None]
            )
            if not len(free):
                continue
            row, file = free[rng.integers(len(free))]
            x = pol.placement.copy()
            x[row, file] = 1
            after = cost_closed_form(inst, CachingPolicy(x)).total
            assert after <= before + 1e-12


class TestMarginalCost:
    def test_agrees_with_full_reevaluation(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 50:
            inst = random_instance(rng, heavy_scbs_costs=True)
            pol = random_policy(rng, inst)
            free = np.argwhere(
                (pol.placement == 0)
                & (pol.placement.sum(axis=1) < inst.cache_size)[:, None]
            )
            if not len(free):
                continue
            row, file = free[rng.integers(len(free))]
            got = marginal_cost(inst, pol, int(row) + 1, int(file))
            x = pol.placement.copy()
            x[row, file] = 1
            want = cost_closed_form(inst, CachingPolicy(x)).total
            assert got == pytest.approx(want, abs=1e-12)
            checked += 1

    def test_base_snapshot_reused(self):
        inst = motivating_instance()
        pol = empty_policy(2, 3)
        base = cost_closed_form(inst, pol)
        direct = marginal_cost(inst, pol, 1, 1)
        with_base = marginal_cost(inst, pol, 1, 1, base=base)
        assert direct == with_base
        want = cost_closed_form(inst, CachingPolicy.from_pairs(2, 3, [(1, 1)])).total
        assert direct == pytest.approx(want, abs=1e-12)

    def test_zero_demand_file_changes_nothing(self):
        inst = motivating_instance()
        pol = empty_policy(2, 3)
        base = cost_closed_form(inst, pol)
        # the third file has no demand at the first SCBS's area or elsewhere
        # except the second SCBS; placing it where demand is zero is free
        assert marginal_cost(inst, pol, 1, 2) == pytest.approx(base.total, abs=1e-12)

    def test_rejects_filled_slot_and_full_cache(self):
        inst = motivating_instance()
        pol = motivating_optimal_policy()
        with pytest.raises(ValueError, match="already cached"):
            marginal_cost(inst, pol, 1, 1)
        with pytest.raises(ValueError, match="full"):
            marginal_cost(inst, pol, 1, 0)

    def test_rejects_bad_indices(self):
        inst = motivating_instance()
        pol = empty_policy(2, 3)
        with pytest.raises(ValueError):
            marginal_cost(inst, pol, 0, 0)
        with pytest.raises(ValueError):
            marginal_cost(inst, pol, 1, 9)


class TestRateExtremes:
    def test_low_rate_keeps_its_digits(self):
        # areas 0 and 2 request outside SCBS 1's cache, so rate_out = 2e-12
        inst = Instance(2, 1, [1, 0], 1, 1, [0, 0], [[1e-12]] * 3, 1.0)
        exact = 2.0 * -math.expm1(-2e-12)
        cached = CachingPolicy([[1], [0]])
        got = {
            "closed form": cost_closed_form(inst, cached).total,
            "brute force": cost_bruteforce(inst, cached).total,
            "marginal": marginal_cost(inst, empty_policy(2, 1), 1, 0),
            "exact": cost_closed_form(inst, exact_optimal(inst).policy).total,
        }
        for name, value in got.items():
            assert abs(value - exact) <= 1e-15 * exact, name

    @pytest.mark.parametrize("rate", [1e3, 1e6])
    @pytest.mark.parametrize("macro", [False, True])
    def test_saturated_rates_give_the_limit(self, rate, macro):
        # every area requests with probability 1: a file costs c_mbs = 2 when
        # an area outside its cached set requests it, else its local cost
        c = np.array([0.25, 0.5])
        demand = np.full((3, 3), rate)
        if not macro:
            demand[0] = 0.0
        inst = Instance(2, 3, [3, 3], 1, 1, c, demand, 1.0)

        def limit(x):
            x = np.asarray(x)
            return sum(2.0 if macro or not x[:, f].all() else float(c @ x[:, f]) for f in range(3))

        empty, partial, full = [[0, 0, 0]] * 2, [[1, 1, 0], [0, 1, 0]], [[1, 1, 1]] * 2
        for x in (empty, partial, full):
            for evaluate in (cost_closed_form, cost_bruteforce):
                breakdown = evaluate(inst, CachingPolicy(x))
                assert breakdown.total == pytest.approx(limit(x), rel=1e-15, abs=0), evaluate
        for x in (empty, partial):
            base = CachingPolicy(x)
            for row, f in zip(*np.nonzero(base.placement == 0)):
                after = base.placement.copy()
                after[row, f] = 1
                value = marginal_cost(inst, base, int(row) + 1, int(f))
                assert value == pytest.approx(limit(after), rel=1e-15, abs=0)

        small = Instance(2, 3, [1, 2], 1, 1, c, demand, 1.0)
        best = exact_optimal(small).policy
        expected = 6.0 if macro else 0.75 + 2.0 + 2.0
        assert limit(best.placement) == expected
        assert cost_closed_form(small, best).total == pytest.approx(expected, rel=1e-15, abs=0)


class TestSplitOrder:
    def test_column_subsets_match_the_full_split(self):
        # a file's sums are the same bits whatever columns come with it and
        # whatever the layout: a lone column, an F-ordered copy, reversed
        # columns; numpy's sum would add a lone column of 8+ values pairwise
        rng = np.random.default_rng(97)
        for _ in range(300):
            n, i = int(rng.integers(9, 17)), int(rng.integers(1, 7))
            demand = rng.uniform(0.0, 2.0, size=(n + 1, i)) * 10.0 ** rng.integers(-6, 1, (n + 1, i))
            inst = Instance(n, i, np.zeros(n, dtype=int), 0.4, 0.8, rng.uniform(0.0, 0.8, size=n),
                            demand, float(rng.uniform(0.2, 3.0)))
            _, rate_mbs, rate, local_cost = _area_rates(inst)
            cached = rng.random((n, i)) < 0.4
            full = _cached_split(rate_mbs, rate, local_cost, cached)
            f = int(rng.integers(i))
            some = rng.permutation(i)[: int(rng.integers(1, i + 1))]
            for cols, layout in [
                ([f], np.array),
                (some, np.array),
                (some, np.asfortranarray),
                (slice(None, None, -1), lambda a: a),
                (slice(None, None, -1), np.asfortranarray),
            ]:
                part = _cached_split(
                    rate_mbs[cols], *(layout(a[:, cols]) for a in (rate, local_cost, cached))
                )
                assert np.array_equal(part[0], full[0][cols]), (n, i, cols)
                assert np.array_equal(part[1], full[1][cols]), (n, i, cols)


    def test_batch_rows_match_each_instance_and_a_sequential_sum(self):
        # stacked on a batch axis, each instance's split is its own split
        # bit for bit, and each file's sums are a plain left-to-right sum
        rng = np.random.default_rng(101)
        for _ in range(60):
            n, i, b = int(rng.integers(1, 15)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
            rate_mbs = rng.uniform(0.0, 2.0, size=(b, i))
            rate, local_cost = (rng.uniform(0.0, 2.0, size=(b, n, i))
                                * 10.0 ** rng.integers(-6, 1, (b, n, i)) for _ in range(2))
            cached = rng.random((b, n, i)) < 0.4
            batch = _cached_split(rate_mbs, rate, local_cost, cached)
            for k in range(b):
                alone = _cached_split(rate_mbs[k], rate[k], local_cost[k], cached[k])
                assert np.array_equal(batch[0][k], alone[0])
                assert np.array_equal(batch[1][k], alone[1])
                for f in range(i):
                    outside = local = 0.0
                    for row in range(n):
                        if cached[k, row, f]:
                            local += local_cost[k, row, f]
                        else:
                            outside += rate[k, row, f]
                    assert batch[0][k, f] == rate_mbs[k, f] + outside
                    assert batch[1][k, f] == local


class TestUnicast:
    def test_overflowing_total_is_refused(self):
        # each cost and rate is finite, and so is the multicast objective
        inst = Instance(1, 1, [1], 1e200, 1e200, [1e200], [[1e200], [1e200]], 1.0)
        assert np.isfinite(cost_closed_form(inst, CachingPolicy([[1]])).total)
        with pytest.raises(ValueError, match="expected unicast cost is not finite"):
            cost_unicast(inst, CachingPolicy([[1]]))

    def test_zero_demand(self):
        inst = Instance(1, 1, [1], 1, 1, [0], np.zeros((2, 1)), 5.0)
        assert cost_unicast(inst, empty_policy(1, 1)).total == 0.0

    def test_cached_requests_at_free_scbs_cost_nothing(self):
        inst = Instance(1, 1, [1], 1, 1, [0.0], [[0.0], [2.0]], 10.0)
        assert cost_unicast(inst, CachingPolicy([[1]])).total == 0.0

    def test_uncached_requests_pay_macro_rate(self):
        # 2 req/s for 10 s at backhaul+macro cost 2 each
        inst = Instance(1, 1, [1], 1.0, 1.0, [0.0], [[0.0], [2.0]], 10.0)
        out = cost_unicast(inst, CachingPolicy([[0]]))
        assert out.total == pytest.approx(40.0, abs=1e-12)
        assert out.mbs_component == pytest.approx(40.0, abs=1e-12)

    def test_macro_area_demand_always_pays(self):
        inst = Instance(1, 1, [1], 0.5, 0.5, [0.0], [[1.0], [0.0]], 2.0)
        out = cost_unicast(inst, CachingPolicy([[1]]))
        assert out.total == pytest.approx(2.0, abs=1e-12)

    def test_dominates_multicast_when_scbs_free(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            inst = random_instance(rng)
            free = Instance(
                inst.num_scbs,
                inst.num_files,
                inst.cache_size,
                inst.cost_backhaul,
                inst.cost_mbs_tx,
                np.zeros(inst.num_scbs),
                inst.demand,
                inst.deadline,
            )
            pol = random_policy(rng, free)
            assert cost_unicast(free, pol).total >= cost_closed_form(free, pol).total - 1e-9
