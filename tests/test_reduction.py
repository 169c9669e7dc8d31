import itertools

import numpy as np
import pytest

from macp import (
    CachingPolicy,
    CapacityError,
    DecisionInstance,
    SppInstance,
    decision_cost,
    macdp_decide,
    packing_from_policy,
    policy_from_packing,
    spp_decide,
    spp_to_macdp,
)

from macp.solvers import count_feasible_placements
from helpers import random_decision, random_spp, reference_macdp_decide

FIG_SPP = SppInstance(
    elements=frozenset({1, 2, 3}),
    subsets=(frozenset({1}), frozenset({1, 2}), frozenset({2, 3})),
    target=2,
)


class TestSppInstance:
    def test_rejects_foreign_elements(self):
        with pytest.raises(ValueError):
            SppInstance(frozenset({1}), (frozenset({2}),), 1)

    def test_rejects_target_beyond_list(self):
        with pytest.raises(ValueError):
            SppInstance(frozenset({1}), (frozenset({1}),), 2)

    def test_json_round_trip(self):
        back = SppInstance.from_json(FIG_SPP.to_json())
        assert back == FIG_SPP


class TestConstruction:
    def test_reduced_instance_shape(self):
        dec = spp_to_macdp(FIG_SPP)
        assert dec.num_scbs == 3
        assert dec.num_files == 3
        assert dec.cache_size.tolist() == [1, 1, 1]
        assert dec.cost_backhaul == 0.0
        assert dec.cost_mbs_tx == 1.0
        assert dec.cost_scbs_tx.tolist() == [0.0, 0.0, 0.0]
        assert dec.threshold == pytest.approx(1.0 - 2.0 / 3.0)

    def test_probability_table_is_one_subset_per_file(self):
        dec = spp_to_macdp(FIG_SPP)
        assert dec.probabilities == (
            ((frozenset({1}), 1 / 3),),
            ((frozenset({1, 2}), 1 / 3),),
            ((frozenset({2, 3}), 1 / 3),),
        )

    def test_zero_target_threshold_one(self):
        spp = SppInstance(frozenset({1}), (frozenset({1}),), 0)
        dec = spp_to_macdp(spp)
        assert dec.threshold == 1.0
        answer, witness = macdp_decide(dec)
        assert answer is True
        assert witness.placement.sum() == 0  # the empty policy already suffices

    def test_single_subset_full_target(self):
        spp = SppInstance(frozenset({1}), (frozenset({1}),), 1)
        dec = spp_to_macdp(spp)
        assert dec.threshold == 0.0
        answer, witness = macdp_decide(dec)
        assert answer is True
        assert witness.placement.tolist() == [[1]]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            spp_to_macdp(SppInstance(frozenset({1}), (), 0))

    def test_json_round_trip(self):
        dec = spp_to_macdp(FIG_SPP)
        back = type(dec).from_json(dec.to_json())
        assert back.probabilities == dec.probabilities
        assert back.threshold == dec.threshold


class TestDecisionValidation:
    def test_rejects_nan_costs_and_threshold(self):
        data = spp_to_macdp(FIG_SPP).to_dict()
        for key, value in [("cost_backhaul", float("nan")), ("cost_mbs_tx", float("nan")),
                           ("cost_scbs_tx", [0.0, float("nan"), 0.0]),
                           ("threshold", float("nan"))]:
            with pytest.raises(ValueError):
                DecisionInstance.from_dict({**data, key: value})

    @pytest.mark.parametrize("file", [-1, 3])
    def test_rejects_table_file_out_of_range(self, file):
        data = spp_to_macdp(FIG_SPP).to_dict()
        data["prob_table"][0]["file"] = file
        with pytest.raises(ValueError, match=f"prob_table file {file} outside 0..2"):
            DecisionInstance.from_dict(data)


class TestDecisionCost:
    def test_worst_case_cost_is_one(self):
        dec = spp_to_macdp(FIG_SPP)
        empty = CachingPolicy.empty(3, 3)
        assert decision_cost(dec, empty) == pytest.approx(1.0)

    def test_quantized_costs(self):
        # every achievable value is 1 - m/|subsets| for an integer m
        rng = np.random.default_rng(53)
        for _ in range(30):
            spp = random_spp(rng, max_elements=4, max_subsets=4)
            dec = spp_to_macdp(spp)
            count = len(spp.subsets)
            from macp.solvers import iter_feasible_placements

            for rows in iter_feasible_placements(dec.num_files, dec.cache_size):
                x = np.array(rows, dtype=np.int8).reshape(dec.num_scbs, dec.num_files)
                cost = decision_cost(dec, CachingPolicy(x))
                m = round((1.0 - cost) * count)
                assert cost * count == pytest.approx(count - m, abs=1e-9)

    def test_rejects_oversized_placement(self):
        dec = spp_to_macdp(FIG_SPP)
        with pytest.raises(ValueError):
            decision_cost(dec, CachingPolicy([[1, 1, 0], [0, 0, 0], [0, 0, 0]]))

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3, 4)])
    def test_rejects_wrong_shape_placement(self, shape):
        dec = spp_to_macdp(FIG_SPP)
        with pytest.raises(ValueError, match="does not match"):
            decision_cost(dec, CachingPolicy.empty(*shape))


class TestFigureExample:
    def test_expected_witness(self):
        dec = spp_to_macdp(FIG_SPP)
        answer, witness = macdp_decide(dec)
        assert answer is True
        # file 1 cached at SCBS 1, file 3 at SCBSs 2 and 3
        assert witness.placement.tolist() == [[1, 0, 0], [0, 0, 1], [0, 0, 1]]
        assert decision_cost(dec, witness) <= dec.threshold + 1e-9

    def test_packing_side(self):
        answer, witness = spp_decide(FIG_SPP)
        assert answer is True
        assert witness == (0, 2)  # the first and third listed subsets


class TestMacdpDecide:
    def test_capacity_error_names_the_feasible_count(self):
        dec = spp_to_macdp(FIG_SPP)
        space = count_feasible_placements(dec.num_files, dec.cache_size)
        with pytest.raises(CapacityError, match=f"^{space} feasible placements exceed"):
            macdp_decide(dec, max_policies=space - 1)
        assert macdp_decide(dec, max_policies=space)[0]


    def test_matches_scalar_reference_on_general_tables(self):
        rng = np.random.default_rng(67)
        decisions = [random_decision(rng) for _ in range(300)]
        yes = 0
        for dec in decisions:
            answer, witness = macdp_decide(dec)
            expect, placement = reference_macdp_decide(dec)
            assert answer == expect, dec
            if answer:
                yes += 1
                assert np.array_equal(witness.placement, placement), dec
                assert decision_cost(dec, witness) <= dec.threshold + 1e-9
        assert 60 <= yes <= 240
        # the draws cover what the reduction never produces
        entries = [e for dec in decisions for file in dec.probabilities for e in file]
        assert sum(0 in areas for areas, pr in entries if pr > 0) >= 30
        assert sum(pr == 0.0 for areas, pr in entries) >= 10
        assert sum(sum(pr for _, pr in file) < 0.9 for dec in decisions
                   for file in dec.probabilities) >= 30
        assert sum((dec.cache_size > 1).any() for dec in decisions) >= 30
        assert all((dec.cost_scbs_tx > 0).all() for dec in decisions)


class TestSppDecide:
    def test_target_one_always_packable(self):
        spp = SppInstance(frozenset({1, 2}), (frozenset({1, 2}),), 1)
        assert spp_decide(spp) == (True, (0,))

    def test_colliding_singletons(self):
        spp = SppInstance(frozenset({1}), (frozenset({1}), frozenset({1})), 2)
        assert spp_decide(spp) == (False, None)

    def test_capacity_cap(self):
        subsets = tuple(frozenset({1}) for _ in range(21))
        spp = SppInstance(frozenset({1}), subsets, 1)
        with pytest.raises(CapacityError):
            spp_decide(spp)


class TestEquivalence:
    def test_exhaustive_tiny_universes(self):
        # every list of up to 3 subsets over up to 3 elements, every target
        for n_elem in range(1, 4):
            universe = frozenset(range(1, n_elem + 1))
            all_subsets = [
                frozenset(s)
                for k in range(n_elem + 1)
                for s in itertools.combinations(sorted(universe), k)
            ]
            for length in range(1, 4):
                for combo in itertools.product(all_subsets, repeat=length):
                    for target in range(length + 1):
                        spp = SppInstance(universe, combo, target)
                        expect, _ = spp_decide(spp)
                        got, witness = macdp_decide(spp_to_macdp(spp))
                        assert got == expect, spp
                        if got:
                            packing = packing_from_policy(spp, witness)
                            assert len(packing) >= target

    def test_random_instances(self):
        rng = np.random.default_rng(59)
        for _ in range(120):
            spp = random_spp(rng)
            expect, sel = spp_decide(spp)
            got, witness = macdp_decide(spp_to_macdp(spp))
            assert got == expect

    def test_conflicting_pair_is_refuted(self):
        spp = SppInstance(frozenset({1}), (frozenset({1}), frozenset({1})), 2)
        answer, witness = macdp_decide(spp_to_macdp(spp))
        assert answer is False and witness is None


class TestWitnessTranslation:
    def test_both_directions_on_random_instances(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            spp = random_spp(rng, max_elements=5, max_subsets=5)
            dec = spp_to_macdp(spp)
            yes, witness = macdp_decide(dec)
            if yes:
                packing = packing_from_policy(spp, witness)
                assert len(packing) >= spp.target
                union, size = set(), 0
                for j in packing:
                    union |= spp.subsets[j]
                    size += len(spp.subsets[j])
                assert len(union) == size  # pairwise disjoint
            sy, sel = spp_decide(spp)
            if sy:
                pol = policy_from_packing(spp, sel)
                assert decision_cost(dec, pol) <= dec.threshold + 1e-9
