import itertools
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from macp import (
    CachingPolicy,
    Instance,
    ScenarioConfig,
    SppInstance,
    mbs_triggered,
    request_probability,
    subset_probability,
    spp_to_macdp,
)
from macp.cost import CostBreakdown
from macp.model import numeric_array
from macp.reduction import DecisionInstance
from macp.sim import SimReport
from helpers import cached_areas, motivating_instance, random_instance


class TestRequestProbability:
    def test_walkthrough_values(self):
        assert round(request_probability(0.51, 1), 4) == 0.3995
        assert round(request_probability(0.49, 1), 4) == 0.3874

    def test_zero_rate(self):
        assert request_probability(0.0, 10.0) == 0.0

    def test_range(self):
        for rate, d in [(1e-9, 1), (5, 0.1), (0.3, 1e-6)]:
            p = request_probability(rate, d)
            assert 0.0 <= p < 1.0
        # extreme products saturate at the representable 1.0
        assert request_probability(100, 10) == 1.0

    def test_monotone_in_rate_and_deadline(self):
        rates = np.linspace(0, 4, 30)
        probs = [request_probability(r, 1.5) for r in rates]
        assert all(a <= b for a, b in zip(probs, probs[1:]))
        deadlines = np.linspace(0.1, 5, 30)
        probs = [request_probability(0.7, d) for d in deadlines]
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    @pytest.mark.parametrize("rate,deadline", [(-0.1, 1), (1, 0), (1, -2), (math.inf, 1), (1, math.nan)])
    def test_invalid_arguments(self, rate, deadline):
        with pytest.raises(ValueError):
            request_probability(rate, deadline)


class TestInstance:
    def test_clamps_cache_to_catalog(self):
        inst = Instance(1, 2, [5], 1, 1, [0], [[0, 0], [1, 1]], 1)
        assert inst.cache_size.tolist() == [2]

    def test_rejects_scbs_cost_above_mbs(self):
        with pytest.raises(ValueError):
            Instance(1, 1, [1], 1, 0.5, [0.6], [[0], [1]], 1)

    def test_rejects_no_scbs(self):
        with pytest.raises(ValueError, match="^num_scbs must be at least 1, got 0$"):
            Instance(0, 1, [], 1, 1, [], [[0]], 1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Instance(2, 2, [1], 1, 1, [0, 0], [[0, 0]] * 3, 1)
        with pytest.raises(ValueError):
            Instance(2, 2, [1, 1], 1, 1, [0, 0], [[0, 0]] * 2, 1)

    def test_rejects_negative_demand_and_zero_deadline(self):
        with pytest.raises(ValueError):
            Instance(1, 1, [1], 1, 1, [0], [[0], [-1]], 1)
        with pytest.raises(ValueError):
            Instance(1, 1, [1], 1, 1, [0], [[0], [1]], 0)

    def test_rejects_an_objective_bound_that_overflows(self):
        # bounds just below the float range pass
        Instance(1, 1, [1], 0.0, 2.0**1023, [2.0**1022], [[0], [1]], 1)
        Instance(1, 1, [1], 1, 1, [0], [[2.0**1023], [2.0**1022]], 1)
        with pytest.raises(ValueError, match="cost_scbs_tx\\) is not finite"):
            Instance(1, 2, [1], 0.0, 2.0**1023, [2.0**1022], [[0, 0], [1, 1]], 1)
        with pytest.raises(ValueError, match="file 1: demand"):
            Instance(1, 2, [1], 1, 1, [0], [[0, 2.0**1023], [1, 2.0**1023]], 1)
        with pytest.raises(ValueError, match="file 0: demand"):
            Instance(1, 1, [1], 1, 1, [0], [[2.0**1023], [2.0**1022]], 2)

    def test_rejects_numpy_integers_beyond_the_range(self):
        # a numpy scalar item is checked as the number it holds, not wrapped by the cast
        message = "^cache_size value 9223372036854775808 is outside the 64-bit integer range$"
        with pytest.raises(ValueError, match=message):
            numeric_array("cache_size", [np.uint64(2**63)], np.int64)
        with pytest.raises(ValueError, match=message):
            Instance(2, 1, [np.uint64(2**63), 1], 1, 1, [0, 0], [[0], [1], [1]], 1)
        got = numeric_array("cache_size", [np.uint64(2**63 - 1), np.uint64(3)], np.int64)
        assert got.tolist() == [2**63 - 1, 3]

    def test_immutable_arrays(self):
        inst = motivating_instance()
        with pytest.raises(ValueError):
            inst.demand[0, 0] = 5.0

    def test_json_round_trip_field_names(self):
        inst = motivating_instance()
        data = inst.to_dict()
        assert set(data) == {
            "num_scbs",
            "num_files",
            "cache_size",
            "cost_backhaul",
            "cost_mbs_tx",
            "cost_scbs_tx",
            "demand",
            "deadline",
        }
        assert data["demand"][0] == [0.0, 0.0, 0.0]  # row 0 is the macro-only area
        back = Instance.from_json(inst.to_json())
        assert back.num_scbs == inst.num_scbs
        assert np.array_equal(back.demand, inst.demand)
        assert np.array_equal(back.cache_size, inst.cache_size)

    def test_request_probabilities_match_scalar_op(self):
        inst = motivating_instance()
        p = inst.request_probabilities()
        for a in range(3):
            for i in range(3):
                assert p[a, i] == pytest.approx(
                    request_probability(inst.demand[a, i], inst.deadline), abs=1e-15
                )


SPP = SppInstance(frozenset({1, 2, 3}), (frozenset({1}), frozenset({1, 2}), frozenset({2, 3})), 2)


@pytest.mark.parametrize(
    "record",
    [
        random_instance(np.random.default_rng(11)),
        SPP,
        spp_to_macdp(SPP),
        ScenarioConfig(num_scbs=3, deadline=2.5, zipf_shape=1.1, seed=7),
    ],
    ids=lambda record: type(record).__name__,
)
def test_json_round_trip_is_byte_identical(record):
    text = record.to_json()
    assert type(record).from_json(text).to_json() == text


@pytest.mark.parametrize(
    "cls", [Instance, CostBreakdown, SimReport, ScenarioConfig, SppInstance, DecisionInstance]
)
def test_record_methods_are_in_each_class_namespace(cls):
    # bench/spans.py wraps these methods per class through vars(cls)
    for name in ("to_dict", "from_dict", "to_json", "from_json"):
        assert name in vars(cls)


class TestCachingPolicy:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            CachingPolicy([[0, 2]])

    @pytest.mark.parametrize("entries", [[[0.5, 1.7]], [[1.9, 0]], [[1.0, float("nan")]]])
    def test_rejects_fractional_entries(self, entries):
        with pytest.raises(ValueError):
            CachingPolicy(entries)

    @pytest.mark.parametrize("entries, ndim", [([1, 0], 1), ([[[1]]], 3)])
    def test_rejects_a_placement_that_is_not_a_matrix(self, entries, ndim):
        with pytest.raises(ValueError, match=f"^placement must be a 2-D matrix, got ndim={ndim}$"):
            CachingPolicy(entries)

    def test_accepts_integral_floats_and_bools(self):
        assert CachingPolicy([[1.0, 0.0]]).placement.tolist() == [[1, 0]]
        assert CachingPolicy(np.array([[True, False]])).placement.tolist() == [[1, 0]]

    def test_simulate_command_rejects_fractional_policy_json(self, tmp_path):
        inst = tmp_path / "instance.json"
        pol = tmp_path / "policy.json"
        inst.write_text(Instance(1, 2, [1], 1.0, 1.0, [0.5], [[0.0, 0.0], [1.0, 1.0]], 1.0).to_json())
        pol.write_text("[[1.9, 0]]")
        proc = subprocess.run(
            [sys.executable, "-m", "macp.cli", "simulate", str(inst), str(pol),
             "--periods", "10", "--seed", "1", "--out", str(tmp_path / "report.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "placement entries must be 0 or 1" in proc.stderr
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("pair, message", [
        ((0, 1), "scbs id 0 outside 1..2"),
        ((3, 1), "scbs id 3 outside 1..2"),
        ((1, -1), "file index -1 outside 0..2"),
        ((1, 3), "file index 3 outside 0..2"),
    ])
    def test_from_pairs_rejects_bad_indices(self, pair, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CachingPolicy.from_pairs(2, 3, [pair])

    def test_feasibility_check(self):
        inst = motivating_instance()
        CachingPolicy([[1, 0, 0], [0, 0, 1]]).check_feasible(inst)
        with pytest.raises(ValueError):
            CachingPolicy([[1, 1, 0], [0, 0, 0]]).check_feasible(inst)

    def test_json_is_bare_matrix(self):
        pol = CachingPolicy([[1, 0], [0, 1]])
        assert pol.to_json() == "[[1, 0], [0, 1]]"
        assert np.array_equal(CachingPolicy.from_json(pol.to_json()).placement, pol.placement)

    def test_cached_areas(self):
        pol = CachingPolicy([[1, 0], [1, 1]])
        assert cached_areas(pol, 0) == {1, 2}
        assert cached_areas(pol, 1) == {2}


class TestSubsetProbability:
    def test_zero_rates_make_empty_subset_certain(self):
        inst = Instance(2, 2, [1, 1], 1, 1, [0, 0], np.zeros((3, 2)), 1.0)
        assert subset_probability(inst, frozenset(), 0) == 1.0

    def test_walkthrough_pair(self):
        inst = motivating_instance()
        p = request_probability(0.51, 1.0)
        assert subset_probability(inst, {1, 2}, 0) == pytest.approx(p * p, abs=1e-12)

    def test_file_out_of_range(self):
        with pytest.raises(ValueError):
            subset_probability(motivating_instance(), {1}, 3)

    def test_bad_area_id(self):
        with pytest.raises(ValueError):
            subset_probability(motivating_instance(), {4}, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_distribution_normalizes(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, max_scbs=6, max_files=3)
        areas = range(inst.num_scbs + 1)
        for i in range(inst.num_files):
            total = 0.0
            for k in range(inst.num_scbs + 2):
                for subset in itertools.combinations(areas, k):
                    total += subset_probability(inst, subset, i)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_normalization_at_twelve_scbs(self):
        rng = np.random.default_rng(99)
        inst = Instance(
            12, 1, [1] * 12, 1, 1, [0] * 12, rng.uniform(0, 2, (13, 1)), 0.7
        )
        total = sum(
            subset_probability(inst, [a for a in range(13) if (mask >> a) & 1], 0)
            for mask in range(1 << 13)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestMbsTriggered:
    def setup_method(self):
        self.policy = CachingPolicy([[1, 0], [0, 0]])

    def test_macro_area_always_triggers(self):
        assert mbs_triggered(self.policy, {0}, 0) is True
        assert mbs_triggered(self.policy, {0, 1}, 0) is True

    def test_fully_cached_subset_does_not_trigger(self):
        assert mbs_triggered(self.policy, {1}, 0) is False

    def test_partially_cached_subset_triggers(self):
        assert mbs_triggered(self.policy, {1, 2}, 0) is True

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            mbs_triggered(self.policy, frozenset(), 0)

    @pytest.mark.parametrize("file", [-1, 2])
    def test_file_out_of_range(self, file):
        with pytest.raises(ValueError, match=f"^file index {file} outside 0..1$"):
            mbs_triggered(self.policy, {1}, file)

    def test_monotone_in_policy(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, i = 4, 3
            x = rng.integers(0, 2, size=(n, i)).astype(np.int8)
            full = CachingPolicy(x)
            ones = np.argwhere(x == 1)
            if not len(ones):
                continue
            r, f = ones[rng.integers(len(ones))]
            smaller = x.copy()
            smaller[r, f] = 0
            reduced = CachingPolicy(smaller)
            k = int(rng.integers(1, n + 2))
            subset = frozenset(rng.choice(n + 1, size=min(k, n + 1), replace=False).tolist())
            file = int(rng.integers(i))
            # removing a cached file never un-triggers the macro cell
            if mbs_triggered(full, subset, file):
                assert mbs_triggered(reduced, subset, file)

    def test_false_iff_subset_within_cached_areas(self):
        pol = CachingPolicy([[1, 0], [1, 1], [0, 1]])
        for mask in range(1, 1 << 4):
            subset = frozenset(a for a in range(4) if (mask >> a) & 1)
            for file in range(2):
                expect = (0 not in subset) and all(
                    pol.placement[a - 1, file] for a in subset
                )
                assert mbs_triggered(pol, subset, file) is (not expect)
