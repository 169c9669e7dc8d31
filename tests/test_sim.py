import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from macp import (
    CachingPolicy,
    Instance,
    ScenarioConfig,
    SimConfig,
    SimReport,
    cost_closed_form,
    cost_unicast,
    generate_scenario,
    greedy_macp,
    mbs_triggered,
    popularity_placement,
    simulate,
    subset_probability,
)
import macp.sim as sim_module
from helpers import (
    empty_policy,
    exact_multicast_std,
    motivating_instance,
    random_instance,
    random_policy,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(periods=0, mode="multicast", seed=1)
        with pytest.raises(ValueError):
            SimConfig(periods=10, mode="broadcast", seed=1)
        with pytest.raises(ValueError):
            SimConfig(periods=10, mode="unicast", seed=-1)

    @pytest.mark.parametrize("change, message", [
        ({"periods": 2.7}, "periods must hold whole numbers"),
        ({"seed": 1.9}, "seed must hold whole numbers"),
        ({"periods": True}, "periods must hold numbers only"),
        ({"seed": np.True_}, "seed must hold numbers only"),
        ({"periods": "5"}, "periods must hold numbers only"),
        ({"seed": "1"}, "seed must hold numbers only"),
        ({"periods": [5]}, "periods must be one number"),
        ({"seed": -1}, "seed must fit in an unsigned 64-bit integer"),
        ({"seed": 2**64}, "seed must fit in an unsigned 64-bit integer"),
        ({"seed": 2.0**64}, "seed must fit in an unsigned 64-bit integer"),
    ])
    def test_refuses_what_it_would_truncate_or_parse(self, change, message):
        with pytest.raises(ValueError, match=message):
            SimConfig(**{"periods": 10, "mode": "multicast", "seed": 1, **change})

    def test_refuses_a_numpy_integer_beyond_the_range(self):
        with pytest.raises(ValueError, match="^periods value 18446744073709551615 is outside the 64-bit"):
            SimConfig(periods=np.uint64(2**64 - 1), mode="multicast", seed=1)

    def test_whole_numbers_of_any_numeric_type(self):
        config = SimConfig(periods=5.0, mode="unicast", seed=np.uint64(2**64 - 1))
        assert (config.periods, config.seed) == (5, 2**64 - 1)
        assert type(config.periods) is int and type(config.seed) is int
        assert SimConfig(np.int64(3), "multicast", 2.0).seed == 2


class TestDeterminism:
    def test_identical_reports_for_identical_seed(self):
        rng = np.random.default_rng(67)
        inst = random_instance(rng)
        pol = random_policy(rng, inst)
        for mode in ("multicast", "unicast"):
            cfg = SimConfig(periods=5000, mode=mode, seed=99)
            assert simulate(inst, pol, cfg) == simulate(inst, pol, cfg)

    def test_batch_boundary_does_not_change_stream(self, tmp_path, monkeypatch):
        # 1-period and 37-period batches give the default batches' report and
        # trace bytes.  Nine SCBSs, each caching all files but one and rarely
        # requesting that one, so most periods have several local
        # transmissions per SCBS and each period's SCBS cost is a sum of 8+
        # uneven terms.
        rng = np.random.default_rng(71)
        missing = np.eye(9, 4, dtype=bool) | np.eye(9, 4, -4, dtype=bool) | np.eye(9, 4, -8, dtype=bool)
        rates = rng.uniform(0.2, 1.5, size=(10, 4))
        rates[0] = 0.05
        rates[1:][missing] = 0.05
        inst = Instance(9, 4, [3] * 9, 0.7, 0.9, rng.uniform(0.0, 0.9, 9), rates, 1.3)
        pol = CachingPolicy(~missing)
        # (N+1)*I = 15 pairs: a multicast period's bytes end inside a
        # 64-bit word, so its padding is what keeps the batches aligned
        small = Instance(2, 5, [2, 3], 0.7, 0.9, [0.3, 0.6], rng.uniform(0.1, 2.0, size=(3, 5)), 1.1)
        small_pol = CachingPolicy([[1, 0, 0, 1, 0], [0, 1, 1, 0, 1]])
        # a wide catalog, whose multicast run the default budget splits into
        # several batches and a ragged last one (at 1 MiB, 59 of 69 periods and one of 62)
        wide = generate_scenario(ScenarioConfig(num_files=1000, cache_size=200, seed=3))
        wide_pol = popularity_placement(wide)
        # only files 3-6 cached: the local counts run over that span alone,
        # and 36 pairs leave 4 pad bytes a period
        part = Instance(3, 9, [2, 2, 2], 0.7, 0.9, [0.2, 0.4, 0.6], rng.uniform(0.1, 2.0, size=(4, 9)), 1.1)
        part_pol = CachingPolicy(np.eye(3, 9, 3, dtype=bool) | np.eye(3, 9, 4, dtype=bool))
        default = sim_module._BATCH_BYTES
        for name, inst, pol in (("10x4", inst, pol), ("3x5", small, small_pol),
                                ("4x9", part, part_pol), ("15x1000", wide, wide_pol)):
            for mode in ("multicast", "unicast"):
                cfg = SimConfig(periods=4096 + 37, mode=mode, seed=5)
                # what the budget divides: a multicast period's random bytes
                # in whole words, or a unicast period's int64 counts
                areas = inst.num_scbs + 1
                period = 8 * -(-areas * inst.num_files // 8) if mode == "multicast" else 8 * areas
                if name == "15x1000" and mode == "multicast":
                    assert 1 < default // period < cfg.periods and cfg.periods % (default // period)
                runs = []
                for budget in (default, period, 37 * period):
                    monkeypatch.setattr(sim_module, "_BATCH_BYTES", budget)
                    path = tmp_path / f"{name}-{mode}-{budget}.csv"
                    runs.append((simulate(inst, pol, cfg, trace_path=path), path.read_bytes()))
                assert runs[1] == runs[0], f"{name} {mode}: 1-period batches differ from the default"
                assert runs[2] == runs[0], f"{name} {mode}: 37-period batches differ from the default"

    def test_unicast_stream_is_pinned(self, tmp_path):
        # unicast draws its Poisson counts from default_rng(seed) alone, so a
        # change to the multicast sampler must leave these values as they are
        demand = [[0.3, 0.1, 0.0, 0.7], [1.2, 0.4, 0.9, 0.05],
                  [0.6, 2.5, 0.2, 0.8], [0.0, 0.3, 1.1, 0.45]]
        inst = Instance(3, 4, [2, 1, 3], 0.5, 1.0, [0.25, 0.5, 0.75], demand, 0.8)
        pol = CachingPolicy([[1, 0, 1, 0], [0, 1, 0, 0], [1, 1, 0, 1]])
        path = tmp_path / "trace.csv"
        rep = simulate(inst, pol, SimConfig(5000, "unicast", 31), trace_path=path)
        assert rep == SimReport(
            mean_cost_per_period=7.01615,
            std_error=0.04122645096963732,
            periods=5000,
            mbs_transmissions=17150,
            scbs_transmissions=21341,
            unicast_transmissions=38491,
        )
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2cad6822df076c265954c0382337f88d0aa7c556810b190cda61f610245d144c"
        )

    def test_multicast_stream_is_pinned(self, tmp_path):
        # the presence bytes, the tie refinements and the per-period
        # reduction must not move when the reduction is rewritten; nonzero
        # SCBS costs put each SCBS's local count into the period cost.
        # numpy's baseline and AVX-512 expm1 kernels give these rates the
        # same p, so the pin holds on both
        demand = [[0.3, 0.1, 0.0, 0.7], [1.2, 0.4, 0.9, 0.05],
                  [0.6, 2.5, 0.2, 0.8], [0.0, 0.3, 1.1, 0.45]]
        inst = Instance(3, 4, [2, 1, 3], 0.5, 1.0, [0.25, 0.5, 0.75], demand, 0.8)
        pol = CachingPolicy([[1, 0, 1, 0], [0, 1, 0, 0], [1, 1, 0, 1]])
        path = tmp_path / "trace.csv"
        rep = simulate(inst, pol, SimConfig(5000, "multicast", 31), trace_path=path)
        assert rep == SimReport(
            mean_cost_per_period=3.89145,
            std_error=0.017360620891303004,
            periods=5000,
            mbs_transmissions=11049,
            scbs_transmissions=6413,
            unicast_transmissions=0,
        )
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "1027607ae114c716ec57a69ed68c4df204aa498146d0035940a4b7453cf9dc8a"
        )

    @pytest.mark.parametrize("name, placement, pinned", [
        ("3x5", np.zeros((3, 5)),
         (6.354, 0.016746727757329657, 21180, 0,
          "1c8ca600e81e55709277ca48ee28737def80c7cd86f4251cc82df759291a405b")),
        ("3x5", [[0, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0]],
         (6.3156, 0.016842685748200685, 20988, 192,
          "28cedc5000b27059c0c1da7164fcab02a5595a7f6480d5bb7064246cf8c00990")),
        ("3x5", [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 1]],
         (5.8447, 0.017533050606574844, 18654, 2526,
          "d9d02cc817f2848a94583220d1fc92cf394eea28627b060b5f9de494006f6013")),
        ("3x5", [[0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [0, 1, 0, 1, 0]],
         (5.7748, 0.017677089350274254, 17909, 3938,
          "f2749fad496cabab4c20779546fa026d1663fac42443c5a8fe4af8fbb32f8757")),
        ("2x7", np.zeros((2, 7)),
         (8.3598, 0.0223420819469705, 27866, 0,
          "d2cdb498ef01dfd0f1e77b7a36bda817c896762dd3b2a8803d6deb189dfe386c")),
        ("2x7", [[0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0]],
         (8.200679999999998, 0.022703598794015893, 27203, 663,
          "3d16526d3fa5ecb0aca18d0155f0e5143856277106b702a7fc53c34e8b1e7de7")),
        ("2x7", [[1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1]],
         (7.71295, 0.02298334193065187, 24901, 2965,
          "5f6354ed37838ff869a7c168f82a325ec7953e49433e4032468f03a355e381d4")),
        ("2x7", [[0, 0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0]],
         (7.1471, 0.02146059713628419, 21690, 7410,
          "102bb964c596a84b2972f8024b2c283332e78e868917a6aa25e1ed4a9722edf8")),
    ], ids=["3x5-empty", "3x5-middle", "3x5-ends", "3x5-run",
            "2x7-empty", "2x7-middle", "2x7-ends", "2x7-run"])
    def test_padded_multicast_stream_is_pinned(self, tmp_path, name, placement, pinned):
        # 20 and 21 pairs end a period's bytes inside a 64-bit word, so each
        # period has 4 or 3 pad bytes, whose ties must draw no uniform; the
        # placements cache nothing, one middle file, the first and last files
        # and a clustered run, so the local counts run over empty, one-file,
        # full and partial spans of the catalog
        if name == "3x5":
            demand = [[0.3, 0.9, 0.1, 0.6, 0.2], [1.1, 0.4, 0.8, 0.05, 0.7],
                      [0.5, 1.6, 0.3, 0.9, 0.15], [0.25, 0.6, 1.3, 0.4, 1.0]]
            inst = Instance(3, 5, [3, 3, 3], 0.5, 1.0, [0.25, 0.5, 0.75], demand, 0.8)
        else:
            demand = [[0.2, 0.7, 0.4, 0.1, 0.9, 0.3, 0.5], [1.2, 0.35, 0.8, 0.6, 0.05, 1.4, 0.45],
                      [0.55, 0.9, 0.15, 1.1, 0.7, 0.25, 1.0]]
            inst = Instance(2, 7, [3, 3], 0.6, 0.9, [0.3, 0.55], demand, 0.9)
        path = tmp_path / "trace.csv"
        rep = simulate(inst, CachingPolicy(placement), SimConfig(5000, "multicast", 31), trace_path=path)
        mean, stderr, mbs_tx, scbs_tx, digest = pinned
        assert rep == SimReport(mean, stderr, 5000, mbs_tx, scbs_tx, 0)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_different_seeds_differ(self):
        inst = motivating_instance()
        pol = empty_policy(2, 3)
        a = simulate(inst, pol, SimConfig(2000, "multicast", 1))
        b = simulate(inst, pol, SimConfig(2000, "multicast", 2))
        assert a.mean_cost_per_period != b.mean_cost_per_period


class TestMemory:
    def test_wide_catalog_batches_stay_small(self):
        # a batch holds about a megabyte of draws whatever the catalog width;
        # these 2,000 periods in one batch trace about 89 MB
        inst = generate_scenario(ScenarioConfig(num_files=1000, cache_size=200, seed=1))
        pol = popularity_placement(inst)
        tracemalloc.start()
        try:
            simulate(inst, pol, SimConfig(2000, "multicast", 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"simulate peaked at {peak / 2**20:.1f} MiB"


class TestEdgeCases:
    def test_zero_demand(self):
        inst = Instance(2, 2, [1, 1], 1, 1, [0, 0], np.zeros((3, 2)), 1.0)
        rep = simulate(inst, empty_policy(2, 2), SimConfig(500, "multicast", 3))
        assert rep.mean_cost_per_period == 0.0
        assert rep.std_error == 0.0
        assert rep.mbs_transmissions == 0
        assert rep.scbs_transmissions == 0
        assert rep.unicast_transmissions == 0

    def test_infeasible_policy_rejected(self):
        inst = motivating_instance()
        with pytest.raises(ValueError):
            simulate(inst, CachingPolicy([[1, 1, 0], [0, 0, 0]]), SimConfig(10, "unicast", 0))

    def test_single_period_has_zero_stderr(self):
        inst = motivating_instance()
        rep = simulate(inst, empty_policy(2, 3), SimConfig(1, "multicast", 0))
        assert rep.std_error == 0.0

    def test_costly_periods_keep_a_finite_stderr(self):
        # period costs near 1e200 square past the float range; the presence
        # draws do not read the costs, so unit costs give the same periods
        def run(cost):
            inst = Instance(2, 2, [1, 1], cost, cost, [cost, cost], np.full((3, 2), 0.7), 1.0)
            return simulate(inst, CachingPolicy([[1, 0], [0, 1]]), SimConfig(10, "multicast", 5))

        costly, unit = run(1e200), run(1.0)
        assert math.isfinite(costly.std_error) and costly.std_error > 0
        assert costly.std_error == pytest.approx(unit.std_error * 1e200, rel=1e-12)
        assert costly.mean_cost_per_period == pytest.approx(
            unit.mean_cost_per_period * 1e200, rel=1e-12)

    def test_unicast_count_overflow_is_refused(self):
        # ten periods at 5e18 requests each would wrap a 64-bit count sum
        inst = Instance(1, 1, [1], 1, 1, [0.5], [[5e18], [1.0]], 1.0)
        with pytest.raises(ValueError, match="overflow the 64-bit request counts"):
            simulate(inst, CachingPolicy([[1]]), SimConfig(10, "unicast", 0))

    def test_unicast_period_cost_overflow_is_refused(self, tmp_path):
        # the counts fit, but a macro transmission costs 2e300
        inst = Instance(1, 1, [1], 1e300, 1e300, [0.0], [[1e10], [1.0]], 1.0)
        with pytest.raises(ValueError, match="cost overflows the float range"):
            simulate(inst, CachingPolicy([[1]]), SimConfig(10, "unicast", 0),
                     trace_path=tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_text() == "period,cost,mbs_tx,scbs_tx,unicast_tx\n"


class TestCostClasses:
    """Unicast mode draws one Poisson count per SCBS cost class, not per SCBS."""

    @staticmethod
    def _run(inst, pol, path):
        return simulate(inst, pol, SimConfig(3000, "unicast", 17), trace_path=path), path.read_bytes()

    def test_swapping_scbss_of_one_cost_keeps_the_stream(self, tmp_path):
        # SCBSs 1 and 2 share a cost and cache as many files at different
        # rates, with no demand outside their caches, so the swap moves no
        # uncached rate of the macro sum: their class rate is a + b either
        # way, which is b + a exactly
        demand = [[0.3, 0.1, 0.0, 0.7, 0.2],
                  [1.3, 0.0, 0.45, 0.0, 0.0],
                  [0.0, 0.35, 0.0, 2.1, 0.0],
                  [0.6, 0.25, 0.2, 0.8, 1.1]]
        x = np.array([[1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]])
        inst = Instance(3, 5, [2, 2, 2], 0.5, 1.0, [0.3, 0.3, 0.1], demand, 0.8)
        swapped = Instance(3, 5, [2, 2, 2], 0.5, 1.0, [0.3, 0.3, 0.1],
                           [demand[0], demand[2], demand[1], demand[3]], 0.8)
        a = self._run(inst, CachingPolicy(x), tmp_path / "a.csv")
        b = self._run(swapped, CachingPolicy(x[[1, 0, 2]]), tmp_path / "b.csv")
        assert a == b

    @pytest.mark.parametrize("seed", [221, 222, 223])
    def test_two_cost_classes_track_the_expected_cost(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        demand = rng.uniform(0.0, 2.0, size=(6, 4))
        inst = Instance(5, 4, [1, 2, 1, 3, 2], 0.7, 0.9, [0.2, 0.5, 0.2, 0.5, 0.2], demand, 1.1)
        pol = random_policy(rng, inst)
        path = tmp_path / "trace.csv"
        rep = simulate(inst, pol, SimConfig(20_000, "unicast", seed), trace_path=path)
        assert abs(rep.mean_cost_per_period - cost_unicast(inst, pol).total) <= 4 * rep.std_error
        table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, usecols=(2, 3, 4))
        assert table.shape == (20_000, 3)
        assert (table[:, 0] + table[:, 1] == table[:, 2]).all()

    def test_one_class_of_three_scbss_is_one_scbs_of_their_summed_rate(self, tmp_path):
        # each SCBS caches one file and requests nothing else, so its cached
        # rate is its one rate, and the class adds them in SCBS order
        r = [0.3, 1.7, 0.45]
        many = Instance(3, 3, [1, 1, 1], 0.5, 1.0, [0.25] * 3,
                        [[0.6, 0.2, 0.9], [r[0], 0, 0], [0, r[1], 0], [0, 0, r[2]]], 1.0)
        one = Instance(1, 3, [1], 0.5, 1.0, [0.25], [[0.6, 0.2, 0.9], [r[0] + r[1] + r[2], 0, 0]], 1.0)
        a = self._run(many, CachingPolicy(np.eye(3, dtype=int)), tmp_path / "many.csv")
        b = self._run(one, CachingPolicy([[1, 0, 0]]), tmp_path / "one.csv")
        assert a == b


class TestCounters:
    def test_multicast_at_most_one_macro_tx_per_file_period(self):
        rng = np.random.default_rng(73)
        inst = random_instance(rng, max_scbs=4, max_files=4, rate_high=5.0)
        pol = random_policy(rng, inst)
        periods = 3000
        rep = simulate(inst, pol, SimConfig(periods, "multicast", 7))
        assert rep.mbs_transmissions <= periods * inst.num_files
        assert rep.unicast_transmissions == 0

    def test_unicast_counts_every_request(self):
        rng = np.random.default_rng(79)
        inst = random_instance(rng, max_scbs=3, max_files=3, rate_high=3.0)
        pol = random_policy(rng, inst)
        rep = simulate(inst, pol, SimConfig(2000, "unicast", 11))
        assert rep.unicast_transmissions == rep.mbs_transmissions + rep.scbs_transmissions
        # expected request volume: sum of all rates times the period length
        expect = inst.demand.sum() * inst.deadline * 2000
        assert abs(rep.unicast_transmissions - expect) <= 4 * np.sqrt(expect) + 1e-9


class TestUnbiasedness:
    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_multicast_mean_tracks_analytic_cost(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, max_scbs=5, max_files=4)
        pol = random_policy(rng, inst)
        rep = simulate(inst, pol, SimConfig(30_000, "multicast", seed))
        analytic = cost_closed_form(inst, pol).total
        if rep.std_error == 0.0:
            assert rep.mean_cost_per_period == pytest.approx(analytic, abs=1e-12)
        else:
            assert abs(rep.mean_cost_per_period - analytic) <= 4.5 * rep.std_error

    @pytest.mark.parametrize("seed", [201, 202])
    def test_unicast_mean_tracks_expected_request_cost(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, max_scbs=4, max_files=3)
        pol = random_policy(rng, inst)
        rep = simulate(inst, pol, SimConfig(30_000, "unicast", seed))
        analytic = cost_unicast(inst, pol).total
        if rep.std_error == 0.0:
            assert rep.mean_cost_per_period == pytest.approx(analytic, abs=1e-12)
        else:
            assert abs(rep.mean_cost_per_period - analytic) <= 4.5 * rep.std_error


class TestExactSpread:
    @staticmethod
    def _enumerated_variance(inst, pol):
        # sum over files of E[(X - E[X])^2], X the file's cost in one period,
        # over every subset of requesting areas
        areas = range(inst.num_scbs + 1)
        subsets = [s for k in range(len(areas) + 1) for s in itertools.combinations(areas, k)]
        c_mbs = inst.cost_backhaul + inst.cost_mbs_tx
        total = 0.0
        for f in range(inst.num_files):
            outcomes = [(subset_probability(inst, s, f),
                         0.0 if not s else c_mbs if mbs_triggered(pol, s, f)
                         else sum(inst.cost_scbs_tx[a - 1] for a in s))
                        for s in subsets]
            mean = sum(prob * cost for prob, cost in outcomes)
            total += sum(prob * (cost - mean) ** 2 for prob, cost in outcomes)
        return total

    @pytest.mark.parametrize("seed", [401, 402, 403, 404])
    def test_exact_variance_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, max_scbs=3, max_files=3, heavy_scbs_costs=True)
        pol = random_policy(rng, inst)
        assert exact_multicast_std(inst, pol) ** 2 == pytest.approx(
            self._enumerated_variance(inst, pol), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("macro, cached_rate, uncached_rate", [
        (1e-15, 1e-15, 1e-15),
        (1e3, 1e3, 1e3),
        (1e-15, 1e3, 1e-15),  # a near-constant local cost with a rare trigger
        (0.0, 1e3, 1e3),
    ])
    def test_exact_variance_at_extreme_rates(self, macro, cached_rate, uncached_rate):
        # lambda*d of 1e-15 and 1e3 (deadline 1); SCBS 1 caches file 0 and
        # SCBS 2 both files, so each file has cached and uncached requesters
        x = np.array([[1, 0], [1, 1], [0, 0]])
        demand = np.vstack(([macro] * 2, np.where(x, cached_rate, uncached_rate)))
        inst = Instance(3, 2, [1, 2, 0], 0.5, 1.0, [0.25, 0.5, 0.75], demand, 1.0)
        pol = CachingPolicy(x)
        std = exact_multicast_std(inst, pol)
        assert math.isfinite(std) and std >= 0.0
        assert std**2 == pytest.approx(self._enumerated_variance(inst, pol), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("overrides", [{}, {"cache_size": 60, "deadline": 1.0}])
    def test_simulated_spread_matches_exact_std(self, overrides):
        # std_error * sqrt(periods) is the sample standard deviation of the
        # period costs; at 1e5 periods these two read 0.998 and 0.999 of the
        # exact value
        inst = generate_scenario(ScenarioConfig(seed=7, cost_scbs=0.3, **overrides))
        pol = greedy_macp(inst).policy
        periods = 100_000
        rep = simulate(inst, pol, SimConfig(periods, "multicast", 7))
        ratio = rep.std_error * math.sqrt(periods) / exact_multicast_std(inst, pol)
        assert abs(ratio - 1.0) <= 0.02, f"simulated / exact standard deviation = {ratio:.4f}"


class TestPresenceSampler:
    PERIODS = 400_000

    @pytest.mark.parametrize("rate, seed", [
        (0.0, 301),
        (1e-3, 302),  # p < 1/256: every presence comes from a tie's refinement
        (-math.log1p(-37 / 256), 303),  # p = 37/256 exactly: a tie is never present
        (-math.log1p(-1.5 / 256), 307),  # halfway between byte boundaries
        (3.0, 304),
        (40.0, 305),  # p rounds to 1.0
        (800.0, 306),
    ])
    def test_one_pair_presence_rate_is_p(self, rate, seed):
        # one uncached SCBS and no macro-area demand: each period triggers a
        # macro transmission exactly when the lone pair is present
        inst = Instance(1, 1, [0], 0.5, 1.0, [0.25], [[0.0], [rate]], 1.0)
        rep = simulate(inst, empty_policy(1, 1), SimConfig(self.PERIODS, "multicast", seed))
        hits, n = rep.mbs_transmissions, self.PERIODS
        assert rep.scbs_transmissions == 0
        p = -np.expm1(-rate)
        if p == 0.0:
            assert hits == 0
        elif p == 1.0:
            assert hits == n
        else:
            z = (hits - n * p) / math.sqrt(n * p * (1 - p))
            assert abs(z) <= 4.5, f"p={p!r}: {hits} hits in {n} periods, z={z:.2f}"


class TestExtremeRates:
    @staticmethod
    def _saturated(macro_rate, num_files=5):
        # lambda*d = 1e3 at every SCBS pair; dyadic costs, so a constant
        # per-period cost also averages exactly
        demand = np.full((4, num_files), 1e3 / 0.5)
        demand[0] = macro_rate
        return Instance(3, num_files, [num_files] * 3, 0.25, 0.5, [0.125, 0.25, 0.5], demand, 0.5)

    @pytest.mark.parametrize("pattern", ["empty", "partial", "full"])
    def test_every_pair_saturated_gives_fixed_cost(self, pattern):
        # lambda*d = 1e3: q = exp(-1e3) underflows to 0, every area requests
        # every file in every period, and the macro area triggers each file
        inst = self._saturated(1e3 / 0.5)
        placement = {"empty": np.zeros((3, 5)), "partial": np.eye(3, 5), "full": np.ones((3, 5))}
        pol = CachingPolicy(placement[pattern])
        rep = simulate(inst, pol, SimConfig(5000, "multicast", 17))
        assert rep.std_error == 0.0
        assert rep.mean_cost_per_period == pytest.approx(
            cost_closed_form(inst, pol).total, rel=1e-9)
        assert rep.mean_cost_per_period == 5 * 0.75
        assert (rep.mbs_transmissions, rep.scbs_transmissions) == (5 * 5000, 0)

    def test_saturated_fully_cached_scbss_serve_locally(self):
        # no macro-area demand and full caches: every SCBS sends every file
        inst = self._saturated(0.0)
        pol = CachingPolicy(np.ones((3, 5)))
        rep = simulate(inst, pol, SimConfig(5000, "multicast", 19))
        assert rep.std_error == 0.0
        assert rep.mean_cost_per_period == pytest.approx(
            cost_closed_form(inst, pol).total, rel=1e-9)
        assert rep.mean_cost_per_period == 5 * (0.125 + 0.25 + 0.5)
        assert (rep.mbs_transmissions, rep.scbs_transmissions) == (0, 3 * 5 * 5000)

    @pytest.mark.parametrize("cached", [True, False])
    def test_per_period_counts_past_255_are_exact(self, cached):
        # 300 files requested everywhere in every period and no macro-area
        # demand: each period counts 300 local requests per SCBS (all
        # cached) or 300 triggered files (none cached), which an 8-bit
        # count would wrap to 44
        inst = self._saturated(0.0, num_files=300)
        pol = CachingPolicy(np.full((3, 300), int(cached)))
        periods = 1000
        rep = simulate(inst, pol, SimConfig(periods, "multicast", 29))
        assert rep.std_error == 0.0
        if cached:
            assert (rep.mbs_transmissions, rep.scbs_transmissions) == (0, 3 * 300 * periods)
            assert rep.mean_cost_per_period == 300 * (0.125 + 0.25 + 0.5)
        else:
            assert (rep.mbs_transmissions, rep.scbs_transmissions) == (300 * periods, 0)
            assert rep.mean_cost_per_period == 300 * 0.75

    @pytest.mark.parametrize("mode", ["multicast", "unicast"])
    def test_zero_rate_pair_is_never_present(self, mode):
        # SCBS 1 caches file 0 but never requests it; its file 1 request
        # (uncached, lambda*d = 1e3) triggers a macro transmission each period
        demand = [[0.0, 0.0], [0.0, 1e3], [0.0, 0.0]]
        inst = Instance(2, 2, [1, 1], 0.25, 0.5, [0.25, 0.25], demand, 1.0)
        pol = CachingPolicy([[1, 0], [0, 1]])
        rep = simulate(inst, pol, SimConfig(3000, mode, 23))
        assert rep.scbs_transmissions == 0
        if mode == "multicast":
            assert rep.mbs_transmissions == 3000
            assert rep.mean_cost_per_period == 0.75
            assert rep.std_error == 0.0

    @pytest.mark.parametrize("seed", [211, 212])
    def test_unicast_tracks_expected_cost_with_an_empty_scbs(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, max_scbs=4, max_files=3)
        while inst.num_scbs < 2:
            inst = random_instance(rng, max_scbs=4, max_files=3)
        x = random_policy(rng, inst).placement.copy()
        x[0] = 0  # SCBS 1 caches nothing: its superposed rate is 0
        pol = CachingPolicy(x)
        rep = simulate(inst, pol, SimConfig(30_000, "unicast", seed))
        analytic = cost_unicast(inst, pol).total
        assert rep.std_error > 0.0
        assert abs(rep.mean_cost_per_period - analytic) <= 4.5 * rep.std_error


class TestTrace:
    def test_csv_trace_matches_report(self, tmp_path):
        rng = np.random.default_rng(83)
        inst = random_instance(rng, max_scbs=3, max_files=3)
        pol = random_policy(rng, inst)
        path = tmp_path / "trace.csv"
        rep = simulate(inst, pol, SimConfig(300, "multicast", 13), trace_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "period,cost,mbs_tx,scbs_tx,unicast_tx"
        assert len(lines) == 301
        costs, mbs, scbs, uni = [], 0, 0, 0
        for line in lines[1:]:
            period, cost, m, s, u = line.split(",")
            costs.append(float(cost))
            mbs += int(m)
            scbs += int(s)
            uni += int(u)
        assert np.mean(costs) == pytest.approx(rep.mean_cost_per_period, abs=1e-12)
        assert (mbs, scbs, uni) == (
            rep.mbs_transmissions,
            rep.scbs_transmissions,
            rep.unicast_transmissions,
        )
