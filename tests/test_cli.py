import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from macp import (CachingPolicy, Instance, ScenarioConfig, SppInstance, cost_closed_form,
                  generate_scenario, spp_to_macdp)
from macp.cli import _scenario_config, build_parser, main
from helpers import motivating_instance, motivating_optimal_policy


# What ``macp reduce`` and then ``macp decide --problem macdp`` write for the
# three-subset figure instance, byte for byte.
FIGURE_DECISION_JSON = """\
{
  "cache_size": [
    1,
    1,
    1
  ],
  "cost_backhaul": 0.0,
  "cost_mbs_tx": 1.0,
  "cost_scbs_tx": [
    0.0,
    0.0,
    0.0
  ],
  "deadline": 1.0,
  "num_files": 3,
  "num_scbs": 3,
  "prob_table": [
    {
      "areas": [
        1
      ],
      "file": 0,
      "prob": 0.3333333333333333
    },
    {
      "areas": [
        1,
        2
      ],
      "file": 1,
      "prob": 0.3333333333333333
    },
    {
      "areas": [
        2,
        3
      ],
      "file": 2,
      "prob": 0.3333333333333333
    }
  ],
  "threshold": 0.33333333333333337
}
"""
FIGURE_ANSWER_JSON = """\
{
  "answer": true,
  "witness": [
    [
      1,
      0,
      0
    ],
    [
      0,
      0,
      1
    ],
    [
      0,
      0,
      1
    ]
  ]
}
"""


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(motivating_instance().to_json())
    return path


@pytest.fixture
def policy_file(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(motivating_optimal_policy().to_json())
    return path


class TestGenerate:
    def test_writes_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        rc = main([
            "generate", "--num-scbs", "3", "--num-files", "8", "--cache-size", "2",
            "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        inst = Instance.from_json(out.read_text())
        assert (inst.num_scbs, inst.num_files) == (3, 8)
        assert (inst.demand[0] == 0).all()

    def test_prints_to_stdout_without_out(self, capsys):
        assert main(["generate", "--num-scbs", "2", "--num-files", "3", "--seed", "1"]) == 0
        config = ScenarioConfig(num_scbs=2, num_files=3, seed=1)
        assert capsys.readouterr().out == generate_scenario(config).to_json() + "\n"

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_scbs": 3, "num_files": 8, "cache_size": 2, "seed": 1}))
        out = tmp_path / "inst.json"
        assert main(["generate", "--config", str(cfg), "--num-files", "5", "--out", str(out)]) == 0
        inst = Instance.from_json(out.read_text())
        assert (inst.num_scbs, inst.num_files) == (3, 5)


class TestSolveEvaluate:
    @pytest.mark.parametrize("algorithm", ["greedy", "exact"])
    def test_solves_walkthrough(self, tmp_path, instance_file, algorithm):
        pol_path = tmp_path / "pol.json"
        rep_path = tmp_path / "rep.json"
        rc = main([
            "solve", str(instance_file), "--algorithm", algorithm,
            "--out", str(pol_path), "--report", str(rep_path),
        ])
        assert rc == 0
        policy = CachingPolicy.from_json(pol_path.read_text())
        report = json.loads(rep_path.read_text())
        assert report["objective"] == pytest.approx(0.6394, abs=5e-4)
        assert cost_closed_form(motivating_instance(), policy).total == pytest.approx(
            report["objective"], abs=1e-12
        )
        if algorithm == "greedy":
            assert len(report["trace"]) == 2

    def test_report_objective_is_the_trace_end(self, tmp_path):
        # with costly SCBSs, the report's objective and the greedy trace's
        # last entry are one float
        inst, pol, rep = (tmp_path / name for name in ("inst.json", "pol.json", "rep.json"))
        assert main(["generate", "--seed", "6", "--cost-scbs", "0.3", "--out", str(inst)]) == 0
        assert main(["solve", str(inst), "--out", str(pol), "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        assert report["objective"] == report["trace"][-1][3]

    def test_popularity_solve(self, tmp_path, instance_file):
        pol_path = tmp_path / "pol.json"
        assert main([
            "solve", str(instance_file), "--algorithm", "popularity", "--out", str(pol_path),
        ]) == 0
        policy = CachingPolicy.from_json(pol_path.read_text())
        assert np.array_equal(policy.placement, [[1, 0, 0], [1, 0, 0]])

    @pytest.mark.parametrize(
        "evaluator,expect", [("closed-form", 0.6394), ("brute-force", 0.6394)]
    )
    def test_evaluate(self, tmp_path, instance_file, policy_file, evaluator, expect):
        out = tmp_path / "cost.json"
        rc = main([
            "evaluate", str(instance_file), str(policy_file),
            "--evaluator", evaluator, "--out", str(out),
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert set(data) == {"total", "per_file", "mbs_component", "scbs_component"}
        assert data["total"] == pytest.approx(expect, abs=5e-4)


    def test_int_beyond_64_bits_in_float_field_is_a_number(self, tmp_path, instance_file):
        # numpy holds 2**64 as an object; as a rate or a cost it is a finite float
        data = json.loads(instance_file.read_text())
        data["cost_mbs_tx"] = 2**65
        data["cost_scbs_tx"] = [2**64, 0]
        data["demand"][1][0] = 2**64
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        rep_path = tmp_path / "rep.json"
        assert main(["solve", str(path), "--out", str(tmp_path / "pol.json"),
                     "--report", str(rep_path)]) == 0
        inst = Instance.from_json(path.read_text())
        assert inst.cost_scbs_tx.tolist() == [2.0**64, 0.0]
        assert inst.demand[1, 0] == 2.0**64
        assert np.isfinite(json.loads(rep_path.read_text())["objective"])


class TestSimulateCommand:
    def test_report_and_trace(self, tmp_path, instance_file, policy_file):
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        rc = main([
            "simulate", str(instance_file), str(policy_file),
            "--mode", "multicast", "--periods", "500", "--seed", "9",
            "--trace", str(trace), "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["periods"] == 500
        assert trace.read_text().splitlines()[0] == "period,cost,mbs_tx,scbs_tx,unicast_tx"

    def test_trace_byte_identical_across_runs(self, tmp_path, instance_file, policy_file):
        traces = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            main([
                "simulate", str(instance_file), str(policy_file),
                "--periods", "300", "--seed", "4", "--trace", str(path),
                "--out", str(tmp_path / ("r" + name)),
            ])
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]


class TestReduceDecide:
    def test_outputs_are_pinned(self, tmp_path):
        spp_path = tmp_path / "spp.json"
        spp_path.write_text(json.dumps({"elements": [1, 2, 3], "subsets": [[1], [1, 2], [2, 3]],
                                        "target": 2}))
        dec_path, out = tmp_path / "dec.json", tmp_path / "macdp.json"
        assert main(["reduce", str(spp_path), "--out", str(dec_path)]) == 0
        assert dec_path.read_bytes() == FIGURE_DECISION_JSON.encode()
        assert main(["decide", str(dec_path), "--problem", "macdp", "--out", str(out)]) == 0
        assert out.read_bytes() == FIGURE_ANSWER_JSON.encode()

    def test_round_trip(self, tmp_path):
        spp_path = tmp_path / "spp.json"
        spp_path.write_text(json.dumps({
            "elements": [1, 2, 3],
            "subsets": [[1], [1, 2], [2, 3]],
            "target": 2,
        }))
        dec_path = tmp_path / "dec.json"
        assert main(["reduce", str(spp_path), "--out", str(dec_path)]) == 0
        dec = json.loads(dec_path.read_text())
        assert dec["threshold"] == pytest.approx(1 / 3)
        assert dec["num_scbs"] == 3

        out = tmp_path / "macdp.json"
        assert main(["decide", str(dec_path), "--problem", "macdp", "--out", str(out)]) == 0
        verdict = json.loads(out.read_text())
        assert verdict["answer"] is True
        assert verdict["witness"] == [[1, 0, 0], [0, 0, 1], [0, 0, 1]]

        out2 = tmp_path / "spp_answer.json"
        assert main(["decide", str(spp_path), "--problem", "spp", "--out", str(out2)]) == 0
        verdict2 = json.loads(out2.read_text())
        assert verdict2["answer"] is True
        assert verdict2["witness"] == [0, 2]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_decision_threshold_beyond_float_range_is_infinite(self, tmp_path, sign):
        data = spp_to_macdp(SppInstance(frozenset({1, 2}), (frozenset({1}), frozenset({2})), 1))
        dec, out = tmp_path / "dec.json", tmp_path / "out.json"
        answers = []
        for threshold in (sign * 10**400, sign * float("inf")):
            dec.write_text(json.dumps({**data.to_dict(), "threshold": threshold}))
            assert main(["decide", str(dec), "--problem", "macdp", "--out", str(out)]) == 0
            answers.append(out.read_bytes())
        assert answers[0] == answers[1]
        assert json.loads(answers[0])["answer"] is (sign > 0)


class TestSweepCommand:
    def _run(self, tmp_path, name):
        out = tmp_path / name
        rc = main([
            "sweep", "--num-scbs", "3", "--num-files", "10", "--seed", "7",
            "--axis", "cache_size", "--values", "2,5,8",
            "--replications", "2", "--analytic-only", "--out", str(out),
        ])
        assert rc == 0
        return out.read_bytes()

    def test_csv_byte_identical_across_runs(self, tmp_path, capsys):
        a = self._run(tmp_path, "a.csv")
        b = self._run(tmp_path, "b.csv")
        assert a == b
        assert a.splitlines()[0].decode() == "axis,value,scheme,analytic_cost,sim_cost,sim_stderr,replication,seed"

    def test_simulated_sweep_fills_sim_columns(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main([
            "sweep", "--num-scbs", "3", "--num-files", "8", "--seed", "3",
            "--axis", "deadline", "--values", "1,2", "--replications", "1",
            "--simulate", "--periods", "400", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[4] != "" and fields[5] != ""


class TestInputErrors:
    def test_malformed_policy_is_one_line_error(self, tmp_path, capsys, instance_file):
        policy = tmp_path / "policy.json"
        policy.write_text("[[1.9, 0, 0], [0, 0, 1]]")
        out = tmp_path / "report.json"
        rc = main(["simulate", str(instance_file), str(policy), "--periods", "10",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "macp: error: placement entries must be 0 or 1\n"
        assert not out.exists()

    def test_enumeration_cap_is_one_line_error(self, tmp_path, capsys, instance_file):
        out = tmp_path / "policy.json"
        rc = main(["solve", str(instance_file), "--algorithm", "exact",
                   "--max-policies", "1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("macp: error: ") and "exceed the enumeration cap of 1" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_instance_missing_field_is_one_line_error(self, tmp_path, capsys, instance_file):
        data = json.loads(instance_file.read_text())
        del data["num_files"]
        instance_file.write_text(json.dumps(data))
        rc = main(["solve", str(instance_file), "--out", str(tmp_path / "policy.json")])
        assert rc == 2
        assert capsys.readouterr().err == "macp: error: Instance: missing field 'num_files'\n"

    def test_missing_input_file_is_one_line_error(self, tmp_path, capsys):
        rc = main(["solve", str(tmp_path / "nonexistent.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("macp: error: ") and "nonexistent.json" in err
        assert err.count("\n") == 1

    def test_unknown_config_key_is_one_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"cach_size": 3}))
        rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "inst.json")])
        assert rc == 2
        assert capsys.readouterr().err == "macp: error: ScenarioConfig: unknown field 'cach_size'\n"


    def test_spp_missing_target_is_one_line_error(self, tmp_path, capsys):
        spp = tmp_path / "spp.json"
        spp.write_text(json.dumps({"elements": [1, 2], "subsets": [[1], [2]]}))
        out = tmp_path / "dec.json"
        assert main(["reduce", str(spp), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "macp: error: SppInstance: missing field 'target'\n"
        assert not out.exists()
        assert main(["decide", str(spp), "--problem", "spp"]) == 2
        assert capsys.readouterr().err == "macp: error: SppInstance: missing field 'target'\n"

    def test_decision_missing_threshold_is_one_line_error(self, tmp_path, capsys):
        spp = SppInstance(frozenset({1, 2}), (frozenset({1}), frozenset({2})), 1)
        data = spp_to_macdp(spp).to_dict()
        del data["threshold"]
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps(data))
        assert main(["decide", str(dec), "--problem", "macdp"]) == 2
        assert capsys.readouterr().err == (
            "macp: error: DecisionInstance: missing field 'threshold'\n"
        )
        # the check names the JSON keys: the table is ``prob_table``
        data = spp_to_macdp(spp).to_dict()
        data["probabilities"] = data.pop("prob_table")
        dec.write_text(json.dumps(data))
        assert main(["decide", str(dec), "--problem", "macdp"]) == 2
        assert capsys.readouterr().err == (
            "macp: error: DecisionInstance: unknown field 'probabilities'\n"
        )

    def test_spp_subset_not_a_list_is_one_line_error(self, tmp_path, capsys):
        spp = tmp_path / "spp.json"
        spp.write_text(json.dumps({"elements": [0, 1, 2], "subsets": [1, 2], "target": 1}))
        out = tmp_path / "dec.json"
        assert main(["reduce", str(spp), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "macp: error: SppInstance: every subset must be a list\n"
        assert not out.exists()

    def test_decision_string_count_is_one_line_error(self, tmp_path, capsys):
        spp = SppInstance(frozenset({1, 2}), (frozenset({1}), frozenset({2})), 1)
        data = spp_to_macdp(spp).to_dict()
        data["num_files"] = "2"
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps(data))
        assert main(["decide", str(dec), "--problem", "macdp"]) == 2
        assert capsys.readouterr().err == (
            "macp: error: DecisionInstance: field 'num_files' must be int, got '2'\n"
        )

    @pytest.mark.parametrize("kind, change, message", [
        ("spp", {"elements": [[1], 2]}, "SppInstance: field 'elements' must hold integers, got [1]"),
        ("spp", {"elements": [1, "a"]}, "SppInstance: field 'elements' must hold integers, got 'a'"),
        ("spp", {"subsets": [[1], [2.0]]}, "SppInstance: field 'subsets' must hold integers, got 2.0"),
        ("macdp", {"areas": [[1]]},
         "DecisionInstance prob_table entry: field 'areas' must hold integers, got [1]"),
        ("macdp", {"cache_size": [{}, 1]}, "cache_size must hold numbers only"),
        ("macdp", {"cache_size": ["1", 2]}, "cache_size must hold numbers only"),
        ("macdp", {"cost_scbs_tx": ["0", 0]}, "cost_scbs_tx must hold numbers only"),
        ("instance", {"demand": [[0, 0, 0], [1, {}, 1], [0, 0, 0]]}, "demand must hold numbers only"),
        ("instance", {"cache_size": ["1", 2]}, "cache_size must hold numbers only"),
        ("instance", {"cost_scbs_tx": ["0", 0]}, "cost_scbs_tx must hold numbers only"),
        ("macdp", {"cache_size": [1.5, 1]}, "cache_size must hold whole numbers, got 1.5"),
        ("macdp", {"cost_scbs_tx": [True, 0]}, "cost_scbs_tx must hold numbers only"),
        ("macdp", {"cache_size": [[1], 1]}, "cache_size must be a regular array of numbers"),
        ("instance", {"cache_size": [1.5, 1]}, "cache_size must hold whole numbers, got 1.5"),
        ("instance", {"cost_scbs_tx": [True, 0]}, "cost_scbs_tx must hold numbers only"),
        ("instance", {"cache_size": [[1], 1]}, "cache_size must be a regular array of numbers"),
        # numpy reads 1e300 and 2**63 as floats and 2**64 as an object, not as int64
        ("instance", {"cache_size": [1e300, 1, 1]},
         "cache_size value 1e+300 is outside the 64-bit integer range"),
        ("instance", {"cache_size": [2**63, 1, 1]},
         "cache_size value 9223372036854775808 is outside the 64-bit integer range"),
        ("instance", {"cache_size": [2**64, 1, 1]},
         "cache_size value 18446744073709551616 is outside the 64-bit integer range"),
        ("macdp", {"cache_size": [2**63, 1]},
         "cache_size value 9223372036854775808 is outside the 64-bit integer range"),
        # a float field takes an int beyond 64 bits, but not one beyond the float range
        ("instance", {"demand": [[0, 0, 0], [1, 10**400, 1], [0, 0, 0]]},
         "demand holds an integer beyond the float range"),
        # a probability beyond the float range is read as inf or -inf
        ("macdp", {"prob": 10**400}, "file 0: probability inf outside [0, 1]"),
        ("macdp", {"prob": -10**400}, "file 0: probability -inf outside [0, 1]"),
    ])
    def test_array_item_of_wrong_type_is_one_line_error(self, tmp_path, capsys, instance_file,
                                                        kind, change, message):
        spp = {"elements": [1, 2], "subsets": [[1], [2]], "target": 1}
        if kind == "spp":
            data, command = {**spp, **change}, ["reduce"]
        elif kind == "macdp":
            data = spp_to_macdp(SppInstance.from_dict(spp)).to_dict()
            entry = data["prob_table"][0]
            for key, value in change.items():
                (entry if key in entry else data)[key] = value
            command = ["decide", "--problem", "macdp"]
        else:
            data = {**json.loads(instance_file.read_text()), **change}
            command = ["solve"]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        assert main([command[0], str(path), *command[1:], "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"macp: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["greedy", "exact", "popularity"])
    @pytest.mark.parametrize("change, message", [
        ({"cost_backhaul": 1e308, "cost_mbs_tx": 1e308},
         "num_files * (cost_backhaul + cost_mbs_tx + sum of cost_scbs_tx) is not finite"),
        ({"num_scbs": 3, "cache_size": [1, 1, 1], "cost_scbs_tx": [0, 0, 0],
          "demand": [[0, 0, 0], [1e308, 1, 0], [1e308, 0, 1], [1e308, 0, 0]]},
         "file 0: demand * deadline summed over the areas is not finite"),
    ], ids=["costs", "rates"])
    def test_objective_overflow_is_one_line_error(self, tmp_path, capsys, instance_file,
                                                  algorithm, change, message):
        instance_file.write_text(json.dumps({**json.loads(instance_file.read_text()), **change}))
        out, report = tmp_path / "policy.json", tmp_path / "report.json"
        assert main(["solve", str(instance_file), "--algorithm", algorithm, "--out", str(out),
                     "--report", str(report)]) == 2
        assert capsys.readouterr().err == f"macp: error: {message}\n"
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("argv, demand, cost, message", [
        (["simulate", "--mode", "unicast", "--periods", "10"], [[5e18], [0.0]], 1.0,
         "5e+19 expected unicast requests in 10 periods overflow the 64-bit request counts"),
        (["simulate", "--mode", "unicast", "--periods", "10"], [[1e308], [0.0]], 1.0,
         "inf expected unicast requests in 10 periods overflow the 64-bit request counts"),
        (["evaluate", "--evaluator", "unicast"], [[1e200], [1e200]], 1e200,
         "the expected unicast cost is not finite"),
    ], ids=["simulate-counts", "simulate-counts-inf", "evaluate-cost"])
    def test_unicast_overflow_is_one_line_error(self, tmp_path, capsys, argv, demand, cost,
                                                message):
        inst, pol, out = tmp_path / "inst.json", tmp_path / "pol.json", tmp_path / "out.json"
        inst.write_text(Instance(1, 1, [1], cost, cost, [cost], demand, 1.0).to_json())
        pol.write_text(CachingPolicy([[1]]).to_json())
        assert main([argv[0], str(inst), str(pol), *argv[1:], "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"macp: error: {message}\n"
        assert not out.exists()

    # 1e15 periods need a 7.1 PiB cost array, beyond a 47-bit address space,
    # so the allocation is refused at once and nothing is allocated
    def test_simulate_periods_too_many_to_allocate_is_one_line_error(
            self, tmp_path, capsys, instance_file, policy_file):
        out = tmp_path / "report.json"
        assert main(["simulate", str(instance_file), str(policy_file), "--periods",
                     "1000000000000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("macp: error: Unable to allocate 7.11 PiB") and err.count("\n") == 1
        assert not out.exists()

    def test_simulated_sweep_periods_too_many_to_allocate_is_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", "cache_size", "--values", "1,2", "--num-scbs", "3",
                     "--num-files", "8", "--simulate", "--periods", "1000000000000000",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("macp: error: Unable to allocate 7.11 PiB") and err.count("\n") == 1
        assert not out.exists()

    def test_sweep_deadline_overflow_is_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", "deadline", "--values", "1e308", "--num-scbs", "2",
                     "--num-files", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "macp: error: file 0: demand * deadline summed over the areas is not finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"seed": "x"}, "ScenarioConfig: field 'seed' must be int, got 'x'"),
        ([1, 2], "ScenarioConfig: expected a JSON object, got list"),
    ])
    def test_sweep_config_of_wrong_type_is_one_line_error(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", str(cfg), "--axis", "cache_size", "--values", "1",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"macp: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ScenarioConfig)
                                       if type(f.default) is float])
    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_non_finite_config_float_is_one_line_error(self, tmp_path, capsys, command, field,
                                                       value):
        out = tmp_path / "out"
        argv = [command, "--num-scbs", "2", "--num-files", "3", "--out", str(out)]
        if command == "sweep":
            argv += ["--axis", "cache_size", "--values", "1"]
        # ``--flag=-inf``: argparse reads a bare ``-inf`` as an option
        assert main(argv + [f"--{field.replace('_', '-')}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("macp: error: ") and captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--rate-high", "inf"], "rate_high must be finite, got inf"),
        (["--zipf-shape", "nan"], "zipf_shape must be finite, got nan"),
        (["--cache-size", str(10**20)],
         f"cache_size value {10**20} is outside the 64-bit integer range"),
        (["--config", {"cost_backhaul": 10**400}],
         "cost_backhaul must be finite and non-negative, got inf"),
        (["--config", {"rate_low": 10**400}], "rate_low holds an integer beyond the float range"),
    ])
    def test_config_value_out_of_range_names_the_field(self, tmp_path, capsys, argv, message):
        if argv[0] == "--config":
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(argv[1]))
            argv = ["--config", str(cfg)]
        out = tmp_path / "inst.json"
        assert main(["generate", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"macp: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"num_files": 0}, "num_files must be positive, got 0"),
        ({"cache_size": [-1, 1]}, "cache sizes must be non-negative"),
        ({"cost_scbs_tx": [0.0]}, "cost_scbs_tx must have shape (2,), got (1,)"),
        ({"cost_scbs_tx": [2.0, 0.0]}, "SCBS transmission cost may not exceed the MBS cost"),
        ({"cost_scbs_tx": [float("nan"), 0.0]},
         "SCBS transmission costs must be finite and non-negative"),
        ({"cost_backhaul": float("inf")}, "cost_backhaul must be finite and non-negative, got inf"),
        ({"cost_mbs_tx": -1.0}, "cost_mbs_tx must be finite and non-negative, got -1.0"),
        ({"deadline": 10**400}, "deadline must be finite and positive, got inf"),
        ({"deadline": float("inf")}, "deadline must be finite and positive, got inf"),
        ({"deadline": 0.0}, "deadline must be finite and positive, got 0.0"),
        ({"cost_backhaul": 1e308, "cost_mbs_tx": 1e308},
         "num_files * (cost_backhaul + cost_mbs_tx + sum of cost_scbs_tx) is not finite"),
    ])
    def test_instance_and_decision_refuse_a_bad_cell_field_alike(self, tmp_path, capsys,
                                                                 instance_file, change, message):
        decision = spp_to_macdp(SppInstance(frozenset({1, 2}), (frozenset({1}), frozenset({2})), 1))
        runs = [(json.loads(instance_file.read_text()), ["solve"]),
                (decision.to_dict(), ["decide", "--problem", "macdp"])]
        for data, command in runs:
            assert data["num_scbs"] == 2
            path, out = tmp_path / "input.json", tmp_path / "out.json"
            path.write_text(json.dumps({**data, **change}))
            assert main([command[0], str(path), *command[1:], "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"macp: error: {message}\n"
            assert not out.exists()


def _bumped(value):
    """A valid config value other than ``value``, of its type."""
    return value + (1 if isinstance(value, int) else 0.5)


@pytest.mark.parametrize("field", dataclasses.fields(ScenarioConfig), ids=lambda f: f.name)
@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_every_config_field_has_a_flag_that_overrides_the_file(tmp_path, command, field):
    in_file = _bumped(field.default)
    on_flag = _bumped(in_file)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({field.name: in_file}))
    argv = [command, "--config", str(cfg)]
    if command == "sweep":
        argv += ["--axis", "cache_size", "--values", "1"]
    flag = "--" + field.name.replace("_", "-")
    assert getattr(_scenario_config(build_parser().parse_args(argv)), field.name) == in_file
    config = _scenario_config(build_parser().parse_args(argv + [flag, str(on_flag)]))
    assert getattr(config, field.name) == on_flag
    assert type(getattr(config, field.name)) is type(field.default)


class TestParserReuse:
    def test_one_parser_gives_the_outputs_of_fresh_ones(self, tmp_path, capsys, instance_file):
        dec = tmp_path / "dec.json"
        dec.write_text(spp_to_macdp(SppInstance(
            frozenset({1, 2, 3}), (frozenset({1}), frozenset({1, 2}), frozenset({2, 3})), 2
        )).to_json())
        commands = [
            ["solve", str(instance_file), "--algorithm", "exact", "--out", "exact.json",
             "--report", "exact.report.json"],
            ["solve", str(instance_file), "--out", "plain.json", "--report", "plain.report.json"],
            ["decide", str(dec)],
            ["decide", str(dec), "--problem", "macdp", "--out", "macdp.json"],
        ]

        def run(directory, fresh):
            directory.mkdir()
            results = []
            for argv in commands:
                if fresh:
                    build_parser.cache_clear()
                argv = [str(directory / a) if a.endswith(".json") and "/" not in a else a
                        for a in argv]
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
                captured = capsys.readouterr()
                results.append((rc, captured.out, captured.err))
            files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
            return results, files

        shared = run(tmp_path / "shared", fresh=False)
        assert build_parser() is build_parser()
        fresh = run(tmp_path / "fresh", fresh=True)
        assert shared == fresh
        (exact_rc, _, _), (plain_rc, _, _), (bare_rc, _, bare_err), (macdp_rc, _, _) = shared[0]
        assert (exact_rc, plain_rc, bare_rc, macdp_rc) == (0, 0, 2, 0)
        assert "the following arguments are required: --problem" in bare_err
        assert json.loads(shared[1]["exact.report.json"])["algorithm"] == "exact"
        assert json.loads(shared[1]["plain.report.json"])["algorithm"] == "greedy"
        assert json.loads(shared[1]["macdp.json"])["answer"] is True


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "inst.json"
        proc = subprocess.run(
            [sys.executable, "-m", "macp.cli", "generate", "--num-scbs", "2",
             "--num-files", "4", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert Instance.from_json(out.read_text()).num_scbs == 2

    def test_package_invocation(self, tmp_path):
        out = tmp_path / "inst.json"
        proc = subprocess.run(
            [sys.executable, "-m", "macp", "generate", "--num-scbs", "3",
             "--num-files", "4", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert Instance.from_json(out.read_text()).num_scbs == 3
        proc = subprocess.run([sys.executable, "-m", "macp", "solve", str(tmp_path / "missing.json")],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("macp: error: ")
