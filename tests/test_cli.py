import json
import subprocess
import sys

import numpy as np
import pytest

from macp import CachingPolicy, Instance, SppInstance, cost_closed_form, spp_to_macdp
from macp.cli import build_parser, main
from helpers import motivating_instance, motivating_optimal_policy


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
