"""The benchmark workloads, as CLI commands over generated inputs.

A workload turns the benchmark seed into input files (``setup``) and into
the list of ``macp`` commands that make up one pass (``ops``).  Every op
carries a check of the files it wrote; checks run after the timed pass and
use the library's public API plus small oracles written here.  Why each
workload exists, and which layer it stresses, is in ``METRICS.md``.

``run.py`` puts the repository's ``src`` directory on ``sys.path`` before
importing this module.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from macp import (
    CachingPolicy,
    Instance,
    SppInstance,
    cost_closed_form,
    cost_unicast,
    packing_from_policy,
)

SWEEP_GRIDS = {
    "cache_size": "10,20,30,40,50,60,70,80,90",
    "zipf_shape": "0.2,0.4,0.6,0.8,1.0,1.2,1.4,1.6",
    "deadline": "1.0,2.0,5.0,10.0,20.0,50.0",
}
SWEEP_REPLICATIONS = 5
SCHEMES = ("PAC-UT", "PAC-MT", "MAC-MT")
SIM_SHAPE = (14, 100, 20)
SIM_PERIODS = 100_000
MODES = ("multicast", "unicast")
# Random set packing questions: ELEMENTS elements, SUBSETS subsets each,
# drawn until the maximum packing is PACKING.  A NO answer scans all
# (SUBSETS + 1) ** ELEMENTS unit-cache assignments; fixing the packing keeps
# how far each assignment's cost sum runs alike across seeds.
SPP_RANDOM = 64
SPP_ELEMENTS = 5
SPP_SUBSETS = 6
SPP_PACKING = 2
# Even cycles whose target exceeds the maximum packing: NO after a full scan.
SPP_CYCLES = 2
SPP_CYCLE_LENGTH = 6
TINY_SHAPE = (3, 8, 2)
# every placement of at most 2 of 8 files in each of 3 caches
TINY_POLICIES = sum(math.comb(8, k) for k in range(3)) ** 3
TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sub_seed(seed: int, *key: int) -> int:
    """Independent 32-bit seed for one input, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1, np.uint32)[0])


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def close(a: float, b: float, rel: float = TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


@dataclass
class Op:
    """One ``macp`` command of a pass.

    ``group`` names the op for timing and for the drift digests, which hash
    ``outputs`` of all ops in a group; ``work`` is what the op adds to the
    workload's ``ops_per_s`` (zero keeps it out of that rate).
    """

    group: str
    argv: list[str]
    check: Callable[[], None] | None = None
    work: int = 0
    outputs: tuple[Path, ...] = ()


class Workload:
    name = ""
    unit = ""  # what ops_per_s counts

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def path(self, name: str) -> Path:
        return self.work / name

    def setup(self, cli_main) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check_setup(self) -> None:
        """Check the outputs of ``setup``; runs after setup timing."""

    def probe_ops(self) -> list[Op]:
        """Extra commands the traced run times outside the pass."""
        return []

    def counts(self) -> dict:
        """Deterministic per-seed numbers read from the last pass's outputs."""
        return {}


def _load_instance(path: Path) -> Instance:
    return Instance.from_json(path.read_text())


def _load_policy(path: Path) -> CachingPolicy:
    return CachingPolicy.from_json(path.read_text())


def _check_full(instance: Instance, policy: CachingPolicy) -> None:
    policy.check_feasible(instance)
    fill = policy.placement.sum(axis=1)
    require(
        bool((fill == instance.cache_size).all()),
        f"caches not full: fill {fill.tolist()} vs sizes {instance.cache_size.tolist()}",
    )


def _check_report(instance: Instance, policy: CachingPolicy, report: dict) -> float:
    expect = cost_closed_form(instance, policy).total
    require(
        close(report["objective"], expect),
        f"report objective {report['objective']!r} != cost_closed_form {expect!r}",
    )
    return expect


def _check_greedy(inst_path: Path, policy_path: Path, report_path: Path) -> float:
    """Full, feasible caches; the objective and trace agree with the closed form."""
    instance = _load_instance(inst_path)
    policy = _load_policy(policy_path)
    report = json.loads(report_path.read_text())
    _check_full(instance, policy)
    objective = _check_report(instance, policy, report)
    trace = report["trace"]
    require(len(trace) == int(instance.cache_size.sum()), "greedy trace length != cache budget")
    values = [entry[3] for entry in trace]
    require(all(b <= a + TOL for a, b in zip(values, values[1:])), "greedy trace not monotone")
    require(close(values[-1], objective), "greedy trace ends off the closed-form objective")
    require(report["evaluations"] > 0, "greedy reports no evaluations")
    return objective


def _read_sweep(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text())))


def _mean_costs(rows: list[dict]) -> dict[str, list[float]]:
    """Replication-averaged analytic cost per scheme, in axis order."""
    sums: dict[tuple[str, str], list[float]] = {}
    order: list[str] = []
    for r in rows:
        if r["value"] not in order:
            order.append(r["value"])
        sums.setdefault((r["scheme"], r["value"]), []).append(float(r["analytic_cost"]))
    return {s: [sum(sums[s, v]) / len(sums[s, v]) for v in order] for s in SCHEMES}


def _non_increasing(values: list[float]) -> bool:
    return all(b <= a + TOL for a, b in zip(values, values[1:]))


def _trend_cache_size(means: dict) -> None:
    require(all(_non_increasing(means[s]) for s in SCHEMES), "7a: a cost rises with cache size")


def _trend_zipf_shape(means: dict) -> None:
    require(all(_non_increasing(means[s]) for s in SCHEMES), "7b: a cost rises with zipf shape")
    mac = means["MAC-MT"]
    for base in ("PAC-UT", "PAC-MT"):
        gaps = [abs(b - m) for b, m in zip(means[base], mac)]
        require(gaps[-1] < gaps[0], f"7b: MAC-MT gap to {base} does not shrink")


def _trend_deadline(means: dict) -> None:
    ut = means["PAC-UT"]
    for scheme in ("PAC-MT", "MAC-MT"):
        gaps = [u - m for u, m in zip(ut, means[scheme])]
        require(all(b >= a - TOL for a, b in zip(gaps, gaps[1:])),
                f"7c: unicast gap to {scheme} narrows with deadline")


class PaperSweep(Workload):
    """The acceptance scheme-comparison sweeps, analytic costs only."""

    name = "paper-sweep"
    unit = "sweep points/s"
    trends = {"cache_size": _trend_cache_size, "zipf_shape": _trend_zipf_shape,
              "deadline": _trend_deadline}

    def setup(self, cli_main) -> None:
        self.path("config.json").write_text(json.dumps({"seed": sub_seed(self.seed, 2)}) + "\n")

    def ops(self) -> list[Op]:
        ops = []
        for axis, values in SWEEP_GRIDS.items():
            out = self.path(f"sweep-{axis}.csv")
            points = len(values.split(",")) * SWEEP_REPLICATIONS
            ops.append(Op(
                f"sweep {axis}",
                ["sweep", "--config", str(self.path("config.json")), "--axis", axis,
                 "--values", values, "--replications", str(SWEEP_REPLICATIONS),
                 "--analytic-only", "--out", str(out)],
                lambda axis=axis, out=out, points=points: self._check(axis, out, points),
                work=points, outputs=(out,)))
        return ops

    def _check(self, axis: str, out: Path, points: int) -> None:
        rows = _read_sweep(out)
        require(len(rows) == 3 * points, f"{out.name}: {len(rows)} rows, expected {3 * points}")
        require(all(r["axis"] == axis and r["sim_cost"] == "" for r in rows),
                f"{out.name}: wrong axis or simulated columns filled")
        require([r["scheme"] for r in rows] == list(SCHEMES) * points, f"{out.name}: scheme order")
        costs = [float(r["analytic_cost"]) for r in rows]
        require(all(math.isfinite(c) and c > 0 for c in costs), f"{out.name}: bad analytic cost")
        seeds = {(r["replication"], r["seed"]) for r in rows}
        require(len(seeds) == SWEEP_REPLICATIONS, f"{out.name}: replication seeds inconsistent")
        self.trends[axis](_mean_costs(rows))

    def counts(self) -> dict:
        violations = rows = 0
        for axis in SWEEP_GRIDS:
            table = _read_sweep(self.path(f"sweep-{axis}.csv"))
            rows += len(table)
            means = _mean_costs(table)
            for ut, mt, mac in zip(means["PAC-UT"], means["PAC-MT"], means["MAC-MT"]):
                violations += (mt > ut + TOL) + (mac > mt + TOL)
        return {"sweep_points": rows // 3, "sweep_rows": rows, "scheme_order_violations": violations}


class SimValidate(Workload):
    """Monte Carlo check of the greedy placement, in both delivery modes."""

    name = "sim-validate"
    unit = "simulated periods/s"

    def setup(self, cli_main) -> None:
        n, i, s = SIM_SHAPE
        cli_main([
            "generate", "--num-scbs", str(n), "--num-files", str(i), "--cache-size", str(s),
            "--seed", str(sub_seed(self.seed, 3)), "--out", str(self.path("inst.json")),
        ])
        cli_main(["solve", str(self.path("inst.json")), "--algorithm", "greedy",
                  "--out", str(self.path("policy.json")),
                  "--report", str(self.path("policy.report.json"))])

    def check_setup(self) -> None:
        _check_greedy(self.path("inst.json"), self.path("policy.json"),
                      self.path("policy.report.json"))

    def _simulate(self, mode: str, out: str, trace: bool) -> list[str]:
        argv = ["simulate", str(self.path("inst.json")), str(self.path("policy.json")),
                "--mode", mode, "--periods", str(SIM_PERIODS),
                "--seed", str(sub_seed(self.seed, 3, MODES.index(mode))),
                "--out", str(self.path(out))]
        if trace:
            argv += ["--trace", str(self.path("trace.csv"))]
        return argv

    def ops(self) -> list[Op]:
        return [
            Op("simulate multicast", self._simulate("multicast", "sim-multicast.json", True),
               self._check_multicast, work=SIM_PERIODS,
               outputs=(self.path("sim-multicast.json"), self.path("trace.csv"))),
            Op("simulate unicast", self._simulate("unicast", "sim-unicast.json", False),
               lambda: self._check_mean("sim-unicast.json", cost_unicast), work=SIM_PERIODS,
               outputs=(self.path("sim-unicast.json"),)),
        ]

    def probe_ops(self) -> list[Op]:
        """The multicast command without its trace file, at the same seed."""
        return [Op("simulate multicast untraced",
                   self._simulate("multicast", "sim-multicast-untraced.json", False),
                   lambda: require(
                       json.loads(self.path("sim-multicast-untraced.json").read_text())
                       == json.loads(self.path("sim-multicast.json").read_text()),
                       "writing the trace changed the multicast report"))]

    def _check_mean(self, out: str, evaluator) -> dict:
        report = json.loads(self.path(out).read_text())
        instance = _load_instance(self.path("inst.json"))
        analytic = evaluator(instance, _load_policy(self.path("policy.json"))).total
        require(report["periods"] == SIM_PERIODS, f"{out}: wrong period count")
        require(report["std_error"] > 0, f"{out}: zero standard error")
        gap = abs(report["mean_cost_per_period"] - analytic)
        require(gap <= 4 * report["std_error"],
                f"{out}: mean {report['mean_cost_per_period']!r} is "
                f"{gap / report['std_error']:.2f} stderr from {evaluator.__name__} {analytic!r}")
        return report

    def _check_multicast(self) -> None:
        report = self._check_mean("sim-multicast.json", cost_closed_form)
        lines = self.path("trace.csv").read_text().splitlines()
        require(len(lines) == SIM_PERIODS + 1, f"trace has {len(lines)} lines, expected periods + 1")
        require(lines[0] == "period,cost,mbs_tx,scbs_tx,unicast_tx", "trace header")
        table = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
        require(bool((table[:, 0] == np.arange(SIM_PERIODS)).all()), "trace period column")
        require(close(table[:, 1].mean(), report["mean_cost_per_period"]),
                "trace costs do not average to the report mean")
        require(int(table[:, 2].sum()) == report["mbs_transmissions"], "trace mbs_tx total")
        require(int(table[:, 3].sum()) == report["scbs_transmissions"], "trace scbs_tx total")

    def counts(self) -> dict:
        n, i, _ = SIM_SHAPE
        return {"periods": 2 * SIM_PERIODS, "poisson_draws": 2 * SIM_PERIODS * (n + 1) * i}


def max_packing(subsets: list[frozenset]) -> int:
    """Largest number of pairwise-disjoint subsets, by trying every selection."""
    for size in range(len(subsets), 0, -1):
        for combo in itertools.combinations(subsets, size):
            if sum(len(s) for s in combo) == len(frozenset().union(*combo)):
                return size
    return 0


def _random_subsets(rng: np.random.Generator) -> list[frozenset]:
    while True:
        subsets = []
        while len(subsets) < SPP_SUBSETS:
            members = frozenset(int(e) for e in np.flatnonzero(rng.random(SPP_ELEMENTS) < 0.4))
            if members:
                subsets.append(members)
        if max_packing(subsets) == SPP_PACKING:
            return subsets


def _cycle_subsets(rng: np.random.Generator) -> list[frozenset]:
    labels = rng.permutation(SPP_CYCLE_LENGTH).tolist()
    edges = [frozenset({labels[j], labels[(j + 1) % SPP_CYCLE_LENGTH]})
             for j in range(SPP_CYCLE_LENGTH)]
    return [edges[j] for j in rng.permutation(SPP_CYCLE_LENGTH)]


class Hardness(Workload):
    """Set packing questions through the reduction, and exhaustive solves."""

    name = "hardness"
    unit = "macdp decisions/s"

    def setup(self, cli_main) -> None:
        rng = np.random.default_rng(sub_seed(self.seed, 4))
        answers = []
        for k in range(SPP_RANDOM + SPP_CYCLES):
            if k < SPP_RANDOM:
                subsets = _random_subsets(rng)
                best = SPP_PACKING
                # alternate YES (target reachable) and NO (one more than reachable)
                target = best + k % 2
                elements = range(SPP_ELEMENTS)
            else:
                subsets = _cycle_subsets(rng)
                target = SPP_CYCLE_LENGTH // 2 + 1
                best = SPP_CYCLE_LENGTH // 2
                elements = range(SPP_CYCLE_LENGTH)
            spp = SppInstance(frozenset(elements), tuple(subsets), target)
            self.path(f"spp-{k}.json").write_text(spp.to_json() + "\n")
            answers.append(target <= best)
        self.path("oracle.json").write_text(json.dumps(answers) + "\n")
        n, i, s = TINY_SHAPE
        cli_main([
            "generate", "--num-scbs", str(n), "--num-files", str(i), "--cache-size", str(s),
            "--seed", str(sub_seed(self.seed, 4, 1)), "--out", str(self.path("tiny.json")),
        ])

    def ops(self) -> list[Op]:
        ops = []
        for k in range(SPP_RANDOM + SPP_CYCLES):
            spp, dec = self.path(f"spp-{k}.json"), self.path(f"decision-{k}.json")
            macdp, answer = self.path(f"macdp-{k}.json"), self.path(f"spp-{k}.answer.json")
            ops += [
                Op("reduce", ["reduce", str(spp), "--out", str(dec)],
                   lambda k=k: self._check_reduction(k), outputs=(dec,)),
                Op("decide macdp", ["decide", str(dec), "--problem", "macdp", "--out", str(macdp)],
                   work=1, outputs=(macdp,)),
                Op("decide spp", ["decide", str(spp), "--problem", "spp", "--out", str(answer)],
                   lambda k=k: self._check_answers(k), outputs=(answer,)),
            ]
        tiny = str(self.path("tiny.json"))
        exact, greedy = self.path("exact.json"), self.path("tiny-greedy.json")
        ops += [
            Op("solve exact", ["solve", tiny, "--algorithm", "exact", "--out", str(exact),
                               "--report", str(self.path("exact.report.json"))],
               outputs=(exact,)),
            Op("solve greedy tiny", ["solve", tiny, "--algorithm", "greedy", "--out", str(greedy),
                                     "--report", str(self.path("tiny-greedy.report.json"))],
               self._check_exact, outputs=(greedy,)),
        ]
        return ops

    def _spp(self, k: int) -> SppInstance:
        return SppInstance.from_json(self.path(f"spp-{k}.json").read_text())

    def _check_reduction(self, k: int) -> None:
        spp = self._spp(k)
        dec = json.loads(self.path(f"decision-{k}.json").read_text())
        require(dec["num_scbs"] == len(spp.elements) and dec["num_files"] == len(spp.subsets),
                f"decision-{k}: wrong shape")
        require(close(dec["threshold"], 1.0 - spp.target / len(spp.subsets)),
                f"decision-{k}: wrong threshold")

    def _check_answers(self, k: int) -> None:
        spp = self._spp(k)
        expect = json.loads(self.path("oracle.json").read_text())[k]
        macdp = json.loads(self.path(f"macdp-{k}.json").read_text())
        answer = json.loads(self.path(f"spp-{k}.answer.json").read_text())
        require(macdp["answer"] == answer["answer"] == expect,
                f"spp-{k}: macdp {macdp['answer']}, spp {answer['answer']}, oracle {expect}")
        if not expect:
            return
        picked = [spp.subsets[j] for j in answer["witness"]]
        require(len(picked) == spp.target and max_packing(picked) == len(picked),
                f"spp-{k}: spp witness is not a packing of the target size")
        packing = packing_from_policy(spp, CachingPolicy(macdp["witness"]))
        chosen = [spp.subsets[j] for j in packing]
        require(len(packing) >= spp.target and max_packing(chosen) == len(chosen),
                f"spp-{k}: macdp witness does not pack the target")

    def _check_exact(self) -> None:
        instance = _load_instance(self.path("tiny.json"))
        report = json.loads(self.path("exact.report.json").read_text())
        exact = _check_report(instance, _load_policy(self.path("exact.json")), report)
        greedy = _check_greedy(self.path("tiny.json"), self.path("tiny-greedy.json"),
                               self.path("tiny-greedy.report.json"))
        require(exact <= greedy + TOL, f"exact {exact!r} worse than greedy {greedy!r}")
        require(report["evaluations"] == TINY_POLICIES,
                f"exact scanned {report['evaluations']} of {TINY_POLICIES} policies")

    def counts(self) -> dict:
        answers = json.loads(self.path("oracle.json").read_text())
        return {"macdp_decisions": len(answers), "yes_answers": sum(answers),
                "exact_policies": TINY_POLICIES}


WORKLOADS = {w.name: w for w in (PaperSweep, SimValidate, Hardness)}
