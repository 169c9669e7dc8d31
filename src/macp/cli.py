"""Command-line entry point.

Subcommands: generate, solve, evaluate, simulate, reduce, decide, sweep.
Configuration can come from JSON files, command-line flags, or both;
flags override file values.  All outputs are deterministic for a fixed
seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import typing
from pathlib import Path

from .cost import cost_bruteforce, cost_closed_form, cost_unicast
from .errors import CapacityError
from .model import CachingPolicy, Instance
from .reduction import DecisionInstance, SppInstance, macdp_decide, spp_decide, spp_to_macdp
from .scenario import (
    SWEEP_AXES,
    ScenarioConfig,
    generate_scenario,
    sweep,
    sweep_csv,
    cost_reduction_summary,
)
from .sim import MODES, SimConfig, simulate
from .solvers import DEFAULT_POLICY_CAP, SolverReport, exact_optimal, greedy_macp, popularity_placement


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    """``--config`` and one ``--field-name`` flag per ``ScenarioConfig`` field."""
    parser.add_argument("--config", type=Path, help="scenario config JSON file")
    types = typing.get_type_hints(ScenarioConfig)
    for field in dataclasses.fields(ScenarioConfig):
        flag = "--" + field.name.replace("_", "-")
        parser.add_argument(flag, type=types[field.name], dest=field.name, default=None)


def _scenario_config(args: argparse.Namespace) -> ScenarioConfig:
    data = json.loads(args.config.read_text()) if args.config is not None else {}
    if isinstance(data, dict):  # anything else fails ScenarioConfig's own check
        data.update({f.name: v for f in dataclasses.fields(ScenarioConfig)
                     if (v := getattr(args, f.name)) is not None})
    return ScenarioConfig.from_dict(data)


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _load_instance(path: Path) -> Instance:
    return Instance.from_json(Path(path).read_text())


def _load_policy(path: Path) -> CachingPolicy:
    return CachingPolicy.from_json(Path(path).read_text())


def _cmd_generate(args) -> int:
    instance = generate_scenario(_scenario_config(args))
    _emit(instance.to_json(), args.out)
    return 0


def _cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    if args.algorithm == "greedy":
        report = greedy_macp(instance)
    elif args.algorithm == "popularity":
        report = SolverReport(popularity_placement(instance), (), 0)
    else:
        report = exact_optimal(instance, max_policies=args.max_policies)
    _emit(report.policy.to_json(), args.out)
    if args.report is not None:
        info = {
            "algorithm": args.algorithm,
            "objective": cost_closed_form(instance, report.policy).total,
            "evaluations": report.evaluations,
            "trace": [list(entry) for entry in report.trace],
        }
        _emit(json.dumps(info, indent=2, sort_keys=True), args.report)
    return 0


def _cmd_evaluate(args) -> int:
    instance = _load_instance(args.instance)
    policy = _load_policy(args.policy)
    evaluator = {
        "closed-form": cost_closed_form,
        "brute-force": cost_bruteforce,
        "unicast": cost_unicast,
    }[args.evaluator]
    _emit(evaluator(instance, policy).to_json(), args.out)
    return 0


def _cmd_simulate(args) -> int:
    instance = _load_instance(args.instance)
    policy = _load_policy(args.policy)
    config = SimConfig(periods=args.periods, mode=args.mode, seed=args.seed)
    report = simulate(instance, policy, config, trace_path=args.trace)
    _emit(report.to_json(), args.out)
    return 0


def _cmd_reduce(args) -> int:
    spp = SppInstance.from_json(Path(args.spp).read_text())
    _emit(spp_to_macdp(spp).to_json(), args.out)
    return 0


def _cmd_decide(args) -> int:
    text = Path(args.input).read_text()
    if args.problem == "spp":
        answer, witness = spp_decide(SppInstance.from_json(text))
        payload = {"answer": answer, "witness": list(witness) if witness is not None else None}
    else:
        answer, policy = macdp_decide(DecisionInstance.from_json(text))
        payload = {
            "answer": answer,
            "witness": policy.placement.tolist() if policy is not None else None,
        }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_sweep(args) -> int:
    config = _scenario_config(args)
    values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    sim_config = None
    if args.simulate:
        sim_config = SimConfig(periods=args.periods, mode="multicast", seed=0)
    result = sweep(
        config,
        axis=args.axis,
        values=values,
        replications=args.replications,
        sim_config=sim_config,
    )
    _emit(sweep_csv(result), args.out)
    if args.out is not None:
        summary = cost_reduction_summary(result)
        summary["master_seed"] = config.seed
        sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``macp`` argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="macp",
        description="Multicast-aware cache placement: generate, solve, evaluate, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a random scenario instance")
    _add_scenario_flags(p)
    p.add_argument("--out", type=Path, help="instance JSON output (default stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="compute a caching policy for an instance")
    p.add_argument("instance", type=Path)
    p.add_argument(
        "--algorithm", choices=("greedy", "popularity", "exact"), default="greedy"
    )
    p.add_argument("--max-policies", type=int, default=DEFAULT_POLICY_CAP)
    p.add_argument("--out", type=Path, help="policy JSON output (default stdout)")
    p.add_argument("--report", type=Path, help="solver report JSON output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("evaluate", help="expected cost of a policy on an instance")
    p.add_argument("instance", type=Path)
    p.add_argument("policy", type=Path)
    p.add_argument(
        "--evaluator",
        choices=("closed-form", "brute-force", "unicast"),
        default="closed-form",
    )
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("simulate", help="Monte Carlo replay of the request process")
    p.add_argument("instance", type=Path)
    p.add_argument("policy", type=Path)
    p.add_argument("--mode", choices=MODES, default="multicast")
    p.add_argument("--periods", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=Path, help="per-period CSV trace output")
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reduce", help="encode a set packing question as a caching decision")
    p.add_argument("spp", type=Path)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("decide", help="exhaustively answer a decision instance")
    p.add_argument("input", type=Path)
    p.add_argument("--problem", choices=("spp", "macdp"), required=True)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("sweep", help="scheme comparison across one parameter axis")
    _add_scenario_flags(p)
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--replications", type=int, default=1)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--simulate", action="store_true", help="also run Monte Carlo per row")
    group.add_argument("--analytic-only", action="store_true", help="analytic costs only (default)")
    p.add_argument("--periods", type=int, default=10_000, help="periods per simulated row")
    p.add_argument("--out", type=Path, help="CSV output (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, CapacityError, MemoryError) as exc:
        # malformed or unreadable input, an exhaustive search over its cap, or
        # an array too large to allocate (a huge period count): one line, no traceback
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
