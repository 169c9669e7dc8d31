"""Spans around the macp layers, recorded from outside the package.

``Tracer.install`` replaces each public function of ``macp.cli`` and
``macp.scenario`` (the modules that call into the other layers), and the
(de)serialisation and probability methods of the data classes, with a
wrapper that appends a span: name, layer, start, end and parent, in CPU
seconds of the process, the clock ``run.py`` times passes with.  Spans
stay in memory; ``layer_metrics`` turns them into the per-layer numbers.
``uninstall`` puts the original objects back, so untraced passes run the
program exactly as shipped.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import macp.cli
import macp.cost
import macp.model
import macp.reduction
import macp.scenario
import macp.sim

LAYERS = ("cli", "model", "scenario", "solvers", "cost", "sim", "reduction")
# Modules whose global names are the import sites of the other layers.
CALL_SITES = (macp.cli, macp.scenario)
METHODS = (
    (macp.model.Instance, ("from_json", "to_json", "request_probabilities")),
    (macp.model.CachingPolicy, ("from_json", "to_json", "check_feasible")),
    (macp.cost.CostBreakdown, ("to_json",)),
    (macp.sim.SimReport, ("to_json",)),
    (macp.reduction.SppInstance, ("from_json", "to_json")),
    (macp.reduction.DecisionInstance, ("from_json", "to_json")),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _simulate_info(args, kwargs, result) -> dict:
    instance = _arg(args, kwargs, 0, "instance")
    config = _arg(args, kwargs, 2, "config")
    cells = (instance.num_scbs + 1) * instance.num_files
    batch = getattr(macp.sim, "_BATCH", 0)
    return {"mode": config.mode, "periods": config.periods,
            "draws": config.periods * cells,
            "batch_bytes": 8 * cells * min(batch, config.periods)}


def _macdp_info(args, kwargs, result) -> dict:
    decision = _arg(args, kwargs, 0, "decision")
    files = decision.num_files
    space = math.prod(
        sum(math.comb(files, k) for k in range(min(int(s), files) + 1))
        for s in decision.cache_size
    )
    return {"answer": bool(result[0]), "assignments": space}


INFO = {
    "greedy_macp": lambda args, kwargs, result: {"iterations": len(result.trace),
                                                 "evaluations": result.evaluations},
    "exact_optimal": lambda args, kwargs, result: {"policies": result.evaluations},
    "simulate": _simulate_info,
    "macdp_decide": _macdp_info,
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__qualname__.rsplit('.', 1)[-1]}"
        info = INFO.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, layer, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.process_time()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr: str, layer: str) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, layer))
        else:
            new = self._wrap(raw, layer)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        for site in CALL_SITES:
            for attr, obj in list(vars(site).items()):
                module = getattr(obj, "__module__", "") or ""
                if callable(obj) and not isinstance(obj, type) and not attr.startswith("_") \
                        and module.startswith("macp."):
                    self._replace(site, attr, module.split(".")[1])
        for cls, names in METHODS:
            for attr in names:
                self._replace(cls, attr, cls.__module__.split(".")[1])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def _total(spans, name: str, **match) -> float:
    return sum(s.seconds for s in spans
               if s.name == name and all(s.info.get(k) == v for k, v in match.items()))


def _count(spans, name: str, key: str) -> int:
    return sum(s.info.get(key, 0) for s in spans if s.name == name)


def layer_metrics(spans: list[Span], cpu: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass that took ``cpu`` CPU seconds.

    A span's self time is its duration minus its children's; a layer's self
    time sums its spans' self times, and ``bench.self_s`` is the part of the
    pass outside every span.  Layers the workload never calls read 0.
    """
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.seconds
    self_time = {layer: 0.0 for layer in LAYERS}
    sweep_self = 0.0
    for s, inner in zip(spans, children):
        self_time[s.layer] += s.seconds - inner
        if s.name == "scenario.sweep":
            sweep_self += s.seconds - inner
    covered = sum(s.seconds for s in spans if s.parent is None)

    metrics = {f"{layer}.self_s": self_time[layer] for layer in LAYERS}
    metrics["bench.self_s"] = cpu - covered
    metrics["trace.spans"] = len(spans)
    metrics["trace.accounted_share"] = sum(self_time.values()) / cpu

    greedy = _total(spans, "solvers.greedy_macp")
    iterations = _count(spans, "solvers.greedy_macp", "iterations")
    metrics["solvers.greedy_macp.s"] = greedy
    metrics["solvers.greedy_macp.s_per_iteration"] = greedy / iterations if iterations else 0.0
    metrics["solvers.greedy_macp.evaluations"] = _count(spans, "solvers.greedy_macp", "evaluations")
    metrics["solvers.exact_optimal.s"] = _total(spans, "solvers.exact_optimal")
    metrics["solvers.exact_optimal.policies"] = _count(spans, "solvers.exact_optimal", "policies")
    metrics["solvers.popularity_placement.s"] = _total(spans, "solvers.popularity_placement")

    metrics["cost.cost_closed_form.s"] = _total(spans, "cost.cost_closed_form")
    metrics["cost.cost_closed_form.calls"] = sum(s.name == "cost.cost_closed_form" for s in spans)
    metrics["cost.cost_unicast.s"] = _total(spans, "cost.cost_unicast")

    for mode in ("multicast", "unicast"):
        seconds = _total(spans, "sim.simulate", mode=mode)
        periods = sum(s.info["periods"] for s in spans
                      if s.name == "sim.simulate" and s.info["mode"] == mode)
        metrics[f"sim.simulate.{mode}.s"] = seconds
        metrics[f"sim.periods_per_s.{mode}"] = periods / seconds if seconds else 0.0
    metrics["sim.draws"] = _count(spans, "sim.simulate", "draws")
    metrics["sim.batch_bytes"] = max(
        (s.info["batch_bytes"] for s in spans if s.name == "sim.simulate"), default=0)

    metrics["reduction.macdp_decide.s.yes"] = _total(spans, "reduction.macdp_decide", answer=True)
    metrics["reduction.macdp_decide.s.no"] = _total(spans, "reduction.macdp_decide", answer=False)
    metrics["reduction.macdp_decide.assignments"] = _count(
        spans, "reduction.macdp_decide", "assignments")
    metrics["reduction.spp_decide.s"] = _total(spans, "reduction.spp_decide")
    metrics["reduction.spp_to_macdp.s"] = _total(spans, "reduction.spp_to_macdp")

    metrics["scenario.generate_scenario.s"] = _total(spans, "scenario.generate_scenario")
    metrics["scenario.sweep.self_s"] = sweep_self
    metrics["scenario.sweep_csv.s"] = _total(spans, "scenario.sweep_csv")
    metrics["model.json_s"] = sum(s.seconds for s in spans if s.layer == "model"
                                  and s.name.endswith("_json"))
    return metrics
