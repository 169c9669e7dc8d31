"""Experiment scenarios: zipf demand generation, the three delivery
schemes, and parameter sweeps with CSV output.

The three compared schemes are PAC-UT (popularity caching, unicast
delivery), PAC-MT (popularity caching, multicast delivery) and MAC-MT
(multicast-aware caching, multicast delivery; the greedy placement
improved by local search).  Scenario defaults are the evaluation setting:
14 SCBSs, 100 files, cache size 20, deadline 10 s, zipf shape 0.8, each
(SCBS, file) rate its zipf weight scaled by a draw uniform in [1, 10]
req/s, unit macro costs and free SCBS transmissions, no demand in the
macro-only area.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cost import _cached_split, _file_terms, _unicast_split
from .model import CachingPolicy, Instance, Record, numeric_array
from .sim import SimConfig, simulate
from .solvers import _greedy_runs, _popular, _search, _stack

SCHEMES = ("PAC-UT", "PAC-MT", "MAC-MT")
SWEEP_AXES = ("cache_size", "zipf_shape", "deadline")


@dataclass(frozen=True)
class ScenarioConfig(Record):
    """Random-scenario parameters; demand is drawn with numpy's PCG64 stream.

    Each (SCBS, file) rate is the file's zipf weight scaled by its own
    uniform draw in [``rate_low``, ``rate_high``], so each SCBS's
    popularity ranking is a noisy variant of the global one, which is what
    lets coordinated placement beat independent per-SCBS rankings.  This
    class checks only what the draws need; the cell fields (cache size,
    deadline and costs) are checked when ``generate_scenario`` builds the
    ``Instance``.
    """

    num_scbs: int = 14
    num_files: int = 100
    cache_size: int = 20
    deadline: float = 10.0
    zipf_shape: float = 0.8
    rate_low: float = 1.0
    rate_high: float = 10.0
    cost_backhaul: float = 1.0
    cost_mbs_tx: float = 1.0
    cost_scbs: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_scbs < 1 or self.num_files < 1:
            raise ValueError("need at least one SCBS and one file")
        for name in ("zipf_shape", "rate_low", "rate_high"):
            if not np.isfinite(numeric_array(name, getattr(self, name), np.float64)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.zipf_shape < 0:
            raise ValueError(f"zipf shape must be non-negative, got {self.zipf_shape}")
        if not 0 <= self.rate_low <= self.rate_high:
            raise ValueError("need 0 <= rate_low <= rate_high")


def zipf_weights(num_files: int, shape: float) -> np.ndarray:
    """Normalized zipf popularity over ranks 1..num_files (shape 0 = uniform)."""
    if num_files < 1:
        raise ValueError("num_files must be positive")
    if shape < 0:
        raise ValueError(f"zipf shape must be non-negative, got {shape}")
    ranks = np.arange(1, num_files + 1, dtype=np.float64)
    w = ranks ** -float(shape)
    return w / w.sum()


def generate_scenario(config: ScenarioConfig) -> Instance:
    """Draw a demand matrix per the config and assemble the instance.

    Every SCBS's rates follow the same zipf popularity ranking, each pair
    scaled by its own uniform draw.  The macro-only area generates no
    demand.  ``sweep`` builds its points from one draw per replication.
    """
    return _scenario(config, _draw(config, config.seed),
                     zipf_weights(config.num_files, config.zipf_shape))


def _draw(config: ScenarioConfig, seed: int) -> np.ndarray:
    """The (N, I) uniform rate scales drawn from ``seed``."""
    return np.random.default_rng(seed).uniform(config.rate_low, config.rate_high,
                                               size=(config.num_scbs, config.num_files))


def _scenario(config: ScenarioConfig, draw: np.ndarray, pop: np.ndarray) -> Instance:
    """The config's cell with SCBS rates ``draw`` scaled by the (I,) popularity ``pop``."""
    n, i = config.num_scbs, config.num_files
    return Instance(n, i, [config.cache_size] * n, config.cost_backhaul, config.cost_mbs_tx,
                    [config.cost_scbs] * n, np.vstack([np.zeros((1, i)), draw * pop[None, :]]),
                    config.deadline)


@dataclass(frozen=True)
class SchemeResult:
    """One scheme evaluated on one instance."""

    scheme: str
    policy: CachingPolicy
    analytic_cost: float
    sim_cost: float | None = None
    sim_stderr: float | None = None


def run_comparison(
    instance: Instance, sim_config: SimConfig | None = None
) -> list[SchemeResult]:
    """Evaluate PAC-UT, PAC-MT and MAC-MT on one instance.

    The two popularity schemes share a placement and differ only in the
    delivery metric.  MAC-MT's placement is ``greedy_macp``'s, improved by
    ``local_search``.  With ``sim_config`` set, each scheme is additionally
    simulated in its own delivery mode.  This is ``sweep``'s comparison of
    one instance: ``_comparisons`` of a batch of one.
    """
    popular, aware, costs = _comparisons([instance])
    popularity, multicast_aware = CachingPolicy(popular[0]), CachingPolicy(aware[0])
    simulated = _simulated(instance, popular[0], aware[0], sim_config)
    return [SchemeResult(scheme, policy, cost, *sim) for scheme, policy, cost, sim in zip(
        SCHEMES, (popularity, popularity, multicast_aware), costs[0].tolist(), simulated)]


def _comparisons(instances):
    """The schemes' placements and analytic costs of instances of one shape.

    Returns ``(popular, aware, costs)``: the (B, N, I) bool popularity and
    MAC-MT placements and the (B, 3) analytic costs in ``SCHEMES`` order.
    The batch is one ``_stack`` of objective inputs.  It gives the
    popularity costs first; then MAC-MT's greedy runs on it, and ``_search``
    uses it up, improving the greedy's placements in place, its objectives
    MAC-MT's costs.  Every value is its per-instance function's bit for
    bit: every step is elementwise or sums one instance's axis.
    """
    c_mbs, rate_mbs, rate, local_cost, sizes = stack = _stack(instances)
    popular = _popular(np.array([x.demand[1:] for x in instances]), sizes)
    costs = np.empty((len(instances), len(SCHEMES)))
    costs[:, 0] = _unicast_split(c_mbs[:, None], rate_mbs, rate, np.array(
        [x.cost_scbs_tx for x in instances]), popular)[0].sum(axis=1)
    costs[:, 1] = _file_terms(c_mbs[:, None], *_cached_split(rate_mbs, rate, local_cost,
                                                             popular)).sum(axis=1)
    aware, costs[:, 2] = _search(stack, _greedy_runs(stack)[0])
    return popular, aware, costs


def _simulated(instance, popular, aware, sim_config):
    """Each scheme's simulated ``(mean cost, std error)`` in its own delivery mode, or Nones.

    ``popular`` and ``aware`` are the popularity and MAC-MT placements.
    """
    if sim_config is None:
        return [(None, None)] * len(SCHEMES)
    runs = ((popular, "unicast"), (popular, "multicast"), (aware, "multicast"))
    reports = (simulate(instance, CachingPolicy(placed), dataclasses.replace(sim_config, mode=mode))
               for placed, mode in runs)
    return [(report.mean_cost_per_period, report.std_error) for report in reports]


@dataclass(frozen=True)
class SweepRow:
    """One sweep CSV row; its fields are the CSV columns, in order."""

    axis: str
    value: float
    scheme: str
    analytic_cost: float
    sim_cost: float | None
    sim_stderr: float | None
    replication: int
    seed: int


SWEEP_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))


@dataclass(frozen=True)
class SweepResult:
    """All rows of one parameter sweep (one row per value, scheme, replication)."""

    axis: str
    values: tuple
    replications: int
    rows: tuple[SweepRow, ...]

    def mean_analytic(self, scheme: str) -> list[float]:
        """Replication-averaged analytic cost per axis value, in sweep order."""
        out = []
        for value in self.values:
            picked = [
                r.analytic_cost
                for r in self.rows
                if r.scheme == scheme and r.value == value
            ]
            out.append(sum(picked) / len(picked))
        return out


def _replication_seeds(master_seed: int, replications: int) -> list[int]:
    root = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1, np.uint64)[0]) for child in root.spawn(replications)]


def sweep(
    config: ScenarioConfig,
    axis: str,
    values,
    replications: int = 1,
    sim_config: SimConfig | None = None,
) -> SweepResult:
    """Vary one scenario parameter and compare the schemes at each value.

    Each replication redraws the demand rates from a seed derived from the
    config's master seed; the same replication reuses its draw at every
    axis value, so points along the axis are directly comparable.  Rows
    are emitted deterministically given the master seed.

    Every point's rows equal ``run_comparison`` on its instance, built
    from its replication's one rate draw.  The points share the config's
    shape, so the whole axis is one ``_comparisons``: one stack of objective
    inputs gives the popularity costs and feeds one lockstep greedy and then
    the local search, in chunks of the stack, whose objectives are MAC-MT's
    costs.  Placements become policies only to be simulated.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = list(values)
    if not values:
        raise ValueError("values must be non-empty")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    # each point's config or ``Instance`` checks its value; cache sizes become ints for the CSV
    if axis == "cache_size":
        if any(not (0 <= v < math.inf and v == int(v)) for v in values):
            raise ValueError("cache sizes must be non-negative integers")
        values = [int(v) for v in values]

    rep_seeds = _replication_seeds(config.seed, replications)
    draws = [_draw(config, seed) for seed in rep_seeds]
    configs = [dataclasses.replace(config, **{axis: value}) for value in values]
    pops = [zipf_weights(cfg.num_files, cfg.zipf_shape) for cfg in configs]
    points = [(rep, vi, value) for rep in range(replications) for vi, value in enumerate(values)]
    instances = [_scenario(configs[vi], draws[rep], pops[vi]) for rep, vi, _ in points]
    popular, aware, costs = _comparisons(instances)
    rows = []
    for k, (rep, vi, value) in enumerate(points):
        point_sim = None if sim_config is None else dataclasses.replace(sim_config, seed=int(
            np.random.SeedSequence([rep_seeds[rep], vi]).generate_state(1, np.uint64)[0]))
        simulated = _simulated(instances[k], popular[k], aware[k], point_sim)
        rows += [SweepRow(axis, value, scheme, cost, *sim, rep, rep_seeds[rep])
                 for scheme, cost, sim in zip(SCHEMES, costs[k].tolist(), simulated)]
    return SweepResult(axis=axis, values=tuple(values), replications=replications, rows=tuple(rows))


def sweep_csv(result: SweepResult) -> str:
    """Render a sweep as CSV with the normative column set.

    A missing value is an empty cell and a float its shortest round-trip
    ``repr``; every other cell is written as is.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    writer.writerows(
        ["" if v is None else repr(float(v)) if isinstance(v, float) else v
         for v in map(row.__getattribute__, SWEEP_CSV_COLUMNS)]
        for row in result.rows
    )
    return buf.getvalue()


def write_sweep_csv(result: SweepResult, path: str | Path) -> None:
    Path(path).write_text(sweep_csv(result))


def cost_reduction_summary(result: SweepResult) -> dict:
    """Observed maxima of the MAC-MT cost reduction against each baseline.

    Works on replication-averaged costs; returns, per baseline scheme, the
    largest relative reduction across the sweep and the axis value where
    it occurs.  These depend on the drawn rates and are reported, never
    asserted.
    """
    mac = result.mean_analytic("MAC-MT")
    summary: dict = {"axis": result.axis}
    for baseline in ("PAC-MT", "PAC-UT"):
        base = result.mean_analytic(baseline)
        best_red, best_val = 0.0, None
        for value, b, m in zip(result.values, base, mac):
            if b <= 0:
                continue
            red = 1.0 - m / b
            if red > best_red:
                best_red, best_val = red, value
        summary[f"max_reduction_vs_{baseline}"] = best_red
        summary[f"argmax_vs_{baseline}"] = best_val
    return summary
