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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cost import cost_closed_form, cost_unicast
from .model import CachingPolicy, Instance, Record
from .sim import SimConfig, simulate
from .solvers import greedy_macp, local_search, popularity_placement

SCHEMES = ("PAC-UT", "PAC-MT", "MAC-MT")
SWEEP_AXES = ("cache_size", "zipf_shape", "deadline")
SWEEP_CSV_COLUMNS = (
    "axis",
    "value",
    "scheme",
    "analytic_cost",
    "sim_cost",
    "sim_stderr",
    "replication",
    "seed",
)


@dataclass(frozen=True)
class ScenarioConfig(Record):
    """Random-scenario parameters; demand is drawn with numpy's PCG64 stream.

    ``rate_mode`` picks how the uniform rate draw is applied: as an
    independent scale per (SCBS, file) pair on top of the zipf weight
    (default), or as one total rate per SCBS split across files by zipf
    popularity (``per_scbs_total``).  Per-pair draws make each SCBS's
    popularity ranking a noisy variant of the global one, which is what
    lets coordinated placement beat independent per-SCBS rankings.
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
    rate_mode: str = "per_pair"

    def __post_init__(self):
        if self.num_scbs < 1 or self.num_files < 1:
            raise ValueError("need at least one SCBS and one file")
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if not self.deadline > 0:
            raise ValueError("deadline must be positive")
        if self.zipf_shape < 0:
            raise ValueError(f"zipf shape must be non-negative, got {self.zipf_shape}")
        if not 0 <= self.rate_low <= self.rate_high:
            raise ValueError("need 0 <= rate_low <= rate_high")
        if min(self.cost_backhaul, self.cost_mbs_tx, self.cost_scbs) < 0:
            raise ValueError("costs must be non-negative")
        if self.cost_scbs > self.cost_mbs_tx:
            raise ValueError("cost_scbs may not exceed cost_mbs_tx")
        if self.rate_mode not in ("per_scbs_total", "per_pair"):
            raise ValueError(f"unknown rate_mode {self.rate_mode!r}")


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

    Every SCBS's rates follow the same zipf popularity ranking; only the
    uniform rate draw (one per SCBS, or one per pair under ``per_pair``)
    varies.  The macro-only area generates no demand.
    """
    rng = np.random.default_rng(config.seed)
    n, i = config.num_scbs, config.num_files
    pop = zipf_weights(i, config.zipf_shape)
    if config.rate_mode == "per_pair":
        lam = rng.uniform(config.rate_low, config.rate_high, size=(n, i)) * pop[None, :]
    else:
        totals = rng.uniform(config.rate_low, config.rate_high, size=n)
        lam = totals[:, None] * pop[None, :]
    demand = np.vstack([np.zeros((1, i)), lam])
    return Instance(
        num_scbs=n,
        num_files=i,
        cache_size=np.full(n, config.cache_size, dtype=np.int64),
        cost_backhaul=config.cost_backhaul,
        cost_mbs_tx=config.cost_mbs_tx,
        cost_scbs_tx=np.full(n, config.cost_scbs),
        demand=demand,
        deadline=config.deadline,
    )


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
    simulated in its own delivery mode.
    """
    popularity = popularity_placement(instance)
    multicast_aware = local_search(instance, greedy_macp(instance).policy)
    plan = (
        ("PAC-UT", popularity, cost_unicast),
        ("PAC-MT", popularity, cost_closed_form),
        ("MAC-MT", multicast_aware, cost_closed_form),
    )
    results = []
    for scheme, policy, evaluator in plan:
        analytic = evaluator(instance, policy).total
        sim_cost = sim_stderr = None
        if sim_config is not None:
            mode = "unicast" if scheme == "PAC-UT" else "multicast"
            report = simulate(instance, policy, dataclasses.replace(sim_config, mode=mode))
            sim_cost = report.mean_cost_per_period
            sim_stderr = report.std_error
        results.append(SchemeResult(scheme, policy, analytic, sim_cost, sim_stderr))
    return results


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    scheme: str
    analytic_cost: float
    sim_cost: float | None
    sim_stderr: float | None
    replication: int
    seed: int


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
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = list(values)
    if not values:
        raise ValueError("values must be non-empty")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if axis == "cache_size":
        if any(v != int(v) or v < 0 for v in values):
            raise ValueError("cache sizes must be non-negative integers")
        values = [int(v) for v in values]
    elif axis == "zipf_shape":
        if any(v < 0 for v in values):
            raise ValueError("zipf shapes must be non-negative")
    else:
        if any(not v > 0 for v in values):
            raise ValueError("deadlines must be positive")

    rep_seeds = _replication_seeds(config.seed, replications)
    rows: list[SweepRow] = []
    for rep in range(replications):
        for vi, value in enumerate(values):
            cfg = dataclasses.replace(config, **{axis: value}, seed=rep_seeds[rep])
            instance = generate_scenario(cfg)
            sim_cfg = None
            if sim_config is not None:
                sim_seed = int(
                    np.random.SeedSequence([rep_seeds[rep], vi]).generate_state(
                        1, np.uint64
                    )[0]
                )
                sim_cfg = dataclasses.replace(sim_config, seed=sim_seed)
            for res in run_comparison(instance, sim_cfg):
                rows.append(
                    SweepRow(
                        axis=axis,
                        value=value,
                        scheme=res.scheme,
                        analytic_cost=res.analytic_cost,
                        sim_cost=res.sim_cost,
                        sim_stderr=res.sim_stderr,
                        replication=rep,
                        seed=rep_seeds[rep],
                    )
                )
    return SweepResult(axis=axis, values=tuple(values), replications=replications, rows=tuple(rows))


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def sweep_csv(result: SweepResult) -> str:
    """Render a sweep as CSV with the normative column set."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    for r in result.rows:
        writer.writerow(
            [
                r.axis,
                _fmt(r.value) if isinstance(r.value, float) else r.value,
                r.scheme,
                _fmt(r.analytic_cost),
                _fmt(r.sim_cost),
                _fmt(r.sim_stderr),
                r.replication,
                r.seed,
            ]
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
